"""Independent reference computations used to freeze expected test values.

Everything here is deliberately naive and separate from the library code:
classical Gram-Schmidt driven by raw moments in exact rationals,
permutation-expansion determinants, Lanczos with full
reorthogonalization on atoms, the per-index Sturm bisection
eigensolver, the mpf Golub-Welsch weight pass and the mpc Weyl-radius
scan.  These are the oracles the main routes are checked against.
"""
from fractions import Fraction
from itertools import islice, permutations

import mpmath as mp

from momprob.errors import FiniteSupport
from momprob.precision import to_mpf, wp


def gram_schmidt_recurrence(moments, n):
    """(q_1..q_n, b_1^2..b_{n-1}^2) by classical Gram-Schmidt on monomials.

    The inner product is <t^a, t^b> = s_{a+b} with exact Fractions; monic
    orthogonal polynomials are built degree by degree and the recurrence
    coefficients are read off their inner products.
    """
    s = [Fraction(x) for x in moments]

    def ip(p, q):
        return sum(p[i] * q[j] * s[i + j] for i in range(len(p)) for j in range(len(q)))

    def minus(p, q):
        m = max(len(p), len(q))
        p = p + [Fraction(0)] * (m - len(p))
        q = q + [Fraction(0)] * (m - len(q))
        return [a - b for a, b in zip(p, q)]

    polys = [[Fraction(1)]]
    norms2 = [ip(polys[0], polys[0])]
    q_out, b2_out = [], []
    for k in range(n):
        tp = [Fraction(0)] + polys[k]
        a = ip(tp, polys[k]) / norms2[k]
        q_out.append(a)
        nxt = minus(tp, [a * c for c in polys[k]])
        if k > 0:
            beta = norms2[k] / norms2[k - 1]
            nxt = minus(nxt, [beta * c for c in polys[k - 1]])
        polys.append(nxt)
        norms2.append(ip(nxt, nxt))
        if k + 1 <= n - 1:
            b2_out.append(norms2[k + 1] / norms2[k])
    return q_out, b2_out


def _mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def lanczos_recurrence(pts, wts, n, bits, partial=False):
    """(q_1..q_n, b_1..b_{n-1}) of an atomic measure, rounded to ``bits``.

    Lanczos with the diagonal matrix of the points, started from the
    square-root weight vector, with two passes of classical Gram-Schmidt
    against the whole basis per step: O(N n^2), computed at bits + 32.  A
    squared residual norm at or below 2^(-2 bits) ends the recurrence
    (truncated with ``partial``, FiniteSupport otherwise).
    """
    guard = bits + 32
    with mp.workprec(guard):
        t = [_mpf(p) for p in pts]
        w = [_mpf(x) for x in wts]
        total = mp.fsum(w)
        floor2 = mp.mpf(2) ** (-2 * bits)
        v = [mp.sqrt(x / total) for x in w]
        basis = [v]
        q_out, b_out = [], []
        for k in range(n):
            u = [ti * vi for ti, vi in zip(t, basis[k])]
            qk = mp.fsum(ui * vi for ui, vi in zip(u, basis[k]))
            q_out.append(qk)
            if k == n - 1:
                break
            # two passes of classical Gram-Schmidt against the whole basis
            for _ in range(2):
                for col in basis:
                    c = mp.fsum(ui * ci for ui, ci in zip(u, col))
                    u = [ui - c * ci for ui, ci in zip(u, col)]
            nrm2 = mp.fsum(ui * ui for ui in u)
            if not nrm2 > floor2:
                if partial:
                    break
                raise FiniteSupport(
                    f"support numerically exhausted at level {k + 1}: "
                    "residual norm below resolvable size"
                )
            bk = mp.sqrt(nrm2)
            b_out.append(bk)
            basis.append([ui / bk for ui in u])
        q_out = q_out[: len(b_out) + 1]
    with mp.workprec(bits):
        return [+x for x in q_out], [+x for x in b_out]


def _sturm_count(q, b2, x):
    """Number of eigenvalues strictly below ``x`` (negative LDL^T pivots)."""
    count = 0
    d = q[0] - x
    if d == 0:
        d = mp.mpf(2) ** (-mp.mp.prec * 2)
    if d < 0:
        count += 1
    for k in range(1, len(q)):
        d = (q[k] - x) - b2[k - 1] / d
        if d == 0:
            d = mp.mpf(2) ** (-mp.mp.prec * 2)
        if d < 0:
            count += 1
    return count


def _charpoly_and_derivative(q, b2, x):
    """(p_N(x), p_N'(x)) from p_k = (q_k - x) p_{k-1} - b_{k-1}^2 p_{k-2}."""
    pm1, p = mp.mpf(1), q[0] - x
    dm1, dp = mp.mpf(0), mp.mpf(-1)
    for k in range(1, len(q)):
        pn = (q[k] - x) * p - b2[k - 1] * pm1
        dn = (q[k] - x) * dp - p - b2[k - 1] * dm1
        pm1, p = p, pn
        dm1, dp = dp, dn
    return p, dp


def sturm_newton_eigenvalues(q, b, bits: int):
    """All eigenvalues of the symmetric tridiagonal matrix, ascending.

    ``q`` is the diagonal (length N), ``b`` the positive off-diagonal
    (length N-1); with b > 0 all eigenvalues are simple.

    The library's eigensolver before its shared bisection tree: every index
    bisects from the Gershgorin interval until isolated, refines for up to
    48 more Sturm counts, runs a guarded Newton loop and falls back to
    bisection, about 43 Sturm counts per eigenvalue.  The Sturm count and
    the characteristic polynomial are its own copies, so a fault in the
    library's kernels cannot move both sides of a comparison alike.
    """
    n = len(q)
    if len(b) != n - 1:
        raise ValueError("off-diagonal must be one entry shorter than diagonal")
    guard = bits + 24
    with wp(guard):
        qq = [to_mpf(v) for v in q]
        bb = [to_mpf(v) for v in b]
        b2 = [v * v for v in bb]
        if n == 1:
            return [+qq[0]]
        # Gershgorin enclosure
        radius = [mp.mpf(0)] * n
        for k in range(n):
            r = mp.mpf(0)
            if k > 0:
                r += abs(bb[k - 1])
            if k < n - 1:
                r += abs(bb[k])
            radius[k] = r
        lo = min(qq[k] - radius[k] for k in range(n))
        hi = max(qq[k] + radius[k] for k in range(n))
        span = hi - lo
        if span == 0:
            return [+qq[0]] * n

        eps = mp.mpf(2) ** (-(bits + 8))
        out = []
        for idx in range(n):
            a, c = lo - eps * (1 + abs(lo)), hi + eps * (1 + abs(hi))
            ca, cc = 0, n
            # isolate: bisect until the bracket holds exactly one eigenvalue
            # (matters for strongly graded matrices, where neighbor spacing
            # can be astronomically small relative to the spectral span)
            it = 0
            while cc - ca > 1 and it < 4 * guard:
                mid = (a + c) / 2
                cm = _sturm_count(qq, b2, mid)
                if cm <= idx:
                    a, ca = mid, cm
                else:
                    c, cc = mid, cm
                it += 1
            # refine the bracket until Newton has a safe basin
            for _ in range(48):
                if c - a <= mp.mpf("1e-12") * max(abs(a), abs(c), mp.mpf(1)):
                    break
                mid = (a + c) / 2
                if _sturm_count(qq, b2, mid) <= idx:
                    a = mid
                else:
                    c = mid
            x = (a + c) / 2
            # guarded Newton on the characteristic polynomial
            converged = False
            for _ in range(max(12, int(mp.log(bits, 2)) + 6)):
                p, dp = _charpoly_and_derivative(qq, b2, x)
                if dp == 0:
                    break
                xn = x - p / dp
                if not (a <= xn <= c):
                    if _sturm_count(qq, b2, x) <= idx:
                        a = x
                    else:
                        c = x
                    xn = (a + c) / 2
                if abs(xn - x) <= eps * max(mp.mpf(1), abs(xn)):
                    x = xn
                    converged = True
                    break
                x = xn
            if not converged:
                # pure bisection to full precision as a fallback
                while c - a > eps * max(mp.mpf(1), abs(a), abs(c)):
                    mid = (a + c) / 2
                    if mid == a or mid == c:
                        break
                    if _sturm_count(qq, b2, mid) <= idx:
                        a = mid
                    else:
                        c = mid
                x = (a + c) / 2
            out.append(x)
    with wp(bits):
        return [+x for x in out]


def golub_welsch_weights(q, b, nodes, bits: int):
    """Gauss weights at ``nodes`` from the orthonormal recurrence in mpf.

    The library's weight pass before its int kernel: at bits + 24, the
    weight at x is 1 / sum_k p_k(x)^2 with p_0 = 1 and b_k p_k = (x - q_k)
    p_(k-1) - b_(k-1) p_(k-2) (Golub & Welsch, Math. Comp. 23, 1969),
    renormalized to unit total mass and rounded to ``bits``.  The
    recurrence is its own copy.
    """
    with wp(bits + 24):
        qq = [to_mpf(v) for v in q]
        bb = [to_mpf(v) for v in b]
        weights = []
        for x in nodes:
            prev, cur, b_prev = 0, x ** 0, 0
            vals = [cur]
            for qk, bk in zip(qq, bb):
                prev, cur = cur, ((x - qk) * cur - b_prev * prev) / bk
                b_prev = bk
                vals.append(cur)
            weights.append(1 / mp.fsum(v * v for v in vals))
        total = mp.fsum(weights)
        weights = [w / total for w in weights]
    with wp(bits):
        return [+w for w in weights]


def det_permutation(matrix):
    """Exact determinant by signed permutation expansion (small sizes)."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(matrix[i][perm[i]])
        total += sign * term
    return total


def hankel_det_oracle(moments, k):
    return det_permutation(
        [[moments[i + j] for j in range(k + 1)] for i in range(k + 1)]
    )


def lognormal_moment(k: int, prec: int):
    """s_k = exp(k^2/2) of the lognormal moment problem at ``prec`` bits."""
    with wp(prec):
        return mp.exp(mp.mpf(k) ** 2 / 2)


def atomic_moments(points, weights, m):
    """Exact moments of a rational atomic measure."""
    pts = [Fraction(p) for p in points]
    wts = [Fraction(w) for w in weights]
    out = []
    powers = [Fraction(1)] * len(pts)
    for _ in range(m + 1):
        out.append(sum(w * p for w, p in zip(wts, powers)))
        powers = [p * t for p, t in zip(powers, pts)]
    return out


# Standard-normal moments s_k = (k-1)!! for even k: frozen reference values.
STD_NORMAL_MOMENTS = (1, 0, 1, 0, 3, 0, 15, 0, 105)

# Moments of the weight exp(-t^2)/sqrt(pi): s_{2m} = (2m-1)!! / 2^m.
SQRT_PI_WEIGHT_MOMENTS = (
    Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0), Fraction(3, 4),
    Fraction(0), Fraction(15, 8), Fraction(0), Fraction(105, 16),
)

# Moments of the weight proportional to exp(-2 t^2): s_{2m} = (2m-1)!! / 4^m.
QUARTER_VARIANCE_MOMENTS = (
    Fraction(1), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(3, 16),
    Fraction(0), Fraction(15, 64), Fraction(0), Fraction(105, 256),
)


def mpf_weyl_radii(J, z, bits, ns):
    """r_n(z) for each n of the ascending ``ns``, unrounded: the orthonormal
    recurrence b_k p_k = (z - q_k) p_(k-1) - b_(k-1) p_(k-2) run forward in
    mpc at ``bits + 16``, summing |p_k(z)|^2 over k < n, then
    1 / (|z - conj z| sum).  Rows are read at that precision, one
    checkpoint at a time."""
    rows, radii, k = J.pairs(), [], 1
    with wp(bits + 16):
        z = mp.mpc(z)
        width = abs(z - mp.conj(z))
        prev, cur, b_prev, total = 0, mp.mpc(1), 0, mp.mpf(1)
    for n in ns:
        with wp(bits + 16):
            for q, b in islice(rows, n - k):
                q, b = to_mpf(q), to_mpf(b)
                prev, cur, b_prev = cur, ((z - q) * cur - b_prev * prev) / b, b
                total += mp.re(cur) ** 2 + mp.im(cur) ** 2
            k = n
            radii.append(1 / (width * total))
    return radii
