"""Independent reference computations used to freeze expected test values.

Everything here is deliberately naive and separate from the library code:
classical Gram-Schmidt driven by raw moments in exact rationals,
permutation-expansion determinants, and Lanczos with full
reorthogonalization on atoms.  These are the oracles the main routes are
checked against.
"""
from fractions import Fraction
from itertools import permutations

import mpmath as mp

from momprob.errors import FiniteSupport


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
