"""Shared kernels for symmetric tridiagonal (Jacobi) matrices.

Six kernels live here, each written once for the whole package:

* the Sturm count (the LDL^T negative-pivot count), in Python ints scaled
  by a power of two: one pivot pass gives the count and the Newton step at
  once, and runs the bisection tree to a bracket per eigenvalue and the
  guarded Newton loop that polishes each bracket to the full working
  precision;
* the Christoffel sum of the Gauss weights on the eigensolver's ints;
* :func:`weyl_scan`, the Weyl radii from the monic recurrence on (q, b^2)
  in Python ints, each quantity with its own exponent;
* :func:`christoffel_step`, the (1+t^2) Christoffel step of (q, b^2) on
  Python ints at one scale;
* :func:`recurrence`, the orthonormal three-term recurrence, streamed from
  an iterable of coefficient pairs;
* :func:`matvec`, the product of the matrix with a vector.

Eigenvectors come from the classical recurrence identity: for an eigenvalue
x of a tridiagonal matrix with positive off-diagonal entries, the vector of
orthonormal-polynomial values (p_0(x), ..., p_{N-1}(x)) is an
(unnormalized) eigenvector, and its normalization constant yields the Gauss
quadrature weight w = 1 / sum_k p_k(x)^2 (Golub-Welsch).  Only eigenvalues
and first components are needed for quadrature, so no dense eigenvector
accumulation is performed, and the weights are read on the eigensolver's
ints: the monic recurrence and its Christoffel sum on (q, b^2), with no
root and one mpf division per node.

Inputs are plain sequences; the eigensolver and the weights work in fixed
point scaled to the grading of the matrix, and the eigensolver's absolute
floors scale with min(1, |T|), so a section scaled by 2^k keeps its
relative accuracy.  :func:`recurrence` and :func:`matvec` use the
arithmetic of their arguments (``Fraction``, mpf or mpc alike).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import mpmath as mp
from mpmath import libmp

from .precision import to_mpf, wp


def _pivots(q, b2, x, frac):
    """Negative-pivot count at ``x`` and S = p'(x)/p(x), p the char. polynomial.

    Python ints: ``q`` and ``x`` scaled by one power of two 2^t, ``b2`` by
    2^(2t); the slopes d'_k are held at 2^frac and S comes back at
    2^(2 frac - t), so the Newton step 1/S is 2^(2 frac) // S at 2^t.  The
    pivots d_k = q_k - x - b_{k-1}^2/d_{k-1} factor p(x) = prod d_k, so
    S = sum d'_k/d_k with d'_k = -1 + (b_{k-1}^2/d_{k-1}) (d'_{k-1}/d_{k-1})
    (Li & Zeng, SIAM J. Sci. Comput. 15, 1994).  A zero pivot is replaced
    by 1.
    """
    one = 1 << frac
    d = q[0] - x or 1
    count = d < 0
    total = ratio = -(one << frac) // d  # d'_0 / d_0, d'_0 = -1
    for qk, b2k in zip(q[1:], b2):
        r = b2k // d
        d = qk - x - r or 1
        count += d < 0
        ratio = (((r * ratio) >> frac) - one << frac) // d
        total += ratio
    return count, total


def _split(a, c):
    """Where the tree splits (a, c): at 0 if it spans the origin, at the
    geometric mean if its ends differ by more than a factor 4 on one side of
    0 (an end at 0 counts as 1), else at the midpoint."""
    if a < 0 < c:
        return 0
    if a >= 0 and c > 4 * a:
        return math.isqrt(max(a, 1) * c)
    if c <= 0 and a < 4 * c:
        return -math.isqrt(max(-c, 1) * -a)
    return (a + c) >> 1


def _bisect(count, nodes):
    """Leaves of one bisection tree of counts, ascending.

    ``nodes`` are (a, c, count(a), count(c)), lowest last.  A node is split
    at :func:`_split`, keeping the parts that hold eigenvalues, until it
    holds one or no int lies strictly inside.
    """
    leaves = []
    while nodes:
        a, c, ca, cc = node = nodes.pop()
        mid = _split(a, c)
        if cc - ca == 1 or not a < mid < c:
            leaves.append(node)
            continue
        cm = count(mid)
        nodes += [node for node in ((mid, c, cm, cc), (a, mid, ca, cm))
                  if node[3] > node[2]]
    return leaves


def _newton(q, b2, frac, idx, a, c, x, unit, tol):
    """Eigenvalue ``idx`` by guarded Newton from ``x`` in the bracket (a, c).

    The count of every pass moves one end of the bracket to x; a Newton
    step that leaves the bracket or fails to halve (a zero slope included)
    is replaced by a bisection step.  Stops on a step or bracket within
    max(unit, |x|) 2^-tol, or on a bracket one int unit wide.
    """
    step = c - a
    while True:
        below, slope = _pivots(q, b2, x, frac)
        xn = x - (1 << 2 * frac) // slope if slope else x
        # convergence first: at the noise floor Newton and the count can
        # disagree by a unit
        if slope and abs(xn - x) <= max(unit, abs(xn)) >> tol:
            return xn
        a, c = (x, c) if below <= idx else (a, x)
        if a < xn < c and 2 * abs(xn - x) <= step:
            x, step = xn, abs(xn - x)
            continue
        x, step = (a + c) >> 1, (c - a) >> 1
        if c - a <= max(1, max(unit, abs(x)) >> tol):
            return x


def _parts(v):
    """(m, e) with the mpf ``v`` = m 2^e exactly."""
    sign, man, exp, _ = v._mpf_
    return -man if sign else man, exp


def _fixed(v, shift):
    """floor(v 2^shift) for an mpf or int ``v``, exactly."""
    man, exp = _parts(v) if isinstance(v, mp.mpf) else (v, 0)
    return man << exp + shift if exp + shift >= 0 else man >> -exp - shift


def _scale(q, b, bits: int):
    """The section in Python ints at the eigensolver's scale.

    Inputs are rounded to ``bits + 24`` in mpf, which also gives the
    Gershgorin bounds.  With |T| < 2^e and every nonzero entry at least 2^m,
    the grading is e - m and T 2^-e is held with frac = bits + 32 + 2 (e -
    m) fraction bits: a value v is the int floor(v 2^shift), shift = frac -
    e.  Returns (Q, B, B2, frac, shift, grading, bounds): ``Q`` holds q and
    ``B`` holds b, both exactly, and ``B2`` holds b^2 rounded at bits + 24,
    at 2^(2 shift).  ``bounds`` is (lo, hi, unit): the Gershgorin interval
    widened so neither end is an eigenvalue, and min(1, |T|); it is None
    when T = c I (T = 0 included).
    """
    n = len(q)
    if len(b) != n - 1:
        raise ValueError("off-diagonal must be one entry shorter than diagonal")
    with wp(bits + 24):
        qq = [to_mpf(v) for v in q]
        bb = [to_mpf(v) for v in b]
        # Gershgorin enclosure (a 0 stands in for the missing b at both ends)
        rb = [abs(v) for v in bb] + [0]
        lo = min(qq[k] - (rb[k - 1] + rb[k]) for k in range(n))
        hi = max(qq[k] + (rb[k - 1] + rb[k]) for k in range(n))
        norm = max(abs(lo), abs(hi))
        # exact exponents: mag(v) = floor(log2|v|) + 1; T = 0 gets scale 1
        e = mp.mag(norm) if norm else 0
        m = min((mp.mag(v) for v in qq + bb if v), default=1) - 1
        frac = bits + 32 + 2 * (e - m)
        shift = frac - e
        Q, B = [_fixed(v, shift) for v in qq], [_fixed(v, shift) for v in bb]
        B2 = [_fixed(v * v, 2 * shift) for v in bb]
        bounds = None
        if lo != hi:
            unit = min(1, norm)
            eps = mp.mpf(2) ** (-(bits + 8))
            lo, hi = lo - eps * (unit + abs(lo)), hi + eps * (unit + abs(hi))
            # lo rounds down and hi up, so both stay outside the spectrum
            bounds = _fixed(lo, shift), -_fixed(-hi, shift), _fixed(unit, shift)
    return Q, B, B2, frac, shift, e - m, bounds


def eigenvalues(q, b, bits: int):
    """All eigenvalues of the symmetric tridiagonal matrix, ascending.

    ``q`` is the diagonal (length N), ``b`` the positive off-diagonal
    (length N-1); with b > 0 all eigenvalues are simple.  Everything runs in
    Python ints (:func:`_scale`), where one pivot pass (:func:`_pivots`)
    gives the Sturm count and the Newton step at once.  One bisection tree
    of counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) splits the
    widened Gershgorin interval until every eigenvalue has a bracket, at 0
    and at geometric means where the ends differ in magnitude
    (:func:`_split`).  Each bracket is then polished by one guarded Newton
    loop (:func:`_newton`) run twice: on the same ints cut to about 64
    bits, from the split point of the bracket, until a step is within 2^-40
    max(|x|, least entry); then at full scale from there (from the
    midpoint, if that start is outside the bracket) until a step or bracket
    is within 2^-(bits+8) max(unit, |x|), unit = min(1, |T|).

    The int scale follows the grading as well as the norm (:func:`_scale`);
    the start scale drops s = bits - 32 + e - m of its fraction bits,
    leaving 64 bits of the least entry.  The result is rounded to ``bits``.
    """
    Q, _, B2, frac, shift, grading, bounds = _scale(q, b, bits)
    n = len(Q)
    if bounds is None:  # T = c I: every eigenvalue is c
        out = [Q[0]] * n
    else:
        lo, hi, unit = bounds
        s = max(0, bits - 32 + grading)
        Qs, B2s = [v >> s for v in Q], [v >> 2 * s for v in B2]
        leaves = _bisect(lambda x: _pivots(Q, B2, x, frac)[0], [(lo, hi, 0, n)])
        brackets = [(a, c) for a, c, ca, cc in leaves for _ in range(cc - ca)]
        out = []
        for idx, (a, c) in enumerate(brackets):
            # the start: the least entry is at least 2^64 on the cut ints
            a_s, c_s = a >> s, (c >> s) + 1
            x = _newton(Qs, B2s, frac - s, idx, a_s, c_s, _split(a_s, c_s), 1 << 64, 40) << s
            x = x if a < x < c else (a + c) >> 1
            out.append(_newton(Q, B2, frac, idx, a, c, x, unit, bits + 8))
    with wp(bits):
        return [mp.mpf((x, -shift)) for x in out]


def recurrence(pairs, x):
    """Yield p_0(x), p_1(x), ... of the orthonormal recurrence.

    ``pairs`` yields (q_k, b_k) for k = 1, 2, ...; p_0 = 1 and
    b_k p_k = (x - q_k) p_{k-1} - b_{k-1} p_{k-2}.  Each value is computed
    when it is asked for, in the precision in force at that moment, and
    p_k reads only the first k pairs.
    """
    prev, cur, b_prev = 0, x ** 0, 0  # p_0 = 1 in the arithmetic of x
    yield cur
    for qk, bk in pairs:
        prev, cur = cur, ((x - qk) * cur - b_prev * prev) / bk
        b_prev = bk
        yield cur


def poly_values(q, b, x, n: int):
    """Values (p_0(x), ..., p_{n-1}(x)) of the orthonormal recurrence."""
    return list(islice(recurrence(zip(q, b), x), n))


def matvec(q, b, v):
    """T v for the tridiagonal T with diagonal ``q`` and off-diagonal ``b``."""
    n = len(v)
    out = []
    for i in range(n):
        acc = q[i] * v[i]
        if i > 0:
            acc += b[i - 1] * v[i - 1]
        if i < n - 1:
            acc += b[i] * v[i + 1]
        out.append(acc)
    return out


def _christoffel(Q, B2, x, frac: int, limit: int):
    """The Christoffel sum at the int ``x`` of :func:`_scale`, as (t, E).

    Runs the monic recurrence P_(k+1) = (x - q_k) P_k - b_(k-1)^2 P_(k-1)
    and T_(k+1) = b_(k-1)^2 T_k + P_k^2 (T_1 = P_0^2 = 1) for the section
    scaled to norm below 1, T 2^-e, whose entries the ints hold with
    ``frac`` fraction bits.  So T_N = sum_k P_k^2 b_k^2 ... b_(N-2)^2 = W
    sum_k p_k^2 with W = b_0^2 ... b_(N-2)^2 and p_k the orthonormal
    values.  P_(k-1) and P_k share one block exponent, which grows by
    ``frac`` a step; when either outgrows ``limit`` bits both drop s bits,
    T drops 2s and E grows by s, so T_N = t 2^(2E) up to a power of two
    that every node shares.
    """
    p_prev, p, b2_prev, t, block = 0, 1, 0, 1, 0
    for qk, b2k in zip(Q, B2):
        p_prev, p = p << frac, (x - qk) * p - (b2_prev * p_prev >> frac)
        t = b2k * t + p * p
        b2_prev = b2k
        s = max(p.bit_length(), p_prev.bit_length()) - limit
        if s > 0:
            p_prev, p, t, block = p_prev >> s, p >> s, t >> 2 * s, block + s
    return t, block


def _sum(terms, prec: int):
    """The sum of the (re + i im) 2^e of ``terms`` as (re, im, e): exact over
    the top 2^16 bits of exponent, then cut to ``prec`` bits."""
    live = [e for r, i, e in terms if r or i] or [0]
    e = max(min(live), max(live) - (1 << 16))
    re = im = 0
    for r, i, f in terms:
        re, im = ((re + (r << f - e), im + (i << f - e)) if f >= e
                  else (re + (r >> e - f), im + (i >> e - f)))
    s = max(re.bit_length(), im.bit_length()) - prec
    return (re >> s, im >> s, e + s) if s > 0 else (re, im, e)


def weyl_scan(rows, z, ns, prec: int):
    """Yield the Weyl radius r_n(z) for each n of the ascending ``ns``, r_n
    reading the first n - 1 mpf rows (q_k, b_k) of ``rows``.

    The monic recurrence P_k = (z - q_k) P_(k-1) - b_(k-1)^2 P_(k-2) runs on
    (re, im) Python ints, with T_(k+1) = b_k^2 T_k + |P_k|^2, T_1 = 1, and
    W_k = b_1^2 ... b_k^2 for b_k^2 the exact square of b_k, so that
    r_n = W_(n-1) / (|z - conj z| T_n), one division at the ambient
    precision (Gautschi, Orthogonal Polynomials, 2004, ch. 1).  P_(k-1),
    P_k, T and W each keep ``prec`` bits under an exponent of their own.
    """
    (x, xe), (y, ye) = _parts(z.real), _parts(z.imag)
    old, cur, t, w, c, ce = (0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), 0, 0
    rows, k = iter(rows), 1
    for n in ns:
        for q, b in islice(rows, n - k):
            (qm, qe), (bm, be), (pr, pi, pe) = _parts(q), _parts(b), cur
            cur, old = _sum([(x * pr, x * pi, xe + pe), (-qm * pr, -qm * pi, qe + pe),
                             (-y * pi, y * pr, ye + pe), (-c * old[0], -c * old[1], ce + old[2])],
                            prec), cur
            c, ce = bm * bm, 2 * be
            t = _sum([(c * t[0], 0, ce + t[2]), (cur[0] ** 2 + cur[1] ** 2, 0, 2 * cur[2])], prec)
            w = _sum([(c * w[0], 0, ce + w[2])], prec)
        k = n
        yield mp.make_mpf(libmp.mpf_div(libmp.from_man_exp(w[0], w[2]),
                                        libmp.from_man_exp(2 * abs(y) * t[0], ye + t[2]),
                                        mp.mp.prec, libmp.round_nearest))


def christoffel_step(q, b2):
    """(q, b^2) of (1+t^2) mu from (q, b^2) of mu, and the mass factor d_0.

    Multiplying by 1 + t^2 maps J to R J R^-1, J^2 + I = R^T R (Galant,
    Math. Comp. 25, 1971; Kautsky & Golub, Linear Algebra Appl. 52/53, 1983),
    exactly when J is the whole matrix of its atoms.  With d the pivots,
    rho_i = b_i^2 / d_i and h_i = q_i + q_(i+1) - g_(i-1), one reciprocal a row:
    d_i = q_i^2 + b_(i-1)^2 + b_i^2 + 1 - g_(i-1) h_(i-1) - b_(i-1)^2 rho_(i-2),
    g_i = rho_i h_i, q'_i = q_i + g_i - g_(i-1), b'_i^2 = b_i^2 d_(i+1) / d_i,
    and d_0 is the integral of 1 + t^2 against the normalized mu.  Int and
    Fraction sections run exactly, others on Python ints at one scale 2^S,
    S = prec + 32 - min(0, least exponent of a nonzero entry), prec the
    ambient precision; each output is rounded once to prec.  As d_i >= 1,
    rho_i is one int division; b'^2 is the quotient of the exact ints
    B_i D_(i+1) and D_i.  D_i is off by about 2 + b_(i-1)^2 + h_(i-1)^2 units
    of 2^-S: where that exceeds 2^-(prec+8) d_i, S grows and the pass reruns.
    """
    n, exact, margin = len(q), all(isinstance(v, (int, Fraction)) for v in (*q, *b2)), -1
    if exact:
        vals, s, fix, mul, div = (*q, *b2), 0, lambda v, s: v, lambda x, y: x * y, Fraction
    else:
        vals = [v if isinstance(v, mp.mpf) else to_mpf(v) for v in (*q, *b2)]
        prec, fix = mp.mp.prec, _fixed
        s = prec + 32 - min(0, min((e + abs(m).bit_length() for m, e in map(_parts, vals) if m),
                                   default=0))
        mul, div = lambda x, y: x * y >> s, lambda x, y: (x << s) // y
    while margin < 0:
        ints = [fix(v, s) for v in vals]
        Q, B, d, q_out = [*ints[:n], 0], [*ints[n:], 0], [], []
        g = h = r1 = r2 = b2m = 0  # g, h, b^2 and rho of the row before, rho of the one before
        margin = 0 if exact else s
        for i in range(n):
            qi, b2i = Q[i], B[i]
            di = mul(qi, qi) + b2m + b2i + (1 << s) - mul(g, h) - mul(b2m, r2)
            if not exact:  # the bits of D_i above its error bound and prec + 8
                margin = min(margin, di.bit_length() - prec - 8 - max(
                    2, b2m.bit_length() - s, 2 * (abs(h).bit_length() - s)))
            r, h = div(b2i, di), qi + Q[i + 1] - g
            gi = mul(r, h)
            q_out.append(qi + gi - g)
            d.append(di)
            g, b2m, r2, r1 = gi, b2i, r1, r
        if margin < 0:
            s -= margin - 8
    if exact:
        return q_out, [div(b * dn, dd) for b, dd, dn in zip(B, d, d[1:])], d[0]

    def to_prec(num, e, den=1):
        if den > 1:  # num / den to prec + 3 bits and a sticky bit, so it rounds exactly
            k = prec + 3 + den.bit_length() - num.bit_length()
            quo, rem = divmod(num << k, den) if k >= 0 else divmod(num, den << -k)
            num, e = quo << 1 | (rem > 0), e - k - 1
        return mp.make_mpf(libmp.normalize(int(num < 0), abs(num), e, abs(num).bit_length(), prec,
                                           libmp.round_nearest))

    return ([to_prec(v, -s) for v in q_out],
            [to_prec(b * dn, -s, dd) for b, dd, dn in zip(B, d, d[1:])], to_prec(d[0], -s))


def gauss_rule(q, b, bits: int):
    """Gauss quadrature of the (normalized) measure attached to the matrix.

    Nodes are the eigenvalues of the N x N section, which must have a
    positive off-diagonal; the weight at node x is 1 / sum_k p_k(x)^2, the
    squared first component of the normalized eigenvector (Golub & Welsch,
    Math. Comp. 23, 1969).  It is read on the eigensolver's ints
    (:func:`_scale`) as W / T_N(x) from :func:`_christoffel`, whose block
    exponent keeps bits + 40 + e - m bits, e - m the grading.  W is the
    same at every node and cancels when the weights are renormalized to
    unit total mass, which also absorbs the last ulps of rounding.  Each
    weight is taken at its node as returned, rounded to ``bits``, so the
    rule's weights belong to its printed nodes.  The squares of b are exact:
    b^2 rounded at bits + 24 cost a weakly coupled section (b = 10^-3
    beside b = 1) about 6 bits of its weights at 53.
    """
    Q, B, _, frac, shift, grading, _ = _scale(q, b, bits)
    if not all(v > 0 for v in B):
        raise ValueError("a Gauss rule needs a positive off-diagonal")
    nodes = eigenvalues(q, b, bits)
    b2 = [v * v for v in B]
    limit = bits + 40 + grading
    with wp(bits + 24):
        weights = [mp.mpf((1, -2 * block)) / t for t, block in
                   (_christoffel(Q, b2, _fixed(x, shift), frac, limit) for x in nodes)]
        total = mp.fsum(weights)
        weights = [w / total for w in weights]
    with wp(bits):
        return nodes, [+w for w in weights]


def eigenvector_columns(q, b, nodes, bits: int):
    """Normalized eigenvector for each node, as a list of column lists."""
    n = len(q)
    cols = []
    with wp(bits + 24):
        qq = [to_mpf(v) for v in q]
        bb = [to_mpf(v) for v in b]
        for x in nodes:
            vals = poly_values(qq, bb, to_mpf(x), n)
            nrm = mp.sqrt(mp.fsum(v * v for v in vals))
            cols.append([v / nrm for v in vals])
    with wp(bits):
        return [[+v for v in col] for col in cols]
