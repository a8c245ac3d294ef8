"""Shared kernels for symmetric tridiagonal (Jacobi) matrices.

Three kernels live here, each written once for the whole package:

* the Sturm count (the LDL^T negative-pivot count, robust at any mantissa
  size and monotone in IEEE doubles), which drives one bisection tree, run
  in doubles for split points and in mpf for a bracket per eigenvalue, and
  guards the Newton iteration on the characteristic polynomial that
  polishes each bracket to the full working precision;
* :func:`recurrence`, the orthonormal three-term recurrence, streamed from
  an iterable of coefficient pairs;
* :func:`matvec`, the product of the matrix with a vector.

Eigenvectors come from the classical recurrence identity: for an eigenvalue
x of a tridiagonal matrix with positive off-diagonal entries, the vector of
orthonormal-polynomial values (p_0(x), ..., p_{N-1}(x)) is an
(unnormalized) eigenvector, and its normalization constant yields the Gauss
quadrature weight w = 1 / sum_k p_k(x)^2 (Golub-Welsch).  Only eigenvalues
and first components are needed for quadrature, so no dense eigenvector
accumulation is performed.

Inputs are plain sequences; the eigensolver decides in mpmath arithmetic at
the precision requested by the caller (doubles only choose where it counts),
and its absolute floors scale with min(1, |T|), so a section scaled by 2^k
keeps its relative accuracy.  :func:`recurrence` and :func:`matvec` use the
arithmetic of their arguments (``Fraction``, mpf or mpc alike).
"""
from __future__ import annotations

import math
from itertools import islice

import mpmath as mp

from .precision import to_mpf, wp


def _sturm_count(q, b2, x, unit=1):
    """Number of eigenvalues strictly below ``x`` (negative LDL^T pivots).

    Runs in the arithmetic of ``x``; a zero pivot is replaced by the least
    normal double, or by ``unit`` * 2^-(2 prec) in mpf.
    """
    tiny = 2.0 ** -1022 if isinstance(x, float) else unit * mp.ldexp(1, -2 * mp.mp.prec)
    count, d = 0, 1
    for k, qk in enumerate(q):
        d = qk - x - b2[k - 1] / d if k else qk - x
        if d == 0:
            d = tiny
        count += d < 0
    return count


def _bisect(q, b2, unit, nodes, floor, isolate):
    """Leaves of one bisection tree of Sturm counts, ascending.

    ``nodes`` are (a, c, count(a), count(c)), lowest last.  A node is split
    at its midpoint, keeping the halves that hold eigenvalues, until it holds
    one (with ``isolate``), its midpoint equals an end or it is no wider
    than ``floor``.
    """
    leaves = []
    while nodes:
        a, c, ca, cc = node = nodes.pop()
        mid = (a + c) / 2
        if (isolate and cc - ca == 1) or not a < mid < c or c - a <= floor:
            leaves.append(node)
            continue
        cm = _sturm_count(q, b2, mid, unit)
        nodes += [node for node in ((mid, c, cm, cc), (a, mid, ca, cm))
                  if node[3] > node[2]]
    return leaves


def _double_estimates(q, b2, lo, hi):
    """One estimate per eigenvalue from the tree in machine doubles, or None.

    The tree bisects [lo, hi] to adjacent doubles (at most 4 * 53 halvings);
    a leaf holding one eigenvalue gives its midpoint, one holding more gives
    None for each.  All are None if an entry, a square or hi - lo overflows.
    """
    n = len(q)
    qf, b2f, lof, hif = [float(v) for v in q], [float(v) for v in b2], float(lo), float(hi)
    if not all(map(math.isfinite, qf + b2f + [hif - lof])):
        return [None] * n
    leaves = _bisect(qf, b2f, 1, [(lof, hif, 0, n)], (hif - lof) * 2.0 ** -212, False)
    est = [(mp.mpf(a) + c) / 2 if cc - ca == 1 else None
           for a, c, ca, cc in leaves for _ in range(cc - ca)]
    return est if len(est) == n else [None] * n


def _charpoly_and_derivative(q, b2, x):
    """Characteristic polynomial of the leading sections, with derivative.

    Returns (p_N(x), p_N'(x)) from the standard three-term recursion
    p_k = (q_k - x) p_{k-1} - b_{k-1}^2 p_{k-2}.  Magnitudes can be huge;
    mpmath's unbounded exponent makes rescaling unnecessary.
    """
    pm1, p = mp.mpf(1), q[0] - x
    dm1, dp = mp.mpf(0), mp.mpf(-1)
    for k in range(1, len(q)):
        pn = (q[k] - x) * p - b2[k - 1] * pm1
        dn = (q[k] - x) * dp - p - b2[k - 1] * dm1
        pm1, p = p, pn
        dm1, dp = dp, dn
    return p, dp


def eigenvalues(q, b, bits: int):
    """All eigenvalues of the symmetric tridiagonal matrix, ascending.

    ``q`` is the diagonal (length N), ``b`` the positive off-diagonal
    (length N-1); with b > 0 all eigenvalues are simple.  One bisection tree
    of Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) runs
    in doubles to an estimate per eigenvalue, then in mpf from one count at
    each midpoint between neighbouring estimates until every eigenvalue has
    a bracket.  One guarded Newton loop per bracket, started at its estimate
    if inside, polishes it to a step within 2^-(bits+8) max(unit, |x|),
    unit = min(1, |T|), bisecting when a step leaves the bracket or fails to
    halve.  The mpf passes run at ``bits + 24``; the result is rounded to
    ``bits``.
    """
    n = len(q)
    if len(b) != n - 1:
        raise ValueError("off-diagonal must be one entry shorter than diagonal")
    with wp(bits + 24):
        qq = [to_mpf(v) for v in q]
        bb = [abs(to_mpf(v)) for v in b] + [mp.mpf(0)]
        b2 = [v * v for v in bb]
        eps = mp.mpf(2) ** (-(bits + 8))
        # Gershgorin enclosure (bb[-1] = 0 stands in for the missing b at
        # both ends), widened so neither end is an eigenvalue
        lo = min(qq[k] - (bb[k - 1] + bb[k]) for k in range(n))
        hi = max(qq[k] + (bb[k - 1] + bb[k]) for k in range(n))
        if lo == hi:  # T = c I (T = 0 included): every eigenvalue is c
            with wp(bits):
                return [+lo] * n
        unit = min(1, max(abs(lo), abs(hi)))
        lo, hi = lo - eps * (unit + abs(lo)), hi + eps * (unit + abs(hi))
        est = _double_estimates(qq, b2, lo, hi)
        cuts = [(x + y) / 2 for x, y in zip(est, est[1:]) if x is not None and y is not None]
        points = [lo] + [x for x in cuts if lo < x < hi] + [hi]
        counts = [0] + [_sturm_count(qq, b2, x, unit) for x in points[1:-1]] + [n]
        nodes = [node for node in zip(points, points[1:], counts, counts[1:]) if node[3] > node[2]]
        floor = mp.ldexp(hi - lo, -4 * (bits + 24))  # a node's last halving
        brackets = [(a, c) for a, c, ca, cc in _bisect(qq, b2, unit, nodes[::-1], floor, True)
                    for _ in range(cc - ca)]
        out = []
        for idx, (a, c) in enumerate(brackets):
            x = est[idx] if est[idx] is not None and a < est[idx] < c else (a + c) / 2
            step = c - a
            while True:
                p, dp = _charpoly_and_derivative(qq, b2, x)
                if dp:  # a zero slope falls through to a bisection step
                    xn = x - p / dp
                    # convergence first: at the noise floor Newton and the
                    # Sturm count can disagree by an ulp
                    if abs(xn - x) <= eps * max(unit, abs(xn)):
                        x = xn
                        break
                    if a < xn < c and 2 * abs(xn - x) <= step:
                        x, step = xn, abs(xn - x)
                        continue
                a, c = (x, c) if _sturm_count(qq, b2, x, unit) <= idx else (a, x)
                x, step = (a + c) / 2, (c - a) / 2
                if c - a <= eps * max(unit, abs(x)):
                    break
            out.append(x)
    with wp(bits):
        return [+x for x in out]


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


def gauss_rule(q, b, bits: int):
    """Gauss quadrature of the (normalized) measure attached to the matrix.

    Nodes are the eigenvalues of the N x N section; the weight at node x is
    1 / sum_k p_k(x)^2, the squared first component of the normalized
    eigenvector.  Weights are renormalized to unit total mass at the end to
    absorb the last ulps of rounding.
    """
    nodes = eigenvalues(q, b, bits)
    n = len(q)
    with wp(bits + 24):
        qq = [to_mpf(v) for v in q]
        bb = [to_mpf(v) for v in b]
        weights = []
        for x in nodes:
            vals = poly_values(qq, bb, x, n)
            weights.append(1 / mp.fsum(v * v for v in vals))
        total = mp.fsum(weights)
        weights = [w / total for w in weights]
    with wp(bits):
        return [+x for x in nodes], [+w for w in weights]


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
