"""Moment sequences and their two-way conversion with Jacobi matrices.

The moments -> recurrence map is evaluated through the LDL^T pivots of the
Hankel matrix H_{ij} = s_{i+j}: with unit-lower factor L and pivots d_k one
has the classical determinant identities

    D_k = d_0 d_1 ... d_k,
    q_k = L[k][k-1] - L[k-1][k-2],        (1-indexed diagonal entries)
    b_k = sqrt(d_k / d_{k-1}),            (off-diagonal entries)

i.e. exactly the determinantal formulas, read off a single factorization
instead of a pile of minors.  Exact rational arithmetic is used whenever the
inputs are rational; otherwise the factorization runs in big floats at a
multiple of the requested precision and escalates until two mantissa sizes
agree, since Hankel conditioning grows super-exponentially with the order.

The reverse map reads s_k off powers of a finite section: s_k is the top
corner entry of T^k for any section of size at least floor(k/2)+1, exactly,
because a closed walk of length k on the index path cannot travel further
than floor(k/2) steps from its start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .errors import (
    CoefficientExhausted,
    DegenerateHankel,
    InsufficientMoments,
    PrecisionLoss,
)
from .jacobi import JacobiMatrix
from .precision import (
    DOUBLE,
    RATIONAL,
    PrecisionConfig,
    agreeing_bits,
    convert,
    format_number,
    is_finite_number,
    sqrt_number,
    to_mpf,
    wp,
)


@dataclass(frozen=True)
class MomentSequence:
    """Normalized power-moment sequence s_0, s_1, ... with its arithmetic."""

    values: tuple
    precision: PrecisionConfig
    normalized: bool = True

    def __post_init__(self):
        if not self.values:
            raise ValueError("a moment sequence needs at least s_0")
        for v in self.values:
            if not is_finite_number(v):
                raise ValueError("moments must be finite")
        if self.normalized:
            s0 = self.values[0]
            if self.precision.mode == RATIONAL:
                if Fraction(s0) != 1:
                    raise ValueError("normalized sequence requires s_0 = 1")
            else:
                if abs(float(to_mpf(s0) - 1)) > max(self.precision.abs_tol, 1e-12):
                    raise ValueError("normalized sequence requires s_0 = 1")

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_values(
        cls,
        values: Sequence,
        precision: Optional[PrecisionConfig] = None,
        normalized: bool = True,
    ) -> "MomentSequence":
        cfg = precision if precision is not None else PrecisionConfig()
        return cls(tuple(convert(v, cfg) for v in values), cfg, normalized)

    def to_json(self) -> dict:
        return {
            "values": [format_number(v, self.precision) for v in self.values],
            "precision": self.precision.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict, precision: Optional[PrecisionConfig] = None) -> "MomentSequence":
        cfg = precision
        if cfg is None and "precision" in obj:
            cfg = PrecisionConfig.from_json(obj["precision"])
        if cfg is None:
            cfg = PrecisionConfig()
        return cls.from_values(obj["values"], cfg, normalized=obj.get("normalized", True))


# ---------------------------------------------------------------------------
# Hankel determinants


def _det_pivoted(rows):
    """Determinant by Gaussian elimination with partial pivoting.

    Works verbatim for Fractions (exact) and mpf entries; returns the exact
    zero for rationally singular input.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    if m == 1:
        return a[0][0]
    sign = 1
    one = a[0][0] - a[0][0]  # typed zero
    det = one + 1
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return one
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        det = det * a[col][col]
        inv_free = a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] / inv_free
            if f == 0:
                continue
            row_r, row_c = a[r], a[col]
            for c in range(col + 1, m):
                row_r[c] = row_r[c] - f * row_c[c]
    return det * sign


def hankel_determinants(s: MomentSequence, k_max: int):
    """Leading principal Hankel determinants D_0 ... D_{k_max}.

    Exact in rational mode.  In float modes each determinant is evaluated at
    four times the requested mantissa (Hankel conditioning degrades fast) and
    rounded back on return.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if len(s) < 2 * k_max + 1:
        raise InsufficientMoments(
            f"need {2 * k_max + 1} moments for D_{k_max}, got {len(s)}"
        )
    cfg = s.precision
    if cfg.mode == RATIONAL:
        vals = [Fraction(v) for v in s.values]
        return [
            _det_pivoted([[vals[i + j] for j in range(k + 1)] for i in range(k + 1)])
            for k in range(k_max + 1)
        ]
    work = 4 * cfg.working_bits()
    with wp(work):
        vals = [to_mpf(v) for v in s.values]
        dets = [
            _det_pivoted([[vals[i + j] for j in range(k + 1)] for i in range(k + 1)])
            for k in range(k_max + 1)
        ]
    if cfg.mode == DOUBLE:
        return [float(d) for d in dets]
    with wp(cfg.bits):
        return [+d for d in dets]


def validate_positive(s: MomentSequence, k_max: int) -> bool:
    """Strict positivity of D_0 ... D_{k_max} (solvability of the problem)."""
    dets = hankel_determinants(s, k_max)
    cfg = s.precision
    if cfg.mode == RATIONAL:
        return all(d > 0 for d in dets)
    return all(d > cfg.abs_tol for d in dets)


# ---------------------------------------------------------------------------
# moments -> Jacobi

# Escalation stops before the working mantissa would pass this multiple of
# the requested one: 4x, 8x, ..., 256x allows six agreement checks.
_MAX_WORK_FACTOR = 256
# Runs that cancellation has reduced to noise still share a bit or two by
# chance, so agreement below this floor that fails to rise is not a stall.
_NOISE_BITS = 16


def _ldl_recurrence(svals, n):
    """q_1..q_n and b_1^2..b_{n-1}^2 from the Hankel LDL^T factorization.

    ``svals`` must hold s_0..s_{2n-1}, optionally also s_{2n}, in a field
    that supports comparison with zero (Fraction, or mpf under an ambient
    workprec).  The coefficients themselves need only s_0..s_{2n-1}; when
    s_{2n} is present the last pivot d_n is additionally checked.  Raises
    DegenerateHankel on a nonpositive pivot.
    """
    m = n + 1
    zero = svals[0] - svals[0]
    L = [[zero] * m for _ in range(m)]
    d = [zero] * m
    for j in range(m):
        if 2 * j < len(svals):
            acc = svals[2 * j]
            for k in range(j):
                acc = acc - L[j][k] * L[j][k] * d[k]
            if not acc > 0:
                raise DegenerateHankel(
                    f"Hankel pivot d_{j} is not positive (finite-support input)"
                )
            d[j] = acc
        L[j][j] = zero + 1
        for i in range(j + 1, m):
            if i + j >= len(svals):
                continue
            v = svals[i + j]
            for k in range(j):
                v = v - L[i][k] * L[j][k] * d[k]
            L[i][j] = v / d[j]
    q = [L[1][0]]
    for j in range(2, n + 1):
        q.append(L[j][j - 1] - L[j - 1][j - 2])
    b2 = [d[j] / d[j - 1] for j in range(1, n)]
    return q, b2


def _jacobi_from_moment_source(source, n, cfg, family=None, n_moments=None):
    """Adaptive-precision moments -> Jacobi for regenerable moment values.

    ``source(k, prec)`` must return s_k accurately at ``prec`` bits.  The
    factorization runs at a working precision that starts at four times the
    requested mantissa and doubles until two consecutive runs agree on every
    coefficient, which certifies the output against Hankel cancellation.
    Escalation gives up with PrecisionLoss as soon as a doubling fails to
    raise an agreement of at least ``_NOISE_BITS``, or when the next
    doubling would pass ``_MAX_WORK_FACTOR`` times the requested mantissa.
    """
    target = cfg.working_bits()
    floor_b2 = mp.mpf(2) ** (-2 * target)
    count = 2 * n + 1 if n_moments is None else n_moments
    max_bits = _MAX_WORK_FACTOR * target

    def compute(p):
        with wp(p):
            svals = [to_mpf(source(k, p)) for k in range(count)]
            return _ldl_recurrence(svals, n)

    p = 4 * target
    q_prev, b2_prev = compute(p)
    best = -math.inf
    while True:
        p *= 2
        q_cur, b2_cur = compute(p)
        with wp(p):
            agree = math.inf
            for a, b in zip(q_prev + b2_prev, q_cur + b2_cur):
                agree = min(agree, agreeing_bits(a, b))
            scale = max([abs(x) for x in q_cur] + [mp.mpf(1)])
            collapsing = any(x < floor_b2 * scale * scale for x in b2_cur)
        if agree >= target + 8:
            break
        if collapsing:
            raise DegenerateHankel(
                "off-diagonal collapses below resolvable size "
                "(finite-support input at this precision)"
            )
        if (best >= _NOISE_BITS and agree <= best) or 2 * p > max_bits:
            raise PrecisionLoss(
                f"moments->Jacobi stalled at {max(best, agree):.1f} agreeing bits "
                f"(target {target}) after escalating to {p} bits"
            )
        best = max(best, agree)
        q_prev, b2_prev = q_cur, b2_cur
    if cfg.mode == DOUBLE:
        q = [float(x) for x in q_cur]
        b = [math.sqrt(float(x)) for x in b2_cur]
    else:
        with wp(target):
            q = [+x for x in q_cur]
            b = [mp.sqrt(x) for x in b2_cur]
    return JacobiMatrix(q=q, b=b, precision=cfg, family=family)


def moments_to_jacobi(s: MomentSequence, n: int) -> JacobiMatrix:
    """First ``n`` diagonal / ``n-1`` off-diagonal recurrence coefficients.

    The coefficients need s_0..s_{2n-1}; when s_{2n} is also supplied the
    strict positivity of the full Hankel section is verified.  A nonpositive
    pivot raises DegenerateHankel (finitely supported input).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if len(s) < 2 * n:
        raise InsufficientMoments(f"need at least {2 * n} moments, got {len(s)}")
    cfg = s.precision
    if cfg.mode == RATIONAL:
        svals = [Fraction(v) for v in s.values[: 2 * n + 1]]
        q, b2 = _ldl_recurrence(svals, n)
        b = [sqrt_number(x, cfg) for x in b2]
        return JacobiMatrix(q=q, b=b, precision=cfg)

    stored = s.values[: 2 * n + 1]

    def source(k, prec):
        return stored[k]  # stored values are exact binary rationals, reused as-is

    return _jacobi_from_moment_source(source, n, cfg, n_moments=len(stored))


# ---------------------------------------------------------------------------
# Jacobi -> moments


def jacobi_to_moments(J: JacobiMatrix, m: int) -> MomentSequence:
    """Moments s_0..s_m of the matrix, via powers applied to the first basis
    vector of a section of size floor(m/2)+1 (exact by bandedness)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    cfg = J.precision
    size = m // 2 + 1
    try:
        q, b = J.coefficients(size)
    except CoefficientExhausted as exc:
        raise CoefficientExhausted(
            f"moments through order {m} need a section of size {size}: {exc}"
        ) from exc

    rational_ok = cfg.mode == RATIONAL and all(
        isinstance(x, (int, Fraction)) for x in list(q) + list(b)
    )
    if rational_ok:
        qv = [Fraction(x) for x in q]
        bv = [Fraction(x) for x in b]
        v = [Fraction(0)] * size
        v[0] = Fraction(1)
        out = [Fraction(1)]
        for _ in range(m):
            v = _tridiag_apply(qv, bv, v)
            out.append(v[0])
        return MomentSequence(tuple(out), cfg)

    work = cfg.working_bits()
    with wp(work + 16):
        qv = [to_mpf(x) for x in q]
        bv = [to_mpf(x) for x in b]
        v = [mp.mpf(0)] * size
        v[0] = mp.mpf(1)
        out = [mp.mpf(1)]
        for _ in range(m):
            v = _tridiag_apply(qv, bv, v)
            out.append(v[0])
    if cfg.mode == DOUBLE:
        return MomentSequence(tuple(float(x) for x in out), cfg)
    with wp(work):
        return MomentSequence(tuple(+x for x in out), cfg)


def _tridiag_apply(q, b, v):
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
