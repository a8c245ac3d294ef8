"""Moment sequences and their two-way conversion with Jacobi matrices.

The moments -> recurrence map is evaluated through the LDL^T pivots of the
Hankel matrix H_{ij} = s_{i+j}: with unit-lower factor L and pivots d_k one
has the classical determinant identities

    D_k = d_0 d_1 ... d_k,
    q_k = L[k][k-1] - L[k-1][k-2],        (1-indexed diagonal entries)
    b_k = sqrt(d_k / d_{k-1}),            (off-diagonal entries)

i.e. exactly the determinantal formulas, read off a single factorization
instead of a pile of minors.  The factor is built by the Chebyshev column
recurrence in O(n^2) operations: sigma_(k,l) = d_k L[l][k] obeys the
three-term recurrence, so only two columns are kept.  Exact rational
arithmetic is used whenever the inputs are rational; otherwise the
factorization runs in big floats at a multiple of the requested precision
and escalates until two mantissa sizes agree, since Hankel conditioning
grows super-exponentially with the order.

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

from . import tridiag
from .errors import (
    CoefficientExhausted,
    DegenerateHankel,
    InsufficientMoments,
    PrecisionLoss,
)
from .jacobi import JacobiMatrix
from .precision import (
    RATIONAL,
    PrecisionConfig,
    agreeing_bits,
    all_exact,
    convert,
    document_list,
    document_precision,
    format_number,
    is_finite_number,
    rounded,
    to_mpf,
    wp,
)


@dataclass(frozen=True)
class MomentSequence:
    """Normalized power-moment sequence s_0, s_1, ... with its arithmetic."""

    values: tuple
    precision: PrecisionConfig

    def __post_init__(self):
        if not self.values:
            raise ValueError("a moment sequence needs at least s_0")
        for v in self.values:
            if not is_finite_number(v):
                raise ValueError("moments must be finite")
        cfg, s0 = self.precision, self.values[0]
        if cfg.mode == RATIONAL:
            off = Fraction(s0) != 1
        else:
            with wp(cfg.bits):
                off = abs(to_mpf(s0) - 1) > cfg.abs_tol
        if off:
            raise ValueError("normalized sequence requires s_0 = 1")

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_values(
        cls, values: Sequence, precision: Optional[PrecisionConfig] = None
    ) -> "MomentSequence":
        cfg = precision if precision is not None else PrecisionConfig()
        return cls(tuple(convert(v, cfg) for v in values), cfg)

    def to_json(self) -> dict:
        return {
            "values": [format_number(v, self.precision) for v in self.values],
            "precision": self.precision.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict, precision: Optional[PrecisionConfig] = None) -> "MomentSequence":
        cfg = document_precision(obj, precision)
        return cls.from_values(document_list(obj.get("values"), "values"), cfg)


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
    _check_order(s, k_max)
    cfg = s.precision
    num = Fraction if cfg.mode == RATIONAL else to_mpf
    with wp(4 * cfg.bits):
        vals = [num(v) for v in s.values]
        dets = [
            _det_pivoted([[vals[i + j] for j in range(k + 1)] for i in range(k + 1)])
            for k in range(k_max + 1)
        ]
    return rounded(dets, cfg)


def _check_order(s: MomentSequence, k_max: int):
    """Refuse a negative ``k_max``, or one past the moments ``s`` holds:
    D_k and the pivot d_k read s_0..s_2k."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if len(s) < 2 * k_max + 1:
        raise InsufficientMoments(f"need {2 * k_max + 1} moments for D_{k_max}, got {len(s)}")


def validate_positive(s: MomentSequence, k_max: int) -> bool:
    """Strict positivity of D_0 ... D_{k_max} (solvability of the problem):
    whether :func:`moments_to_jacobi` of order ``k_max``, which reads every
    pivot d_0..d_{k_max}, finds none nonpositive.  Exact in rational mode,
    certified by agreement in float modes (PrecisionLoss where it cannot be).
    """
    _check_order(s, k_max)
    try:
        if k_max:  # d_0 = s_0 = 1
            moments_to_jacobi(s, k_max)
    except DegenerateHankel:
        return False
    return True


# ---------------------------------------------------------------------------
# moments -> Jacobi

# Escalation stops before the working mantissa would pass this multiple of
# the requested one: 4x, 8x, ..., 256x allows six agreement checks.
_MAX_WORK_FACTOR = 256


def _ldl_recurrence(svals, n):
    """q_1..q_n and b_1^2..b_{n-1}^2 from the Hankel LDL^T factorization.

    ``svals`` must hold s_0..s_{2n-1}, optionally also s_{2n}, in a field
    that supports comparison with zero (Fraction, or mpf under an ambient
    workprec).  The coefficients themselves need only s_0..s_{2n-1}; when
    s_{2n} is present the last pivot d_n is additionally checked, and
    b_n^2 = d_n / d_{n-1} follows the others, so the squares hold every
    pivot that was read.  Raises DegenerateHankel on a nonpositive pivot.
    Column k steps to
    sigma_(k+1,l) = sigma_(k,l+1) - q_(k+1) sigma_(k,l) - b_k^2 sigma_(k-1,l).
    """
    zero = svals[0] - svals[0]
    # sigma columns k-1 and k from their diagonal on; sigma_(-1,l) = 0, and
    # the b_0^2 it is multiplied by is a placeholder, dropped on return
    prev, cur = [zero] * len(svals), list(svals)
    d_prev, r_prev = zero + 1, zero
    q, b2 = [], []
    for k in range(n + 1):
        if not cur:  # d_n is read only when s_2n is given
            break
        d = cur[0]
        if not d > 0:
            raise DegenerateHankel(
                f"Hankel pivot d_{k} is not positive (finite-support input)"
            )
        b2.append(d / d_prev)
        if k == n:
            break
        r = cur[1] / d
        q.append(r - r_prev)
        prev, cur = cur, [x2 - q[k] * x1 - b2[k] * p
                          for x1, x2, p in zip(cur[1:], cur[2:], prev[2:])]
        d_prev, r_prev = d, r
    return q, b2[1:]


def moments_to_jacobi(s: MomentSequence, n: int) -> JacobiMatrix:
    """First ``n`` diagonal / ``n-1`` off-diagonal recurrence coefficients.

    The coefficients need s_0..s_{2n-1}; when s_{2n} is also supplied the
    strict positivity of the full Hankel section is verified.  A nonpositive
    pivot raises DegenerateHankel (finitely supported input).

    Rational input is factored exactly.  In float modes the stored values
    are read as given, at a working precision that starts at four times the
    requested mantissa and doubles until two consecutive runs agree on every
    coefficient, and on b_n^2 = d_n / d_{n-1} when s_{2n} is supplied, which
    certifies the output and every pivot against Hankel cancellation.  A
    run that finds a nonpositive pivot counts as a failed agreement; the
    DegenerateHankel is raised when two runs in a row stop at the same
    pivot, or at the cap.  Escalation gives up with PrecisionLoss when the
    next doubling would pass ``_MAX_WORK_FACTOR`` times the requested
    mantissa.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if len(s) < 2 * n:
        raise InsufficientMoments(f"need at least {2 * n} moments, got {len(s)}")
    cfg = s.precision
    stored = s.values[: 2 * n + 1]
    if cfg.mode == RATIONAL:
        q, b2 = _ldl_recurrence([Fraction(v) for v in stored], n)
        return JacobiMatrix.from_squares(q, b2[:n - 1], cfg)

    target = cfg.bits
    floor_b2 = mp.mpf(2) ** (-2 * target)

    def compute(p):
        """(q, b2) at ``p`` bits, or the DegenerateHankel the run raised."""
        with wp(p):
            try:
                return _ldl_recurrence([to_mpf(v) for v in stored], n)
            except DegenerateHankel as exc:
                return exc

    p, agree = 4 * target, -math.inf
    prev = compute(p)
    while 2 * p <= _MAX_WORK_FACTOR * target:
        p *= 2
        cur = compute(p)
        if DegenerateHankel in (type(prev), type(cur)):  # no agreement to check
            if type(prev) is type(cur) and str(prev) == str(cur):
                raise cur  # two runs in a row stopped at the same pivot
            prev = cur
            continue
        (q_prev, b2_prev), (q_cur, b2_cur) = prev, cur
        with wp(p):
            agree = min(agreeing_bits(a, b) for a, b in zip(q_prev + b2_prev, q_cur + b2_cur))
            scale = max([abs(x) for x in q_cur] + [mp.mpf(1)])
            collapsing = any(x < floor_b2 * scale * scale for x in b2_cur)
        if agree >= target + 8:
            return JacobiMatrix.from_squares(q_cur, b2_cur[:n - 1], cfg)
        if collapsing:
            raise DegenerateHankel("off-diagonal collapses below resolvable size "
                                   "(finite-support input at this precision)")
        prev = cur
    if isinstance(prev, DegenerateHankel):
        raise prev
    raise PrecisionLoss(f"moments->Jacobi stalled at {agree:.1f} agreeing bits "
                        f"(target {target}) after escalating to {p} bits")


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

    exact = all_exact(cfg, q, b)
    num = Fraction if exact else to_mpf
    with wp(cfg.bits + 16):
        qv = [num(x) for x in q]
        bv = [num(x) for x in b]
        v = [num(0)] * size
        v[0] = num(1)
        out = [v[0]]
        for _ in range(m):
            v = tridiag.matvec(qv, bv, v)
            out.append(v[0])
    # irrational entries leave the rational field, as in truncation_spectrum
    out_cfg = cfg if exact or cfg.mode != RATIONAL else PrecisionConfig.bigfloat(cfg.bits)
    return MomentSequence(tuple(rounded(out, cfg)), out_cfg)
