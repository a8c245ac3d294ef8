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
three-term recurrence, so only two columns are kept.  One factorization
answers every question asked of the moments: the coefficients, the
positivity verdict and the determinants.  It is exact whenever the inputs
are rational; otherwise it runs in big floats at a multiple of the
requested precision and escalates until two mantissa sizes agree, since
Hankel conditioning grows super-exponentially with the order, and a run
that meets a nonpositive pivot hands the stored values to one exact run,
so that finite support is decided, never guessed.

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
    to_fraction,
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
# The Hankel factorization: q, b^2, pivots and determinants

# Escalation stops before the working mantissa would pass this multiple of
# the requested one: 4x, 8x, ..., 256x allows six agreement checks.
_MAX_WORK_FACTOR = 256


def _ldl_recurrence(svals, n):
    """q_1..q_n, b_1^2..b_n^2 and D_0..D_n from the Hankel LDL^T factorization.

    ``svals`` must hold s_0..s_{2n-1}, optionally also s_{2n}, in a field
    (Fraction, or mpf under an ambient workprec).  The pivot d_k gives
    b_k^2 = d_k / d_{k-1} and D_k = d_0 d_1 ... d_k; the last pivot d_n,
    with b_n^2 and D_n, is read only when s_{2n} is present.  The recurrence
    needs only d_k != 0, so a negative pivot shows as a negative b_k^2 and
    the run goes on; at a zero pivot the lists end with b_k^2 = D_k = 0.
    Column k steps to
    sigma_(k+1,l) = sigma_(k,l+1) - q_(k+1) sigma_(k,l) - b_k^2 sigma_(k-1,l).
    """
    zero = svals[0] - svals[0]
    # sigma columns k-1 and k from their diagonal on; sigma_(-1,l) = 0, and
    # the b_0^2 it is multiplied by is a placeholder, dropped on return
    prev, cur = [zero] * len(svals), list(svals)
    d_prev, r_prev, det = zero + 1, zero, zero + 1
    q, b2, dets = [], [], []
    for k in range(n + 1):
        if not cur:  # d_n is read only when s_2n is given
            break
        d = cur[0]
        det *= d
        b2.append(d / d_prev)
        dets.append(det)
        if k == n or d == 0:
            break
        r = cur[1] / d
        q.append(r - r_prev)
        prev, cur = cur, [x2 - q[k] * x1 - b2[k] * p
                          for x1, x2, p in zip(cur[1:], cur[2:], prev[2:])]
        d_prev, r_prev = d, r
    return q, b2[1:], dets


def _first_nonpositive(b2):
    """k of the first pivot d_k that is not positive, or None."""
    return next((k for k, x in enumerate(b2, 1) if not x > 0), None)


def _factorization(s: MomentSequence, n: int):
    """(q, b^2, D) of :func:`_ldl_recurrence` of order ``n`` on the stored
    s_0..s_{2n} (s_{2n} if present), exact or certified.

    Rational input is factored exactly.  In float modes the stored values
    are read at a working precision that starts at four times the requested
    mantissa and doubles until two consecutive runs agree to 8 bits past it
    on every q_k, b_k^2 and D_k: |a - b| <= 2^-(bits+8) max(|a|, |b|), one
    pass at the run's precision.  The first run that meets a nonpositive
    pivot, or that disagrees with the last while a square lies below
    2^-(2 bits) max(1, |q|)^2, hands over to one exact run on the stored
    values, returned as it is.  Escalation gives up with PrecisionLoss when
    the next doubling would pass ``_MAX_WORK_FACTOR`` times the requested
    mantissa.
    """
    stored = s.values[: 2 * n + 1]
    target = s.precision.bits
    if s.precision.mode != RATIONAL:
        floor_b2, tol = mp.ldexp(1, -2 * target), mp.ldexp(1, -(target + 8))
        p, prev, last = 4 * target, None, None
        while p <= _MAX_WORK_FACTOR * target:
            with wp(p):
                run = _ldl_recurrence([to_mpf(v) for v in stored], n)
                q, b2, dets = run
                if _first_nonpositive(b2) is not None:
                    break
                if prev is not None:
                    if all(abs(a - b) <= tol * max(abs(a), abs(b))
                           for a, b in zip(prev, q + b2 + dets)):
                        return run
                    scale = max([abs(x) for x in q] + [mp.mpf(1)])
                    if any(x < floor_b2 * scale * scale for x in b2):
                        break
            last, prev, p = prev, q + b2 + dets, 2 * p
        else:
            with wp(p // 2):
                agree = min(map(agreeing_bits, last, prev)) if last else -math.inf
            raise PrecisionLoss(f"moments->Jacobi stalled at {agree:.1f} agreeing bits "
                                f"(target {target}) after escalating to {p // 2} bits")
    return _ldl_recurrence([to_fraction(v) for v in stored], n)


def _check_order(s: MomentSequence, k_max: int):
    """Refuse a negative ``k_max``, or one past the moments ``s`` holds:
    D_k and the pivot d_k read s_0..s_2k."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if len(s) < 2 * k_max + 1:
        raise InsufficientMoments(f"need {2 * k_max + 1} moments for D_{k_max}, got {len(s)}")


def _det_pivoted(rows):
    """Exact determinant of Fraction rows by Gaussian elimination, swapping
    in the first nonzero pivot of each column."""
    a = [list(r) for r in rows]
    m, det = len(a), Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def hankel_determinants(s: MomentSequence, k_max: int):
    """Leading principal Hankel determinants D_0 ... D_{k_max}: the running
    products of the pivots of the factorization, exact in rational mode and
    certified (or exact on the stored values) in float modes, rounded once
    on return.  Past an exact zero pivot, where the recurrence stops, the
    remaining minors are eliminated exactly."""
    return _validated(s, k_max)[1]


def _validated(s: MomentSequence, k_max: int):
    """:func:`validate_positive` and :func:`hankel_determinants`, one factorization."""
    _check_order(s, k_max)
    _, b2, dets = _factorization(s, k_max)
    if len(dets) <= k_max:
        vals = [to_fraction(v) for v in s.values]
        dets += [_det_pivoted([vals[i:i + k + 1] for i in range(k + 1)])
                 for k in range(len(dets), k_max + 1)]
    return _first_nonpositive(b2) is None, rounded(dets, s.precision)


def validate_positive(s: MomentSequence, k_max: int) -> bool:
    """Strict positivity of D_0 ... D_{k_max} (solvability of the problem):
    whether the factorization of order ``k_max``, the one
    :func:`moments_to_jacobi` reads, has every pivot d_0..d_{k_max}
    positive.  Exact in rational mode; in float modes certified by
    agreement or decided exactly on the stored values (PrecisionLoss where
    neither is reached)."""
    _check_order(s, k_max)
    return _first_nonpositive(_factorization(s, k_max)[1]) is None


# ---------------------------------------------------------------------------
# moments -> Jacobi


def moments_to_jacobi(s: MomentSequence, n: int) -> JacobiMatrix:
    """First ``n`` diagonal / ``n-1`` off-diagonal recurrence coefficients.

    The coefficients need s_0..s_{2n-1}; when s_{2n} is also supplied the
    strict positivity of the full Hankel section is verified.  A nonpositive
    pivot raises DegenerateHankel (finitely supported input), named as the
    exact factorization of the stored values names it.  The coefficients
    are exact in rational mode; in float modes they are certified by
    agreement, or exact on the stored values, and rounded once (see
    :func:`_factorization`).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if len(s) < 2 * n:
        raise InsufficientMoments(f"need at least {2 * n} moments, got {len(s)}")
    q, b2, _ = _factorization(s, n)
    bad = _first_nonpositive(b2)
    if bad is not None:
        raise DegenerateHankel(f"Hankel pivot d_{bad} is not positive (finite-support input)")
    return JacobiMatrix.from_squares(q, b2[:n - 1], s.precision)


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
