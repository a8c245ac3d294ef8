"""Jacobi matrices, their recurrence, Weyl radii and the determinacy test.

A semi-infinite symmetric tridiagonal matrix with positive off-diagonal
entries determines (and is determined by) a normalized moment sequence.
The classifier below resolves whether the associated moment problem has a
unique solution by tracking the radii of the nested Weyl circles

    r_n(z) = 1 / ( |z - conj(z)| * sum_{k=1..n} |p_k(z)|^2 ),

where p_k are the orthonormal-polynomial values generated by the matrix:
r_n -> 0 exactly in the unique-solution (selfadjoint / limit point) case,
while a positive limit signals infinitely many solutions (limit circle).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Optional, Sequence

import mpmath as mp

from . import tridiag
from .errors import CoefficientExhausted, PrecisionLoss, RealPoint
from .precision import (
    DOUBLE,
    RATIONAL,
    PrecisionConfig,
    convert,
    document_precision,
    format_complex,
    format_number,
    is_finite_number,
    to_mpf,
    wp,
)

DETERMINATE = "determinate"
INDETERMINATE = "indeterminate"
INCONCLUSIVE = "inconclusive"

# Precision doublings the classifier may make before it gives up.
_MAX_ESCALATIONS = 3


class JacobiMatrix:
    """Stored truncation of a Jacobi matrix, or a closed form.

    ``q`` holds the main diagonal (1-indexed in all public APIs), ``b`` the
    off-diagonal, which must be strictly positive.  Alternatively
    ``generator`` supplies ``(q_k, b_k)`` for arbitrary ``k`` when a
    closed-form family is known; a matrix is either stored or generated.
    """

    __slots__ = ("_q", "_b", "generator", "precision", "family", "_row")

    def __init__(
        self,
        q: Sequence = (),
        b: Sequence = (),
        generator: Optional[Callable[[int], tuple]] = None,
        precision: Optional[PrecisionConfig] = None,
        family: Optional[str] = None,
    ):
        self._q = tuple(q)
        self._b = tuple(b)
        self.generator = generator
        self.precision = precision if precision is not None else PrecisionConfig()
        self.family = family
        self._row = (0, None, None)  # the last generated (k, q_k, b_k)
        if generator is not None:
            if self._q or self._b:
                raise ValueError("a Jacobi matrix is either stored or generated, not both")
        elif not self._q:
            raise ValueError("a Jacobi matrix needs at least one diagonal entry")
        elif len(self._b) != len(self._q) - 1:
            raise ValueError("off-diagonal must be one entry shorter than diagonal")
        if not all(is_finite_number(x) for x in self._q + self._b):
            raise ValueError("Jacobi matrix entries must be finite")
        for x in self._b:
            if not x > 0:
                raise ValueError("off-diagonal entries must be strictly positive")

    # -- coefficient access (1-indexed, mirroring the recurrence) ---------

    @property
    def n_stored(self) -> int:
        return len(self._q)

    @property
    def is_closed_form(self) -> bool:
        return self.generator is not None

    def diag(self, k: int):
        if k < 1:
            raise ValueError("diagonal index starts at 1")
        if k <= len(self._q):
            return self._q[k - 1]
        if self.generator is not None:
            return self._generated(k)[1]
        raise CoefficientExhausted(
            f"diagonal entry {k} requested but only {len(self._q)} stored"
        )

    def offdiag(self, k: int):
        if k < 1:
            raise ValueError("off-diagonal index starts at 1")
        if k <= len(self._b):
            return self._b[k - 1]
        if self.generator is not None:
            bk = self._generated(k)[2]
            if not bk > 0:
                raise ValueError("generator produced a nonpositive off-diagonal entry")
            return bk
        raise CoefficientExhausted(
            f"off-diagonal entry {k} requested but only {len(self._b)} stored"
        )

    def _generated(self, k: int):
        """(k, q_k, b_k) from one generator call, kept for the next request
        (``pairs`` reads q_k and b_k in turn).  The row is replaced whole, so
        threads sharing the matrix never see a torn one."""
        row = self._row
        if row[0] != k:
            row = self._row = (k, *self.generator(k))
        return row

    def pairs(self):
        """Yield (q_k, b_k) for k = 1, 2, ... through ``diag``/``offdiag``."""
        return ((self.diag(k), self.offdiag(k)) for k in count(1))

    def coefficients(self, n: int):
        """First ``n`` diagonal and ``n-1`` off-diagonal entries as lists."""
        return [self.diag(k) for k in range(1, n + 1)], [
            self.offdiag(k) for k in range(1, n)
        ]

    def __repr__(self):
        tag = f" family={self.family!r}" if self.family else ""
        src = "closed-form" if self.is_closed_form else f"{self.n_stored} stored"
        return f"<JacobiMatrix {src}{tag}>"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.precision
        obj = {
            "q": [format_number(x, cfg) for x in self._q],
            "b": [format_number(x, cfg) for x in self._b],
            "precision": cfg.to_json(),
        }
        if self.family:
            obj["family"] = self.family
        return obj

    @classmethod
    def from_json(cls, obj: dict, precision: Optional[PrecisionConfig] = None) -> "JacobiMatrix":
        from . import families  # registry lives one level up; cheap import

        cfg = document_precision(obj, precision)
        if "family" in obj and not obj.get("q"):
            return families.make(obj["family"], precision=cfg, n=obj.get("n"))
        q = [convert(x, cfg) for x in obj.get("q", [])]
        b = [convert(x, cfg) for x in obj.get("b", [])]
        return cls(q=q, b=b, precision=cfg, family=obj.get("family"))


@dataclass(frozen=True)
class ClassifyPolicy:
    """Scan schedule and thresholds for the determinacy classifier.

    Checkpoints are geometric (``start``, 2*start, ...) capped by ``n_max``;
    geometric spacing bounds the cost of slowly decaying determinate cases.
    The classifier never guesses: budgets exhausted without a clear signal
    yield the inconclusive verdict.
    """

    n_max: int = 100_000
    eps_zero: float = 1e-3
    eps_stable: float = 1e-6
    window: int = 3
    z: complex = 1j
    start: int = 8

    def __post_init__(self):
        for name in ("n_max", "start", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("eps_zero", "eps_stable"):
            x = getattr(self, name)
            if not (is_finite_number(x) and x > 0):
                raise ValueError(f"{name} must be finite and positive, got {x!r}")

    def checkpoints(self):
        pts = []
        n = self.start
        while n < self.n_max:
            pts.append(n)
            n *= 2
        pts.append(self.n_max)
        return pts


@dataclass(frozen=True)
class DeterminacyVerdict:
    """Classifier outcome with its radius trace, rounded to the working precision."""

    verdict: str
    radii: tuple
    checkpoints: tuple
    n_used: int
    z_used: complex

    def to_json(self, cfg: PrecisionConfig) -> dict:
        return {
            "verdict": self.verdict,
            "checkpoints": list(self.checkpoints),
            "radii": [format_number(r, cfg) for r in self.radii],
            "n_used": self.n_used,
            "z_used": format_complex(self.z_used, cfg),
        }


def pi_eval(J: JacobiMatrix, z, n: int):
    """Orthonormal-polynomial values (pi_1(z), ..., pi_n(z)), pi_1 = 1.

    The three-term recurrence b_k pi_{k+1} = (z - q_k) pi_k - b_{k-1} pi_{k-1}
    is run forward in complex big-float arithmetic.  Real coefficients give
    the conjugation symmetry pi_k(conj z) = conj(pi_k(z)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    cfg = J.precision
    work = cfg.working_bits()
    with wp(work + 16):
        vals = list(islice(_stream(J, mp.mpc(z)), n))
    if cfg.mode == DOUBLE:
        return [complex(v) for v in vals]
    with wp(work):
        return [+v for v in vals]


def weyl_radii(J: JacobiMatrix, z, ns: Sequence[int]):
    """Radii of the nested circles at the nonreal point ``z``, one per
    checkpoint in ``ns``, from a single forward scan up to the largest."""
    if any(n < 1 for n in ns):
        raise ValueError("n must be positive")
    work = J.precision.working_bits()
    with wp(work + 16):
        if mp.im(mp.mpc(z)) == 0:
            raise RealPoint("Weyl radii are defined only off the real axis")
    scan = _RadiusScan(J, z, work)
    radii = {n: scan.radius_at(n) for n in sorted(set(ns))}
    with wp(work):
        return [float(radii[n]) if J.precision.mode == DOUBLE else +radii[n] for n in ns]


def weyl_radius(J: JacobiMatrix, z, n: int):
    """Radius of the n-th nested circle at the nonreal point ``z``."""
    return weyl_radii(J, z, [n])[0]


def _stream(J: JacobiMatrix, z):
    """pi_1(z), pi_2(z), ... from the matrix's coefficient stream."""
    pairs = ((to_mpf(q), to_mpf(b)) for q, b in J.pairs())
    return tridiag.recurrence(pairs, z)


class _RadiusScan:
    """Incremental forward pass of the recurrence with a running square sum."""

    def __init__(self, J: JacobiMatrix, z, bits: int):
        self.bits = bits
        with wp(bits + 16):
            z = mp.mpc(z)
            self.width = abs(z - mp.conj(z))
            self.values = _stream(J, z)
            next(self.values)  # pi_1 = 1
            self.total = mp.mpf(1)  # |pi_1|^2
        self.k = 1

    def radius_at(self, n: int):
        with wp(self.bits + 16):
            while self.k < n:
                nxt = next(self.values)
                self.total += mp.re(nxt) ** 2 + mp.im(nxt) ** 2
                self.k += 1
            return 1 / (self.width * self.total)


class _Escalate(Exception):
    pass


def _classify_once(J: JacobiMatrix, policy: ClassifyPolicy, bits: int, z):
    ns = policy.checkpoints()
    scan_lo = _RadiusScan(J, z, bits)
    scan_hi = _RadiusScan(J, z, 2 * bits)
    trace = []
    verdict = INCONCLUSIVE
    for i, n_cp in enumerate(ns):
        r_lo = scan_lo.radius_at(n_cp)
        r = scan_hi.radius_at(n_cp)
        if not (r_lo == r or abs(r_lo - r) <= abs(r) * mp.mpf(2) ** (-24)):
            raise _Escalate
        trace.append(r)
        if r < policy.eps_zero:
            verdict = DETERMINATE
            break
        if i + 1 >= policy.window:
            last = trace[i + 1 - policy.window : i + 1]
            spread = (max(last) - min(last)) / r
            if spread < policy.eps_stable and r > policy.eps_zero:
                verdict = INDETERMINATE
                break
    cfg = J.precision
    with wp(cfg.working_bits()):  # all that is certified, as in weyl_radii
        radii = tuple(float(r) if cfg.mode == DOUBLE else +r for r in trace)
    return DeterminacyVerdict(verdict, radii, tuple(ns[:len(trace)]), ns[len(trace) - 1], z)


def classify(J: JacobiMatrix, policy: ClassifyPolicy = ClassifyPolicy()) -> DeterminacyVerdict:
    """Resolve determinate / indeterminate / inconclusive for the matrix.

    Determinate: some checkpoint radius falls below ``eps_zero``.
    Indeterminate: the radius stays above ``eps_zero`` while its relative
    change across the trailing ``window`` checkpoints drops below
    ``eps_stable``.  Anything else within the budget is inconclusive.

    Checkpoints are evaluated strictly in order with early exit, so a
    verdict reached within the stored coefficient range never touches
    coefficients beyond it.  Each radius is computed at two mantissa sizes;
    disagreement doubles the working precision and restarts the scan
    (forward recurrences are benign here, but families with rapidly
    shrinking off-diagonals can exhaust a fixed mantissa).
    """
    z = policy.z
    with wp(64):
        if mp.im(mp.mpc(z)) == 0:
            raise RealPoint("classification point must be nonreal")
    bits = J.precision.working_bits()
    for _ in range(_MAX_ESCALATIONS + 1):
        try:
            return _classify_once(J, policy, bits, z)
        except _Escalate:
            bits *= 2
    raise PrecisionLoss("radius trace failed to stabilize under precision escalation")


def truncation_spectrum(J: JacobiMatrix, N: int):
    """Gauss quadrature measure of the N x N leading section.

    Atoms sit at the section's eigenvalues with weights equal to squared
    first eigenvector components; the atomic measure reproduces the moment
    sequence of the matrix through order 2N-1.  It keeps the section, the
    whole Jacobi matrix of its atoms, so its power lifts are Christoffel
    steps (see :mod:`momprob.measures`); its JSON drops the section.
    """
    from . import measures  # deferred: measures imports this module

    if N < 1:
        raise ValueError("truncation size must be positive")
    q, b = J.coefficients(N)
    cfg = J.precision
    nodes, weights = tridiag.gauss_rule(q, b, cfg.working_bits())
    out_cfg = cfg if cfg.mode != RATIONAL else PrecisionConfig.bigfloat(cfg.bits)
    return measures.Measure.atomic(nodes, weights, precision=out_cfg)._with_section(q, b)
