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
from typing import Callable, Optional, Sequence

import mpmath as mp

from .errors import CoefficientExhausted, PrecisionLoss, RealPoint
from .precision import (
    DOUBLE,
    RATIONAL,
    PrecisionConfig,
    format_complex,
    format_number,
    to_mpf,
    wp,
)

DETERMINATE = "determinate"
INDETERMINATE = "indeterminate"
INCONCLUSIVE = "inconclusive"


class JacobiMatrix:
    """Stored truncation of a Jacobi matrix, optionally with a closed form.

    ``q`` holds the main diagonal (1-indexed in all public APIs), ``b`` the
    off-diagonal, which must be strictly positive.  ``generator`` may supply
    ``(q_k, b_k)`` for arbitrary ``k`` when a closed-form family is known;
    stored entries take precedence over generated ones.
    """

    __slots__ = ("_q", "_b", "generator", "precision", "family")

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
        if generator is None:
            if not self._q:
                raise ValueError("a Jacobi matrix needs at least one diagonal entry")
            if len(self._b) != len(self._q) - 1:
                raise ValueError("off-diagonal must be one entry shorter than diagonal")
        elif self._b and len(self._b) != len(self._q) - 1 and len(self._b) != len(self._q):
            raise ValueError("stored off-diagonal length inconsistent with diagonal")
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
            return self.generator(k)[0]
        raise CoefficientExhausted(
            f"diagonal entry {k} requested but only {len(self._q)} stored"
        )

    def offdiag(self, k: int):
        if k < 1:
            raise ValueError("off-diagonal index starts at 1")
        if k <= len(self._b):
            return self._b[k - 1]
        if self.generator is not None:
            bk = self.generator(k)[1]
            if not bk > 0:
                raise ValueError("generator produced a nonpositive off-diagonal entry")
            return bk
        raise CoefficientExhausted(
            f"off-diagonal entry {k} requested but only {len(self._b)} stored"
        )

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

        cfg = precision
        if cfg is None and "precision" in obj:
            cfg = PrecisionConfig.from_json(obj["precision"])
        if cfg is None:
            cfg = PrecisionConfig()
        if "family" in obj and not obj.get("q"):
            return families.make(obj["family"], precision=cfg, n=obj.get("n"))
        from .precision import convert

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
    bits: Optional[int] = None
    max_escalations: int = 3

    def checkpoints(self):
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        pts = []
        n = self.start
        while n < self.n_max:
            pts.append(n)
            n *= 2
        pts.append(self.n_max)
        return pts


@dataclass(frozen=True)
class DeterminacyVerdict:
    """Classifier outcome with its full radius diagnostic trace."""

    verdict: str
    radii: tuple
    checkpoints: tuple
    n_used: int
    z_used: complex

    def to_json(self, cfg: Optional[PrecisionConfig] = None) -> dict:
        cfg = cfg or PrecisionConfig()
        return {
            "verdict": self.verdict,
            "checkpoints": list(self.checkpoints),
            "radii": [format_number(r, cfg) for r in self.radii],
            "n_used": self.n_used,
            "z_used": format_complex(self.z_used, cfg),
        }


def _as_mpc(z):
    return mp.mpc(z)


def pi_eval(J: JacobiMatrix, z, n: int, bits: Optional[int] = None):
    """Orthonormal-polynomial values (pi_1(z), ..., pi_n(z)), pi_1 = 1.

    The three-term recurrence b_k pi_{k+1} = (z - q_k) pi_k - b_{k-1} pi_{k-1}
    is run forward in complex big-float arithmetic.  Real coefficients give
    the conjugation symmetry pi_k(conj z) = conj(pi_k(z)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    cfg = J.precision
    work = bits if bits is not None else cfg.working_bits()
    use_double = cfg.mode == DOUBLE and bits is None
    with wp(work + 16):
        zz = _as_mpc(z)
        vals = [mp.mpc(1)]
        prev, cur = mp.mpc(0), mp.mpc(1)
        for k in range(1, n):
            qk = to_mpf(J.diag(k))
            bk = to_mpf(J.offdiag(k))
            bkm = to_mpf(J.offdiag(k - 1)) if k > 1 else mp.mpf(0)
            nxt = ((zz - qk) * cur - bkm * prev) / bk
            vals.append(nxt)
            prev, cur = cur, nxt
    if use_double:
        return [complex(v) for v in vals]
    with wp(work):
        return [+v for v in vals]


def weyl_radius(J: JacobiMatrix, z, n: int, bits: Optional[int] = None):
    """Radius of the n-th nested circle at the nonreal point ``z``."""
    if n < 1:
        raise ValueError("n must be positive")
    cfg = J.precision
    work = bits if bits is not None else cfg.working_bits()
    with wp(work + 16):
        if mp.im(_as_mpc(z)) == 0:
            raise RealPoint("Weyl radii are defined only off the real axis")
    r = _RadiusScan(J, z, work).radius_at(n)
    with wp(work):
        return +r


class _RadiusScan:
    """Incremental forward pass of the recurrence with a running square sum."""

    def __init__(self, J: JacobiMatrix, z, bits: int):
        self.J = J
        self.bits = bits
        with wp(bits + 16):
            self.z = _as_mpc(z)
            self.width = abs(self.z - mp.conj(self.z))
            self.total = mp.mpf(1)  # |pi_1|^2
            self.prev, self.cur = mp.mpc(0), mp.mpc(1)
        self.k = 1

    def radius_at(self, n: int):
        with wp(self.bits + 16):
            while self.k < n:
                k = self.k
                qk = to_mpf(self.J.diag(k))
                bk = to_mpf(self.J.offdiag(k))
                bkm = to_mpf(self.J.offdiag(k - 1)) if k > 1 else mp.mpf(0)
                nxt = ((self.z - qk) * self.cur - bkm * self.prev) / bk
                self.total += mp.re(nxt) ** 2 + mp.im(nxt) ** 2
                self.prev, self.cur = self.cur, nxt
                self.k += 1
            return 1 / (self.width * self.total)


class _Escalate(Exception):
    pass


def _classify_once(J: JacobiMatrix, policy: ClassifyPolicy, bits: int, z):
    ns = policy.checkpoints()
    scan_lo = _RadiusScan(J, z, bits)
    scan_hi = _RadiusScan(J, z, 2 * bits)
    trace = []
    for i, n_cp in enumerate(ns):
        r_lo = scan_lo.radius_at(n_cp)
        r = scan_hi.radius_at(n_cp)
        if not (r_lo == r or abs(r_lo - r) <= abs(r) * mp.mpf(2) ** (-24)):
            raise _Escalate
        trace.append(r)
        if r < policy.eps_zero:
            return DeterminacyVerdict(
                DETERMINATE, tuple(trace), tuple(ns[: i + 1]), n_cp, z
            )
        if i + 1 >= policy.window:
            last = trace[i + 1 - policy.window : i + 1]
            spread = (max(last) - min(last)) / r
            if spread < policy.eps_stable and r > policy.eps_zero:
                return DeterminacyVerdict(
                    INDETERMINATE, tuple(trace), tuple(ns[: i + 1]), n_cp, z
                )
    return DeterminacyVerdict(INCONCLUSIVE, tuple(trace), tuple(ns), ns[-1], z)


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
        if mp.im(_as_mpc(z)) == 0:
            raise RealPoint("classification point must be nonreal")
    cfg = J.precision
    bits = policy.bits if policy.bits is not None else cfg.working_bits()
    for _ in range(policy.max_escalations + 1):
        try:
            return _classify_once(J, policy, bits, z)
        except _Escalate:
            bits *= 2
    raise PrecisionLoss("radius trace failed to stabilize under precision escalation")


def truncation_spectrum(J: JacobiMatrix, N: int):
    """Gauss quadrature measure of the N x N leading section.

    Atoms sit at the section's eigenvalues with weights equal to squared
    first eigenvector components; the atomic measure reproduces the moment
    sequence of the matrix through order 2N-1.
    """
    from . import measures, tridiag  # deferred: measures imports this module

    if N < 1:
        raise ValueError("truncation size must be positive")
    q, b = J.coefficients(N)
    cfg = J.precision
    bits = cfg.working_bits()
    nodes, weights = tridiag.gauss_rule(q, b, bits)
    out_cfg = cfg if cfg.mode != RATIONAL else PrecisionConfig.bigfloat(cfg.bits)
    return measures.Measure.atomic(nodes, weights, precision=out_cfg)
