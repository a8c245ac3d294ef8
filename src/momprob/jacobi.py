"""Jacobi matrices, their recurrence, Weyl radii and the determinacy test.

A semi-infinite symmetric tridiagonal matrix with positive off-diagonal
entries determines (and is determined by) a normalized moment sequence.
The classifier below resolves whether the associated moment problem has a
unique solution by tracking the radii of the nested Weyl circles

    r_n(z) = 1 / ( |z - conj(z)| * sum_{k=1..n} |p_k(z)|^2 ),

where p_k are the orthonormal-polynomial values generated by the matrix:
r_n -> 0 exactly in the unique-solution (selfadjoint / limit point) case,
while a positive limit signals infinitely many solutions (limit circle).
Radii come from one lazy forward scan; coefficients are read row by row.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Optional, Sequence

import mpmath as mp

from . import tridiag
from .errors import CoefficientExhausted, PrecisionLoss, RealPoint
from .precision import (
    RATIONAL,
    PrecisionConfig,
    convert,
    document_list,
    document_precision,
    format_complex,
    format_number,
    is_finite_number,
    rounded,
    sqrt_number,
    to_fraction,
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
    ``generator`` supplies the row ``(q_k, b_k)`` for any ``k``, generated
    once per row read; a matrix is either stored or generated.
    """

    __slots__ = ("_q", "_roots", "_b2", "generator", "precision", "family", "_row")

    def __init__(
        self,
        q: Sequence = (),
        b: Sequence = (),
        generator: Optional[Callable[[int], tuple]] = None,
        precision: Optional[PrecisionConfig] = None,
        family: Optional[str] = None,
    ):
        self._q = tuple(q)
        self._roots, self._b2 = list(b), None  # b_k, or None until rooted from _b2
        self.generator = generator
        self.precision = precision if precision is not None else PrecisionConfig()
        self.family = family
        self._row = (0, None, None)  # the last generated (k, q_k, b_k)
        if generator is not None:
            if self._q or self._roots:
                raise ValueError("a Jacobi matrix is either stored or generated, not both")
        elif not self._q:
            raise ValueError("a Jacobi matrix needs at least one diagonal entry")
        elif len(self._roots) != len(self._q) - 1:
            raise ValueError("off-diagonal must be one entry shorter than diagonal")
        if not all(is_finite_number(x) for x in self._q + tuple(self._roots)):
            raise ValueError("Jacobi matrix entries must be finite")
        for x in self._roots:
            if not x > 0:
                raise ValueError("off-diagonal entries must be strictly positive")

    @classmethod
    def from_squares(cls, q, b2, cfg: PrecisionConfig) -> "JacobiMatrix":
        """The matrix with diagonal ``q``, rounded once to ``cfg``, and squared
        off-diagonal ``b2``, checked as b is and kept: the hand-off of both
        the moments and the measures routes.  b_k is rooted by ``sqrt_number``
        when first read, into a slot of its own, so threads may share it."""
        J = cls(q=rounded(q, cfg), b=b2, precision=cfg)
        J._roots, J._b2 = [None] * len(b2), tuple(b2)
        return J

    # -- coefficient access (1-indexed, mirroring the recurrence) ---------

    @property
    def n_stored(self) -> int:
        return len(self._q)

    @property
    def is_closed_form(self) -> bool:
        return self.generator is not None

    def diag(self, k: int):
        return self._entry(k, 1, "diagonal", self._q)

    def offdiag(self, k: int):
        b = self._entry(k, 2, "off-diagonal", self._roots)
        if b is None:
            b = self._roots[k - 1] = sqrt_number(self._b2[k - 1], self.precision)
        return b

    @property
    def _b(self) -> tuple:
        return tuple(self.offdiag(k) for k in range(1, len(self._q)))

    def _entry(self, k: int, i: int, name: str, stored):
        """Entry ``i`` of row (k, q_k, b_k), stored or generated.  A generated
        row is checked once and kept whole for the next request; the memo is
        replaced, never mutated, so threads sharing the matrix see no torn row."""
        if k < 1:
            raise ValueError(f"{name} index starts at 1")
        if k <= len(stored):
            return stored[k - 1]
        if self.generator is None:
            raise CoefficientExhausted(f"{name} entry {k} requested but only {len(stored)} stored")
        row = self._row
        if row[0] != k:
            qk, bk = self.generator(k)
            if not bk > 0:
                raise ValueError("generator produced a nonpositive off-diagonal entry")
            row = self._row = (k, qk, bk)
        return row[i]

    def pairs(self):
        """Yield (q_k, b_k) for k = 1, 2, ... through ``diag``/``offdiag``."""
        return ((self.diag(k), self.offdiag(k)) for k in count(1))

    def coefficients(self, n: int):
        """First ``n`` diagonal and ``n-1`` off-diagonal entries as lists,
        read row by row, so a closed form generates each row once.  q_n is
        read first: a short stored matrix fails on its diagonal."""
        if n < 1:
            return [], []
        q_n = self.diag(n)
        rows = list(islice(self.pairs(), n - 1))
        return [qk for qk, _ in rows] + [q_n], [bk for _, bk in rows]

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
        q = [convert(x, cfg) for x in document_list(obj.get("q", []), "q")]
        b = [convert(x, cfg) for x in document_list(obj.get("b", []), "b")]
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
    with wp(cfg.bits + 16):
        pairs = ((to_mpf(q), to_mpf(b)) for q, b in J.pairs())
        vals = list(islice(tridiag.recurrence(pairs, mp.mpc(z)), n))
    return rounded(vals, cfg)


def weyl_radii(J: JacobiMatrix, z, ns: Sequence[int]):
    """Radii of the nested circles at the nonreal point ``z``, one per
    checkpoint in ``ns``, from a single forward scan up to the largest."""
    if any(n < 1 for n in ns):
        raise ValueError("n must be positive")
    cfg = J.precision
    todo = sorted(set(ns))
    # the scan leads the zip, so its RealPoint check runs even for no n
    radii = {n: r for r, n in zip(_radii(J, z, cfg.bits, todo), todo)}
    return rounded([radii[n] for n in ns], cfg)


def weyl_radius(J: JacobiMatrix, z, n: int):
    """Radius of the n-th nested circle at the nonreal point ``z``."""
    return weyl_radii(J, z, [n])[0]


def _radii(J: JacobiMatrix, z, bits: int, ns: Sequence[int]):
    """Yield r_n(z) for each n of the ascending ``ns`` from one forward pass
    of :func:`tridiag.weyl_scan` on ints of ``bits + 32`` bits that reads
    rows only up to the n asked for.  Rows are read at ``bits + 16``, entered
    per radius and never held across a yield: ``classify`` interleaves two
    scans at different mantissas."""
    with wp(bits + 16):
        z = mp.mpc(z)
        if mp.im(z) == 0:
            raise RealPoint("Weyl radii are defined only off the real axis")
        rows = ((to_mpf(q), to_mpf(b)) for q, b in J.pairs())
        scan = tridiag.weyl_scan(rows, z, ns, bits + 32)
    for _ in ns:
        with wp(bits + 16):
            r = next(scan)
        yield r


def _classify_once(J: JacobiMatrix, policy: ClassifyPolicy, bits: int):
    """The verdict from radii at ``bits`` and ``2*bits``; None if they disagree."""
    ns = policy.checkpoints()
    trace = []
    verdict = INCONCLUSIVE
    scans = zip(_radii(J, policy.z, bits, ns), _radii(J, policy.z, 2 * bits, ns))
    for i, (r_lo, r) in enumerate(scans):
        if not (r_lo == r or abs(r_lo - r) <= abs(r) * mp.mpf(2) ** (-24)):
            return None
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
    radii = tuple(rounded(trace, J.precision))  # all that is certified, as in weyl_radii
    return DeterminacyVerdict(verdict, radii, tuple(ns[:len(trace)]), ns[len(trace) - 1], policy.z)


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
    bits = J.precision.bits
    for _ in range(_MAX_ESCALATIONS + 1):
        verdict = _classify_once(J, policy, bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise PrecisionLoss("radius trace failed to stabilize under precision escalation")


def truncation_spectrum(J: JacobiMatrix, N: int):
    """Gauss quadrature measure of the N x N leading section.

    Atoms sit at the section's eigenvalues with weights equal to squared
    first eigenvector components; the atomic measure reproduces the moment
    sequence of the matrix through order 2N-1.  It keeps the section, the
    whole Jacobi matrix of its atoms, and its unit mass, so its power lifts
    are Christoffel steps (see :mod:`momprob.measures`); JSON drops both.
    """
    from . import measures  # deferred: measures imports this module

    if N < 1:
        raise ValueError("truncation size must be positive")
    q, b = J.coefficients(N)
    cfg = J.precision
    nodes, weights = tridiag.gauss_rule(q, b, cfg.bits)
    out_cfg = cfg if cfg.mode != RATIONAL else PrecisionConfig.bigfloat(cfg.bits)
    b2 = [to_fraction(x) ** 2 for x in b]  # exact, so the section rounds them once
    return measures.Measure.atomic(rounded(nodes, out_cfg), rounded(weights, out_cfg),
                                   precision=out_cfg)._with_section(q, b2, 1)
