"""Index-of-determinacy estimation by scanning reweighted measures.

The index of a determinate measure mu counts how many times the reweighting
mu -> (1+x^2) mu can be applied before the polynomials stop being dense in
the corresponding L2 space; density in L2 of the (m+1)-fold reweighting is
equivalent to the m-fold reweighting being a determinate measure.  The scan
therefore classifies mu_m = (1+x^2)^m mu for m = 0, 1, ... and reports

    NotDeterminate          if mu itself classifies indeterminate,
    Finite(m)               if level m is the first indeterminate one,
    AtLeast(n_max)          if every scanned level classifies determinate,

with the inconclusive verdict truncating the report at AtLeast(m) after m
clean determinate levels.  The result is an estimate with an explicit
diagnostic trace, never a certificate: numerical classification of deeply
reweighted measures is precision-limited.

Level 0 comes from :func:`~momprob.measures.measure_to_jacobi`: a
``truncation_spectrum`` measure with only power lifts takes |p| Christoffel
steps from its section at 64 guard bits (for p < 0, the forward step on the
index-reversed matrix); other measures run the RKPW chase on their atoms.
When a level's matrix is the whole N x N matrix of the N-atom support, the
next level follows from it by one exact O(N) (1+t^2) Christoffel step
(:func:`~momprob.measures.christoffel_step`).  A level that stops short of
the support (partial resolution, or a ``depth`` cap), or a rational-mode
level with an inexact entry, is followed by a new RKPW run on the
reweighted atoms instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import FiniteSupport
from .jacobi import (
    DETERMINATE,
    INDETERMINATE,
    ClassifyPolicy,
    DeterminacyVerdict,
    classify,
)
from .measures import (
    Measure,
    christoffel_levels,
    gauss_damp,
    measure_to_jacobi,
    power_reweight,
)
from .precision import PrecisionConfig

NOT_DETERMINATE = "not_determinate"
FINITE = "finite"
AT_LEAST = "at_least"


@dataclass(frozen=True)
class IndexReport:
    """Outcome of an index scan with the per-level verdict trace."""

    kind: str  # NOT_DETERMINATE | FINITE | AT_LEAST
    n: Optional[int]
    per_level: Tuple[Tuple[int, DeterminacyVerdict], ...]

    def to_json(self, cfg: PrecisionConfig) -> dict:
        levels = [
            {"level": m, **verdict.to_json(cfg)} for m, verdict in self.per_level
        ]
        return {"index": {"kind": self.kind, "n": self.n}, "per_level": levels}

    def __str__(self):
        if self.kind == FINITE:
            return f"Finite({self.n})"
        if self.kind == AT_LEAST:
            return f"AtLeast({self.n})"
        return "NotDeterminate"


def _support_size(mu: Measure) -> int:
    atoms = mu.base_atoms()
    if atoms is None:
        raise FiniteSupport(
            "index scans need a measure with discrete support "
            "(atomic or gauss_from_jacobi quadrature)"
        )
    return len(atoms[0])


def index_of_determinacy(
    mu: Measure, n_max: int, depth: Optional[int] = None
) -> IndexReport:
    """Scan mu_m = (1+x^2)^m mu for m < n_max and assemble the index report.

    ``depth`` caps how many recurrence coefficients are extracted per level
    (default: as many as the support resolves).  Levels are evaluated in
    order, each classified by the default policy up to its stored depth;
    the first non-determinate level ends the scan.  Level 0 takes steps from
    the section of a ``truncation_spectrum`` measure with only power lifts,
    and runs RKPW on the atoms otherwise.  Each later level is one (1+t^2)
    Christoffel step from the level before when that level holds the whole
    support (``n_stored`` equals the number of atoms), and a new RKPW run on
    the reweighted atoms otherwise; in rational mode, steps also need exact
    entries to start from (see :func:`~momprob.measures.christoffel_levels`).
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    mu0, _ = mu.normalize()
    n_atoms = _support_size(mu0)
    level_depth = n_atoms if depth is None else min(depth, n_atoms)
    J = measure_to_jacobi(mu0, level_depth, partial=True)
    lifts = None  # Christoffel steps from the last RKPW level, while levels stay whole
    trace = []
    for m in range(n_max):
        if m:
            lifts = (lifts or christoffel_levels(J)) if J.n_stored == n_atoms else None
            if lifts is None:
                J = measure_to_jacobi(power_reweight(mu0, m)[0], level_depth, partial=True)
            else:
                J = next(lifts)
        verdict = classify(J, ClassifyPolicy(n_max=J.n_stored))
        trace.append((m, verdict))
        if verdict.verdict == INDETERMINATE:
            if m == 0:
                return IndexReport(NOT_DETERMINATE, None, tuple(trace))
            return IndexReport(FINITE, m, tuple(trace))
        if verdict.verdict != DETERMINATE:
            # inconclusive level: report what the clean levels support
            return IndexReport(AT_LEAST, m, tuple(trace))
    return IndexReport(AT_LEAST, n_max, tuple(trace))


def infinite_index_probe(mu_g: Measure, alpha, n_max: int,
                         depth: Optional[int] = None) -> IndexReport:
    """Index scan of the Gaussian-damped measure exp(-2*alpha*t^2) mu.

    For any alpha > 0 the damped measure has infinite index, so the expected
    report is AtLeast(n_max); alpha = 0 is rejected (the statement requires
    strictly positive damping).
    """
    if not alpha > 0:
        raise ValueError("the infinite-index probe requires alpha > 0")
    damped = gauss_damp(mu_g, alpha)
    return index_of_determinacy(damped, n_max, depth=depth)
