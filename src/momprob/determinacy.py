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

Each level is ``power_reweight(nu, 1)`` of the level before, converted by
:func:`~momprob.measures.measure_to_jacobi`.  A measure that keeps its
section (``truncation_spectrum`` sets it) rounds it, and its lifts are
exact O(N) (1+t^2) Christoffel steps of the section.  Any other runs the
RKPW chase on its atoms; when that gives the whole N x N matrix of the
N-atom support, the scan keeps it as the section, so later levels are
steps.  An RKPW level that stops short of the support (partial
resolution, or a ``depth`` cap), or a rational-mode level with an inexact
entry, gives no section, and the next level runs RKPW again.
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
from .measures import Measure, gauss_damp, measure_to_jacobi, power_reweight
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
    the first non-determinate level ends the scan.  An RKPW level that holds
    the whole support (``n_stored`` equals the number of atoms) becomes the
    section of its measure, so the levels after it are Christoffel steps.
    Its mass is integrated once; the steps carry it on in their pivots.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    n_atoms = _support_size(mu)
    level_depth = n_atoms if depth is None else min(depth, n_atoms)
    nu, trace = mu, []
    for m in range(n_max):
        if m:
            nu = power_reweight(nu, 1)[0]
        J = measure_to_jacobi(nu, level_depth, partial=True)
        if nu._section is None and J.n_stored == n_atoms:
            nu = nu._with_section(*J.coefficients(n_atoms))
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
