import re

import mpmath as mp
import pytest
from hypothesis import settings

from momprob import (
    PrecisionConfig,
    families,
    gram_deviation,
    measure_to_jacobi,
    truncation_spectrum,
)
from momprob.precision import to_mpf

from oracles import lanczos_recurrence

# every run draws the same examples, whatever a local example database
# holds; a failure found this way is pinned with @example
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def assert_close(a, b, tol, msg=""):
    """|a - b| <= tol with mpf-safe arithmetic (Fractions welcome)."""
    with mp.workprec(max(mp.mp.prec, 300)):
        if isinstance(a, (complex, mp.mpc)) or isinstance(b, (complex, mp.mpc)):
            diff = abs(mp.mpc(a) - mp.mpc(b))
        else:
            diff = abs(to_mpf(a) - to_mpf(b))
        assert diff <= tol, f"{msg} |diff| = {mp.nstr(diff, 8)} > {tol}"


_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_COMPLEX = re.compile(rf"({_NUMBER})[-+]({_NUMBER})i")


def decimal_strings(doc, precision=None):
    """(precision, s) for each decimal string s of a JSON document, with the
    ``precision`` entry nearest above it (None outside any).  The parts of
    an ``a+bi`` value count; integers, ``p/q`` strings and the precision
    entries themselves do not."""
    if isinstance(doc, dict):
        precision = doc.get("precision", precision)
        doc = [value for key, value in doc.items() if key != "precision"]
    if isinstance(doc, list):
        for value in doc:
            yield from decimal_strings(value, precision)
    elif isinstance(doc, str):
        z = _COMPLEX.fullmatch(doc)
        for s in z.groups() if z else [doc]:
            if re.fullmatch(_NUMBER, s) and re.search(r"[.eE]", s):
                yield precision, s


def column_gram_deviation(basis, bits):
    """max |G - I| of the Gram matrix of the basis columns, summed at bits + 16."""
    cols = basis.vectors
    with mp.workprec(bits + 16):
        return gram_deviation([[mp.fsum(a * b for a, b in zip(u, v)) for v in cols]
                               for u in cols])[0]


def assert_matches_lanczos(mu, n, partial=False):
    """measure_to_jacobi(mu, n) against the Lanczos oracle: same depth, and
    every entry within 2^-(bits-8) of it relative to max(|entry|, 1)."""
    pts, wts = mu.effective_atoms()
    bits = mu.precision.bits
    J = measure_to_jacobi(mu, n, partial=partial)
    q_ref, b_ref = lanczos_recurrence(pts, wts, min(n, len(pts)), bits, partial)
    assert J.n_stored == len(q_ref)
    assert len(J._b) == len(b_ref)
    with mp.workprec(bits + 32):
        for x, y in zip(list(J._q) + list(J._b), q_ref + b_ref):
            assert abs(mp.mpf(x) - y) <= mp.mpf(2) ** (8 - bits) * max(abs(y), 1)
    return J


@pytest.fixture(scope="session")
def cfg256():
    return PrecisionConfig.bigfloat(256)


@pytest.fixture(scope="session")
def cfg512():
    return PrecisionConfig.bigfloat(512)


@pytest.fixture(scope="session")
def cfg_rational():
    return PrecisionConfig.rational()


@pytest.fixture(scope="session")
def hermite256(cfg256):
    return families.hermite_like(cfg256)


@pytest.fixture(scope="session")
def lognormal60(cfg512):
    return families.lognormal(60, cfg512)


@pytest.fixture(scope="session")
def lognormal_proxy40(lognormal60):
    """40-atom Gauss measure of the lognormal matrix (session-cached)."""
    return truncation_spectrum(lognormal60, 40)


_CRITERION_DESCRIPTIONS = {
    "01": "Hankel positivity and recurrence coefficients (Gaussian family)",
    "02": "moments <-> recurrence round trip, 50 random matrices",
    "03": "determinate side: hermite_like radius trace",
    "04": "indeterminate side: lognormal radius stabilization",
    "05": "damped-measure constructions never indeterminate",
    "06": "operator route vs measure route agreement",
    "07": "weighted-basis Gram identity",
    "08": "reweighting index law Finite(1)/Finite(2)",
    "09": "infinite-index probe AtLeast(4)",
    "10": "structural invariants suite",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call" and verdict == "PASS":
                continue
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                tag = nodeid.split("test_criterion_")[1][:2]
                lines[tag] = (verdict, _CRITERION_DESCRIPTIONS.get(tag, nodeid))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for tag in sorted(lines):
            verdict, desc = lines[tag]
            terminalreporter.write_line(f"{verdict}  criterion {tag}: {desc}")
