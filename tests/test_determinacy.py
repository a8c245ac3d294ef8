import json
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from momprob import (
    AT_LEAST,
    DETERMINATE,
    FINITE,
    INDETERMINATE,
    ClassifyPolicy,
    Measure,
    NOT_DETERMINATE,
    PrecisionConfig,
    QuadratureSpec,
    classify,
    determinacy,
    gauss_damp,
    index_of_determinacy,
    infinite_index_probe,
    jacobi,
    measure_to_jacobi,
    normalize,
    power_reweight,
    truncation_spectrum,
)

from conftest import assert_matches_lanczos


@pytest.fixture(scope="module")
def gaussian_measure():
    cfg = PrecisionConfig.bigfloat(256)
    from momprob.families import hermite_like

    ref = hermite_like(cfg)
    return Measure.density(
        "gaussian", QuadratureSpec("gauss_from_jacobi", reference=ref, n_nodes=60),
        precision=cfg,
    )


class TestIndexScan:
    def test_indeterminate_base_has_no_index(self, lognormal_proxy40):
        report = index_of_determinacy(lognormal_proxy40, 4)
        assert report.kind == NOT_DETERMINATE
        assert report.per_level[0][1].verdict == INDETERMINATE

    def test_nu1_index_one(self, lognormal_proxy40):
        nu1, _ = power_reweight(lognormal_proxy40, -1)
        report = index_of_determinacy(nu1, 4)
        assert report.kind == FINITE and report.n == 1

    def test_nu2_index_two(self, lognormal_proxy40):
        nu2, _ = power_reweight(lognormal_proxy40, -2)
        report = index_of_determinacy(nu2, 4)
        assert report.kind == FINITE and report.n == 2

    def test_nu3_index_three(self, lognormal_proxy40):
        nu3, _ = power_reweight(lognormal_proxy40, -3)
        report = index_of_determinacy(nu3, 5)
        assert report.kind == FINITE and report.n == 3

    def test_scan_discipline(self, lognormal_proxy40):
        # every level before the first indeterminate one must be determinate,
        # and the scan stops right there
        nu2, _ = power_reweight(lognormal_proxy40, -2)
        report = index_of_determinacy(nu2, 6)
        levels = [m for m, _ in report.per_level]
        verdicts = [v.verdict for _, v in report.per_level]
        assert levels == [0, 1, 2]
        assert verdicts == [DETERMINATE, DETERMINATE, INDETERMINATE]

    def test_index_shift_by_one_reweighting(self, lognormal_proxy40):
        nu1, _ = power_reweight(lognormal_proxy40, -1)
        nu2, _ = power_reweight(lognormal_proxy40, -2)
        r1 = index_of_determinacy(nu1, 4)
        r2 = index_of_determinacy(nu2, 4)
        assert r2.n == r1.n + 1

    def test_all_levels_determinate_reports_at_least(self, gaussian_measure):
        from momprob import gauss_damp

        damped = gauss_damp(gaussian_measure, mp.mpf(1) / 2)
        report = index_of_determinacy(damped, 2, depth=40)
        assert report.kind == AT_LEAST and report.n == 2

    def test_n_max_validation(self, lognormal_proxy40):
        with pytest.raises(ValueError):
            index_of_determinacy(lognormal_proxy40, 0)

    def test_report_serializes(self, lognormal_proxy40):
        nu1, _ = power_reweight(lognormal_proxy40, -1)
        report = index_of_determinacy(nu1, 3)
        obj = report.to_json(nu1.precision)
        assert obj["index"] == {"kind": "finite", "n": 1}
        assert len(obj["per_level"]) == 2
        assert str(report) == "Finite(1)"


class TestInfiniteIndexProbe:
    def test_zero_alpha_rejected(self, gaussian_measure):
        with pytest.raises(ValueError):
            infinite_index_probe(gaussian_measure, 0, 3)

    def test_damped_proxy_probe(self, lognormal_proxy40):
        report = infinite_index_probe(lognormal_proxy40, 1, 3)
        assert report.kind == AT_LEAST and report.n == 3
        assert all(v.verdict == DETERMINATE for _, v in report.per_level)


def routed_to_jacobi(monkeypatch, nu, *args, **kwargs):
    """measure_to_jacobi(nu, ...) and the route that built it: "rkpw" when
    the chase read the reweighted atoms, "section" when Christoffel steps
    from the stored section did."""
    reads = []
    real_atoms = Measure.effective_atoms

    def counting_atoms(self):
        reads.append(self)
        return real_atoms(self)

    with monkeypatch.context() as patch:
        patch.setattr(Measure, "effective_atoms", counting_atoms)
        J = measure_to_jacobi(nu, *args, **kwargs)
    return J, "rkpw" if reads else "section"


def recorded_scan(monkeypatch, mu, n_max, depth=None):
    """index_of_determinacy with the matrix of every level and the route of
    every measure_to_jacobi call recorded."""
    levels, routes = [], []
    real_classify = determinacy.classify

    def recording_classify(J, policy):
        levels.append(J)
        return real_classify(J, policy)

    def routing_to_jacobi(nu, *args, **kwargs):
        J, route = routed_to_jacobi(monkeypatch, nu, *args, **kwargs)
        routes.append(route)
        return J

    with monkeypatch.context() as patch:
        patch.setattr(determinacy, "classify", recording_classify)
        patch.setattr(determinacy, "measure_to_jacobi", routing_to_jacobi)
        report = index_of_determinacy(mu, n_max, depth=depth)
    return report, levels, routes


def without_section(mu):
    """The same measure with no section, so measure_to_jacobi runs RKPW."""
    out = mu._replace()
    out._section = None
    return out


def per_level_rkpw_scan(mu, n_max, depth=None):
    """(verdict, n_used) per level of the scan with every level converted
    from the reweighted atoms by measure_to_jacobi."""
    policy = ClassifyPolicy()
    mu0 = without_section(normalize(mu)[0])
    n_atoms = len(mu0.base_atoms()[0])
    n = n_atoms if depth is None else min(depth, n_atoms)
    out = []
    for m in range(n_max):
        J = measure_to_jacobi(power_reweight(mu0, m)[0], n, partial=True)
        verdict = classify(J, replace(policy, n_max=min(policy.n_max, J.n_stored)))
        out.append((verdict.verdict, verdict.n_used))
        if verdict.verdict != DETERMINATE:
            break
    return out


def assert_row_scaled_close(J, ref, bits):
    """Every entry of J within 2^-(bits-4) of ``ref`` relative to the row's
    scale max(|q_i|, b_(i-1), b_i) in ``ref`` (b_i is scaled by row i)."""
    q, b = J.coefficients(J.n_stored)
    rq, rb = ref.coefficients(ref.n_stored)
    assert len(q) == len(rq)
    with mp.workprec(2 * bits):
        tol = mp.ldexp(1, 4 - bits)
        for i, (x, y) in enumerate(zip(q, rq)):
            scale = max([abs(y)] + list(rb[max(i - 1, 0):i + 1]))
            assert abs(x - y) <= tol * scale, f"q_{i + 1}"
            if i < len(b):
                assert abs(b[i] - rb[i]) <= tol * scale, f"b_{i + 1}"


def atomic_case(proxy, power):
    bits = proxy.precision.bits
    twice = Measure.atomic(proxy.points, proxy.weights,
                           precision=PrecisionConfig.bigfloat(2 * bits))
    return power_reweight(proxy, power)[0], power_reweight(twice, power)[0], bits


def damped_gaussian_case(gaussian):
    bits = gaussian.precision.bits
    twice = Measure.atomic(*gaussian.base_atoms(), precision=PrecisionConfig.bigfloat(2 * bits))
    alpha = mp.mpf(1) / 2
    return gauss_damp(gaussian, alpha), gauss_damp(twice, alpha), bits


@pytest.fixture(scope="module")
def hermite_proxy40(hermite256):
    return truncation_spectrum(hermite256, 40)


class TestSectionRoute:
    """A truncation_spectrum measure with only power lifts gets its Jacobi
    matrix by rounding its section, which its lifts map by Christoffel
    steps, not by RKPW."""

    @pytest.mark.parametrize("power", [-3, -2, -1, 1])
    @pytest.mark.parametrize("proxy", ["lognormal", "hermite"])
    def test_steps_against_rkpw_at_twice_the_bits(
            self, monkeypatch, lognormal_proxy40, hermite_proxy40, proxy, power):
        mu = {"lognormal": lognormal_proxy40, "hermite": hermite_proxy40}[proxy]
        nu, twice, bits = atomic_case(mu, power)
        J, route = routed_to_jacobi(monkeypatch, nu, 40)
        assert route == "section"
        assert_row_scaled_close(J, measure_to_jacobi(twice, 40), bits)
        assert_matches_lanczos(nu, 40)

    def test_leading_rows_of_the_section_route(self, monkeypatch, lognormal_proxy40):
        nu, _ = power_reweight(lognormal_proxy40, -2)
        J, route = routed_to_jacobi(monkeypatch, nu, 12)
        assert route == "section" and J.n_stored == 12
        full = measure_to_jacobi(nu, 40)
        assert J.coefficients(12) == full.coefficients(12)

    def test_json_round_trip_drops_the_section(self, monkeypatch, lognormal_proxy40):
        nu, _ = power_reweight(lognormal_proxy40, -1)
        back = Measure.from_json(nu.to_json())
        assert "section" not in json.dumps(nu.to_json())
        assert routed_to_jacobi(monkeypatch, back, 40)[1] == "rkpw"

    def test_gauss_from_jacobi_density_runs_rkpw(self, monkeypatch, gaussian_measure):
        nu, _ = power_reweight(gaussian_measure, -1)
        assert routed_to_jacobi(monkeypatch, nu, 60)[1] == "rkpw"

    def test_gauss_damp_drops_the_section(self, monkeypatch, lognormal_proxy40):
        lifted, _ = power_reweight(lognormal_proxy40, -1)
        assert lifted._section is not None
        assert normalize(lifted)[0]._section is lifted._section
        for nu in (gauss_damp(lifted, 1), power_reweight(gauss_damp(lognormal_proxy40, 1), -1)[0]):
            J, route = routed_to_jacobi(monkeypatch, nu, 40, partial=True)
            assert route == "rkpw"
            ref = measure_to_jacobi(without_section(nu), 40, partial=True)
            assert J.coefficients(J.n_stored) == ref.coefficients(ref.n_stored)


class TestChristoffelScan:
    """Levels from the section of a truncation_spectrum measure, or from an
    RKPW level that holds the whole support, by (1+t^2) steps; per-level
    RKPW otherwise."""

    @pytest.mark.parametrize("case, n_max, first", [
        pytest.param(lambda proxy, g: atomic_case(proxy, -1), 4, "section", id="nu-1"),
        pytest.param(lambda proxy, g: atomic_case(proxy, -2), 4, "section", id="nu-2"),
        pytest.param(lambda proxy, g: atomic_case(proxy, -3), 5, "section", id="nu-3"),
        pytest.param(lambda proxy, g: damped_gaussian_case(g), 3, "rkpw",
                     id="damped-gaussian"),
    ])
    def test_step_levels_against_rkpw_at_twice_the_bits(
            self, monkeypatch, lognormal_proxy40, gaussian_measure, case, n_max, first):
        mu, twice, bits = case(lognormal_proxy40, gaussian_measure)
        report, levels, routes = recorded_scan(monkeypatch, mu, n_max)
        assert len(levels) > 1 and routes == [first] + ["section"] * (len(levels) - 1)
        n_atoms = len(mu.base_atoms()[0])
        for m, J in enumerate(levels):
            assert J.n_stored == n_atoms
            assert_row_scaled_close(J, measure_to_jacobi(power_reweight(twice, m)[0], n_atoms),
                                    bits)
        assert [(v.verdict, v.n_used) for _, v in report.per_level] == \
            per_level_rkpw_scan(mu, n_max)

    @pytest.mark.parametrize("power, index", [(-1, "Finite(1)"), (-2, "Finite(2)")])
    def test_section_backed_scan_runs_no_rkpw(self, monkeypatch, lognormal_proxy40,
                                              power, index):
        nu, _ = power_reweight(lognormal_proxy40, power)
        report, levels, routes = recorded_scan(monkeypatch, nu, 4)
        assert str(report) == index and len(levels) == -power + 1
        assert routes == ["section"] * len(levels)

    def test_one_rkpw_run_on_nu2(self, monkeypatch, lognormal_proxy40):
        # read back from JSON, the measure has no section: one RKPW run, then steps
        nu2, _ = power_reweight(lognormal_proxy40, -2)
        report, levels, routes = recorded_scan(monkeypatch, Measure.from_json(nu2.to_json()), 4)
        assert str(report) == "Finite(2)" and len(levels) == 3
        assert routes == ["rkpw", "section", "section"]

    def test_rational_rkpw_level_keeps_its_exact_squares(self, monkeypatch):
        # b^2 = 156/25, 530/169, 3822/2809 are exact, their roots are not: the
        # level keeps its squares as an exact section, and the levels after
        # it are exact steps (every level is read as determinate here, so
        # the scan goes on past this 4-atom measure's inconclusive verdict)
        mu = Measure.atomic([0, 1, 3, 7], [1, 2, 1, 1], precision=PrecisionConfig.rational())
        real_classify = determinacy.classify
        monkeypatch.setattr(determinacy, "classify", lambda J, policy: replace(
            real_classify(J, policy), verdict=DETERMINATE))
        _, levels, routes = recorded_scan(monkeypatch, mu, 3)
        assert routes == ["rkpw", "section", "section"]
        assert levels[0]._b2 == (Fraction(156, 25), Fraction(530, 169), Fraction(3822, 2809))
        for m, J in enumerate(levels):
            ref = measure_to_jacobi(power_reweight(mu, m)[0], 4)
            assert all(type(x) is Fraction for x in J._q + J._b2)
            assert (J._q, J._b2) == (ref._q, ref._b2)

    def test_kept_level_roots_only_the_rows_classify_reads(self, monkeypatch, lognormal_proxy40):
        # read back from JSON, nu(-1) has no section: its RKPW level is kept
        # by its squares, so the only roots are those of the 8 + 40 rows
        # classify reads, 7 + 39 off-diagonal entries
        nu1 = Measure.from_json(power_reweight(lognormal_proxy40, -1)[0].to_json())
        calls = []
        real_sqrt = jacobi.sqrt_number
        monkeypatch.setattr(jacobi, "sqrt_number", lambda *a: calls.append(a) or real_sqrt(*a))
        report = index_of_determinacy(nu1, 4)
        assert [v.n_used for _, v in report.per_level] == [8, 40]
        assert len(calls) == 7 + 39

    def test_scan_ignores_the_mass(self, lognormal_proxy40):
        # neither route reads the mass, so the scan need not normalize
        nu2, _ = power_reweight(lognormal_proxy40, -2)
        pts, wts = nu2.effective_atoms()
        heavy = Measure.atomic(pts, [7 * w for w in wts], precision=nu2.precision)
        report = index_of_determinacy(heavy, 4)
        assert str(report) == "Finite(2)"
        assert report == index_of_determinacy(normalize(heavy)[0], 4)

    def test_partial_levels_run_rkpw_per_level(self, monkeypatch, lognormal_proxy40):
        # the damped proxy resolves a few rows of its 40 atoms per level
        damped = gauss_damp(lognormal_proxy40, 1)
        report, levels, routes = recorded_scan(monkeypatch, damped, 3)
        assert str(report) == "AtLeast(3)"
        assert routes == ["rkpw"] * 3 and len(levels) == 3
        assert all(J.n_stored < 40 for J in levels)
        assert [(v.verdict, v.n_used) for _, v in report.per_level] == \
            per_level_rkpw_scan(damped, 3)

    def test_depth_cap_runs_rkpw_per_level(self, monkeypatch, gaussian_measure):
        # criterion 09's scan: 48 of 60 rows per level
        damped = gauss_damp(gaussian_measure, mp.mpf(1) / 2)
        report, levels, routes = recorded_scan(monkeypatch, damped, 4, depth=48)
        assert str(report) == "AtLeast(4)"
        assert routes == ["rkpw"] * 4 and len(levels) == 4
        assert [(v.verdict, v.n_used) for _, v in report.per_level] == \
            per_level_rkpw_scan(damped, 4, depth=48)


class TestPivotMasses:
    """A sectioned measure takes its mass from the pivots of its Christoffel
    steps; the integral over its atoms is the oracle."""

    @staticmethod
    def assert_masses_close(mu, power):
        (nu, c), (ref, c_ref) = power_reweight(mu, power), power_reweight(without_section(mu), power)
        bits = mu.precision.bits
        with mp.workprec(2 * bits):
            assert abs(c - c_ref) <= mp.ldexp(c_ref, 4 - bits)
            assert abs(nu.scale - ref.scale) <= mp.ldexp(ref.scale, 4 - bits)
            mass = normalize(nu)[1]  # from the section of nu
            assert abs(mass - 1) <= mp.ldexp(1, 4 - bits)
            assert abs(mass - without_section(nu).total_mass()) <= mp.ldexp(1, 4 - bits)

    @pytest.mark.parametrize("power", [-1, -2, -3])
    def test_lognormal_levels(self, lognormal_proxy40, power):
        self.assert_masses_close(lognormal_proxy40, power)

    @pytest.mark.parametrize("power", [-2, -1, 1, 2])
    def test_hermite_section(self, hermite_proxy40, power):
        self.assert_masses_close(hermite_proxy40, power)

    @pytest.mark.parametrize("points, weights", [([0, 1], [1, 1]), ([0, 5], [1, 4])],
                             ids=["b-1/2", "b-2"])
    def test_rational_sections_exact(self, points, weights):
        # b_1 is rational, so the section is exact; the masses are 2 and 5
        mu = Measure.atomic(points, weights, precision=PrecisionConfig.rational())
        J = measure_to_jacobi(mu, 2)
        nu = mu._with_section(J._q, J._b2)
        assert nu._section[2] == sum(weights)
        for power in (1, 2, -1, -3):
            (a, c), (b, c_ref) = power_reweight(nu, power), power_reweight(without_section(nu), power)
            assert type(c) is Fraction and (c, a.scale) == (c_ref, b.scale)

    @pytest.mark.parametrize("power", [0, -1, -2])
    def test_scan_of_a_spectrum_integrates_nothing(self, monkeypatch, lognormal_proxy40, power):
        expected = index_of_determinacy(power_reweight(lognormal_proxy40, power)[0], 4)

        def refuse(self, f):
            raise AssertionError("a sectioned measure integrated")

        monkeypatch.setattr(Measure, "integrate", refuse)
        assert index_of_determinacy(power_reweight(lognormal_proxy40, power)[0], 4) == expected
