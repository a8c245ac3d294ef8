from dataclasses import replace

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
    measure_to_jacobi,
    normalize,
    power_reweight,
)


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


def recorded_scan(monkeypatch, mu, n_max, depth=None):
    """index_of_determinacy with the matrix of every level and the measures
    passed to measure_to_jacobi recorded."""
    levels, rkpw = [], []
    real_classify, real_to_jacobi = determinacy.classify, determinacy.measure_to_jacobi

    def recording_classify(J, policy):
        levels.append(J)
        return real_classify(J, policy)

    def counting_to_jacobi(nu, *args, **kwargs):
        rkpw.append(nu)
        return real_to_jacobi(nu, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(determinacy, "classify", recording_classify)
        patch.setattr(determinacy, "measure_to_jacobi", counting_to_jacobi)
        report = index_of_determinacy(mu, n_max, depth=depth)
    return report, levels, rkpw


def per_level_rkpw_scan(mu, n_max, depth=None):
    """(verdict, n_used) per level of the scan with every level converted
    from the reweighted atoms by measure_to_jacobi."""
    policy = ClassifyPolicy()
    mu0, _ = normalize(mu)
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


def lognormal_case(proxy, power):
    bits = proxy.precision.bits
    twice = Measure.atomic(proxy.points, proxy.weights,
                           precision=PrecisionConfig.bigfloat(2 * bits))
    return power_reweight(proxy, power)[0], power_reweight(twice, power)[0], bits


def damped_gaussian_case(gaussian):
    bits = gaussian.precision.bits
    twice = Measure.atomic(*gaussian.base_atoms(), precision=PrecisionConfig.bigfloat(2 * bits))
    alpha = mp.mpf(1) / 2
    return gauss_damp(gaussian, alpha), gauss_damp(twice, alpha), bits


class TestChristoffelScan:
    """One RKPW run per scan, then (1+t^2) steps while a level holds the
    whole support; per-level RKPW otherwise."""

    @pytest.mark.parametrize("case, n_max", [
        pytest.param(lambda proxy, g: lognormal_case(proxy, -1), 4, id="nu-1"),
        pytest.param(lambda proxy, g: lognormal_case(proxy, -2), 4, id="nu-2"),
        pytest.param(lambda proxy, g: lognormal_case(proxy, -3), 5, id="nu-3"),
        pytest.param(lambda proxy, g: damped_gaussian_case(g), 3, id="damped-gaussian"),
    ])
    def test_step_levels_against_rkpw_at_twice_the_bits(
            self, monkeypatch, lognormal_proxy40, gaussian_measure, case, n_max):
        mu, twice, bits = case(lognormal_proxy40, gaussian_measure)
        report, levels, rkpw = recorded_scan(monkeypatch, mu, n_max)
        assert len(rkpw) == 1 and len(levels) > 1
        n_atoms = len(mu.base_atoms()[0])
        for m, J in enumerate(levels):
            assert J.n_stored == n_atoms
            assert_row_scaled_close(J, measure_to_jacobi(power_reweight(twice, m)[0], n_atoms),
                                    bits)
        assert [(v.verdict, v.n_used) for _, v in report.per_level] == \
            per_level_rkpw_scan(mu, n_max)

    def test_one_rkpw_run_on_nu2(self, monkeypatch, lognormal_proxy40):
        nu2, _ = power_reweight(lognormal_proxy40, -2)
        report, levels, rkpw = recorded_scan(monkeypatch, nu2, 4)
        assert str(report) == "Finite(2)" and len(levels) == 3
        assert len(rkpw) == 1

    def test_partial_levels_run_rkpw_per_level(self, monkeypatch, lognormal_proxy40):
        # the damped proxy resolves a few rows of its 40 atoms per level
        damped = gauss_damp(lognormal_proxy40, 1)
        report, levels, rkpw = recorded_scan(monkeypatch, damped, 3)
        assert str(report) == "AtLeast(3)"
        assert len(rkpw) == len(levels) == 3
        assert all(J.n_stored < 40 for J in levels)
        assert [(v.verdict, v.n_used) for _, v in report.per_level] == \
            per_level_rkpw_scan(damped, 3)

    def test_depth_cap_runs_rkpw_per_level(self, monkeypatch, gaussian_measure):
        # criterion 09's scan: 48 of 60 rows per level
        damped = gauss_damp(gaussian_measure, mp.mpf(1) / 2)
        report, levels, rkpw = recorded_scan(monkeypatch, damped, 4, depth=48)
        assert str(report) == "AtLeast(4)"
        assert len(rkpw) == len(levels) == 4
        assert [(v.verdict, v.n_used) for _, v in report.per_level] == \
            per_level_rkpw_scan(damped, 4, depth=48)
