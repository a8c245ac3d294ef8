import json
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from momprob import (
    FiniteSupport,
    Measure,
    Multiplier,
    PrecisionConfig,
    QuadratureSpec,
    ZeroMass,
    gauss_damp,
    index_of_determinacy,
    integrate,
    measure_to_jacobi,
    moments_of,
    moments_to_jacobi,
    normalize,
    power_reweight,
    truncation_spectrum,
)
from momprob import measures
from momprob.measures import (
    _merge_stack,
    christoffel_step,
    inverse_christoffel_step,
)
from momprob.moments import MomentSequence
from momprob.precision import convert

from conftest import assert_close, assert_matches_lanczos
from oracles import atomic_moments, gram_schmidt_recurrence, lanczos_recurrence


@st.composite
def rational_measures(draw):
    """2-10 rational atoms with rational weights, in rational mode, power
    reweighted by -1, 0 or 1."""
    pts = draw(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=2, max_size=10,
                        unique=True))
    wts = draw(st.lists(st.fractions(Fraction(1, 20), 10, max_denominator=20),
                        min_size=len(pts), max_size=len(pts)))
    mu, _ = Measure.atomic(sorted(pts), wts, precision=PrecisionConfig.rational()).normalize()
    return power_reweight(mu, draw(st.sampled_from([-1, 0, 1])))[0]


@pytest.fixture()
def two_atom_rational():
    cfg = PrecisionConfig.rational()
    return Measure.atomic([Fraction(-1), Fraction(1)],
                          [Fraction(1, 2), Fraction(1, 2)], precision=cfg)


@pytest.fixture(scope="module")
def gaussian_measure():
    cfg = PrecisionConfig.bigfloat(256)
    from momprob.families import hermite_like

    ref = hermite_like(cfg)
    spec = QuadratureSpec("gauss_from_jacobi", reference=ref, n_nodes=60)
    return Measure.density("gaussian", spec, precision=cfg)


class TestMeasureValidation:
    def test_atomic_needs_positive_weights(self):
        with pytest.raises(ValueError):
            Measure.atomic([0, 1], [1, 0])

    def test_atomic_needs_increasing_points(self):
        with pytest.raises(ValueError):
            Measure.atomic([1, 0], [1, 1])
        with pytest.raises(ValueError):
            Measure.atomic([0, 0], [1, 1])

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            Measure.density("nope", QuadratureSpec("adaptive"))

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            Multiplier("gauss_damp", -1)
        with pytest.raises(ValueError):
            Multiplier("power_lift", 1.5)
        with pytest.raises(ValueError):
            Multiplier("spin", 1)


class TestIntegrate:
    def test_atomic_square_exact(self, two_atom_rational):
        assert integrate(two_atom_rational, lambda t: t * t) == Fraction(1)

    def test_transcendental_integrand_on_exact_atoms(self):
        # an mpf-valued integrand on exact atoms is summed at the working
        # precision, not at the ambient 53 bits
        mu = Measure.atomic([0, 1], [Fraction(1, 2), Fraction(1, 2)],
                            precision=PrecisionConfig.rational(256))
        val = integrate(mu, mp.exp)
        with mp.workprec(300):
            assert abs(val - (1 + mp.e) / 2) < mp.mpf(2) ** -250

    def test_std_normal_second_moment_adaptive(self):
        cfg = PrecisionConfig.bigfloat(128)
        mu = Measure.density("std_normal", QuadratureSpec("adaptive", tol=1e-20),
                             precision=cfg)
        val = integrate(mu, lambda t: t * t)
        assert_close(val, 1, 1e-14)

    def test_gaussian_weight_second_moment_two_routes(self, gaussian_measure):
        # gauss-nodes route against the independent adaptive route
        val_nodes = integrate(gaussian_measure, lambda t: t * t)
        cfg = gaussian_measure.precision
        mu_ad = Measure.density("gaussian", QuadratureSpec("adaptive", tol=1e-25),
                                precision=cfg)
        val_adaptive = integrate(mu_ad, lambda t: t * t)
        assert_close(val_nodes, Fraction(1, 2), 1e-30)
        assert_close(val_adaptive, Fraction(1, 2), 1e-20)

    def test_damped_atom_at_origin(self):
        mu = Measure.atomic([0], [1], precision=PrecisionConfig.bigfloat(128))
        damped = gauss_damp(mu, 3)
        assert_close(integrate(damped, lambda t: 1), 1, 1e-30)


class TestNormalize:
    def test_mass_and_constant(self):
        cfg = PrecisionConfig.rational()
        mu = Measure.atomic([Fraction(0), Fraction(1)], [Fraction(2), Fraction(2)],
                            precision=cfg)
        nu, C = normalize(mu)
        assert C == Fraction(4)
        pts, wts = nu.effective_atoms()
        assert wts == (Fraction(1, 2), Fraction(1, 2))

    def test_idempotent(self, two_atom_rational):
        nu, C = normalize(two_atom_rational)
        assert C == Fraction(1)
        nu2, C2 = normalize(nu)
        assert C2 == Fraction(1)
        assert nu2.effective_atoms() == nu.effective_atoms()

    def test_zero_mass_impossible_by_construction(self):
        # weights must be positive, so zero mass can only come from scaling
        mu = Measure.atomic([0], [1])
        shrunk = mu._replace(scale=0)
        with pytest.raises(ZeroMass):
            normalize(shrunk)


class TestGaussDamp:
    def test_zero_alpha_is_identity(self, two_atom_rational):
        assert gauss_damp(two_atom_rational, 0) is two_atom_rational

    def test_negative_alpha_rejected(self, two_atom_rational):
        with pytest.raises(ValueError):
            gauss_damp(two_atom_rational, -1)

    def test_pointwise_multiplier_value(self):
        m = Multiplier("gauss_damp", Fraction(1, 2))
        with mp.workprec(128):
            assert abs(m.value_at(mp.mpf(1)) - mp.exp(-1)) < mp.mpf(2) ** -120

    def test_alpha_additivity_structural(self):
        cfg = PrecisionConfig.bigfloat(128)
        mu = Measure.atomic([0, 1], [1, 1], precision=cfg)
        once = gauss_damp(gauss_damp(mu, 0.25), 0.25)
        combined = gauss_damp(mu, 0.5)
        assert len(once.transforms) == 1
        assert once.transforms[0].form == "gauss_damp"
        with mp.workprec(128):
            assert abs(mp.mpf(once.transforms[0].param) - mp.mpf("0.5")) == 0
        # and numerically identical atoms
        p1, w1 = once.effective_atoms()
        p2, w2 = combined.effective_atoms()
        with mp.workprec(128):
            for a, b in zip(w1, w2):
                assert abs(a - b) < mp.mpf(2) ** -120


class TestPowerReweight:
    def test_zero_exponent_identity(self, two_atom_rational):
        mu, C = power_reweight(two_atom_rational, 0)
        assert mu is two_atom_rational
        assert C == Fraction(1)

    def test_atom_at_origin_unchanged(self):
        cfg = PrecisionConfig.rational()
        mu = Measure.atomic([Fraction(0)], [Fraction(1)], precision=cfg)
        nu, C = power_reweight(mu, 1)
        assert C == Fraction(1)
        assert nu.effective_atoms()[1] == (Fraction(1),)

    def test_inverse_composition_exact(self):
        cfg = PrecisionConfig.rational()
        pts = [Fraction(k, 3) for k in range(-5, 5)]
        wts = [Fraction(1, 10)] * 10
        mu = Measure.atomic(pts, wts, precision=cfg)
        down, Cd = power_reweight(mu, -1)
        up, Cu = power_reweight(down, 1)
        assert up.effective_atoms() == mu.effective_atoms()
        assert Cd * Cu == Fraction(1)

    def test_nu_weights_sum_exactly_one(self):
        cfg = PrecisionConfig.rational()
        pts = [Fraction(k) for k in range(-10, 10)]
        wts = [Fraction(1, 20)] * 20
        mu = Measure.atomic(pts, wts, precision=cfg)
        nu, C = power_reweight(mu, -1)
        _, w = nu.effective_atoms()
        assert sum(w) == Fraction(1)
        expect_C = sum(Fraction(1, 20) / (1 + p * p) for p in pts)
        assert C == expect_C

    def test_fractional_exponent_rejected(self, two_atom_rational):
        with pytest.raises(ValueError):
            power_reweight(two_atom_rational, 1.5)
        with pytest.raises(ValueError):  # an int to isinstance, but no exponent
            power_reweight(two_atom_rational, True)


class TestCopiesAreNotChecked:
    def test_scan_runs_without_the_atom_check(self, monkeypatch, hermite256):
        # the atoms were checked when the measure was built; reweighting,
        # normalizing and scanning copies it without checking them again
        mu = truncation_spectrum(hermite256, 12)
        expected = index_of_determinacy(power_reweight(mu, -1)[0], 4)

        def refuse(x):
            raise AssertionError("a copy checked its atoms again")

        monkeypatch.setattr(measures, "is_finite_number", refuse)
        nu, _ = power_reweight(mu, -1)
        assert nu.points is mu.points and nu._section is not None
        normalize(nu)
        gauss_damp(nu, Fraction(1, 2))
        assert index_of_determinacy(nu, 4) == expected


class TestMeasureToJacobi:
    def test_two_atoms_closed_form(self, two_atom_rational):
        J = measure_to_jacobi(two_atom_rational, 2)
        assert list(J._q) == [Fraction(0), Fraction(0)]
        assert list(J._b) == [Fraction(1)]

    def test_finite_support_raised(self, two_atom_rational):
        with pytest.raises(FiniteSupport):
            measure_to_jacobi(two_atom_rational, 3)

    def test_spectrum_roundtrip_hermite(self, hermite256):
        mu = truncation_spectrum(hermite256, 20)
        J = measure_to_jacobi(mu, 10)
        with mp.workprec(256):
            for k in range(1, 11):
                assert abs(J.diag(k)) < 1e-10
            for k in range(1, 10):
                assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k) / 2)) < 1e-10

    def test_density_route_matches_closed_form(self, gaussian_measure):
        J = measure_to_jacobi(gaussian_measure, 10)
        with mp.workprec(256):
            for k in range(1, 10):
                assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k) / 2)) < 1e-10

    def test_density_route_forty_nodes(self):
        cfg = PrecisionConfig.bigfloat(256)
        from momprob.families import hermite_like

        spec = QuadratureSpec("gauss_from_jacobi", reference=hermite_like(cfg),
                              n_nodes=40)
        mu = Measure.density("gaussian", spec, precision=cfg)
        J = measure_to_jacobi(mu, 10)
        with mp.workprec(256):
            for k in range(1, 10):
                assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k) / 2)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(rational_measures(), st.data())
    def test_route_agreement_with_moment_route(self, mu, data):
        # the exact Hankel route is the oracle: the same q and b, entry for
        # entry; s_0..s_(2n-1) allow every depth up to the number of atoms
        n = data.draw(st.integers(1, len(mu.points)), label="n")
        J_nodes = measure_to_jacobi(mu, n)
        moments = MomentSequence.from_values(moments_of(mu, 2 * n - 1), mu.precision)
        J_moms = moments_to_jacobi(moments, n)
        assert list(J_nodes._q) == list(J_moms._q)
        assert list(J_nodes._b) == list(J_moms._b)

    def test_transform_then_convert_path_independent(self):
        cfg = PrecisionConfig.bigfloat(256)
        pts = list(range(-4, 5))
        wts = [1] * 9
        mu = Measure.atomic(pts, wts, precision=cfg)
        a = gauss_damp(gauss_damp(mu, 0.125), 0.375)
        b = gauss_damp(mu, 0.5)
        Ja = measure_to_jacobi(a, 5)
        Jb = measure_to_jacobi(b, 5)
        with mp.workprec(256):
            for x, y in zip(list(Ja._q) + list(Ja._b), list(Jb._q) + list(Jb._b)):
                assert abs(x - y) < mp.mpf(2) ** -200

    def test_partial_truncates_instead_of_raising(self, two_atom_rational):
        J = measure_to_jacobi(two_atom_rational, 5, partial=True)
        assert J.n_stored == 2

    @pytest.mark.parametrize("cfg", [PrecisionConfig.double(), PrecisionConfig.bigfloat(256)],
                             ids=["double", "bigfloat-256"])
    def test_scaled_atoms_scale_the_matrix_exactly(self, cfg):
        # RKPW takes only + - * /, so atoms times 2^-k give q and b times
        # exactly 2^-k; the exhaustion floor scales with min(1, max|atom|)^2,
        # where an absolute 2^-(2 bits) cut the small atoms at level 1
        pts = [Fraction(-3), Fraction(-1, 3), Fraction(1, 2), Fraction(2), Fraction(5)]
        wts = [Fraction(1, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 4), Fraction(3, 20)]
        J = measure_to_jacobi(Measure.atomic(pts, wts, precision=cfg), 5)
        for k in (1, 100, 200, 300, 1000):
            Jk = measure_to_jacobi(Measure.atomic([p / 2 ** k for p in pts], wts, precision=cfg), 5)
            assert Jk._q == tuple(mp.ldexp(x, -k) for x in J._q), k
            assert Jk._b == tuple(mp.ldexp(x, -k) for x in J._b), k

    @pytest.mark.parametrize("cfg, c", [
        (PrecisionConfig.double(), Fraction(1, 2 ** 100)),
        (PrecisionConfig.double(), Fraction(1, 2 ** 200)),
        (PrecisionConfig.bigfloat(256), Fraction(1, 2 ** 300)),
    ], ids=["double-2^-100", "double-2^-200", "bigfloat-2^-300"])
    def test_small_atoms_resolve_every_level(self, cfg, c):
        # three atoms -c, 0, c carry three levels, as rational mode finds
        wts = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        assert measure_to_jacobi(Measure.atomic([-c, 0, c], wts, precision=cfg), 3).n_stored == 3
        exact = measure_to_jacobi(Measure.atomic([-c, 0, c], wts, precision=PrecisionConfig.rational()), 3)
        assert exact.n_stored == 3


class TestMeasureToJacobiAgainstLanczos:
    """The RKPW kernel against full-reorthogonalization Lanczos (oracles)."""

    @pytest.mark.parametrize("m", [0, -1, -2])
    @pytest.mark.parametrize("n", [8, 40])
    def test_lognormal_proxy_reweightings(self, lognormal_proxy40, m, n):
        nu = power_reweight(lognormal_proxy40, m)[0]
        assert_matches_lanczos(nu, n)

    def test_reweighted_gaussian_density(self):
        # the measure behind gram-check: 40 Gauss nodes, (1+t^2)^-1, n = 15
        from momprob.families import hermite_like

        cfg = PrecisionConfig.bigfloat(256)
        spec = QuadratureSpec("gauss_from_jacobi", reference=hermite_like(cfg),
                              n_nodes=40)
        nu1, _ = power_reweight(Measure.density("gaussian", spec, precision=cfg), -1)
        assert_matches_lanczos(nu1, 15)

    def test_double_mode(self):
        mu = Measure.atomic([-2.0, -0.5, 0.25, 1.0, 3.0], [0.1, 0.3, 0.2, 0.25, 0.15],
                            precision=PrecisionConfig.double())
        J = assert_matches_lanczos(mu, 5)
        assert all(type(x) is float for x in list(J._q) + list(J._b))

    @pytest.mark.parametrize("alpha", ["1/2", "1/100", "1e-6"])
    def test_partial_on_damped_lognormal_proxy(self, lognormal_proxy40, alpha):
        damped = gauss_damp(lognormal_proxy40, alpha)
        J = assert_matches_lanczos(damped, 40, partial=True)
        assert 2 <= J.n_stored < 40

    @pytest.mark.parametrize("points, weights, depth", [
        ([-1, 1], [1, 3], 2),
        ([-1, 1], [1, Fraction(1, 2 ** 600)], 1),  # b_1^2 below 2^-(2*256): exhausted at once
        # 1 and 1 + 2^-600 collide once rounded to 256 + 32 bits, so the
        # chase takes its rho <= 0 arm and then its sig <= 0 arm
        ([1, 1 + Fraction(1, 2 ** 600)], [1, 1], 1),
        ([0, 1, 1 + Fraction(1, 2 ** 600), 3], [1, 1, 1, 1], 3),
    ], ids=["weights0-2", "weights1-1", "collision-2-atoms", "collision-4-atoms"])
    def test_partial_on_two_atoms(self, points, weights, depth):
        mu = Measure.atomic(points, weights, precision=PrecisionConfig.bigfloat(256))
        J = assert_matches_lanczos(mu, len(points) + 1, partial=True)
        assert J.n_stored == depth
        if depth < len(points):
            with pytest.raises(FiniteSupport):
                lanczos_recurrence(points, weights, len(points), 256)
            with pytest.raises(FiniteSupport):
                measure_to_jacobi(mu, len(points))

    def test_exhaustion_raises_without_partial(self, lognormal_proxy40):
        damped = gauss_damp(lognormal_proxy40, "1/2")
        pts, wts = damped.effective_atoms()
        with pytest.raises(FiniteSupport) as oracle:
            lanczos_recurrence(pts, wts, 8, 512)
        with pytest.raises(FiniteSupport) as kernel:
            measure_to_jacobi(damped, 8)
        assert str(kernel.value) == str(oracle.value)


class TestChristoffelStep:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=2, max_size=10,
                    unique=True), st.data())
    def test_step_equals_gram_schmidt_of_lifted_moments(self, pts, data):
        # exact (q, b^2) at full depth before and after multiplying the
        # weights by 1 + t^2, both from the Gram-Schmidt oracle, and the
        # ratio of the two masses
        wts = data.draw(st.lists(st.fractions(Fraction(1, 20), 10, max_denominator=20),
                                 min_size=len(pts), max_size=len(pts)), label="weights")
        n = len(pts)
        lifted = [w * (1 + t * t) for t, w in zip(pts, wts)]
        q, b2 = gram_schmidt_recurrence(atomic_moments(pts, wts, 2 * n), n)
        q1, b21, factor = christoffel_step(q, b2)
        assert (q1, b21) == gram_schmidt_recurrence(atomic_moments(pts, lifted, 2 * n), n)
        assert factor == sum(lifted) / sum(wts)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=1, max_size=8),
           st.data())
    def test_inverse_step_undoes_step(self, q, data):
        # any symmetric tridiagonal section with positive b^2 is the whole
        # matrix of a measure with as many atoms as rows
        b2 = data.draw(st.lists(st.fractions(Fraction(1, 20), 10, max_denominator=20),
                                min_size=len(q) - 1, max_size=len(q) - 1), label="b2")
        # the mass factors of a step and its inverse multiply to 1
        q1, b21, up = christoffel_step(q, b2)
        q0, b20, down = inverse_christoffel_step(q1, b21)
        assert (q0, b20) == (q, b2) and up * down == 1
        q1, b21, down = inverse_christoffel_step(q, b2)
        q0, b20, up = christoffel_step(q1, b21)
        assert (q0, b20) == (q, b2) and up * down == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=2, max_size=10,
                    unique=True), st.data())
    def test_inverse_step_equals_gram_schmidt_of_divided_moments(self, pts, data):
        wts = data.draw(st.lists(st.fractions(Fraction(1, 20), 10, max_denominator=20),
                                 min_size=len(pts), max_size=len(pts)), label="weights")
        n = len(pts)
        divided = [w / (1 + t * t) for t, w in zip(pts, wts)]
        q, b2 = gram_schmidt_recurrence(atomic_moments(pts, wts, 2 * n), n)
        q1, b21, factor = inverse_christoffel_step(q, b2)
        assert (q1, b21) == gram_schmidt_recurrence(atomic_moments(pts, divided, 2 * n), n)
        assert factor == sum(divided) / sum(wts)

    def test_int_section_steps_exactly(self):
        # atoms at -1 and 1: 1 + t^2 = 2 on both, so the mass doubles and
        # the matrix stays; int entries give Fractions, never floats
        assert christoffel_step([0, 0], [1]) == ([0, 0], [1], 2)
        q1, b21, factor = christoffel_step([0, 1, 3], [2, 5])
        assert all(type(x) is Fraction for x in q1 + b21) and factor == 3

    def test_rational_levels_stay_exact(self):
        # b = 1/2 at level 0; level 1 has b^2 = 2/9, so its b is a rounded
        # root, but the steps carry the exact squares on
        mu = Measure.atomic([0, 1], [1, 1], precision=PrecisionConfig.rational())
        J = measure_to_jacobi(mu, 2)
        nu = mu._with_section(J._q, J._b2)
        for m in (1, 2, 3):
            nu = power_reweight(nu, 1)[0]
            assert all(type(x) is Fraction for x in nu._section[0] + nu._section[1])
            J, ref = measure_to_jacobi(nu, 2), measure_to_jacobi(power_reweight(mu, m)[0], 2)
            assert all(type(x) is Fraction for x in J._q)
            assert J._q == ref._q and J._b == ref._b
        assert type(J._b[0]) is mp.mpf

    def test_rounded_rational_start_gives_no_steps(self):
        # b_1^2 = 3/16 here: its root is rounded, so the steps could not be exact
        mu = Measure.atomic([-1, 1], [1, 3], precision=PrecisionConfig.rational())
        J = measure_to_jacobi(mu, 2)
        assert type(J._b[0]) is mp.mpf
        q, b = J.coefficients(2)
        nu = mu._with_section(q, [x * x for x in b])
        assert nu._section is None and power_reweight(nu, 1)[0]._section is None


class TestMergeStack:
    def test_inverse_lifts_leave_empty_stack(self):
        mu = Measure.atomic([0, 1, 2], [1, 1, 1], precision=PrecisionConfig.bigfloat(128))
        up, _ = power_reweight(mu, 1)
        down, _ = power_reweight(up, -1)
        assert up.transforms == (Multiplier("power_lift", 1),)
        assert down.transforms == ()

    def test_damping_exponents_add(self, cfg_rational):
        stack = _merge_stack((), Multiplier("gauss_damp", Fraction(1, 4)), cfg_rational)
        stack = _merge_stack(stack, Multiplier("gauss_damp", Fraction(1, 8)), cfg_rational)
        assert stack == (Multiplier("gauss_damp", Fraction(3, 8)),)

    def test_different_forms_stay_separate(self, cfg_rational):
        stack = _merge_stack((), Multiplier("gauss_damp", Fraction(1, 2)), cfg_rational)
        stack = _merge_stack(stack, Multiplier("power_lift", -1), cfg_rational)
        stack = _merge_stack(stack, Multiplier("gauss_damp", Fraction(1, 2)), cfg_rational)
        assert [m.form for m in stack] == ["gauss_damp", "power_lift", "gauss_damp"]
        assert _merge_stack(stack, Multiplier("gauss_damp", 0), cfg_rational) == stack
        assert _merge_stack(stack, Multiplier("power_lift", 0), cfg_rational) == stack

    def test_damping_exponents_add_at_the_working_precision(self, cfg256):
        mu = Measure.atomic([-1, 0, 2], [1, 2, 1], precision=cfg256)
        damped = mu.gauss_damp(convert("1/10", cfg256)).gauss_damp(convert("1/5", cfg256))
        assert damped.transforms == (Multiplier("gauss_damp", convert("3/10", cfg256)),)

    def test_normalized_scale_has_the_working_mantissa(self, cfg256):
        mu = Measure.atomic([-1, 0, 2], [1, 2, 1], precision=cfg256)
        scale = mu.gauss_damp(convert("0.3", cfg256)).scale
        assert isinstance(scale, mp.mpf) and scale._mpf_[3] <= 256


class TestMomentsOf:
    def test_atomic_exact(self):
        cfg = PrecisionConfig.rational()
        pts = [Fraction(-1), Fraction(2)]
        wts = [Fraction(1, 4), Fraction(3, 4)]
        mu = Measure.atomic(pts, wts, precision=cfg)
        assert moments_of(mu, 5) == atomic_moments(pts, wts, 5)
        # a power-lift stack keeps them exact: the lifted power sums
        lifted, C = power_reweight(mu, 2)
        lifted_wts = [w * (1 + t * t) ** 2 / C for t, w in zip(pts, wts)]
        moms = moments_of(lifted, 5)
        assert all(type(s) is Fraction for s in moms)
        assert moms == atomic_moments(pts, lifted_wts, 5)

    def test_atoms_read_once(self, lognormal_proxy40, monkeypatch):
        lifted = power_reweight(lognormal_proxy40, -2)[0]
        expect = [integrate(lifted, lambda t, k=k: t ** k) for k in range(21)]
        calls = []
        read = Measure.effective_atoms
        monkeypatch.setattr(Measure, "effective_atoms",
                            lambda self: calls.append(1) or read(self))
        assert moments_of(lifted, 20) == expect  # bit for bit
        assert len(calls) == 1


class TestJsonRoundtrip:
    def test_atomic_with_transforms(self):
        cfg = PrecisionConfig.bigfloat(128)
        mu = Measure.atomic([0, 1], [1, 1], precision=cfg)
        mu = gauss_damp(mu, 0.5)
        mu, _ = power_reweight(mu, -1)
        obj = mu.to_json()
        back = Measure.from_json(obj)
        p1, w1 = mu.effective_atoms()
        p2, w2 = back.effective_atoms()
        with mp.workprec(128):
            for a, b in zip(w1, w2):
                assert abs(a - b) < mp.mpf(2) ** -100

    def test_gauss_damp_exponent_at_configured_precision(self):
        # the exponent is written at the measure's 256 bits, so it reloads
        # bit-exactly instead of from 18 digits
        mu = Measure.atomic([0, 1], [1, 1], precision=PrecisionConfig.bigfloat(256))
        with mp.workprec(256):
            mu = gauss_damp(mu, mp.mpf(1) / 3)
        back = Measure.from_json(json.loads(json.dumps(mu.to_json())))
        assert back.transforms == mu.transforms

    def test_density_with_family_reference(self, gaussian_measure):
        obj = gaussian_measure.to_json()
        back = Measure.from_json(obj)
        assert back.weight_name == "gaussian"
        assert back.quadrature.n_nodes == 60
        with mp.workprec(256):
            assert abs(mp.mpf(back.total_mass()) - 1) < mp.mpf(2) ** -200
