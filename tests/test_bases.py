from fractions import Fraction

import mpmath as mp
import pytest

from momprob import (
    AlphaBelowThreshold,
    ClassifyPolicy,
    FiniteSupport,
    INDETERMINATE,
    Measure,
    PrecisionConfig,
    QuadratureSpec,
    TruncationTooSmall,
    classify,
    f_basis_gram,
    f_basis_jacobi,
    gram_deviation,
    representation_diagnostic,
    stone_jacobi_measure_route,
    stone_jacobi_operator_route,
)
from momprob import tridiag

from conftest import assert_close, column_gram_deviation


@pytest.fixture(scope="module")
def gaussian_measure():
    cfg = PrecisionConfig.bigfloat(256)
    from momprob.families import hermite_like

    ref = hermite_like(cfg)
    return Measure.density(
        "gaussian", QuadratureSpec("gauss_from_jacobi", reference=ref, n_nodes=60),
        precision=cfg,
    )


class TestStoneMeasureRoute:
    def test_damped_gaussian_closed_form(self, gaussian_measure):
        J = stone_jacobi_measure_route(gaussian_measure, mp.mpf(1) / 2, 10)
        with mp.workprec(256):
            for k in range(1, 11):
                assert abs(J.diag(k)) < 1e-10
            for k in range(1, 10):
                assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k)) / 2) < 1e-10

    def test_warns_below_threshold(self, gaussian_measure):
        with pytest.warns(AlphaBelowThreshold):
            stone_jacobi_measure_route(gaussian_measure, 0.25, 4)

    def test_negative_alpha_rejected(self, gaussian_measure):
        with pytest.raises(ValueError):
            stone_jacobi_measure_route(gaussian_measure, -0.5, 4)

    def test_three_atoms_cannot_carry_five_levels(self):
        cfg = PrecisionConfig.bigfloat(256)
        mu = Measure.atomic([-1, 0, 1], [1, 1, 1], precision=cfg)
        with pytest.raises(FiniteSupport):
            stone_jacobi_measure_route(mu, 0.5, 5)

    def test_never_indeterminate_on_damped_proxy(self, lognormal_proxy40):
        J = stone_jacobi_measure_route(lognormal_proxy40, mp.mpf(1) / 2, 2)
        v = classify(J, ClassifyPolicy(n_max=2, start=2))
        assert v.verdict != INDETERMINATE


class TestStoneOperatorRoute:
    def test_zero_alpha_identity(self, hermite256):
        J, basis = stone_jacobi_operator_route(hermite256, 0, [1], N=40, n=6)
        with mp.workprec(256):
            for k in range(1, 7):
                assert abs(J.diag(k)) < mp.mpf(2) ** -200
            for k in range(1, 6):
                assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k) / 2)) < mp.mpf(2) ** -200
        assert basis.N == 40
        # canonical basis columns
        with mp.workprec(256):
            for idx, col in enumerate(basis.vectors):
                for i, x in enumerate(col):
                    assert abs(x - (1 if i == idx else 0)) < mp.mpf(2) ** -200

    def test_two_route_agreement(self, hermite256, gaussian_measure):
        J_op, basis = stone_jacobi_operator_route(hermite256, mp.mpf(1) / 2, [1], N=60, n=8)
        J_me = stone_jacobi_measure_route(gaussian_measure, mp.mpf(1) / 2, 8)
        with mp.workprec(256):
            for a, b in zip(list(J_op._q) + list(J_op._b), list(J_me._q) + list(J_me._b)):
                assert abs(a - b) < 1e-8
        assert column_gram_deviation(basis, 256) < 1e-30

    @pytest.mark.parametrize("alpha, vector", [
        (mp.inf, [1]), (mp.nan, [1]), (mp.mpf(1) / 2, [float("nan"), 1.0]),
    ], ids=["alpha-inf", "alpha-nan", "vector-nan"])
    def test_non_finite_input_rejected(self, hermite256, alpha, vector):
        with pytest.raises(ValueError, match="must be finite"):
            stone_jacobi_operator_route(hermite256, alpha, vector, N=20, n=4)

    def test_zero_vector_rejected(self, hermite256):
        with pytest.raises(ValueError):
            stone_jacobi_operator_route(hermite256, 0.5, [0, 0], N=40, n=4)

    def test_margin_enforced(self, hermite256):
        with pytest.raises(TruncationTooSmall):
            stone_jacobi_operator_route(hermite256, 0.5, [1], N=20, n=8)

    def test_general_vector_matches_spectral_measure_route(self, hermite256):
        # spectral measure of (T, g) damped, via the measure machinery,
        # must reproduce the operator-route matrix
        from momprob.measures import measure_to_jacobi

        N, n = 48, 6
        g = [1, 0.5, -0.25]
        J_op, _ = stone_jacobi_operator_route(hermite256, mp.mpf(1) / 4, g, N=N, n=n)
        # build the weighted spectral atoms by hand
        from momprob.tridiag import eigenvalues, eigenvector_columns

        q, b = hermite256.coefficients(N)
        with mp.workprec(300):
            nodes = eigenvalues(q, b, 280)
            cols = eigenvector_columns(q, b, nodes, 280)
            gg = [mp.mpf(x) for x in g] + [mp.mpf(0)] * (N - len(g))
            wts = []
            for col in cols:
                c = mp.fsum(a * x for a, x in zip(col, gg))
                wts.append(c * c)
        mu = Measure.atomic(nodes, wts, precision=PrecisionConfig.bigfloat(256))
        damped = mu.gauss_damp(mp.mpf(1) / 4)
        J_sp = measure_to_jacobi(damped, n)
        with mp.workprec(256):
            for a, c in zip(list(J_op._q) + list(J_op._b), list(J_sp._q) + list(J_sp._b)):
                assert abs(a - c) < 1e-40


class TestFBasis:
    def test_constant_lift_two_atoms(self):
        cfg = PrecisionConfig.rational()
        mu = Measure.atomic([Fraction(-1), Fraction(1)],
                            [Fraction(1, 2), Fraction(1, 2)], precision=cfg)
        J, C = f_basis_jacobi(mu, 2)
        assert C == Fraction(1, 2)  # (1+t^2)^{-1} = 1/2 at both atoms
        assert list(J._q) == [Fraction(0), Fraction(0)]
        assert list(J._b) == [Fraction(1)]

    def test_proxy_output_is_determinate(self, lognormal_proxy40):
        J, C = f_basis_jacobi(lognormal_proxy40, 10)
        v = classify(J, ClassifyPolicy(n_max=10, start=4))
        assert v.verdict == "determinate"
        assert v.verdict != INDETERMINATE

    def test_too_many_levels(self, lognormal_proxy40):
        with pytest.raises(FiniteSupport):
            f_basis_jacobi(lognormal_proxy40, 41)

    def test_gram_single_function(self):
        cfg = PrecisionConfig.bigfloat(256)
        mu = Measure.atomic([-2, 0, 1], [0.25, 0.5, 0.25], precision=cfg)
        G = f_basis_gram(mu, 1)
        assert_close(G[0][0], 1, 1e-60)

    def test_gram_two_atoms_exact_identity(self):
        cfg = PrecisionConfig.bigfloat(256)
        mu = Measure.atomic([-1, 1], [0.5, 0.5], precision=cfg)
        G = f_basis_gram(mu, 2)
        dev, imag = gram_deviation(G)
        assert dev < 1e-70
        assert imag < 1e-70

    def test_gram_lognormal_proxy(self, lognormal_proxy40):
        G = f_basis_gram(lognormal_proxy40, 15)
        dev, imag = gram_deviation(G)
        assert dev < 1e-8
        assert imag < 1e-10


class TestRepresentationDiagnostic:
    def test_single_column_unit(self, hermite256):
        s = representation_diagnostic(hermite256, [1], N=20, n=1)
        assert abs(s - 1.0) < 1e-12

    def test_first_vector_stays_bounded_below(self, hermite256):
        vals = [representation_diagnostic(hermite256, [1], N=N, n=6) for N in (20, 40, 80)]
        assert all(v > 0.1 for v in vals)
        # stable across truncation growth rather than decaying to zero
        assert abs(vals[-1] - vals[0]) < 1e-6

    def test_zero_vector_rejected(self, hermite256):
        with pytest.raises(ValueError):
            representation_diagnostic(hermite256, [0], N=10, n=2)

    def test_bad_sizes_rejected(self, hermite256):
        with pytest.raises(ValueError):
            representation_diagnostic(hermite256, [1], N=10, n=11)

    @pytest.mark.parametrize("vector", [[float("inf")], [float("nan"), 1.0]])
    def test_non_finite_vector_rejected(self, hermite256, vector):
        with pytest.raises(ValueError, match="^probe vector must be finite$"):
            representation_diagnostic(hermite256, vector, N=10, n=3)

    def test_one_matvec_per_column(self, hermite256, monkeypatch):
        # T^k delta is carried from column to column, not recomputed
        calls = []
        matvec = tridiag.matvec
        monkeypatch.setattr(tridiag, "matvec", lambda *a: calls.append(1) or matvec(*a))
        representation_diagnostic(hermite256, [1, 1], N=30, n=5)
        assert len(calls) == 5
