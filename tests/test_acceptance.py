"""Acceptance suite: one test per criterion, each at its stated tolerance.

A one-line PASS/FAIL summary per criterion is printed at the end of the
pytest run (see the terminal-summary hook in conftest).
"""
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from momprob import (
    ClassifyPolicy,
    DETERMINATE,
    DegenerateHankel,
    FiniteSupport,
    INDETERMINATE,
    JacobiMatrix,
    Measure,
    PrecisionConfig,
    QuadratureSpec,
    classify,
    f_basis_gram,
    gauss_damp,
    gram_deviation,
    hankel_determinants,
    index_of_determinacy,
    infinite_index_probe,
    jacobi_to_moments,
    measure_to_jacobi,
    moments_to_jacobi,
    pi_eval,
    power_reweight,
    stone_jacobi_measure_route,
    stone_jacobi_operator_route,
    truncation_spectrum,
    validate_positive,
    weyl_radius,
)
from momprob.families import hermite_like, lognormal
from momprob.moments import MomentSequence

from conftest import column_gram_deviation
from oracles import SQRT_PI_WEIGHT_MOMENTS, STD_NORMAL_MOMENTS, gram_schmidt_recurrence


@pytest.fixture(scope="module")
def gaussian_measure_256():
    cfg = PrecisionConfig.bigfloat(256)
    ref = hermite_like(cfg)
    return Measure.density(
        "gaussian", QuadratureSpec("gauss_from_jacobi", reference=ref, n_nodes=60),
        precision=cfg,
    )


def test_criterion_01_hankel_and_recurrence():
    """Gaussian-family Hankel positivity and recurrence coefficients."""
    t0 = time.time()
    rational = PrecisionConfig.rational()
    s = MomentSequence.from_values(STD_NORMAL_MOMENTS, rational)
    dets = hankel_determinants(s, 4)
    assert all(d > 0 for d in dets)
    assert validate_positive(s, 4)

    # oracle first: exact Gram-Schmidt on these moments gives q = 0 and
    # b_k^2 = k (the b_k = sqrt(k/2) values belong to the exp(-t^2)-weight
    # moments, checked right after)
    q_ref, b2_ref = gram_schmidt_recurrence(STD_NORMAL_MOMENTS, 4)
    assert q_ref == [0, 0, 0, 0] and b2_ref == [1, 2, 3]

    cfg = PrecisionConfig.bigfloat(256)
    s256 = MomentSequence.from_values(STD_NORMAL_MOMENTS, cfg)
    J = moments_to_jacobi(s256, 4)
    with mp.workprec(256):
        for k in range(1, 5):
            assert abs(J.diag(k)) < 1e-12
        for k in range(1, 4):
            assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k))) < 1e-12

    q_ref2, b2_ref2 = gram_schmidt_recurrence(SQRT_PI_WEIGHT_MOMENTS, 4)
    assert b2_ref2 == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    sqpi = MomentSequence.from_values(SQRT_PI_WEIGHT_MOMENTS, cfg)
    J2 = moments_to_jacobi(sqpi, 4)
    with mp.workprec(256):
        for k in range(1, 5):
            assert abs(J2.diag(k)) < 1e-12
        for k in range(1, 4):
            assert abs(J2.offdiag(k) - mp.sqrt(mp.mpf(k) / 2)) < 1e-12
    assert time.time() - t0 < 1.0


def test_criterion_02_roundtrip_50_random():
    """Round trip moments <-> recurrence for 50 randomized matrices."""
    t0 = time.time()
    cfg = PrecisionConfig.bigfloat(256)
    rng = random.Random(20240817)
    rel_tol = mp.mpf("1e-10")
    for _ in range(50):
        with mp.workprec(256):
            q = [mp.mpf(rng.uniform(-2, 2)) for _ in range(8)]
            b = [mp.mpf(rng.uniform(0.1, 3)) for _ in range(7)]
        J = JacobiMatrix(q=q, b=b, precision=cfg)
        s = jacobi_to_moments(J, 15)
        J2 = moments_to_jacobi(s, 8)
        with mp.workprec(256):
            for a, c in zip(list(J._q) + list(J._b), list(J2._q) + list(J2._b)):
                assert abs(a - c) <= rel_tol * max(1, abs(a))
    assert time.time() - t0 < 30.0


def test_criterion_03_determinate_side():
    """hermite_like classifies determinate with a strictly decreasing trace."""
    t0 = time.time()
    J = hermite_like(PrecisionConfig.bigfloat(256))
    v = classify(J, ClassifyPolicy(n_max=100_000, eps_zero=1e-3, z=1j))
    assert v.verdict == DETERMINATE
    assert v.n_used <= 100_000
    assert v.radii[-1] < 1e-3
    assert all(a > b for a, b in zip(v.radii, v.radii[1:]))
    assert time.time() - t0 < 60.0


def test_criterion_04_indeterminate_side():
    """Lognormal matrix at 512 bits classifies indeterminate."""
    t0 = time.time()
    J = lognormal(60, PrecisionConfig.bigfloat(512))
    v = classify(J, ClassifyPolicy(n_max=60, eps_zero=1e-3, eps_stable=1e-6,
                                   window=3, z=1j))
    assert v.verdict == INDETERMINATE
    assert v.radii[-1] > 1e-3
    last = v.radii[-3:]
    with mp.workprec(512):
        assert (max(last) - min(last)) / last[-1] < 1e-6
    assert time.time() - t0 < 300.0


def test_criterion_05_stone_constructions(gaussian_measure_256, lognormal_proxy40):
    """Damped-measure matrices: never indeterminate; Gaussian closed form."""
    # (a) Gaussian base: q = 0, b_k = sqrt(k)/2 within 1e-10 (variance-1/4)
    J = stone_jacobi_measure_route(gaussian_measure_256, mp.mpf(1) / 2, 10)
    with mp.workprec(256):
        for k in range(1, 11):
            assert abs(J.diag(k)) < 1e-10
        for k in range(1, 10):
            assert abs(J.offdiag(k) - mp.sqrt(mp.mpf(k)) / 2) < 1e-10
    v = classify(J, ClassifyPolicy(n_max=10, start=2))
    assert v.verdict != INDETERMINATE

    # (b) 40-node lognormal proxy: damping collapses the support to the
    # resolvable atoms; whatever depth survives must not classify
    # indeterminate
    damped = gauss_damp(lognormal_proxy40, mp.mpf(1) / 2)
    Jp = measure_to_jacobi(damped, 2, partial=True)
    vp = classify(Jp, ClassifyPolicy(n_max=Jp.n_stored, start=2))
    assert vp.verdict != INDETERMINATE
    assert vp.verdict == DETERMINATE


def test_criterion_06_two_route_consistency(gaussian_measure_256):
    """Operator route and measure route agree entrywise within 1e-8."""
    H = hermite_like(PrecisionConfig.bigfloat(256))
    J_op, basis = stone_jacobi_operator_route(H, mp.mpf(1) / 2, [1], N=60, n=8)
    J_me = stone_jacobi_measure_route(gaussian_measure_256, mp.mpf(1) / 2, 8)
    with mp.workprec(256):
        for a, b in zip(list(J_op._q) + list(J_op._b), list(J_me._q) + list(J_me._b)):
            assert abs(a - b) < 1e-8
    assert column_gram_deviation(basis, 256) < 1e-8


def test_criterion_07_weighted_basis_orthonormality(lognormal_proxy40):
    """Gram matrix of the first 15 weighted basis functions is the identity."""
    G = f_basis_gram(lognormal_proxy40, 15)
    dev, imag = gram_deviation(G)
    assert dev < 1e-8
    assert imag < 1e-10


def test_criterion_08_reweighting_index_law(lognormal_proxy40):
    """Indices of the (1+x^2)^{-1} and (1+x^2)^{-2} reweightings are 1 and 2."""
    nu1, _ = power_reweight(lognormal_proxy40, -1)
    rep1 = index_of_determinacy(nu1, 4)
    assert str(rep1) == "Finite(1)"
    nu2, _ = power_reweight(lognormal_proxy40, -2)
    rep2 = index_of_determinacy(nu2, 4)
    assert str(rep2) == "Finite(2)"


def test_criterion_09_infinite_index_probe(gaussian_measure_256):
    """The half-damped Gaussian measure scans clean through four levels."""
    report = infinite_index_probe(gaussian_measure_256, mp.mpf(1) / 2, 4, depth=48)
    assert str(report) == "AtLeast(4)"
    assert all(v.verdict == DETERMINATE for _, v in report.per_level)


def test_criterion_10_structural_invariants(hermite256):
    """Monotone radii, conjugation symmetry, quadrature exactness,
    positivity enforcement, transform composition laws."""
    t0 = time.time()
    cfg = PrecisionConfig.bigfloat(192)
    rng = random.Random(99)

    # radius monotonicity on random matrices
    for _ in range(10):
        with mp.workprec(192):
            q = [mp.mpf(rng.uniform(-2, 2)) for _ in range(10)]
            b = [mp.mpf(rng.uniform(0.1, 3)) for _ in range(9)]
        J = JacobiMatrix(q=q, b=b, precision=cfg)
        radii = [weyl_radius(J, 1j, n) for n in range(1, 11)]
        assert all(x >= y for x, y in zip(radii, radii[1:]))

    # conjugation symmetry at 100 random (matrix, point) pairs
    for _ in range(100):
        with mp.workprec(192):
            q = [mp.mpf(rng.uniform(-2, 2)) for _ in range(8)]
            b = [mp.mpf(rng.uniform(0.1, 3)) for _ in range(7)]
        J = JacobiMatrix(q=q, b=b, precision=cfg)
        z = mp.mpc(rng.uniform(-3, 3), rng.choice([1, -1]) * rng.uniform(0.1, 3))
        up = pi_eval(J, z, 8)
        down = pi_eval(J, mp.conj(z), 8)
        with mp.workprec(192):
            for a, c in zip(up, down):
                assert abs(mp.conj(a) - c) <= mp.mpf(2) ** -140 * max(1, abs(a))

    # quadrature exactness through order 2N-1
    for N in (3, 7, 12):
        with mp.workprec(192):
            q = [mp.mpf(rng.uniform(-2, 2)) for _ in range(N)]
            b = [mp.mpf(rng.uniform(0.1, 3)) for _ in range(N - 1)]
        J = JacobiMatrix(q=q, b=b, precision=cfg)
        mu = truncation_spectrum(J, N)
        s = jacobi_to_moments(J, 2 * N - 1)
        for a, c in zip(mu.moments(2 * N - 1), s.values):
            with mp.workprec(192):
                assert abs(a - c) <= mp.mpf(10) ** -30 * max(1, abs(c))

    # positivity enforcement: no silent clamping anywhere
    with pytest.raises(ValueError):
        JacobiMatrix(q=[0, 0], b=[0], precision=cfg)
    two_atoms = Measure.atomic([-1, 1], [0.5, 0.5], precision=cfg)
    with pytest.raises(FiniteSupport):
        measure_to_jacobi(two_atoms, 3)
    rational = PrecisionConfig.rational()
    degenerate = MomentSequence.from_values([1, 0, 1, 0, 1], rational)
    with pytest.raises(DegenerateHankel):
        moments_to_jacobi(degenerate, 2)

    # transform composition: damping exponents add; power lift inverts
    mu = Measure.atomic([-1, 0, 2], [1, 2, 1], precision=cfg)
    twice = gauss_damp(gauss_damp(mu, 0.3), 0.2)
    once = gauss_damp(mu, 0.5)
    with mp.workprec(192):
        for a, c in zip(twice.effective_atoms()[1], once.effective_atoms()[1]):
            assert abs(a - c) <= mp.mpf(2) ** -150
    pts = [Fraction(k, 2) for k in range(-4, 5)]
    wts = [Fraction(1, 9)] * 9
    mur = Measure.atomic(pts, wts, precision=rational)
    down, Cd = power_reweight(mur, -2)
    up, Cu = power_reweight(down, 2)
    assert up.effective_atoms() == mur.effective_atoms()
    assert Cd * Cu == 1

    assert time.time() - t0 < 120.0
