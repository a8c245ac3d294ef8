"""Invariant checks over randomized inputs."""
import random
from fractions import Fraction

import mpmath as mp
from hypothesis import given, settings, strategies as st

from momprob import (
    JacobiMatrix,
    Measure,
    MomentSequence,
    PrecisionConfig,
    PrecisionLoss,
    classify,
    ClassifyPolicy,
    gauss_damp,
    jacobi_to_moments,
    moments_to_jacobi,
    pi_eval,
    power_reweight,
    truncation_spectrum,
    validate_positive,
    weyl_radius,
)
from momprob.precision import to_fraction

from conftest import assert_matches_lanczos
from oracles import atomic_moments

CFG = PrecisionConfig.bigfloat(192)

finite_q = st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=10)


def jacobi_from_seed(seed, n=10):
    rng = random.Random(seed)
    with mp.workprec(192):
        q = [mp.mpf(rng.uniform(-2, 2)) for _ in range(n)]
        b = [mp.mpf(rng.uniform(0.1, 3)) for _ in range(n - 1)]
    return JacobiMatrix(q=q, b=b, precision=CFG)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_radius_monotone_in_depth(seed, n):
    J = jacobi_from_seed(seed)
    r_prev = None
    for k in range(1, n + 1):
        r = weyl_radius(J, 1j, k)
        assert r > 0
        if r_prev is not None:
            assert r <= r_prev
        r_prev = r


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000),
       st.floats(-3, 3, allow_nan=False),
       st.floats(0.1, 3, allow_nan=False))
def test_conjugation_symmetry(seed, re, im):
    J = jacobi_from_seed(seed)
    z = mp.mpc(re, im)
    up = pi_eval(J, z, 10)
    down = pi_eval(J, mp.conj(z), 10)
    with mp.workprec(192):
        for a, b in zip(up, down):
            assert abs(mp.conj(a) - b) <= mp.mpf(2) ** -150 * max(1, abs(a))


def test_conjugation_symmetry_hundred_pairs():
    rng = random.Random(123)
    for trial in range(100):
        J = jacobi_from_seed(rng.randrange(10 ** 6), n=8)
        z = mp.mpc(rng.uniform(-3, 3), rng.uniform(0.1, 3) * rng.choice([1, -1]))
        up = pi_eval(J, z, 8)
        down = pi_eval(J, mp.conj(z), 8)
        with mp.workprec(192):
            for a, b in zip(up, down):
                assert abs(mp.conj(a) - b) <= mp.mpf(2) ** -150 * max(1, abs(a))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_moment_roundtrip(seed):
    J = jacobi_from_seed(seed, n=6)
    s = jacobi_to_moments(J, 11)
    J2 = moments_to_jacobi(s, 6)
    with mp.workprec(192):
        for a, b in zip(list(J._q) + list(J._b), list(J2._q) + list(J2._b)):
            assert abs(a - b) <= mp.mpf(10) ** -30 * max(1, abs(a))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_quadrature_exactness(seed, N):
    J = jacobi_from_seed(seed, n=N)
    mu = truncation_spectrum(J, N)
    atom_moms = mu.moments(2 * N - 1)
    s = jacobi_to_moments(J, 2 * N - 1)
    with mp.workprec(192):
        for a, b in zip(atom_moms, s.values):
            assert abs(a - b) <= mp.mpf(10) ** -30 * max(1, abs(b))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=2, max_size=8,
                unique=True),
       st.integers(1, 3))
def test_power_lift_inverse_exact(points, n):
    pts = sorted(points)
    wts = [Fraction(1, len(pts))] * len(pts)
    mu = Measure.atomic(pts, wts, precision=PrecisionConfig.rational())
    down, Cd = power_reweight(mu, -n)
    up, Cu = power_reweight(down, n)
    assert up.effective_atoms() == mu.effective_atoms()
    assert Cd * Cu == 1


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_damping_composition(a1, a2):
    mu = Measure.atomic([-1, 0, 2], [1, 2, 1], precision=CFG)
    two_steps = gauss_damp(gauss_damp(mu, a1), a2)
    one_step = gauss_damp(mu, Fraction(a1) + Fraction(a2))
    p1, w1 = two_steps.effective_atoms()
    p2, w2 = one_step.effective_atoms()
    with mp.workprec(192):
        for x, y in zip(w1, w2):
            assert abs(x - y) <= mp.mpf(2) ** -150


def test_normalize_idempotent_float():
    mu = Measure.atomic([0.0, 1.0, 2.5], [0.2, 0.3, 0.1], precision=CFG)
    nu, C1 = mu.normalize()
    nu2, C2 = nu.normalize()
    with mp.workprec(192):
        assert abs(C2 - 1) < mp.mpf(2) ** -150
        for a, b in zip(nu.effective_atoms()[1], nu2.effective_atoms()[1]):
            assert abs(a - b) < mp.mpf(2) ** -150


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_verdict_traces_positive_nonincreasing(seed):
    J = jacobi_from_seed(seed, n=10)
    v = classify(J, ClassifyPolicy(n_max=10, start=2, eps_zero=1e-40))
    assert all(r > 0 for r in v.radii)
    assert all(x >= y for x, y in zip(v.radii, v.radii[1:]))


@st.composite
def atomic_measures(draw):
    """3-12 atoms on the grid k/8 in [-5, 5], integer weights 1..1000, at 128
    bits or in double mode.  The spread of weights and the grid keep every
    b_k far above 2^-bits, where the Lanczos oracle resolves it."""
    ks = draw(st.lists(st.integers(-40, 40), min_size=3, max_size=12, unique=True))
    wts = draw(st.lists(st.integers(1, 1000), min_size=len(ks), max_size=len(ks)))
    cfg = draw(st.sampled_from([PrecisionConfig.bigfloat(128), PrecisionConfig.double()]))
    return Measure.atomic([k / 8 for k in sorted(ks)], wts, precision=cfg)


@settings(max_examples=40, deadline=None)
@given(atomic_measures())
def test_rkpw_matches_lanczos(mu):
    n = len(mu.points)
    assert_matches_lanczos(mu, n)
    assert_matches_lanczos(mu, n + 2, partial=True)


@st.composite
def atomic_positivity_cases(draw):
    """(s_0..s_2k, k, atoms): exact moments of 1-7 distinct atoms m/d in
    [-4, 4] with d <= 4, and a k_max of 1-6, so the sequence is positive
    definite exactly when atoms > k_max.  The weights are 1..5 out of the
    next power of two, the last taking the rest, so dyadic atoms give
    moments a float mode may store exactly, zero pivots included."""
    pts = draw(st.lists(st.fractions(-4, 4, max_denominator=4), min_size=1, max_size=7,
                        unique=True))
    wts = draw(st.lists(st.integers(1, 5), min_size=len(pts) - 1, max_size=len(pts) - 1))
    total = 1 << sum(wts).bit_length()
    wts.append(total - sum(wts))
    k_max = draw(st.integers(1, 6), label="k_max")
    values = atomic_moments(sorted(pts), [Fraction(w, total) for w in wts], 2 * k_max)
    return values, k_max, len(pts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atomic_positivity_cases())
def test_float_positivity_is_never_a_guess(case):
    # a float verdict is about the stored moments, the exact ones rounded to
    # the mode: it is never true where rational mode on those values says
    # false, and with more atoms than k_max it is true, as for the exact
    # moments.  PrecisionLoss is allowed where the atoms are too few.
    values, k_max, atoms = case
    exact = MomentSequence.from_values(values, PrecisionConfig.rational())
    assert validate_positive(exact, k_max) is (atoms > k_max)
    for cfg in (PrecisionConfig.double(), PrecisionConfig.bigfloat(64),
                PrecisionConfig.bigfloat(256)):
        s = MomentSequence.from_values(values, cfg)
        stored = MomentSequence.from_values([to_fraction(v) for v in s.values],
                                            PrecisionConfig.rational())
        if atoms > k_max:
            assert validate_positive(s, k_max) is True
            continue
        try:
            verdict = validate_positive(s, k_max)
        except PrecisionLoss:
            continue
        assert verdict <= validate_positive(stored, k_max), cfg
