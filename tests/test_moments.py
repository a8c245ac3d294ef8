import random
from fractions import Fraction

import mpmath as mp
import pytest

from momprob import (
    DegenerateHankel,
    InsufficientMoments,
    JacobiMatrix,
    MomentSequence,
    PrecisionConfig,
    PrecisionLoss,
    hankel_determinants,
    jacobi_to_moments,
    moments_to_jacobi,
    validate_positive,
)
from momprob import families, moments
from momprob.errors import CoefficientExhausted
from momprob.moments import _jacobi_from_moment_source
from momprob.precision import agreeing_bits

from oracles import (
    STD_NORMAL_MOMENTS,
    SQRT_PI_WEIGHT_MOMENTS,
    gram_schmidt_recurrence,
    hankel_det_oracle,
)


@pytest.fixture(scope="module")
def rational():
    return PrecisionConfig.rational()


class TestHankelDeterminants:
    def test_single_moment(self, rational):
        s = MomentSequence.from_values([1], rational)
        assert hankel_determinants(s, 0) == [Fraction(1)]

    def test_std_normal_first_three(self, rational):
        s = MomentSequence.from_values([1, 0, 1, 0, 3], rational)
        assert hankel_determinants(s, 2) == [Fraction(1), Fraction(1), Fraction(2)]

    def test_matches_permutation_oracle(self, rational):
        s = MomentSequence.from_values(STD_NORMAL_MOMENTS, rational)
        dets = hankel_determinants(s, 4)
        expect = [hankel_det_oracle(STD_NORMAL_MOMENTS, k) for k in range(5)]
        assert dets == expect  # (1, 1, 2, 12, 288)
        assert dets == [1, 1, 2, 12, 288]

    def test_degenerate_tail(self, rational):
        s = MomentSequence.from_values([1, 0, 0], rational)
        assert hankel_determinants(s, 1) == [Fraction(1), Fraction(0)]

    def test_insufficient(self, rational):
        s = MomentSequence.from_values([1, 0, 1], rational)
        with pytest.raises(InsufficientMoments):
            hankel_determinants(s, 2)

    def test_bigfloat_route_agrees_with_exact(self):
        cfg = PrecisionConfig.bigfloat(128)
        s = MomentSequence.from_values(STD_NORMAL_MOMENTS, cfg)
        dets = hankel_determinants(s, 4)
        with mp.workprec(128):
            for d, e in zip(dets, (1, 1, 2, 12, 288)):
                assert abs(d - e) < mp.mpf(2) ** -100


class TestValidatePositive:
    def test_positive_sequence(self, rational):
        s = MomentSequence.from_values([1, 0, 1, 0, 3], rational)
        assert validate_positive(s, 2) is True

    def test_degenerate_fails(self, rational):
        s = MomentSequence.from_values([1, 0, 0], rational)
        assert validate_positive(s, 1) is False

    def test_trivial_single(self, rational):
        s = MomentSequence.from_values([1], rational)
        assert validate_positive(s, 0) is True


class TestMomentsToJacobi:
    def test_std_normal_oracle(self, rational):
        # frozen from the exact Gram-Schmidt oracle: q = 0, b_k^2 = k
        q_ref, b2_ref = gram_schmidt_recurrence(STD_NORMAL_MOMENTS, 4)
        assert q_ref == [0, 0, 0, 0]
        assert b2_ref == [1, 2, 3]
        s = MomentSequence.from_values(STD_NORMAL_MOMENTS, rational)
        J = moments_to_jacobi(s, 4)
        assert list(J._q) == [0, 0, 0, 0]
        assert [x * x for x in J._b] == [1, 2, 3]

    def test_sqrt_pi_weight_oracle(self, rational):
        # the exp(-t^2) weight family: q = 0, b_k^2 = k/2
        q_ref, b2_ref = gram_schmidt_recurrence(SQRT_PI_WEIGHT_MOMENTS, 4)
        assert q_ref == [0, 0, 0, 0]
        assert b2_ref == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        s = MomentSequence.from_values(SQRT_PI_WEIGHT_MOMENTS, rational)
        J = moments_to_jacobi(s, 4)
        with mp.workprec(256):
            for k, b in enumerate(J._b, start=1):
                assert abs(mp.mpf(b if not isinstance(b, Fraction) else b.numerator / b.denominator)
                           - mp.sqrt(mp.mpf(k) / 2)) < 1e-60

    def test_lognormal_first_entries(self):
        cfg = PrecisionConfig.bigfloat(512)
        with mp.workprec(600):
            vals = [mp.exp(mp.mpf(k) ** 2 / 2) for k in range(5)]
        s = MomentSequence.from_values(vals, cfg)
        J = moments_to_jacobi(s, 2)
        with mp.workprec(512):
            assert abs(J._q[0] - mp.sqrt(mp.e)) < mp.mpf(10) ** -150
            assert abs(J._b[0] - mp.sqrt(mp.e ** 2 - mp.e)) < mp.mpf(10) ** -150

    def test_two_atom_degenerate(self, rational):
        s = MomentSequence.from_values([1, 0, 1, 0, 1], rational)
        with pytest.raises(DegenerateHankel):
            moments_to_jacobi(s, 2)

    def test_two_atom_degenerate_bigfloat(self):
        cfg = PrecisionConfig.bigfloat(256)
        s = MomentSequence.from_values([1, 0, 1, 0, 1], cfg)
        with pytest.raises(DegenerateHankel):
            moments_to_jacobi(s, 2)

    def test_insufficient(self, rational):
        s = MomentSequence.from_values([1, 0, 1], rational)
        with pytest.raises(InsufficientMoments):
            moments_to_jacobi(s, 2)

    def test_first_coefficient_identities(self, rational):
        # q_1 = s_1 and b_1^2 = s_2 - s_1^2 on a generic rational sequence
        pts = [Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(3)]
        wts = [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)]
        from oracles import atomic_moments

        moms = atomic_moments(pts, wts, 6)
        s = MomentSequence.from_values(moms, rational)
        J = moments_to_jacobi(s, 3)
        assert J._q[0] == moms[1]
        expect_b2 = moms[2] - moms[1] ** 2
        b1 = J._b[0]
        if isinstance(b1, Fraction):
            assert b1 ** 2 == expect_b2
        else:
            with mp.workprec(280):
                want = mp.mpf(expect_b2.numerator) / expect_b2.denominator
                assert abs(b1 * b1 - want) < mp.mpf(2) ** -240


class TestJacobiToMoments:
    def test_gaussian_weight_inverse(self, rational):
        cfg = PrecisionConfig.bigfloat(256)
        with mp.workprec(256):
            b = [mp.sqrt(mp.mpf(1) / 2), mp.mpf(1)]
        J = JacobiMatrix(q=[0, 0, 0], b=b, precision=cfg)
        s = jacobi_to_moments(J, 4)
        with mp.workprec(256):
            for got, want in zip(s.values, SQRT_PI_WEIGHT_MOMENTS[:5]):
                assert abs(got - mp.mpf(want.numerator) / want.denominator) < mp.mpf(2) ** -240

    def test_order_zero(self, rational):
        J = JacobiMatrix(q=[Fraction(7)], b=[], precision=rational)
        s = jacobi_to_moments(J, 0)
        assert s.values == (Fraction(1),)

    def test_single_entry_bandedness(self, rational):
        J = JacobiMatrix(q=[Fraction(3)], b=[], precision=rational)
        s = jacobi_to_moments(J, 1)
        assert s.values == (Fraction(1), Fraction(3))
        with pytest.raises(CoefficientExhausted):
            jacobi_to_moments(J, 2)

    def test_matches_exact_matrix_power(self, rational):
        q = [Fraction(1, 2), Fraction(-1), Fraction(2)]
        b = [Fraction(1, 3), Fraction(5, 4)]
        J = JacobiMatrix(q=q, b=b, precision=rational)
        s = jacobi_to_moments(J, 4)
        # oracle: dense matrix powers
        T = [[q[0], b[0], 0], [b[0], q[1], b[1]], [0, b[1], q[2]]]

        def matmul(A, B):
            return [
                [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)
            ]

        P = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        expect = []
        for _ in range(5):
            expect.append(P[0][0])
            P = matmul(P, T)
        assert list(s.values) == expect


class TestRoundTrip:
    def test_exact_rational(self, rational):
        q = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(0)]
        b = [Fraction(3, 2), Fraction(1, 4), Fraction(5, 6)]
        J = JacobiMatrix(q=q, b=b, precision=rational)
        s = jacobi_to_moments(J, 7)
        J2 = moments_to_jacobi(s, 4)
        assert list(J2._q) == q
        assert list(J2._b) == b

    def test_bigfloat_256(self):
        cfg = PrecisionConfig.bigfloat(256)
        rng = random.Random(11)
        with mp.workprec(256):
            q = [mp.mpf(rng.uniform(-2, 2)) for _ in range(8)]
            b = [mp.mpf(rng.uniform(0.1, 3)) for _ in range(7)]
        J = JacobiMatrix(q=q, b=b, precision=cfg)
        s = jacobi_to_moments(J, 15)
        J2 = moments_to_jacobi(s, 8)
        with mp.workprec(256):
            for a, c in zip(list(J._q) + list(J._b), list(J2._q) + list(J2._b)):
                assert abs(a - c) <= mp.mpf(10) ** -40 * max(1, abs(a))


class TestLognormalInverse:
    def test_coefficients_reproduce_exact_moments(self):
        # end-to-end check of the closed-form lognormal family: its 512-bit
        # coefficients must reproduce s_k = exp(k^2/2) through the independent
        # banded-powers route, to near the delivery precision
        J = families.lognormal(20, PrecisionConfig.bigfloat(512))
        s = jacobi_to_moments(J, 39)
        with mp.workprec(700):
            for k, v in enumerate(s.values):
                exact = mp.exp(mp.mpf(k) ** 2 / 2)
                assert abs(v - exact) / exact < mp.mpf(10) ** -140


class TestLognormalClosedForm:
    def test_agrees_with_hankel_route(self):
        # the adaptive Hankel route on the exact moments stays as the oracle
        cfg = PrecisionConfig.bigfloat(512)
        J = families.lognormal(30, cfg)
        H = _jacobi_from_moment_source(families.lognormal_moment, 30, cfg)
        with mp.workprec(512 + 64):
            for k, (a, b) in enumerate(zip(J._q + J._b, H._q + H._b)):
                assert agreeing_bits(a, b) >= 504, f"coefficient {k}"

    def test_never_calls_hankel_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lognormal went through the Hankel route")

        # the adaptive route and the LDL^T kernel under every Hankel route,
        # looked up in the moments module at call time
        for name in ("_jacobi_from_moment_source", "_ldl_recurrence"):
            monkeypatch.setattr(moments, name, refuse)
        families._lognormal_coeffs.cache_clear()
        J = families.lognormal(30, PrecisionConfig.bigfloat(512))
        assert J.n_stored == 30 and J.family == "lognormal"


class TestPrecisionEscalation:
    def test_unstable_source_raises(self):
        # a source whose values never stabilize across precisions cannot be
        # certified and must end in PrecisionLoss, not a silent wrong answer
        cfg = PrecisionConfig.bigfloat(128)
        calls = {"n": 0}

        def jitter_source(k, prec):
            calls["n"] += 1
            with mp.workprec(prec):
                base = [1, 0, 1, 0, 3, 0, 15][k]
                return mp.mpf(base) + mp.mpf(2) ** (-20) * ((calls["n"] * 37) % 11)

        with pytest.raises((PrecisionLoss, DegenerateHankel)):
            _jacobi_from_moment_source(jitter_source, 3, cfg)

    def test_source_losing_ten_times_the_target_certifies(self):
        # below 10t working bits the runs are noise (a point mass whose
        # location flips with the precision), above it their error is
        # 2^(10t - p): two checks agree on a bit or so, then 32t certifies
        t = 53
        seen = []

        def lossy_source(k, prec):
            seen.append(prec)
            with mp.workprec(prec):
                w = min(mp.mpf(1) / 4, mp.mpf(2) ** (10 * t - prec))
                return mp.factorial(k) + w * (2 + prec.bit_length() % 2) ** k

        J = _jacobi_from_moment_source(lossy_source, 4, PrecisionConfig.bigfloat(t))
        assert max(seen) == 32 * t
        # exponential weight: Laguerre recurrence q_k = 2k - 1, b_k = k
        assert list(J._q) == [1, 3, 5, 7] and list(J._b) == [1, 2, 3]

    def test_noise_limited_source_stalls_early(self):
        # a fixed 2^-40 error that changes with the precision holds the
        # agreement near 38 bits; the first doubling that fails to raise it
        # must end the escalation, long before the work cap
        cfg = PrecisionConfig.bigfloat(128)
        seen = []

        def noisy_source(k, prec):
            seen.append(prec)
            with mp.workprec(prec):
                x = 2 + prec.bit_length() % 2
                return mp.factorial(k) + mp.mpf(2) ** (-40) * x ** k

        with pytest.raises(PrecisionLoss):
            _jacobi_from_moment_source(noisy_source, 4, cfg)
        assert max(seen) == 16 * 128


class TestMomentSequenceValidation:
    def test_normalized_flag_enforced(self, rational):
        with pytest.raises(ValueError):
            MomentSequence.from_values([2, 0, 1], rational)

    def test_json_roundtrip(self):
        cfg = PrecisionConfig.bigfloat(128)
        with mp.workprec(128):
            s = MomentSequence.from_values(["1", "0.5", mp.sqrt(2)], cfg)
        obj = s.to_json()
        s2 = MomentSequence.from_json(obj)
        assert s2.values == s.values
        assert s2.precision.bits == 128
