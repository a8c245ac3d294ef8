import random
from fractions import Fraction
from math import factorial, inf, nextafter, prod

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

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
from momprob.moments import _ldl_recurrence
from momprob.precision import agreeing_bits, to_mpf

from oracles import (
    STD_NORMAL_MOMENTS,
    SQRT_PI_WEIGHT_MOMENTS,
    atomic_moments,
    gram_schmidt_recurrence,
    hankel_det_oracle,
    lognormal_moment,
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

    def test_insufficient(self, rational):
        s = MomentSequence.from_values([1, 0, 1, 0], rational)
        with pytest.raises(InsufficientMoments, match=r"^need 5 moments for D_2, got 4$"):
            validate_positive(s, 2)

    @pytest.mark.parametrize("k_max", [5, 10])
    @pytest.mark.parametrize("cfg", [PrecisionConfig.rational(), PrecisionConfig.double(),
                                     PrecisionConfig.bigfloat(256)],
                             ids=["rational", "double", "bigfloat-256"])
    def test_uniform_measure_positive_in_every_mode(self, cfg, k_max):
        # s_k = 1/(k+1), the uniform measure on [0, 1]: D_5 = 5.4e-18 and
        # D_10 = 3.0e-65 are positive, though below the absolute floors
        # 1e-12 (double) and 2^-128 (256 bits) that once decided the verdict
        s = MomentSequence.from_values([Fraction(1, k + 1) for k in range(2 * k_max + 1)], cfg)
        assert validate_positive(s, k_max) is True

    @pytest.mark.parametrize("cfg", [PrecisionConfig.double(), PrecisionConfig.bigfloat(64),
                                     PrecisionConfig.bigfloat(256)],
                             ids=["double", "bigfloat-64", "bigfloat-256"])
    def test_zero_last_pivot_in_float_modes(self, cfg):
        # five dyadic atoms are stored exactly and d_5 = 0, which each run
        # rounds to noise; b_5^2 = d_5 / d_4 must agree between runs, so
        # noise that is positive twice in a row does not read as positive
        vals = atomic_moments([-6, -2, Fraction(-1, 2), 0, 2],
                              [Fraction(1, 4), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4),
                               Fraction(1, 8)], 10)
        assert validate_positive(MomentSequence.from_values(vals, PrecisionConfig.rational()), 5) is False
        assert validate_positive(MomentSequence.from_values(vals, cfg), 5) is False

    def test_precision_loss_propagates(self):
        # three atoms {0, 2, 4} at k_max 4: the double-mode runs stop at
        # different pivots, so no verdict is certified; 128 bits certify false
        vals = atomic_moments([0, 2, 4], [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)], 8)
        with pytest.raises(PrecisionLoss):
            validate_positive(MomentSequence.from_values(vals, PrecisionConfig.double()), 4)
        s = MomentSequence.from_values(vals, PrecisionConfig.bigfloat(128))
        assert validate_positive(s, 4) is False


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


@st.composite
def atomic_sections(draw, max_excess):
    """(s_0..s_2n, n, L): exact moments of 1-6 positive rational atoms, a
    depth n <= 5 at most ``max_excess`` above the number of atoms, and the
    length L in {2n, 2n+1} the kernel is given."""
    pts = draw(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1, max_size=6,
                        unique=True))
    wts = draw(st.lists(st.fractions(Fraction(1, 10), 5, max_denominator=10),
                        min_size=len(pts), max_size=len(pts)))
    n = draw(st.integers(1, min(5, len(pts) + max_excess)), label="n")
    length = 2 * n + draw(st.integers(0, 1), label="with s_2n")
    return atomic_moments(pts, wts, 2 * n), n, length


def assert_gram_schmidt(s, n, length):
    """The kernel's coefficients from s[:length] are Gram-Schmidt's; given
    s_2n, which enters Gram-Schmidt only through a norm no output reads, the
    kernel adds b_n^2 = d_n / d_(n-1)."""
    q, b2 = _ldl_recurrence(s[:length], n)
    assert (q, b2[:n - 1]) == gram_schmidt_recurrence(s, n)
    D = [1] + [hankel_det_oracle(s, k) for k in range(n + 1)]  # D_-1 = 1
    last = [D[n + 1] * D[n - 1] / D[n] ** 2]  # pivots are d_k = D_k / D_(k-1)
    assert b2[n - 1:] == (last if length == 2 * n + 1 else [])


class TestChebyshevKernel:
    """The Hankel kernel against classical Gram-Schmidt and permutation
    determinants (oracles); n <= 5 keeps the permutation expansion cheap."""

    @settings(max_examples=60, deadline=None)
    @given(atomic_sections(max_excess=0))
    def test_equals_gram_schmidt(self, section):
        s, n, length = section
        if length == 2 * n + 1 and hankel_det_oracle(s, n) == 0:
            length -= 1  # n atoms: d_n = 0 is checked once s_2n is given
        assert_gram_schmidt(s, n, length)

    @settings(max_examples=80, deadline=None)
    @given(atomic_sections(max_excess=1), st.data())
    def test_perturbed_moment_stops_at_first_singular_section(self, section, data):
        s, n, length = section
        j = data.draw(st.integers(0, length - 1), label="perturbed moment")
        s[j] += data.draw(st.fractions(-3, 3, max_denominator=8).filter(bool), label="by")
        # pivots d_0..d_(n-1) are always checked, d_n only when s_2n is given
        checked = range(n + 1 if length == 2 * n + 1 else n)
        bad = [k for k in checked if hankel_det_oracle(s, k) <= 0]
        if not bad:
            assert_gram_schmidt(s, n, length)
            return
        with pytest.raises(DegenerateHankel, match=rf"^Hankel pivot d_{bad[0]} is not positive"):
            _ldl_recurrence(s[:length], n)


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

    def test_rational_with_irrational_offdiagonals(self, rational):
        # s = Gaussian moments gives b = (1, sqrt 2, sqrt 3): the way back
        # leaves the rational field and returns big floats at the rational
        # config's bits
        s = MomentSequence.from_values([1, 0, 1, 0, 3, 0, 15, 0, 105], rational)
        J = moments_to_jacobi(s, 4)
        back = jacobi_to_moments(J, 6)
        assert back.precision == PrecisionConfig.bigfloat(rational.bits)
        with mp.workprec(rational.bits):
            for got, want in zip(back.values, s.values[:7]):
                assert abs(got - want) <= mp.mpf(2) ** -(rational.bits - 8) * max(want, 1)

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
        # the adaptive Hankel route on the exact moments stays as the oracle:
        # stored at 4096 bits, every run reads them at its own precision
        cfg = PrecisionConfig.bigfloat(512)
        J = families.lognormal(30, cfg)
        s = MomentSequence(tuple(lognormal_moment(k, 4096) for k in range(61)), cfg)
        H = moments_to_jacobi(s, 30)
        with mp.workprec(512 + 64):
            for k, (a, b) in enumerate(zip(J._q + J._b, H._q + H._b)):
                assert agreeing_bits(a, b) >= 504, f"coefficient {k}"

    def test_never_calls_hankel_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lognormal went through the Hankel route")

        # the adaptive route and the LDL^T kernel under every Hankel route,
        # looked up in the moments module at call time
        for name in ("moments_to_jacobi", "_ldl_recurrence"):
            monkeypatch.setattr(moments, name, refuse)
        families._lognormal_coeffs.cache_clear()
        J = families.lognormal(30, PrecisionConfig.bigfloat(512))
        assert J.n_stored == 30 and J.family == "lognormal"


# six atoms at c + (-2, ..., 3): the Hankel section of order 5 loses about
# 2 * 5 * log2(c) bits to cancellation, so a larger c needs more runs
SIX_WEIGHTS = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 8),
               Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]


def shifted_six_atoms(c, t=53):
    """Exact moments s_0..s_10 of the six atoms, kept as Fractions in a
    bigfloat sequence of ``t`` bits."""
    values = atomic_moments([c + k for k in range(-2, 4)], SIX_WEIGHTS, 10)
    return MomentSequence(tuple(values), PrecisionConfig.bigfloat(t))


@pytest.fixture
def run_bits(monkeypatch):
    """The working precision of every LDL^T run, in call order."""
    seen = []

    def counting(svals, n):
        seen.append(mp.mp.prec)
        return _ldl_recurrence(svals, n)

    monkeypatch.setattr(moments, "_ldl_recurrence", counting)
    return seen


class TestPrecisionEscalation:
    def exact_rounded(self, s, n):
        # the exact rational route, rounded once to the sequence's precision
        q, b2 = _ldl_recurrence(list(s.values), n)
        return JacobiMatrix.from_squares(q, b2[:n - 1], s.precision)

    def test_source_losing_ten_times_the_target_certifies(self, run_bits):
        # c = 2^60 costs about 600 bits, over ten times t = 53: the runs up to
        # 16t are noise or stop at a pivot, and 16t against 32t certifies
        t = 53
        s = shifted_six_atoms(2 ** 60, t)
        J = moments_to_jacobi(s, 5)
        assert run_bits == [4 * t, 8 * t, 16 * t, 32 * t]
        expect = self.exact_rounded(s, 5)
        assert (J._q, J._b) == (expect._q, expect._b)

    def test_run_with_a_nonpositive_pivot_escalates(self, run_bits):
        # c = 2^30: the 4t run finds a nonpositive pivot, which counts as a
        # failed agreement, so the loop doubles and 8t and 16t certify
        t = 53
        s = shifted_six_atoms(2 ** 30, t)
        with mp.workprec(4 * t):
            with pytest.raises(DegenerateHankel):
                _ldl_recurrence([to_mpf(v) for v in s.values], 5)
        J = moments_to_jacobi(s, 5)
        assert run_bits == [4 * t, 8 * t, 16 * t]
        expect = self.exact_rounded(s, 5)
        assert (J._q, J._b) == (expect._q, expect._b)

    def test_cap_raises_precision_loss(self, run_bits, monkeypatch):
        # the same input with the cap at 16t: no two runs agree before it
        t = 53
        monkeypatch.setattr(moments, "_MAX_WORK_FACTOR", 16)
        with pytest.raises(PrecisionLoss, match=(
                rf"^moments->Jacobi stalled at .* agreeing bits \(target {t}\) "
                rf"after escalating to {16 * t} bits$")):
            moments_to_jacobi(shifted_six_atoms(2 ** 60, t), 5)
        assert run_bits == [4 * t, 8 * t, 16 * t]

    @pytest.mark.parametrize("cfg", [PrecisionConfig.double(), PrecisionConfig.bigfloat(256)],
                             ids=["double", "bigfloat-256"])
    def test_finite_support_raises_after_two_runs(self, cfg, run_bits):
        # three atoms: every run stops at d_3, as the exact factorization
        # does, and the second run that agrees on it ends the escalation
        values = atomic_moments([-1, 0, 2], [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], 8)
        with pytest.raises(DegenerateHankel) as exact:
            moments_to_jacobi(MomentSequence.from_values(values, PrecisionConfig.rational()), 4)
        run_bits.clear()
        with pytest.raises(DegenerateHankel) as got:
            moments_to_jacobi(MomentSequence.from_values(values, cfg), 4)
        assert str(got.value) == str(exact.value) == (
            "Hankel pivot d_3 is not positive (finite-support input)")
        assert run_bits == [4 * cfg.bits, 8 * cfg.bits]

    def test_collapsing_offdiagonal_raises(self):
        # two atoms without s_2n: b_2^2 = d_2 / d_1 is zero, rounded to noise
        # that no two runs agree on and that lies far below 2^-128 q^2
        vals = atomic_moments([-5, -1], [Fraction(2, 3), Fraction(1, 3)], 5)
        s = MomentSequence(tuple(vals), PrecisionConfig.bigfloat(64))
        with pytest.raises(DegenerateHankel, match=(
                r"^Hankel pivot d_2 collapses below resolvable size \(finite-support input "
                r"at this precision\)$")):
            moments_to_jacobi(s, 3)

    @pytest.mark.parametrize("cfg", [PrecisionConfig.double(), PrecisionConfig.bigfloat(64),
                                     PrecisionConfig.bigfloat(256)],
                             ids=["double", "bigfloat-64", "bigfloat-256"])
    def test_collapse_names_the_pivot_exact_factorization_stops_at(self, cfg):
        # five dyadic atoms with s_10 given: d_5 = 0 exactly; the float runs
        # round it to noise that collapses, and the message names d_5 as the
        # exact factorization does
        vals = atomic_moments([-6, -2, Fraction(-1, 2), 0, 2],
                              [Fraction(1, 4), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4),
                               Fraction(1, 8)], 10)
        with pytest.raises(DegenerateHankel, match=r"^Hankel pivot d_5 is not positive"):
            moments_to_jacobi(MomentSequence.from_values(vals, PrecisionConfig.rational()), 5)
        with pytest.raises(DegenerateHankel, match=(
                r"^Hankel pivot d_5 collapses below resolvable size \(finite-support input "
                r"at this precision\)$")):
            moments_to_jacobi(MomentSequence.from_values(vals, cfg), 5)

    @pytest.mark.parametrize("moment, n, pivot", [
        (factorial, 40, 21),
        (lambda k: 0 if k % 2 else prod(range(1, k, 2)), 60, 39),
    ], ids=["exponential-40", "gaussian-60"])
    def test_double_rounded_moments_lose_positivity(self, moment, n, pivot):
        # k! from 23! on and (k-1)!! from 31!! on are not doubles; rounded,
        # these sequences are no longer positive definite, as the exact
        # factorization of the rounded values shows, so double mode refuses
        # them at the same pivot while 256 bits hold enough of each moment
        values = [moment(k) for k in range(2 * n + 1)]
        message = rf"^Hankel pivot d_{pivot} is not positive"
        with pytest.raises(DegenerateHankel, match=message):
            _ldl_recurrence([Fraction(float(v)) for v in values], n)
        with pytest.raises(DegenerateHankel, match=message):
            moments_to_jacobi(MomentSequence.from_values(values, PrecisionConfig.double()), n)
        J = moments_to_jacobi(MomentSequence.from_values(values, PrecisionConfig.bigfloat(256)), n)
        assert J.n_stored == n

    def test_double_mode_root_is_correctly_rounded(self):
        # each b_k is the double nearest the root of the certified square,
        # which is exact here from the Fractions of the rounded moments;
        # rounding the square to a double before the root missed k = 16,
        # 17 and 20 by an ulp
        values = [0 if k % 2 else Fraction(prod(range(1, k, 2)), 2 ** (k // 2))
                  for k in range(49)]
        values = [float(v) for v in values]
        _, b2 = _ldl_recurrence([Fraction(v) for v in values], 24)
        J = moments_to_jacobi(MomentSequence.from_values(values, PrecisionConfig.double()), 24)
        for k, (x, b) in enumerate(zip(b2, J.coefficients(24)[1]), 1):
            lo = (Fraction(b) + Fraction(nextafter(b, 0))) / 2
            hi = (Fraction(b) + Fraction(nextafter(b, inf))) / 2
            assert lo * lo <= x <= hi * hi, k


class TestMomentSequenceValidation:
    def test_normalized_flag_enforced(self, rational):
        with pytest.raises(ValueError):
            MomentSequence.from_values([2, 0, 1], rational)

    def test_s0_floor_is_the_mode_tolerance(self):
        # s_0 is compared at the working precision against abs_tol: 2^-128
        # at 256 bits, 1e-12 in double mode
        big = PrecisionConfig.bigfloat(256)
        MomentSequence.from_values([1 + Fraction(1, 2 ** 200), 0, 1], big)
        MomentSequence.from_values([1 + 1e-13, 0, 1], PrecisionConfig.double())
        for s0 in (1 + Fraction(1, 2 ** 100), "1.0000000000001"):
            with pytest.raises(ValueError, match="^normalized sequence requires s_0 = 1$"):
                MomentSequence.from_values([s0, 0, 1], big)
        with pytest.raises(ValueError, match="^normalized sequence requires s_0 = 1$"):
            MomentSequence.from_values([1 + 1e-11, 0, 1], PrecisionConfig.double())

    def test_json_roundtrip(self):
        cfg = PrecisionConfig.bigfloat(128)
        with mp.workprec(128):
            s = MomentSequence.from_values(["1", "0.5", mp.sqrt(2)], cfg)
        obj = s.to_json()
        s2 = MomentSequence.from_json(obj)
        assert s2.values == s.values
        assert s2.precision.bits == 128
