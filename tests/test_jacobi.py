import math
import re
from fractions import Fraction

import mpmath as mp
import pytest

from momprob import (
    ClassifyPolicy,
    CoefficientExhausted,
    DETERMINATE,
    INDETERMINATE,
    JacobiMatrix,
    PrecisionConfig,
    PrecisionLoss,
    RealPoint,
    classify,
    jacobi_to_moments,
    pi_eval,
    truncation_spectrum,
    weyl_radii,
    weyl_radius,
)
from momprob.families import hermite_like, lognormal
from momprob.precision import sqrt_number

from conftest import assert_close


@pytest.fixture(scope="module")
def hermite_roots_2000():
    """sqrt(k/2) for k = 1..8192 at 2,000 bits, to be rounded once."""
    with mp.workprec(2000):
        return [mp.sqrt(mp.mpf(k) / 2) for k in range(1, 8193)]


class TestJacobiMatrix:
    def test_offdiagonal_positivity_enforced(self, cfg256):
        with pytest.raises(ValueError):
            JacobiMatrix(q=[0, 0], b=[0], precision=cfg256)
        with pytest.raises(ValueError):
            JacobiMatrix(q=[0, 0], b=[-1], precision=cfg256)

    def test_length_relation_enforced(self, cfg256):
        with pytest.raises(ValueError):
            JacobiMatrix(q=[0, 0], b=[1, 2], precision=cfg256)

    def test_stored_exhaustion(self, cfg256):
        J = JacobiMatrix(q=[1, 2], b=[1], precision=cfg256)
        assert J.diag(2) == 2
        with pytest.raises(CoefficientExhausted):
            J.diag(3)
        with pytest.raises(CoefficientExhausted):
            J.offdiag(2)

    def test_stored_and_generated_rejected(self, cfg256):
        with pytest.raises(ValueError, match="either stored or generated"):
            JacobiMatrix(q=[0], generator=lambda k: (0, 1), precision=cfg256)

    def test_generator_supplies_arbitrary_depth(self, hermite256):
        with mp.workprec(256):
            assert abs(hermite256.offdiag(1000) - mp.sqrt(mp.mpf(500))) < 1e-60

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_coefficients_generate_each_row_once(self, cfg256, n):
        J = hermite_like(cfg256)
        gen, calls = J.generator, []
        J.generator = lambda k: calls.append(k) or gen(k)
        q, b = J.coefficients(n)
        assert len(calls) == n
        ref = hermite_like(cfg256)
        assert q == [ref.diag(k) for k in range(1, n + 1)]
        assert b == [ref.offdiag(k) for k in range(1, n)]

    def test_short_stored_coefficients_fail_on_the_diagonal(self, cfg256):
        J = JacobiMatrix(q=[1, 2], b=[1], precision=cfg256)
        assert J.coefficients(2) == ([1, 2], [1])
        with pytest.raises(CoefficientExhausted, match="^diagonal entry 3 requested"):
            J.coefficients(3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_generated_nonpositive_offdiagonal_rejected(self, cfg256, bad):
        J = JacobiMatrix(generator=lambda k: (0, 1 if k < 3 else bad), precision=cfg256)
        assert J.offdiag(2) == 1
        with pytest.raises(ValueError, match="nonpositive off-diagonal entry"):
            J.offdiag(3)
        with pytest.raises(ValueError, match="nonpositive off-diagonal entry"):
            classify(J)

    def test_generated_row_checked_whichever_entry_is_read_first(self, cfg256):
        J = JacobiMatrix(generator=lambda k: (0, 1 if k < 3 else 0), precision=cfg256)
        assert J.diag(2) == 0
        with pytest.raises(ValueError, match="nonpositive off-diagonal entry"):
            J.diag(3)

    @pytest.mark.parametrize("cfg", [PrecisionConfig.double(), PrecisionConfig.bigfloat(64),
                                     PrecisionConfig.bigfloat(256), PrecisionConfig.bigfloat(512)],
                             ids=["double", "64", "256", "512"])
    def test_hermite_roots_correctly_rounded(self, cfg, hermite_roots_2000):
        # the root of k/2 to bits + 8, rounded again, missed 17 of these at
        # 256 bits by an ulp (b_170 first) and 16 in double mode (b_275 first)
        gen = hermite_like(cfg).generator
        with mp.workprec(cfg.bits):
            want = [+x for x in hermite_roots_2000]
        assert [gen(k)[1] for k in range(1, len(want) + 1)] == want
        assert type(gen(2)[1]) is (float if cfg.mode == "double" else mp.mpf)

    def test_hermite_roots_exact_in_rational_mode(self):
        # b_k = sqrt(k/2) is the integer m at k = 2 m^2, and irrational otherwise
        gen = hermite_like(PrecisionConfig.rational(256)).generator
        for k in range(1, 2 * 30 ** 2 + 1):
            bk = gen(k)[1]
            m = math.isqrt(k // 2)
            if k == 2 * m * m:
                assert bk == Fraction(m) and isinstance(bk, Fraction), k
            else:
                assert isinstance(bk, mp.mpf), k

    def test_json_roundtrip(self, cfg256):
        with mp.workprec(256):
            J = JacobiMatrix(q=[mp.mpf(1) / 3, mp.mpf(2)], b=[mp.sqrt(2)], precision=cfg256)
        J2 = JacobiMatrix.from_json(J.to_json())
        assert J2._q == J._q and J2._b == J._b


class TestFromSquares:
    def test_squares_checked_as_the_off_diagonal(self, cfg256):
        with pytest.raises(ValueError, match="strictly positive"):
            JacobiMatrix.from_squares([0, 0], [0], cfg256)
        with pytest.raises(ValueError, match="one entry shorter"):
            JacobiMatrix.from_squares([0, 0], [1, 1], cfg256)

    def test_rows_rooted_when_first_read(self, cfg256):
        # a determinate scan roots only the rows it reads, and a root is
        # the one sqrt_number rule gives the square
        b2 = [Fraction(k, 2) for k in range(1, 40)]
        J = JacobiMatrix.from_squares([0] * 40, b2, cfg256)
        v = classify(J, ClassifyPolicy(n_max=40, eps_zero=0.2))
        assert v.verdict == DETERMINATE and v.n_used < 40
        assert [k for k, b in enumerate(J._roots, 1) if b is not None] == list(range(1, v.n_used))
        assert J._b == tuple(sqrt_number(x, cfg256) for x in b2)
        assert list(J._b) == hermite_like(cfg256).coefficients(40)[1]


class TestPiEval:
    def test_first_value_is_one(self, hermite256):
        assert pi_eval(hermite256, 1j, 1) == [mp.mpc(1)]

    def test_vanishes_at_diagonal_entry(self, cfg256):
        J = JacobiMatrix(q=[3, 0], b=[2], precision=cfg256)
        vals = pi_eval(J, 3, 2)
        assert vals[1] == 0

    def test_second_value_closed_form(self, cfg256):
        J = JacobiMatrix(q=[1, 0], b=[2], precision=cfg256)
        vals = pi_eval(J, 1j, 2)
        assert_close(vals[1], (1j - 1) / 2, 1e-70)
        vals_conj = pi_eval(J, -1j, 2)
        assert_close(vals_conj[1], (-1j - 1) / 2, 1e-70)

    def test_conjugation_symmetry(self, hermite256):
        z = mp.mpc("0.7", "1.3")
        up = pi_eval(hermite256, z, 30)
        down = pi_eval(hermite256, mp.conj(z), 30)
        with mp.workprec(256):
            for a, b in zip(up, down):
                assert abs(mp.conj(a) - b) < mp.mpf(2) ** -230

    def test_needs_n_positive(self, hermite256):
        with pytest.raises(ValueError):
            pi_eval(hermite256, 1j, 0)


class TestWeylRadius:
    def test_first_radius_half_at_i(self, hermite256, cfg256):
        assert_close(weyl_radius(hermite256, 1j, 1), 0.5, 1e-70)
        J = JacobiMatrix(q=[5], b=[], precision=cfg256)
        assert_close(weyl_radius(J, 1j, 1), 0.5, 1e-70)

    def test_real_point_rejected(self, hermite256):
        with pytest.raises(RealPoint):
            weyl_radius(hermite256, 2.0, 5)

    def test_radii_equal_single_radii_in_caller_order(self, hermite256):
        ns = [16, 1, 4, 16, 3]
        assert weyl_radii(hermite256, 0.5 + 1j, ns) == [
            weyl_radius(hermite256, 0.5 + 1j, n) for n in ns
        ]
        with pytest.raises(ValueError):
            weyl_radii(hermite256, 1j, [4, 0])

    def test_radii_are_floats_in_double_mode(self):
        # like classify radii and pi_eval values: a double-mode scan
        # returns Python floats, not 53-bit mpf
        radii = weyl_radii(hermite_like(PrecisionConfig.double()), 1j, [8, 64])
        assert [type(r) for r in radii] == [float, float]
        ref = weyl_radii(hermite_like(PrecisionConfig.bigfloat(128)), 1j, [8, 64])
        assert all(abs(r - float(x)) <= 2.0 ** -50 * abs(r) for r, x in zip(radii, ref))

    def test_monotone_decreasing(self, hermite256):
        r50 = weyl_radius(hermite256, 1j, 50)
        r200 = weyl_radius(hermite256, 1j, 200)
        assert r200 < r50
        radii = [weyl_radius(hermite256, 1j, n) for n in range(1, 20)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_lognormal_radius_stabilizes(self, cfg512):
        J = lognormal(120, cfg512)
        r60 = weyl_radius(J, 1j, 60)
        r120 = weyl_radius(J, 1j, 120)
        assert r60 > 1e-3
        with mp.workprec(512):
            assert abs(r60 - r120) / r120 < 1e-6


class TestClassify:
    def test_hermite_determinate(self, hermite256):
        v = classify(hermite256, ClassifyPolicy(n_max=100_000))
        assert v.verdict == DETERMINATE
        assert v.radii[-1] < 1e-3
        assert all(a > b for a, b in zip(v.radii, v.radii[1:]))

    def test_lognormal_indeterminate(self, lognormal60):
        v = classify(lognormal60, ClassifyPolicy(n_max=60))
        assert v.verdict == INDETERMINATE
        assert v.radii[-1] > 1e-3
        last = v.radii[-3:]
        with mp.workprec(512):
            assert (max(last) - min(last)) / last[-1] < 1e-6

    def test_exhausted_coefficients_raise(self, cfg256):
        J = JacobiMatrix(q=[0.0] * 5, b=[1.0] * 4, precision=cfg256)
        with pytest.raises(CoefficientExhausted):
            classify(J, ClassifyPolicy(n_max=10_000))

    def test_verdict_independent_of_point(self, hermite256, lognormal60):
        for J, expected in ((hermite256, DETERMINATE), (lognormal60, INDETERMINATE)):
            n_max = 100_000 if expected == DETERMINATE else 60
            for z in (1j, 2j):
                v = classify(J, ClassifyPolicy(n_max=n_max, z=z))
                assert v.verdict == expected

    def test_real_point_rejected(self, hermite256):
        with pytest.raises(RealPoint):
            classify(hermite256, ClassifyPolicy(z=1.0))

    @staticmethod
    def ambient_family(perturbation):
        """Hermite-like b_k scaled by 1 + perturbation(ambient precision),
        and the set of precisions the generator ran at."""
        seen = set()

        def gen(k):
            seen.add(mp.mp.prec)
            return mp.mpf(0), mp.sqrt(mp.mpf(k) / 2) * (1 + perturbation(mp.mp.prec))

        return JacobiMatrix(generator=gen, precision=PrecisionConfig.bigfloat(64)), seen

    def test_escalation_agrees_after_one_doubling(self):
        # 2^-20 apart at 64 bits (scans at 80 and 144), 2^-36 at 128 bits
        J, seen = self.ambient_family(lambda prec: mp.mpf(2) ** (-prec // 4))
        v = classify(J)
        assert sorted(seen) == [80, 144, 272]
        assert (v.verdict, v.checkpoints, v.n_used) == (DETERMINATE, (8, 16), 16)
        ref = classify(hermite_like(PrecisionConfig.bigfloat(64)))
        assert_close(v.radii[-1], ref.radii[-1], 1e-12)

    def test_escalation_gives_up_after_four_attempts(self):
        # 1/prec never agrees to 24 bits between two precisions
        J, seen = self.ambient_family(lambda prec: mp.mpf(1) / prec)
        with pytest.raises(PrecisionLoss, match="failed to stabilize"):
            classify(J)
        # attempts at 64, 128, 256 and 512 bits, each scanned at bits + 16
        # and 2 * bits + 16
        assert sorted(seen) == [80, 144, 272, 528, 1040]

    @pytest.mark.parametrize("start", [0, -1])
    def test_nonpositive_start_rejected(self, hermite256, start):
        # doubling from start < 1 never reaches n_max
        with pytest.raises(ValueError, match="^start must be positive$"):
            classify(hermite256, ClassifyPolicy(n_max=64, start=start))

    @pytest.mark.parametrize("field, value, message", [
        ("n_max", 0, "n_max must be positive"),
        ("window", 0, "window must be positive"),
        ("eps_zero", float("nan"), "eps_zero must be finite and positive, got nan"),
        ("eps_zero", 0.0, "eps_zero must be finite and positive, got 0.0"),
        ("eps_stable", -1.0, "eps_stable must be finite and positive, got -1.0"),
        ("eps_stable", float("inf"), "eps_stable must be finite and positive, got inf"),
    ], ids=["n-max-0", "window-0", "eps-zero-nan", "eps-zero-0", "eps-stable-negative",
            "eps-stable-inf"])
    def test_policy_that_cannot_give_a_verdict_rejected(self, field, value, message):
        # checked when the policy is made, before any scan
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClassifyPolicy(**{field: value})

    @pytest.mark.parametrize("case", ["hermite-256", "lognormal-512", "hermite-double"])
    def test_radii_at_working_precision(self, hermite256, lognormal60, case):
        # the radii are scanned at twice the bits but certified only to the
        # working bits, so no more is returned
        J, n_max = {
            "hermite-256": (hermite256, 1000),
            "lognormal-512": (lognormal60, 60),
            "hermite-double": (hermite_like(PrecisionConfig.double()), 1000),
        }[case]
        v = classify(J, ClassifyPolicy(n_max=n_max))
        assert len(v.radii) == len(v.checkpoints) > 1
        if J.precision.mode == "double":
            assert all(type(r) is float for r in v.radii)
        else:
            assert all(r._mpf_[3] <= J.precision.bits for r in v.radii)

    def test_verdict_serializes(self, hermite256):
        v = classify(hermite256, ClassifyPolicy(n_max=1000))
        obj = v.to_json(hermite256.precision)
        assert obj["verdict"] == "determinate"
        assert len(obj["radii"]) == len(obj["checkpoints"])


class TestTruncationSpectrum:
    def test_single_atom(self, cfg256):
        J = JacobiMatrix(q=[2.5], b=[], precision=cfg256)
        mu = truncation_spectrum(J, 1)
        assert len(mu.points) == 1
        assert_close(mu.points[0], 2.5, 1e-70)
        assert_close(mu.weights[0], 1, 1e-70)

    def test_two_atoms_symmetric(self, cfg256):
        J = JacobiMatrix(q=[0, 0], b=[1], precision=cfg256)
        mu = truncation_spectrum(J, 2)
        assert_close(mu.points[0], -1, 1e-70)
        assert_close(mu.points[1], 1, 1e-70)
        assert_close(mu.weights[0], 0.5, 1e-70)
        assert_close(mu.weights[1], 0.5, 1e-70)

    def test_moment_match_through_2N_minus_1(self, hermite256):
        # Gauss exactness: the 20-atom measure integrates t^m to the matrix
        # moments for every m <= 39; the two routes are fully independent
        # (eigen decomposition vs banded matrix powers)
        N = 20
        mu = truncation_spectrum(hermite256, N)
        s = jacobi_to_moments(hermite256, 2 * N - 1)
        atom_moms = mu.moments(2 * N - 1)
        with mp.workprec(256):
            for k, (a, b) in enumerate(zip(atom_moms, s.values)):
                scale = max(1, abs(b))
                assert abs(a - b) / scale < 1e-12, f"moment {k}"

    def test_weights_positive_points_sorted(self, lognormal60):
        mu = truncation_spectrum(lognormal60, 25)
        assert all(w > 0 for w in mu.weights)
        assert all(a < b for a, b in zip(mu.points, mu.points[1:]))
