"""Cross-cutting robustness checks: threads, error paths, double mode."""
import concurrent.futures
import json
import random
from fractions import Fraction

import mpmath as mp
import pytest

from momprob import (
    ClassifyPolicy,
    INCONCLUSIVE,
    JacobiMatrix,
    Measure,
    NonFinite,
    PrecisionConfig,
    QuadratureFailure,
    QuadratureSpec,
    classify,
    integrate,
    jacobi_to_moments,
    measure_to_jacobi,
    moments_of,
    moments_to_jacobi,
    power_reweight,
    truncation_spectrum,
    weyl_radius,
)
from momprob.families import hermite_like
from momprob.moments import MomentSequence
from momprob.precision import sqrt_number

from conftest import assert_close


class TestConcurrency:
    def test_mixed_precision_classify_across_threads(self):
        """Concurrent scans at different mantissa sizes must not bleed
        precision into each other through the global mpmath context."""
        H256 = hermite_like(PrecisionConfig.bigfloat(256))
        H128 = hermite_like(PrecisionConfig.bigfloat(128))
        ref256 = weyl_radius(H256, 1j, 64)
        ref128 = weyl_radius(H128, 1j, 64)

        def job(which):
            if which:
                return "a", weyl_radius(H256, 1j, 64)
            return "b", weyl_radius(H128, 1j, 64)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, [i % 2 for i in range(40)]))
        for tag, val in results:
            if tag == "a":
                assert val == ref256
            else:
                assert val == ref128

    def test_christoffel_steps_across_threads(self):
        """Steps of sections at two precisions, run in eight threads, read
        the ambient precision of their own power_reweight only."""
        mus = [truncation_spectrum(hermite_like(PrecisionConfig.bigfloat(bits)), 24)
               for bits in (128, 256)]
        jobs = [(mu, power) for mu in mus for power in (-2, -1, 1, 2)]
        ref = [power_reweight(mu, power)[0]._section for mu, power in jobs]

        def job(i):
            mu, power = jobs[i % len(jobs)]
            return power_reweight(mu, power)[0]._section

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for i, section in enumerate(pool.map(job, range(4 * len(jobs)))):
                assert section == ref[i % len(jobs)]

    def test_concurrent_conversions_are_reproducible(self):
        cfg = PrecisionConfig.bigfloat(192)
        with mp.workprec(192):
            q = [mp.mpf(k) / 7 for k in range(6)]
            b = [mp.mpf(1) + mp.mpf(k) / 5 for k in range(5)]
        J = JacobiMatrix(q=q, b=b, precision=cfg)
        ref = jacobi_to_moments(J, 10).values

        def job(_):
            return jacobi_to_moments(J, 10).values

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            for values in pool.map(job, range(24)):
                assert values == ref

    def test_threads_share_the_roots_of_one_matrix(self):
        # rows of a from_squares matrix are rooted on first read; readers in
        # eight orders see the roots eager rooting gives
        cfg = PrecisionConfig.bigfloat(256)
        b2 = [Fraction(k, 3) for k in range(1, 300)]
        eager = [sqrt_number(x, cfg) for x in b2]
        J = JacobiMatrix.from_squares([0] * 300, b2, cfg)

        def job(seed):
            order = list(range(1, 300))
            random.Random(seed).shuffle(order)
            return {k: J.offdiag(k) for k in order}

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for rows in pool.map(job, range(8)):
                assert [rows[k] for k in range(1, 300)] == eager
        assert list(J._b) == eager


class TestErrorPaths:
    def test_adaptive_budget_exhaustion(self):
        cfg = PrecisionConfig.bigfloat(128)
        mu = Measure.density("gaussian", QuadratureSpec("adaptive", max_subdiv=2,
                                                        tol=1e-30), precision=cfg)
        with pytest.raises(QuadratureFailure):
            integrate(mu, lambda t: mp.cos(10 ** 7 * t) * mp.sign(t - mp.mpf(1) / 3))

    def test_non_finite_integrand_on_atoms(self):
        cfg = PrecisionConfig.bigfloat(128)
        mu = Measure.atomic([0, 1], [1, 1], precision=cfg)
        with pytest.raises(NonFinite):
            integrate(mu, lambda t: mp.inf if t == 0 else mp.mpf(1))

    def test_inconclusive_is_first_class(self, hermite256):
        v = classify(hermite256, ClassifyPolicy(n_max=16, eps_zero=1e-30,
                                                eps_stable=1e-30))
        assert v.verdict == INCONCLUSIVE
        assert v.n_used == 16
        assert len(v.radii) == len(v.checkpoints)


class TestLognormalDensityWeight:
    def test_moments_match_closed_form(self):
        cfg = PrecisionConfig.bigfloat(192)
        mu = Measure.density("lognormal-density",
                             QuadratureSpec("adaptive", tol=1e-25), precision=cfg)
        with mp.workprec(192):
            assert_close(integrate(mu, lambda t: 1), 1, 1e-20)
            assert_close(integrate(mu, lambda t: t), mp.exp(mp.mpf(1) / 2), 1e-18)
            assert_close(integrate(mu, lambda t: t * t), mp.exp(2), 1e-17)

    def test_json_roundtrip_with_infinite_support(self):
        cfg = PrecisionConfig.bigfloat(128)
        mu = Measure.density("lognormal-density",
                             QuadratureSpec("adaptive", tol=1e-20), precision=cfg)
        back = Measure.from_json(json.loads(json.dumps(mu.to_json())))
        assert back.weight_name == "lognormal-density"
        assert_close(integrate(back, lambda t: 1), 1, 1e-15)


class TestDoubleMode:
    def test_moments_roundtrip(self):
        cfg = PrecisionConfig.double()
        J = JacobiMatrix(q=[0.5, -0.25, 1.0], b=[1.5, 0.75], precision=cfg)
        s = jacobi_to_moments(J, 5)
        assert isinstance(s.values[2], float)
        J2 = moments_to_jacobi(s, 3)
        for a, b in zip(list(J._q) + list(J._b), list(J2._q) + list(J2._b)):
            assert abs(a - b) < 1e-12

    def test_classify_runs_in_double(self):
        cfg = PrecisionConfig.double()
        H = hermite_like(cfg)
        v = classify(H, ClassifyPolicy(n_max=4096))
        assert v.verdict == "determinate"

    def test_measure_conversion(self):
        cfg = PrecisionConfig.double()
        mu = Measure.atomic([-2.0, -1.0, 0.0, 1.0, 2.0], [0.1, 0.2, 0.4, 0.2, 0.1],
                            precision=cfg)
        J = measure_to_jacobi(mu, 3)
        assert isinstance(J._q[0], float)
        moms = moments_of(mu, 4)
        assert abs(moms[1] - J._q[0]) < 1e-13


class TestMomentSequenceEdges:
    def test_non_finite_rejected(self):
        cfg = PrecisionConfig.double()
        with pytest.raises(ValueError):
            MomentSequence.from_values([1.0, float("nan")], cfg)
        with pytest.raises(ValueError):
            MomentSequence.from_values([1.0, float("inf")], cfg)
