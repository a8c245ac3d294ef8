import random
from fractions import Fraction
from itertools import islice

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from momprob import (
    ClassifyPolicy,
    CoefficientExhausted,
    JacobiMatrix,
    PrecisionConfig,
    index_of_determinacy,
    measure_to_jacobi,
    pi_eval,
    power_reweight,
    tridiag,
    truncation_spectrum,
    weyl_radii,
)
from momprob.families import hermite_like, lognormal
from momprob.jacobi import _radii
from momprob.tridiag import (
    eigenvalues,
    eigenvector_columns,
    gauss_rule,
    matvec,
    poly_values,
    recurrence,
)
from momprob.precision import convert, rounded, to_fraction
from oracles import golub_welsch_weights, mpf_weyl_radii, sturm_newton_eigenvalues


def random_tridiag(n, seed):
    rng = random.Random(seed)
    q = [rng.uniform(-2, 2) for _ in range(n)]
    b = [rng.uniform(0.1, 3) for _ in range(n - 1)]
    return q, b


@pytest.mark.parametrize("n,seed", [(5, 0), (12, 1), (25, 2)])
def test_eigenvalues_match_numpy(n, seed):
    q, b = random_tridiag(n, seed)
    T = np.diag(q) + np.diag(b, 1) + np.diag(b, -1)
    ref = np.sort(np.linalg.eigvalsh(T))
    got = eigenvalues(q, b, 128)
    assert max(abs(float(g) - r) for g, r in zip(got, ref)) < 1e-12


def test_eigenvalues_sorted_and_simple():
    q, b = random_tridiag(20, 3)
    ev = eigenvalues(q, b, 128)
    assert all(a < c for a, c in zip(ev, ev[1:]))


def test_single_entry():
    assert eigenvalues([4.5], [], 64) == [mp.mpf("4.5")]
    nodes, w = gauss_rule([4.5], [], 64)
    assert nodes == [mp.mpf("4.5")] and w == [mp.mpf(1)]
    with mp.workprec(300):
        third = mp.mpf(1) / 3
    [got] = eigenvalues([third], [], 64)
    with mp.workprec(64):
        assert got == +third and got._mpf_[1].bit_length() == 64


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("c", [0, -3, Fraction(5, 7)], ids=["zero", "minus-3", "5/7"])
def test_multiple_of_the_identity(c, bits):
    # b = 0 and equal diagonal: every eigenvalue is c, not a bisection leaf
    # near it (the zero matrix gave 1.5e-128 at 64 bits)
    with mp.workprec(bits):
        expected = mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpf(c)
    assert eigenvalues([c] * 3, [0, 0], bits) == [expected] * 3


def hermite_section(n, bits):
    return hermite_like(PrecisionConfig.bigfloat(bits)).coefficients(n)


def lognormal_section(n, bits):
    return lognormal(n, PrecisionConfig.bigfloat(bits)).coefficients(n)


# the spectrum sizes and precisions the library solves on its hot paths:
# truncation_spectrum at 256 bits, double mode (53), the Stone operator route
# (coefficients at 256, eigenvalues at 288) and the graded lognormal section
ORACLE_CASES = [
    pytest.param(hermite_section, 60, 256, 256, id="hermite-60-256"),
    pytest.param(hermite_section, 60, 53, 53, id="hermite-60-53"),
    pytest.param(hermite_section, 60, 256, 288, id="hermite-60-288"),
    pytest.param(lognormal_section, 40, 512, 512, id="lognormal-40-512"),
    pytest.param(hermite_section, 120, 256, 256, id="hermite-120-256"),
]


@pytest.mark.parametrize("section, n, coeff_bits, bits", ORACLE_CASES)
def test_eigenvalues_bit_identical_to_oracle(section, n, coeff_bits, bits):
    q, b = section(n, coeff_bits)
    assert eigenvalues(q, b, bits) == sturm_newton_eigenvalues(q, b, bits)


@st.composite
def positive_b_sections(draw):
    n = draw(st.integers(1, 12))
    q = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    b = draw(st.lists(st.floats(1e-3, 3), min_size=n - 1, max_size=n - 1))
    return q, b, draw(st.sampled_from([53, 128, 256]))


def is_rounding_tie(q, b, x, y, bits):
    """Whether x and y are the two neighbours at ``bits`` of their midpoint
    and that midpoint is exactly an eigenvalue of the section (the
    characteristic polynomial in Fractions of the inputs vanishes there)."""
    mid = (to_fraction(x) + to_fraction(y)) / 2
    neighbours = {mp.make_mpf(mp.libmp.from_rational(mid.numerator, mid.denominator, bits, rnd))
                  for rnd in (mp.libmp.round_floor, mp.libmp.round_ceiling)}
    if neighbours != {x, y}:
        return False
    prev, cur = 1, to_fraction(q[0]) - mid
    for qk, bk in zip(q[1:], b):
        prev, cur = cur, (to_fraction(qk) - mid) * cur - to_fraction(bk) ** 2 * prev
    return cur == 0


@settings(max_examples=100, deadline=None)
@given(positive_b_sections())
# q + b is exact with 54 bits: a tie at 53, which the solvers round apart
@example(([1.7088177948229786] * 2, [0.5283823035248676], 53))
def test_eigenvalues_match_oracle_on_random_sections(section):
    q, b, bits = section
    got, ref = eigenvalues(q, b, bits), sturm_newton_eigenvalues(q, b, bits)
    assert len(got) == len(ref) == len(q)
    # below 1 in magnitude both solvers stop on an absolute step of
    # 2^-(bits+8), so a node at or near 0 (q = 0 with odd N has one at 0)
    # is fixed only to that absolute size and may differ in its last bits;
    # neither solver can tell an exact tie, so each may round it either way
    for x, y in zip(got, ref):
        assert (x == y or (abs(y) < 1 and abs(x - y) <= mp.mpf(2) ** -(bits + 7))
                or is_rounding_tie(q, b, x, y, bits))


@pytest.mark.parametrize("section, n, bits", [
    *(pytest.param(hermite_section, n, 256, id=f"hermite-{n}-256") for n in range(48, 65)),
    pytest.param(lognormal_section, 40, 512, id="lognormal-40-512"),
])
def test_weights_bit_identical_to_the_mpf_pass(section, n, bits):
    # on these sections the int kernel and the mpf pass agree to the last bit
    q, b = section(n, bits)
    nodes, weights = gauss_rule(q, b, bits)
    assert weights == golub_welsch_weights(q, b, nodes, bits)


def assert_weights_match_oracle(q, b, bits):
    """gauss_rule's weights within 2^-(bits-4), relatively, of the mpf pass
    run at 2 bits on the same nodes."""
    nodes, weights = gauss_rule(q, b, bits)
    ref = golub_welsch_weights(q, b, nodes, 2 * bits)
    assert len(weights) == len(q)
    with mp.workprec(2 * bits):
        for w, r in zip(weights, ref):
            assert abs(w - r) <= r * mp.mpf(2) ** -(bits - 4)


@settings(max_examples=100, deadline=None)
@given(positive_b_sections())
def test_weights_match_oracle_on_random_sections(section):
    assert_weights_match_oracle(*section)


def wilkinson_plus(n=21):
    # W21+: q_k = |k - 10|, b = 1; its largest eigenvalues come in pairs
    # about 1e-13 apart
    return [abs(k - n // 2) for k in range(n)], [1] * (n - 1)


def graded_powers_of_ten():
    # q_k = 10^k, b_k = 10^(k-1), k = -20..19: eigenvalues from 1e-20 to 1e19
    ks = range(-20, 20)
    return [Fraction(10) ** k for k in ks], [Fraction(10) ** (k - 1) for k in ks[1:]]


def graded_exponentials():
    # q_k = e^k, b_k = e^(k + 1/2), k = 1..20
    with mp.workprec(400):
        return ([mp.exp(mp.mpf(k)) for k in range(1, 21)],
                [mp.exp(mp.mpf(k) + mp.mpf(1) / 2) for k in range(1, 20)])


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("make", [
    pytest.param(wilkinson_plus, id="wilkinson-21-plus"),
    pytest.param(graded_powers_of_ten, id="graded-10^k"),
    pytest.param(graded_exponentials, id="graded-e^k"),
    pytest.param(lambda: lognormal_section(40, 512), id="lognormal-40"),
])
def test_weights_match_oracle_on_hard_sections(make, bits):
    assert_weights_match_oracle(*make(), bits)


@pytest.mark.parametrize("b", [[1, 0], [1, -0.5]], ids=["zero", "negative"])
def test_gauss_rule_needs_a_positive_off_diagonal(b):
    # the monic recurrence never divides by b, so a zero or negative entry
    # would give weights of another matrix instead of an error
    with pytest.raises(ValueError, match="positive off-diagonal"):
        gauss_rule([0, 0, 0], b, 64)


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("make", [wilkinson_plus, graded_powers_of_ten],
                         ids=["wilkinson-21-plus", "graded-10^k"])
def test_eigenvalues_match_oracle_on_hard_sections(make, bits):
    # close pairs and a spectrum over 40 decades, each isolated by the int
    # tree alone
    q, b = make()
    got, ref = eigenvalues(q, b, bits), sturm_newton_eigenvalues(q, b, bits)
    assert len(got) == len(q) and all(x < y for x, y in zip(got, got[1:]))
    for x, y in zip(got, ref):
        assert x == y or (abs(y) < 1 and abs(x - y) <= mp.mpf(2) ** -(bits + 7))


def test_graded_nodes_at_53_bits_match_a_256_bit_solve():
    # the oracle fixes nodes below 1 only to an absolute 2^-(bits+8), which
    # says nothing of the nodes down to 1e-20: check each one relatively
    q, b = graded_powers_of_ten()
    got, ref = eigenvalues(q, b, 53), sturm_newton_eigenvalues(q, b, 256)
    with mp.workprec(256):
        for x, y in zip(got, ref):
            assert abs(x - y) <= abs(y) * mp.mpf(2) ** -50


def counting_kernels(monkeypatch):
    """Wrap the int pivot pass; return pass counts by stage.

    Passes of the isolating tree count as "bracket".  Each bracket is then
    polished by two Newton loops: the first, on the cut ints, counts as
    "start" and the second, at full scale, as "newton".
    """
    calls = {"bracket": 0, "start": 0, "newton": 0}
    stage = ["bracket"]
    pivots, newton = tridiag._pivots, tridiag._newton

    def counted_pivots(*args):
        calls[stage[0]] += 1
        return pivots(*args)

    def counted_newton(*args):
        stage[0] = "newton" if stage[0] == "start" else "start"
        return newton(*args)

    monkeypatch.setattr(tridiag, "_pivots", counted_pivots)
    monkeypatch.setattr(tridiag, "_newton", counted_newton)
    return calls


@pytest.mark.parametrize("section, n, bits, newton_budget", [
    pytest.param(hermite_section, 60, 256, 5, id="hermite-60-256"),
    pytest.param(lognormal_section, 40, 512, 6, id="lognormal-40-512"),
])
def test_sturm_count_budget(monkeypatch, section, n, bits, newton_budget):
    # tree passes within the old mpf count cap, full-scale Newton passes
    # (which also guard the bracket) within the old charpoly caps, and the
    # start passes on the cut ints within 16 per eigenvalue
    q, b = section(n, bits)
    calls = counting_kernels(monkeypatch)
    assert len(eigenvalues(q, b, bits)) == n
    assert calls["bracket"] <= 2 * n
    assert calls["newton"] <= newton_budget * n
    assert calls["start"] <= 16 * n


def scaled(values, s):
    with mp.workprec(64):
        return [mp.ldexp(mp.mpf(v), s) for v in values]


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("exponent", [-400, -2000, 2000])
def test_eigenvalues_scale_with_the_matrix(exponent, bits):
    # the Gershgorin widening, the Newton stops and the zero-pivot stand-in
    # scale with min(1, |T|), so a scaled section keeps its relative accuracy
    q, b = random_tridiag(5, 9)
    ref = eigenvalues(q, b, bits)
    got = eigenvalues(scaled(q, exponent), scaled(b, exponent), bits)
    assert all(x < y for x, y in zip(got, got[1:]))
    norm = max(abs(x) for x in ref)
    with mp.workprec(bits + 64):
        for x, y in zip(got, ref):
            assert abs(x - mp.ldexp(y, exponent)) <= mp.ldexp(norm, exponent - (bits - 8))


@pytest.mark.parametrize("exponent", [-400, 400])
def test_graded_section_scales_exactly(exponent):
    # scaling by a power of two is exact, so a fixed-point scale that follows
    # the grading as well as the norm gives exactly the scaled nodes and
    # the same weights
    q, b = lognormal_section(40, 512)
    ref, ref_weights = gauss_rule(q, b, 512)
    got, weights = gauss_rule([mp.ldexp(v, exponent) for v in q],
                              [mp.ldexp(v, exponent) for v in b], 512)
    assert got == [mp.ldexp(x, exponent) for x in ref]
    assert weights == ref_weights


def test_truncation_spectrum_of_a_tiny_section():
    J = JacobiMatrix(q=[0] * 5, b=[mp.mpf(2) ** -400] * 4,
                     precision=PrecisionConfig.bigfloat(256))
    points = truncation_spectrum(J, 5).points
    # the path graph's eigenvalues 2 cos(j pi / 6), scaled by 2^-400
    with mp.workprec(300):
        for x, c in zip(points, [-mp.sqrt(3), -1, 0, 1, mp.sqrt(3)]):
            assert abs(x - mp.ldexp(c, -400)) <= mp.mpf(2) ** -(400 + 248)


# sections a pass in machine doubles could not serve: b^2 overflows a
# double, entries beyond the double range, a cluster below double
# resolution and a zero off-diagonal with repeated eigenvalues
def hermite_scaled(power):
    q, b = hermite_section(6, 256)
    with mp.workprec(300):
        return [v * mp.mpf(10) ** power for v in q], [v * mp.mpf(10) ** power for v in b]


def b_squared_overflows():
    return hermite_scaled(200)


def entries_overflow():
    return hermite_scaled(400)


def cluster():
    # two copies of [[1, 1], [1, 2]], one shifted by 2^-80 and coupled by
    # 2^-100: each eigenvalue of the block appears twice, about 2^-81 apart
    return [1, 2, 1 + mp.mpf(2) ** -80, 2], [1, mp.mpf(2) ** -100, 1]


NO_DOUBLE_CASES = [
    pytest.param(b_squared_overflows, id="b-squared-overflows"),
    pytest.param(entries_overflow, id="entries-overflow"),
    pytest.param(cluster, id="cluster-below-double-ulp"),
    pytest.param(lambda: ([1, 2, 1, 2], [1, 0, 1]), id="zero-off-diagonal"),
]


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("make", NO_DOUBLE_CASES)
def test_eigenvalues_without_double_estimates(monkeypatch, make, bits):
    q, b = make()
    ref = sturm_newton_eigenvalues(q, b, bits)
    calls = counting_kernels(monkeypatch)
    got = eigenvalues(q, b, bits)
    assert len(got) == len(ref) == len(q)
    for x, y in zip(got, ref):
        assert x == y or (abs(y) < 1 and abs(x - y) <= mp.mpf(2) ** -(bits + 7))
    if make is cluster:
        # the pairs lie below double resolution, so the int tree isolates them
        assert calls["bracket"] > len(q)


def test_two_by_two_closed_form():
    nodes, w = gauss_rule([0, 0], [1], 256)
    with mp.workprec(256):
        assert abs(nodes[0] + 1) < mp.mpf(2) ** -250
        assert abs(nodes[1] - 1) < mp.mpf(2) ** -250
        assert abs(w[0] - mp.mpf(1) / 2) < mp.mpf(2) ** -250
        assert abs(w[1] - mp.mpf(1) / 2) < mp.mpf(2) ** -250


def test_weights_sum_to_one_high_precision():
    with mp.workprec(300):
        q = [mp.mpf(0)] * 20
        b = [mp.sqrt(mp.mpf(k) / 2) for k in range(1, 20)]
    nodes, w = gauss_rule(q, b, 256)
    with mp.workprec(280):
        assert abs(mp.fsum(w) - 1) < mp.mpf(2) ** -250


def test_graded_spectrum_isolated():
    # off-diagonals spanning many orders of magnitude: neighbor gaps are
    # tiny relative to the spectral span, which exercises the isolation loop
    q, b = graded_exponentials()
    ev = eigenvalues(q, b, 320)
    assert all(a < c for a, c in zip(ev, ev[1:]))
    # residual check via the recurrence: the (N+1)-st polynomial value must
    # vanish at an eigenvalue
    with mp.workprec(340):
        for lam in (ev[0], ev[10], ev[-1]):
            vals = poly_values(q, b, lam, 20)
            tail = (lam - q[19]) * vals[19] - b[18] * vals[18]
            scale = mp.fsum(abs(v) for v in vals) * max(1, abs(lam))
            assert abs(tail) / scale < mp.mpf(2) ** -280


def test_eigenvector_columns_orthonormal():
    q, b = random_tridiag(15, 5)
    nodes = eigenvalues(q, b, 256)
    cols = eigenvector_columns(q, b, nodes, 256)
    with mp.workprec(280):
        for i in range(15):
            for j in range(i, 15):
                g = mp.fsum(a * c for a, c in zip(cols[i], cols[j]))
                target = 1 if i == j else 0
                assert abs(g - target) < mp.mpf(2) ** -220


def random_rational_tridiag(n, seed):
    rng = random.Random(seed)
    q = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    b = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1)]
    return q, b


def test_matvec_exact_on_fractions():
    q, b = random_rational_tridiag(7, 6)
    T = [[0] * 7 for _ in range(7)]
    for i in range(7):
        T[i][i] = q[i]
        if i < 6:
            T[i][i + 1] = T[i + 1][i] = b[i]
    v = [Fraction(k - 3, k + 1) for k in range(7)]
    got = matvec(q, b, v)
    assert all(isinstance(x, Fraction) for x in got)
    assert got == [sum(T[i][j] * v[j] for j in range(7)) for i in range(7)]


def test_recurrence_is_an_eigenvector_identity_on_fractions():
    # (T p)_i = x p_i on every row but the last: the defining identity of
    # the orthonormal recurrence, checked exactly through the two kernels
    q, b = random_rational_tridiag(8, 7)
    x = Fraction(2, 3)
    p = list(islice(recurrence(zip(q, b), x), 8))
    assert p[0] == 1 and all(isinstance(v, Fraction) for v in p)
    Tp = matvec(q, b, p)
    assert Tp[:7] == [x * v for v in p[:7]]


def test_recurrence_agrees_with_poly_values():
    q, b = random_tridiag(30, 8)
    with mp.workprec(200):
        x = mp.mpf("0.3")
        qq = [mp.mpf(v) for v in q]
        bb = [mp.mpf(v) for v in b]
        streamed = list(islice(recurrence(zip(qq, bb), x), 30))
        assert streamed == poly_values(qq, bb, x, 30)
        assert len(poly_values(qq, bb, x, 1)) == 1


def test_recurrence_reads_only_the_pairs_it_needs():
    pulled = []

    def pairs():
        for k in range(1, 4):
            pulled.append(k)
            yield Fraction(0), Fraction(k)
        raise AssertionError("a fourth pair was read")

    values = list(islice(recurrence(pairs(), Fraction(1)), 4))
    assert pulled == [1, 2, 3]
    assert values == [1, 1, 0, Fraction(-2, 3)]


def test_recurrence_runs_at_the_precision_of_each_request():
    values = recurrence(iter([(mp.mpf(0), mp.mpf(3))] * 2), mp.mpf(1))
    next(values)
    with mp.workprec(200):
        p1 = next(values)  # 1/3
    with mp.workprec(20):
        p2 = next(values)  # (p1 - 3) / 3 = -8/9
    with mp.workprec(200):
        assert abs(p1 - mp.mpf(1) / 3) < mp.mpf(2) ** -190
        assert mp.mpf(2) ** -40 < abs(p2 + mp.mpf(8) / 9) < mp.mpf(2) ** -18


def test_pi_eval_exhaustion_boundary():
    cfg = PrecisionConfig.bigfloat(128)
    J = JacobiMatrix(q=[0, 1, 0, -1], b=[1, 2, 1], precision=cfg)
    assert len(pi_eval(J, 1j, J.n_stored)) == 4
    with pytest.raises(CoefficientExhausted,
                       match="^off-diagonal entry 4 requested but only 3 stored$"):
        pi_eval(J, 1j, J.n_stored + 1)


# -- the Weyl radius kernel --------------------------------------------------
#
# jacobi._radii runs tridiag.weyl_scan; the oracle is the mpc recurrence
# scan (oracles.mpf_weyl_radii), run at twice the bits for accuracy and at
# the same bits for the rounded digits the kernel replaced

KERNEL_MODES = [PrecisionConfig.double(), PrecisionConfig.bigfloat(64),
                PrecisionConfig.bigfloat(256), PrecisionConfig.rational(128)]
KERNEL_MODE_IDS = ["double", "bigfloat-64", "bigfloat-256", "rational-128"]


@st.composite
def positive_sections(draw):
    n = draw(st.integers(2, 24), label="n")
    q = draw(st.lists(st.fractions(-8, 8, max_denominator=64), min_size=n, max_size=n),
             label="q")
    b = draw(st.lists(st.fractions(Fraction(1, 16), 8, max_denominator=64),
                      min_size=n - 1, max_size=n - 1), label="b")
    return q, b


def assert_radii_hold_to_the_oracle(J, z, bits, ns):
    got = list(_radii(J, z, bits, ns))
    want = mpf_weyl_radii(J, z, 2 * bits, ns)
    with mp.workprec(2 * bits):
        for n, g, w in zip(ns, got, want):
            assert abs(g - w) <= mp.ldexp(w, 4 - bits), f"r_{n}"


@pytest.mark.parametrize("z", [1j, 0.5 + 1j], ids=["i", "0.5+i"])
@pytest.mark.parametrize("cfg", KERNEL_MODES, ids=KERNEL_MODE_IDS)
@settings(max_examples=25, deadline=None)
@given(section=positive_sections())
def test_weyl_scan_holds_to_the_oracle_on_random_sections(cfg, z, section):
    q, b = (convert(str(x), cfg) for x in section[0]), (convert(str(x), cfg) for x in section[1])
    J = JacobiMatrix(q=list(q), b=list(b), precision=cfg)
    n = J.n_stored
    assert_radii_hold_to_the_oracle(J, z, cfg.bits, sorted({1, 2, (n + 1) // 2, n}))


@pytest.mark.parametrize("z", [1j, 0.5 + 1j], ids=["i", "0.5+i"])
@pytest.mark.parametrize("exponent", [0, -400, 400])
def test_weyl_scan_holds_to_the_oracle_on_graded_sections(z, exponent):
    # the 512-bit lognormal section, as it is and scaled by 2^+-400
    q, b = lognormal_section(40, 512)
    J = JacobiMatrix(q=[mp.ldexp(v, exponent) for v in q], b=[mp.ldexp(v, exponent) for v in b],
                     precision=PrecisionConfig.bigfloat(512))
    assert_radii_hold_to_the_oracle(J, z, 512, [1, 2, 8, 16, 32, 40])


@pytest.mark.parametrize("z", [1j, 0.5 + 1j], ids=["i", "0.5+i"])
@pytest.mark.parametrize("bits", [64, 256])
def test_hermite_radii_round_as_the_oracle(bits, z):
    H = hermite_like(PrecisionConfig.bigfloat(bits))
    ns = [8 * 2 ** k for k in range(11)]
    assert weyl_radii(H, z, ns) == rounded(mpf_weyl_radii(H, z, bits, ns), H.precision)


@pytest.mark.parametrize("n", [40, 52])
def test_lognormal_radii_round_as_the_oracle(n):
    L = lognormal(n, PrecisionConfig.bigfloat(512))
    ns = ClassifyPolicy(n_max=n).checkpoints()
    assert weyl_radii(L, 1j, ns) == rounded(mpf_weyl_radii(L, 1j, 512, ns), L.precision)


@pytest.mark.parametrize("power", [-1, -2])
def test_index_scan_radii_round_as_the_oracle(lognormal_proxy40, power):
    # classify reports the radii of its scan at twice the bits, rounded
    nu = power_reweight(lognormal_proxy40, power)[0]
    report = index_of_determinacy(nu, 4)
    assert str(report) == f"Finite({-power})"
    for _, verdict in report.per_level:
        J = measure_to_jacobi(nu, 40, partial=True)
        want = mpf_weyl_radii(J, 1j, 2 * J.precision.bits, verdict.checkpoints)
        assert verdict.radii == tuple(rounded(want, J.precision))
        nu = power_reweight(nu, 1)[0]
