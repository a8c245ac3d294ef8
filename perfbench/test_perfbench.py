"""Tests of the benchmark itself: oracles, tracer, environment guard.

    python3 -m pytest perfbench -q
"""
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import compare
import oracles
import run
import tracer
import workloads

momprob = workloads.load_library()
HERE = Path(__file__).resolve().parent


def nudge(x, ulps, bits):
    """x moved by ``ulps`` units in the last place of a ``bits`` mantissa."""
    with mp.workprec(bits + 64):
        return x + abs(x) * ulps * mp.mpf(2) ** (1 - bits)


# -- oracles flag perturbed outputs -------------------------------------------


@pytest.fixture(scope="module")
def hermite_rule():
    mu = momprob.truncation_spectrum(
        momprob.families.hermite_like(momprob.PrecisionConfig.bigfloat(256)), 16)
    return list(mu.points), list(mu.weights)


def test_gauss_rule_oracle_accepts_library_rule(hermite_rule):
    ok, acc, _ = oracles.check_gauss_rule(*hermite_rule, 16, 256)
    assert ok and acc > 245


def test_gauss_rule_oracle_flags_nudged_node(hermite_rule):
    nodes, weights = hermite_rule
    nodes[-1] = nudge(nodes[-1], 2 ** 16, 256)
    ok, acc, detail = oracles.check_gauss_rule(nodes, weights, 16, 256)
    assert not ok and "moments agree" in detail


def test_gauss_rule_oracle_flags_nudged_odd_moment(hermite_rule):
    # moving one weight breaks the symmetry that zeroes the odd moments
    nodes, weights = hermite_rule
    weights[0] = nudge(weights[0], 2 ** 24, 256)
    assert not oracles.check_gauss_rule(nodes, weights, 16, 256)[0]


def test_gauss_rule_oracle_flags_wrong_size(hermite_rule):
    assert not oracles.check_gauss_rule(*hermite_rule, 17, 256)[0]


def closed_form_lognormal(n, bits):
    q, b = oracles.stieltjes_wigert(n, bits + 32)
    with mp.workprec(bits):
        return [+x for x in q], [+x for x in b]


def test_lognormal_oracle_accepts_library_coefficients():
    L = momprob.families.lognormal(12, momprob.PrecisionConfig.bigfloat(384))
    q, b = L.coefficients(12)
    ok, acc, _ = oracles.check_lognormal(q, b, "indeterminate", 12, 384)
    assert ok and acc >= 384 - oracles.COEFF_SLACK


def test_lognormal_oracle_flags_nudged_coefficient():
    q, b = closed_form_lognormal(40, 384)
    assert oracles.check_lognormal(q, b, "indeterminate", 40, 384)[0]
    b[20] = nudge(b[20], 2 ** 12, 384)
    ok, acc, _ = oracles.check_lognormal(q, b, "indeterminate", 40, 384)
    assert not ok and acc < 384 - oracles.COEFF_SLACK


def test_lognormal_oracle_flags_verdict():
    q, b = closed_form_lognormal(40, 384)
    assert not oracles.check_lognormal(q, b, "inconclusive", 40, 384)[0]


def test_index_oracle():
    assert oracles.check_index("finite", 1, -1)[0]
    assert oracles.check_index("finite", 2, -2)[0]
    assert not oracles.check_index("finite", 2, -1)[0]
    assert not oracles.check_index("at_least", 1, -1)[0]
    assert not oracles.check_index("not_determinate", None, -2)[0]


def test_cli_oracle_exit_code_and_repeat_output():
    assert oracles.check_cli((2, b""), 2, None)[0]
    assert not oracles.check_cli((3, b""), 2, None)[0]
    assert oracles.check_cli((0, b"{}"), 0, b"{}")[0]
    assert not oracles.check_cli((0, b"{} "), 0, b"{}")[0]
    assert not oracles.check_cli((0, b"not json"), 0, None, lambda d: (True, ""))[0]


def hermite_jacobi_doc(n, bits):
    with mp.workprec(bits):
        b = [momprob.precision.format_number(mp.sqrt(mp.mpf(k) / 2),
                                             momprob.PrecisionConfig.bigfloat(bits))
             for k in range(1, n)]
    return {"q": ["0"] * n, "b": b}


def test_cli_closed_form_flags_one_digit():
    doc = hermite_jacobi_doc(24, 256)
    assert oracles.check_hermite_jacobi(doc, 24, 256)[0]
    digits = doc["b"][6]
    doc["b"][6] = digits[:30] + ("1" if digits[30] != "1" else "2") + digits[31:]
    assert not oracles.check_hermite_jacobi(doc, 24, 256)[0]
    doc = hermite_jacobi_doc(24, 256)
    doc["q"][3] = "1e-70"
    assert not oracles.check_hermite_jacobi(doc, 24, 256)[0]


def render_complex(z):
    """``a+bi`` with every digit of a 256-bit value."""
    with mp.workprec(256):
        sign = "+" if z.imag >= 0 else "-"
        return f"{mp.nstr(z.real, 80)}{sign}{mp.nstr(abs(z.imag), 80)}i"


def test_cli_pi_values_flag_a_wrong_value():
    J = momprob.families.hermite_like(momprob.PrecisionConfig.bigfloat(256))
    vals = momprob.pi_eval(J, mp.mpc(0.5, 1), 40)
    doc = {"values": [render_complex(v) for v in vals]}
    assert oracles.check_pi_values(doc, 0.5 + 1j, 40, 224)[0]
    with mp.workprec(256):
        wrong = mp.mpc(nudge(vals[20].real, 2 ** 40, 256), vals[20].imag)
        doc["values"][20] = render_complex(wrong)
    assert not oracles.check_pi_values(doc, 0.5 + 1j, 40, 224)[0]


def test_cli_radii_flag_non_monotone():
    doc = {"checkpoints": [8, 16, 32], "radii": ["0.3", "0.2", "0.25"]}
    assert not oracles.check_radii(doc, [8, 16, 32])[0]
    doc["radii"][2] = "0.1"
    assert oracles.check_radii(doc, [8, 16, 32])[0]


def test_parse_complex_round_trip():
    assert oracles.parse_complex("-1.5e-3-2.0e+4i") == mp.mpc(-1.5e-3, -2.0e4)
    assert oracles.parse_complex("0.5+1.0i") == mp.mpc(0.5, 1)


# -- rounds ----------------------------------------------------------------------


def test_rounds_pair_mirrored_sizes_and_follow_the_seed():
    a = list(zip(range(5), workloads.HermiteQuadrature().rounds(random.Random("x"))))
    b = list(zip(range(5), workloads.HermiteQuadrature().rounds(random.Random("x"))))
    assert a == b
    assert all(sum(rnd) == 48 + 64 for _, rnd in a)
    assert len({tuple(sorted(rnd)) for _, rnd in a}) == 5


def test_lognormal_pairs_never_repeat():
    seen = [p for rnd in workloads.LognormalClassify().rounds(random.Random(3)) for p in rnd]
    assert len(seen) == len(set(seen)) == 38
    assert workloads.LognormalClassify.warmup_input not in seen


# -- tracer reaches every caller ---------------------------------------------


def traced_counts(wl, inputs, untraced_inputs=None):
    """Per-layer metrics of a traced pass over ``inputs`` and an untraced one."""
    trc = tracer.Tracer()
    ops = [run.run_op(wl, inp, trc, i) for i, inp in enumerate(inputs)]
    ops += [run.run_op(wl, inp, None, len(ops)) for inp in untraced_inputs or inputs]
    assert all(op["ok"] for op in ops), [op["detail"] for op in ops]
    return {name: value for name, (value, _) in run.per_layer(trc, ops).items()}


def test_tracer_counts_hermite_quadrature():
    wl = workloads.HermiteQuadrature()
    wl.mp = momprob
    m = traced_counts(wl, [20])
    for key in ("tridiag.eigenvalues.calls", "tridiag.gauss_rule.calls",
                "jacobi.truncation_spectrum.calls", "families.generator.calls",
                "jacobi.JacobiMatrix.fetch.calls", "precision.wp.calls"):
        assert m[key] > 0, key
    assert m["layer.tridiag.self_share"] > 0.5
    assert m["measures.measure_to_jacobi.calls"] == 0


def test_tracer_counts_lognormal_classify():
    wl = workloads.LognormalClassify()
    wl.mp = momprob
    wl.cache_hits = wl._hits()
    m = traced_counts(wl, [(41, 384)], [(42, 384)])
    for key in ("families.lognormal.calls", "jacobi.classify.calls", "jacobi.classify.n_used"):
        assert m[key] > 0, key
    assert m["cache.lognormal_coeffs.hit_share"] == 0


def test_tracer_counts_index_scan():
    wl = workloads.IndexScan()
    wl.setup()
    m = traced_counts(wl, [-1])
    for key in ("measures.measure_to_jacobi.calls", "determinacy.index_of_determinacy.calls",
                "measures.measure_to_jacobi.levels_out", "jacobi.classify.calls",
                "measures.power_reweight.calls", "measures.Measure.normalize.calls",
                "determinacy.coeff_use_ratio"):
        assert m[key] > 0, key
    assert m["shared.setup_atoms.reuse_share"] == 1


def test_tracer_counts_cli_mixed():
    wl = workloads.CliMixed()
    wl.setup()
    ops = {op[0]: op for op in workloads.CLI_OPS}
    m = traced_counts(wl, [ops["classify"], ops["moments-to-jacobi-bigfloat"]])
    for key in ("families.generator.calls", "jacobi.classify.calls", "cli.main.busy_s",
                "cli.startup_s", "cli.stdout_bytes", "precision.format_number.calls",
                "moments.moments_to_jacobi.calls", "jacobi.JacobiMatrix.fetch.calls"):
        assert m[key] > 0, key


def test_tracer_patches_every_binding_and_restores_them():
    from momprob import cli, determinacy, measures, precision

    originals = (measures.measure_to_jacobi, determinacy.measure_to_jacobi,
                 cli.measure_to_jacobi, precision.format_number, cli.format_number,
                 momprob.jacobi.format_number)
    trc = tracer.Tracer()
    trc.install()
    try:
        assert determinacy.measure_to_jacobi is measures.measure_to_jacobi
        assert cli.measure_to_jacobi.__wrapped__ is originals[0]
        assert momprob.jacobi.format_number.__wrapped__ is originals[3]
    finally:
        trc.uninstall()
    assert (measures.measure_to_jacobi, determinacy.measure_to_jacobi,
            cli.measure_to_jacobi, precision.format_number, cli.format_number,
            momprob.jacobi.format_number) == originals


def test_self_time_excludes_children():
    trc = tracer.Tracer()
    trc.spans[:] = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("a", 5.0, 7.0, 0, 0)]
    s = trc.summary()
    assert s["a"] == [2, 10.0, 5.0 + 2.0]
    assert s["b"] == [1, 3.0, 3.0]


# -- environment guard and the benchmark contract ----------------------------


def test_compare_refuses_mixed_backends():
    envs = [("a", {"mpmath_backend": "python"}), ("b", {"mpmath_backend": "gmpy"})]
    with pytest.raises(SystemExit, match="different mpmath backends"):
        compare.check_backends(envs)
    compare.check_backends(envs[:1])


def test_environment_record():
    env = run.environment()
    assert set(env) == {"nproc", "cpu_model", "python", "mpmath", "mpmath_backend"}
    assert env["nproc"] >= 1


def test_benchmark_json_lists_what_run_reports():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(
        [{"traced": False, "seconds": 1.0, "cpu_seconds": 1.0, "ok": True}], [1.0], 1024))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
