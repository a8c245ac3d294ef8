"""momprob benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``, which runs the
four in turn from this one process.  The run sets up, warms up with one
untimed op (not for cli-mixed, whose users pay process start every time),
then measures whole rounds of ops for up to S seconds and checks each op's
output with the benchmark's own oracle.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` each round runs untraced and
then traced, and the metrics are the per-layer ones.  The lines before it
name every metric with its unit, and everything measured, including each
op and the environment, goes to ``perfbench/out/results``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracer
import workloads

RESULTS = workloads.OUT / "results"
# set-up samples: at least SETUP_MIN, and more while they cost less than
# SETUP_BUDGET_S in all, so that a set-up of a fraction of a second gets a
# steadier median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
SETUP_TIMEOUT_S = 170
# a setup sample: a fresh interpreter that imports the benchmark and the
# library, builds the workload's shared state and runs its warm-up op
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.WORKLOADS[sys.argv[2]]().setup()")

TRACED_FUNCTIONS = ([f"{m}.{a}" for m, a in tracer.SPANNED]
                    + [f"{m}.{c}.{a}" for m, c, a in tracer.SPANNED_METHODS])
PER_LAYER = (
    [(f"{f}.{k}", u) for f in TRACED_FUNCTIONS
     for k, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + [("families.generator.calls", "count"), ("families.generator.busy_s", "s"),
       ("jacobi.JacobiMatrix.fetch.calls", "count"), ("precision.wp.calls", "count"),
       ("cli.main.busy_s", "s"), ("cli.startup_s", "s"), ("cli.stdout_bytes", "bytes"),
       ("jacobi.classify.n_used", "count"),
       ("measures.measure_to_jacobi.levels_out", "count"),
       ("measures.measure_to_jacobi.atom_levels", "count"),
       ("determinacy.index_of_determinacy.levels", "count"),
       ("determinacy.coeff_use_ratio", "ratio"),
       ("tridiag.eigenvalues.s_per_node", "s")]
    + [(f"layer.{layer}.self_share", "ratio") for layer in tracer.LAYERS]
    + [("families.lognormal.op_share", "ratio"),
       ("measures.measure_to_jacobi.op_share", "ratio"),
       ("cache.lognormal_coeffs.hit_share", "ratio"),
       ("shared.setup_atoms.reuse_share", "ratio"),
       ("trace.op_cpu_p50_s", "s"), ("trace.untraced_op_cpu_p50_s", "s"),
       ("trace.overhead_cpu_s", "s")]
)


def environment():
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def cpu_seconds():
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(name):
    """Wall time of one fresh set-up, interpreter start included."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(workloads.HERE), name],
                   check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def run_op(wl, inp, trc, op_id):
    """Run and check one op; returns its record."""
    rec = {"op": op_id, "input": wl.label(inp), "traced": trc is not None}
    try:
        if trc is not None and wl.in_process:
            trc.op = op_id
            trc.install()
        cpu, start = cpu_seconds(), time.perf_counter()
        try:
            out = wl.run(inp, trc is not None)
        finally:
            rec["seconds"] = time.perf_counter() - start
            rec["cpu_seconds"] = cpu_seconds() - cpu
            if trc is not None and wl.in_process:
                trc.uninstall()
        if trc is not None and not wl.in_process:
            trc.absorb(out.spans, out.counts, op_id)
            rec["stdout_bytes"] = len(out.stdout)
        ok, acc, detail = wl.check(inp, out)
    except Exception:  # an op that raises is a failed op, not a failed run
        ok, acc, detail = False, None, traceback.format_exc(limit=3)
    rec.update(ok=ok, accuracy_bits=acc, detail=detail)
    # facts a workload's check notes about the op just checked
    for attr in ("served_by_cache", "reused_atoms"):
        if hasattr(wl, attr):
            rec[attr] = getattr(wl, attr)
    return rec


def tail(times):
    """Highest percentile with at least ten ops beyond it: (p, value) or None."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def share(ops, key):
    marked = [op for op in ops if key in op]
    return sum(op[key] for op in marked) / len(marked) if marked else 0.0


def end_to_end(ops, setups, peak_rss_kb):
    """The metrics of BENCHMARK.json.

    Throughput is counted per CPU second: wall time on a shared VM also
    carries the time the host takes the CPU away.  No median op time is
    among them, because the ops of a mix fall into separate size groups
    and the median then sits in the gap between two groups.
    """
    timed = [op for op in ops if not op["traced"]]
    correct = sum(op["ok"] for op in timed)
    return {
        "ops_per_cpu_s": (correct / sum(op["cpu_seconds"] for op in timed), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(trc, ops):
    """The per-layer metrics of BENCHMARK.json, per traced op."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)
    op_time = sum(op["seconds"] for op in traced)
    stats = trc.summary()
    counts = trc.counts

    def row(name):  # calls, busy_s, self_s
        return stats.get(name, (0, 0.0, 0.0))

    out = {}
    for f in TRACED_FUNCTIONS + ["families.generator"]:
        for key, value in zip(("calls", "busy_s", "self_s"), row(f)):
            out[f"{f}.{key}"] = value / n
    for key in ("jacobi.JacobiMatrix.fetch.calls", "precision.wp.calls",
                "jacobi.classify.n_used", "measures.measure_to_jacobi.levels_out",
                "measures.measure_to_jacobi.atom_levels",
                "determinacy.index_of_determinacy.levels"):
        out[key] = counts.get(key, 0) / n
    main_busy = row("cli.main")[1]
    cli_ops = [op for op in traced if "stdout_bytes" in op]
    out["cli.main.busy_s"] = main_busy / n
    out["cli.startup_s"] = (sum(op["seconds"] for op in cli_ops) - main_busy) / n if cli_ops else 0.0
    out["cli.stdout_bytes"] = sum(op["stdout_bytes"] for op in cli_ops) / n
    out["determinacy.coeff_use_ratio"] = ratio(counts.get("determinacy.classify.n_used", 0),
                                               counts.get("determinacy.measure_to_jacobi.levels_out", 0))
    out["tridiag.eigenvalues.s_per_node"] = ratio(row("tridiag.eigenvalues")[1],
                                                  counts.get("tridiag.eigenvalues.nodes", 0))
    for layer in tracer.LAYERS:
        self_s = sum(r[2] for name, r in stats.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_share"] = self_s / op_time
    for f in ("families.lognormal", "measures.measure_to_jacobi"):
        out[f"{f}.op_share"] = row(f)[1] / op_time
    out["cache.lognormal_coeffs.hit_share"] = share(ops, "served_by_cache")
    out["shared.setup_atoms.reuse_share"] = share(ops, "reused_atoms")
    traced_p50 = statistics.median(op["cpu_seconds"] for op in traced)
    untraced_p50 = statistics.median(op["cpu_seconds"] for op in untraced)
    out["trace.op_cpu_p50_s"] = traced_p50
    out["trace.untraced_op_cpu_p50_s"] = untraced_p50
    out["trace.overhead_cpu_s"] = traced_p50 - untraced_p50
    units = dict(PER_LAYER)
    return {name: (out[name], units[name]) for name, _ in PER_LAYER}


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]()
    setups = []
    while not trace and (len(setups) < SETUP_MIN
                         or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S)):
        setups.append(measure_setup(name))
    wl.setup()
    rng = random.Random(f"{name}/{seed}")
    trc = tracer.Tracer() if trace else None
    # a traced run runs each round untraced, then traced; inputs that may
    # not repeat alternate between untraced and traced rounds instead
    min_rounds = 2 if trace and not wl.repeatable else 1
    ops = []
    start = time.perf_counter()
    for r, round_inputs in enumerate(wl.rounds(rng)):
        round_start = time.perf_counter()
        if not trace:
            passes = [None]
        elif wl.repeatable:
            passes = [None, trc]
        else:
            passes = [trc if r % 2 else None]
        for t in passes:
            for inp in round_inputs:
                ops.append(run_op(wl, inp, t, len(ops)))
        now = time.perf_counter()
        # stop before a round like the last one would overrun the budget
        if r + 1 >= min_rounds and (now - start) + (now - round_start) > seconds:
            break
    probes = []
    if name == workloads.CliMixed.name:
        probes = [run_op(wl, probe, None, -1) for probe in workloads.CLI_PROBES]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = self_kb if wl.in_process else child_kb
    if trace:
        metrics = per_layer(trc, ops)
        spans_path = RESULTS / f"spans-{name}-s{seed}.json"
        trc.dump(spans_path)
    else:
        metrics = end_to_end(ops, setups, peak_kb)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "metrics": metrics, "setup_samples_s": setups, "ops": ops, "probes": probes}


def report(res, env):
    """Human-readable lines: every metric with its unit, and the checks."""
    ops = res["ops"]
    timed = [op for op in ops if not op["traced"]]
    failed = [op for op in ops if not op["ok"]]
    lines = [f"workload {res['workload']} seed {res['seed']}: {len(ops)} ops "
             f"({len(timed)} untraced), trace {res['trace']}"]
    for name, (value, unit) in res["metrics"].items():
        lines.append(f"  {name:44s} {value:.6g} {unit}")
    times = [op["seconds"] for op in timed]
    correct = sum(op["ok"] for op in timed)
    cpu_p50 = statistics.median(op["cpu_seconds"] for op in timed)
    lines.append(f"  op_cpu_p50_s{'':32s} {cpu_p50:.6g} s")
    lines.append(f"  op_p50_s{'':36s} {statistics.median(times):.6g} s (wall)")
    lines.append(f"  ops_per_s{'':35s} {correct / sum(times):.6g} 1/s (wall)")
    t = tail(times)
    lines.append("  op_tail_s" + (f"{'':35s} {t[1]:.6g} s (p{t[0]:.1f}, {len(times)} ops)" if t
                                  else f"{'':35s} n/a ({len(times)} ops; needs at least 11)"))
    lines.append(f"  fail_ratio{'':34s} {len(failed) / len(ops):.6g} ratio "
                 f"({len(failed)} of {len(ops)})")
    accs = [op["accuracy_bits"] for op in ops if op["accuracy_bits"] is not None]
    if accs:
        lines.append(f"  accuracy_bits{'':31s} {min(accs):.6g} bits")
    for key, what in (("served_by_cache", "ops served by _lognormal_coeffs"),
                      ("reused_atoms", "ops reusing the setup atoms")):
        if any(key in op for op in ops):
            lines.append(f"  share of {what}: {share(ops, key):.6g}")
    if res["trace"]:
        m = res["metrics"]
        lines.append(f"  tracing overhead: {m['trace.overhead_cpu_s'][0]:+.4f} CPU s per op "
                     f"(p50 traced {m['trace.op_cpu_p50_s'][0]:.4f} s, "
                     f"untraced {m['trace.untraced_op_cpu_p50_s'][0]:.4f} s)")
    for op in failed:
        lines.append(f"  FAILED op {op['op']} {op['input']}: {op['detail'].strip()}")
    for probe in res["probes"]:
        state = "ok" if probe["ok"] else f"STANDING FAILURE: {probe['detail'].strip()}"
        lines.append(f"  probe {probe['input']}: {state}")
    lines.append("  env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    return lines


def main(argv=None):
    names = list(workloads.WORKLOADS)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    try:
        workloads.load_library()
    except (workloads.LibraryMissing, ImportError) as exc:
        print(f"error: cannot load momprob: {exc}", file=sys.stderr)
        return 2
    env = environment()
    RESULTS.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res["env"] = env
        path = RESULTS / f"{name}-s{args.seed}-t{args.trace}.json"
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1, default=str)
        print("\n".join(report(res, env)), flush=True)
        results.append(res)

    def metric_key(res, name):
        return name if len(results) == 1 else f"{res['workload']}/{name}"

    summary = {
        "correct": all(op["ok"] for res in results for op in res["ops"]),
        "attempted": sum(len(res["ops"]) for res in results),
        "failed": sum(not op["ok"] for res in results for op in res["ops"]),
        "metrics": {metric_key(res, name): {"value": value, "unit": unit}
                    for res in results for name, (value, unit) in res["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
