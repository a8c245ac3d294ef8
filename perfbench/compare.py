"""Summarise benchmark results and compare two sets of them.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds result files written by ``run.py`` (by default they
land in ``perfbench/out/results``).  For every workload and end-to-end
metric this prints the median, the quartiles and the spread (quartile
distance over median) of the untraced runs.  Given a second directory it
also prints, per metric, how much worse the second median is than the
first, against the bound fixed in ``BENCHMARK.json``.

Results taken under different mpmath backends are never compared: the
pure-Python backend is the pinned substrate, and gmpy2 would shift every
number.  The command then exits with status 2.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """workload -> metric -> [values] over the untraced result files."""
    values = defaultdict(lambda: defaultdict(list))
    envs = []
    for path in sorted(Path(directory).glob("*-t0.json")):
        with open(path) as fh:
            res = json.load(fh)
        envs.append((path, res["env"]))
        for name, (value, _unit) in res["metrics"].items():
            values[res["workload"]][name].append(value)
    return values, envs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def check_backends(envs):
    backends = {env["mpmath_backend"] for _, env in envs}
    if len(backends) > 1:
        for path, env in envs:
            print(f"{path}: mpmath backend {env['mpmath_backend']}", file=sys.stderr)
        raise SystemExit("error: results were taken under different mpmath backends; "
                         "refusing to compare them")


def main(argv):
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    sets = [load(d) for d in argv]
    check_backends([e for _, envs in sets for e in envs])
    with open(BENCHMARK) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base = sets[0][0]
    change = sets[1][0] if len(sets) == 2 else None
    worst = 0.0
    for workload in sorted(base):
        for name, vals in sorted(base[workload].items()):
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            bound = spec[name]["bound"]
            line = (f"{workload:20s} {name:14s} n={len(vals):2d} median {med:.5g} "
                    f"q1 {q1:.5g} q3 {q3:.5g} spread {sp:.3f} (bound {bound})")
            if change is not None and change[workload].get(name):
                new = statistics.median(change[workload][name])
                worse = (new - med) / med if spec[name]["better"] == "lower" else (med - new) / med
                worst = max(worst, worse / bound)
                line += f" | second median {new:.5g} worse by {worse:+.3f}"
                line += " REGRESSION" if worse > bound else ""
            print(line)
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
