"""The benchmark's four workloads: inputs from the seed, one op, its oracle.

Inputs are drawn in rounds.  For the sized workloads a round is an input
and its mirror image in the size-sorted inputs (the k-th smallest with the
k-th largest), in seed-shuffled order.  A run measures whole rounds, so its
inputs are spread symmetrically about the middle size whichever rounds the
seed draws, and the run's median and mean op time follow the code rather
than the draw.

One op is one user job.  ``run`` performs exactly the timed part of it and
``check`` compares its output with the oracle outside the timed interval.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


class LibraryMissing(RuntimeError):
    """The checkout holds no momprob sources to benchmark."""


def load_library():
    """Import momprob from the checkout's ``src`` directory."""
    if not (SRC / "momprob" / "__init__.py").is_file():
        raise LibraryMissing(f"no momprob package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import momprob

    return momprob


def mirrored_rounds(rng, population, repeat=True):
    """Rounds of two inputs mirrored about the middle of ``population``.

    ``population`` is sorted by size.  Pairs come in a seed-shuffled order,
    cycling when ``repeat`` is set and otherwise ending after every pair
    was drawn once, so that no input repeats.
    """
    m = len(population)
    order = list(range((m + 1) // 2))
    rng.shuffle(order)
    for r in itertools.count() if repeat else range(len(order)):
        i = order[r % len(order)]
        pair = [population[i], population[m - 1 - i]]
        rng.shuffle(pair)
        yield pair


class HermiteQuadrature:
    """Gauss rule of the N x N Hermite section at 256 bits."""

    name = "hermite-quadrature"
    in_process = True
    repeatable = True
    bits = 256
    warmup_input = 48

    def setup(self):
        self.mp = load_library()
        self.run(self.warmup_input)

    def rounds(self, rng):
        return mirrored_rounds(rng, range(48, 65))

    def label(self, n):
        return f"N={n}"

    def run(self, n, traced=False):
        mp = self.mp
        H = mp.families.hermite_like(mp.PrecisionConfig.bigfloat(self.bits))
        return mp.truncation_spectrum(H, n)

    def check(self, n, mu):
        return oracles.check_gauss_rule(mu.points, mu.weights, n, self.bits)


class LognormalClassify:
    """Lognormal coefficients by the Hankel route, then the classifier."""

    name = "lognormal-classify"
    in_process = True
    repeatable = False  # a repeated pair would be served by the coefficient cache
    warmup_input = (40, 384)

    def setup(self):
        self.mp = load_library()
        self.cache_hits = 0
        self.run(self.warmup_input)
        self.cache_hits = self._hits()

    def _hits(self):
        return self.mp.families._lognormal_coeffs.cache_info().hits

    def rounds(self, rng):
        pairs = [(n, bits) for n in range(40, 53) for bits in (384, 448, 512)]
        pairs.remove(self.warmup_input)
        # Hankel LDL^T work grows about as n^2 * bits; no pair repeats, so
        # the family's coefficient cache serves no op
        pairs.sort(key=lambda p: (p[0] * p[0] * p[1], p))
        return mirrored_rounds(rng, pairs, repeat=False)

    def label(self, inp):
        return f"n={inp[0]},bits={inp[1]}"

    def run(self, inp, traced=False):
        mp = self.mp
        n, bits = inp
        L = mp.families.lognormal(n, mp.PrecisionConfig.bigfloat(bits))
        return L, mp.classify(L, mp.ClassifyPolicy(n_max=n))

    def check(self, inp, out):
        n, bits = inp
        L, verdict = out
        hits = self._hits()
        self.served_by_cache = hits > self.cache_hits
        self.cache_hits = hits
        q, b = L.coefficients(n)
        return oracles.check_lognormal(q, b, verdict.verdict, n, bits)


class IndexScan:
    """Index of determinacy of reweighted lognormal Gauss measures."""

    name = "index-scan"
    in_process = True
    repeatable = True
    bits = 512
    atoms = 40
    warmup_input = -1

    def setup(self):
        mp = self.mp = load_library()
        cfg = mp.PrecisionConfig.bigfloat(self.bits)
        # closed-form Stieltjes-Wigert coefficients, so the Hankel route
        # (timed in lognormal-classify) stays out of this workload
        q, b = oracles.stieltjes_wigert(self.atoms, self.bits)
        self.mu = mp.truncation_spectrum(mp.JacobiMatrix(q=q, b=b, precision=cfg), self.atoms)
        self.run(self.warmup_input)

    def rounds(self, rng):
        return mirrored_rounds(rng, [-2, -1])

    def label(self, m):
        return f"m={m}"

    def run(self, m, traced=False):
        mp = self.mp
        nu = mp.power_reweight(self.mu, m)[0]
        return nu, mp.index_of_determinacy(nu, 4)

    def check(self, m, out):
        nu, report = out
        self.reused_atoms = nu.points is self.mu.points
        return oracles.check_index(report.kind, report.n, m)


# -- CLI ---------------------------------------------------------------------

HERMITE = ["--family", "hermite_like"]
# pi-eval renders its values through mpc at mpmath's default 53-bit
# precision, so the timed op is held to what that rendering carries; the
# configured 256 bits are checked by a probe below.
PI_EVAL_RENDERED_BITS = 48


def expect(ok, message):
    return ok, "" if ok else message


# (label, argv, documented exit code, document check)
CLI_OPS = [
    ("weyl-radii-8192", ["weyl-radii", *HERMITE, "--n-max", "8192"], 0,
     lambda d: oracles.check_radii(d, [8 * 2 ** k for k in range(11)])),
    ("pi-eval-2000", ["pi-eval", *HERMITE, "--z", "0.5+i", "--n", "2000"], 0,
     lambda d: oracles.check_pi_values(d, 0.5 + 1j, 2000, PI_EVAL_RENDERED_BITS)),
    ("spectrum-double-60", ["spectrum", *HERMITE, "--mode", "double", "--n", "60"], 0,
     lambda d: oracles.check_double_spectrum(d, 60)),
    ("moments-to-jacobi-rational", ["moments-to-jacobi", "--in", "gauss_moments.json",
                                    "--n", "24"], 0,
     lambda d: oracles.check_hermite_jacobi(d, 24, 256)),
    ("moments-to-jacobi-bigfloat", ["moments-to-jacobi", "--in", "gauss_moments.json",
                                    "--n", "24", "--mode", "bigfloat",
                                    "--precision-bits", "256"], 0,
     lambda d: oracles.check_hermite_jacobi(d, 24, 256)),
    ("gram-check-15", ["gram-check", "--in", "gauss_density.json", "--n", "15"], 0,
     lambda d: expect(float(d["max_identity_deviation"]) < 2.0 ** -128
                      and float(d["max_imaginary_residue"]) < 2.0 ** -128,
                      "Gram matrix is not the identity")),
    ("stone-operator", ["stone", "--route", "operator", *HERMITE, "--alpha", "1/2",
                        "--truncation", "60", "--n", "8"], 0,
     lambda d: oracles.check_orthonormal_columns(d["basis_columns"], 256)),
    ("classify", ["classify", *HERMITE], 0,
     lambda d: expect(d["verdict"] == "determinate", f"verdict {d['verdict']!r}")),
]
# Contracts the seed does not meet.  Each probe runs once per run, after the
# timed ops, and its outcome is reported on its own line; the timed ops,
# which must all succeed, leave them out.
CLI_PROBES = [
    # a real point is a violated precondition: exit 2 in cli.py and the README
    ("weyl-radii-real-z", ["weyl-radii", *HERMITE, "--z", "1", "--n-list", "8"], 2, None),
    # "numbers cross the boundary as decimal strings at the configured precision"
    ("pi-eval-256-bits", ["pi-eval", *HERMITE, "--z", "0.5+i", "--n", "50"], 0,
     lambda d: oracles.check_pi_values(d, 0.5 + 1j, 50, 256 - 32)),
]


def cli_inputs():
    """Input files of the CLI ops: Gaussian moments and a Gaussian density."""
    moments = [str(oracles.gaussian_moment(k)) for k in range(49)]
    return {
        "gauss_moments.json": {"values": moments,
                               "precision": {"mode": "rational", "bits": 256}},
        "gauss_density.json": {"kind": "density", "weight": "gaussian",
                               "support": "real_line",
                               "quadrature": {"rule": "gauss_from_jacobi",
                                              "reference": {"family": "hermite_like"},
                                              "n_nodes": 40},
                               "precision": {"mode": "bigfloat", "bits": 256}},
    }


class CliResult:
    __slots__ = ("code", "stdout", "stderr", "spans", "counts")

    def __init__(self, code, stdout, stderr, spans=(), counts=None):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.spans, self.counts = spans, counts or {}


class CliMixed:
    """One ``python -m momprob.cli`` process per op, one at a time."""

    name = "cli-mixed"
    in_process = False
    repeatable = True
    timeout_s = 120

    def setup(self):
        # no warm-up op: every CLI user pays for process start
        load_library()
        self.workdir = OUT / "cli-work"
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, doc in cli_inputs().items():
            (self.workdir / fname).write_text(json.dumps(doc))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.first_stdout = {}

    def rounds(self, rng):
        while True:
            ops = list(CLI_OPS)
            rng.shuffle(ops)
            yield ops

    def label(self, op):
        return op[0]

    def run(self, op, traced=False):
        argv = op[1]
        spans_path = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "momprob.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=self.timeout_s)
        result = CliResult(proc.returncode, proc.stdout, proc.stderr)
        if traced:
            with open(spans_path) as fh:
                doc = json.load(fh)
            spans_path.unlink()
            result.spans, result.counts = doc["spans"], doc["counts"]
        return result

    def check(self, op, result):
        label, _, code, doc_check = op
        first = self.first_stdout.setdefault(label, result.stdout)
        ok, detail = oracles.check_cli((result.code, result.stdout), code,
                                       first if first is not result.stdout else None,
                                       doc_check)
        if not ok and result.stderr:
            detail += f" (stderr: {result.stderr.decode(errors='replace').strip()[:200]})"
        return ok, None, detail


WORKLOADS = {w.name: w for w in (HermiteQuadrature, LognormalClassify, IndexScan, CliMixed)}
