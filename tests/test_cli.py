import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import momprob
from momprob import errors
from momprob.cli import _exit_code, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def gauss_moments_file(tmp_path):
    return write_json(tmp_path, "gauss.json", {
        "values": ["1", "0", "1", "0", "3", "0", "15", "0", "105"],
        "precision": {"mode": "rational", "bits": 256},
    })


@pytest.fixture()
def two_atom_moments_file(tmp_path):
    return write_json(tmp_path, "twoatom.json", {
        "values": ["1", "0", "1", "0", "1"],
        "precision": {"mode": "rational", "bits": 256},
    })


@pytest.fixture()
def atomic_measure_file(tmp_path):
    return write_json(tmp_path, "atoms.json", {
        "kind": "atomic",
        "points": ["-1", "1"],
        "weights": ["1/2", "1/2"],
        "precision": {"mode": "rational", "bits": 256},
    })


@pytest.fixture()
def gaussian_measure_file(tmp_path):
    return write_json(tmp_path, "gauss_measure.json", {
        "kind": "density",
        "weight": "gaussian",
        "support": "real_line",
        "quadrature": {"rule": "gauss_from_jacobi",
                       "reference": {"family": "hermite_like"},
                       "n_nodes": 50},
        "precision": {"mode": "bigfloat", "bits": 256},
    })


class TestValidateMoments:
    def test_positive_sequence(self, capsys, gauss_moments_file):
        code, out, _ = run_cli(capsys, "validate-moments", "--in", gauss_moments_file,
                               "--k-max", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["positive"] is True
        assert doc["determinants"] == ["1", "1", "2", "12", "288"]

    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "validate-moments", "--in", "/no/such.json",
                               "--k-max", "2")
        assert code == 2
        assert err.startswith("error: FileNotFoundError: ")


class TestMomentsToJacobi:
    def test_degenerate_exit_code(self, capsys, two_atom_moments_file):
        code, _, err = run_cli(capsys, "moments-to-jacobi", "--in",
                               two_atom_moments_file, "--n", "2")
        assert code == 3
        assert err.startswith("error: DegenerateHankel: ")

    def test_success(self, capsys, gauss_moments_file):
        code, out, _ = run_cli(capsys, "moments-to-jacobi", "--in",
                               gauss_moments_file, "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == ["0", "0", "0"]


class TestClassify:
    def test_hermite_determinate(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "hermite_like",
                               "--n-max", "10000")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "determinate"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "classify", "--family", "hermite_like",
                             "--n-max", "10000")
        _, out2, _ = run_cli(capsys, "classify", "--family", "hermite_like",
                             "--n-max", "10000")
        assert out1 == out2

    def test_strict_inconclusive_exit(self, capsys, tmp_path):
        # radii still far above an (unreachable) zero threshold and still
        # decaying, so the budget ends without a verdict
        path = write_json(tmp_path, "j.json", {
            "q": ["0"] * 16, "b": ["1"] * 15,
            "precision": {"mode": "bigfloat", "bits": 128},
        })
        code, out, _ = run_cli(capsys, "classify", "--in", path, "--n-max", "16",
                               "--eps-zero", "1e-30", "--strict")
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        assert code == 4

    def test_lognormal_with_precision_flags(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "lognormal",
                               "--family-n", "40", "--precision-bits", "256",
                               "--n-max", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "indeterminate"

    def test_short_budget_is_inconclusive_not_guessed(self, capsys):
        # with only 20 coefficients the stability window still spans the
        # early transient, so the classifier must decline to guess
        code, out, _ = run_cli(capsys, "classify", "--family", "lognormal",
                               "--family-n", "20", "--precision-bits", "256",
                               "--n-max", "20")
        assert code == 0
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_csv_trace(self, capsys, tmp_path):
        csv = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "classify", "--family", "hermite_like",
                             "--n-max", "10000", "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,radius"
        assert len(lines) >= 2


class TestMeasurePipelines:
    def test_measure_to_jacobi(self, capsys, atomic_measure_file):
        code, out, _ = run_cli(capsys, "measure-to-jacobi", "--in",
                               atomic_measure_file, "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == ["0", "0"] and doc["b"] == ["1"]

    def test_finite_support_exit(self, capsys, atomic_measure_file):
        code, _, err = run_cli(capsys, "measure-to-jacobi", "--in",
                               atomic_measure_file, "--n", "3")
        assert code == 3
        assert err.startswith("error: FiniteSupport: ")

    def test_transform_and_spectrum(self, capsys, gaussian_measure_file, tmp_path):
        out_file = tmp_path / "damped.json"
        code, _, _ = run_cli(capsys, "transform", "--in", gaussian_measure_file,
                             "--gauss-damp", "0.5", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["transforms"] == [{"gauss_damp": "0.5"}]

    def test_stone_command(self, capsys, gaussian_measure_file):
        code, out, _ = run_cli(capsys, "stone", "--in", gaussian_measure_file,
                               "--alpha", "0.5", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["q"]) == 6 and len(doc["b"]) == 5
        assert doc["b"][0].startswith("0.5")  # sqrt(1)/2

    def test_stone_operator_route(self, capsys):
        code, out, _ = run_cli(capsys, "stone", "--route", "operator", "--family",
                               "hermite_like", "--alpha", "0.5", "--truncation", "40",
                               "--n", "4", "--g", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["basis_columns"]) == 4
        assert len(doc["basis_columns"][0]) == 40
        assert doc["b"][0].startswith("0.5")

    def test_gram_check_probe(self, capsys):
        code, out, _ = run_cli(capsys, "gram-check", "--probe", "--family",
                               "hermite_like", "--truncation", "40", "--n", "5")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["smallest_singular_value"]) > 0.1

    def test_f_basis_and_gram(self, capsys, atomic_measure_file):
        code, out, _ = run_cli(capsys, "f-basis", "--in", atomic_measure_file,
                               "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["normalization"] == "1/2"
        code, out, _ = run_cli(capsys, "gram-check", "--in", atomic_measure_file,
                               "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["max_identity_deviation"]) < 1e-8

    def test_index_command(self, capsys, gaussian_measure_file):
        code, out, _ = run_cli(capsys, "index", "--in", gaussian_measure_file,
                               "--n-max", "2", "--alpha", "0.5", "--depth", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["index"] == {"kind": "at_least", "n": 2}

    def test_pipeline_document(self, capsys, tmp_path, gaussian_measure_file):
        spec = {
            "measure": json.loads(open(gaussian_measure_file).read()),
            "transforms": [{"gauss_damp": "0.5"}],
            "n": 8,
            "classify": {"n_max": 8, "start": 2},
        }
        path = write_json(tmp_path, "pipe.json", spec)
        code, out, _ = run_cli(capsys, "pipeline", "--in", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["verdict"] == "determinate"
        assert len(doc["jacobi"]["q"]) == 8

    def test_spectrum_command(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "hermite_like",
                               "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 4
        assert doc["kind"] == "atomic"


class TestEvaluationCommands:
    def test_pi_eval(self, capsys):
        code, out, _ = run_cli(capsys, "pi-eval", "--family", "hermite_like",
                               "--z", "i", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["values"]) == 3
        assert doc["values"][0].startswith("1.0")

    def test_pi_eval_carries_configured_precision(self, capsys):
        # values must carry the configured 256 bits, not the 53 of mpmath's
        # default context; reference: the orthonormal recurrence of
        # exp(-t^2), b_k = sqrt(k/2), run independently at 352 bits
        code, out, _ = run_cli(capsys, "pi-eval", "--family", "hermite_like",
                               "--z", "0.5+i", "--n", "50")
        assert code == 0
        values = json.loads(out)["values"]
        assert len(values) == 50
        with mp.workprec(352):
            z = mp.mpc(mp.mpf(1) / 2, 1)
            b = [mp.sqrt(mp.mpf(k) / 2) for k in range(50)]
            ref = [mp.mpc(1), z / b[1]]
            for k in range(2, 50):
                ref.append((z * ref[-1] - b[k - 1] * ref[-2]) / b[k])
            for k, (text, want) in enumerate(zip(values, ref)):
                body = text[:-1]  # "<re><sign><im>i"
                cut = max(i for i, c in enumerate(body)
                          if c in "+-" and i > 0 and body[i - 1] != "e")
                got = mp.mpc(mp.mpf(body[:cut]), mp.mpf(body[cut:]))
                assert abs(got - want) <= mp.mpf(2) ** -224 * abs(want), f"value {k}"

    def test_weyl_radii_list(self, capsys):
        code, out, _ = run_cli(capsys, "weyl-radii", "--family", "hermite_like",
                               "--z", "i", "--n-list", "1,4,16")
        assert code == 0
        doc = json.loads(out)
        assert doc["checkpoints"] == [1, 4, 16]
        assert doc["radii"][0].startswith("0.5")

    def test_jacobi_to_moments(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi-to-moments", "--family",
                               "hermite_like", "--m", "4")
        assert code == 0
        doc = json.loads(out)
        vals = [float(v.split("/")[0]) / float(v.split("/")[1]) if "/" in v else float(v)
                for v in doc["values"]]
        assert abs(vals[2] - 0.5) < 1e-30
        assert abs(vals[4] - 0.75) < 1e-30


class TestEntryPoint:
    def test_installed_console_script(self, tmp_path):
        # run the `momprob` script declared in pyproject.toml the way pip's
        # generated wrapper does, against this checkout rather than whatever
        # `momprob` may be on PATH, so no install is needed; pyproject.toml is
        # read by regex because Python 3.10 has no tomllib
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                            pyproject.read_text(), re.M | re.S)
        assert scripts, "pyproject.toml declares no [project.scripts]"
        entry = re.search(r'^momprob\s*=\s*"([\w.]+):(\w+)"\s*$',
                          scripts.group(1), re.M)
        assert entry, "[project.scripts] declares no 'momprob' entry point"
        module, function = entry.groups()
        env = dict(os.environ)
        package_root = str(Path(momprob.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {function}; "
             f"sys.exit({function}())",
             "classify", "--family", "hermite_like", "--n-max", "1000"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["verdict"] == "determinate"

    def test_pipeline_deterministic(self, capsys, tmp_path, gaussian_measure_file):
        spec = {
            "measure": json.loads(open(gaussian_measure_file).read()),
            "transforms": [{"power_lift": -1}],
            "n": 6,
            "classify": {"n_max": 6, "start": 2},
        }
        path = write_json(tmp_path, "pipe2.json", spec)
        _, out1, _ = run_cli(capsys, "pipeline", "--in", path)
        _, out2, _ = run_cli(capsys, "pipeline", "--in", path)
        assert out1 == out2
        assert json.loads(out1)["normalizations"]  # power lift reports C

    def test_transform_power_lift(self, capsys, atomic_measure_file):
        code, out, _ = run_cli(capsys, "transform", "--in", atomic_measure_file,
                               "--power-lift", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["transforms"] == [{"power_lift": "-1"}]

    def test_index_without_damping(self, capsys, tmp_path):
        # a plainly determinate atomic measure scans clean through 2 levels
        path = write_json(tmp_path, "atoms5.json", {
            "kind": "atomic",
            "points": ["-2", "-1", "0", "1", "2"],
            "weights": ["1/5", "1/5", "1/5", "1/5", "1/5"],
            "precision": {"mode": "bigfloat", "bits": 192},
        })
        code, out, _ = run_cli(capsys, "index", "--in", path, "--n-max", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["index"]["kind"] in ("at_least", "not_determinate")


class TestExitCodes:
    # one CLI failure per exception class the exit-code table names; the
    # missing-file, DegenerateHankel and FiniteSupport cases are tested above
    @pytest.mark.parametrize("argv, doc, code, name", [
        (["moments-to-jacobi", "--n", "4"],
         {"values": ["1", "0", "1"], "precision": {"mode": "rational"}},
         2, "InsufficientMoments"),
        (["weyl-radii", "--family", "hermite_like", "--z", "1", "--n-list", "8"],
         None, 2, "RealPoint"),
        (["jacobi-to-moments", "--m", "2"], {"b": ["1"]}, 2, "ValueError"),
        (["measure-to-jacobi", "--n", "1"], {"kind": "atomic", "weights": ["1"]},
         2, "KeyError"),
        (["validate-moments", "--k-max", "1"], {"values": 5}, 2, "TypeError"),
        (["jacobi-to-moments", "--m", "10"], {"q": ["0", "0"], "b": ["1"]},
         3, "CoefficientExhausted"),
        (["stone", "--route", "operator", "--family", "hermite_like", "--alpha", "1/2",
          "--truncation", "3", "--n", "8"], None, 3, "TruncationTooSmall"),
    ])
    def test_documented_exit_code(self, capsys, tmp_path, argv, doc, code, name):
        if doc is not None:
            argv = argv + ["--in", write_json(tmp_path, "in.json", doc)]
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith(f"error: {name}: ")

    def test_table_resolves_along_the_mro(self):
        validation = (errors.InsufficientMoments, errors.RealPoint)
        for cls in vars(errors).values():
            if isinstance(cls, type) and issubclass(cls, errors.MomentProblemError):
                assert _exit_code(cls("x")) == (2 if cls in validation else 3), cls
        assert _exit_code(json.JSONDecodeError("x", "", 0)) == 2
        assert _exit_code(ZeroDivisionError()) is None


class TestBadUsage:
    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--family", "unobtainium")
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate-moments", "--in", str(path),
                               "--k-max", "1")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "moments-to-jacobi")
        assert code == 2
