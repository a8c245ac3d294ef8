import argparse
import hashlib
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
from momprob.bases import representation_diagnostic, stone_jacobi_operator_route
from momprob.cli import _build_parser, _exit_code, main
from momprob.precision import PrecisionConfig, convert, format_number


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

    def test_each_hankel_section_factored_once(self, capsys, monkeypatch,
                                               gauss_moments_file):
        calls = []
        det = momprob.moments._det_pivoted
        monkeypatch.setattr(momprob.moments, "_det_pivoted",
                            lambda rows: calls.append(len(rows)) or det(rows))
        code, _, _ = run_cli(capsys, "validate-moments", "--in", gauss_moments_file,
                             "--k-max", "4")
        assert code == 0
        assert calls == [1, 2, 3, 4, 5]

    def test_s0_checked_at_the_working_precision(self, capsys, tmp_path):
        # s_0 = 1 + 1e-13 is 2^-43 off, far above the 2^-128 floor of 256
        # bits; a float comparison against 1e-12 let it through
        doc = {"values": ["1.0000000000001", "0", "1", "0", "3"],
               "precision": {"mode": "bigfloat", "bits": 256}}
        code, out, err = run_cli(capsys, "validate-moments", "--k-max", "2",
                                 "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == "error: ValueError: normalized sequence requires s_0 = 1\n"

    @pytest.mark.parametrize("k_max", [5, 10])
    @pytest.mark.parametrize("mode", ["rational", "double", "bigfloat"])
    def test_uniform_measure_positive_in_every_mode(self, capsys, tmp_path, mode, k_max):
        # s_k = 1/(k+1): the verdict comes from the certified pivots, not from
        # D_5 = 5.4e-18 or D_10 = 3.0e-65 against 1e-12 or 2^-128
        doc = {"values": [f"1/{k + 1}" for k in range(2 * k_max + 1)]}
        code, out, _ = run_cli(capsys, "validate-moments", "--k-max", str(k_max),
                               "--mode", mode, "--in", write_json(tmp_path, "in.json", doc))
        assert code == 0
        assert json.loads(out)["positive"] is True

    def test_uncertified_verdict_exits_3(self, capsys, tmp_path):
        # three atoms {0, 2, 4} at k_max 4 in double mode: no two runs agree,
        # so no verdict is printed
        doc = {"values": ["1", "5/2", "9", "34", "132", "520", "2064", "8224", "32832"],
               "precision": {"mode": "double"}}
        code, out, err = run_cli(capsys, "validate-moments", "--k-max", "4",
                                 "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (3, "")
        assert err.startswith("error: PrecisionLoss: ")

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

    def test_weyl_radii_runs_one_scan(self, capsys, monkeypatch):
        # checkpoints 8, 16, ..., 8192 from one scan: pairs 1..8191, each
        # generated once for diag and offdiag together
        calls = []
        make = momprob.families.make

        def counted_make(name, precision=None, n=None):
            J = make(name, precision, n)
            return momprob.JacobiMatrix(generator=lambda k: calls.append(k) or J.generator(k),
                                        precision=J.precision, family=J.family)

        monkeypatch.setattr(momprob.families, "make", counted_make)
        code, out, _ = run_cli(capsys, "weyl-radii", "--family", "hermite_like",
                               "--n-max", "8192")
        assert code == 0
        assert json.loads(out)["checkpoints"][-1] == 8192
        assert len(calls) == 8191

    def test_jacobi_to_moments(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi-to-moments", "--family",
                               "hermite_like", "--m", "4")
        assert code == 0
        doc = json.loads(out)
        vals = [float(v.split("/")[0]) / float(v.split("/")[1]) if "/" in v else float(v)
                for v in doc["values"]]
        assert abs(vals[2] - 0.5) < 1e-30
        assert abs(vals[4] - 0.75) < 1e-30


    def test_jacobi_to_moments_rational_mode_leaves_the_field(self, capsys):
        # hermite_like has irrational b_k = sqrt(k/2); the moments come back
        # as big floats at the configured bits, s_2k = (2k-1)!!/2^k
        code, out, _ = run_cli(capsys, "jacobi-to-moments", "--family",
                               "hermite_like", "--mode", "rational", "--m", "12")
        assert code == 0
        doc = json.loads(out)
        assert doc["precision"]["mode"] == "bigfloat"
        assert doc["precision"]["bits"] == 256
        with mp.workprec(256):
            for k, text in enumerate(doc["values"]):
                want = 0 if k % 2 else mp.fac2(k - 1) / mp.mpf(2) ** (k // 2)
                assert abs(mp.mpf(text) - want) <= mp.mpf(2) ** -248 * max(want, 1)


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

    def test_index_radii_at_measure_precision(self, capsys, tmp_path):
        doc = {**FIVE_ATOMS, "precision": {"mode": "bigfloat", "bits": 512}}
        path = write_json(tmp_path, "atoms512.json", doc)
        code, out, _ = run_cli(capsys, "index", "--in", path, "--n-max", "2")
        assert code == 0
        mu = momprob.Measure.from_json(doc)
        report = momprob.index_of_determinacy(mu, 2)
        printed = json.loads(out)["per_level"]
        assert len(printed) == len(report.per_level)
        for level, (_, verdict) in zip(printed, report.per_level):
            assert [convert(r, mu.precision) for r in level["radii"]] == [
                convert(r, mu.precision) for r in verdict.radii
            ]


FIVE_ATOMS = {
    "kind": "atomic",
    "points": ["-2", "-1/2", "1/4", "1", "3"],
    "weights": ["1/10", "3/10", "1/5", "1/4", "3/20"],
    "precision": {"mode": "rational", "bits": 256},
}

# SHA-256 of stdout as printed while the CLI parsed alpha values with a
# parser of its own; precision.convert must reproduce every byte.
ALPHA_STDOUT_SHA256 = {
    ("transform-1/2", "rational"): "39942801b9fdc0dd47ddbbe1a6571f483ea911a58aac70c325f740da64046c37",
    ("transform-1/2", "double"): "316de412deeada1aafee651f04f6a7cd051059ba4879894483d3a098a0ccd491",
    ("transform-1/2", "bigfloat"): "a69c4af50a8331f7082d9d91cdb413d819d62700a1640226602a561cda95ef76",
    ("transform-0.3", "rational"): "426cef36a3808d9894bfe8b106d7559971f3de8c9703f2c33d8c7f0ff00caca5",
    ("transform-0.3", "double"): "e68253344018a2dc75d46f3bc94f993223ed73d6cac1a791876ad98272d4f121",
    # the gauss_damp exponent is written at the measure's 256 bits
    ("transform-0.3", "bigfloat"): "aa991b4c835863039065cca90ab619e65ab349037f49c30d1c305bfa4dde37f0",
    ("stone", "rational"): "49e9274cb9139d7f5a865d5a3158c18379f62bba34009930afdcf5047cf5d0b0",
    ("stone", "double"): "533ec8d362c3803f9fb83ee26f5a644f32d6891540cced92268d31009e64a901",
    ("stone", "bigfloat"): "87bbab4021e3f5027dd7880fd850170e32a592d2dcf0fbc37ee1f9b730e48126",
    ("stone-operator", "rational"): "8b38828689d676ec7520d7c2225e02940c44eb073e40e35da0ef993e1e78534d",
    ("stone-operator", "double"): "360d44eec1353b97ee7008753cb21fb6be0728f84474752489a6d40dfdeb1eb9",
    ("stone-operator", "bigfloat"): "4887d959fe311386964eb61ecd1d73c407bee7f4444cc05174609c0baafca81e",
    # the verdict's radii are printed at the working precision, not the
    # doubled scan precision (Python floats in double mode)
    ("pipeline", "rational"): "9025545a974d9cea7ebbc418aafecb1de5337c133c4a1ee25931935dd48660d3",
    ("pipeline", "double"): "8e60fc92531168ac7d9680d36f0c6921fa2eef61455f92586ef5f2d1b5e44f56",
    ("pipeline", "bigfloat"): "6afe6fb75552fdf17c7e3977686c7ad7c4bdeaff3655506954743d4381a9870a",
}


ALPHA_COMMANDS = {
    "transform-1/2": ["transform", "--gauss-damp", "1/2"],
    "transform-0.3": ["transform", "--gauss-damp", "0.3"],
    "stone": ["stone", "--alpha", "1/2", "--n", "4"],
    "stone-operator": ["stone", "--route", "operator", "--family", "hermite_like",
                       "--alpha", "1/2", "--truncation", "20", "--n", "4"],
    # a numeric gauss_damp in a pipeline document is read by its decimal text
    "pipeline": ["pipeline"],
}


class TestAlphaParsing:
    @pytest.mark.parametrize("mode", ["rational", "double", "bigfloat"])
    @pytest.mark.parametrize("name", list(ALPHA_COMMANDS))
    def test_stdout_bytes_unchanged(self, capsys, tmp_path, name, mode):
        argv = ALPHA_COMMANDS[name]
        if name == "pipeline":
            doc = {"measure": FIVE_ATOMS, "transforms": [{"gauss_damp": 0.3}], "n": 4,
                   "classify": {"n_max": 4, "start": 2}}
        else:
            doc = FIVE_ATOMS
        if "--family" not in argv:
            argv = argv + ["--in", write_json(tmp_path, "in.json", doc)]
        code, out, _ = run_cli(capsys, *argv, "--mode", mode)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == ALPHA_STDOUT_SHA256[name, mode]


# SHA-256 of stdout (for classify, followed by its --csv trace) as printed
# while bases.py and moments.py each had a tridiagonal matvec of their own
# and jacobi.py two hand-written recurrence loops; the shared kernels in
# tridiag.py must reproduce every byte.
KERNEL_STDOUT_SHA256 = {
    # re-pinned when the Hermite rows took their roots from sqrt_number:
    # b_170 was an ulp off, which moves the values from pi_171 on
    "pi-eval": "98247bc3a84ee5b29b5af42d4a85bc4b475885dc70b9b3374afef451e95ec4a8",
    "pi-eval-double": "6eda0142bc25a0c51cac377e40e1124457c349eeae28232e17b84608087a3594",
    "pi-eval-lognormal": "49a3c59954961aa6e0ff8c776ec1fd4863be3c2107005d221828f774bc778573",
    "weyl-radii": "4c00b786788f61bdef9bcfc3264f36c40ce0fc4439424d44262f804d46f8bac9",
    # the verdict's radii are printed at the working precision, not the
    # doubled scan precision
    "classify-csv": "3e54e2b77d6bd9cc539d573819a82acd8a296974569c2f36244a3c5faa2bfa55",
    "classify-lognormal": "0c702cc23a687083285bbf06a35e5f902467f0654a3e69a0938e20f88f4f1599",
    "spectrum-double": "1c38f6b247fe2e0f3c88a51ffcd91cc74f8887aed87a3fbb82cd5016165a46ee",
    "stone-operator": "54b349dfe89057980f4b5fd8b99684a854e910f4b101c86cf594c26eb67b8284",
    "gram-probe": "fa06b6dcaaafb71e6bbfc0b40c51b9449b8f13b977a0d039d6fffe10ddbb25ac",
    "jacobi-to-moments-bigfloat": "013208853e2a6f872d29b8de000824325d0a4d637411f9aec10a8b760fb6e517",
    "jacobi-to-moments-rational": "bba9fc0ca7450c8760e75994aa0dfa964aa192e406b072dcdd64c0c4c78a9871",
    # printed while measures.py ran a monic recurrence of its own on exact atoms
    # and forked effective_atoms and moments on the arithmetic mode
    "measure-to-jacobi-rational": "aecf9f00b2957a1fe124090209175e633fc78075e3a54f03f3cb4852f5dc9ca6",
    "measure-to-jacobi-lifted-density": "39bf2670b4c03358fecbb6933bb5e8cc55383081e2ab874c2d1c3c48105063da",
    "measure-to-jacobi-double": "7e16f6b2b9d36fd19642724233c50347dffefadc73ede7e2fe5f0ae2ed38b9fb",
    "transform-power-lift": "aa976af3819fc3e77e39594635e8a20e1d9bc5791736bcce0f590a060b48f458",
    # printed while moments.py rounded results to each mode by hand
    "validate-moments-rational": "a1fdfab2eb5ca314d60dbf0f695c0b481be53e38d51cc4e62791034971e439db",
    # re-pinned when the verdict came from the certified pivots: it read
    # false, D_5 = 5.4e-18 of a positive definite sequence being below 1e-12
    "validate-moments-double": "b98577834882f6fd2a19beaf84098f190e9cfa968ba927cf11bcdcbaf3de8d61",
    "validate-moments-bigfloat": "294b8218c448eb150ae80baa1fb5e815e6a605eb2b9c343181ea79ee54a17a21",
    "moments-to-jacobi-bigfloat": "bb9aff95fc56b4967d395fef4c64c87d19954bb53d41dfb3a897702fe4a064bb",
}

HERMITE = ["--family", "hermite_like"]
KERNEL_COMMANDS = {
    "pi-eval": ["pi-eval", *HERMITE, "--z", "0.5+i", "--n", "200"],
    "pi-eval-double": ["pi-eval", *HERMITE, "--mode", "double", "--z", "0.5+i",
                       "--n", "50"],
    "pi-eval-lognormal": ["pi-eval", "--family", "lognormal", "--family-n", "40",
                          "--z", "i", "--n", "40"],
    "weyl-radii": ["weyl-radii", *HERMITE, "--z", "0.5+i", "--n-max", "1024"],
    "classify-csv": ["classify", *HERMITE, "--csv", "{csv}"],
    "classify-lognormal": ["classify", "--family", "lognormal", "--family-n", "60",
                           "--precision-bits", "512", "--n-max", "60"],
    "spectrum-double": ["spectrum", *HERMITE, "--mode", "double", "--n", "30"],
    "stone-operator": ["stone", "--route", "operator", *HERMITE, "--alpha", "1/2",
                       "--truncation", "40", "--n", "6", "--g", "1,0,1"],
    "gram-probe": ["gram-check", "--probe", *HERMITE, "--truncation", "30",
                   "--n", "5", "--g", "1,1"],
    "jacobi-to-moments-bigfloat": ["jacobi-to-moments", *HERMITE, "--m", "20"],
    "jacobi-to-moments-rational": ["jacobi-to-moments", "--m", "5", "--in", "{exact}"],
    "measure-to-jacobi-rational": ["measure-to-jacobi", "--n", "5", "--in", "{atoms}"],
    "measure-to-jacobi-lifted-density": ["measure-to-jacobi", "--n", "12",
                                         "--in", "{density}"],
    "measure-to-jacobi-double": ["measure-to-jacobi", "--mode", "double", "--n", "5",
                                 "--in", "{atoms}"],
    "transform-power-lift": ["transform", "--power-lift", "-1", "--in", "{atoms}"],
    "validate-moments-rational": ["validate-moments", "--k-max", "5", "--in", "{moments}"],
    "validate-moments-double": ["validate-moments", "--mode", "double", "--k-max", "5",
                                "--in", "{moments}"],
    "validate-moments-bigfloat": ["validate-moments", "--mode", "bigfloat", "--k-max", "5",
                                  "--in", "{moments}"],
    "moments-to-jacobi-bigfloat": ["moments-to-jacobi", "--mode", "bigfloat",
                                   "--precision-bits", "256", "--n", "5", "--in", "{moments}"],
}

# input documents of KERNEL_COMMANDS, by placeholder name
KERNEL_INPUTS = {
    "exact": {
        "q": ["0", "1/2", "-1/3"], "b": ["1", "2/3"],
        "precision": {"mode": "rational", "bits": 256},
    },
    "atoms": {
        "kind": "atomic",
        "points": ["-2", "-1/2", "0", "1/3", "3"],
        "weights": ["1/10", "3/10", "1/5", "1/4", "3/20"],
        "transforms": [{"power_lift": 2}],
        "precision": {"mode": "rational", "bits": 256},
    },
    "density": {
        "kind": "density", "weight": "gaussian",
        "quadrature": {"rule": "gauss_from_jacobi",
                       "reference": {"family": "hermite_like"}, "n_nodes": 24},
        "transforms": [{"power_lift": -2}],
        "precision": {"mode": "bigfloat", "bits": 256},
    },
    # s_k = 1/(k+1), the uniform measure on [0, 1]: Hilbert-matrix sections
    "moments": {
        "values": [f"1/{k + 1}" for k in range(11)],
        "precision": {"mode": "rational", "bits": 256},
    },
}


class TestKernelOutputs:
    @pytest.mark.parametrize("name", list(KERNEL_COMMANDS))
    def test_stdout_bytes_unchanged(self, capsys, tmp_path, name):
        files = {key: write_json(tmp_path, f"{key}.json", doc)
                 for key, doc in KERNEL_INPUTS.items()}
        files["csv"] = str(tmp_path / "trace.csv")
        argv = [arg.format(**files) for arg in KERNEL_COMMANDS[name]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if name == "classify-csv":
            out += Path(files["csv"]).read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_STDOUT_SHA256[name]


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, doc", [
        (["classify"], {"q": ["0", "0"], "b": ["inf"]}),
        (["spectrum", "--n", "2"], {"q": ["nan", "0"], "b": ["1"]}),
        (["measure-to-jacobi", "--n", "1"],
         {"kind": "atomic", "points": ["0", "inf"], "weights": ["1/2", "1/2"]}),
        (["measure-to-jacobi", "--n", "1"],
         {"kind": "atomic", "points": ["0", "1"], "weights": ["1/2", "inf"]}),
    ], ids=["inf-offdiagonal", "nan-diagonal", "inf-point", "inf-weight"])
    def test_rejected_at_load(self, capsys, tmp_path, argv, doc):
        doc = dict(doc, precision={"mode": "bigfloat", "bits": 128})
        code, out, err = run_cli(capsys, *argv, "--in",
                                 write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: ValueError: ")
        assert "must be finite" in err


class TestNonFiniteOperatorInput:
    # the operator-side bases refuse a non-finite vector or alpha up front,
    # rather than failing in the SVD or the power orbit
    PROBE = ["gram-check", "--probe", *HERMITE, "--truncation", "10", "--n", "3"]
    STONE = ["stone", "--route", "operator", *HERMITE, "--truncation", "20", "--n", "4"]

    @pytest.mark.parametrize("argv, message", [
        (PROBE + ["--g", "inf"], "probe vector must be finite"),
        (PROBE + ["--g", "nan"], "probe vector must be finite"),
        (STONE + ["--alpha", "1/2", "--g", "nan,1"], "generating vector must be finite"),
        (STONE + ["--alpha", "inf"], "alpha must be finite and nonnegative"),
    ], ids=["probe-inf", "probe-nan", "stone-nan-vector", "stone-inf-alpha"])
    def test_validation_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {message}\n"


class TestZeroDenominator:
    # a "p/0" entry is refused where ratio strings are parsed, in every
    # arithmetic mode, not left to escape as a ZeroDivisionError
    ATOMS = {"kind": "atomic", "points": ["-1", "0", "1"], "weights": ["1/4", "1/2", "1/4"],
             "precision": {"mode": "bigfloat", "bits": 128}}

    @pytest.mark.parametrize("argv, doc", [
        (["validate-moments", "--k-max", "1"],
         {"values": ["1", "1/0", "1", "1"], "precision": {"mode": "double"}}),
        (["classify"], {"q": ["0", "1/0"], "b": ["1"]}),
        (["measure-to-jacobi", "--n", "1"],
         dict(ATOMS, points=["0", "1/0"], weights=["1/2", "1/2"],
              precision={"mode": "rational", "bits": 256})),
        (["pipeline"], {"measure": ATOMS, "transforms": [{"gauss_damp": "1/0"}], "n": 2}),
    ], ids=["moments", "jacobi", "measure", "pipeline"])
    def test_validation_error(self, capsys, tmp_path, argv, doc):
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == "error: ValueError: zero denominator in '1/0'\n"


class TestInfiniteDamping:
    # exp(-2 alpha t^2) with alpha = inf is no multiplier: refused with exit
    # 2 like a NaN, not left to fail the integration with exit 3
    ATOMS = TestZeroDenominator.ATOMS
    MESSAGE = "error: ValueError: gauss_damp exponent must be finite and nonnegative\n"

    @pytest.mark.parametrize("argv", [
        ["transform", "--gauss-damp", "inf"],
        ["stone", "--alpha", "inf", "--n", "2"],
        ["measure-to-jacobi", "--n", "2"],
    ], ids=["transform-flag", "stone-measure-route", "measure-document"])
    def test_measure_commands(self, capsys, tmp_path, argv):
        doc = self.ATOMS
        if argv[0] == "measure-to-jacobi":
            doc = dict(doc, transforms=[{"gauss_damp": "inf"}])
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out, err) == (2, "", self.MESSAGE)

    def test_pipeline_document(self, capsys, tmp_path):
        doc = {"measure": self.ATOMS, "transforms": [{"gauss_damp": "inf"}], "n": 2}
        code, out, err = run_cli(capsys, "pipeline", "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out, err) == (2, "", self.MESSAGE)


class TestGaussDampRoutes:
    # one reader for transform entries: a JSON-number exponent is read by its
    # decimal text, so a measure document, a pipeline document and the flag
    # damp by the same exponent and give the same matrix
    ATOMS = {"kind": "atomic", "points": ["-1", "0", "2"], "weights": ["1/4", "1/2", "1/4"],
             "precision": {"mode": "bigfloat", "bits": 128}}

    def test_same_matrix(self, capsys, tmp_path):
        def jacobi(*argv, doc):
            code, out, _ = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
            assert code == 0
            J = json.loads(out)
            J = J.get("jacobi", J)
            return J["q"], J["b"]

        damp = [{"gauss_damp": 0.1}]
        code, out, _ = run_cli(capsys, "transform", "--gauss-damp", "0.1",
                               "--in", write_json(tmp_path, "atoms.json", self.ATOMS))
        assert code == 0
        routes = [
            jacobi("measure-to-jacobi", "--n", "3", doc=dict(self.ATOMS, transforms=damp)),
            jacobi("pipeline", doc={"measure": self.ATOMS, "transforms": damp, "n": 3}),
            jacobi("measure-to-jacobi", "--n", "3", doc=json.loads(out)),
        ]
        assert routes[0] == routes[1] == routes[2]
        assert routes[0][0][0].startswith("0.024457073025904936105")


class TestDocumentIntegers:
    # integers in documents are read exactly: a bool or a non-integral
    # number is refused with exit 2, not truncated
    ATOMS = {"kind": "atomic", "points": ["-1", "0", "1"], "weights": ["1/4", "1/2", "1/4"],
             "precision": {"mode": "rational", "bits": 256}}
    DENSITY = {"kind": "density", "weight": "gaussian",
               "quadrature": {"rule": "gauss_from_jacobi",
                              "reference": {"family": "hermite_like"}, "n_nodes": 6},
               "precision": {"mode": "bigfloat", "bits": 128}}

    @classmethod
    def case(cls, field, value):
        """(argv, document) with ``field`` set to ``value``."""
        if field == "n_nodes":
            quad = dict(cls.DENSITY["quadrature"], n_nodes=value)
            return ["measure-to-jacobi", "--n", "3"], dict(cls.DENSITY, quadrature=quad)
        if field == "max_subdiv":
            quad = {"rule": "adaptive", "max_subdiv": value}
            return ["measure-to-jacobi", "--n", "2"], dict(cls.DENSITY, quadrature=quad)
        if field == "power_lift":
            return (["measure-to-jacobi", "--n", "2"],
                    dict(cls.ATOMS, transforms=[{"power_lift": value}]))
        if field == "family n":
            return ["classify"], {"family": "lognormal", "n": value}
        if field == "bits":
            return (["measure-to-jacobi", "--n", "2"],
                    dict(cls.ATOMS, precision={"mode": "bigfloat", "bits": value}))
        if field == "n":
            return ["pipeline"], {"measure": cls.ATOMS, "n": value}
        return ["pipeline"], {"measure": cls.ATOMS, "n": 3,
                              "classify": {"n_max": 3, "start": 1, field: value}}

    FIELDS = ["n_nodes", "max_subdiv", "power_lift", "family n", "bits", "n",
              "n_max", "window", "start"]

    @pytest.mark.parametrize("value", [2.9, True, "2.5"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_integer_refused(self, capsys, tmp_path, field, value):
        argv, doc = self.case(field, value)
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        what = "power_lift exponent" if field == "power_lift" else field
        assert err == f"error: ValueError: {what} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("field", ["n_nodes", "power_lift", "family n", "bits", "n",
                                       "n_max", "window", "start"])
    def test_integral_number_and_string_load(self, capsys, tmp_path, field):
        outs, v = [], 64 if field == "bits" else 3
        for value in (v, str(v), float(v)):
            argv, doc = self.case(field, value)
            code, out, _ = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
            outs.append((code, out))
        assert outs[0][0] in (0, 3) and outs[1] == outs[0] == outs[2]


class TestClassifyPolicyFlags:
    # thresholds that could never give a verdict are refused before the scan
    @pytest.mark.parametrize("flag, value, message", [
        ("--eps-zero", "nan", "eps_zero must be finite and positive, got nan"),
        ("--eps-zero", "0", "eps_zero must be finite and positive, got 0.0"),
        ("--eps-stable", "-1", "eps_stable must be finite and positive, got -1.0"),
        ("--eps-stable", "inf", "eps_stable must be finite and positive, got inf"),
        ("--window", "0", "window must be positive"),
    ], ids=["eps-zero-nan", "eps-zero-0", "eps-stable-negative", "eps-stable-inf", "window-0"])
    def test_validation_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "classify", *HERMITE, flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {message}\n"


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
         2, "ValueError"),
        (["validate-moments", "--k-max", "1"], {"values": ["1", None, "1"]}, 2, "ValueError"),
        (["jacobi-to-moments", "--m", "10"], {"q": ["0", "0"], "b": ["1"]},
         3, "CoefficientExhausted"),
        (["stone", "--route", "operator", "--family", "hermite_like", "--alpha", "1/2",
          "--truncation", "3", "--n", "8"], None, 3, "TruncationTooSmall"),
        # zero-valued flags are invalid values, not requests for the default
        (["classify", "--family", "hermite_like", "--precision-bits", "0"], None, 2,
         "ValueError"),
        (["weyl-radii", "--family", "hermite_like", "--n-max", "0"], None, 2, "ValueError"),
        (["pipeline"], {"measure": {"kind": "atomic", "points": ["0", "1"],
                                    "weights": ["1/2", "1/2"]},
                        "n": 2, "classify": {"start": 0}}, 2, "ValueError"),
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
        # a TypeError or KeyError is a programming error, not a bad document
        assert _exit_code(TypeError()) is None and _exit_code(KeyError()) is None


ADAPTIVE_GAUSSIAN = {"kind": "density", "weight": "gaussian",
                     "quadrature": {"rule": "adaptive", "max_subdiv": 10, "tol": "1e-20"},
                     "precision": {"mode": "bigfloat", "bits": 128}}


class TestQuadratureSpecValues:
    # a negative subdivision budget used to escape as IndexError, and a
    # non-finite tol switched the error budget off and wrote bare NaN or
    # Infinity into the output
    @pytest.mark.parametrize("entry, message", [
        ({"max_subdiv": -1}, "max_subdiv must be nonnegative"),
        ({"tol": "nan"}, "tol must be finite and positive, got nan"),
        ({"tol": "inf"}, "tol must be finite and positive, got inf"),
        ({"tol": True}, "expected a number, got True"),
    ], ids=["max-subdiv-negative", "tol-nan", "tol-inf", "tol-bool"])
    def test_validation_error(self, capsys, tmp_path, entry, message):
        doc = json.loads(json.dumps(ADAPTIVE_GAUSSIAN))
        doc["quadrature"].update(entry)
        code, out, err = run_cli(capsys, "transform", "--power-lift", "1", "--in",
                                 write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {message}\n"


class TestPrecisionTolerances:
    # the tolerances follow from the mode: a document's abs_tol or rel_tol
    # neither turns the s_0 = 1 check off nor reads positive D_k as zero
    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("abs_tol", "rel_tol") for value in ("10", "nan", "inf", True)
    ])
    def test_validation_error(self, capsys, tmp_path, field, value):
        precision = {"mode": "bigfloat", "bits": 128, field: value}
        unnormalized = {"values": ["5", "0", "1", "0", "3"], "precision": precision}
        code, out, err = run_cli(capsys, "moments-to-jacobi", "--n", "1", "--in",
                                 write_json(tmp_path, "in.json", unnormalized))
        assert (code, out) == (2, "")
        assert err == "error: ValueError: normalized sequence requires s_0 = 1\n"
        gauss = write_json(tmp_path, "gauss.json",
                           dict(unnormalized, values=["1", "0", "1", "0", "3"]))
        code, out, _ = run_cli(capsys, "validate-moments", "--k-max", "2", "--in", gauss)
        assert code == 0 and json.loads(out)["positive"] is True
        code, out, _ = run_cli(capsys, "moments-to-jacobi", "--n", "2", "--in", gauss)
        assert code == 0
        assert json.loads(out)["precision"] == PrecisionConfig.bigfloat(128).to_json()


class TestDocumentShape:
    # a document or entry that is not a JSON object is refused, not read
    # through dict methods it lacks
    @pytest.mark.parametrize("argv, doc, message", [
        (["classify"], ["0", "1"], "document must be a JSON object"),
        (["classify"], "hermite_like", "document must be a JSON object"),
        (["transform", "--gauss-damp", "1"], [1], "document must be a JSON object"),
        (["measure-to-jacobi", "--n", "2"], "x", "document must be a JSON object"),
        (["validate-moments", "--k-max", "1"], ["1", "0", "1"], "document must be a JSON object"),
        (["pipeline"], {"measure": "x"}, "document must be a JSON object"),
        (["measure-to-jacobi", "--n", "2"], dict(ADAPTIVE_GAUSSIAN, quadrature=[1]),
         "quadrature must be a JSON object"),
        (["measure-to-jacobi", "--n", "2"],
         dict(ADAPTIVE_GAUSSIAN, quadrature={"rule": "gauss_from_jacobi",
                                             "reference": "hermite_like"}),
         "document must be a JSON object"),
        (["pipeline"], {"measure": {"kind": "atomic", "points": ["0", "1"],
                                    "weights": ["1/2", "1/2"]}, "n": 2, "classify": [1]},
         "classify must be a JSON object"),
    ], ids=["classify-list", "classify-string", "transform-list", "measure-string",
            "moments-list", "pipeline-measure", "quadrature-list", "reference-string",
            "pipeline-classify"])
    def test_validation_error(self, capsys, tmp_path, argv, doc, message):
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {message}\n"


class TestDocumentLists:
    # a string or object where a list belongs is refused, not read entry by
    # entry ("101" as 1, 0, 1) or key by key
    ATOMS = TestZeroDenominator.ATOMS

    @pytest.mark.parametrize("argv, doc, what, value", [
        (["validate-moments", "--k-max", "1"], {"values": "101"}, "values", "101"),
        (["moments-to-jacobi", "--n", "1"], {"values": {"1": 0, "0": 1}}, "values",
         {"1": 0, "0": 1}),
        (["classify"], {"q": "12", "b": ["3"]}, "q", "12"),
        (["jacobi-to-moments", "--m", "2"], {"q": ["1", "2"], "b": "3"}, "b", "3"),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, points="01"), "points", "01"),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, weights="111"), "weights", "111"),
        (["measure-to-jacobi", "--n", "2"], dict(ADAPTIVE_GAUSSIAN, support="01"),
         "support", "01"),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, transforms={"power_lift": 1}),
         "transforms", {"power_lift": 1}),
        (["pipeline"], {"measure": ATOMS, "transforms": {"gauss_damp": "1/2"}, "n": 2},
         "transforms", {"gauss_damp": "1/2"}),
    ], ids=["moments-string", "moments-object", "jacobi-q", "jacobi-b", "measure-points",
            "measure-weights", "measure-support", "measure-transforms", "pipeline-transforms"])
    def test_validation_error(self, capsys, tmp_path, argv, doc, what, value):
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {what} must be a JSON list, got {value!r}\n"


class TestWrongJsonTypes:
    # a null, list or object where a number belongs, a missing required
    # field and a transform entry that is no object are validation errors
    # naming what is wrong, not a TypeError or KeyError from the numerics
    ATOMS = TestZeroDenominator.ATOMS

    @pytest.mark.parametrize("argv, doc, message", [
        (["validate-moments", "--k-max", "1"], {"values": ["1", None, "1"]},
         "expected a number, got None"),
        (["moments-to-jacobi", "--n", "1"], {"values": ["1", [0], "1"]},
         "expected a number, got [0]"),
        (["jacobi-to-moments", "--m", "2"], {"q": [None], "b": []},
         "expected a number, got None"),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, weights=["1/4", {}, "1/4"]),
         "expected a number, got {}"),
        (["measure-to-jacobi", "--n", "2"], dict(ADAPTIVE_GAUSSIAN, support=[None, "1"]),
         "expected a number, got None"),
        (["validate-moments", "--k-max", "1"], {"precision": {"mode": "rational"}},
         "values must be a JSON list, got None"),
        (["measure-to-jacobi", "--n", "2"], {"kind": "atomic", "weights": ["1"]},
         "points must be a JSON list, got None"),
        (["measure-to-jacobi", "--n", "2"], {"kind": "atomic", "points": ["1"]},
         "weights must be a JSON list, got None"),
        (["measure-to-jacobi", "--n", "2"], {"kind": "density"},
         "density measure needs a weight name and quadrature"),
        (["measure-to-jacobi", "--n", "2"], dict(ADAPTIVE_GAUSSIAN, weight=["gaussian"]),
         "unknown weight ['gaussian'] (have: ['gaussian', 'lognormal-density', 'std_normal'])"),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, transforms=["gauss_damp"]),
         "a transform entry must be a JSON object, got 'gauss_damp'"),
        (["pipeline"], {"measure": ATOMS, "transforms": [1], "n": 2},
         "a transform entry must be a JSON object, got 1"),
        (["pipeline"], ["measure"], "pipeline document needs a 'measure' entry"),
    ], ids=["moments-null", "moments-list", "jacobi-null", "measure-object", "support-null",
            "missing-values", "missing-points", "missing-weights", "missing-weight",
            "weight-list", "transform-string", "pipeline-transform-number",
            "pipeline-list"])
    def test_validation_error(self, capsys, tmp_path, argv, doc, message):
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {message}\n"

    def test_int_too_large_for_a_double(self, capsys, tmp_path):
        # float(10**400) raised OverflowError, which no exit code covers
        doc = {"values": [1, 10 ** 400, 1]}
        code, out, err = run_cli(capsys, "validate-moments", "--k-max", "1", "--mode", "double",
                                 "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {10 ** 400!r} overflows a double\n"

    @pytest.mark.parametrize("argv, doc, what, value", [
        (["validate-moments", "--k-max", "1"],
         {"values": ["1", "0", "1"], "precision": {"mode": "bigfloat", "bits": 10 ** 400}},
         "bits", 10 ** 400),
        (["spectrum", "--n", "2"], {"family": "lognormal", "n": 1e300}, "family n", 1e300),
    ], ids=["bits", "family-n"])
    def test_huge_integer_refused(self, capsys, tmp_path, argv, doc, what, value):
        # a mantissa of 10^400 bits overflowed mpmath's precision setting and
        # left it set; a family of 10^300 rows ran until memory ran out
        code, out, err = run_cli(capsys, *argv, "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: {what} must be at most 16777216 in size, got {value!r}\n"


class TestBooleanNumbers:
    # a JSON true is no number: it is refused in every mode, not read as 1
    ATOMS = TestZeroDenominator.ATOMS

    @pytest.mark.parametrize("mode", ["rational", "double", "bigfloat"])
    @pytest.mark.parametrize("argv, doc", [
        (["validate-moments", "--k-max", "1"], {"values": [True, 0, 1]}),
        (["classify"], {"q": [0, True], "b": [1]}),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, points=[False, 1, 2])),
        (["measure-to-jacobi", "--n", "2"], dict(ATOMS, weights=["1/4", "1/2", True])),
        (["pipeline"], {"measure": ATOMS, "n": 3, "classify": {"eps_zero": True}}),
        (["pipeline"], {"measure": ATOMS, "n": 3, "classify": {"eps_stable": True}}),
    ], ids=["moments", "jacobi", "measure-points", "measure-weights", "pipeline-eps-zero",
            "pipeline-eps-stable"])
    def test_validation_error(self, capsys, tmp_path, argv, doc, mode):
        code, out, err = run_cli(capsys, *argv, "--mode", mode,
                                 "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: ValueError: expected a number, got (True|False)\n", err)


def test_misspelled_quadrature_rule_refused(capsys, tmp_path):
    # only an absent rule means adaptive; a misspelled one is an error
    doc = dict(ADAPTIVE_GAUSSIAN, quadrature={"rule": "gauss_from_jacobbi"})
    code, out, err = run_cli(capsys, "transform", "--power-lift", "-1",
                             "--in", write_json(tmp_path, "in.json", doc))
    assert (code, out) == (2, "")
    assert err == "error: ValueError: unknown quadrature rule 'gauss_from_jacobbi'\n"


class TestPowerLiftExponent:
    # a lift exponent is an integer; anything else is refused with exit 2,
    # not truncated to one
    ATOMS = {"kind": "atomic", "points": ["-1", "1"], "weights": ["1/2", "1/2"],
             "precision": {"mode": "rational", "bits": 256}}

    @pytest.mark.parametrize("lift", [1.5, True])
    def test_measure_document(self, capsys, tmp_path, lift):
        doc = dict(self.ATOMS, transforms=[{"power_lift": lift}])
        code, out, err = run_cli(capsys, "measure-to-jacobi", "--n", "2",
                                 "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: ValueError: power_lift exponent")

    @pytest.mark.parametrize("lift", [0.5, False])
    def test_pipeline_document(self, capsys, tmp_path, lift):
        doc = {"measure": self.ATOMS, "transforms": [{"power_lift": lift}], "n": 2}
        code, out, err = run_cli(capsys, "pipeline",
                                 "--in", write_json(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: ValueError: power_lift exponent")


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

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "hermite_like", "--n", "2"],
        ["pi-eval", "--family", "hermite_like", "--z", "i", "--n", "2"],
        ["transform", "--gauss-damp", "1/2", "--in", "{atoms}"],
    ], ids=["spectrum", "pi-eval", "transform"])
    def test_strict_only_where_a_verdict_is_printed(self, capsys, atomic_measure_file, argv):
        argv = [arg.format(atoms=atomic_measure_file) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--strict")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --strict" in err


class TestFlagNumbers:
    # a number on the command line is read as the same number in a document:
    # ratios and decimals at the configured precision, non-finite refused
    def test_z_read_at_the_configured_precision(self, capsys):
        code, out, _ = run_cli(capsys, "pi-eval", *HERMITE, "--z", "0.1+i", "--n", "2")
        cfg = PrecisionConfig.bigfloat(256)
        assert code == 0
        assert json.loads(out)["z"] == format_number(convert("0.1", cfg), cfg) + "+1.0i"

    ATOMS = {"kind": "atomic", "points": ["-1", "0", "1"], "weights": ["1/4", "1/2", "1/4"]}

    @pytest.mark.parametrize("z", ["nan+i", "inf", "abc"])
    @pytest.mark.parametrize("argv", [
        ["pi-eval", *HERMITE, "--n", "2"],
        ["weyl-radii", *HERMITE, "--n-list", "8"],
        ["classify", *HERMITE],
        ["pipeline"],
    ], ids=["pi-eval", "weyl-radii", "classify", "pipeline"])
    def test_bad_z_is_a_validation_error(self, capsys, tmp_path, argv, z):
        if argv == ["pipeline"]:
            doc = {"measure": self.ATOMS, "n": 2, "classify": {"z": z}}
            argv = argv + ["--in", write_json(tmp_path, "in.json", doc)]
        else:
            argv = argv + ["--z", z]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ValueError: ")

    def test_g_read_like_a_document_number(self, capsys):
        cfg = PrecisionConfig()
        J = momprob.families.make("hermite_like", precision=cfg)
        g = [convert("1/3", cfg), convert("1", cfg)]
        probe = ["gram-check", "--probe", *HERMITE, "--truncation", "12", "--n", "3"]
        code, out, _ = run_cli(capsys, *probe, "--g", "1/3,1")
        assert code == 0
        smin = json.loads(out)["smallest_singular_value"]
        assert smin == repr(representation_diagnostic(J, g, N=12, n=3))

        stone = ["stone", "--route", "operator", *HERMITE, "--alpha", "1/2",
                 "--truncation", "8", "--n", "2"]
        code, out, _ = run_cli(capsys, *stone, "--g", "1/3,1")
        assert code == 0
        section, basis = stone_jacobi_operator_route(J, convert("1/2", cfg), g, N=8, n=2)
        assert json.loads(out) == dict(section.to_json(), basis_columns=[
            [format_number(x, cfg) for x in col] for col in basis.vectors])
        # not the double nearest 1/3, as a float() reading gave
        assert run_cli(capsys, *stone, "--g", repr(1 / 3) + ",1")[1] != out

    def test_policy_flags_read_like_a_pipeline_document(self, capsys):
        argv = ["classify", *HERMITE, "--n-max", "64"]
        got = run_cli(capsys, *argv, "--eps-zero", "1/1000")
        assert got[0] == 0
        assert got == run_cli(capsys, *argv, "--eps-zero", "0.001")


SUBCOMMANDS = sorted(next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)).choices)


class TestSubcommands:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help(self, capsys, name):
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0
        assert out.startswith(f"usage: momprob {name} ")

    def test_readme_lists_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        listed = {line.split()[1] for line in block.splitlines() if line.startswith("momprob ")}
        assert listed == set(SUBCOMMANDS)
