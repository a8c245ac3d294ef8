"""Contract fuzzer for the command line.

Every subcommand that reads a document is fed a valid document, or one with
a single defect: an entry replaced by an edge value (a null, bool, list or
object where a number belongs, a bad number string, an int too large for a
double, a broken precision block) or a field deleted.  The flags that carry
numbers (``--z``, ``--g``, ``--alpha``, ``--gauss-damp``, ``--eps-zero`` and
``--n-list``) are fed good values and the edge strings in every mode.
Whatever the input, ``main`` returns one of the documented exit codes
(0/2/3/4) with no exception escaping it, writes an error exactly when it
fails, prints no non-finite number, and prints the same bytes when run
twice.
"""
import contextlib
import copy
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from momprob.cli import main

EXIT_CODES = {0, 2, 3, 4}
GOOD_TEXT = ["0", "1", "-1", "2", "1/2", "-3/4", "0.25", "1e3", "1e-40", "1.0000000000001"]
EDGE_TEXT = ["nan", "inf", "-inf", "1/0", "x", "", "1/2/3", "0x10"]
EDGE_NUMBERS = [10 ** 400, -(10 ** 400), 1e300, -1e-300]
EDGE = st.one_of(
    st.sampled_from(EDGE_TEXT),
    st.sampled_from([None, True, False, [], [1], {}, {"1": 0}, *EDGE_NUMBERS]),
)
PRECISION = st.one_of(st.fixed_dictionaries({"mode": st.sampled_from(["rational", "bigfloat"]),
                                             "bits": st.integers(53, 256)}),
                      st.just({"mode": "double"}))
SMALL_INT = st.integers(-2, 6)


def fraction_text(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@st.composite
def atoms(draw):
    """Strictly increasing points and positive weights of at most 6 atoms."""
    pts = sorted(draw(st.sets(st.integers(-8, 8), min_size=1, max_size=6)))
    scale = draw(st.sampled_from([1, 2, 4]))
    wts = draw(st.lists(st.integers(1, 4), min_size=len(pts), max_size=len(pts)))
    return ([fraction_text(Fraction(p, scale)) for p in pts],
            [fraction_text(Fraction(w, sum(wts))) for w in wts])


@st.composite
def moment_document(draw):
    """Moments of an atomic measure (positive up to its support size), or a
    sequence s_0 = 1, s_1, ... of arbitrary entries."""
    if draw(st.booleans()):
        pts, wts = draw(atoms())
        m = draw(st.integers(0, 11))
        values = [fraction_text(sum(Fraction(w) * Fraction(p) ** k for p, w in zip(pts, wts)))
                  for k in range(m + 1)]
    else:
        values = ["1"] + draw(st.lists(st.sampled_from(GOOD_TEXT), max_size=6))
    return {"values": values, "precision": draw(PRECISION)}


@st.composite
def jacobi_document(draw):
    if draw(st.booleans()):
        return {"family": draw(st.sampled_from(["hermite_like", "lognormal"])),
                "n": draw(st.integers(1, 6)), "precision": draw(PRECISION)}
    q = draw(st.lists(st.sampled_from(GOOD_TEXT), min_size=1, max_size=6))
    b = draw(st.lists(st.sampled_from(["1", "1/2", "2", "0.25", "3"]),
                      min_size=len(q) - 1, max_size=len(q) - 1))
    return {"q": q, "b": b, "precision": draw(PRECISION)}


@st.composite
def measure_document(draw):
    transforms = draw(st.lists(st.one_of(
        st.fixed_dictionaries({"gauss_damp": st.sampled_from(["0", "1/4", "1"])}),
        st.fixed_dictionaries({"power_lift": st.integers(-1, 1)})), max_size=2))
    if draw(st.booleans()):
        pts, wts = draw(atoms())
        return {"kind": "atomic", "points": pts, "weights": wts, "transforms": transforms,
                "precision": draw(PRECISION)}
    return {"kind": "density", "weight": "gaussian", "transforms": transforms,
            "quadrature": {"rule": "gauss_from_jacobi",
                           "reference": {"family": "hermite_like"},
                           "n_nodes": draw(st.integers(1, 6))},
            "precision": draw(PRECISION)}


@st.composite
def pipeline_document(draw):
    return {"measure": draw(measure_document()), "n": draw(st.integers(1, 6)),
            "classify": {"n_max": draw(st.integers(1, 16))}}


def entries(doc, path=()):
    """The path of every entry in a JSON document, the document's own ()."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from entries(value, path + (key,))


@st.composite
def with_one_defect(draw, documents):
    """A document from ``documents``, left valid, or with one entry replaced
    by an edge value or deleted."""
    doc = copy.deepcopy(draw(documents))  # st.just shares its value between draws
    action = draw(st.sampled_from(["keep", "replace", "replace", "delete"]))
    if action == "keep":
        return doc
    path = draw(st.sampled_from(list(entries(doc))))
    if not path:
        return draw(EDGE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "replace":
        parent[path[-1]] = draw(EDGE)
    else:
        del parent[path[-1]]
    return doc


def command(argv, documents):
    return st.tuples(argv, with_one_defect(documents))


COMMANDS = st.one_of(
    command(st.builds(lambda k: ["validate-moments", "--k-max", str(k)], SMALL_INT),
            moment_document()),
    command(st.builds(lambda n: ["moments-to-jacobi", "--n", str(n)], SMALL_INT),
            moment_document()),
    command(st.builds(lambda m: ["jacobi-to-moments", "--m", str(m)], SMALL_INT),
            jacobi_document()),
    command(st.builds(lambda n: ["pi-eval", "--z", "0.5+i", "--n", str(n)], SMALL_INT),
            jacobi_document()),
    command(st.just(["weyl-radii", "--n-list", "1,2,4"]), jacobi_document()),
    command(st.just(["classify", "--n-max", "16"]), jacobi_document()),
    command(st.builds(lambda n: ["spectrum", "--n", str(n)], SMALL_INT), jacobi_document()),
    command(st.sampled_from([["transform", "--gauss-damp", "1/2"],
                             ["transform", "--power-lift", "1"]]), measure_document()),
    command(st.builds(lambda n: ["measure-to-jacobi", "--n", str(n)], SMALL_INT),
            measure_document()),
    command(st.builds(lambda n: ["f-basis", "--n", str(n)], SMALL_INT), measure_document()),
    command(st.builds(lambda n: ["index", "--n-max", str(n)], st.integers(1, 3)),
            measure_document()),
    command(st.just(["pipeline"]), pipeline_document()),
)


@pytest.fixture(scope="module")
def infile(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


def run(argv):
    """Exit code, stdout and stderr of one in-process run of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(cmd=COMMANDS)
def test_documented_exit_codes_and_stable_output(infile, cmd):
    argv, doc = cmd
    infile.write_text(json.dumps(doc))
    argv = argv + ["--in", str(infile)]
    code, out, err = run(argv)
    assert code in EXIT_CODES, (argv, doc, err)
    assert (code == 0) == (err == "") == (out != ""), (argv, doc, err)
    assert not re.search(r"\b(nan|inf)\b", out), (argv, doc, out)
    assert run(argv) == (code, out, err)


HERMITE = ["--family", "hermite_like"]
ATOMS = {"kind": "atomic", "points": ["-1", "0", "1/2", "2"],
         "weights": ["1/4", "1/4", "1/4", "1/4"]}
# a flag value: a good number, a complex one for --z, or an edge string
FLAG_VALUE = st.one_of(
    st.sampled_from(GOOD_TEXT + ["i", "-2i", "1/3-2i", "1e-3+i", "1,2", "2,0,1/3"]),
    st.sampled_from(EDGE_TEXT + [str(x) for x in EDGE_NUMBERS] + ["nan+i", "1-infi", "1,nan"]),
)
FLAG_COMMANDS = st.sampled_from([
    lambda v: ["pi-eval", *HERMITE, "--z", v, "--n", "3"],
    lambda v: ["weyl-radii", *HERMITE, "--z", v, "--n-list", "2,4"],
    lambda v: ["weyl-radii", *HERMITE, "--z", "i", "--n-list", v],
    lambda v: ["classify", *HERMITE, "--n-max", "16", "--z", v],
    lambda v: ["classify", *HERMITE, "--n-max", "16", "--eps-zero", v],
    lambda v: ["stone", "--route", "operator", *HERMITE, "--alpha", "1/2",
               "--truncation", "8", "--n", "2", "--g", v],
    lambda v: ["stone", "--route", "operator", *HERMITE, "--alpha", v,
               "--truncation", "8", "--n", "2"],
    lambda v: ["gram-check", "--probe", *HERMITE, "--truncation", "8", "--n", "2", "--g", v],
    lambda v: ["stone", "--alpha", v, "--n", "2", "--in", "{atoms}"],
    lambda v: ["transform", "--gauss-damp", v, "--in", "{atoms}"],
    lambda v: ["index", "--n-max", "2", "--alpha", v, "--in", "{atoms}"],
])


@pytest.mark.filterwarnings("ignore::momprob.errors.AlphaBelowThreshold")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(cmd=FLAG_COMMANDS, value=FLAG_VALUE,
       mode=st.sampled_from(["rational", "bigfloat", "double"]))
def test_flag_values_keep_the_contract(infile, cmd, value, mode):
    infile.write_text(json.dumps(ATOMS))
    argv = [arg.format(atoms=infile) for arg in cmd(value)] + ["--mode", mode]
    code, out, err = run(argv)
    assert code in EXIT_CODES, (argv, err)
    assert (code == 0) == (err == "") == (out != ""), (argv, err)
    assert not re.search(r"\b(nan|inf)\b", out), (argv, out)
    assert run(argv) == (code, out, err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.lists(st.sampled_from(["0", "1", "-1", "1/2", "0.25", "1e3"]), max_size=5),
       at=st.integers(0, 5), wrong=st.sampled_from([None, [], [1], {}, {"1": 0}]),
       mode=st.sampled_from(["rational", "bigfloat", "double"]))
def test_wrong_json_type_is_a_validation_error(infile, values, at, wrong, mode):
    # a null, list or object where a moment belongs is named, in every mode
    values.insert(min(at, len(values)), wrong)
    infile.write_text(json.dumps({"values": values}))
    code, out, err = run(["validate-moments", "--k-max", "0", "--mode", mode,
                          "--in", str(infile)])
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: expected a number, got {wrong!r}\n"
