"""Command-line front end with JSON input/output.

Every library pipeline is reachable from exactly one subcommand.  Numbers
cross the boundary as decimal strings at the configured precision, flag
values included, so a fixed command line plus fixed input files produce
byte-identical output.

Exit codes: 0 success, 2 validation failure (bad flags, malformed JSON,
violated preconditions), 3 numerical failure (degenerate input, precision
loss, exhausted budgets), 4 inconclusive verdict under --strict.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import families
from .bases import (
    f_basis_gram,
    f_basis_jacobi,
    gram_deviation,
    representation_diagnostic,
    stone_jacobi_measure_route,
    stone_jacobi_operator_route,
)
from .determinacy import index_of_determinacy, infinite_index_probe
from .errors import InsufficientMoments, MomentProblemError, RealPoint
from .jacobi import (
    INCONCLUSIVE,
    ClassifyPolicy,
    JacobiMatrix,
    classify,
    pi_eval,
    truncation_spectrum,
    weyl_radii,
)
from .measures import Measure, Multiplier, measure_to_jacobi
from .moments import (
    MomentSequence,
    hankel_determinants,
    jacobi_to_moments,
    moments_to_jacobi,
    validate_positive,
)
from .precision import (
    BIGFLOAT,
    DOUBLE,
    RATIONAL,
    PrecisionConfig,
    convert,
    document_int,
    document_list,
    format_complex,
    format_number,
    parse_complex,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4

# Exit code of each exception class the CLI reports; an exception takes the
# code of the nearest class along its MRO, so a subclass listed here
# overrides its base.  Unlisted exceptions propagate as programming errors.
_EXIT_CODES = {
    MomentProblemError: EXIT_NUMERICAL,
    InsufficientMoments: EXIT_VALIDATION,
    RealPoint: EXIT_VALIDATION,
    ValueError: EXIT_VALIDATION,  # includes json.JSONDecodeError
    OSError: EXIT_VALIDATION,
}


def _exit_code(exc: BaseException):
    """Documented exit code of ``exc``, or None if the CLI does not handle it."""
    for cls in type(exc).__mro__:
        if cls in _EXIT_CODES:
            return _EXIT_CODES[cls]
    return None


def _build_parser():
    p = argparse.ArgumentParser(
        prog="momprob",
        description="moment problems, Jacobi matrices and measures at high precision",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, family=False, verdict=False):
        """Subcommand ``name``, run by ``run``, with the common flags; a
        ``verdict`` command's ``run`` also says whether it is inconclusive."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run, verdict=verdict)
        sp.add_argument("--in", dest="infile", help="input JSON file (- for stdin)")
        sp.add_argument("--out", dest="outfile", help="output JSON file (default stdout)")
        sp.add_argument("--mode", choices=[RATIONAL, BIGFLOAT, DOUBLE], default=None)
        sp.add_argument("--precision-bits", default=None)
        if verdict:
            sp.add_argument("--strict", action="store_true",
                            help="exit 4 on inconclusive verdicts")
        if family:
            sp.add_argument("--family", default=None)
            sp.add_argument("--family-n", type=int, default=None)
        return sp

    sp = command("validate-moments", _validate_moments, "Hankel positivity check")
    sp.add_argument("--k-max", type=int, required=True)

    sp = command("moments-to-jacobi", lambda a: moments_to_jacobi(_load_moments(a), a.n).to_json(),
                 "moments -> recurrence")
    sp.add_argument("--n", type=int, required=True)

    sp = command("jacobi-to-moments", lambda a: jacobi_to_moments(_load_jacobi(a), a.m).to_json(),
                 "recurrence -> moments", family=True)
    sp.add_argument("--m", type=int, required=True)

    sp = command("pi-eval", _pi_eval, "orthonormal polynomial values at z", family=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = command("weyl-radii", _weyl_radii, "nested circle radii at z", family=True)
    sp.add_argument("--z", default="i")
    sp.add_argument("--n-list", default=None, help="comma-separated checkpoint list")
    sp.add_argument("--n-max", default=None)  # read by _policy
    sp.add_argument("--csv", dest="csvfile", default=None,
                    help="also write an n,radius CSV trace")

    sp = command("classify", _classify, "determinacy classification", family=True, verdict=True)
    sp.add_argument("--z", default="i")
    for flag in ("--n-max", "--eps-zero", "--eps-stable", "--window"):
        sp.add_argument(flag)  # read by _policy, as in a pipeline document
    sp.add_argument("--csv", dest="csvfile", default=None)

    sp = command("spectrum", lambda a: truncation_spectrum(_load_jacobi(a), a.n).to_json(),
                 "Gauss measure of a finite section", family=True)
    sp.add_argument("--n", type=int, required=True, help="truncation size")

    sp = command("transform", _transform, "reweight a measure")
    sp.add_argument("--gauss-damp", dest="alpha", default=None)
    sp.add_argument("--power-lift", dest="lift", type=int, default=None)

    sp = command("measure-to-jacobi", lambda a: measure_to_jacobi(_load_measure(a), a.n).to_json(),
                 "measure -> recurrence")
    sp.add_argument("--n", type=int, required=True)

    sp = command("stone", _stone, "damped-vector basis matrix", family=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--route", choices=["measure", "operator"], default="measure")
    sp.add_argument("--g", default="1", help="operator route: comma-separated vector")
    sp.add_argument("--truncation", type=int, default=None,
                    help="operator route: finite-section size N")

    sp = command("f-basis", _f_basis, "weighted-polynomial basis matrix")
    sp.add_argument("--n", type=int, required=True)

    sp = command("gram-check", _gram_check, "orthonormality of the weighted basis", family=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--probe", action="store_true",
                    help="representation probe: smallest singular value of the "
                         "shifted power-orbit columns of a Jacobi matrix input")
    sp.add_argument("--truncation", type=int, default=None)
    sp.add_argument("--g", default="1", help="probe vector, comma-separated")

    sp = command("index", _index, "index of determinacy scan", verdict=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--alpha", default=None,
                    help="damp the measure first (infinite-index probe)")
    sp.add_argument("--depth", type=int, default=None)

    command("pipeline", _pipeline, "transform -> convert -> classify", verdict=True)
    return p


def _config_from_args(args):
    """Precision set by --mode/--precision-bits, read as a document's
    ``precision`` entry, or None to keep the input's."""
    given = {key: value for key, value in (("mode", args.mode), ("bits", args.precision_bits))
             if value is not None}
    return PrecisionConfig.from_json(given) if given else None


def _read_json(args):
    if not args.infile:
        raise ValueError("this command requires --in FILE")
    if args.infile == "-":
        return json.load(sys.stdin)
    with open(args.infile) as fh:
        return json.load(fh)


def _load_moments(args) -> MomentSequence:
    return MomentSequence.from_json(_read_json(args), precision=_config_from_args(args))


def _load_jacobi(args) -> JacobiMatrix:
    cfg = _config_from_args(args)
    if args.family:
        return families.make(args.family, precision=cfg, n=args.family_n)
    return JacobiMatrix.from_json(_read_json(args), precision=cfg)


def _load_measure(args) -> Measure:
    return Measure.from_json(_read_json(args), precision=_config_from_args(args))


def _load_section(args, needs: str):
    """The Jacobi matrix and ``--g`` vector of an operator-side command, with
    ``--g`` entries read like document numbers; ``needs`` names the command
    in the refusal of a missing ``--truncation``."""
    J = _load_jacobi(args)
    if args.truncation is None:
        raise ValueError(f"{needs} needs --truncation N")
    return J, [convert(x, J.precision) for x in args.g.split(",")]


def _emit(args, obj) -> None:
    text = json.dumps(obj, indent=2)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ClassifyPolicy fields that classify's flags and a pipeline document's
# "classify" entry may set, with their parsers
_POLICY_KEYS = {
    "n_max": partial(document_int, what="n_max"),
    "eps_zero": partial(convert, cfg=PrecisionConfig.double()),
    "eps_stable": partial(convert, cfg=PrecisionConfig.double()),
    "window": partial(document_int, what="window"),
    "z": partial(parse_complex, cfg=PrecisionConfig.double()),
    "start": partial(document_int, what="start"),
}


def _policy(given: dict, **kw) -> ClassifyPolicy:
    """ClassifyPolicy with the fields ``given`` sets; the rest keep their defaults."""
    if not isinstance(given, dict):
        raise ValueError("classify must be a JSON object")
    kw.update((key, parse(given[key])) for key, parse in _POLICY_KEYS.items()
              if given.get(key) is not None)
    return ClassifyPolicy(**kw)


def _write_csv(path, checkpoints, radii, cfg):
    with open(path, "w") as fh:
        fh.write("n,radius\n")
        for n, r in zip(checkpoints, radii):
            fh.write(f"{n},{format_number(r, cfg)}\n")


# -- subcommands: each returns its output document, a verdict command also
# whether the verdict is inconclusive


def _validate_moments(args):
    s = _load_moments(args)
    dets = hankel_determinants(s, args.k_max)
    return {"positive": validate_positive(s, args.k_max),
            "determinants": [format_number(d, s.precision) for d in dets]}


def _pi_eval(args):
    J = _load_jacobi(args)
    z = parse_complex(args.z, J.precision)
    return {"z": format_complex(z, J.precision),
            "values": [format_complex(v, J.precision) for v in pi_eval(J, z, args.n)]}


def _weyl_radii(args):
    J = _load_jacobi(args)
    z = parse_complex(args.z, J.precision)
    if args.n_list:
        ns = sorted({document_int(x, "n_list") for x in args.n_list.split(",")})
    else:
        ns = _policy({"n_max": args.n_max}, n_max=1024).checkpoints()
    radii = weyl_radii(J, z, ns)
    if args.csvfile:
        _write_csv(args.csvfile, ns, radii, J.precision)
    return {"z": format_complex(z, J.precision), "checkpoints": ns,
            "radii": [format_number(r, J.precision) for r in radii]}


def _classify(args):
    J = _load_jacobi(args)
    verdict = classify(J, _policy(vars(args)))
    if args.csvfile:
        _write_csv(args.csvfile, verdict.checkpoints, verdict.radii, J.precision)
    return verdict.to_json(J.precision), verdict.verdict == INCONCLUSIVE


def _transform(args):
    mu = _load_measure(args)
    if args.alpha is None and args.lift is None:
        raise ValueError("transform needs --gauss-damp and/or --power-lift")
    if args.alpha is not None:
        mu = mu.gauss_damp(convert(args.alpha, mu.precision))
    if args.lift is not None:
        mu = mu.power_reweight(args.lift)[0]
    return mu.to_json()


def _stone(args):
    if args.route == "measure":
        mu = _load_measure(args)
        return stone_jacobi_measure_route(mu, convert(args.alpha, mu.precision), args.n).to_json()
    J, g = _load_section(args, "operator route")
    J, basis = stone_jacobi_operator_route(J, convert(args.alpha, J.precision), g,
                                           N=args.truncation, n=args.n)
    return dict(J.to_json(), basis_columns=[[format_number(x, J.precision) for x in col]
                                            for col in basis.vectors])


def _f_basis(args):
    mu = _load_measure(args)
    J, C = f_basis_jacobi(mu, args.n)
    return dict(J.to_json(), normalization=format_number(C, mu.precision))


def _gram_check(args):
    if args.probe:
        J, g = _load_section(args, "the representation probe")
        smin = representation_diagnostic(J, g, N=args.truncation, n=args.n)
        return {"n": args.n, "truncation": args.truncation,
                "smallest_singular_value": repr(smin)}
    dev, imag = gram_deviation(f_basis_gram(_load_measure(args), args.n))
    return {"n": args.n, "max_identity_deviation": repr(dev),
            "max_imaginary_residue": repr(imag)}


def _index(args):
    mu = _load_measure(args)
    if args.alpha is not None:
        report = infinite_index_probe(mu, convert(args.alpha, mu.precision), args.n_max,
                                      depth=args.depth)
    else:
        report = index_of_determinacy(mu, args.n_max, depth=args.depth)
    # an inconclusive level ends the scan, so the report reads "at least"
    return (report.to_json(mu.precision),
            any(v.verdict == INCONCLUSIVE for _, v in report.per_level))


def _pipeline(args):
    result = run_pipeline(_read_json(args), _config_from_args(args))
    return result, result["verdict"]["verdict"] == INCONCLUSIVE


def _dispatch(args) -> int:
    out = args.run(args)
    doc, inconclusive = out if args.verdict else (out, False)
    _emit(args, doc)
    return EXIT_INCONCLUSIVE if inconclusive and args.strict else EXIT_OK


def run_pipeline(doc: dict, cfg=None) -> dict:
    """Chained transform -> measure-to-jacobi -> classify from one document.

    Expected keys: "measure" (measure JSON), optional "transforms" list,
    "n" (recurrence depth), optional "classify" policy overrides.
    """
    if not isinstance(doc, dict) or "measure" not in doc:
        raise ValueError("pipeline document needs a 'measure' entry")
    mu = Measure.from_json(doc["measure"], precision=cfg)
    constants = []
    for item in document_list(doc.get("transforms", []), "transforms"):
        m = Multiplier.from_json(item, mu.precision)
        if m.form == "gauss_damp":
            mu = mu.gauss_damp(m.param)
        else:
            mu, C = mu.power_reweight(m.param)
            constants.append(format_number(C, mu.precision))
    n = document_int(doc.get("n", 16), "n")
    J = measure_to_jacobi(mu, n)
    verdict = classify(J, _policy(doc.get("classify", {}), n_max=n))
    out = {
        "jacobi": J.to_json(),
        "verdict": verdict.to_json(mu.precision),
    }
    if constants:
        out["normalizations"] = constants
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
