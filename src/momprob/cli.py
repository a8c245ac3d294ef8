"""Command-line front end with JSON input/output.

Every library pipeline is reachable from exactly one subcommand.  Numbers
cross the boundary as decimal strings at the configured precision, so a
fixed command line plus fixed input files produce byte-identical output.

Exit codes: 0 success, 2 validation failure (bad flags, malformed JSON,
violated preconditions), 3 numerical failure (degenerate input, precision
loss, exhausted budgets), 4 inconclusive verdict under --strict.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath as mp

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
    weyl_radius,
)
from .measures import Measure, measure_to_jacobi
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
    format_complex,
    format_number,
    parse_complex,
    wp,
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
    KeyError: EXIT_VALIDATION,
    TypeError: EXIT_VALIDATION,
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

    def add_common(sp, infile=True):
        if infile:
            sp.add_argument("--in", dest="infile", help="input JSON file (- for stdin)")
        sp.add_argument("--out", dest="outfile", help="output JSON file (default stdout)")
        sp.add_argument("--mode", choices=[RATIONAL, BIGFLOAT, DOUBLE], default=None)
        sp.add_argument("--precision-bits", type=int, default=None)
        sp.add_argument("--strict", action="store_true",
                        help="exit 4 on inconclusive verdicts")
        return sp

    sp = add_common(sub.add_parser("validate-moments", help="Hankel positivity check"))
    sp.add_argument("--k-max", type=int, required=True)

    sp = add_common(sub.add_parser("moments-to-jacobi", help="moments -> recurrence"))
    sp.add_argument("--n", type=int, required=True)

    sp = add_common(sub.add_parser("jacobi-to-moments", help="recurrence -> moments"))
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)

    sp = add_common(sub.add_parser("pi-eval", help="orthonormal polynomial values at z"))
    sp.add_argument("--z", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)

    sp = add_common(sub.add_parser("weyl-radii", help="nested circle radii at z"))
    sp.add_argument("--z", default="i")
    sp.add_argument("--n-list", default=None, help="comma-separated checkpoint list")
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)
    sp.add_argument("--csv", dest="csvfile", default=None,
                    help="also write an n,radius CSV trace")

    sp = add_common(sub.add_parser("classify", help="determinacy classification"))
    sp.add_argument("--z", default="i")
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--eps-zero", type=float, default=None)
    sp.add_argument("--eps-stable", type=float, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)
    sp.add_argument("--csv", dest="csvfile", default=None)

    sp = add_common(sub.add_parser("spectrum", help="Gauss measure of a finite section"))
    sp.add_argument("--n", type=int, required=True, help="truncation size")
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)

    sp = add_common(sub.add_parser("transform", help="reweight a measure"))
    sp.add_argument("--gauss-damp", dest="alpha", default=None)
    sp.add_argument("--power-lift", dest="lift", type=int, default=None)

    sp = add_common(sub.add_parser("measure-to-jacobi", help="measure -> recurrence"))
    sp.add_argument("--n", type=int, required=True)

    sp = add_common(sub.add_parser("stone", help="damped-vector basis matrix"))
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--route", choices=["measure", "operator"], default="measure")
    sp.add_argument("--g", default="1", help="operator route: comma-separated vector")
    sp.add_argument("--truncation", type=int, default=None,
                    help="operator route: finite-section size N")
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)

    sp = add_common(sub.add_parser("f-basis", help="weighted-polynomial basis matrix"))
    sp.add_argument("--n", type=int, required=True)

    sp = add_common(sub.add_parser("gram-check", help="orthonormality of the weighted basis"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--probe", action="store_true",
                    help="representation probe: smallest singular value of the "
                         "shifted power-orbit columns of a Jacobi matrix input")
    sp.add_argument("--truncation", type=int, default=None)
    sp.add_argument("--g", default="1", help="probe vector, comma-separated")
    sp.add_argument("--family", default=None)
    sp.add_argument("--family-n", type=int, default=None)

    sp = add_common(sub.add_parser("index", help="index of determinacy scan"))
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--alpha", default=None,
                    help="damp the measure first (infinite-index probe)")
    sp.add_argument("--depth", type=int, default=None)

    sp = add_common(sub.add_parser("pipeline", help="transform -> convert -> classify"))
    return p


def _config_from_args(args, fallback=None):
    if fallback is not None and args.mode is None and args.precision_bits is None:
        return fallback
    mode = args.mode if args.mode is not None else BIGFLOAT
    if mode == BIGFLOAT:
        return PrecisionConfig.bigfloat(args.precision_bits or 256)
    if mode == RATIONAL:
        return PrecisionConfig.rational(args.precision_bits or 256)
    return PrecisionConfig.double()


def _read_json(args):
    if not args.infile:
        raise ValueError("this command requires --in FILE")
    if args.infile == "-":
        return json.load(sys.stdin)
    with open(args.infile) as fh:
        return json.load(fh)


def _load_moments(args) -> MomentSequence:
    obj = _read_json(args)
    cfg = None
    if args.mode is not None or args.precision_bits is not None:
        cfg = _config_from_args(args)
    return MomentSequence.from_json(obj, precision=cfg)


def _load_jacobi(args) -> JacobiMatrix:
    cfg = None
    if args.mode is not None or args.precision_bits is not None:
        cfg = _config_from_args(args)
    family = getattr(args, "family", None)
    if family:
        return families.make(family, precision=cfg, n=getattr(args, "family_n", None))
    obj = _read_json(args)
    return JacobiMatrix.from_json(obj, precision=cfg)


def _load_measure(args) -> Measure:
    obj = _read_json(args)
    cfg = None
    if args.mode is not None or args.precision_bits is not None:
        cfg = _config_from_args(args)
    return Measure.from_json(obj, precision=cfg)


def _emit(args, obj) -> None:
    text = json.dumps(obj, indent=2)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_policy_point(text) -> complex:
    return complex(parse_complex(text, PrecisionConfig.double()))


def _policy_from_args(args):
    kw = {}
    if args.n_max is not None:
        kw["n_max"] = args.n_max
    if getattr(args, "eps_zero", None) is not None:
        kw["eps_zero"] = args.eps_zero
    if getattr(args, "eps_stable", None) is not None:
        kw["eps_stable"] = args.eps_stable
    if getattr(args, "window", None) is not None:
        kw["window"] = args.window
    if getattr(args, "z", None):
        kw["z"] = _parse_policy_point(args.z)
    return ClassifyPolicy(**kw)


def _write_csv(path, checkpoints, radii, cfg):
    with open(path, "w") as fh:
        fh.write("n,radius\n")
        for n, r in zip(checkpoints, radii):
            fh.write(f"{n},{format_number(r, cfg)}\n")


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "validate-moments":
        s = _load_moments(args)
        dets = hankel_determinants(s, args.k_max)
        ok = validate_positive(s, args.k_max)
        _emit(args, {
            "positive": bool(ok),
            "determinants": [format_number(d, s.precision) for d in dets],
        })
        return EXIT_OK

    if cmd == "moments-to-jacobi":
        s = _load_moments(args)
        J = moments_to_jacobi(s, args.n)
        _emit(args, J.to_json())
        return EXIT_OK

    if cmd == "jacobi-to-moments":
        J = _load_jacobi(args)
        s = jacobi_to_moments(J, args.m)
        _emit(args, s.to_json())
        return EXIT_OK

    if cmd == "pi-eval":
        J = _load_jacobi(args)
        z = parse_complex(args.z, J.precision)
        vals = pi_eval(J, z, args.n)
        _emit(args, {
            "z": format_complex(z, J.precision),
            "values": [format_complex(v, J.precision) for v in vals],
        })
        return EXIT_OK

    if cmd == "weyl-radii":
        J = _load_jacobi(args)
        z = parse_complex(args.z, J.precision)
        if args.n_list:
            ns = sorted({int(x) for x in args.n_list.split(",")})
        else:
            ns = ClassifyPolicy(n_max=args.n_max or 1024).checkpoints()
        radii = [weyl_radius(J, z, n) for n in ns]
        if args.csvfile:
            _write_csv(args.csvfile, ns, radii, J.precision)
        _emit(args, {
            "z": format_complex(z, J.precision),
            "checkpoints": ns,
            "radii": [format_number(r, J.precision) for r in radii],
        })
        return EXIT_OK

    if cmd == "classify":
        J = _load_jacobi(args)
        policy = _policy_from_args(args)
        verdict = classify(J, policy)
        if args.csvfile:
            _write_csv(args.csvfile, verdict.checkpoints, verdict.radii, J.precision)
        _emit(args, verdict.to_json(J.precision))
        if args.strict and verdict.verdict == INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if cmd == "spectrum":
        J = _load_jacobi(args)
        mu = truncation_spectrum(J, args.n)
        _emit(args, mu.to_json())
        return EXIT_OK

    if cmd == "transform":
        mu = _load_measure(args)
        applied = False
        if args.alpha is not None:
            mu = mu.gauss_damp(convert_alpha(args.alpha, mu.precision))
            applied = True
        if args.lift is not None:
            mu, C = mu.power_reweight(args.lift)
            applied = True
        if not applied:
            raise ValueError("transform needs --gauss-damp and/or --power-lift")
        _emit(args, mu.to_json())
        return EXIT_OK

    if cmd == "measure-to-jacobi":
        mu = _load_measure(args)
        J = measure_to_jacobi(mu, args.n)
        _emit(args, J.to_json())
        return EXIT_OK

    if cmd == "stone":
        if args.route == "operator":
            J_in = _load_jacobi(args)
            if args.truncation is None:
                raise ValueError("operator route needs --truncation N")
            g = [float(x) for x in str(args.g).split(",")]
            J, basis = stone_jacobi_operator_route(
                J_in, convert_alpha(args.alpha, J_in.precision), g,
                N=args.truncation, n=args.n,
            )
            obj = J.to_json()
            obj["basis_columns"] = [
                [format_number(x, J.precision) for x in col] for col in basis.vectors
            ]
            _emit(args, obj)
            return EXIT_OK
        mu = _load_measure(args)
        J = stone_jacobi_measure_route(mu, convert_alpha(args.alpha, mu.precision), args.n)
        _emit(args, J.to_json())
        return EXIT_OK

    if cmd == "f-basis":
        mu = _load_measure(args)
        J, C = f_basis_jacobi(mu, args.n)
        obj = J.to_json()
        obj["normalization"] = format_number(C, mu.precision)
        _emit(args, obj)
        return EXIT_OK

    if cmd == "gram-check":
        if args.probe:
            J = _load_jacobi(args)
            if args.truncation is None:
                raise ValueError("the representation probe needs --truncation N")
            g = [float(x) for x in str(args.g).split(",")]
            smin = representation_diagnostic(J, g, N=args.truncation, n=args.n)
            _emit(args, {
                "n": args.n,
                "truncation": args.truncation,
                "smallest_singular_value": repr(smin),
            })
            return EXIT_OK
        mu = _load_measure(args)
        G = f_basis_gram(mu, args.n)
        dev, imag = gram_deviation(G)
        _emit(args, {
            "n": args.n,
            "max_identity_deviation": repr(dev),
            "max_imaginary_residue": repr(imag),
        })
        return EXIT_OK

    if cmd == "index":
        mu = _load_measure(args)
        if args.alpha is not None:
            report = infinite_index_probe(
                mu, convert_alpha(args.alpha, mu.precision), args.n_max,
                depth=args.depth,
            )
        else:
            report = index_of_determinacy(mu, args.n_max, depth=args.depth)
        _emit(args, report.to_json())
        if args.strict and report.kind == "at_least" and any(
            v.verdict == INCONCLUSIVE for _, v in report.per_level
        ):
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if cmd == "pipeline":
        doc = _read_json(args)
        cfg = None
        if args.mode is not None or args.precision_bits is not None:
            cfg = _config_from_args(args)
        result = run_pipeline(doc, cfg)
        _emit(args, result)
        if args.strict and result.get("verdict", {}).get("verdict") == INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    raise ValueError(f"unknown command {cmd!r}")


def convert_alpha(text, cfg):
    if cfg.mode == RATIONAL:
        return Fraction(str(text))
    with wp(cfg.working_bits()):
        s = str(text)
        if "/" in s:
            f = Fraction(s)
            return mp.mpf(f.numerator) / f.denominator
        return mp.mpf(s)


def run_pipeline(doc: dict, cfg=None) -> dict:
    """Chained transform -> measure-to-jacobi -> classify from one document.

    Expected keys: "measure" (measure JSON), optional "transforms" list,
    "n" (recurrence depth), optional "classify" policy overrides.
    """
    if "measure" not in doc:
        raise ValueError("pipeline document needs a 'measure' entry")
    mu = Measure.from_json(doc["measure"], precision=cfg)
    constants = []
    for item in doc.get("transforms", ()):
        if "gauss_damp" in item:
            mu = mu.gauss_damp(convert_alpha(item["gauss_damp"], mu.precision))
        elif "power_lift" in item:
            mu, C = mu.power_reweight(int(item["power_lift"]))
            constants.append(format_number(C, mu.precision))
        else:
            raise ValueError(f"unknown transform entry {item!r}")
    n = int(doc.get("n", 16))
    J = measure_to_jacobi(mu, n)
    pol = doc.get("classify", {})
    policy = ClassifyPolicy(
        n_max=int(pol.get("n_max", n)),
        eps_zero=float(pol.get("eps_zero", 1e-3)),
        eps_stable=float(pol.get("eps_stable", 1e-6)),
        window=int(pol.get("window", 3)),
        z=_parse_policy_point(pol.get("z", "1j")),
        start=int(pol.get("start", 8)),
    )
    verdict = classify(J, policy)
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
