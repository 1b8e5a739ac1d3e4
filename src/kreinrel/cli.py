"""Command line front end: gen, check, sweep, report.

Exit codes: 0 on success, 1 when a check suite has failures, a
mathematical precondition fails (e.g. a sweep over an isometric pair
whose ker Gamma_# is not symmetric) or a file cannot be read, 2 for
usage errors (unknown subcommand, bad flags, unknown theorem id,
malformed input files).  All randomness is controlled by --seed, and
repeated invocations with identical arguments produce byte-identical
output.
"""

import argparse
import json
import sys

import numpy as np

from .checks import SWEEP_COLUMNS, THEOREM_IDS, check_theorem, weyl_sweep
from .errors import KreinRelError, ValidationError
from .generators import InstanceSpec, gen_obt, gen_unitary_boundary_pair, rng_stream
from .serialize import dump, load
from .subspaces import DEFAULT_TOL, Tolerance

__all__ = ["main"]


def _parse_dims(text):
    sep = next((s for s in (":", ",", "..") if s in text), None)
    try:
        lo, hi = text.split(sep, 1) if sep else (text, text)
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(
            f"--dims takes lo:hi or one integer, not {text!r}") from None


def _parse_grid(text):
    try:
        lo, hi, num = text.split(":")
        return np.linspace(float(lo), float(hi), int(num))
    except ValueError:
        raise ValidationError(
            f"--re and --im take lo:hi:num, not {text!r}") from None


def _write_out(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fp:
            fp.write(text)


def _cmd_gen(args):
    spec = InstanceSpec(n=args.n, m=args.m, kappa_minus=args.kappa)
    gen = gen_obt if args.flavor == "obt" else gen_unitary_boundary_pair
    bp = gen(spec, rng_stream(args.seed), DEFAULT_TOL)
    _write_out(dump(bp), args.out)
    return 0


def _reports_to_csv(reports):
    lines = ["theorem_id,trials,failures,worst_residual,seed,vacuous_clauses"]
    for r in reports:
        clauses = ";".join(r.vacuous_clauses)
        lines.append(f"{r.theorem_id},{r.trials},{r.failures},"
                     f"{r.worst_residual!r},{r.seed},{clauses}")
    return "\n".join(lines) + "\n"


def _cmd_check(args):
    ids = list(THEOREM_IDS) if args.ids == ["all"] else args.ids
    for tid in ids:
        if tid not in THEOREM_IDS:
            raise ValidationError(f"unknown theorem id: {tid!r}")
    dims = _parse_dims(args.dims)
    tol = DEFAULT_TOL if args.tol is None else Tolerance(angle_tol=args.tol)
    reports = [check_theorem(tid, trials=args.trials, dims=dims,
                             seed=args.seed, tol=tol)
               for tid in sorted(ids)]
    if args.format == "csv":
        text = _reports_to_csv(reports)
    elif len(reports) == 1:
        text = reports[0].to_json()
    else:
        text = "[" + ",".join(r.to_json() for r in reports) + "]"
    _write_out(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(args):
    with open(args.instance) as fp:
        bp = load(fp)
    res = _parse_grid(args.re)
    ims = _parse_grid(args.im)
    points = [complex(a, b) for b in ims for a in res]
    csv_text = weyl_sweep(bp, points)
    _write_out(csv_text, args.out)
    return 0


def _load_reports(paths):
    reports = []
    for path in paths:
        with open(path) as fp:
            try:
                data = json.load(fp)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ValidationError(f"{path}: malformed JSON: {exc}")
        records = data if isinstance(data, list) else [data]
        for rec in records:
            try:
                if not isinstance(rec["theorem_id"], str):
                    raise TypeError("theorem_id is not a string")
                reports.append({
                    "theorem_id": rec["theorem_id"],
                    "trials": int(rec["trials"]),
                    "failures": int(rec["failures"]),
                    "worst_residual": float(rec["worst_residual"]),
                    "seed": int(rec["seed"]),
                })
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: malformed report: {exc}")
    return reports


def _cmd_report(args):
    reports = sorted(_load_reports(args.files),
                     key=lambda r: (r["theorem_id"], r["seed"]))
    summary = {
        "suites": len(reports),
        "total_trials": sum(r["trials"] for r in reports),
        "total_failures": sum(r["failures"] for r in reports),
        "worst_residual": max((r["worst_residual"] for r in reports),
                              default=0.0),
        "failing_ids": sorted({r["theorem_id"] for r in reports
                               if r["failures"]}),
        "all_passed": all(r["failures"] == 0 for r in reports),
    }
    if args.format == "csv":
        lines = ["theorem_id,trials,failures,worst_residual,seed"]
        lines += [f"{r['theorem_id']},{r['trials']},{r['failures']},"
                  f"{r['worst_residual']!r},{r['seed']}" for r in reports]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(summary, sort_keys=True)
    _write_out(text, args.out)
    return 0 if summary["all_passed"] else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kreinrel",
        description="Boundary pairs, Weyl families, and theorem checks "
                    "for linear relations between Krein spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance as JSON")
    p_gen.add_argument("--flavor", choices=("unitary", "obt"),
                       default="unitary")
    p_gen.add_argument("--n", type=int, default=2,
                       help="state space dimension")
    p_gen.add_argument("--m", type=int, default=1,
                       help="boundary space dimension")
    p_gen.add_argument("--kappa", type=int, default=0,
                       help="negative index of the state space")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser(
        "check", help="run theorem check suites; exit 1 on any failure")
    p_check.add_argument("ids", nargs="+", metavar="ID",
                         help=f"theorem id(s) or 'all'; known ids: "
                              f"{', '.join(THEOREM_IDS)}")
    p_check.add_argument("--seed", type=int, required=True,
                         help="RNG seed (required: reports are reproducible)")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--dims", default="1:4",
                         help="dimension range lo:hi for random instances")
    p_check.add_argument("--tol", type=float, default=None,
                         help="max principal angle for subspace equality; "
                              "also bounds the classification Gram entries")
    p_check.add_argument("--format", choices=("json", "csv"), default="json")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser(
        "sweep", help="sweep the Weyl family of a stored pair over a grid")
    p_sweep.add_argument("instance", help="boundary pair JSON file (from gen)")
    p_sweep.add_argument("--re", default="-2:2:5",
                         help="real grid lo:hi:num")
    p_sweep.add_argument("--im", default="0.5:2:5",
                         help="imaginary grid lo:hi:num (must avoid 0)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)
    p_sweep.description = ("CSV columns: " + ", ".join(SWEEP_COLUMNS))

    p_report = sub.add_parser(
        "report", help="aggregate check reports into one summary")
    p_report.add_argument("files", nargs="+", metavar="REPORT_JSON")
    p_report.add_argument("--format", choices=("json", "csv"), default="json")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KreinRelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
