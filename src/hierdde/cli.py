"""Command line interface.

Subcommands: spectrum, manifolds, classify, validate, example.  Exit codes:
0 success, 2 configuration problem, 3 numerical evaluation guard violation,
4 degenerate system refused by the classifier.
"""

import argparse
import sys as _sys

from . import harness
from .errors import ConfigError, DegenerateSystemError, EvaluationRangeError


def _add_common(sp):
    sp.add_argument("--config", metavar="PATH", required=True,
                    help="JSON run configuration")
    sp.add_argument("--eps", metavar="LIST",
                    help="comma-separated eps values, strictly decreasing")
    sp.add_argument("--window", metavar="RE_MIN,RE_MAX,IM_MIN,IM_MAX",
                    help="search window in the complex plane")
    sp.add_argument("--out", metavar="DIR", help="output directory")
    sp.add_argument("--format", choices=("csv", "json"),
                    help="output format")
    sp.add_argument("--grid-omega", type=int, metavar="N",
                    help="frequency samples for manifold grids")
    sp.add_argument("--grid-phase", type=int, metavar="N",
                    help="phase samples per delay scale")
    sp.add_argument("--tol", type=float, metavar="X",
                    help="root location tolerance")


def _parser():
    p = argparse.ArgumentParser(
        prog="hierdde",
        description="Eigenvalue spectra of linear delay systems with "
                    "hierarchically large delays: exact roots, asymptotic "
                    "manifolds, stability verdicts, and cross-validation.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("spectrum", "locate eigenvalues in a window per eps"),
            ("manifolds", "sample the asymptotic spectral manifolds"),
            ("classify", "stability verdict from the manifold suprema"),
            ("validate", "match located eigenvalues to asymptotic sets")):
        _add_common(sub.add_parser(name, help=help_))
    ex = sub.add_parser("example",
                        help="run a named preset, comparing closed forms "
                             "against the general machinery")
    ex.add_argument("name", choices=harness.PRESET_NAMES)
    ex.add_argument("--out", metavar="DIR", default=".")
    ex.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _parse_list(text, what):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {text!r}") from exc


def _configured(args):
    cfg = harness.load_config(args.config)
    eps = _parse_list(args.eps, "eps") if args.eps else None
    window = _parse_list(args.window, "window") if args.window else None
    return harness.apply_overrides(
        cfg, eps=eps, window=window, out_dir=args.out,
        out_format=args.format, grid_omega=args.grid_omega,
        grid_phase=args.grid_phase, tol=args.tol)


def _dispatch(args):
    if args.command == "example":
        summary = harness.run_example(args.name, out_dir=args.out,
                                      out_format=args.format)
        print(f"example {args.name}: closed-form {summary['status_closed']}"
              f" vs general {summary['status_general']}; "
              f"sup discrepancy {summary['sup_gamma2_discrepancy']}")
        return
    cfg = _configured(args)
    if args.command == "spectrum":
        result = harness.run_spectrum(cfg)
        located = sum(sum(r.multiplicity for r in run.roots)
                      for run in result.runs)
        print(f"spectrum: {located} eigenvalues over "
              f"{len(result.runs)} eps values -> {result.path}")
    elif args.command == "manifolds":
        result = harness.run_manifolds(cfg)
        total = sum(len(v) for v in result.plain.values())
        print(f"manifolds: {total} samples -> "
              f"{', '.join(result.paths) or 'nothing written'}")
    elif args.command == "classify":
        verdict = harness.run_classify(cfg)
        scale = "" if verdict.scale is None else f" at scale {verdict.scale}"
        print(f"classify: {verdict.status}{scale}")
    elif args.command == "validate":
        report = harness.run_validate(cfg)
        for rec in report.records:
            worst = max(rec.max_distance.values(), default=0.0)
            print(f"validate eps={rec.eps:g}: {rec.count} eigenvalues, "
                  f"worst assigned distance {worst:.6g}")


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except EvaluationRangeError as exc:
        print(f"evaluation guard: {exc}", file=_sys.stderr)
        return 3
    except DegenerateSystemError as exc:
        print(f"degenerate system: {exc}", file=_sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    _sys.exit(main())
