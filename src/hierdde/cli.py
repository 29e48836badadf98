"""Command line interface.

Subcommands: spectrum, manifolds, classify, validate, example.  Exit codes:
0 success, 1 any other library error (a trivial polynomial, a root search
that cannot resolve its window), 2 configuration problem, 3 numerical
evaluation guard violation, 4 degenerate system refused by the classifier.
Each error exit prints one line on stderr.
"""

import argparse
import sys as _sys

from . import harness
from .errors import (ConfigError, DegenerateSystemError,
                     EvaluationRangeError, HierDdeError)


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


# config key of each override flag; eps and window are comma-separated
_OVERRIDES = (("eps", "eps"), ("window", "window"), ("out", "out"),
              ("format", "format"), ("tol", "tol"),
              ("grid_omega", "grid.omega"), ("grid_phase", "grid.phase"))


def _glued(argv):
    """``argv`` with each ``--eps``/``--window`` joined to the token after
    it as ``--window=<value>``: argparse takes a separate value that starts
    with ``-`` (a negative re_min) for an option.  Prefixes such as
    ``--win`` are joined too, as argparse resolves them to the flag."""
    out, i = list(argv), 0
    while i < len(out) - 1:
        t = out[i]
        if len(t) > 2 and ("--eps".startswith(t) or "--window".startswith(t)):
            out[i:i + 2] = [t + "=" + out[i + 1]]
        i += 1
    return out


def _configured(args):
    """The config file's object with each given flag written in under its
    config key, parsed once: a flag gets the checks of the entry it
    replaces."""
    data, base_dir = harness.read_config(args.config)
    for flag, key in _OVERRIDES:
        value = getattr(args, flag)
        if value is None or not isinstance(data, dict):
            continue
        if flag in ("eps", "window"):
            value = value.split(",")
        outer, _, inner = key.rpartition(".")
        entry = data.setdefault(outer, {}) if outer else data
        if isinstance(entry, dict):  # else config_from_dict refuses it
            entry[inner] = value
    return harness.config_from_dict(data, base_dir=base_dir)


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
        located = sum(int(run.roots.column("multiplicity").sum())
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
    args = _parser().parse_args(
        _glued(_sys.argv[1:] if argv is None else argv))
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
    except HierDdeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    _sys.exit(main())
