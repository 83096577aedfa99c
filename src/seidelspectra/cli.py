"""Command line front end: spectrum, charpoly, verify, sweep, export.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, 3 I/O
failure.  Numeric output is fixed at 12 significant digits so golden-file
comparisons stay stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .closedform import CubicRoot, charpoly_closed, cubic_s, spectrum_closed
from .errors import DegenerateFamily, InvalidParams, UnsupportedShape
from .family import make_params, signed_edges, vertex_labels
from .polynomial import UniPoly
from .verify import DEFAULT_N_CAP, DENSE_N_MAX, discrepancy_notes, sweep, verify_instance

__all__ = ["main", "run"]


def _fmt_value(value: object) -> str:
    if isinstance(value, CubicRoot):
        return f"{float(value):.12g}"
    return str(value)  # an int, or a Fraction as num/den


def _json_value(value: object) -> object:
    if isinstance(value, int):
        return value
    return float(f"{float(value):.12g}")


def _json_deviation(value: float) -> float | None:
    """A deviation for JSON output; null when it is not finite, as JSON has no inf."""
    return float(f"{value:.12g}") if math.isfinite(value) else None


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = make_params(args.h, args.p, args.k)
    spectrum = spectrum_closed(params)
    coeffs = cubic_s(params)
    if args.format == "json":
        payload = {
            **params._asdict(),
            "eigenvalues": [
                {"value": _json_value(v), "multiplicity": m}
                for v, m in spectrum.entries
            ],
            "cubic": list(coeffs),
        }
        print(json.dumps(payload))
        return 0
    print(f"h={params.h} p={params.p} k={params.k} n={params.n}")
    print("eigenvalues:")
    for value, mult in spectrum.entries:
        print(f"  {_fmt_value(value)}  x{mult}")
    print(f"cubic coefficients (ascending): [{', '.join(str(c) for c in coeffs)}]")
    return 0


def cmd_charpoly(args: argparse.Namespace) -> int:
    params = make_params(args.h, args.p, args.k)
    if args.expanded and params.n > DENSE_N_MAX:
        raise UnsupportedShape(f"n = {params.n} is above DENSE_N_MAX = {DENSE_N_MAX}")
    fac = charpoly_closed(params)
    cubic_poly = UniPoly(fac.cubic)
    if args.format == "json":
        payload = {
            **params._asdict(),
            "degree": fac.degree,
            "factors": [
                {"root": fac.root1, "exponent": fac.e1},
                {"root": fac.root2, "exponent": fac.e2},
            ],
            "cubic": list(fac.cubic),
        }
        if args.expanded:
            payload["coefficients"] = list(fac.expand().coeffs)
        print(json.dumps(payload))
        return 0
    pieces = []
    if fac.e1:
        pieces.append(f"({fac.root1} - x)^{fac.e1}")
    if fac.e2:
        pieces.append(f"({fac.root2} - x)^{fac.e2}")
    pieces.append(f"({cubic_poly})")
    print(" * ".join(pieces))
    print(f"degree: {fac.degree}")
    if args.expanded:
        print(f"coefficients (ascending): {list(fac.expand().coeffs)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = make_params(args.h, args.p, args.k)
    report = verify_instance(params)
    eigenvalues = report.spectrum.entries if report.spectrum is not None else ()
    ok = report.passed(args.tol)
    if args.format == "json":
        payload = {
            "params": params._asdict(),
            "charpoly_exact_match": report.charpoly_exact_match,
            "coefficient_diffs": [list(d) for d in report.coefficient_diffs],
            "spectrum_max_deviation": _json_deviation(report.spectrum_max_deviation),
            "invariants": dict(zip(report.invariant_results._fields,
                                   report.invariant_results)),
            "eigenvalues": [
                {"value": _json_value(v), "multiplicity": m}
                for v, m in eigenvalues
            ],
            "notes": list(discrepancy_notes()),
        }
        if report.numeric_skipped:
            payload["numeric_referee"] = "skipped"
        print(json.dumps(payload))
        return 0 if ok else 1
    print(f"h={params.h} p={params.p} k={params.k} n={params.n}")
    print(f"charpoly exact match: {'yes' if report.charpoly_exact_match else 'no'}")
    for deg, closed, oracle in report.coefficient_diffs:
        print(f"  degree {deg}: closed form {closed} vs oracle {oracle}")
    print("eigenvalues (closed form):")
    for value, mult in eigenvalues:
        print(f"  {_fmt_value(value)}  x{mult}")
    print(f"numeric referee: skipped (n > DENSE_N_MAX = {DENSE_N_MAX})" if report.numeric_skipped
          else f"max numeric deviation: {report.spectrum_max_deviation:.3e}")
    flags = " ".join(
        f"{name}={'pass' if value else 'FAIL'}"
        for name, value in zip(report.invariant_results._fields,
                               report.invariant_results)
    )
    print(f"invariants: {flags}")
    print("notes:")
    for note in discrepancy_notes():
        print(f"  - {note}")
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    summary = sweep(args.h_max, args.k_max, args.tol, args.n_cap)
    if args.format == "json":
        rows: list[dict] = [
            {
                **r.params._asdict(),
                "exact_match": r.charpoly_exact_match,
                "max_dev": _json_deviation(r.spectrum_max_deviation),
                "elapsed_ms": r.elapsed * 1000.0,
                **({"numeric_referee": "skipped"} if r.numeric_skipped else {}),
            }
            for r in summary.reports
        ]
        rows += [{**e._asdict(), "error": message} for e, message in summary.errors]
        rows += [{**s._asdict(), "skipped": True} for s in summary.skipped]
        text = json.dumps(rows) + "\n"
    else:
        lines = ["h,p,k,n,exact_match,max_dev,elapsed_ms"]
        for r in summary.reports:
            match = "true" if r.charpoly_exact_match else "false"
            dev = "skipped" if r.numeric_skipped else f"{r.spectrum_max_deviation:.12g}"
            lines.append(
                f"{r.params.h},{r.params.p},{r.params.k},{r.params.n},"
                f"{match},{dev},{r.elapsed * 1000.0:.3f}"
            )
        # a point that raised: its exception's type name takes the max_dev column
        lines += [",".join(map(str, e)) + f",false,{message.split(':')[0]},"
                  for e, message in summary.errors]
        text = "\n".join(lines) + "\n"
    summary_line = (f"{summary.passed} passed, {summary.failed} failed, "
                    f"{len(summary.skipped)} skipped")
    for e, message in summary.errors:
        print(f"error: h={e.h} p={e.p} k={e.k} n={e.n}: {message}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(summary_line)
    else:
        sys.stdout.write(text)
        print(summary_line, file=sys.stderr)
    return 0 if summary.failed == 0 else 1


def cmd_export(args: argparse.Namespace) -> int:
    params = make_params(args.h, args.p, args.k)
    if params.n > DENSE_N_MAX:
        raise UnsupportedShape(f"n = {params.n} is above DENSE_N_MAX = {DENSE_N_MAX}")
    edges = signed_edges(params)
    if args.format == "json":
        payload = {
            "n": params.n,
            "negative_edges": [[i, j] for i, j, sign in edges if sign == -1],
        }
        print(json.dumps(payload))
        return 0
    lines = ["graph G {"]
    for index, label in enumerate(vertex_labels(params)):
        name = (
            f"v{label.clique}_{label.slot}"
            if label.kind == "private"
            else f"u{label.slot}"
        )
        lines.append(f'  {index} [label="{name}"];')
    for i, j, sign in edges:
        lines.append(f'  {i} -- {j} [sign="{"-" if sign == -1 else "+"}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=int, required=True, help="clique order (>= 2)")
    parser.add_argument("--p", type=int, required=True,
                        help="private vertices per clique (1 <= p <= h)")
    parser.add_argument("--k", type=int, required=True, help="number of cliques")


def _tolerance(text: str) -> float:
    """A finite --tol of at least 2^-50.  verify's bound on the numeric deviation
    is never below eigvalsh's rounding error (``VerificationReport.passed``);
    spectrum takes it too, and its floats never depend on it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 2.0**-50 <= value < math.inf:  # nan fails too
        raise argparse.ArgumentTypeError(f"must be finite and >= 2^-50, got {text!r}")
    return value


def _add_tol_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="numeric tolerance (default 1e-9)")


def _spectrum_args(parser: argparse.ArgumentParser) -> None:
    """The arguments of spectrum, and of verify."""
    _add_family_args(parser)
    _add_tol_arg(parser)
    parser.add_argument("--format", choices=("human", "json"), default="human")


def _charpoly_args(parser: argparse.ArgumentParser) -> None:
    _add_family_args(parser)
    parser.add_argument("--expanded", action="store_true",
                        help="also print the expanded coefficient vector")
    parser.add_argument("--format", choices=("human", "json"), default="human")


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h-max", type=int, required=True)
    parser.add_argument("--k-max", type=int, required=True)
    parser.add_argument("--n-cap", type=int, default=DEFAULT_N_CAP,
                        help=f"skip points with n above this (default {DEFAULT_N_CAP})")
    _add_tol_arg(parser)
    parser.add_argument("--out", default=None, help="write results here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _export_args(parser: argparse.ArgumentParser) -> None:
    _add_family_args(parser)
    parser.add_argument("--format", choices=("dot", "json"), default="dot")


# name -> (help line, the function that adds its arguments, its handler)
_COMMANDS = {
    "spectrum": ("eigenvalues with multiplicities", _spectrum_args, cmd_spectrum),
    "charpoly": ("factored characteristic polynomial", _charpoly_args, cmd_charpoly),
    "verify": ("closed form vs oracle for one instance", _spectrum_args, cmd_verify),
    "sweep": ("verify a whole parameter grid", _sweep_args, cmd_sweep),
    "export": ("serialize the signed graph", _export_args, cmd_export),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole command line tree, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="seidelspectra",
        description="exact Seidel spectra of signed complete graphs whose "
        "negative edges form overlapping cliques",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, func) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        add_args(command)
        command.set_defaults(func=func)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser alone, the same as its subparser in ``_parser()``."""
    _, add_args, func = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"seidelspectra {name}")
    add_args(parser)
    parser.set_defaults(func=func)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command call with its own parser.  No command, an unknown one,
    top-level help and stray arguments go to the whole tree, which prints the
    usage and error it always printed."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (InvalidParams, DegenerateFamily, UnsupportedShape) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
