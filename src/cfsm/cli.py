"""Command-line interface.

Exit codes: 0 success, 2 parse/validation error, 3 shape error, 64 usage
error (unknown command or bad flags, including a ``laws check`` size above
MAX_SIDE or MAX_TRIALS). Law checks exit 1 if any law fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import fileio
from .errors import ShapeError, ValidationError
from .fourier import dft, idft
from .identify import column_min, fourier_identify, maxmin_decision
from .oracle import check_proposition_laws

_BINARY_OPS = {
    "add", "maxmin", "union", "inter", "and", "or", "andnot", "ornot", "usual",
}
_COMPLEX_OPS = {"add", "maxmin", "trace", "ctrans"}

# largest accepted ``laws check --shape`` side and ``--trials``, checked
# before anything is allocated
MAX_SIDE = 256
MAX_TRIALS = 100_000


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64 instead of argparse's default 2, which is
    # reserved for input validation failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfsm",
        description="Complex fuzzy (soft) matrix algebra and signal identification.",
    )
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_identify = commands.add_parser("identify", help="run an identification procedure")
    modes = p_identify.add_subparsers(dest="mode", parser_class=_Parser)

    p_fourier = modes.add_parser(
        "fourier", help="score candidates against the reference via cross products"
    )
    p_fourier.add_argument("--input", required=True, help="signal JSON file")
    p_fourier.add_argument("--report", help="write per-sample score series (TSV)")
    p_fourier.set_defaults(handler=_cmd_identify_fourier)

    p_maxmin = modes.add_parser(
        "maxmin", help="max-min decision over the usual product of two matrices"
    )
    p_maxmin.add_argument("--a", required=True, help="first magnitude CSV")
    p_maxmin.add_argument("--b", required=True, help="second magnitude CSV")
    p_maxmin.add_argument(
        "--labels", required=True, help="comma-separated object labels"
    )
    p_maxmin.set_defaults(handler=_cmd_identify_maxmin)

    p_matrix = commands.add_parser("matrix", help="matrix operations")
    p_matrix.add_argument(
        "op",
        choices=sorted(_BINARY_OPS | {"trace", "ctrans", "comp"}),
        help="operation to apply",
    )
    p_matrix.add_argument("--a", required=True, help="first matrix CSV")
    p_matrix.add_argument("--b", help="second matrix CSV (binary operations)")
    p_matrix.set_defaults(handler=_cmd_matrix)

    p_dft = commands.add_parser("dft", help="discrete Fourier transform")
    p_dft.add_argument("--input", required=True, help="sequence file, 're' or 're,im' per line")
    p_dft.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    p_dft.set_defaults(handler=_cmd_dft)

    p_laws = commands.add_parser("laws", help="algebraic law checks")
    law_modes = p_laws.add_subparsers(dest="mode", parser_class=_Parser)
    p_check = law_modes.add_parser("check", help="run the lattice law suite")
    p_check.add_argument("--trials", type=_trials, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--shape", type=_shape, default=(4, 4), help="e.g. 4x4")
    p_check.set_defaults(handler=_cmd_laws_check)

    return parser


def _shape(text: str) -> tuple[int, int]:
    rows, sep, cols = text.lower().partition("x")
    try:
        shape = (int(rows), int(cols))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected MxN, got {fileio.excerpt(text)!r}"
        ) from None
    if not sep or not (1 <= shape[0] <= MAX_SIDE and 1 <= shape[1] <= MAX_SIDE):
        raise argparse.ArgumentTypeError(
            f"expected MxN with sizes in 1..{MAX_SIDE}, got {fileio.excerpt(text)!r}"
        )
    return shape


def _trials(text: str) -> int:
    try:
        trials = int(text)
    except ValueError:
        trials = 0
    if not 1 <= trials <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(
            f"expected a trial count in 1..{MAX_TRIALS}, got {fileio.excerpt(text)!r}"
        )
    return trials


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_identify_fourier(args) -> int:
    reference, candidates = fileio.parse_signal_file(_read(args.input))
    if reference is None:
        raise ValidationError("signal file has no reference record")
    result = fourier_identify(candidates, reference)
    for vector in result.scores:
        raw = " ".join(fileio.fullprec(s) for s in vector.scores)
        shown = " ".join(fileio.display(s) for s in vector.scores)
        print(
            f"signal {vector.label}: scores {raw} | display {shown} "
            f"| best {fileio.fullprec(vector.best)} ({fileio.display(vector.best)})"
        )
    if len(result.tied) > 1:
        print("tie between: " + ", ".join(result.tied))
    print(f"winner: {result.winner}")
    if args.report:
        fileio.emit_plot_series(result.scores, args.report)
    return 0


def _cmd_identify_maxmin(args) -> int:
    a = fileio.parse_magnitude_csv(_read(args.a))
    b = fileio.parse_magnitude_csv(_read(args.b))
    labels = [label.strip() for label in args.labels.split(",")]
    decision = maxmin_decision(a, b, labels)
    product = a.usual_product(b)
    print("product:")
    sys.stdout.write(fileio.format_real_csv(product))
    degrees = column_min(product)
    print("decision column: " + " ".join(fileio.fullprec(d) for d in degrees))
    print("decision display: " + " ".join(fileio.display(d) for d in degrees))
    if decision.memberships:
        print(
            "optimum set: "
            + ", ".join(
                f"{fileio.display(degree)}/{label}"
                for label, degree in decision.memberships
            )
        )
    else:
        print("optimum set: empty")
    if decision.degenerate:
        print(f"winner: {decision.winner} (degenerate: all degrees zero)")
    else:
        print(f"winner: {decision.winner}")
    return 0


def _cmd_matrix(args) -> int:
    op = args.op
    if op in _BINARY_OPS and args.b is None:
        print(f"cfsm matrix: error: operation {op!r} requires --b", file=sys.stderr)
        return 64

    if op in _COMPLEX_OPS:
        a = fileio.parse_complex_csv(_read(args.a))
        if op == "trace":
            print(fileio.format_complex_cell(a.trace()))
        elif op == "ctrans":
            sys.stdout.write(fileio.format_complex_csv(a.conjugate_transpose()))
        else:
            b = fileio.parse_complex_csv(_read(args.b))
            out = a.fuzzy_add(b) if op == "add" else a.maxmin(b)
            sys.stdout.write(fileio.format_complex_csv(out))
        return 0

    a = fileio.parse_magnitude_csv(_read(args.a))
    if op == "comp":
        sys.stdout.write(fileio.format_magnitude_csv(a.complement()))
        return 0
    b = fileio.parse_magnitude_csv(_read(args.b))
    if op == "usual":
        sys.stdout.write(fileio.format_real_csv(a.usual_product(b)))
        return 0
    out = {
        "union": a.union,
        "inter": a.intersection,
        "and": a.and_product,
        "or": a.or_product,
        "andnot": a.and_not_product,
        "ornot": a.or_not_product,
    }[op](b)
    sys.stdout.write(fileio.format_magnitude_csv(out))
    return 0


def _cmd_dft(args) -> int:
    values = fileio.parse_complex_sequence(_read(args.input))
    transformed = idft(values) if args.inverse else dft(values)
    sys.stdout.write(fileio.format_complex_sequence(transformed))
    return 0


def _cmd_laws_check(args) -> int:
    reports = check_proposition_laws(args.trials, args.shape, args.seed)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{report.law}: trials={report.trials} "
            f"failures={len(report.failures)} {status}"
        )
    passing = sum(1 for report in reports if report.passed)
    print(f"{passing}/{len(reports)} laws hold")
    return 0 if passing == len(reports) else 1


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        return handler(args)
    except ShapeError as exc:
        print(f"cfsm: error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"cfsm: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cfsm: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
