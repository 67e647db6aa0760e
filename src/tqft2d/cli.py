"""Command-line interface.

Subcommands:
  check      print the four relation verdicts for a data file (the worst
             violation of each failing relation goes to stderr)
  invariant  print the tensor assigned to a surface
  glue       glue circle pairs; emit the surface or its tensor
  closed     scalar invariant of the closed genus-g surface
  verify     run the seeded verification suites
  search     exhaustive dimension-1 grid search

Exit codes: 0 ok, 1 failed verdict (check/verify), a verify suite that ran
no checks (`--trials 0` for functor or monoidal) or a closed stdout, 2 parse
error (a file that is not UTF-8 included), 3 domain error (bad labels,
orientation mismatch, failed relations, ...).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ParseError, TqftError
from .functor import (
    closed_invariant,
    invariant,
    verify_decomposition_invariance,
    verify_functoriality,
    verify_monoidal,
)
from .surface import GlueSpec, format_surface, parse_surface
from .tensor import format_scalar, format_tensor, quoted
from .tqft import check_relations, grid_search_dim1, parse_tqft

# Longest error message printed whole.  Messages cut outside text with
# `quoted`; this bounds any site that echoes it whole, such as a valid label.
MESSAGE_SHOWN = 10_000


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # A byte-order mark, as some editors write, is not part of the text.
            return handle.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 at byte offset "
                         f"{exc.start} ({exc.reason})") from exc


def _parse_pairs(text: str) -> GlueSpec:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep or not left.strip() or not right.strip():
            raise ParseError(f"bad pair {quoted(chunk)}; expected 'a:b'")
        pairs.append((left.strip(), right.strip()))
    return GlueSpec(tuple(pairs))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, printed and cut like any other; subparsers inherit it."""
    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tqft2d",
        description="Tensor calculus for oriented surfaces: gluing is index "
                    "contraction, checked against the classification relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check the four relations on a data file")
    p.add_argument("tqft_file")

    p = sub.add_parser("invariant", help="tensor of a surface")
    p.add_argument("tqft_file")
    p.add_argument("surface_file")

    p = sub.add_parser("glue", help="glue circle pairs of a surface")
    p.add_argument("surface_file")
    p.add_argument("--pairs", required=True, metavar="a:b,c:d",
                   help="comma-separated label pairs to glue")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit-surface", action="store_true", default=False,
                       help="print the glued surface (default)")
    group.add_argument("--emit-tensor", metavar="TQFT_FILE",
                       help="print the glued surface's tensor for this data")

    p = sub.add_parser("closed", help="invariant of the closed genus-g surface")
    p.add_argument("tqft_file")
    p.add_argument("--genus", type=int, required=True)

    p = sub.add_parser(
        "verify", help="run the seeded verification suites",
        description="moves: decomposition independence over genus <= 2, "
                    "boundary <= 3; functor: two-stage gluing composition; "
                    "monoidal: disjoint union vs tensor product")
    p.add_argument("tqft_file")
    p.add_argument("--suite", choices=("all", "moves", "functor", "monoidal"),
                   default="all")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="exhaustive dimension-1 grid search")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--height", type=int, required=True)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "tqft_file" in args:
        data = parse_tqft(_read(args.tqft_file))

    if args.command == "check":
        report = check_relations(data)
        print(report.tokens())
        for result in report.results:
            if not result.passed:
                worst = format_scalar(result.max_violation, data.backend)
                print(f"{result.name}: max violation {worst}", file=sys.stderr)
        return 0 if report.passed else 1

    if args.command == "invariant":
        surface = parse_surface(_read(args.surface_file))
        print(format_tensor(invariant(data, surface)))
        return 0

    if args.command == "glue":
        surface = parse_surface(_read(args.surface_file))
        spec = _parse_pairs(args.pairs)
        glued = surface.glue(spec)
        if args.emit_tensor:
            data = parse_tqft(_read(args.emit_tensor))
            print(format_tensor(invariant(data, glued)))
        else:
            print(format_surface(glued))
        return 0

    if args.command == "closed":
        value = closed_invariant(data, args.genus)
        print(format_scalar(value, data.backend))
        return 0

    if args.command == "verify":
        reports = []
        if args.suite in ("all", "moves"):
            reports.append(verify_decomposition_invariance(
                data, g_max=2, n_max=3, trials=args.trials, seed=args.seed))
        if args.suite in ("all", "functor"):
            reports.append(verify_functoriality(data, args.trials, args.seed))
        if args.suite in ("all", "monoidal"):
            reports.append(verify_monoidal(data, args.trials, args.seed))
        ok = True
        for report in reports:
            print(f"suite {report.name}")
            print(report.to_text())
            if not report.checks:
                print(f"suite {report.name} ran no checks", file=sys.stderr)
            ok = ok and report.passed
        return 0 if ok else 1

    if args.command == "search":
        if args.dim != 1:
            raise TqftError("search is implemented for --dim 1 only")
        for data in grid_search_dim1(args.height):
            d = format_scalar(data.d_entry(0), data.backend)
            p = format_scalar(data.p_entry(0, 0, 0), data.backend)
            print(f"d={d} p={p}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ParseError as exc:
        _print_error("parse error", exc)
        return 2
    except (TqftError, ValueError) as exc:
        _print_error("error", exc)
        return 3


def _print_error(kind: str, exc: Exception) -> None:
    """Print `exc` to stderr, cut to MESSAGE_SHOWN characters plus its length."""
    text = str(exc)
    if len(text) > MESSAGE_SHOWN:
        text = f"{text[:MESSAGE_SHOWN]}... of {len(text)} characters"
    print(f"{kind}: {text}", file=sys.stderr)


def entrypoint() -> None:
    """Run `main` and exit with its status; a reader that closes stdout
    early (`| head`) ends the run with status 1 and no traceback."""
    try:
        code = main()
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; aim it at devnull so that
        # flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
