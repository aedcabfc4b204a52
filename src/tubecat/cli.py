"""Command-line front end.

Subcommands: `rigid` lists maximal rigid objects, `endo` emits the quiver
bundle of a chosen object, `verify` runs the verification suite. Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from tubecat import __version__
from tubecat.endo import bundle, bundle_dot, bundle_json
from tubecat.homfunctor import check_ql_cap
from tubecat.rigid import (
    enumerate_maximal_rigid,
    from_tilting,
    tilting_intervals,
)
from tubecat.verify import CHECK_NAMES, run_suite

DEFAULT_MAX_RANK = 10


def max_rank() -> int:
    value = os.environ.get("TUBECAT_MAX_RANK")
    if not value:
        return DEFAULT_MAX_RANK
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"TUBECAT_MAX_RANK must be an integer N, got {value!r}") from None


def parse_rank_range(text: str) -> tuple[int, int]:
    """`N` or `LO..HI` as (lo, hi); the `type` of `verify --rank`."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    return lo, hi


def parse_tilting(text: str) -> list[tuple[int, int]]:
    """`LO-HI[,LO-HI...]` as a list of pairs; the `type` of `endo --tilting`."""
    out = []
    for piece in text.split(","):
        lo_text, _, hi_text = piece.strip().partition("-")
        try:
            out.append((int(lo_text), int(hi_text)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad interval {piece!r}; expected like 1-3,1-1"
            ) from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubecat",
        description="Maximal rigid objects in cluster tubes and their algebras.",
    )
    parser.add_argument("--version", action="version", version=f"tubecat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rigid = sub.add_parser("rigid", help="enumerate maximal rigid objects")
    p_rigid.set_defaults(run=cmd_rigid, parser=p_rigid)
    p_rigid.add_argument("--rank", required=True, type=int)
    p_rigid.add_argument("--count", action="store_true", help="print only the tally")
    p_rigid.add_argument("--format", choices=("table", "json"), default="table")

    p_endo = sub.add_parser("endo", help="emit the quiver bundle of one object")
    p_endo.set_defaults(run=cmd_endo, parser=p_endo)
    p_endo.add_argument("--rank", required=True, type=int)
    p_endo.add_argument("--top", required=True, type=int, help="orbit of the top summand")
    p_endo.add_argument(
        "--tilting",
        required=True,
        type=parse_tilting,
        help="comma-separated wing intervals for all summands, e.g. 1-3,1-1,3-3",
    )
    p_endo.add_argument("--format", choices=("json", "dot", "table"), default="table")
    p_endo.add_argument("--out", type=Path, help="directory for .dot files")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.set_defaults(run=cmd_verify, parser=p_verify)
    p_verify.add_argument(
        "--rank", required=True, type=parse_rank_range, help="rank or range, e.g. 3 or 2..5"
    )
    p_verify.add_argument("--only", choices=CHECK_NAMES)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--ql-cap", type=int, help="quasilength cap for sweeps")
    p_verify.add_argument("--seed", type=int, default=0)

    return parser


def _check_rank(parser: argparse.ArgumentParser, rank: int, capped: bool = True):
    """Rank at least 2, and at most the cap when `capped`: `rigid` and
    `verify` enumerate every object of a rank, `endo` builds only one."""
    if rank < 2:
        parser.error(f"argument --rank: rank must be >= 2, got {rank}")
    if capped and rank > max_rank():
        parser.error(
            f"argument --rank: rank {rank} exceeds the cap {max_rank()}; "
            "set TUBECAT_MAX_RANK to raise it"
        )


def cmd_rigid(parser, args) -> int:
    _check_rank(parser, args.rank)
    objects = enumerate_maximal_rigid(args.rank)
    if args.count:
        print(len(objects))
        return 0
    if args.format == "json":
        payload = [
            {**t.to_json(), "tilting_intervals": [f"{lo}-{hi}" for lo, hi in tilting_intervals(t)]}
            for t in objects
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for t in objects:
        intervals = ",".join(f"{lo}-{hi}" for lo, hi in tilting_intervals(t))
        print(f"top={t.top} summands={t} intervals={intervals}")
    return 0


def cmd_endo(parser, args) -> int:
    _check_rank(parser, args.rank, capped=False)
    if not 1 <= args.top <= args.rank:
        parser.error(f"argument --top: orbit must be in 1..{args.rank}, got {args.top}")
    try:
        t = from_tilting(args.rank, args.top, args.tilting)
    except ValueError as exc:
        parser.error(f"argument --tilting: {exc}")
    presentations = bundle(t)
    data = bundle_json(t, presentations)
    dots = bundle_dot(presentations) if args.out is not None or args.format == "dot" else {}
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            for name, text in dots.items():
                (args.out / f"{name}.dot").write_text(text)
        except OSError as exc:
            parser.error(f"argument --out: cannot write to {args.out}: {exc.strerror}")
        print(f"wrote 3 dot files to {args.out}")
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.format == "dot":
        for name, text in dots.items():
            print(f"// {name}")
            print(text)
    else:
        intervals = ",".join(f"{lo}-{hi}" for lo, hi in args.tilting)
        print(f"object {t} (intervals {intervals}, top orbit {args.top})")
        for name in ("tilted", "cluster_tilted", "endomorphism"):
            pres = data[name]
            print(
                f"  {name}: {len(pres['vertices'])} vertices, "
                f"{len(pres['arrows'])} arrows, {len(pres['relations'])} relations"
            )
    return 0


def cmd_verify(parser, args) -> int:
    lo, hi = args.rank
    if lo > hi:
        parser.error(f"argument --rank: empty rank range {lo}..{hi}")
    for n in (lo, hi):
        _check_rank(parser, n)
    try:
        check_ql_cap(hi, args.ql_cap)
    except ValueError as exc:
        parser.error(f"argument --ql-cap: {exc}")
    report = run_suite(range(lo, hi + 1), args.only, args.ql_cap, args.seed)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for outcome in report.outcomes:
            print(outcome.line())
        status = "all checks passed" if report.ok else "FAILURES present"
        print(f"{status} ({len(report.outcomes)} outcomes)")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    """Run one subcommand; its usage errors are reported by its own parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args.parser, args)
    except ValueError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
