"""Command-line reports: map censuses, claim verification, counting tables,
and single-map diagnostics.

Every command writes a deterministic report to standard output (diagnostics
go to standard error) and returns one of five exit codes: 0 success or pass,
1 verification failure or count disagreement, 2 usage/parse error (a
UsageError), 3 refusal by a size guard, 4 internal error (any other
exception, a failed import included, reported with its traceback on
standard error).

This module imports no other module of the package at load time. Each
command imports what it runs when `main` runs it: `count` and `triples`
load `counting` alone, `census` and `checkmap` the search, and `verify` the
search and the claims.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .classify import CensusEntry
    from .groups import FiniteGroup

SCHEMA_VERSION = 1
# a map reads only X's N x k products, so checkmap's rows, walk and faces are
# linear in the arcs; at 1800 arcs (Z600, valence 3) it takes about 0.1 s and
# peaks near 16 MB
MAX_CHECKMAP_ARCS = 1800


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    from .counting import CLAIM_IDS

    parser = argparse.ArgumentParser(
        prog="cayleymaps",
        description=(
            "Census, verification, and diagnostic reports for prime-valent "
            "Cayley maps on abelian, dihedral, and dicyclic groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    census = sub.add_parser(
        "census",
        help="isomorphism-class census of regular maps over a group family",
    )
    census.add_argument(
        "--group",
        required=True,
        choices=("dihedral", "dicyclic", "abelian", "elem2"),
        help="group family to sweep",
    )
    census.add_argument("--p", required=True, type=int, help="odd prime valence")
    census.add_argument(
        "--n-max",
        required=True,
        type=int,
        dest="n_max",
        help="family bound: max n (dihedral/dicyclic), max order (abelian), "
        "or max rank (elem2)",
    )
    census.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    census.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes, at most the CPU count are started",
    )

    verify = sub.add_parser(
        "verify", help="cross-check one named claim against the search oracle"
    )
    verify.add_argument(
        "--theorem",
        required=True,
        help=f"claim id, one of: {', '.join(CLAIM_IDS)}",
    )
    verify.add_argument("--p", type=int, help="odd prime valence")
    verify.add_argument("--n-max", type=int, dest="n_max", help="family bound")
    verify.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes, at most the CPU count are started",
    )

    count = sub.add_parser(
        "count", help="closed-form class count for one parameter, cross-checked"
    )
    count.add_argument("--p", required=True, type=int, help="odd prime valence")
    count.add_argument("--n", required=True, type=int, help="dihedral parameter n")

    triples = sub.add_parser(
        "triples", help="table of admissible parameters and counts up to a bound"
    )
    triples.add_argument("--p", required=True, type=int, help="odd prime valence")
    triples.add_argument(
        "--n-max", required=True, type=int, dest="n_max", help="largest n to list"
    )

    checkmap = sub.add_parser(
        "checkmap", help="full diagnostic row for one explicitly given map"
    )
    checkmap.add_argument(
        "--group",
        required=True,
        help="group spec: D7, Dic3, Z6, E3, or a product like Z2xZ4",
    )
    checkmap.add_argument(
        "--xs",
        required=True,
        help="comma-separated generators in rotation order, e.g. b,a*b,a^3*b",
    )
    return parser


# -- group specs and element lists ---------------------------------------------


def parse_group_spec(spec: str) -> tuple[FiniteGroup, int]:
    """Turn a short group name into a group plus its report parameter n."""
    from .groups import (
        AbelianProductGroup,
        CyclicGroup,
        DicyclicGroup,
        DihedralGroup,
        ElemAbelian2Group,
    )

    m = re.fullmatch(r"Dic(\d+)", spec)
    if m:
        n = int(m.group(1))
        return DicyclicGroup(n), n
    m = re.fullmatch(r"D(\d+)", spec)
    if m:
        n = int(m.group(1))
        return DihedralGroup(n), n
    m = re.fullmatch(r"E(\d+)", spec)
    if m:
        r = int(m.group(1))
        return ElemAbelian2Group(r), r
    m = re.fullmatch(r"Z(\d+)(?:xZ(\d+))+", spec)
    if m:
        mods = [int(d) for d in re.findall(r"\d+", spec)]
        group = AbelianProductGroup(mods)
        return group, group.order
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        n = int(m.group(1))
        return CyclicGroup(n), n
    raise ValueError(
        f"cannot parse group spec {spec!r}; expected forms: D7, Dic3, Z6, "
        "E3, Z2xZ4"
    )


def parse_generator_list(group: FiniteGroup, text: str) -> list:
    tokens = [tok.strip() for tok in text.split(",")]
    if any(not tok for tok in tokens):
        raise ValueError(f"empty generator token in {text!r}")
    return [group.parse_element(tok) for tok in tokens]


# -- report emission -------------------------------------------------------------


def _emit_json(params: dict, entries: Sequence[CensusEntry]) -> None:
    import json  # here, so a CSV census and `triples` never load it

    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": params,
        "entries": [e.to_dict() for e in entries],
    }
    print(json.dumps(doc, indent=2))


def _emit_csv(entries: Sequence[CensusEntry]) -> None:
    import csv  # here, so a JSON census and every other command never load it

    from .classify import CSV_COLUMNS

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        writer.writerow(e.csv_row())


def _count_lines(ns: Iterable[int], p: int) -> Iterator[tuple[str, bool]]:
    from .counting import count_agreement

    for n in ns:
        formula, enumerated, _, agree = count_agreement(n, p)
        shown = ",".join(str(l) for l in enumerated)
        flag = "AGREE" if agree else "DISAGREE"
        yield f"n={n} p={p} count={formula} l=[{shown}] {flag}", agree


# -- subcommand bodies -----------------------------------------------------------


def _run_census(args: argparse.Namespace) -> int:
    from .classify import census_entries, family_groups, guarded_targets
    from .counting import UsageError, _require_odd_prime

    _require_odd_prime(args.p)
    targets = guarded_targets(
        (group, n, args.p) for group, n in family_groups(args.group, args.n_max)
    )
    if not targets:
        raise UsageError(f"--n-max {args.n_max} covers no {args.group} group")
    entries: list[CensusEntry] = []
    for group, n_param, valence in targets:
        entries.extend(census_entries(group, n_param, valence, args.jobs))
    if args.format == "csv":
        _emit_csv(entries)
    else:
        params = {
            "command": "census",
            "group": args.group,
            "p": args.p,
            "n_max": args.n_max,
        }
        _emit_json(params, entries)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from .claims import verify_claim

    report = verify_claim(args.theorem, p=args.p, n_max=args.n_max, jobs=args.jobs)
    sys.stdout.write(report.as_text())
    print(f"covered: {report.covered}", file=sys.stderr)
    return 0 if report.passed else 1


def _run_count(args: argparse.Namespace) -> int:
    from .counting import UsageError, _require_odd_prime, guard_count_n

    _require_odd_prime(args.p)
    if args.n < 1:
        raise UsageError(f"--n must be positive, got {args.n}")
    guard_count_n(args.n)
    line, agree = next(_count_lines([args.n], args.p))
    print(line)
    return 0 if agree else 1


def _run_triples(args: argparse.Namespace) -> int:
    from .counting import UsageError, guard_count_n

    if args.n_max < 1:
        raise UsageError(f"--n-max must be positive, got {args.n_max}")
    guard_count_n(args.n_max)
    all_agree = True
    for line, agree in _count_lines(range(1, args.n_max + 1), args.p):
        all_agree = all_agree and agree
        # one write per line: print makes two, each flushed when unbuffered
        sys.stdout.write(line + "\n")
    return 0 if all_agree else 1


def _run_checkmap(args: argparse.Namespace) -> int:
    from .classify import entry_for_map
    from .counting import SizeGuardError, UsageError
    from .maps import build_map

    try:
        # E<r> has 2^r elements, so a rank past the guard is refused on r
        # alone, before 2^r is computed or any group is built
        rank = re.fullmatch(r"E0*(\d+)", args.group)
        if rank and (len(rank[1]) > 2 or (1 << int(rank[1])) > MAX_CHECKMAP_ARCS):
            raise SizeGuardError(
                f"checkmap guard: |G| = 2^{rank[1]} exceeds {MAX_CHECKMAP_ARCS}"
            )
        # every other form's order is at least each number in it, so one
        # past four digits is refused before Python is asked to convert it
        if re.fullmatch(r"Dic\d+|D\d+|Z\d+(?:xZ\d+)*", args.group) and any(
            len(d.lstrip("0")) > 4 for d in re.findall(r"\d+", args.group)
        ):
            raise SizeGuardError(f"checkmap guard: |G| exceeds {MAX_CHECKMAP_ARCS}")
        group, n_param = parse_group_spec(args.group)
        # refused on |G| first, which is never written out: past the guard it
        # can have more digits than Python will convert to a string
        if group.order > MAX_CHECKMAP_ARCS:
            raise SizeGuardError(f"checkmap guard: |G| exceeds {MAX_CHECKMAP_ARCS}")
        xs = parse_generator_list(group, args.xs)
        if group.order * len(xs) > MAX_CHECKMAP_ARCS:
            raise SizeGuardError(
                f"checkmap guard: |G| * valence = {group.order * len(xs)} "
                f"exceeds {MAX_CHECKMAP_ARCS}"
            )
        m = build_map(group, xs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    entry = entry_for_map(m, n_param, "checkmap", with_graph_aut=True)
    params = {"command": "checkmap", "group": args.group, "xs": args.xs}
    _emit_json(params, [entry])
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # a failed import, here or in a command, lands in the
        # internal-error branch below
        from .counting import SizeGuardError, UsageError

        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        try:
            if args.command == "census":
                return _run_census(args)
            if args.command == "verify":
                return _run_verify(args)
            if args.command == "count":
                return _run_count(args)
            if args.command == "triples":
                return _run_triples(args)
            return _run_checkmap(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except SizeGuardError as exc:
            print(f"size guard: {exc}", file=sys.stderr)
            return 3
    except Exception:
        # exit 1 means a claim failed; a crash must not be mistaken for one
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
