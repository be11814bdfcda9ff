"""Command-line front end.

Thin adapters over the library: every verb parses arguments, calls one
library function, and formats the result.  One sub-parser per search family
and per verify claim states the options each takes.  Exit codes: 0
success, 1 validation failure, 2 verification mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# ``bounds``, ``search`` and ``json`` are imported by the verbs that use
# them, so that the other verbs' processes do not compile them.
from .constructions import check_diameter_sandwich, ds_to_mh, ds_to_na, na_to_mh
from .families import (
    FAMILIES,
    FamilyError,
    compile_params,
    format_params,
    parse_params,
    require_valid,
)
from .graphs import (
    bounded_diameter,
    diameter,
    from_json,
    line_classes,
    reach_diameter,
    to_dot,
    to_json,
)
from .graphs import line_digraph  # noqa: F401  (not called; perfbench/layers.py traces it)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


class UsageError(Exception):
    usage = ""  # the usage of the parser that rejected the input, if one did


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        exc = UsageError(message)
        exc.usage = self.format_usage()
        raise exc

    def parse_known_args(self, args=None, namespace=None):
        # A sub-parser hands the arguments it does not take up to its
        # parent; rejecting them here reports them with its own usage.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _at_least(low: int):
    """An argparse type: an integer no less than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridnet", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="compile parameters and emit the digraph")
    p.add_argument("params")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--loose", action="store_true", help="compile despite violations")

    p = sub.add_parser("diameter", help="diameter of a parameter set or JSON file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("params", nargs="?")
    source.add_argument("--input", help="JSON adjacency file ('-' for stdin)")

    p = sub.add_parser("bounds", help="Moore-like bound and achievable range")
    p.add_argument("family", choices=tuple(FAMILIES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="step-translate parameters between families")
    p.add_argument("target", choices=("na", "mh"))
    p.add_argument("params")

    families = sub.add_parser(
        "search", help="exhaustive minimum-diameter step search"
    ).add_subparsers(dest="family", required=True)
    for family in FAMILIES:
        p = families.add_parser(family)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--cap", type=_at_least(1))
        p.add_argument("--workers", type=_at_least(1), help="accepted; has no effect")
        if family == "mh":
            p.add_argument("--direct", action="store_true")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    claims = sub.add_parser(
        "verify", help="certify a theorem or structural law by BFS"
    ).add_subparsers(dest="claim", required=True)
    for theorem in ("4.1", "4.2", "4.3"):
        p = claims.add_parser(theorem)
        p.add_argument("--k-max", type=_at_least(1), default=3, help="default 3")
        p.add_argument("--exhaustive", action="store_true")
        p.add_argument("--csv", action="store_true")
    for claim, (_, _, n_max) in _STRUCTURAL_CLAIMS.items():
        claims.add_parser(claim).add_argument(
            "--n-max", type=_at_least(4), default=n_max, help=f"default {n_max}"
        )

    p = sub.add_parser("table", help="order -> diameter tables for na/mh theorems")
    p.add_argument("family", choices=("na", "mh"))
    p.add_argument("--k-max", type=_at_least(1), required=True)
    p.add_argument("--csv", action="store_true")

    return parser


def _parse(text: str):
    """Parameter-text parsing failures are usage errors, not validation ones."""
    try:
        return parse_params(text)
    except FamilyError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_gen(args) -> int:
    p = _parse(args.params)
    g = compile_params(p, strict=not args.loose)
    sys.stdout.write(to_dot(g) if args.format == "dot" else to_json(g))
    return EXIT_OK


def _cmd_diameter(args) -> int:
    """A parameter record is measured by reach sets on its step classes,
    with no Digraph built; a JSON digraph by graphs.diameter."""
    if args.input:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as f:
                text = f.read()
        d = diameter(from_json(text))
    else:
        p = _parse(args.params)
        require_valid(p)
        d = reach_diameter(p.classes(p.n, p.steps), p.n)
    print("not strongly connected" if d is None else d)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import bounds_report

    report = bounds_report(args.family, args.k)
    if args.json:
        import json

        print(json.dumps(report._asdict(), sort_keys=True))
        return EXIT_OK
    # Formatted whole, so that a value too long to print leaves stdout empty.
    lines = [f"family        {report.family}", f"diameter      {report.k}",
             f"moore bound   {report.moore_value}"]
    if report.range_low is not None:
        lines.append(f"order range   {report.range_low}..{report.range_high}")
    if report.missing_order is not None:
        lines.append(f"missing order {report.missing_order} "
                     "(not reached by the canonical steps)")
    print("\n".join(lines))
    return EXIT_OK


# (target, source family) -> step translation.
_DERIVATIONS = {("na", "ds"): ds_to_na, ("mh", "ds"): ds_to_mh, ("mh", "na"): na_to_mh}


def _cmd_derive(args) -> int:
    p = _parse(args.params)
    derive = _DERIVATIONS.get((args.target, p.tag))
    if derive is None:
        sources = " or ".join(s for t, s in _DERIVATIONS if t == args.target)
        raise UsageError(f"derive {args.target} expects {sources} parameters")
    print(format_params(derive(p)))
    return EXIT_OK


def _csv(cells) -> str:
    """One CSV line; None is an empty cell."""
    return ",".join("" if c is None else str(c) for c in cells)


def _cmd_search(args) -> int:
    from . import search as search_mod

    search = getattr(search_mod, "search_" + args.family)
    kwargs = {} if args.cap is None else {"cap": args.cap}
    if args.family == "mh":
        kwargs.update(direct=args.direct)
    payload = search(args.n, workers=args.workers, **kwargs).to_json_dict()
    # The scalar fields, in the result's field order.
    fields = [key for key in payload if key != "witnesses"]
    if args.format == "json":
        import json

        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(_csv(fields + ["witnesses"]))
        print(_csv([payload[key] for key in fields]
                   + [";".join(payload["witnesses"])]))
    else:
        for key in fields:
            print(f"{key:<26}{payload[key]}")
        for w in payload["witnesses"]:
            print(f"  witness  {w}")
    return EXIT_OK


def _sandwich_check(p) -> tuple[int, list[str]]:
    """Two checks of one DS graph: its derived D_NA and D_MH by k = D(G)."""
    r = check_diameter_sandwich(p)
    return len(r.checks), [
        f"FAIL {kind} {format_params(p)}: k={r.k} "
        f"derived={derived} not in [{low},{high}]"
        for kind, derived, low, high in r.checks
        if not low <= derived <= high
    ]


def _line_digraph_check(p) -> tuple[int, list[str]]:
    """One check of a 2-regular (gamma != delta), strongly connected NA
    digraph: D(L) = D + 1, both by bounded_diameter on its classes."""
    if p.gamma == p.delta:
        return 0, []
    classes = p.classes(p.n, p.steps)
    d = bounded_diameter(classes, p.n, None)
    if d is None:
        return 0, []
    line, order = line_classes(classes, p.n)
    if bounded_diameter(line, order, None) == d + 1:
        return 1, []
    return 1, [f"FAIL line-digraph {format_params(p)}"]


def _print_rows(rows, csv: bool) -> None:
    if csv:
        print("theorem,k,n,predicted,constructed,via_na,searched_min,pass")
        for r in rows:
            print(_csv((*r, "pass" if r.passed else "FAIL")))
    else:
        print(f"{'thm':<5}{'k':<4}{'N':<6}{'predicted':<11}{'actual':<8}"
              f"{'via-na':<8}{'result'}")
        for r in rows:
            via = "-" if r.via_na is None else str(r.via_na)
            print(
                f"{r.theorem:<5}{r.k:<4}{r.n:<6}{r.predicted:<11}"
                f"{r.constructed!s:<8}{via:<8}"
                f"{'pass' if r.passed else 'FAIL'}"
            )


# Structural claim -> (family tag, per-record check, default --n-max).
# FamilyParams.orbit_checks runs the check once per orbit at each order
# from 4, ds:4,1,2's and the least NA order, in steps of the period.
_STRUCTURAL_CLAIMS = {
    "sandwich": ("ds", _sandwich_check, 40),
    "line-digraph": ("na", _line_digraph_check, 24),
}


def _cmd_verify(args) -> int:
    if args.claim in _STRUCTURAL_CLAIMS:
        tag, check, _ = _STRUCTURAL_CLAIMS[args.claim]
        fam = FAMILIES[tag]
        rows = failures = 0
        for n in range(4, args.n_max + 1, fam.period):
            count, failed = fam.orbit_checks(n, check)
            rows += count
            failures += len(failed)
            for line in failed:
                print(line)
        print(f"{args.claim}: {rows} checks, {failures} failures")
        return EXIT_MISMATCH if failures else EXIT_OK
    from .search import sweep_verify

    rows = sweep_verify(args.claim, args.k_max, exhaustive=args.exhaustive)
    _print_rows(rows, args.csv)
    failures = sum(1 for r in rows if not r.passed)
    print(f"theorem {args.claim}: {len(rows)} orders, {failures} failures")
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_table(args) -> int:
    from .bounds import theorem_of
    from .search import sweep_verify

    rows = sweep_verify(theorem_of(args.family), args.k_max)
    _print_rows(rows, args.csv)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "diameter": _cmd_diameter,
    "bounds": _cmd_bounds,
    "derive": _cmd_derive,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(exc.usage or parser.format_usage())
        return EXIT_USAGE
    # GridnetError, UnicodeDecodeError and str() of too long an int: ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MemoryError, OverflowError):  # a valid record too large to build
        print("error: out of memory", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
