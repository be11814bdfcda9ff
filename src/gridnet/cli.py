"""Command-line front end.

Thin adapters over the library: every verb parses arguments, calls one
library function, and formats the result.  Exit codes: 0 success, 1
validation failure, 2 verification mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import search as search_mod
from .constructions import check_diameter_sandwich, ds_to_mh, ds_to_na, na_to_mh
from .families import (
    FAMILIES,
    FamilyError,
    compile_params,
    format_params,
    parse_params,
)
from .graphs import GraphError, diameter, from_json, line_digraph, to_dot, to_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridnet", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="compile parameters and emit the digraph")
    p.add_argument("params")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--loose", action="store_true", help="compile despite violations")

    p = sub.add_parser("diameter", help="diameter of a parameter set or JSON file")
    p.add_argument("params", nargs="?")
    p.add_argument("--input", help="JSON adjacency file ('-' for stdin)")

    p = sub.add_parser("bounds", help="Moore-like bound and achievable range")
    p.add_argument("family", choices=("ds", "na", "mh"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="step-translate parameters between families")
    p.add_argument("target", choices=("na", "mh"))
    p.add_argument("params")

    p = sub.add_parser("search", help="exhaustive minimum-diameter step search")
    p.add_argument("family", choices=("ds", "na", "mh"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--direct", action="store_true")
    p.add_argument("--mod4-filter", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="certify a theorem or structural law by BFS")
    p.add_argument(
        "claim", choices=("4.1", "4.2", "4.3", "sandwich", "line-digraph")
    )
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--n-max", type=int, help="order cap for sandwich/line-digraph")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--workers", type=int)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("table", help="order -> diameter tables for na/mh theorems")
    p.add_argument("family", choices=("na", "mh"))
    p.add_argument("--k-max", type=int, required=True)
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
    if args.input:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as f:
                text = f.read()
        g = from_json(text)
    elif args.params:
        g = compile_params(_parse(args.params))
    else:
        raise UsageError("diameter needs parameters or --input")
    d = diameter(g)
    print("not strongly connected" if d is None else d)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    report = bounds_mod.bounds_report(args.family, args.k)
    if args.json:
        print(json.dumps(report.__dict__, sort_keys=True))
        return EXIT_OK
    print(f"family        {report.family}")
    print(f"diameter      {report.k}")
    print(f"moore bound   {report.moore_value}")
    if report.range_low is not None:
        print(f"order range   {report.range_low}..{report.range_high}")
    if report.missing_order is not None:
        print(
            f"missing order {report.missing_order} "
            "(not reached by the canonical steps)"
        )
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


def _cmd_search(args) -> int:
    search = getattr(search_mod, "search_" + args.family)
    # A search gets the options it declares: --direct and --mod4-filter only
    # mean something to search_mh, and the other searches ignore them.
    options = {"cap": args.cap, "direct": args.direct, "mod4_filter": args.mod4_filter}
    declared = inspect.signature(search).parameters
    kwargs = {k: v for k, v in options.items() if k in declared and v is not None}
    result = search(args.n, workers=args.workers, **kwargs)
    payload = result.to_json_dict()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(
            "family,n,min_diameter,witness_total,candidates_examined,"
            "moore_bound_for_min,meets_theorem_prediction,witnesses"
        )
        print(
            ",".join(
                [
                    result.family,
                    str(result.n),
                    "" if result.min_diameter is None else str(result.min_diameter),
                    str(result.witness_total),
                    str(result.candidates_examined),
                    ""
                    if result.moore_bound_for_min is None
                    else str(result.moore_bound_for_min),
                    result.meets_theorem_prediction,
                    ";".join(payload["witnesses"]),
                ]
            )
        )
    else:
        for key in (
            "family",
            "n",
            "min_diameter",
            "witness_total",
            "candidates_examined",
            "moore_bound_for_min",
            "meets_theorem_prediction",
        ):
            print(f"{key:<26}{payload[key]}")
        for w in payload["witnesses"]:
            print(f"  witness  {w}")
    return EXIT_OK


def _verify_sandwich(n_max: int) -> int:
    failures = 0
    rows = 0
    ds = FAMILIES["ds"]
    for n in range(3, n_max + 1):
        for steps in ds.candidates(n):
            p = ds.params(n, *steps)
            for kind in ("na-from-ds", "mh-from-ds"):
                r = check_diameter_sandwich(kind, p)
                rows += 1
                if not r.passed:
                    failures += 1
                    print(
                        f"FAIL {kind} {format_params(p)}: k={r.k} "
                        f"derived={r.derived_diameter} not in [{r.low},{r.high}]"
                    )
    print(f"sandwich: {rows} checks, {failures} failures")
    return EXIT_MISMATCH if failures else EXIT_OK


def _verify_line_digraph(n_max: int) -> int:
    failures = 0
    rows = 0
    na = FAMILIES["na"]
    for n in range(4, n_max + 1, 2):
        for steps in na.candidates(n):
            p = na.params(n, *steps)
            g = compile_params(p, strict=False)
            d = diameter(g)
            if d is None or g.is_regular() != 2 or g.is_directed_cycle():
                continue
            rows += 1
            lg = line_digraph(g)
            if lg.order != 2 * n or diameter(lg) != d + 1:
                failures += 1
                print(f"FAIL line-digraph {format_params(p)}")
    print(f"line-digraph: {rows} checks, {failures} failures")
    return EXIT_MISMATCH if failures else EXIT_OK


def _print_rows(rows, csv: bool) -> None:
    if csv:
        print("theorem,k,n,predicted,constructed,via_na,searched_min,pass")
        for r in rows:
            print(
                f"{r.theorem},{r.k},{r.n},{r.predicted},{r.constructed},"
                f"{'' if r.via_na is None else r.via_na},"
                f"{'' if r.searched_min is None else r.searched_min},"
                f"{'pass' if r.passed else 'FAIL'}"
            )
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


def _cmd_verify(args) -> int:
    if args.claim in ("sandwich", "line-digraph") and args.csv:
        # These claims print only FAIL lines and a count: no rows for CSV.
        raise UsageError(f"verify {args.claim} has no CSV output")
    if args.claim == "sandwich":
        return _verify_sandwich(args.n_max or 40)
    if args.claim == "line-digraph":
        return _verify_line_digraph(args.n_max or 24)
    rows = search_mod.sweep_verify(
        args.claim, args.k_max, exhaustive=args.exhaustive, workers=args.workers
    )
    _print_rows(rows, args.csv)
    failures = sum(1 for r in rows if not r.passed)
    print(f"theorem {args.claim}: {len(rows)} orders, {failures} failures")
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_table(args) -> int:
    theorem = "4.2" if args.family == "na" else "4.3"
    rows = search_mod.sweep_verify(theorem, args.k_max)
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
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (FamilyError, GraphError, bounds_mod.BoundsError,
            search_mod.SearchError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
