"""Command-line front end.

Thin adapters over the library: every verb parses arguments, calls one
library function, and formats the result.  Exit codes: 0 success, 1
validation failure, 2 verification mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator, Optional, Sequence

from . import bounds as bounds_mod
from . import search as search_mod
from .constructions import check_diameter_sandwich, ds_to_mh, ds_to_na, na_to_mh
from .families import (
    FAMILIES,
    FamilyError,
    compile_params,
    family_diameter,
    family_rows,
    format_params,
    line_diameter,
    parse_params,
)
from .graphs import GraphError, diameter, from_json, regular_degree, to_dot, to_json
from .graphs import line_digraph  # noqa: F401  (not called; perfbench/layers.py traces it)

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
    p.add_argument("--workers", type=int, help="accepted; has no effect")
    p.add_argument("--direct", action="store_true")
    p.add_argument("--mod4-filter", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="certify a theorem or structural law by BFS")
    p.add_argument(
        "claim", choices=("4.1", "4.2", "4.3", "sandwich", "line-digraph")
    )
    p.add_argument("--k-max", type=int, help="largest k for 4.x (default 3)")
    p.add_argument("--n-max", type=int, help="order cap for sandwich/line-digraph")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--workers", type=int, help="accepted; has no effect")
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


# The scalar fields of a search result, in text and CSV column order.
_SEARCH_FIELDS = ("family", "n", "min_diameter", "witness_total",
                  "candidates_examined", "moore_bound_for_min",
                  "meets_theorem_prediction")


def _cmd_search(args) -> int:
    # --direct and --mod4-filter are Manhattan options, and the filter acts
    # only on the direct enumeration.
    if args.family != "mh" and (args.direct or args.mod4_filter):
        raise UsageError(
            f"search {args.family} takes neither --direct nor --mod4-filter"
        )
    if args.mod4_filter and not args.direct:
        raise UsageError("search mh --mod4-filter needs --direct")
    search = getattr(search_mod, "search_" + args.family)
    kwargs = {} if args.cap is None else {"cap": args.cap}
    if args.direct:
        kwargs.update(direct=True, mod4_filter=args.mod4_filter)
    payload = search(args.n, workers=args.workers, **kwargs).to_json_dict()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(",".join(_SEARCH_FIELDS + ("witnesses",)))
        cells = ["" if payload[key] is None else str(payload[key])
                 for key in _SEARCH_FIELDS]
        print(",".join(cells + [";".join(payload["witnesses"])]))
    else:
        for key in _SEARCH_FIELDS:
            print(f"{key:<26}{payload[key]}")
        for w in payload["witnesses"]:
            print(f"  witness  {w}")
    return EXIT_OK


def _sandwich_checks(first: int, n_max: int) -> Iterator[Optional[str]]:
    ds = FAMILIES["ds"]
    for n in range(first, n_max + 1):
        for steps in ds.candidates(n):
            p = ds.params(n, *steps)
            for kind in ("na-from-ds", "mh-from-ds"):
                r = check_diameter_sandwich(kind, p)
                yield None if r.passed else (
                    f"FAIL {kind} {format_params(p)}: k={r.k} "
                    f"derived={r.derived_diameter} not in [{r.low},{r.high}]"
                )


def _line_digraph_checks(first: int, n_max: int) -> Iterator[Optional[str]]:
    na = FAMILIES["na"]
    for n in range(first, n_max + 1, 2):
        for steps in na.candidates(n):
            p = na.params(n, *steps)
            rows = family_rows(p, strict=False)
            if regular_degree(rows) != 2:
                continue
            d = family_diameter(p, strict=False)
            if d is None:
                continue
            # The line digraph has one vertex per arc of the NA digraph.
            passed = (
                sum(len(heads) for heads in rows) == 2 * n
                and line_diameter(p, strict=False) == d + 1
            )
            yield None if passed else f"FAIL line-digraph {format_params(p)}"


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


# Structural claim -> (its checks, first order checked, default --n-max).
# The checks yield one item each: None for a pass, else the FAIL line.
_STRUCTURAL_CLAIMS = {
    "sandwich": (_sandwich_checks, 3, 40),
    "line-digraph": (_line_digraph_checks, 4, 24),
}


def _check_k_max(k_max: int) -> None:
    if k_max < 1:
        raise UsageError(f"--k-max must be at least 1, got {k_max}")


def _cmd_verify(args) -> int:
    if args.claim in _STRUCTURAL_CLAIMS:
        if args.csv:
            # These claims print only FAIL lines and a count: no rows for CSV.
            raise UsageError(f"verify {args.claim} has no CSV output")
        for flag, given in (
            ("--exhaustive", args.exhaustive),
            ("--workers", args.workers is not None),
            ("--k-max", args.k_max is not None),
        ):
            if given:
                raise UsageError(f"verify {args.claim} takes no {flag}")
        checks, first, default = _STRUCTURAL_CLAIMS[args.claim]
        n_max = default if args.n_max is None else args.n_max
        if n_max < first:
            raise UsageError(
                f"verify {args.claim} --n-max must be at least {first}, got {n_max}"
            )
        rows = failures = 0
        for line in checks(first, n_max):
            rows += 1
            if line is not None:
                failures += 1
                print(line)
        print(f"{args.claim}: {rows} checks, {failures} failures")
        return EXIT_MISMATCH if failures else EXIT_OK
    if args.n_max is not None:
        raise UsageError(f"verify {args.claim} takes no --n-max")
    k_max = 3 if args.k_max is None else args.k_max
    _check_k_max(k_max)
    rows = search_mod.sweep_verify(
        args.claim, k_max, exhaustive=args.exhaustive, workers=args.workers
    )
    _print_rows(rows, args.csv)
    failures = sum(1 for r in rows if not r.passed)
    print(f"theorem {args.claim}: {len(rows)} orders, {failures} failures")
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_table(args) -> int:
    _check_k_max(args.k_max)
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
