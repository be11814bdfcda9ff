"""Workloads: the gridnet command lines a seed generates.

A run is a closed loop of rounds: one CLI call starts only after the
previous one has finished, and one process serves each call.  A round is
one of the workload's templates, with its calls in a seed-shuffled order.
The seed deals the templates like cards: a fresh shuffle of all of them,
then the next shuffle, so every run holds nearly the same mix and the seed
changes which orders run when, not how much work a run holds.  A run
reports medians over its rounds, so the templates of a workload are built
to cost about the same and to do about as many items per second (on a
2-CPU x86 host, at the commit that added the benchmark); a template that
differs makes the median jump with the seed's deal.

Why each workload (orders outside these bands take 10-20 s a call, too long
to repeat in a run):

na-search      Exhaustive New Amsterdam search at orders 60, 68, 74 and
               78, one worker.  The bottleneck shifts with N: at 74 the
               early exit prunes late and BFS dominates; at 68 it prunes
               early and compiling candidates into Digraphs takes about
               half the time.  A round pairs 60 with 78 or 68 with 74; each
               pair examines about 22,000 candidates, in about 3.5 s scaled
               with one worker and 2.2 s with two.  The other even orders of 54-84 are left
               out: 64 and 66 have no partner of matching cost, and the
               pairs 58+80 and 70+72 ran 5-10 % faster than these two
               (58+80 with two workers, 70+72 with one).
mh-direct      Direct Manhattan search at orders 16 and 12 (the order must
               be a multiple of 4): tiny candidates, so the fixed costs per
               candidate (8-deep enumeration, compile_mh, Digraph
               validation) dominate, and the tied witnesses exercise the
               merge.  One template of 80,664 candidates, whose call order
               the seed shuffles.  Order 24 takes 15 s a call and is left
               out; so is order 20, whose single 3-4 s call was too long for
               the host-speed probes around it to track (its scaled time
               spread 2.4-4.2 s, against 2.9-3.3 s for the 16, 16, 16, 12
               round of the same work).
sweep          verify sandwich --n-max 28 plus verify line-digraph
               --n-max 24, in a seed-shuffled order: all-source diameter
               without early exit on derived digraphs, the DS enumeration
               and validation inside the CLI, and no search.  Pairs of
               other orders do different shares of sandwich and
               line-digraph work and so run 10-20 % more or fewer checks
               per second; they are left out.
na-search-par  The na-search pairs with --workers 2: the only workload
               that reaches the process pool (count pre-pass, islice
               re-walk per worker, pool start-up and merge).  Its stdout
               must equal na-search's for the same order.
"""

from __future__ import annotations

import random

# The call that does no work, timed for setup_s: interpreter start,
# ``import gridnet``, argument parsing and one line of output.
SETUP_ARGV = ["bounds", "na", "--k", "1", "--json"]

NA_PAIRS = [(60, 78), (68, 74)]


def na_search(n: int, workers: int) -> list[str]:
    return ["search", "na", "--n", str(n), "--format", "json",
            "--workers", str(workers)]


def mh_direct(n: int) -> list[str]:
    return ["search", "mh", "--direct", "--n", str(n), "--format", "json",
            "--workers", "1"]


def sweep(m: int, l: int) -> list[list[str]]:
    return [["verify", "sandwich", "--n-max", str(m)],
            ["verify", "line-digraph", "--n-max", str(l)]]


TEMPLATES: dict[str, list[list[list[str]]]] = {
    "na-search": [[na_search(a, 1), na_search(b, 1)] for a, b in NA_PAIRS],
    "mh-direct": [
        [mh_direct(16), mh_direct(16), mh_direct(16), mh_direct(12)],
    ],
    "sweep": [sweep(28, 24)],
    "na-search-par": [[na_search(a, 2), na_search(b, 2)] for a, b in NA_PAIRS],
}

WORKLOADS = tuple(TEMPLATES)


def rounds(workload: str, seed: int):
    """Endless, seed-determined stream of rounds (lists of CLI argv lists)."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        deck = list(TEMPLATES[workload])
        rng.shuffle(deck)
        for template in deck:
            calls = list(template)
            rng.shuffle(calls)
            yield calls


def is_parallel(workload: str) -> bool:
    """Whether some call of the workload runs more than one worker."""
    return any(argv[argv.index("--workers") + 1] != "1"
               for template in TEMPLATES[workload] for argv in template
               if "--workers" in argv)


def all_calls(workload: str) -> list[list[str]]:
    """Every distinct call a workload can generate, in a fixed order."""
    seen: dict[str, list[str]] = {}
    for template in TEMPLATES[workload]:
        for argv in template:
            seen.setdefault(" ".join(argv), argv)
    return [seen[key] for key in sorted(seen)]
