"""gridnet benchmark: closed-loop CLI workloads with an answer gate.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload na-search --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every generated command line as its own ``gridnet``
process (``python3 -m gridnet.cli`` on ``src/``) and reports the end-to-end
metrics, with every time scaled to a reference host speed by the probe of
``hostspeed.py``.  ``--trace 1`` runs the same rounds in-process, once plain
and once with the layer wrappers of ``layers.py``, and reports the per-layer
metrics and the tracing overhead.  Every call's stdout is checked against
``reference.json``; any mismatch fails the run.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  A run record (seed,
command lines, host, load average) and, when traced, the spans are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import plan  # noqa: E402

MIN_ROUNDS = 3
SETUP_CALLS = 3  # per round, for a steadier setup_s median


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def timing_summary(samples: list[float]) -> dict:
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "samples": len(samples),
    }


def run_cli(argv: list[str]):
    """Run ``gridnet`` once on the checkout's ``src/``: (wall s, CPU s, process).

    The CPU time is user plus system time of the process and of the pool
    workers it waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GRIDNET_WORKERS", None)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gridnet.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return wall, cpu, proc


class Runner:
    """Runs calls, gates their answers and keeps the attempted/failed tally."""

    def __init__(self) -> None:
        self.reference = gate.load_reference()
        self.attempted = 0
        self.failures: list[str] = []
        self.commands: list[list[str]] = []

    def check(self, argv: list[str], exit_code: int, stdout: bytes) -> dict:
        self.attempted += 1
        fp = gate.fingerprint(argv, exit_code, stdout)
        problem = gate.mismatch(self.reference, argv, fp)
        if problem is not None:
            self.failures.append(problem)
        return fp

    def call(self, argv: list[str]) -> tuple[float, float, dict]:
        """One CLI process: (wall s, user+system CPU s of it and its workers, fp)."""
        wall, cpu, proc = run_cli(argv)
        return wall, cpu, self.check(argv, proc.returncode, proc.stdout)


def closed_loop(workload: str, seed: int, seconds: float, run_round) -> list:
    """Run seed-generated rounds until the next would likely overrun ``seconds``.

    Returns what ``run_round`` returned for each round.
    """
    results: list = []
    took: list[float] = []
    start = time.perf_counter()
    for calls in plan.rounds(workload, seed):
        t0 = time.perf_counter()
        if len(took) >= MIN_ROUNDS and t0 - start + statistics.median(took) > seconds:
            break
        results.append(run_round(calls))
        took.append(time.perf_counter() - t0)
    return results


def end_to_end(args, runner: Runner, record: dict) -> dict:
    """Subprocess rounds, each opened by setup calls, in host-speed units.

    Each round is pinned to the next vCPU set of ``hostspeed.cpu_sets`` and
    every call in it is bracketed by two host-speed probes; the call's wall
    and CPU time are divided by their mean slowdown.  The short setup calls
    come right after the round's first probe and are divided by it alone.
    The raw times and the probe readings go to the run record.
    """
    runner.call(plan.SETUP_ARGV)  # fills the bytecode cache, as an install has
    cpu_sets = itertools.cycle(hostspeed.cpu_sets(plan.is_parallel(args.workload)))
    setup: list[float] = []
    rates: list[float] = []
    cpus: list[float] = []
    raw_walls: list[float] = []
    slowdowns: list[float] = []

    def run_round(calls):
        pinned = next(cpu_sets)
        before = hostspeed.slowdown(pinned)
        slowdowns.append(before)
        for _ in range(SETUP_CALLS):
            setup.append(runner.call(plan.SETUP_ARGV)[0] / before)
        wall = raw = cpu = 0.0
        done = 0
        for argv in calls:
            runner.commands.append(argv)
            w, c, fp = runner.call(argv)
            after = hostspeed.slowdown(pinned)
            slowdowns.append(after)
            slow = (before + after) / 2
            before = after
            done += gate.items(fp)
            wall += w / slow
            cpu += c / slow
            raw += w
        rates.append(done / wall)
        cpus.append(cpu)
        raw_walls.append(raw)
        return wall

    walls = closed_loop(args.workload, args.seed, args.seconds, run_round)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record.update(wall_s=timing_summary(walls), setup_s=timing_summary(setup),
                  round_walls=walls, raw_round_walls=raw_walls,
                  slowdown=timing_summary(slowdowns), slowdowns=slowdowns)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def in_process(runner: Runner, gridnet, argv: list[str]) -> None:
    """One CLI call through ``gridnet.cli.main``, traced when wrapped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gridnet.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed call, as a traceback exit is
            traceback.print_exc()
            code = "uncaught exception"
    sys.stderr.write(err.getvalue())
    runner.check(argv, code, out.getvalue().encode())


def traced(args, runner: Runner, record: dict) -> dict:
    """In-process rounds, each run once plain and once with layer wrappers."""
    sys.path.insert(0, str(SRC))
    import gridnet
    import gridnet.cli

    import layers

    tracer = layers.Tracer()
    plain: list[float] = []
    ratios: list[float] = []
    traced_walls: list[float] = []

    def plain_pass(calls) -> float:
        t0 = time.perf_counter()
        for argv in calls:
            in_process(runner, gridnet, argv)
        return time.perf_counter() - t0

    def traced_pass(calls) -> float:
        t0 = time.perf_counter()
        installed = layers.install(gridnet, tracer)
        try:
            for argv in calls:
                in_process(runner, gridnet, argv)
        finally:
            installed.undo()
        wall = time.perf_counter() - t0
        left = installed.leftovers()
        if left:
            raise RuntimeError("wrappers left installed: " + ", ".join(left))
        return wall

    def run_round(calls):
        runner.commands.extend(calls)
        if len(plain) % 2:  # alternate which pass goes first
            t_traced, t_plain = traced_pass(calls), plain_pass(calls)
        else:
            t_plain, t_traced = plain_pass(calls), traced_pass(calls)
        plain.append(t_plain)
        traced_walls.append(t_traced)
        ratios.append(t_traced / t_plain)

    rounds = closed_loop(args.workload, args.seed, args.seconds, run_round)
    metrics = layer_metrics(tracer, len(rounds))
    metrics.update(bfs_probes(gridnet))
    metrics["trace.untraced_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_pct"] = (100 * (statistics.median(ratios) - 1), "%")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "columns": ["name", "start", "end", "parent"],
        "spans": tracer.spans,
        "aggregates": tracer.export(),
    }))
    record["spans"] = str(spans_path.relative_to(ROOT))
    return metrics


def layer_metrics(tracer, rounds: int) -> dict:
    """Per traced round: busy time, self time and counts of each layer.

    Layers that some workload bypasses (search, bounded_diameter, the pool,
    the sweep constructions, line digraphs) report their time as a share of
    the CLI time, so a bypassed layer reads 0 % rather than a zero time.
    Times spent in pool workers are summed over the workers.
    """
    total, own = tracer.total, tracer.self_time
    calls, counts = tracer.calls, tracer.counts
    cli = total["cli"]

    def per(x):
        return x / rounds

    def pct(x):
        return 100 * x / cli

    def ratio(a, b):
        return a / b if b else 0.0

    slices: dict[int, list[float]] = {}
    for name, start, end, parent in tracer.spans:
        if name == "dispatch.slice":
            slices.setdefault(parent, []).append(end - start)
    pools = [(tracer.spans[p][2] - tracer.spans[p][1], d) for p, d in slices.items()]

    def pool_median(f):
        return statistics.median(f(*p) for p in pools) if pools else 0.0

    bounded = calls["graphs.bounded_diameter"]
    return {
        "cli.s": (per(cli), "s"),
        "cli.self_s": (per(own["cli"]), "s"),
        "search.pct": (pct(total["search"]), "%"),
        "search.self_pct": (pct(own["search"]), "%"),
        "search.candidates": (per(counts["search.candidates"]), "count"),
        "search.witness_total": (per(counts["search.witness_total"]), "count"),
        "families.compile.calls": (per(calls["families.compile"]), "count"),
        "families.compile.s": (per(total["families.compile"]), "s"),
        "families.compile.self_s": (per(own["families.compile"]), "s"),
        "graphs.digraph_init.s": (per(total["graphs.digraph_init"]), "s"),
        "graphs.bounded_diameter.calls": (per(bounded), "count"),
        "graphs.bounded_diameter.pct": (pct(total["graphs.bounded_diameter"]), "%"),
        "graphs.bounded_diameter.pruned": (
            per(counts["graphs.bounded_diameter.pruned"]), "count"),
        "graphs.bounded_diameter.prune_ratio": (
            ratio(counts["graphs.bounded_diameter.pruned"], bounded), "ratio"),
        "graphs.diameter.calls": (per(calls["graphs.diameter"]), "count"),
        "graphs.diameter.s": (per(total["graphs.diameter"]), "s"),
        "graphs.diameter.visits": (per(counts["graphs.diameter.visits"]), "count"),
        "graphs.diameter.arc_scans": (
            per(counts["graphs.diameter.arc_scans"]), "count"),
        "graphs.diameter.ns_per_visit": (
            1e9 * ratio(total["graphs.diameter"], counts["graphs.diameter.visits"]),
            "ns"),
        "graphs.line_digraph.calls": (per(calls["graphs.line_digraph"]), "count"),
        "graphs.line_digraph.pct": (pct(total["graphs.line_digraph"]), "%"),
        "constructions.sandwich.calls": (
            per(calls["constructions.sandwich"]), "count"),
        "constructions.sandwich.pct": (pct(total["constructions.sandwich"]), "%"),
        "constructions.sandwich.self_pct": (
            pct(own["constructions.sandwich"]), "%"),
        "constructions.derive.calls": (per(calls["constructions.derive"]), "count"),
        "constructions.derive.pct": (pct(total["constructions.derive"]), "%"),
        "dispatch.slices": (per(counts["dispatch.slices"]), "count"),
        "dispatch.pool_pct": (pct(total["dispatch.pool"]), "%"),
        "dispatch.parent_pct": (pct(total["search"] - total["dispatch.pool"]), "%"),
        "dispatch.slice_max_pct": (
            pool_median(lambda pool, d: 100 * max(d) / pool), "%"),
        "dispatch.slice_min_pct": (
            pool_median(lambda pool, d: 100 * min(d) / pool), "%"),
        "dispatch.imbalance": (
            pool_median(lambda pool, d: max(d) / statistics.mean(d)), "ratio"),
    }


def bfs_probes(gridnet) -> dict:
    """One bfs_profile call on fixed digraphs, with its computed work.

    The digraphs come from fixed parameters, not from the seed: the theorem
    4.2 NA digraph at N=120, its na_to_mh lift at 240, and the theorem 4.1
    double-step graph at 24.  From a source that reaches every vertex a BFS
    visits every vertex once and scans every arc once.
    """
    from gridnet import search

    na = search.theorem_42_params(120, 5)
    graphs = {
        "ds24": gridnet.compile_ds(search.theorem_41_params(24, 3)),
        "na120": gridnet.compile_na(na),
        "mh240": gridnet.compile_mh(gridnet.na_to_mh(na)),
    }
    metrics = {}
    for label, g in graphs.items():
        batch = max(1, 20000 // g.arc_count)
        samples = []
        for _ in range(15):
            t0 = time.perf_counter()
            for _ in range(batch):
                gridnet.bfs_profile(g, 0)
            samples.append((time.perf_counter() - t0) / batch)
        t = statistics.median(samples)
        metrics[f"graphs.bfs.{label}.us"] = (1e6 * t, "us")
        metrics[f"graphs.bfs.{label}.vertices"] = (g.order, "count")
        metrics[f"graphs.bfs.{label}.arcs"] = (g.arc_count, "count")
        metrics[f"graphs.bfs.{label}.ns_per_arc"] = (1e9 * t / g.arc_count, "ns")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = (SRC / "gridnet" / "cli.py", gate.REFERENCE)
    missing = [p for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a "
              "gridnet source checkout", file=sys.stderr)
        return 2
    runner = Runner()
    nproc = os.cpu_count() or 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": nproc,
        "python": sys.version, "platform": platform.platform(),
        "loadavg_before": os.getloadavg(),
    }
    started = time.perf_counter()
    run = traced if args.trace else end_to_end
    metrics = run(args, runner, record)
    record["loadavg_after"] = os.getloadavg()
    record["load_flag"] = max(record["loadavg_before"][0],
                              record["loadavg_after"][0]) >= nproc
    record["run_s"] = time.perf_counter() - started
    record["commands"] = [" ".join(argv) for argv in runner.commands]
    record["attempted"] = runner.attempted
    record["failures"] = runner.failures
    record["failed_share"] = len(runner.failures) / runner.attempted
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for problem in runner.failures:
        print(f"FAIL {problem}", file=sys.stderr)
    if record["load_flag"]:
        print(f"warning: load average reached {nproc} (nproc) during the run",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} calls, {len(runner.failures)} failed "
          f"(failed_share {record['failed_share']:.3f}), "
          f"load {record['loadavg_before'][0]:.2f} -> "
          f"{record['loadavg_after'][0]:.2f}, record {OUT.name}/{name}")
    for key in ("wall_s", "setup_s", "slowdown"):
        if key in record:
            s = record[key]
            tail = s["tail"] or "none (fewer than 20 samples)"
            print(f"  {key}: median {s['median']:.4f} over {s['samples']} "
                  f"samples; tail percentile {tail}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
