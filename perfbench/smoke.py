"""Smoke test of the benchmark itself.

Usage, from the root of a source checkout:

    python3 perfbench/smoke.py

For each workload, runs one round made of the smallest order of its band,
untraced and traced, and checks that the answer gate passes and that every
metric named in BENCHMARK.json is printed with its unit.  Then checks that
the benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's own files.  Exits 0 when all
checks pass.  Takes about a minute on a 2-CPU host.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import plan
import run

SMALLEST = {
    "na-search": [plan.na_search(60, 1)],
    "mh-direct": [plan.mh_direct(12)],
    "sweep": plan.sweep(28, 24),
    "na-search-par": [plan.na_search(60, 2)],
}


def result_of(argv: list[str]) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def bare_directory_refuses(problems: list[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    bench = json.loads((bare / "BENCHMARK.json").read_text())
    argv = bench["command"][1:] + ["--workload", plan.WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[:200]!r}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems: list[str] = []
    run.MIN_ROUNDS = 1
    for workload, calls in SMALLEST.items():
        plan.TEMPLATES[workload] = [calls]
        for trace in (0, 1):
            code, result = result_of(["--workload", workload, "--seed", "1",
                                      "--seconds", "0", "--trace", str(trace)])
            label = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            metrics = result["metrics"]
            for spec in wanted[trace]:
                got = metrics.get(spec["name"])
                if got is None or got.get("unit") != spec["unit"]:
                    problems.append(f"{label}: {spec['name']} [{spec['unit']}] "
                                    f"printed as {got}")
            extra = set(metrics) - {spec["name"] for spec in wanted[trace]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
    bare_directory_refuses(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
