"""Record the answer fingerprints every benchmark call is gated against.

Usage, from the root of a source checkout:

    python3 perfbench/record_reference.py

Runs each distinct call of every workload once as a ``gridnet`` process and
writes ``perfbench/reference.json``.  A parallel search must print the same
bytes as the serial search of the same order, or nothing is written.
Re-record only when a change is meant to alter an answer.
"""

from __future__ import annotations

import json
import sys

import gate
import plan
from run import run_cli


def main() -> int:
    reference: dict = {}
    calls = [plan.SETUP_ARGV]
    for workload in plan.WORKLOADS:
        calls += plan.all_calls(workload)
    for argv in calls:
        _, _, proc = run_cli(argv)
        fp = gate.fingerprint(argv, proc.returncode, proc.stdout)
        key = gate.answer_key(argv)
        if fp["exit"] != 0 or "unparsed" in fp:
            print(f"error: {' '.join(argv)}: {fp}", file=sys.stderr)
            return 1
        if key in reference and reference[key] != fp:
            print(f"error: {' '.join(argv)} differs from the serial call:\n"
                  f"  {reference[key]}\n  {fp}", file=sys.stderr)
            return 1
        reference[key] = fp
        print(f"{key}: {fp}")
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
