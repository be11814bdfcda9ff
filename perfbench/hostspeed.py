"""Host-speed probe: scale measured times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU's speed
drifts, independently of the others, by up to a factor of two over seconds
to minutes as other tenants load the cores it shares, so raw times of the
same call on the same code spread by 30-40 % between runs.  The benchmark
therefore pins each round to one vCPU (all of them for a parallel
workload), brackets every CLI call with two probes on those vCPUs, and
divides the call's wall and CPU time by the mean slowdown the two probes
read.  A scaled time is the time the call would take on a host where one
try of the probe takes ``REF_KERNEL_S``.

The probe is frozen here and uses no gridnet code, so a change to the
program moves the scaled times and leaves the probe alone.  It does the
kind of work a search does: it builds circulant step digraphs as tuples of
out-lists, validates them as ``Digraph`` does, and takes each one's
diameter by BFS from every source.  It reads the mean of ``TRIES`` tries,
about 0.2 s: a shorter or best-of probe misses the short stalls that a call
of a second or more also sits through, and tracks the calls more loosely.
Where the platform cannot pin a process to a vCPU the probe still runs, on
whichever vCPU the scheduler picks.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import deque

# One try's time on a 2-vCPU x86 host (Python 3.11) in an unloaded moment.
REF_KERNEL_S = 0.020
TRIES = 10


def _diameter(out_arcs: tuple, n: int) -> int:
    best = 0
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            du1 = dist[u] + 1
            for v in out_arcs[u]:
                if dist[v] < 0:
                    dist[v] = du1
                    queue.append(v)
        best = max(best, max(dist))
    return best


def _kernel_once() -> float:
    n = 60
    t0 = time.perf_counter()
    for a in range(2, 8):
        for b in range(a + 1, 10):
            out_arcs = tuple(((u + 1) % n, (u + a) % n, (u + b) % n)
                             for u in range(n))
            for heads in out_arcs:
                if len(set(heads)) != len(heads) or not all(0 <= v < n for v in heads):
                    raise AssertionError("probe digraph is malformed")
            _diameter(out_arcs, n)
    return time.perf_counter() - t0


def cpu_sets(parallel: bool) -> list[frozenset[int]]:
    """vCPU sets rounds rotate through: each vCPU alone, or all at once."""
    if not hasattr(os, "sched_getaffinity"):
        return [frozenset()]
    allowed = sorted(os.sched_getaffinity(0))
    if parallel:
        return [frozenset(allowed)]
    return [frozenset((cpu,)) for cpu in allowed]


def pin(cpus: frozenset[int]) -> None:
    """Pin this process, and so the processes it starts, to ``cpus``."""
    if cpus:
        os.sched_setaffinity(0, cpus)


def _probe() -> float:
    _kernel_once()  # warm-up, untimed; lets sibling probes start too
    return statistics.fmean(_kernel_once() for _ in range(TRIES))


def slowdown(cpus: frozenset[int]) -> float:
    """How much slower than the reference the vCPUs ``cpus`` run now.

    On one vCPU the probe runs in this process.  On several it runs in one
    process per vCPU, all at once, since a parallel call loads them all at
    once and vCPUs that share a core slow each other down; the mean of
    their readings is taken.  Leaves this process pinned to ``cpus``.
    """
    pin(cpus)
    if len(cpus) <= 1:
        return _probe() / REF_KERNEL_S
    probes = [subprocess.Popen([sys.executable, __file__, str(cpu)],
                               stdout=subprocess.PIPE, text=True)
              for cpu in sorted(cpus)]
    outputs = [p.communicate()[0] for p in probes]
    if any(p.returncode for p in probes):
        raise RuntimeError("a host-speed probe process failed")
    return statistics.fmean(float(out) for out in outputs) / REF_KERNEL_S


if __name__ == "__main__":
    pin(frozenset((int(sys.argv[1]),)))
    print(_probe())
