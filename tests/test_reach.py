"""The witness certificate against the all-pairs distance oracle.

``graphs.reach_diameter`` runs reach sets on the p class representatives
of a step digraph and rotates them to every other vertex; ``diameter`` is
its p = N case for any digraph.  Both must give the largest entry of
``oracles.all_pairs_oracle`` (iterated arc relaxation on the compiled
digraph), or None exactly when that matrix has an unreachable pair.
"""

import math
import random

import pytest

from gridnet import graphs
from gridnet.families import FAMILIES, compile_params
from gridnet.graphs import (
    Digraph,
    diameter,
    line_classes,
    line_digraph,
    reach_diameter,
)

from oracles import all_candidates, all_pairs_oracle

ORDERS = [
    ("ds", range(3, 21)),
    ("na", range(4, 21, 2)),
    ("mh", (8,)),
]


def oracle_diameter(g):
    m = all_pairs_oracle(g)
    return None if any(None in row for row in m) else max(max(row) for row in m)


def candidates(family, orders):
    fam = FAMILIES[family]
    for n in orders:
        for steps in all_candidates(fam, n):
            yield fam(n, *steps)


@pytest.mark.parametrize("family,orders", ORDERS, ids=[f for f, _ in ORDERS])
def test_every_small_candidate(family, orders):
    results = set()
    for p in candidates(family, orders):
        d = reach_diameter(p.classes(p.n, p.steps), p.n)
        assert d == oracle_diameter(compile_params(p, strict=False)), p
        results.add(d)
    # DS candidates are strongly connected: gcd(N, a, b) = 1.
    assert len(results) > 2 and (None in results) == (family != "ds")


@pytest.mark.parametrize("family,orders", ORDERS, ids=[f for f, _ in ORDERS])
def test_every_small_line_digraph(family, orders):
    # The line classes have one class per arc out of 0..p-1: their period
    # is that arc count, and their rotations are multiples of it.
    results = set()
    for p in candidates(family, orders):
        if p.n > 12:
            break
        line, order = line_classes(p.classes(p.n, p.steps), p.n)
        d = reach_diameter(line, order)
        assert d == oracle_diameter(line_digraph(compile_params(p, strict=False))), p
        results.add(d)
    assert len(results) > 2 and (None in results) == (family != "ds")


def test_double_steps_sharing_a_factor_with_the_order():
    # Not strongly connected, so not DS candidates: period 1, and the head
    # i + x of every arc is a rotation of vertex 0's set by i + x.
    ds = FAMILIES["ds"]
    for n in range(4, 21):
        for a in range(n):
            for b in range(n):
                if math.gcd(n, a, b) > 1:
                    g = compile_params(ds(n, a, b), strict=False)
                    assert reach_diameter(ds.classes(n, (a, b)), n) is None
                    assert oracle_diameter(g) is None


def test_random_digraphs_through_diameter():
    # No step structure: every vertex is its own class and every rotation
    # is by 0.  Every other digraph gets a Hamiltonian cycle through a
    # random ordering of its vertices, so both answers occur.
    rng = random.Random(29)
    results = []
    for i in range(200):
        n = rng.randrange(1, 25)
        rows = [set(rng.sample(range(n), rng.randrange(0, min(n, 3) + 1)))
                for _ in range(n)]
        if i % 2:
            order = rng.sample(range(n), n)
            for u, v in zip(order, order[1:] + order[:1]):
                rows[u].add(v)
        g = Digraph.from_lists(n, [sorted(heads) for heads in rows])
        d = diameter(g)
        assert d == oracle_diameter(g), rows
        results.append(d)
    assert results.count(None) > 50 and len(set(results)) > 10


def test_the_certificate_calls_nothing_of_the_search_kernel():
    kernel = {"bounded_diameter", "period_layout", "step_rows"}
    assert all(hasattr(graphs, name) for name in kernel)
    assert not kernel & set(reach_diameter.__code__.co_names)
