import random

import pytest

from gridnet.families import DoubleStepGraph, NewAmsterdamDigraph, compile_ds, compile_na
from gridnet.graphs import (
    Digraph,
    GraphError,
    bfs_profile,
    diameter,
    from_json,
    line_digraph,
    to_dot,
    to_json,
)

from oracles import all_pairs_oracle, are_isomorphic


def cycle(n):
    return Digraph.from_lists(n, [[(i + 1) % n] for i in range(n)])


NA10 = NewAmsterdamDigraph(10, -1, 1, 3, -3)
MALFORMED_TYPES = [
    '{"order":2,"arcs":[[1],[0.5]]}',  # float head
    '{"order":"2","arcs":[[1],[0]]}',  # string order
    '{"order":2,"arcs":[1,0]}',  # rows that are not lists
    '{"order":2,"arcs":[[true],[0]]}',  # bool head
]
MH20_STEPS = "mh:20,1,7,17,7,1,15,1,11"  # Manhattan digraph derived from NA10


class TestDigraph:
    def test_rejects_out_of_range_head(self):
        with pytest.raises(GraphError):
            Digraph.from_lists(2, [[2], []])

    def test_rejects_parallel_arcs(self):
        with pytest.raises(GraphError):
            Digraph.from_lists(2, [[1, 1], []])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(GraphError):
            Digraph.from_lists(3, [[1], [2]])


class TestBfsProfile:
    def test_directed_3_cycle(self):
        p = bfs_profile(cycle(3), 0)
        assert p.dist == (0, 1, 2)
        assert p.eccentricity == 2
        assert p.farthest == frozenset({2})

    def test_single_vertex_convention(self):
        p = bfs_profile(Digraph.from_lists(1, [[]]), 0)
        assert p.dist == (0,)
        assert p.eccentricity == 0
        assert p.farthest == frozenset({0})

    def test_unreachable_is_none(self):
        g = Digraph.from_lists(3, [[1], [], []])
        p = bfs_profile(g, 0)
        assert p.dist == (0, 1, None)

    def test_unreachable_vertex_makes_eccentricity_none(self):
        # vertex 2 is unreachable from 0; the largest finite distance is 1
        p = bfs_profile(Digraph.from_lists(3, [[1], [0], [0]]), 0)
        assert p.eccentricity is None
        assert p.farthest == frozenset({2})

    def test_source_out_of_range(self):
        with pytest.raises(GraphError):
            bfs_profile(cycle(3), 3)

    def test_na10_eccentricity_3(self):
        assert bfs_profile(compile_na(NA10), 0).eccentricity == 3


class TestDiameter:
    def test_directed_4_cycle(self):
        assert diameter(cycle(4)) == 3

    def test_moore_double_step_13(self):
        assert diameter(compile_ds(DoubleStepGraph(13, 2, 3))) == 2

    def test_20_vertex_manhattan(self):
        from gridnet.families import compile_params, parse_params

        assert diameter(compile_params(parse_params(MH20_STEPS))) == 4

    def test_not_strongly_connected(self):
        assert diameter(Digraph.from_lists(2, [[1], []])) is None


class TestLineDigraph:
    def test_cycle_maps_to_cycle(self):
        assert are_isomorphic(line_digraph(cycle(3)), cycle(3))

    def test_na10_line_digraph(self):
        lg = line_digraph(compile_na(NA10))
        assert lg.order == 20
        assert diameter(lg) == 4

    def test_double_line_digraph_quasi_moore(self):
        lg2 = line_digraph(line_digraph(compile_na(NA10)))
        assert lg2.order == 40
        assert diameter(lg2) == 5

    def test_arcless_rejected(self):
        with pytest.raises(GraphError):
            line_digraph(Digraph.from_lists(1, [[]]))

    def test_regular_law_small_sweep(self):
        # delta-regular non-cycle g: |L(g)| = delta*|g|, D(L(g)) = D(g)+1
        for n in range(6, 23, 2):
            for gamma in range(1, n, 2):
                p = NewAmsterdamDigraph(n, 1, n - 1, gamma, -gamma)
                g = compile_na(p, strict=False)
                d = diameter(g)
                if d is None or g.is_regular() != 2 or g.is_directed_cycle():
                    continue
                lg = line_digraph(g)
                assert lg.order == 2 * n
                assert diameter(lg) == d + 1


class TestIsomorphism:
    def test_reflexive(self):
        g = compile_na(NA10)
        assert are_isomorphic(g, g)

    def test_order_mismatch(self):
        assert not are_isomorphic(cycle(3), cycle(4))

    def test_symmetric_on_cycles_vs_relabeled(self):
        g = cycle(5)
        h = Digraph.from_lists(5, [[(i + 2) % 5] for i in range(5)])
        assert are_isomorphic(g, h) == are_isomorphic(h, g)

    def test_same_degrees_not_isomorphic(self):
        g = Digraph.from_lists(6, [[(i + 1) % 6] for i in range(6)])
        h = Digraph.from_lists(6, [[(i + 1) % 3 + (i // 3) * 3] for i in range(6)])
        assert not are_isomorphic(g, h)

    def test_line_digraph_of_na10_is_the_derived_manhattan(self):
        # Determined empirically: the two labeled constructions coincide.
        from gridnet.constructions import na_to_mh
        from gridnet.families import compile_mh

        lg = line_digraph(compile_na(NA10))
        mh = compile_mh(na_to_mh(NA10))
        assert are_isomorphic(lg, mh)

    def test_cap_enforced(self):
        g = cycle(129)
        with pytest.raises(GraphError):
            are_isomorphic(g, g)


class TestAllPairsOracle:
    def test_directed_3_cycle_matrix(self):
        assert all_pairs_oracle(cycle(3)) == (
            (0, 1, 2),
            (2, 0, 1),
            (1, 2, 0),
        )

    def test_row_matches_bfs_on_na10(self):
        g = compile_na(NA10)
        assert all_pairs_oracle(g)[0] == bfs_profile(g, 0).dist

    def test_max_entry_is_diameter_g13(self):
        g = compile_ds(DoubleStepGraph(13, 2, 3))
        assert max(max(row) for row in all_pairs_oracle(g)) == 2

    def test_cap(self):
        with pytest.raises(GraphError):
            all_pairs_oracle(cycle(513))


def random_strongly_connected(rng, n):
    # a cycle plus random chords is always strongly connected
    heads = [{(i + 1) % n} for i in range(n)]
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        heads[u].add(v)
    return Digraph.from_lists(n, [sorted(h) for h in heads])


def test_oracle_equivalence_random():
    rng = random.Random(7)
    for _ in range(30):
        g = random_strongly_connected(rng, rng.randrange(2, 33))
        m = all_pairs_oracle(g)
        assert diameter(g) == max(max(row) for row in m)


def test_triangle_inequality_along_arcs():
    rng = random.Random(11)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randrange(2, 25))
        for s in range(g.order):
            dist = bfs_profile(g, s).dist
            for u, v in g.arcs():
                assert dist[v] <= dist[u] + 1


class TestExports:
    def test_dot_golden(self):
        assert to_dot(cycle(3)) == (
            "digraph {\n  0;\n  1;\n  2;\n"
            "  0 -> 1;\n  1 -> 2;\n  2 -> 0;\n}\n"
        )

    def test_json_golden_and_roundtrip(self):
        g = compile_ds(DoubleStepGraph(5, 1, 2))
        text = to_json(g)
        assert text.startswith('{"order":5,"arcs":[[1,4,2,3],')
        assert from_json(text) == g

    def test_json_byte_deterministic(self):
        g = compile_na(NA10)
        assert to_json(g) == to_json(compile_na(NA10))

    def test_malformed_json(self):
        with pytest.raises(GraphError):
            from_json("{}")

    @pytest.mark.parametrize("text", MALFORMED_TYPES)
    def test_json_types_checked(self, text):
        with pytest.raises(GraphError):
            from_json(text)
