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

from oracles import (
    all_pairs_oracle,
    are_isomorphic,
    is_directed_cycle,
    is_regular,
    line_digraph_by_arcs,
)


def cycle(n):
    return Digraph.from_lists(n, [[(i + 1) % n] for i in range(n)])


NA10 = NewAmsterdamDigraph(10, -1, 1, 3, -3)
MALFORMED_TYPES = [
    '{"order":2,"arcs":[[1],[0.5]]}',  # float head
    '{"order":"2","arcs":[[1],[0]]}',  # string order
    '{"order":2,"arcs":[1,0]}',  # rows that are not lists
    '{"order":2,"arcs":{"0":[1]}}',  # arcs that is not a list
    '{"order":2,"arcs":[[true],[0]]}',  # bool head
    # An order past the interpreter's digit limit for int(), 4300 by default.
    pytest.param('{"order":' + "7" * 5000 + ',"arcs":[]}', id="5000-digit order"),
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

    def test_keyword_construction_is_checked(self):
        with pytest.raises(GraphError):
            Digraph(order=2, out_arcs=((1, 1), (0,)))
        with pytest.raises(GraphError):
            Digraph(2, ((1, 1), (0,)))
        with pytest.raises(GraphError):
            Digraph._make((2, ((1, 1), (0,))))
        with pytest.raises(GraphError):
            cycle(2)._replace(out_arcs=((1, 1), (0,)))

    def test_fields_are_read_only(self):
        g = cycle(3)
        with pytest.raises(AttributeError):
            g.order = 4


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


def oracle_diameter(g):
    m = all_pairs_oracle(g)
    return None if any(None in row for row in m) else max(max(row) for row in m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diameter_every_digraph_on_at_most_3_vertices(n):
    # Every subset of the n*n arcs, loops included: 2, 16 and 512 digraphs,
    # most of them not strongly connected.
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for mask in range(1 << len(pairs)):
        rows = [[] for _ in range(n)]
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u].append(v)
        g = Digraph.from_lists(n, rows)
        assert diameter(g) == oracle_diameter(g), rows


@pytest.mark.parametrize(
    "g",
    [
        Digraph.from_lists(1, [[]]),
        Digraph.from_lists(1, [[0]]),
        Digraph.from_lists(4, [[1, 2], [2, 3], [3, 0], []]),  # a sink
        Digraph.from_lists(4, [[1], [2], [3], [0, 1]]),
        cycle(200),  # D = N - 1: the most levels
    ],
    ids=["order-1", "order-1-loop", "sink", "cycle-4-chord", "cycle-200"],
)
def test_diameter_against_oracle(g):
    assert diameter(g) == oracle_diameter(g)


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

    def test_equals_the_arc_by_arc_construction(self):
        # Random digraphs with loops, sinks and unreachable vertices, their
        # out-lists unsorted so that the (tail, position) numbering shows.
        rng = random.Random(31)
        seen = {"arcless": 0, "loop": 0, "not strongly connected": 0}
        for _ in range(300):
            n = rng.randrange(1, 16)
            rows = [rng.sample(range(n), rng.randrange(0, min(n, 4) + 1))
                    for _ in range(n)]
            g = Digraph.from_lists(n, rows)
            if g.arc_count == 0:
                seen["arcless"] += 1
                for build in (line_digraph, line_digraph_by_arcs):
                    with pytest.raises(GraphError):
                        build(g)
                continue
            assert line_digraph(g) == line_digraph_by_arcs(g), rows
            seen["loop"] += any(u in heads for u, heads in enumerate(rows))
            seen["not strongly connected"] += diameter(g) is None
        assert min(seen.values()) > 0, seen

    def test_regular_law_small_sweep(self):
        # delta-regular non-cycle g: |L(g)| = delta*|g|, D(L(g)) = D(g)+1
        for n in range(6, 23, 2):
            for gamma in range(1, n, 2):
                p = NewAmsterdamDigraph(n, 1, n - 1, gamma, -gamma)
                g = compile_na(p, strict=False)
                d = diameter(g)
                if d is None or is_regular(g) != 2 or is_directed_cycle(g):
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
        assert diameter(g) == oracle_diameter(g)


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
        with pytest.raises(GraphError, match="order must be positive, got 0"):
            from_json('{"order":0,"arcs":[]}')

    @pytest.mark.parametrize("text", ["null", "3", '"abc"', "[1,2]"])
    def test_payload_that_is_no_object(self, text):
        with pytest.raises(GraphError) as exc:
            from_json(text)
        assert str(exc.value) == ('malformed digraph JSON: the payload must be an '
                                  'object with "order" and "arcs"')

    @pytest.mark.parametrize("text,key", [('{"arcs":[[0]]}', "order"),
                                          ('{"order":1}', "arcs"), ("{}", "order")])
    def test_missing_key_is_named(self, text, key):
        with pytest.raises(GraphError) as exc:
            from_json(text)
        assert str(exc.value) == f'malformed digraph JSON: missing key "{key}"'

    @pytest.mark.parametrize("text", MALFORMED_TYPES)
    def test_json_types_checked(self, text):
        with pytest.raises(GraphError):
            from_json(text)

    def test_nesting_too_deep_for_the_parser(self):
        with pytest.raises(GraphError, match="malformed digraph JSON"):
            from_json("[" * 100000)
