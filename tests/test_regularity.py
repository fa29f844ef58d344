import random

import numpy as np
import pytest

from cayleysrg import (
    CayleyGraph,
    IntersectionArray,
    RegularityRefusal,
    SrgParams,
    build_graph,
    cayley_srg_params,
    check_strongly_regular,
    connection_set,
    diameter,
    intersection_array,
)
from cayleysrg.graph import connection_indices
from conftest import CountingRows, two_switch


class FakeGraph:
    """Minimal stand-in: vertex_count plus adjacency bitmasks."""

    def __init__(self, vertex_count, edges):
        self.vertex_count = vertex_count
        self.adjacency = [0] * vertex_count
        for u, v in edges:
            self.adjacency[u] |= 1 << v
            self.adjacency[v] |= 1 << u


def cycle(k):
    return FakeGraph(k, [(v, (v + 1) % k) for v in range(k)])


def complete(k):
    return FakeGraph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def prism():
    # two triangles joined by a perfect matching; 3-regular, diameter 2,
    # but the counts at distance 1 depend on the pair, so not
    # distance-regular
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (0, 3), (1, 4), (2, 5)]
    return FakeGraph(6, edges)


def petersen_lookalike():
    # cubic on 10 vertices; seen from vertex 0 it is a Moore tree of depth
    # 2 like the Petersen graph (b_0 = 3, b_1 = 2, c_1 = 1, c_2 = 1), but
    # vertex 1 has eccentricity 3
    edges = [(0, 5), (0, 8), (0, 9), (1, 3), (1, 4), (1, 9), (2, 4), (2, 5),
             (2, 6), (3, 7), (3, 8), (4, 9), (5, 6), (6, 7), (7, 8)]
    return FakeGraph(10, edges)


class Exhaustive:
    """Only vertex_count and adjacency of g: without n the rows cannot be
    shown translation-invariant, so every check scans from every vertex."""

    def __init__(self, g):
        self.vertex_count = g.vertex_count
        self.adjacency = g.adjacency


class Torus:
    """Rows on Z_n x Z_n that claim the modulus n, as build_graph's do."""

    def __init__(self, n, adjacency):
        self.n = n
        self.vertex_count = n * n
        self.adjacency = adjacency


def outcome(check, g):
    """check(g), or the message and witness of its refusal."""
    try:
        return check(g)
    except RegularityRefusal as exc:
        return str(exc), exc.witness


def drop_edge(g, u, v):
    out = FakeGraph(g.vertex_count, [])
    out.adjacency = list(g.adjacency)
    out.adjacency[u] &= ~(1 << v)
    out.adjacency[v] &= ~(1 << u)
    return out


class TestSrgParams:
    def test_feasibility_identity_enforced(self):
        SrgParams(v=16, k=9, lam=4, mu=6)
        with pytest.raises(ValueError, match="infeasible"):
            SrgParams(v=16, k=9, lam=4, mu=5)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_family_parameters(self, graph, n):
        srg = check_strongly_regular(graph(n))
        assert (srg.v, srg.k, srg.lam, srg.mu) == (n * n, 3 * n - 3, n, 6)


class TestCheckStronglyRegular:
    def test_irregular_degree_refused_with_witness(self, graph):
        broken = drop_edge(graph(4), 0, 1)
        with pytest.raises(RegularityRefusal, match="degrees differ") as exc:
            check_strongly_regular(broken)
        assert exc.value.witness is not None

    def test_mu_disagreement_refused(self):
        # the 8-cycle is 2-regular but distance-2 and distance-3 pairs
        # have different common-neighbour counts
        with pytest.raises(RegularityRefusal, match="non-adjacent") as exc:
            check_strongly_regular(cycle(8))
        u, v = exc.value.witness
        assert 0 <= u < v < 8

    def test_lambda_disagreement_refused(self):
        # prism: triangle edges have one common neighbour, matching edges none
        with pytest.raises(RegularityRefusal, match="adjacent pairs disagree"):
            check_strongly_regular(prism())

    def test_disconnected_refused(self):
        two_triangles = FakeGraph(6, [(0, 1), (1, 2), (0, 2),
                                      (3, 4), (4, 5), (3, 5)])
        with pytest.raises(RegularityRefusal, match="disconnected"):
            check_strongly_regular(two_triangles)

    def test_complete_graph_refused(self):
        with pytest.raises(RegularityRefusal, match="complete or empty"):
            check_strongly_regular(complete(5))

    def test_pentagon_is_strongly_regular(self):
        srg = check_strongly_regular(cycle(5))
        assert (srg.v, srg.k, srg.lam, srg.mu) == (5, 2, 0, 1)


class TestIntersectionArray:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_family_array(self, graph, n):
        arr = intersection_array(graph(n))
        assert arr == IntersectionArray(
            b=(3 * n - 3, 2 * n - 4), c=(1, 6), diameter=2
        )

    def test_array_head_matches_degree(self, graph):
        g = graph(7)
        arr = intersection_array(g)
        assert arr.b[0] == g.degree_of(0)
        assert arr.c[0] == 1

    def test_cycle_array(self):
        arr = intersection_array(cycle(8))
        assert arr == IntersectionArray(b=(2, 1, 1, 1), c=(1, 1, 1, 2), diameter=4)

    def test_prism_is_not_distance_regular(self):
        with pytest.raises(RegularityRefusal) as exc:
            intersection_array(prism())
        assert exc.value.witness is not None

    def test_unequal_eccentricities_refused(self):
        with pytest.raises(RegularityRefusal, match="eccentricities differ") as exc:
            intersection_array(petersen_lookalike())
        assert exc.value.witness == (0, 1)
        assert diameter(petersen_lookalike()) == 3

    def test_single_vertex(self):
        assert intersection_array(FakeGraph(1, [])) == IntersectionArray(
            b=(), c=(), diameter=0
        )

    def test_no_vertices_refused(self):
        with pytest.raises(RegularityRefusal, match="at least one vertex") as exc:
            intersection_array(FakeGraph(0, []))
        assert exc.value.witness is None

    def test_no_vertices_diameter_refused(self):
        with pytest.raises(RegularityRefusal, match="at least one vertex") as exc:
            diameter(FakeGraph(0, []))
        assert exc.value.witness is None

    def test_disconnected_refused(self):
        two_triangles = FakeGraph(6, [(0, 1), (1, 2), (0, 2),
                                      (3, 4), (4, 5), (3, 5)])
        with pytest.raises(RegularityRefusal, match="disconnected") as exc:
            intersection_array(two_triangles)
        assert exc.value.witness == (0, 3)

    def test_irregular_graph_refused(self, graph):
        with pytest.raises(RegularityRefusal, match="degrees differ"):
            intersection_array(drop_edge(graph(4), 2, 3))

    def test_validation_of_hand_built_arrays(self):
        with pytest.raises(ValueError, match="c_1"):
            IntersectionArray(b=(4, 2), c=(2, 4), diameter=2)
        with pytest.raises(ValueError, match="entry per distance"):
            IntersectionArray(b=(4,), c=(1, 2), diameter=2)
        with pytest.raises(ValueError, match="positive"):
            IntersectionArray(b=(4, 0), c=(1, 2), diameter=2)


class TestDiameter:
    @pytest.mark.parametrize("n", range(4, 17))
    def test_family_diameter_is_two(self, graph, n):
        assert diameter(graph(n)) == 2

    def test_cycle_diameter(self):
        assert diameter(cycle(8)) == 4

    def test_single_vertex(self):
        assert diameter(FakeGraph(1, [])) == 0

    def test_disconnected_refused(self):
        with pytest.raises(RegularityRefusal, match="disconnected"):
            diameter(FakeGraph(3, [(0, 1)]))


class TestRootedScan:
    @pytest.mark.parametrize("n", range(4, 17))
    def test_rooted_and_exhaustive_scans_agree(self, graph, n):
        g = graph(n)
        for check in (check_strongly_regular, intersection_array, diameter):
            assert check(g) == check(Exhaustive(g))

    @pytest.mark.parametrize("switch, witness", [
        # through vertex 0: both scans refuse in the first row
        ((0, 1, 8, 6), (0, 3)),
        # between (1, 2), (1, 3), (2, 1) and (2, 5), none of them 0 or a
        # neighbour of 0: every pair through 0 looks as before
        ((8, 9, 13, 17), (1, 8)),
    ])
    def test_two_switch_keeping_n_is_refused_as_exhaustively(self, graph, switch, witness):
        rows = two_switch(graph(6).adjacency, *switch)
        switched = Torus(6, rows)
        for check, message in ((check_strongly_regular, "adjacent pairs disagree"),
                               (intersection_array, "b_1 is not constant")):
            refused = outcome(check, switched)
            assert refused == outcome(check, Exhaustive(switched))
            assert refused[0].startswith(message)
            assert refused[1] == witness

    def test_rows_read_grow_with_vertex_count_not_pairs(self, graph):
        g = graph(20)
        vc = g.vertex_count
        for check in (check_strongly_regular, intersection_array, diameter):
            rows = CountingRows(g.adjacency)
            assert check(Torus(20, rows)) == check(g)
            assert rows.reads <= 8 * vc

    def test_modulus_that_does_not_match_the_vertex_count_is_not_trusted(self):
        lookalike = petersen_lookalike()
        lookalike.n = 3
        assert diameter(lookalike) == 3

    @pytest.mark.parametrize("check", [check_strongly_regular, intersection_array, diameter])
    @pytest.mark.parametrize("count", [26, 16])
    def test_a_wrong_row_count_is_refused_before_any_scan(self, check, count):
        # the 25 rows of the graph of modulus 5 with a 26th row, adjacent to
        # itself, or only the first 16: the rooted scan read 25 rows either
        # way, and answered for 26 rows or raised IndexError for 16
        full = build_graph(5).adjacency
        rows = CountingRows((*full, 1 << 25) if count == 26 else full[:count])
        with pytest.raises(RegularityRefusal, match=f"{count} adjacency rows for 25") as exc:
            check(CayleyGraph(5, connection_set(5), rows))
        assert exc.value.witness == min(count, 25) and rows.reads == 0


def translated(n, members):
    """Rows of Cay(Z_n x Z_n, S) for S the given vertex indices, set bit by
    bit from the definition: row (a, b) holds (a + i, b + j) for each (i, j)
    in S."""
    rows = []
    for a in range(n):
        for b in range(n):
            row = 0
            for i, j in (divmod(s, n) for s in members):
                row |= 1 << ((a + i) % n * n + (b + j) % n)
            rows.append(row)
    return Torus(n, rows)


def negative(n, s):
    i, j = divmod(s, n)
    return (-i % n) * n + (-j % n)


def counted_on(n, members):
    """cayley_srg_params on the ascending indices of members, or the message
    and witness of its refusal."""
    return outcome(lambda m: cayley_srg_params(n, np.array(sorted(m), dtype=np.int64)),
                   members)


def tampered_sets(n):
    """Symmetric sets S' near the family's S: S with one pair +-s removed,
    a set generating the proper subgroup 2Z_n x Z_n (n even), every
    nonzero vertex, and no vertex."""
    family = set(connection_indices(n).tolist())
    sets = [family - {s, negative(n, s)} for s in sorted(family)]
    if n % 2 == 0:
        sets.append({s for s in family if s // n % 2 == 0})
    sets.append(set(range(1, n * n)))
    sets.append(set())
    return sets


class TestCayleySrgParams:
    """The count on S against the rooted row scan, its oracle, on the rows
    of the same Cayley graph."""

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_family_agrees_with_the_row_scan(self, graph, n):
        counted = cayley_srg_params(n, connection_indices(n))
        assert counted == check_strongly_regular(graph(n))
        assert (counted.v, counted.k, counted.lam, counted.mu) == (n * n, 3 * n - 3, n, 6)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_tampered_sets_are_refused_as_the_row_scan_refuses(self, n):
        refusals = set()
        for members in tampered_sets(n):
            counted = counted_on(n, members)
            assert counted == outcome(check_strongly_regular, translated(n, members))
            assert not isinstance(counted, SrgParams)
            refusals.add(counted[0].split(":")[0])
        assert {"adjacent pairs disagree", "graph is disconnected",
                "graph is complete or empty, not in the strongly regular range"} <= refusals

    @pytest.mark.parametrize("seed", range(40))
    def test_random_symmetric_sets_agree_with_the_row_scan(self, seed):
        rng = random.Random(seed)
        n = rng.choice([4, 5, 6, 7])
        members = set()
        for s in rng.sample(range(1, n * n), rng.randint(1, n * n // 2)):
            members |= {s, negative(n, s)}
        assert counted_on(n, members) == outcome(check_strongly_regular,
                                                 translated(n, members))

    def test_strongly_regular_sets_outside_the_family(self):
        # the 4 x 4 rook's graph and the Shrikhande graph, both SRG(16, 6, 2, 2)
        rook = {1, 2, 3, 4, 8, 12}
        shrikhande = {1, 3, 4, 12, 5, 15}
        for members in (rook, shrikhande):
            assert counted_on(4, members) == check_strongly_regular(translated(4, members))
            assert counted_on(4, members) == SrgParams(v=16, k=6, lam=2, mu=2)

    def test_a_set_holding_zero_is_refused(self):
        members = set(connection_indices(5).tolist()) | {0}
        assert counted_on(5, members) == (
            "connection set holds 0: vertex 0 is adjacent to itself", (0, 0))

    def test_an_asymmetric_set_is_refused_at_its_least_lonely_member(self):
        n = 6
        family = set(connection_indices(n).tolist())
        # (1, 2) and (2, 5) without (5, 4) and (4, 1)
        members = family | {n + 2, 2 * n + 5}
        assert counted_on(n, members) == (
            f"connection set holds {n + 2} but not its negative {5 * n + 4}", (0, n + 2))

    # the floats would truncate to S at n = 5, and the bools to {0, 1}
    @pytest.mark.parametrize("hood", [[3, 1, 2], [1, 1, 2], [-1, 1], [1, 25], [[1, 2]],
                                      [1.9, 2.2, 3.0, 4.0, 5.0, 6, 10, 12, 15, 18, 20, 24],
                                      np.array([False, True])])
    def test_indices_that_are_not_ascending_vertices_are_a_value_error(self, hood):
        with pytest.raises(ValueError, match="ascending vertex indices"):
            cayley_srg_params(5, hood)
