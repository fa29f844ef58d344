import hashlib
import json

import numpy as np
import pytest

import cayleysrg.graph as graph_module
import cayleysrg.symmetries as symmetries_module
import cayleysrg.transitivity as transitivity
from cayleysrg import (
    AutomorphismError,
    Permutation,
    PermutationGroup,
    TransitivityReport,
    ZnPair,
    claimed_aut_group,
    classify,
    classify_action,
    is_arc_transitive,
    is_distance_transitive,
    is_edge_transitive,
    is_two_arc_transitive,
    is_vertex_transitive,
    translation,
)
from cayleysrg.bitset import bfs_layers, bit_positions, iter_bits
from cayleysrg.bsgs import _Level
from cayleysrg.cli import analyze_report
from cayleysrg.graph import connection_indices
from conftest import CountingRows


def v(i, j, n):
    return ZnPair(i, j, n).index


PRIMES = {5, 7, 11, 13}

QUESTIONS = (classify_action, is_vertex_transitive, is_edge_transitive, is_arc_transitive,
             is_distance_transitive, is_two_arc_transitive)


# Oracle for the rooted engine: close every vertex, edge, arc, distance pair
# and 2-arc of the graph under the whole group.

def _partition_pairs(gens, pairs, fold):
    """Orbit partition of ordered pairs; fold=True identifies (a,b) with (b,a)."""
    seen = set()
    sizes, seeds = [], []
    for pair in pairs:
        if pair in seen:
            continue
        orbit = {pair}
        queue = [pair]
        while queue:
            a, b = queue.pop()
            for img in gens:
                x, y = img[a], img[b]
                if fold and y < x:
                    x, y = y, x
                if (x, y) not in orbit:
                    orbit.add((x, y))
                    queue.append((x, y))
        seen |= orbit
        sizes.append(len(orbit))
        seeds.append(pair)
    return sizes, seeds


def _partition_triples(gens, triples):
    seen = set()
    sizes, seeds = [], []
    for triple in triples:
        if triple in seen:
            continue
        orbit = {triple}
        queue = [triple]
        while queue:
            a, b, c = queue.pop()
            for img in gens:
                nxt = (img[a], img[b], img[c])
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        seen |= orbit
        sizes.append(len(orbit))
        seeds.append(triple)
    return sizes, seeds


def _full_closure_report(grp, g):
    gens = [p.images.tolist() for p in grp.generators if not p.is_identity()]
    vc, adj = g.vertex_count, g.adjacency

    def witness(seeds):
        return (seeds[0], seeds[1]) if len(seeds) > 1 else None

    # a vertex orbit is the orbit of the pairs (v, v)
    v_sizes, v_seeds = _partition_pairs(gens, [(v, v) for v in range(vc)], fold=False)
    e_sizes, e_seeds = _partition_pairs(
        gens, [(u, v) for u in range(vc) for v in iter_bits(adj[u]) if v > u], fold=True)
    a_sizes, a_seeds = _partition_pairs(
        gens, [(u, v) for u in range(vc) for v in iter_bits(adj[u])], fold=False)
    t_sizes, t_seeds = _partition_triples(gens, [
        (u, v, w) for u in range(vc) for v in iter_bits(adj[u])
        for w in iter_bits(adj[v] & ~(1 << u))])
    dist = [g.bfs_distances(u) for u in range(vc)]
    per_distance, d_witness = [], None
    for d in range(max(map(max, dist)) + 1):
        sizes, seeds = _partition_pairs(
            gens, [(u, v) for u in range(vc) for v in range(vc) if dist[u][v] == d],
            fold=False)
        per_distance.append(tuple(sizes))
        d_witness = d_witness or witness(seeds)
    return TransitivityReport(
        n=g.n,
        vertex_transitive=len(v_sizes) == 1,
        edge_transitive=len(e_sizes) == 1,
        arc_transitive=len(a_sizes) == 1,
        distance_transitive=d_witness is None,
        two_arc_transitive=len(t_sizes) == 1,
        witnesses={
            "vertex": witness([(u,) for u, _ in v_seeds]),
            "edge": witness(e_seeds),
            "arc": witness(a_seeds),
            "distance": d_witness,
            "two_arc": witness(t_seeds),
        },
        orbit_counts={
            "edges": tuple(e_sizes),
            "arcs": tuple(a_sizes),
            "distance2_pairs": per_distance[2] if len(per_distance) > 2 else (),
            "two_arcs": tuple(t_sizes),
        },
    )


@pytest.fixture(scope="module")
def claimed_oracle(claimed_group, graph):
    """_full_closure_report for the claimed group, once per modulus."""
    reports = {}

    def get(n):
        if n not in reports:
            reports[n] = _full_closure_report(claimed_group(n), graph(n))
        return reports[n]

    return get


class TestRootedEngineMatchesFullClosure:
    @pytest.mark.parametrize("n", range(4, 14))
    def test_claimed_group(self, claimed_group, claimed_oracle, n):
        assert classify_action(claimed_group(n)) == claimed_oracle(n)

    @pytest.mark.parametrize("n", [5, 6])
    def test_origin_stabilizer(self, origin_stabilizer, n):
        # it fixes 0, so its chain's first level covers n^2 - 1 vertices
        grp = origin_stabilizer(n)
        for question in QUESTIONS:
            with pytest.raises(ValueError, match="vertex-transitive"):
                question(grp)

    def test_trivial_group(self):
        # no levels at all
        grp = PermutationGroup.from_generators([Permutation.identity(16)])
        for question in QUESTIONS:
            with pytest.raises(ValueError, match="vertex-transitive"):
                question(grp)

    def test_translations_only(self, graph):
        grp = PermutationGroup.from_generators(
            [translation(5, 1, 0).perm, translation(5, 0, 1).perm])
        assert classify_action(grp) == _full_closure_report(grp, graph(5))


class TestFirstLevelRooting:
    """A vertex-transitive chain is rooted at vertex 0 alone, which must be
    its first base point."""

    @pytest.mark.parametrize("n", range(4, 14))
    def test_claimed_group_never_closes_the_vertices(self, claimed_group, claimed_oracle,
                                                     n, monkeypatch):
        # the kernel only ever sees the objects at 0, in two calls: the
        # n^2 - 1 other vertices, which hold the arcs and the pairs at
        # distance 2, and the k(k - 1) 2-arcs
        k = 3 * n - 3
        sizes = []
        labels = transitivity.orbit_labels
        monkeypatch.setattr(transitivity, "orbit_labels",
                            lambda size, steps: sizes.append(size) or labels(size, steps))
        assert classify_action(claimed_group(n)) == claimed_oracle(n)
        assert sizes == [n * n - 1, k * (k - 1)]

    @pytest.mark.parametrize("n", [5, 6])
    def test_chain_based_off_zero_is_refused(self, claimed_group, n):
        # the linear generators first: the chain is based at the least point
        # a unit scaling moves, not at 0, though the group is the same
        gens = claimed_group(n).generators
        grp = PermutationGroup.from_generators(gens[2:] + gens[:2])
        assert grp.base[0] != 0 and grp.order() == claimed_group(n).order()
        for question in QUESTIONS:
            with pytest.raises(ValueError, match="not vertex 0"):
                question(grp)

    def test_objects_the_group_does_not_act_on_are_refused(self, claimed_group):
        # a stand-in stabiliser generator that moves vertex 0 carries the
        # arcs at 0 off the objects listed there
        grp = claimed_group(5)
        rooted = transitivity._Rooted(grp)
        rooted.stabilizer = [grp.generators[0].images]
        with pytest.raises(ValueError, match="do not act"):
            is_arc_transitive(grp, rooted)

    def test_second_level_that_moves_zero_is_refused(self, claimed_group):
        # the claimed generators and first level, with a next level that
        # holds a translation: an automorphism, but not in G_0, so it is
        # refused before any question reads it
        grp = claimed_group(5)
        level = _Level(grp._levels[1].point, [translation(5, 1, 0).perm])
        level.recompute_orbit(25)
        forged = PermutationGroup(grp.generators, 25, [grp._levels[0], level])
        for question in QUESTIONS:
            with pytest.raises(ValueError, match="moves vertex 0"):
                question(forged)


# sha256 (first 16 hex digits) of the canonical JSON of the transitivity
# block of analyze_report(n), recorded with the engine that closed every
# vertex and partitioned with core.orbits.  The full-closure oracle above
# stops at 13; these pin the reports up to 41.
TRANSITIVITY_DIGESTS = {
    4: "3a4ca2d1b28bffbb", 5: "001956b3c8ccf0ee", 6: "aef940908a0a881b",
    7: "204bc13a6eff637e", 8: "c81ff2ea0b76223d", 9: "560d9f43490b4e97",
    10: "c313a9d8a9722ed3", 11: "1692818e7a102618", 12: "50b3eff1d5da9c76",
    13: "c0381828fc8e72ab", 14: "fd9173da0229786e", 15: "e7ed99c3dcca15c0",
    16: "eafb062733892d7e", 17: "9fb8313fef0493c8", 18: "2de86b8f6abeddf0",
    19: "d3129492815c68aa", 20: "21bfd80e1a270577", 21: "026c1a49724c6cde",
    22: "b5ab91619ce3cf42", 23: "52a63df8027d14b5", 24: "91012c8f3fe3007f",
    25: "ec31b4d4dc91dffe", 26: "4dbf785d5bc807e1", 27: "c6d6f5ffd9c6146d",
    28: "08099917fa9c667b", 29: "7c5a417b2346e5c6", 30: "6fb28e8eaf11a045",
    31: "ebd5f121563f453c", 32: "8ec9422e13bed2a2", 33: "6158298b78c45c2a",
    34: "39a8fe24d1df0802", 35: "554feb672f8f1a41", 36: "26d3bb87d4ae561a",
    37: "22787877769acf40", 38: "9e98560fcf132c24", 39: "09dbae79ef4da862",
    40: "b8a436e539f287ee", 41: "404b464f49a9175a",
}


def tails_read_off_the_rows(g):
    """The 2-arc tails (s, w) at vertex 0 read off the rows, as the engine
    read them before it took them from S, in ascending order: s runs over
    the row of 0, and w over the row of s but 0."""
    count = g.vertex_count
    hood = bit_positions([g.adjacency[0]], count)[1]
    at, w = bit_positions([g.adjacency[v] & ~1 for v in hood.tolist()], count)
    return np.column_stack((hood[at], w))


def _members(labels, firsts):
    """The vertices in the orbits of the vertex labels whose least members
    are firsts, as a bitmask."""
    least = np.array([v - 1 for v in firsts], dtype=np.int64)
    return sum(1 << v for v in (np.flatnonzero(np.isin(labels, least)) + 1).tolist())


class TestObjectsFromS:
    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_layers_and_objects_match_the_rows(self, claimed_group, graph, monkeypatch, n):
        g = graph(n)
        hood = connection_indices(n)
        in_s = sum(1 << s for s in hood.tolist())
        layers = bfs_layers(g.adjacency, 0)
        assert layers == [1, in_s, (1 << n * n) - 2 - in_s]
        # the arc orbits hold S, the first layer, and the distance-2
        # orbits the rest, the second
        labels, arcs, far = transitivity._Rooted(claimed_group(n)).vertex_orbits
        assert _members(labels, [v for (_, v), _ in arcs]) == layers[1]
        assert _members(labels, [v for (_, v), _ in far]) == layers[2]
        # classify_action numbers the 2-arcs of _two_arcs(n)
        seen = []
        two_arcs = transitivity._two_arcs
        monkeypatch.setattr(transitivity, "_two_arcs",
                            lambda m: seen.append(m) or two_arcs(m))
        classify_action(claimed_group(n))
        assert seen == [n]
        rank, heads, sums = two_arcs(n)
        k = hood.size
        tails = np.column_stack((np.repeat(hood, k - 1),
                                 np.take_along_axis(sums, heads, axis=1).ravel()))
        assert np.array_equal(tails, tails_read_off_the_rows(g))
        # 2-arc i is (a, heads[a, i % (k - 1)]) for a = i // (k - 1), and
        # rank numbers every (a, b) but t = -s, which is no 2-arc
        a, i = np.divmod(np.arange(k * (k - 1)), k - 1)
        assert np.array_equal(rank[a, heads[a, i]], np.arange(k * (k - 1)))
        assert np.array_equal(rank == -1, sums == 0)


class TestNoGraph:
    @pytest.mark.parametrize("n", range(4, 18))
    def test_transitivity_builds_and_reads_no_graph(self, monkeypatch, n):
        # every graph built anywhere is recorded, over rows that count their
        # lookups, and so is every CayleyGraph made by hand
        built, reads = [], []
        init = graph_module.CayleyGraph.__init__

        def spy(g, n, connection, adjacency):
            rows = CountingRows(adjacency)
            reads.append(rows)
            init(g, n, connection, rows)

        build = graph_module.build_graph
        monkeypatch.setattr(graph_module.CayleyGraph, "__init__", spy)
        for mod in (graph_module, symmetries_module, transitivity):
            if hasattr(mod, "build_graph"):
                monkeypatch.setattr(mod, "build_graph",
                                    lambda m: built.append(m) or build(m))
        assert classify(n) == classify_action(claimed_aut_group(n))
        assert built == [] and reads == []
        # the spies see a graph that is built and read
        symmetries_module.build_graph(n).neighbors(0)
        assert built == [n] and reads[0].reads == 1


class TestPinnedReports:
    @pytest.mark.parametrize("n", range(4, 42))
    def test_transitivity_block(self, n):
        report, failures = analyze_report(n)
        assert failures == []
        text = json.dumps(report["transitivity"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == TRANSITIVITY_DIGESTS[n]


class TestClassification:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_booleans_match_the_theory(self, claimed_group, n):
        rep = classify_action(claimed_group(n))
        assert rep.vertex_transitive
        assert rep.edge_transitive == (n in PRIMES)
        assert rep.arc_transitive == (n in PRIMES)
        assert rep.distance_transitive == (n == 5)
        assert not rep.two_arc_transitive

    def test_classify_builds_the_same_report(self, claimed_group):
        assert classify(5) == classify_action(claimed_group(5))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_orbit_sizes_account_for_every_object(self, claimed_group, n):
        rep = classify_action(claimed_group(n))
        k = 3 * n - 3
        assert sum(rep.orbit_counts["edges"]) == n * n * k // 2
        assert sum(rep.orbit_counts["arcs"]) == n * n * k
        assert sum(rep.orbit_counts["distance2_pairs"]) == n * n * (n * n - k - 1)
        assert sum(rep.orbit_counts["two_arcs"]) == n * n * k * (k - 1)

    def test_edge_orbits_at_four(self, claimed_group):
        res = is_edge_transitive(claimed_group(4))
        assert not res.transitive
        # unit-difference edges on one side, the halving class on the other
        assert res.orbit_sizes == (48, 24)
        assert res.witness == ((0, 1), (0, 2))

    def test_arc_count_at_seven_is_one_orbit(self, claimed_group):
        res = is_arc_transitive(claimed_group(7))
        assert res.transitive
        assert res.orbit_sizes == (882,)

    def test_distance_layers_at_five(self, claimed_group):
        res = is_distance_transitive(claimed_group(5))
        assert res.transitive
        assert res.orbit_sizes_by_distance == ((25,), (300,), (300,))
        assert res.witness is None and res.witness_distance is None

    def test_distance_witness_at_seven(self, claimed_group, graph):
        res = is_distance_transitive(claimed_group(7))
        assert not res.transitive
        assert res.witness_distance == 2
        first, second = res.witness
        dist = graph(7).bfs_distances(first[0])
        assert dist[first[1]] == 2


class TestWitnessPairs:
    def test_composite_edge_witness_has_no_mapping_either_way(self, claimed_group):
        # the arc from (0,0) along (2,0) cannot be carried onto the arc
        # along (1,1), in either orientation, when n = 4
        grp = claimed_group(4)
        orbit = grp.orbit_of_tuple((0, v(2, 0, 4)))
        assert (0, v(1, 1, 4)) not in orbit
        assert (v(1, 1, 4), 0) not in orbit

    def test_distance_two_split_at_seven(self, claimed_group):
        grp = claimed_group(7)
        orbit = grp.orbit_of_tuple((0, v(2, 3, 7)))
        assert (0, v(4, 2, 7)) not in orbit

    def test_two_arc_split_at_five(self, claimed_group, graph):
        g = graph(5)
        first = (0, v(0, 1, 5), v(2, 3, 5))
        second = (0, v(2, 2, 5), v(4, 2, 5))
        for a, b, c in (first, second):
            assert g.is_adjacent(a, b) and g.is_adjacent(b, c) and a != c
        orbit = claimed_group(5).orbit_of_tuple(first)
        assert second not in orbit


class TestImplicationChain:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_chain_holds(self, claimed_group, n):
        rep = classify_action(claimed_group(n))
        if rep.arc_transitive:
            assert rep.edge_transitive
        if rep.two_arc_transitive:
            assert rep.arc_transitive
        if rep.distance_transitive:
            assert rep.arc_transitive


class TestGenericActions:
    def test_trivial_group_is_transitive_on_nothing(self):
        # every vertex is an orbit of its own, so the group is refused
        grp = PermutationGroup.from_generators([Permutation.identity(16)])
        for question in (is_vertex_transitive, is_edge_transitive):
            with pytest.raises(ValueError, match="not vertex-transitive"):
                question(grp)

    def test_translations_alone_are_vertex_but_not_edge_transitive(self):
        grp = PermutationGroup.from_generators(
            [translation(5, 1, 0).perm, translation(5, 0, 1).perm]
        )
        assert is_vertex_transitive(grp).transitive
        res = is_edge_transitive(grp)
        assert not res.transitive
        # one orbit per connection-set difference, folded by negation
        assert len(res.orbit_sizes) == 6

    def test_non_automorphism_generator_rejected(self):
        imgs = list(range(16))
        imgs[1], imgs[2] = imgs[2], imgs[1]
        grp = PermutationGroup.from_generators([Permutation(imgs)])
        with pytest.raises(AutomorphismError):
            is_edge_transitive(grp)

    def test_classify_checks_each_generator_once(self, claimed_group, monkeypatch):
        # the strong generators, the chain the engine reads, not the inputs,
        # by the certificate of S at the group's modulus
        checked = []
        monkeypatch.setattr(transitivity, "_certify",
                            lambda n, perms: checked.append((n, list(perms))))
        grp = claimed_group(6)
        classify_action(grp)
        assert checked == [(6, grp.strong_generators)]

    def test_context_of_another_group_is_not_trusted(self, claimed_group):
        rooted = transitivity._Rooted(claimed_group(4))
        imgs = list(range(16))
        imgs[1], imgs[2] = imgs[2], imgs[1]
        bad = PermutationGroup.from_generators([Permutation(imgs)])
        with pytest.raises(AutomorphismError):
            is_two_arc_transitive(bad, rooted)

    def test_forged_chain_is_refused(self, claimed_group):
        # the claimed generators and first level, with a next level whose
        # only generator swaps (0, 1) and (0, 2): the generators the caller
        # passes are automorphisms, the ones the kernel reads are not
        grp = claimed_group(5)
        swap = list(range(25))
        swap[1], swap[2] = 2, 1
        level = _Level(1, [Permutation(swap)])
        level.recompute_orbit(25)
        forged = PermutationGroup(grp.generators, 25, [grp._levels[0], level])
        with pytest.raises(AutomorphismError):
            is_edge_transitive(forged)

    def test_degree_mismatch_rejected(self):
        # not n^2, or n^2 for a modulus below 4 or past the graph's cap: no
        # graph of the family has that many vertices
        for degree in (9, 15, 26, 1001 ** 2):
            swap = list(range(degree))
            swap[0], swap[1] = 1, 0
            grp = PermutationGroup.from_generators([Permutation(swap)])
            for question in QUESTIONS:
                with pytest.raises(ValueError, match=r"is not n\*\*2 for a modulus"):
                    question(grp)

    def test_two_arc_orbits_on_the_smallest_graph(self, claimed_group):
        res = is_two_arc_transitive(claimed_group(4))
        assert not res.transitive
        assert res.witness[0] == (0, 1, 2)
