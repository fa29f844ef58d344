import ast
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cayleysrg.core as core
import cayleysrg.graph as graph_module
import cayleysrg.symmetries as symmetries_module
import cayleysrg.transitivity as transitivity
from cayleysrg import (
    AutomorphismError,
    Permutation,
    PermutationGroup,
    TransitivityReport,
    ZnPair,
    claimed_affine_group,
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
from conftest import CountingRows, affine_form, orbit_labels


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
        assert classify_action(affine_form(claimed_group(n))) == claimed_oracle(n)

    def test_translations_only(self, graph):
        # T alone: a chain of one level, whose form has no matrices
        grp = PermutationGroup.from_generators(
            [translation(5, 1, 0).perm, translation(5, 0, 1).perm])
        form = affine_form(grp)
        assert form.matrices == [] and form.stabilizer_order() == 1
        assert classify_action(form) == _full_closure_report(grp, graph(5))


class TestFirstLevelRooting:
    """Every answer is read at vertex 0, off G_0's keys: no vertex orbit is
    closed and no permutation is built."""

    @pytest.mark.parametrize("n", range(4, 14))
    def test_claimed_group_never_closes_the_vertices(self, claimed_group, claimed_oracle, n):
        # every answer is read off G_0's keys, one per element of G_0, of
        # order 6 phi(n)
        assert classify_action(affine_form(claimed_group(n))) == claimed_oracle(n)
        phi = sum(math.gcd(u, n) == 1 for u in range(n))
        assert len(affine_form(claimed_group(n)).keys) == 6 * phi

    @pytest.mark.parametrize("n", [12, 30, 31])
    def test_the_edge_pairing_builds_no_translation(self, claimed_group, n, monkeypatch):
        # the reversed arcs are read off the vertex labels: once the form is
        # built, no element of degree n^2 is made
        form = affine_form(claimed_group(n))
        expected = is_edge_transitive(form)

        def refuse(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(symmetries_module._OnRequest, "__getitem__", refuse)
        monkeypatch.setattr(Permutation, "__init__", refuse)
        assert is_edge_transitive(form) == expected


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


def vertex_orbits_by_kernel(grp):
    """AffineGroup.vertex_orbits by one kernel call on the n^2 - 1 vertices
    other than 0, vertex v as object v - 1, as the engine found them before
    it read G_0 off its elements: the vertex labels, then the arc orbits and
    the distance-2 orbits, each as its least pair (0, v) and its size."""
    count = grp.degree
    labels = orbit_labels(count - 1, (p.images[1:] - 1 for p in grp.stabilizer_generators(0)))
    firsts = np.flatnonzero(labels == np.arange(labels.size))
    hood = set(connection_indices(math.isqrt(count)).tolist())
    arcs, far = [], []
    for v, size in zip((firsts + 1).tolist(), (np.bincount(labels)[firsts] * count).tolist()):
        (arcs if v in hood else far).append(((0, v), size))
    return labels, arcs, far


def _members(labels, firsts):
    """The vertices in the orbits of the vertex labels whose least members
    are firsts, as a bitmask."""
    least = np.array([v - 1 for v in firsts], dtype=np.int64)
    return sum(1 << v for v in (np.flatnonzero(np.isin(labels, least)) + 1).tolist())


class TestObjectsFromS:
    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_layers_and_objects_match_the_rows(self, claimed_group, graph, n):
        g = graph(n)
        hood = connection_indices(n)
        in_s = sum(1 << s for s in hood.tolist())
        layers = bfs_layers(g.adjacency, 0)
        assert layers == [1, in_s, (1 << n * n) - 2 - in_s]
        # the arc orbits hold S, the first layer, and the distance-2
        # orbits the rest, the second; the kernel says which vertices each holds
        _, arcs, far, _ = affine_form(claimed_group(n)).vertex_orbits
        labels = vertex_orbits_by_kernel(claimed_group(n))[0]
        assert _members(labels, [v for (_, v), _ in arcs]) == layers[1]
        assert _members(labels, [v for (_, v), _ in far]) == layers[2]

    # 243 = 3^5, where the kernel needs the most rounds up to the cap, is
    # built here and dropped, not kept for the session
    @pytest.mark.parametrize("n", [*range(4, 42), 61, 64, 81, 101, 125, 128, 243])
    def test_vertex_orbits_match_the_kernel(self, claimed_group, n):
        grp = claimed_group(n) if n < 200 else claimed_aut_group(n)
        form = affine_form(grp)
        label, arcs, far, fixers = form.vertex_orbits
        labels, *orbits = vertex_orbits_by_kernel(grp)
        assert [arcs, far] == orbits
        # label names the least member of each member of S's orbit
        hood = connection_indices(n)
        assert np.array_equal(label[hood], labels[hood - 1] + 1)
        # and the walk lists the elements that fix each arc orbit's least
        # member s, |G_0| / |G_0.s| of them
        c1, c2 = form.columns
        for ((_, s), size), fixing in zip(arcs, fixers):
            x, y = divmod(s, n)
            fixed = np.flatnonzero(((x * c1 + y * c2) % n == [[x], [y]]).all(axis=0))
            assert np.array_equal(fixing, fixed)
            assert fixing.size * size == grp.order()


# Oracle for the 2-arcs: the k(k - 1) 2-arcs at 0, numbered by a k x k rank
# table and partitioned by the orbit kernel, as the engine did before it
# read G_0 as a table over S.

def _two_arcs(n):
    """The 2-arcs 0 ~ s ~ s + t, s and t the a-th and b-th members of S,
    numbered in the order of (s, s + t): rank[a, b] is the number, -1 at
    t = -s; heads[a] lists b by ascending s + t, so 2-arc i is (a, heads[a, j])
    for a, j = divmod(i, k - 1); and sums[a, b] is s + t."""
    hood = connection_indices(n)
    k = hood.size
    si, sj = np.divmod(hood, n)
    sums = (si[:, None] + si) % n * n + (sj[:, None] + sj) % n
    # a sorted row starts at its one 0, at t = -s; a row's sums are distinct
    order = np.argsort(sums, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(-1, k * k - 1).reshape(k, k)
                      - np.arange(k)[:, None], axis=1)
    rank[np.arange(k), order[:, 0]] = -1
    return rank, order[:, 1:], sums


def two_arcs_by_kernel(grp):
    """is_two_arc_transitive by one kernel call on the k(k - 1) 2-arcs: a
    generator g of G_0 is linear, so it carries the 2-arc (a, b) to
    (sigma[a], sigma[b]), sigma its permutation of S's indices."""
    n = math.isqrt(grp.degree)
    hood = connection_indices(n)
    rank, heads, sums = _two_arcs(n)
    k = hood.size
    labels = orbit_labels(k * (k - 1), (
        np.take(rank, sigma[:, None] * k + sigma[heads]).ravel()
        for sigma in (symmetries_module._s_index(n, p.images[hood])
                      for p in grp.stabilizer_generators(0))))
    firsts = np.flatnonzero(labels == np.arange(labels.size))
    sizes = np.bincount(labels)[firsts] * grp.degree
    a, i = np.divmod(firsts, k - 1)
    return transitivity._result([((0, s, w), size) for s, w, size in zip(
        hood[a].tolist(), sums[a, heads[a, i]].tolist(), sizes.tolist())])


class TestTwoArcsOffTheTable:
    # the prime powers are where the kernel needs many rounds
    @pytest.mark.parametrize("n", [*range(4, 42), 61, 64, 81, 101, 125, 128])
    def test_table_matches_the_kernel(self, claimed_group, n):
        form = affine_form(claimed_group(n))
        assert is_two_arc_transitive(form) == two_arcs_by_kernel(claimed_group(n))

    # composites with several arc-orbit roots; at the default block size
    # each root's stabiliser fits in one block, at these sizes it spans many
    @pytest.mark.parametrize("block", [1, 50, 700])
    @pytest.mark.parametrize("n", [6, 12, 16, 24, 30, 36, 60, 64, 81, 120])
    def test_any_block_size_gives_the_same_orbits(self, monkeypatch, n, block):
        form = claimed_affine_group(n)
        expected = is_two_arc_transitive(form)
        assert len(form.vertex_orbits[1]) > 1
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block)
        assert is_two_arc_transitive(form) == expected

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_oracle_tails_match_the_rows(self, graph, n):
        rank, heads, sums = _two_arcs(n)
        hood = connection_indices(n)
        k = hood.size
        tails = np.column_stack((np.repeat(hood, k - 1),
                                 np.take_along_axis(sums, heads, axis=1).ravel()))
        assert np.array_equal(tails, tails_read_off_the_rows(graph(n)))
        # 2-arc i is (a, heads[a, i % (k - 1)]) for a = i // (k - 1), and
        # rank numbers every (a, b) but t = -s, which is no 2-arc
        a, i = np.divmod(np.arange(k * (k - 1)), k - 1)
        assert np.array_equal(rank[a, heads[a, i]], np.arange(k * (k - 1)))
        assert np.array_equal(rank == -1, sums == 0)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_schreier_sims_chain_gives_the_same_report(self, claimed_group, n):
        # the translations come first, so the compiled chain is based at 0,
        # and its levels past the first need not be G_0's (e_2, e_1)
        grp = PermutationGroup.from_generators(claimed_group(n).generators)
        assert grp.base[0] == 0
        assert classify_action(affine_form(grp)) == classify(n)
        phi = sum(math.gcd(u, n) == 1 for u in range(n))
        assert len(affine_form(grp).keys) == 6 * phi

    @pytest.mark.parametrize("forge", ["identity", "translation", "swap", "repeat", "coset"])
    def test_forged_transversal_element_is_refused(self, claimed_group, forge):
        # G_0's first transversal with one element replaced: by the identity,
        # which leaves a coset out; by a translation, which carries S off S;
        # by a swap of two members of S, no automorphism; with one element
        # listed twice; with every element u made u o r, r a swap of two
        # members of S that fixes e_2 and e_1.  The keys are closed from the
        # certified generators, so no transversal past the first level is
        # read, and the forged chain's form gets the honest chain's report
        grp = claimed_group(5)
        first, level, *rest = grp._levels
        x = next(x for x in level.transversal_inv if x != level.point)
        forged = dict(level.transversal_inv)
        swap = list(range(25))
        if forge == "coset":
            swap[2], swap[3] = 3, 2  # (0, 2) and (0, 3); e_2 is 1 and e_1 is 5
            forged = {y: Permutation(u.images[swap]) for y, u in forged.items()}
        elif forge == "repeat":
            forged[-1] = forged[x]
        else:
            swap[1], swap[5] = 5, 1
            forged[x] = {"identity": Permutation.identity(25),
                         "translation": translation(5, 1, 0).perm,
                         "swap": Permutation(swap)}[forge]
        chain = PermutationGroup(grp.generators, 25,
                                 [first, _Level(level.point, level.gens, forged), *rest])
        assert classify_action(affine_form(chain)) == classify(5)

    def test_coset_listed_beside_the_stabilizer_is_never_read(self, claimed_group):
        # G_0's first transversal at n = 7 with u o r listed beside every
        # element u, under keys no point has, r the swap of e_2 = (0, 1) and
        # (0, 2), two members of S: a product of the transversals lists G_0
        # and the coset G_0 r, 72 rows closed under G_0, with distinct images
        # of e_2 and e_1 and the identity among them; the keys, closed from
        # the identity's under G_0's generators, list the 36 of G_0
        grp = claimed_group(7)
        first, level, *rest = grp._levels
        swap = np.arange(49)
        swap[[1, 2]] = 2, 1
        forged = dict(level.transversal_inv)
        forged.update({-1 - i: Permutation(u.images[swap])
                       for i, u in enumerate(level.transversal_inv.values())})
        chain = PermutationGroup(grp.generators, 49,
                                 [first, _Level(level.point, level.gens, forged), *rest])
        form = affine_form(chain)
        assert len(form.keys) == 36
        assert is_two_arc_transitive(form) == two_arcs_by_kernel(chain)
        assert classify_action(form) == classify(7)


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
        assert classify(n) == classify_action(affine_form(claimed_aut_group(n)))
        assert built == [] and reads == []
        # the spies see a graph that is built and read
        symmetries_module.build_graph(n).neighbors(0)
        assert built == [n] and reads[0].reads == 1

    @pytest.mark.parametrize("n", [241, 243])
    def test_the_public_path_gives_the_affine_report(self, n):
        # the largest phi(n) up to 246 and 3^5, whose keys are closed in
        # the most rounds: the PermutationGroup the public API builds, read
        # through the bridge, against the affine form analyze reads
        assert classify_action(affine_form(claimed_aut_group(n))) == classify(n)


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
        rep = classify_action(affine_form(claimed_group(n)))
        assert rep.vertex_transitive
        assert rep.edge_transitive == (n in PRIMES)
        assert rep.arc_transitive == (n in PRIMES)
        assert rep.distance_transitive == (n == 5)
        assert not rep.two_arc_transitive

    def test_classify_builds_the_same_report(self, claimed_group):
        assert classify(5) == classify_action(affine_form(claimed_group(5)))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_orbit_sizes_account_for_every_object(self, claimed_group, n):
        rep = classify_action(affine_form(claimed_group(n)))
        k = 3 * n - 3
        assert sum(rep.orbit_counts["edges"]) == n * n * k // 2
        assert sum(rep.orbit_counts["arcs"]) == n * n * k
        assert sum(rep.orbit_counts["distance2_pairs"]) == n * n * (n * n - k - 1)
        assert sum(rep.orbit_counts["two_arcs"]) == n * n * k * (k - 1)

    def test_edge_orbits_at_four(self, claimed_group):
        res = is_edge_transitive(affine_form(claimed_group(4)))
        assert not res.transitive
        # unit-difference edges on one side, the halving class on the other
        assert res.orbit_sizes == (48, 24)
        assert res.witness == ((0, 1), (0, 2))

    def test_arc_count_at_seven_is_one_orbit(self, claimed_group):
        res = is_arc_transitive(affine_form(claimed_group(7)))
        assert res.transitive
        assert res.orbit_sizes == (882,)

    def test_distance_layers_at_five(self, claimed_group):
        res = is_distance_transitive(affine_form(claimed_group(5)))
        assert res.transitive
        assert res.orbit_sizes_by_distance == ((25,), (300,), (300,))
        assert res.witness is None and res.witness_distance is None

    def test_distance_witness_at_seven(self, claimed_group, graph):
        res = is_distance_transitive(affine_form(claimed_group(7)))
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
        rep = classify_action(affine_form(claimed_group(n)))
        if rep.arc_transitive:
            assert rep.edge_transitive
        if rep.two_arc_transitive:
            assert rep.arc_transitive
        if rep.distance_transitive:
            assert rep.arc_transitive


class TestOneGroupType:
    @pytest.mark.parametrize("question", QUESTIONS, ids=lambda q: q.__name__)
    def test_anything_but_an_affine_group_is_refused(self, claimed_group, question):
        # the chain the public API builds, and a plain list, by their types
        for grp, name in ((claimed_group(5), "PermutationGroup"), ([], "list")):
            with pytest.raises(ValueError, match=f"reads an AffineGroup, not {name}"):
                question(grp)

    def test_transitivity_shares_nothing_with_the_chains(self):
        tree = ast.parse(Path(transitivity.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        parts = {part for name in imported for part in name.split(".")}
        assert not parts & {"bsgs", "PermutationGroup"}, imported
        assert not hasattr(transitivity, "_form")


class TestGenericActions:
    def test_translations_alone_are_vertex_but_not_edge_transitive(self):
        grp = PermutationGroup.from_generators(
            [translation(5, 1, 0).perm, translation(5, 0, 1).perm]
        )
        assert is_vertex_transitive(affine_form(grp)).transitive
        res = is_edge_transitive(affine_form(grp))
        assert not res.transitive
        # one orbit per connection-set difference, folded by negation
        assert len(res.orbit_sizes) == 6

    def test_forged_chain_is_refused(self, claimed_group):
        # the claimed generators and first level, with a next level whose
        # only generator swaps (0, 1) and (0, 2): the generators the caller
        # passes are automorphisms, the one the bridge reads as a matrix is
        # not, and AffineGroup's certificate of its matrices on S refuses it
        grp = claimed_group(5)
        swap = list(range(25))
        swap[1], swap[2] = 2, 1
        level = _Level(1, [Permutation(swap)])
        level.recompute_orbit(25)
        forged = PermutationGroup(grp.generators, 25, [grp._levels[0], level])
        with pytest.raises(AutomorphismError, match="not an automorphism"):
            affine_form(forged)

    def test_two_arc_orbits_on_the_smallest_graph(self, claimed_group):
        res = is_two_arc_transitive(affine_form(claimed_group(4)))
        assert not res.transitive
        assert res.witness[0] == (0, 1, 2)
