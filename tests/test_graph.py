import random
from types import SimpleNamespace

import numpy as np
import pytest

import cayleysrg.graph as graph_module
import cayleysrg.regularity as regularity_module
from cayleysrg import (
    AutomorphismError,
    CayleyGraph,
    ConnectionSet,
    ZnPair,
    build_graph,
    check_graph_automorphism,
    check_strongly_regular,
    classify_action,
    connection_set,
    translation,
    zero_neighborhood_cliques,
)
from cayleysrg.bitset import iter_bits
from cayleysrg.cli import analyze_report
from cayleysrg.graph import translation_defect
from conftest import CountingRows, tampered_graphs


# Rows and columns per block of the symmetry check: one block unpacks to
# 512 x 512 bytes, while the whole matrix at n = 80 would take 41 MB.
_BLOCK = 512


def _check_symmetric(rows: list[int]) -> None:
    """Refuse rows whose adjacency matrix is not symmetric, naming a pair
    (v, w) with w in row v but v not in row w.

    The oracle for the S = -S argument of build_graph.  The rows are packed
    into bytes once, and each block on or above the diagonal is unpacked and
    compared with the transpose of its mirror block.
    """
    count = len(rows)
    width = (count + 7) // 8
    packed = np.empty((count, width), dtype=np.uint8)
    for v, row in enumerate(rows):
        packed[v] = np.frombuffer(row.to_bytes(width, "little"), dtype=np.uint8)

    def block(r: int, c: int) -> np.ndarray:
        return np.unpackbits(packed[r:r + _BLOCK, c // 8:(c + _BLOCK) // 8], axis=1,
                             count=min(_BLOCK, count - c), bitorder="little")

    for r in range(0, count, _BLOCK):
        for c in range(r, count, _BLOCK):
            upper = block(r, c)
            differ = np.argwhere(upper != block(c, r).T)
            if differ.size:
                i, j = differ[0]
                v, w = r + int(i), c + int(j)
                if not upper[i, j]:
                    v, w = w, v
                raise RuntimeError(f"adjacency not symmetric on ({v}, {w})")


class TestConnectionSet:
    def test_literal_members_at_four(self):
        got = {(s.i, s.j) for s in connection_set(4).members}
        assert got == {
            (1, 0), (2, 0), (3, 0),
            (0, 1), (0, 2), (0, 3),
            (1, 1), (2, 2), (3, 3),
        }

    @pytest.mark.parametrize("n", range(4, 13))
    def test_size_and_symmetry(self, n):
        cs = connection_set(n)
        assert len(cs) == 3 * n - 3
        members = set(cs.members)
        assert ZnPair(0, 0, n) not in members
        for s in members:
            assert -s in members

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            connection_set(3)


class TestBuildGraph:
    def test_vertex_and_edge_counts_at_four(self, graph):
        g = graph(4)
        assert g.vertex_count == 16
        # independent count: regular graph, half the degree sum
        degrees = [g.degree_of(v) for v in range(16)]
        assert g.edge_count() == sum(degrees) // 2 == 72

    @pytest.mark.parametrize("n", range(4, 31))
    def test_degree_is_3n_minus_3(self, n):
        g = build_graph(n)
        k = 3 * n - 3
        assert all(g.degree_of(v) == k for v in range(g.vertex_count))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_adjacency_symmetric_and_irreflexive(self, graph, n):
        g = graph(n)
        for u in range(g.vertex_count):
            assert not g.is_adjacent(u, u)
            for v in range(u + 1, g.vertex_count):
                assert g.is_adjacent(u, v) == g.is_adjacent(v, u)

    def test_adjacency_examples(self, graph):
        g = graph(5)
        v = lambda i, j: ZnPair(i, j, 5).index
        assert g.is_adjacent(v(0, 0), v(2, 2))
        assert g.is_adjacent(v(1, 2), v(3, 4))      # difference (2, 2)
        assert not g.is_adjacent(v(0, 0), v(1, 2))
        assert not g.is_adjacent(v(0, 0), v(2, 3))

    def test_adjacency_matches_difference_rule(self, graph):
        g = graph(6)
        members = {(s.i, s.j) for s in g.connection.members}
        for u in range(g.vertex_count):
            pu = g.pair_of(u)
            for w in range(g.vertex_count):
                pw = g.pair_of(w)
                diff = pw - pu
                assert g.is_adjacent(u, w) == ((diff.i, diff.j) in members)

    def test_vertex_range_checked(self, graph):
        g = graph(4)
        with pytest.raises(ValueError):
            g.is_adjacent(0, 16)
        with pytest.raises(ValueError):
            g.neighbors(-1)
        checks = [lambda v: g.is_adjacent(v, 1), lambda v: g.is_adjacent(1, v),
                  g.neighbors, g.degree_of, g.pair_of, g.bfs_distances,
                  lambda v: ZnPair.from_index(v, 4)]
        for check in checks:
            for point in (True, np.True_, 1.5, np.float64(0.0), "1", None):
                with pytest.raises(ValueError, match="is not an integer"):
                    check(point)
            for point in (16, -1):
                with pytest.raises(ValueError, match="out of range"):
                    check(point)
        one = np.int64(1)
        assert g.is_adjacent(0, one) and g.is_adjacent(one, 0)
        assert g.neighbors(one) == g.neighbors(1)
        assert g.degree_of(one) == 9
        assert g.pair_of(one) == ZnPair.from_index(one, 4) == ZnPair(0, 1, 4)
        assert g.bfs_distances(one) == g.bfs_distances(1)

    def test_modulus_bounds(self):
        with pytest.raises(ValueError):
            build_graph(3)
        with pytest.raises(ValueError):
            build_graph(1001)

    def test_translation_relabelling_preserves_adjacency(self, graph):
        g = graph(7)
        rng = random.Random(7)
        for _ in range(5):
            t = translation(7, rng.randrange(7), rng.randrange(7)).perm
            for _ in range(200):
                u, w = rng.randrange(49), rng.randrange(49)
                if u != w:
                    assert g.is_adjacent(u, w) == g.is_adjacent(t.apply(u), t.apply(w))


def reference_rows(n):
    """Adjacency rows set bit by bit, one offset of S at a time."""
    offsets = sorted((s.i, s.j) for s in connection_set(n).members)
    rows = []
    for v in range(n * n):
        i, j = divmod(v, n)
        bits = 0
        for si, sj in offsets:
            bits |= 1 << (((i + si) % n) * n + (j + sj) % n)
        rows.append(bits)
    return rows


class TestRowsByTranslation:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_rows_equal_the_per_offset_construction(self, n):
        assert list(build_graph(n).adjacency) == reference_rows(n)

    @pytest.mark.parametrize("n, v, w, pair", [
        (5, 3, 17, (3, 17)),        # a bit added
        (5, 0, 1, (1, 0)),          # a bit removed: 1 still lists 0
        (24, 575, 2, (575, 2)),     # 576 vertices: below the block diagonal
        (24, 40, 530, (40, 530)),   # and above it
    ])
    def test_one_flipped_bit_is_named(self, n, v, w, pair):
        rows = reference_rows(n)
        _check_symmetric(rows)
        rows[v] ^= 1 << w
        with pytest.raises(RuntimeError, match=rf"not symmetric on \({pair[0]}, {pair[1]}\)"):
            _check_symmetric(rows)

    @pytest.mark.parametrize("n", list(range(4, 32)) + [80])
    def test_rows_are_symmetric(self, n):
        _check_symmetric(list(build_graph(n).adjacency))

    def test_connection_set_without_a_negative_is_refused(self, monkeypatch):
        full = connection_set(5)
        lopsided = ConnectionSet(n=5, members=full.members - {ZnPair(1, 0, 5)})
        monkeypatch.setattr(graph_module, "connection_set", lambda n: lopsided)
        with pytest.raises(RuntimeError, match=r"holds \(4, 0\) but not its negative"):
            build_graph(5)


def _defect_reference(n, rows):
    """The least v whose row is not row 0 translated by v, or None, with
    each translate set bit by bit: the oracle for translation_defect."""
    offsets = [divmod(w, n) for w in iter_bits(rows[0])]
    for v in range(n * n):
        i, j = divmod(v, n)
        if rows[v] != sum(1 << ((i + a) % n * n + (j + b) % n) for a, b in offsets):
            return v
    return None


class TestTranslationDefect:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_built_graphs_have_none(self, graph, n):
        assert translation_defect(graph(n)) is None

    @pytest.mark.parametrize("n", [4, 5, 6, 9])
    def test_one_flipped_bit_matches_the_reference(self, n):
        rng = random.Random(n)
        rows = list(build_graph(n).adjacency)
        for v in [0, 1, n, n * n - 1] + rng.sample(range(n * n), 6):
            flipped = list(rows)
            flipped[v] ^= 1 << rng.randrange(n * n)
            want = _defect_reference(n, flipped)
            assert want == (1 if v == 0 else v)
            assert translation_defect(SimpleNamespace(n=n, adjacency=flipped)) == want

    def test_other_invariant_rows_have_none(self):
        # the rook's graph: S without the diagonal, invariant all the same
        n = 5
        rows = [sum(1 << (i * n + b) for b in range(n) if b != j)
                | sum(1 << (a * n + j) for a in range(n) if a != i)
                for i in range(n) for j in range(n)]
        assert _defect_reference(n, rows) is None
        assert translation_defect(SimpleNamespace(n=n, adjacency=rows)) is None

    def test_tampered_graphs_name_their_least_bad_row(self):
        for g, row in tampered_graphs():
            assert translation_defect(g) == _defect_reference(g.n, g.adjacency) == row


def counted(n):
    """The graph of modulus n over rows that count their lookups."""
    rows = CountingRows(build_graph(n).adjacency)
    return CayleyGraph(n, connection_set(n), rows), rows


def refusal(g):
    """The witness check_graph_automorphism refuses g with, or None."""
    try:
        check_graph_automorphism(g)
    except AutomorphismError as exc:
        return exc.witness
    return None


@pytest.fixture
def proofs(monkeypatch):
    """The modulus of every row pass translation_defect makes, in order,
    called from graph.family_defect or from the regularity scans."""
    seen = []
    walk = graph_module.translation_defect

    def spy(g):
        seen.append(g.n)
        return walk(g)

    for mod in (graph_module, regularity_module):
        monkeypatch.setattr(mod, "translation_defect", spy)
    return seen


class TestKeptProof:
    """No graph keeps its row proof: every translation_defect reads the
    rows it is handed, and analyze makes the one proof, in regularity."""

    @pytest.mark.parametrize("n", [5, 6, 13])
    def test_regularity_then_transitivity_prove_the_rows_once(self, claimed_group,
                                                              proofs, n):
        g, rows = counted(n)
        check_strongly_regular(g)
        assert proofs == [n]
        rows.reads = 0
        classify_action(claimed_group(n))
        assert proofs == [n]
        assert rows.reads == 0

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_analyze_proves_the_rows_once(self, proofs, n):
        analyze_report(n)
        assert proofs == [n]

    def test_rebound_rows_are_proven_again(self, proofs):
        for tampered, row in tampered_graphs():
            n = tampered.n
            g = build_graph(n)
            assert refusal(g) is None
            g.adjacency = tampered.adjacency
            assert refusal(g) == row
            assert refusal(g) == row
            g.adjacency = build_graph(n).adjacency
            assert refusal(g) is None
            assert proofs[-4:] == [n] * 4

    def test_a_changed_modulus_is_proven_again(self, proofs):
        defect = graph_module.translation_defect  # the spied name
        g = build_graph(6)
        assert defect(g) is None
        g.n = 5
        fresh = SimpleNamespace(n=5, adjacency=g.adjacency)
        assert defect(g) == defect(fresh) is not None
        assert proofs == [6, 5, 5]
        # row 0 is not the S of modulus 5, as for a graph built with it
        assert refusal(g) == refusal(CayleyGraph(5, connection_set(5), g.adjacency)) == 0
        g.n = 6
        assert defect(g) is None
        assert proofs == [6, 5, 5, 6]

    def test_stand_ins_and_mutable_rows_are_never_kept(self, proofs):
        built = build_graph(5)
        for g in (built, SimpleNamespace(n=5, vertex_count=25, adjacency=built.adjacency),
                  CayleyGraph(5, connection_set(5), list(built.adjacency))):
            assert graph_module.translation_defect(g) is None
            assert graph_module.translation_defect(g) is None
        assert proofs == [5] * 6


class TestBfsDistances:
    def test_distances_from_origin_at_five(self, graph):
        g = graph(5)
        dist = g.bfs_distances(0)
        assert dist[0] == 0
        assert sorted(dist).count(1) == 12
        assert sorted(dist).count(2) == 12
        assert max(dist) == 2

    @pytest.mark.parametrize("n", list(range(4, 13)) + [20])
    def test_every_eccentricity_is_two(self, n):
        g = build_graph(n)
        for v in range(g.vertex_count):
            dist = g.bfs_distances(v)
            assert min(dist) == 0 and max(dist) == 2

    def test_source_range_checked(self, graph):
        with pytest.raises(ValueError):
            graph(4).bfs_distances(16)


class TestZeroNeighborhoodCliques:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_partition_into_three_cliques(self, graph, n):
        g = graph(n)
        ct = zero_neighborhood_cliques(g)
        parts = ct.as_tuple()
        assert all(len(p) == n - 1 for p in parts)
        hood = set(g.neighbors(0))
        assert set().union(*parts) == hood
        assert sum(len(p) for p in parts) == len(hood)

    def test_clique_families_by_pair_shape(self, graph):
        g = graph(6)
        ct = zero_neighborhood_cliques(g)
        assert ct.axis_row == frozenset(ZnPair(i, 0, 6).index for i in range(1, 6))
        assert ct.axis_col == frozenset(ZnPair(0, i, 6).index for i in range(1, 6))
        assert ct.diagonal == frozenset(ZnPair(i, i, 6).index for i in range(1, 6))

    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_cross_edges_between_cliques(self, graph, n):
        # each (i, 0) meets the column clique only at (0, n-i) and the
        # diagonal only at (i, i); the familiar two-step path
        # (i,0) ~ (i,i) ~ (0,i) rides on exactly these edges
        g = graph(n)
        ct = zero_neighborhood_cliques(g)
        for i in range(1, n):
            row_v = ZnPair(i, 0, n).index
            col_hits = [w for w in sorted(ct.axis_col) if g.is_adjacent(row_v, w)]
            diag_hits = [w for w in sorted(ct.diagonal) if g.is_adjacent(row_v, w)]
            assert col_hits == [ZnPair(0, n - i, n).index]
            assert diag_hits == [ZnPair(i, i, n).index]
            assert g.is_adjacent(ZnPair(i, i, n).index, ZnPair(0, i, n).index)

    def test_maximality_flagged_on_tampered_graph(self, graph):
        # wire one column-clique vertex to every row-clique vertex; the
        # neighbourhood partition survives but the row clique stops being
        # maximal inside the neighbourhood and must be refused
        g = graph(4)

        class Tampered:
            n = 4
            vertex_count = 16

            def __init__(self, adjacency):
                self.adjacency = adjacency

            def neighbors(self, v):
                from cayleysrg.bitset import iter_bits
                return list(iter_bits(self.adjacency[v]))

            def is_adjacent(self, u, v):
                return bool(self.adjacency[u] >> v & 1)

        rows = list(g.adjacency)
        col_v = ZnPair(0, 1, 4).index
        for i in range(1, 4):
            row_v = ZnPair(i, 0, 4).index
            rows[col_v] |= 1 << row_v
            rows[row_v] |= 1 << col_v
        with pytest.raises(ValueError, match="extends"):
            zero_neighborhood_cliques(Tampered(rows))
