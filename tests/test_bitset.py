import numpy as np
from hypothesis import given, strategies as st

from cayleysrg.bitset import bfs_layers, bit_positions, iter_bits, mask_of


def adjacency_of(vertex_count, edges):
    rows = [0] * vertex_count
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


class RecordingRows(list):
    """Adjacency rows that remember which vertices were looked up."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, v):
        self.read.append(v)
        return super().__getitem__(v)


class TestBfsLayers:
    def test_path_layers_from_an_end_and_the_middle(self):
        path = adjacency_of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert [list(iter_bits(x)) for x in bfs_layers(path, 0)] == [[0], [1], [2], [3], [4]]
        assert [list(iter_bits(x)) for x in bfs_layers(path, 2)] == [[2], [1, 3], [0, 4]]

    def test_single_vertex(self):
        assert bfs_layers([0], 0) == [1]

    def test_isolated_source_in_larger_graph(self):
        assert bfs_layers(adjacency_of(3, [(1, 2)]), 0) == [0b001]

    def test_disconnected_stand_in_stops_at_its_component(self):
        # two triangles: the second one is never reached from vertex 4
        rows = adjacency_of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        layers = bfs_layers(rows, 4)
        assert [list(iter_bits(x)) for x in layers] == [[4], [3, 5]]
        assert sum(layers) == 0b111000

    def test_layers_are_disjoint_and_end_nonempty(self, graph):
        g = graph(6)
        layers = bfs_layers(g.adjacency, 7)
        assert layers[0] == 1 << 7 and all(layers)
        assert sum(x.bit_count() for x in layers) == sum(layers).bit_count() == 36
        assert [x.bit_count() for x in layers] == [1, 15, 20]

    def test_rows_of_a_last_layer_that_completes_the_graph_are_not_read(self):
        # the last layer {3, 4} of this tree reaches every vertex, so its
        # rows cannot add anything; the layers stay those of a full walk
        rows = RecordingRows(adjacency_of(5, [(0, 1), (0, 2), (1, 3), (2, 4)]))
        layers = bfs_layers(rows, 0)
        assert [list(iter_bits(x)) for x in layers] == [[0], [1, 2], [3, 4]]
        assert sorted(rows.read) == [0, 1, 2]

    def test_walk_that_leaves_vertices_unreached_reads_every_reached_row(self):
        rows = RecordingRows(adjacency_of(4, [(0, 1), (1, 2)]))
        assert [list(iter_bits(x)) for x in bfs_layers(rows, 0)] == [[0], [1], [2]]
        assert sorted(rows.read) == [0, 1, 2]


class TestBitPositions:
    @given(st.lists(st.integers(0, 2**70 - 1), max_size=5), st.integers(70, 90))
    def test_matches_iter_bits(self, masks, size):
        rows, bits = bit_positions(masks, size)
        assert list(zip(rows.tolist(), bits.tolist())) == [
            (i, x) for i, mask in enumerate(masks) for x in iter_bits(mask)]

    def test_empty_inputs(self):
        for masks in ([], [0, 0]):
            rows, bits = bit_positions(masks, 9)
            assert rows.size == bits.size == 0

    def test_rows_of_a_graph(self, graph):
        g = graph(7)
        rows, bits = bit_positions(g.adjacency, g.vertex_count)
        assert np.array_equal(np.bincount(rows), [18] * 49)
        assert bits[:18].tolist() == g.neighbors(0)


class TestMaskOf:
    @given(st.sets(st.integers(0, 89)), st.integers(90, 100))
    def test_sets_exactly_the_positions(self, positions, size):
        mask = mask_of(sorted(positions), size)
        assert list(iter_bits(mask)) == sorted(positions)
        assert mask < 1 << size

    def test_no_positions_is_zero(self):
        assert mask_of([], 17) == mask_of(np.array([], dtype=np.int64), 1) == 0

    def test_row_zero_of_a_graph(self, graph):
        g = graph(7)
        assert mask_of(g.neighbors(0), g.vertex_count) == g.adjacency[0]
