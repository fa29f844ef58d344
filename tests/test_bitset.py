from cayleysrg.bitset import bfs_layers, bit_indices


def adjacency_of(vertex_count, edges):
    rows = [0] * vertex_count
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


class TestBfsLayers:
    def test_path_layers_from_an_end_and_the_middle(self):
        path = adjacency_of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert [bit_indices(x) for x in bfs_layers(path, 0)] == [[0], [1], [2], [3], [4]]
        assert [bit_indices(x) for x in bfs_layers(path, 2)] == [[2], [1, 3], [0, 4]]

    def test_single_vertex(self):
        assert bfs_layers([0], 0) == [1]

    def test_isolated_source_in_larger_graph(self):
        assert bfs_layers(adjacency_of(3, [(1, 2)]), 0) == [0b001]

    def test_disconnected_stand_in_stops_at_its_component(self):
        # two triangles: the second one is never reached from vertex 4
        rows = adjacency_of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        layers = bfs_layers(rows, 4)
        assert [bit_indices(x) for x in layers] == [[4], [3, 5]]
        assert sum(layers) == 0b111000

    def test_layers_are_disjoint_and_end_nonempty(self, graph):
        g = graph(6)
        layers = bfs_layers(g.adjacency, 7)
        assert layers[0] == 1 << 7 and all(layers)
        assert sum(x.bit_count() for x in layers) == sum(layers).bit_count() == 36
        assert [x.bit_count() for x in layers] == [1, 15, 20]
