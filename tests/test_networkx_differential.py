"""The regularity certificates, the BFS and the automorphism count,
checked against networkx."""

import pytest

from cayleysrg import (
    IntersectionArray,
    RegularityRefusal,
    check_strongly_regular,
    diameter,
    enumerate_automorphisms,
    intersection_array,
)
from cayleysrg.bitset import bfs_layers, iter_bits

nx = pytest.importorskip("networkx")

MODULI = range(4, 9)


class NxStandIn:
    """vertex_count plus adjacency bitmasks of a networkx graph."""

    def __init__(self, G):
        G = nx.convert_node_labels_to_integers(G)
        self.vertex_count = G.number_of_nodes()
        self.adjacency = [sum(1 << w for w in G[v]) for v in range(self.vertex_count)]


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from((u, w) for u in range(g.vertex_count)
                     for w in iter_bits(g.adjacency[u]) if w > u)
    return G


@pytest.fixture(scope="module")
def nx_graph(graph):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = to_networkx(graph(n))
        return cache[n]

    return get


@pytest.fixture(scope="module")
def frucht():
    # 3-regular, connected, no non-trivial automorphism; eccentricities 3 and 4
    G = nx.frucht_graph()
    assert set(nx.eccentricity(G).values()) == {3, 4}
    return NxStandIn(G)


@pytest.mark.parametrize("n", MODULI)
def test_strongly_regular_agrees(graph, nx_graph, n):
    srg = check_strongly_regular(graph(n))
    assert nx.is_strongly_regular(nx_graph(n))
    # a connected SRG has diameter 2 and array {k, k - lam - 1; 1, mu}
    (b0, b1), (_, c2) = nx.intersection_array(nx_graph(n))
    assert (srg.k, srg.lam, srg.mu) == (b0, b0 - b1 - 1, c2)


@pytest.mark.parametrize("n", MODULI)
def test_intersection_array_agrees(graph, nx_graph, n):
    b, c = nx.intersection_array(nx_graph(n))
    assert intersection_array(graph(n)) == IntersectionArray(
        b=tuple(b), c=tuple(c), diameter=len(b)
    )


@pytest.mark.parametrize("n", MODULI)
def test_diameter_agrees(graph, nx_graph, n):
    assert diameter(graph(n)) == nx.diameter(nx_graph(n))


@pytest.mark.parametrize("n", MODULI)
def test_bfs_layers_agree(graph, nx_graph, n):
    g = graph(n)
    for source in range(0, g.vertex_count, n + 1):
        lengths = nx.single_source_shortest_path_length(nx_graph(n), source)
        expected = [0] * (max(lengths.values()) + 1)
        for v, d in lengths.items():
            expected[d] |= 1 << v
        assert bfs_layers(g.adjacency, source) == expected


@pytest.mark.parametrize("n", [4, 5])
def test_automorphism_count_agrees(graph, nx_graph, n):
    # VF2 lists every automorphism: 0.6 s at n = 4, 3.2 s at n = 5 and about
    # 22 s at n = 6 (2 vCPUs, CPython 3.11), so n = 6 is left out
    from networkx.algorithms.isomorphism import GraphMatcher

    G = nx_graph(n)
    vf2 = sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())
    assert vf2 == len(enumerate_automorphisms(graph(n)))


class TestFrucht:
    def test_not_distance_regular(self, frucht):
        assert not nx.is_distance_regular(nx.frucht_graph())
        with pytest.raises(RegularityRefusal) as exc:
            intersection_array(frucht)
        assert exc.value.witness is not None

    def test_not_strongly_regular(self, frucht):
        assert not nx.is_strongly_regular(nx.frucht_graph())
        with pytest.raises(RegularityRefusal):
            check_strongly_regular(frucht)

    def test_diameter_is_four(self, frucht):
        assert diameter(frucht) == nx.diameter(nx.frucht_graph()) == 4

    def test_bfs_layers_agree(self, frucht):
        G = nx.frucht_graph()
        for source in G:
            lengths = nx.single_source_shortest_path_length(G, source)
            layers = bfs_layers(frucht.adjacency, source)
            assert len(layers) - 1 == nx.eccentricity(G, source)
            assert {v: d for d, x in enumerate(layers) for v in iter_bits(x)} == lengths
