import numpy as np
import pytest

from cayleysrg import (
    Permutation,
    ZnPair,
    build_graph,
    claimed_aut_group,
    claimed_origin_stabilizer,
    enumerate_automorphisms,
)
from cayleysrg.bitset import iter_bits


def automorphism_witness(g, p):
    """First adjacency discrepancy of p on g, or None if p is an automorphism.

    The exhaustive oracle for check_graph_automorphism: every row is
    checked, the image of the neighbourhood of v against the neighbourhood
    of the image of v, and the first pair (v, w) where they differ is named.
    Quadratic, exact, and blind to the Cayley structure.
    """
    if p.degree != g.vertex_count:
        raise ValueError(f"degree {p.degree} does not match {g.vertex_count} vertices")
    imgs = p.images.tolist()
    for v in range(g.vertex_count):
        mapped = 0
        for w in iter_bits(g.adjacency[v]):
            mapped |= 1 << imgs[w]
        expected = g.adjacency[imgs[v]]
        if mapped != expected:
            return (v, next(iter_bits(mapped ^ expected)))
    return None


def pair_map_reference(n, fn):
    """The permutation a map on ZnPair induces, built one vertex at a time.

    The oracle for core.perm_from_pair_map, which evaluates an array map
    once on all coordinates: here fn takes and returns a ZnPair, and is
    called n**2 times.
    """
    images = np.empty(n * n, dtype=np.int64)
    for v in range(n * n):
        q = fn(ZnPair.from_index(v, n))
        assert q.n == n, f"pair map changed modulus: {n} to {q.n}"
        images[v] = q.index
    return Permutation(images)


def _memo(fn):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = fn(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def graph():
    """Session-cached graph factory; graphs are immutable, sharing is safe."""
    return _memo(build_graph)


@pytest.fixture(scope="session")
def claimed_group():
    return _memo(claimed_aut_group)


@pytest.fixture(scope="session")
def origin_stabilizer():
    return _memo(claimed_origin_stabilizer)


@pytest.fixture(scope="session")
def brute_list():
    return _memo(lambda n: enumerate_automorphisms(build_graph(n)))
