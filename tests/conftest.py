import numpy as np
import pytest

from cayleysrg import (
    AutomorphismError,
    CayleyGraph,
    Permutation,
    ZnPair,
    build_graph,
    claimed_aut_group,
    claimed_origin_stabilizer,
    connection_set,
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


class CountingRows(tuple):
    """Adjacency rows that count how often a row is looked up."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def two_switch(rows, a, b, c, d):
    """Swap the edges a-b and c-d for a-c and b-d; degrees are kept."""
    rows = list(rows)
    assert len({a, b, c, d}) == 4
    assert rows[a] >> b & 1 and rows[c] >> d & 1
    assert not rows[a] >> c & 1 and not rows[b] >> d & 1
    for x, y, on in ((a, b, False), (c, d, False), (a, c, True), (b, d, True)):
        for s, t in ((x, y), (y, x)):
            rows[s] = rows[s] | 1 << t if on else rows[s] & ~(1 << t)
    return tuple(rows)


def tampered_graphs():
    """Graphs with the rows of the graph of modulus n, row 0 kept, that are
    not that graph, each with the least row that is not row 0 translated:
    the graph of modulus 6 with a degree-preserving two-switch away from
    vertex 0, and the graph of modulus 7 without the edge between (1, 2)
    and (1, 3), both at distance 2 from vertex 0."""
    switched = two_switch(build_graph(6).adjacency, 8, 9, 13, 17)
    rows = list(build_graph(7).adjacency)
    u, w = ZnPair(1, 2, 7).index, ZnPair(1, 3, 7).index
    rows[u] &= ~(1 << w)
    rows[w] &= ~(1 << u)
    return [(CayleyGraph(6, connection_set(6), switched), 8),
            (CayleyGraph(7, connection_set(7), tuple(rows)), u)]


def affine_check_reference(n, p):
    """Raise as the affine certificate must for a single map p on the graph
    of modulus n: the check one map at a time, the oracle for the stacked
    check.

    t is p(0, 0) and the columns of M are p(1, 0) - t and p(0, 1) - t.  A
    map that differs from x -> Mx + t is refused with the first vertex
    where it does; an affine one with M(S) != S with (0, w), w the least
    vertex of p(N(0)) symmetric-difference N(p(0)).
    """
    if p.degree != n * n:
        raise ValueError(f"degree {p.degree} does not match {n * n} vertices")
    imgs = p.images
    tx, ty = divmod(int(imgs[0]), n)
    (ax, ay), (bx, by) = divmod(int(imgs[n]), n), divmod(int(imgs[1]), n)
    x, y = np.divmod(np.arange(n * n), n)
    affine = (((ax - tx) * x + (bx - tx) * y + tx) % n * n
              + ((ay - ty) * x + (by - ty) * y + ty) % n)
    stray = np.flatnonzero(affine != imgs)
    if stray.size:
        raise AutomorphismError(
            f"map is not affine on Z_{n} x Z_{n}: vertex {stray[0]} breaks x -> Mx + t",
            witness=int(stray[0]),
        )
    hood = np.array(sorted(v for v in range(n * n)
                           if (v // n == 0) != (v % n == 0) or v // n == v % n != 0))
    si, sj = np.divmod(hood, n)
    mapped = set(imgs[hood].tolist())
    expected = set(((si + tx) % n * n + (sj + ty) % n).tolist())
    if mapped != expected:
        witness = (0, min(mapped ^ expected))
        raise AutomorphismError(
            f"not an automorphism: adjacency disagrees around vertex pair {witness}",
            witness=witness,
        )


def chain_of(grp):
    """Every level of grp's chain as plain data: the base point, the image
    bytes of its strong generators, and each transversal key with the
    image bytes of its element; a transversal that is not a dict, one
    built on request, by its type and size."""
    return [(lev.point, [g.images.tobytes() for g in lev.gens],
             [(int(x), u.images.tobytes()) for x, u in lev.transversal_inv.items()]
             if isinstance(lev.transversal_inv, dict) else
             (type(lev.transversal_inv), len(lev.transversal_inv)))
            for lev in grp._levels]


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
