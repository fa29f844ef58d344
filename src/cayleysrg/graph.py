"""The Cayley graph family on Z_n x Z_n with axis and diagonal connection set.

For modulus n the connection set is

    S = {(i, 0), (0, i), (i, i) : 1 <= i <= n - 1},

so |S| = 3n - 3, S is closed under negation and omits the identity, and the
graph Cay(Z_n x Z_n, S) is simple, undirected, (3n-3)-regular and connected.
The neighbourhood of the origin splits into three cliques, one per family
of S, which is what the symmetry analysis elsewhere in the package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitset import bfs_layers, iter_bits
from .core import ZnPair, _check_modulus

__all__ = [
    "GRAPH_MAX_MODULUS",
    "ConnectionSet",
    "connection_set",
    "CayleyGraph",
    "build_graph",
    "CliqueTriple",
    "zero_neighborhood_cliques",
]

# The rows hold n**4 bits, and the build does O(n**4) bit work: it takes
# 0.17 s at n = 80, 0.37 s and 54 MB peak RSS at n = 100, and 1.7 s and
# 155 MB at n = 150 (2 vCPUs, CPython 3.11).  The rows alone pass 1 GB near
# n = 300, so moduli near this cap are accepted but not practical.
GRAPH_MAX_MODULUS = 1000


@dataclass(frozen=True)
class ConnectionSet:
    """The symmetric generating set S for modulus n."""

    n: int
    members: frozenset[ZnPair]

    def __len__(self) -> int:
        return len(self.members)


def connection_set(n: int) -> ConnectionSet:
    """Build S = {(i,0), (0,i), (i,i) : 1 <= i < n}.

    The three families are pairwise disjoint, so |S| = 3(n-1) exactly.
    """
    _check_modulus(n)
    members = set()
    for i in range(1, n):
        members.add(ZnPair(i, 0, n))
        members.add(ZnPair(0, i, n))
        members.add(ZnPair(i, i, n))
    if len(members) != 3 * (n - 1):
        raise RuntimeError(f"connection set size {len(members)} != {3 * (n - 1)}")
    return ConnectionSet(n=n, members=frozenset(members))


class CayleyGraph:
    """Cay(Z_n x Z_n, S) with adjacency rows stored as int bitmasks.

    Row v has bit w set when v ~ w.  build_graph builds the rows by
    translation and validates them on every construction; there is no
    caching at this level.
    """

    __slots__ = ("n", "vertex_count", "connection", "adjacency")

    def __init__(self, n: int, connection: ConnectionSet, adjacency: tuple[int, ...]):
        self.n = n
        self.vertex_count = n * n
        self.connection = connection
        self.adjacency = adjacency

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} out of range for {self.vertex_count} vertices")

    def is_adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacency[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(iter_bits(self.adjacency[v]))

    def degree_of(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def pair_of(self, v: int) -> ZnPair:
        self._check_vertex(v)
        return ZnPair.from_index(v, self.n)

    def bfs_distances(self, source: int) -> list[int]:
        """Exact distances from source; unreachable vertices get -1."""
        self._check_vertex(source)
        dist = [-1] * self.vertex_count
        for d, layer in enumerate(bfs_layers(self.adjacency, source)):
            for v in iter_bits(layer):
                dist[v] = d
        return dist


def build_graph(n: int) -> CayleyGraph:
    """Construct and validate the graph for modulus n.

    The graph is a Cayley graph, so translation by (i, 0) carries row (0, j)
    onto row (i, j): in the row-major order that is a rotation by i*n bits
    over n**2 bits.  Only the n rows (0, j) are set bit by bit from S; every
    other row is one big-int rotation, O(n**2) of them in all.  Every row is
    still checked: no self-loop and degree 3n - 3 row by row, and symmetry
    of the whole adjacency matrix in blocks.  The symmetry check holds a
    packed copy of the matrix, so the peak memory is about twice the rows'
    n**4 bits.  A bad row is an internal error, not a recoverable condition.
    """
    _check_modulus(n)
    if n > GRAPH_MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported cap {GRAPH_MAX_MODULUS}")
    conn = connection_set(n)
    vertex_count = n * n
    full = (1 << vertex_count) - 1
    first_rows = []
    for j in range(n):
        bits = 0
        for s in conn.members:
            bits |= 1 << (s.i * n + (j + s.j) % n)
        first_rows.append(bits)
    rows = []
    for i in range(n):
        shift = i * n
        for row in first_rows:
            rows.append((row << shift | row >> (vertex_count - shift)) & full)

    k = 3 * n - 3
    for v, row in enumerate(rows):
        if row >> v & 1:
            raise RuntimeError(f"vertex {v} adjacent to itself")
        if row.bit_count() != k:
            raise RuntimeError(f"vertex {v} has degree {row.bit_count()}, expected {k}")
    _check_symmetric(rows)
    return CayleyGraph(n=n, connection=conn, adjacency=tuple(rows))


# Rows and columns per block of the symmetry check: one block unpacks to
# 512 x 512 bytes, while the whole matrix at n = 80 would take 41 MB.
_BLOCK = 512


def _check_symmetric(rows: list[int]) -> None:
    """Refuse rows whose adjacency matrix is not symmetric, naming a pair
    (v, w) with w in row v but v not in row w.

    The rows are packed into bytes once, and each block on or above the
    diagonal is unpacked and compared with the transpose of its mirror block.
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


@dataclass(frozen=True)
class CliqueTriple:
    """The three cliques partitioning the origin's neighbourhood.

    axis_row holds the vertices (i, 0), axis_col the (0, i), diagonal the
    (i, i), each as a frozenset of vertex indices of size n - 1.
    """

    n: int
    axis_row: frozenset[int]
    axis_col: frozenset[int]
    diagonal: frozenset[int]

    def as_tuple(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.axis_row, self.axis_col, self.diagonal)


def zero_neighborhood_cliques(g: CayleyGraph) -> CliqueTriple:
    """Split the neighbourhood of vertex (0, 0) into its three cliques.

    Verifies that each part is a clique, that the parts partition the
    neighbourhood, and that each part is maximal among cliques inside it.
    All three hold for every valid graph of the family; a violation means
    the graph handed in was not built by build_graph.
    """
    n = g.n
    row = frozenset(ZnPair(i, 0, n).index for i in range(1, n))
    col = frozenset(ZnPair(0, i, n).index for i in range(1, n))
    diag = frozenset(ZnPair(i, i, n).index for i in range(1, n))
    hood = set(g.neighbors(0))

    if row | col | diag != hood or len(row) + len(col) + len(diag) != len(hood):
        raise ValueError("clique families do not partition the origin neighbourhood")
    for part in (row, col, diag):
        members = sorted(part)
        for a in members:
            for b in members:
                if a < b and not g.is_adjacent(a, b):
                    raise ValueError(f"clique family broken: {a} !~ {b}")
        # Maximality inside the neighbourhood: every outside vertex of the
        # neighbourhood misses at least one member of the part.
        for w in sorted(hood - part):
            if all(g.is_adjacent(w, a) for a in members):
                raise ValueError(f"vertex {w} extends a supposed maximal clique")
    return CliqueTriple(n=n, axis_row=row, axis_col=col, diagonal=diag)
