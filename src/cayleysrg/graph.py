"""The Cayley graph family on Z_n x Z_n with axis and diagonal connection set.

For modulus n the connection set is

    S = {(i, 0), (0, i), (i, i) : 1 <= i <= n - 1},

so |S| = 3n - 3, S is closed under negation and omits the identity, and the
graph Cay(Z_n x Z_n, S) is simple, undirected, (3n-3)-regular and connected.
The neighbourhood of the origin splits into three cliques, one per family
of S, which is what the symmetry analysis elsewhere in the package leans on.
family_defect proves from any rows handed in that they are this graph's:
row 0 is S, and translation_defect finds each row to be row 0 translated.
The regularity scans and the certificate of a graph handed in rest on that
proof, which reads every row on every call and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitset import bfs_layers, iter_bits
from .core import ZnPair, _check_modulus, check_point

__all__ = [
    "GRAPH_MAX_MODULUS",
    "ConnectionSet",
    "connection_set",
    "connection_indices",
    "CayleyGraph",
    "build_graph",
    "translation_defect",
    "family_defect",
    "CliqueTriple",
    "zero_neighborhood_cliques",
]

# The rows hold n**4 bits, and the build does O(n**4) bit work: it takes
# 0.02 s at n = 80, 0.05 s and 41 MB peak RSS at n = 100, and 0.20 s and
# 93 MB at n = 150 (best of 3, 2 vCPUs, CPython 3.11.7).  The rows alone
# pass 1 GB near n = 300, so moduli near this cap are accepted but not
# practical.
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


@lru_cache(maxsize=64)
def connection_indices(n: int) -> np.ndarray:
    """The vertex indices of S, ascending and read-only, one copy per
    modulus."""
    hood = np.array(sorted(s.index for s in connection_set(n).members), dtype=np.int64)
    hood.setflags(write=False)
    return hood


class CayleyGraph:
    """Cay(Z_n x Z_n, S) with adjacency rows stored as int bitmasks.

    Row v has bit w set when v ~ w.  build_graph builds the rows by
    translation and validates them on every construction.
    """

    __slots__ = ("n", "vertex_count", "connection", "adjacency")

    def __init__(self, n: int, connection: ConnectionSet, adjacency: tuple[int, ...]):
        self.n = n
        self.vertex_count = n * n
        self.connection = connection
        self.adjacency = adjacency

    def is_adjacent(self, u: int, v: int) -> bool:
        u, v = check_point(u, self.vertex_count), check_point(v, self.vertex_count)
        return bool(self.adjacency[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adjacency[check_point(v, self.vertex_count)]))

    def degree_of(self, v: int) -> int:
        return self.adjacency[check_point(v, self.vertex_count)].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def pair_of(self, v: int) -> ZnPair:
        return ZnPair.from_index(v, self.n)

    def bfs_distances(self, source: int) -> list[int]:
        """Exact distances from source; unreachable vertices get -1."""
        source = check_point(source, self.vertex_count)
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
    other row is one big-int rotation, O(n**2) of them in all.  S = -S makes
    the adjacency symmetric, since w - v lies in S exactly when v - w does,
    so a connection set that is not closed under negation is refused.  Every
    row is still checked for a self-loop and for degree 3n - 3.  A bad row
    is an internal error, not a recoverable condition.
    """
    _check_modulus(n)
    if n > GRAPH_MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported cap {GRAPH_MAX_MODULUS}")
    conn = connection_set(n)
    for s in conn.members:
        if -s not in conn.members:
            raise RuntimeError(f"connection set holds ({s.i}, {s.j}) but not its negative")
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
    return CayleyGraph(n=n, connection=conn, adjacency=tuple(rows))


def translation_defect(g) -> int | None:
    """The least vertex v whose row is not row 0 translated by v, or None
    when every row is, and so every translation is an automorphism.

    Reads only g.n and the n * n rows g.adjacency, vertex (i, j) being row
    i * n + j.  Row (0, j) is compared with row (0, j - 1) with each n-bit
    chunk rotated by one bit, and row (i, j), i > 0, with row (i - 1, j)
    rotated by n bits, so every row before the first that fails is row 0
    translated.
    """
    n, rows = g.n, g.adjacency
    size = n * n
    full = (1 << size) - 1
    top = sum(1 << (i * n + n - 1) for i in range(n))
    low = full & ~top
    for v in range(1, size):
        if v < n:
            row = rows[v - 1]
            step = (row & low) << 1 | (row & top) >> (n - 1)
        else:
            row = rows[v - n]
            step = (row << n | row >> (size - n)) & full
        if rows[v] != step:
            return v
    return None


def family_defect(g) -> int | None:
    """translation_defect(g), or 0 when row 0 is not S: None exactly when
    g.adjacency are the rows of the graph of modulus g.n."""
    row0 = sum(1 << s for s in connection_indices(g.n).tolist())
    return 0 if g.adjacency[0] != row0 else translation_defect(g)


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
