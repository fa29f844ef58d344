"""Brute-force automorphism enumeration, the oracle side of the analysis.

This module deliberately shares nothing with the symmetry construction in
symmetries.py beyond the Permutation type.  It finds every automorphism of
a graph by backtracking over vertex images, so agreement between its count
and the order of the claimed group is evidence about the graph, not about
one implementation echoing the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bfs_layers, iter_bits
from .core import Permutation
from .graph import CayleyGraph

__all__ = ["BRUTE_FORCE_MAX_MODULUS", "AutomorphismList", "enumerate_automorphisms",
           "common_neighbor_count"]

# The search visits a tree whose width scales with the automorphism count;
# past modulus 7 (49 vertices, thousands of automorphisms) exhaustive
# enumeration stops being a sane cross-check and the group engine is the
# right tool instead.
BRUTE_FORCE_MAX_MODULUS = 7


@dataclass(frozen=True)
class AutomorphismList:
    """Every automorphism of one graph, in the order the search found them."""

    graph_n: int
    elements: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.elements)


def common_neighbor_count(g: CayleyGraph, u: int, v: int) -> int:
    """Number of common neighbours of two distinct vertices."""
    if u == v:
        raise ValueError("common neighbours are only defined for distinct vertices")
    return (g.adjacency[u] & g.adjacency[v]).bit_count()


def enumerate_automorphisms(g: CayleyGraph) -> AutomorphismList:
    """Enumerate all automorphisms of g by exhaustive backtracking.

    Vertices are assigned images in BFS order from vertex 0, layer by layer
    and ascending within a layer.  Each unassigned vertex keeps a candidate
    bitmask; assigning an image intersects every candidate set with the
    neighbourhood (or the complement) of the chosen image, so any partial
    map that disagrees with adjacency dies as soon as the disagreement
    appears.  The traversal order is fixed, hence so is the output order.
    """
    if g.n > BRUTE_FORCE_MAX_MODULUS:
        raise ValueError(
            f"modulus {g.n} exceeds the exhaustive-search cap "
            f"{BRUTE_FORCE_MAX_MODULUS}; build the claimed group instead"
        )
    vc = g.vertex_count
    adj = g.adjacency
    full = (1 << vc) - 1
    order = [v for layer in bfs_layers(adj, 0) for v in iter_bits(layer)]
    images = [0] * vc
    found: list[Permutation] = []

    def extend(depth: int, cand: list[int]) -> None:
        if depth == vc:
            found.append(Permutation(images))
            return
        v = order[depth]
        rest = order[depth + 1:]
        for w in iter_bits(cand[0]):
            adj_w = adj[w]
            non_adj_w = full & ~adj_w & ~(1 << w)
            narrowed: list[int] = []
            alive = True
            for off, x in enumerate(rest, start=1):
                nxt = cand[off] & (adj_w if adj[v] >> x & 1 else non_adj_w)
                if nxt == 0:
                    alive = False
                    break
                narrowed.append(nxt)
            if not alive:
                continue
            images[v] = w
            extend(depth + 1, narrowed)

    extend(0, [full] * vc)
    return AutomorphismList(graph_n=g.n, elements=tuple(found))
