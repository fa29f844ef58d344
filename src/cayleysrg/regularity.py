"""Strong regularity and distance regularity checks.

Everything here is counting over adjacency bitmasks, no formulas are
trusted.  The functions take any object with vertex_count and adjacency
attributes (the CayleyGraph from this package or a stripped-down stand-in
in tests), so deliberately broken graphs can be fed in to exercise the
refusal paths.  Distances come from bitset.bfs_layers, whose layers are
counted and then dropped: beyond the adjacency rows the memory is O(n^2)
for the n^2 vertices of the family, where an all-pairs distance table would
hold n^4 entries.

Which vertices the pair scans start from is decided by _roots.  A graph on
Z_n x Z_n each of whose rows is row 0 translated has every translation as
an automorphism, so the pair (u, v) looks exactly like (0, v - u) (Godsil &
Royle, *Algebraic Graph Theory*, 2001, section 3.1) and vertex 0 alone is
scanned.  graph.translation_defect proves that hypothesis from the rows
handed in; it is never taken from the builder, and analyze_report proves
its rows nowhere else.  Every other graph is scanned from every vertex.
Rooted, the scan is the first iteration of the exhaustive one and, by the
theorem, already decides it, so results, refusal messages and witnesses
agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bfs_layers, iter_bits
from .graph import translation_defect

__all__ = [
    "RegularityRefusal",
    "SrgParams",
    "IntersectionArray",
    "check_strongly_regular",
    "intersection_array",
    "diameter",
]


class RegularityRefusal(ValueError):
    """The graph fails a regularity requirement; witness pins the spot."""

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SrgParams:
    """Parameters (v, k, lam, mu) of a strongly regular graph.

    lam counts common neighbours of adjacent pairs, mu of distinct
    non-adjacent pairs.  The standard counting identity ties the four
    together and is enforced on construction.
    """

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        lhs = self.k * (self.k - self.lam - 1)
        rhs = (self.v - self.k - 1) * self.mu
        if lhs != rhs:
            raise ValueError(
                f"infeasible parameters ({self.v}, {self.k}, {self.lam}, {self.mu}): "
                f"k(k - lam - 1) = {lhs} but (v - k - 1) mu = {rhs}"
            )


@dataclass(frozen=True)
class IntersectionArray:
    """Distance-regular intersection numbers {b_0..b_{D-1}; c_1..c_D}."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    diameter: int

    def __post_init__(self) -> None:
        if len(self.b) != self.diameter or len(self.c) != self.diameter:
            raise ValueError("b and c must each have one entry per distance 1..D")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ValueError("intersection numbers must be positive")
        if self.diameter > 0 and self.c[0] != 1:
            raise ValueError(f"c_1 must be 1, got {self.c[0]}")


def _connected_layers(vertex_count: int, adjacency, v: int) -> list[int]:
    """The BFS layers from v, refused unless they reach every vertex."""
    layers = bfs_layers(adjacency, v)
    unreached = ((1 << vertex_count) - 1) & ~sum(layers)
    if unreached:
        missing = next(iter_bits(unreached))
        raise RegularityRefusal(
            f"graph is disconnected: vertex {missing} unreachable from {v}",
            witness=(v, missing),
        )
    return layers


def _roots(g) -> range:
    """The vertices the pair scans start from: vertex 0 alone when g has an
    int n >= 2 with vertex_count == n * n and graph.translation_defect finds
    every row to be row 0 translated, else every vertex."""
    vc, n = g.vertex_count, getattr(g, "n", None)
    shaped = isinstance(n, int) and n >= 2 and vc == n * n
    return range(1) if shaped and translation_defect(g) is None else range(vc)


def _require_regular(vertex_count: int, adjacency) -> int:
    k = adjacency[0].bit_count()
    for v in range(1, vertex_count):
        d = adjacency[v].bit_count()
        if d != k:
            raise RegularityRefusal(
                f"degrees differ: vertex 0 has {k}, vertex {v} has {d}",
                witness=(0, v),
            )
    return k


def check_strongly_regular(g) -> SrgParams:
    """Certify strong regularity by comparing common-neighbour counts.

    Every pair (u, v) with u among _roots(g) is counted: the pairs through
    vertex 0 when the rows are translation-invariant, every vertex pair
    otherwise.  Raises RegularityRefusal with a witnessing pair on the
    first violation: irregular degrees, a disconnected graph, or two pairs
    of the same kind with different common-neighbour counts.
    """
    vc = g.vertex_count
    adjacency = g.adjacency
    if vc < 2:
        raise RegularityRefusal("need at least two vertices", witness=None)
    k = _require_regular(vc, adjacency)
    _connected_layers(vc, adjacency, 0)

    lam = mu = None
    lam_at = mu_at = None
    for u in _roots(g):
        row = adjacency[u]
        for v in range(u + 1, vc):
            common = (row & adjacency[v]).bit_count()
            if row >> v & 1:
                if lam is None:
                    lam, lam_at = common, (u, v)
                elif common != lam:
                    raise RegularityRefusal(
                        f"adjacent pairs disagree: {lam_at} has {lam} common "
                        f"neighbours, ({u}, {v}) has {common}",
                        witness=(u, v),
                    )
            else:
                if mu is None:
                    mu, mu_at = common, (u, v)
                elif common != mu:
                    raise RegularityRefusal(
                        f"non-adjacent pairs disagree: {mu_at} has {mu} common "
                        f"neighbours, ({u}, {v}) has {common}",
                        witness=(u, v),
                    )
    if lam is None or mu is None:
        raise RegularityRefusal(
            "graph is complete or empty, not in the strongly regular range",
            witness=None,
        )
    return SrgParams(v=vc, k=k, lam=lam, mu=mu)


def diameter(g) -> int:
    """Largest eccentricity, by BFS from each of _roots(g): vertex 0 alone
    when the rows are translation-invariant, since translations preserve
    eccentricity, else every vertex.  Refuses a graph with no vertices, and
    disconnected input since the diameter would be infinite."""
    vc = g.vertex_count
    if vc < 1:
        raise RegularityRefusal("need at least one vertex", witness=None)
    return max(len(_connected_layers(vc, g.adjacency, v)) - 1 for v in _roots(g))


def _settle(counts: dict[int, int], name: str, d: int, seen: int, v: int, u: int) -> None:
    established = counts.setdefault(d, seen)
    if seen != established:
        raise RegularityRefusal(
            f"{name}_{d} is not constant: pair ({v}, {u}) sees {seen}, "
            f"established {established}",
            witness=(v, u),
        )


def intersection_array(g) -> IntersectionArray:
    """Certify distance regularity and return the intersection numbers.

    For every vertex pair at distance i the counts of neighbours one layer
    closer (c_i) and one layer further (b_i) must depend on i alone, and
    every vertex must have the same eccentricity; the first disagreement is
    refused with the offending pair.  One BFS runs from each of _roots(g):
    from vertex 0 alone when the rows are translation-invariant, since a
    translation carries the layers of 0 onto those of any vertex, else from
    every vertex.  A graph with no vertices is refused; a single vertex has
    diameter 0.
    """
    vc = g.vertex_count
    adjacency = g.adjacency
    if vc < 1:
        raise RegularityRefusal("need at least one vertex", witness=None)
    _require_regular(vc, adjacency)

    b: dict[int, int] = {}
    c: dict[int, int] = {}
    for v in _roots(g):
        layers = _connected_layers(vc, adjacency, v)
        if v == 0:
            diam = len(layers) - 1
        elif len(layers) - 1 != diam:
            raise RegularityRefusal(
                f"eccentricities differ: vertex 0 has {diam}, "
                f"vertex {v} has {len(layers) - 1}",
                witness=(0, v),
            )
        for d, layer in enumerate(layers):
            for u in iter_bits(layer):
                row = adjacency[u]
                if d < diam:
                    _settle(b, "b", d, (row & layers[d + 1]).bit_count(), v, u)
                if d > 0:
                    _settle(c, "c", d, (row & layers[d - 1]).bit_count(), v, u)
    return IntersectionArray(
        b=tuple(b[d] for d in range(diam)),
        c=tuple(c[d] for d in range(1, diam + 1)),
        diameter=diam,
    )
