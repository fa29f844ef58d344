"""Orbit computations answering the transitivity questions for the family.

Each question asks whether a group G of graph automorphisms has a single
orbit on one kind of object: vertices, edges, arcs, ordered pairs at a
fixed distance, or 2-arcs (paths u ~ v ~ w with w != u).  The objects of
the whole graph are never closed under G.  Every question is answered at
roots instead, by the correspondence between orbitals and suborbits
(Cameron, Permutation Groups, 1999; Godsil and Royle, Algebraic Graph
Theory, 2001):

    Let r be a vertex and G_r its stabiliser.  The G-orbits on arcs,
    2-arcs and distance-d pairs whose first vertex lies in G.r correspond
    one-to-one with the G_r-orbits on the same objects starting at r, and
    the G-orbit of such an object x has size |G.r| * |G_r.x|.

So one root per vertex orbit suffices, its smallest vertex.  For a
vertex-transitive G that is vertex 0 alone, and the 2-arc question
partitions k(k-1) objects instead of n^2 k(k-1).  G_r comes free from the
base and strong generating set when r is the first base point.  A group
that is not vertex-transitive (the trivial group, the origin stabiliser)
takes one root per vertex orbit, with Schreier generators for G_r at the
other roots.  Edge orbits are arc orbits paired with the orbits of their
reversed arcs; the reversal of (r, v) is carried back to the root of v
along the Schreier tree of the vertex orbit.

Reports equal those of closing every object of the graph under G.  The
least member of each G-orbit starts at its root, roots ascend and the
objects at a root are listed in ascending order, so orbits come out in the
order of their least members and witnesses are those least members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitset import bfs_layers, iter_bits
from .bsgs import PermutationGroup
from .core import orbits
from .graph import CayleyGraph, build_graph
from .symmetries import check_graph_automorphism, claimed_aut_group

__all__ = [
    "TransitivityResult",
    "DistanceTransitivityResult",
    "TransitivityReport",
    "is_vertex_transitive",
    "is_edge_transitive",
    "is_arc_transitive",
    "is_distance_transitive",
    "is_two_arc_transitive",
    "classify_action",
    "classify",
]


@dataclass(frozen=True)
class TransitivityResult:
    """Outcome of one orbit computation.

    orbit_sizes lists every orbit in order of its least member; their sum
    is the number of objects.  On a negative answer the witness holds the smallest
    object overall and the smallest object lying in a different orbit.
    """

    transitive: bool
    orbit_sizes: tuple[int, ...]
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


@dataclass(frozen=True)
class DistanceTransitivityResult:
    """Distance transitivity, one orbit computation per distance 0..D."""

    transitive: bool
    orbit_sizes_by_distance: tuple[tuple[int, ...], ...]
    witness_distance: int | None
    witness: tuple[tuple[int, int], tuple[int, int]] | None


@dataclass(frozen=True)
class TransitivityReport:
    """The five transitivity answers for one modulus, with orbit evidence."""

    n: int
    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    distance_transitive: bool
    two_arc_transitive: bool
    witnesses: dict
    orbit_counts: dict


def _images(perms) -> list[list[int]]:
    return [p.images.tolist() for p in perms if not p.is_identity()]


class _Rooted:
    """A checked action split into vertex orbits, each with its root (its
    smallest vertex) and generators of the root's stabiliser."""

    def __init__(self, grp: PermutationGroup, g: CayleyGraph) -> None:
        self.group = grp
        self.graph = g
        gens = [p for p in grp.generators if not p.is_identity()]
        self.inverse_images = [p.inverse().images.tolist() for p in gens]
        self.vertex_orbits = orbits(_images(gens), [(v,) for v in range(g.vertex_count)])
        self.orbit_of = {v: orbit for orbit in self.vertex_orbits for (v,) in orbit}
        self.roots = [next(iter(orbit))[0] for orbit in self.vertex_orbits]
        self.stabilizers = [_images(grp.stabilizer_generators(r)) for r in self.roots]

    def partition(self, rooted) -> list[tuple[dict, int]]:
        """Every G-orbit on the objects that rooted(r) lists in ascending
        order at each root r: its G_r-orbit there and its size under G."""
        return [
            (orbit, len(vertex_orbit) * len(orbit))
            for r, vertex_orbit, stab in zip(self.roots, self.vertex_orbits, self.stabilizers)
            for orbit in orbits(stab, rooted(r))
        ]

    def to_root(self, obj: tuple[int, ...]) -> tuple[int, ...]:
        """The image of obj under an element of G carrying obj[0] to its root."""
        tree = self.orbit_of[obj[0]]
        while (step := tree[obj[:1]]) is not None:
            inv = self.inverse_images[step[1]]
            obj = tuple([inv[x] for x in obj])
        return obj

    @cached_property
    def arc_orbits(self) -> list[tuple[dict, int]]:
        adjacency = self.graph.adjacency
        return self.partition(lambda r: [(r, v) for v in iter_bits(adjacency[r])])


def _check_action(grp: PermutationGroup, g: CayleyGraph) -> _Rooted:
    """Check once that every generator is an automorphism of g, then root."""
    if grp.degree != g.vertex_count:
        raise ValueError(
            f"group degree {grp.degree} does not match {g.vertex_count} vertices"
        )
    for p in grp.generators:
        check_graph_automorphism(g, p)
    return _Rooted(grp, g)


def _context(grp: PermutationGroup, g: CayleyGraph, rooted: _Rooted | None) -> _Rooted:
    # classify_action shares one context between the is_*_transitive calls;
    # only one _check_action built for this very group and graph is trusted.
    if rooted is not None and rooted.group is grp and rooted.graph is g:
        return rooted
    return _check_action(grp, g)


def _result(parts: list[tuple[dict, int]]) -> TransitivityResult:
    sizes = tuple(size for _, size in parts)
    if len(parts) <= 1:
        return TransitivityResult(True, sizes, None)
    first, second = (next(iter(orbit)) for orbit, _ in parts[:2])
    return TransitivityResult(False, sizes, (first, second))


def is_vertex_transitive(grp: PermutationGroup, g: CayleyGraph,
                         rooted: _Rooted | None = None) -> TransitivityResult:
    ctx = _context(grp, g, rooted)
    return _result([(orbit, len(orbit)) for orbit in ctx.vertex_orbits])


def is_edge_transitive(grp: PermutationGroup, g: CayleyGraph,
                       rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on unordered edges or not, with a two-edge witness.

    An arc orbit and the orbit of its reversed arcs form one edge orbit,
    with half as many edges as arcs when the two orbits coincide.
    """
    ctx = _context(grp, g, rooted)
    arcs = ctx.arc_orbits
    index = {arc: i for i, (orbit, _) in enumerate(arcs) for arc in orbit}
    parts = []
    paired: set[int] = set()
    for i, (orbit, size) in enumerate(arcs):
        if i in paired:
            continue
        r, v = next(iter(orbit))
        j = index[ctx.to_root((v, r))]
        paired.add(j)
        parts.append((orbit, size // 2 if j == i else size))
    return _result(parts)


def is_arc_transitive(grp: PermutationGroup, g: CayleyGraph,
                      rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on ordered adjacent pairs or not."""
    return _result(_context(grp, g, rooted).arc_orbits)


def is_two_arc_transitive(grp: PermutationGroup, g: CayleyGraph,
                          rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on paths u ~ v ~ w with w != u or not."""
    ctx = _context(grp, g, rooted)
    adj = g.adjacency
    return _result(ctx.partition(lambda r: [
        (r, v, w) for v in iter_bits(adj[r]) for w in iter_bits(adj[v] & ~(1 << r))
    ]))


def is_distance_transitive(grp: PermutationGroup, g: CayleyGraph,
                           rooted: _Rooted | None = None) -> DistanceTransitivityResult:
    """One orbit on ordered pairs at each distance 0..D or not.

    Distances come from one BFS per root; the graph must be connected,
    which holds for every graph this package builds.  A root nearer than d
    to every vertex has no objects at distance d.
    """
    ctx = _context(grp, g, rooted)
    layers = {r: bfs_layers(g.adjacency, r) for r in ctx.roots}
    if any(sum(ls).bit_count() != g.vertex_count for ls in layers.values()):
        raise ValueError("distance transitivity needs a connected graph")

    per_distance: list[tuple[int, ...]] = []
    witness = None
    witness_distance = None
    for d in range(max(len(ls) for ls in layers.values())):
        res = _result(ctx.partition(
            lambda r: [(r, v) for v in iter_bits(layers[r][d] if d < len(layers[r]) else 0)]
        ))
        per_distance.append(res.orbit_sizes)
        if witness is None and not res.transitive:
            witness = res.witness
            witness_distance = d
    return DistanceTransitivityResult(
        transitive=witness is None,
        orbit_sizes_by_distance=tuple(per_distance),
        witness_distance=witness_distance,
        witness=witness,
    )


def classify_action(grp: PermutationGroup, g: CayleyGraph) -> TransitivityReport:
    """Answer all five transitivity questions for one group action.

    Ends with a consistency check of the implication chain (arc implies
    edge, 2-arc implies arc, distance implies arc); a violation cannot come
    from the mathematics, only from a broken orbit engine.
    """
    rooted = _check_action(grp, g)
    vertex = is_vertex_transitive(grp, g, rooted)
    edge = is_edge_transitive(grp, g, rooted)
    arc = is_arc_transitive(grp, g, rooted)
    distance = is_distance_transitive(grp, g, rooted)
    two_arc = is_two_arc_transitive(grp, g, rooted)

    if arc.transitive and not edge.transitive:
        raise RuntimeError("orbit engine inconsistency: arc without edge transitivity")
    if two_arc.transitive and not arc.transitive:
        raise RuntimeError("orbit engine inconsistency: 2-arc without arc transitivity")
    if (distance.transitive and len(distance.orbit_sizes_by_distance) > 1
            and not arc.transitive):
        raise RuntimeError("orbit engine inconsistency: distance without arc transitivity")

    return TransitivityReport(
        n=g.n,
        vertex_transitive=vertex.transitive,
        edge_transitive=edge.transitive,
        arc_transitive=arc.transitive,
        distance_transitive=distance.transitive,
        two_arc_transitive=two_arc.transitive,
        witnesses={
            "vertex": vertex.witness,
            "edge": edge.witness,
            "arc": arc.witness,
            "distance": distance.witness,
            "two_arc": two_arc.witness,
        },
        orbit_counts={
            "edges": edge.orbit_sizes,
            "arcs": arc.orbit_sizes,
            "distance2_pairs": (
                distance.orbit_sizes_by_distance[2]
                if len(distance.orbit_sizes_by_distance) > 2
                else ()
            ),
            "two_arcs": two_arc.orbit_sizes,
        },
    )


def classify(n: int) -> TransitivityReport:
    """Build the graph and the claimed group for modulus n and classify."""
    g = build_graph(n)
    return classify_action(claimed_aut_group(n), g)
