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

So one root per vertex orbit suffices, its least vertex.  When the
chain's first base point is 0 and its first-level transversal covers
every vertex, G is vertex-transitive and the whole answer comes from the
chain: the only root is 0, G_0 is generated by the next level's strong
generators, and the first-level transversal carries any vertex back to 0.
That is the case for the claimed groups, and then nothing is closed over
the n^2 vertices.  Any other group (the trivial group, the origin
stabiliser, a chain based elsewhere) has its vertices closed under its
generators, with a Schreier forest of the vertex orbits to carry vertices
to their roots and Schreier generators for the stabilisers of the roots
past the first base point.

At each root the objects are read off the adjacency rows and encoded as
one ascending int array, a vertex w as w and a 2-arc tail (v, w) as
v * n^2 + w, and their G_r-orbits come from core.orbit_labels, the one
orbit kernel, which refuses generators that do not act on the objects.
Edge orbits are arc orbits paired with the orbits of their reversed arcs;
the reversal (v, r) of an arc at the root r is carried back to the root of
v, once per arc orbit.

Reports equal those of closing every object of the graph under G.  The
least member of each G-orbit starts at its root, roots ascend and the
kernel lists the orbits at a root in order of their least members, so
orbits come out in the order of their least members and witnesses are
those least members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitset import bfs_layers, bit_positions
from .bsgs import PermutationGroup
from .core import orbit_labels
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


def _moving(perms) -> list:
    """The image arrays of the permutations that are not the identity."""
    return [p.images for p in perms if not p.is_identity()]


def _least(labels):
    """The least members of the orbits that labels describe, and the sizes."""
    firsts = np.flatnonzero(labels == np.arange(labels.size))
    return firsts, np.bincount(labels)[firsts]


def _vertex_closure(images: list, count: int):
    """The vertex orbits of the group the image arrays generate, closed over
    all count vertices: their roots (least members), their sizes, and a
    Schreier forest, via[v] naming a generator that carries a vertex one
    step nearer the root onto v, and -1 at the roots."""
    roots, sizes = _least(orbit_labels(np.arange(count), images))
    via = np.full(count, -1)
    seen = np.zeros(count, dtype=bool)
    seen[roots] = True
    frontier = roots
    while frontier.size:
        reached = [roots[:0]]
        for i, img in enumerate(images):
            targets = img[frontier]
            fresh = np.unique(targets[~seen[targets]])
            via[fresh] = i
            seen[fresh] = True
            reached.append(fresh)
        frontier = np.concatenate(reached)
    return roots.tolist(), sizes.tolist(), via


class _Rooted:
    """A checked action split into vertex orbits, each with its root (its
    least vertex) and the image arrays of generators of the root's
    stabiliser."""

    def __init__(self, grp: PermutationGroup, g: CayleyGraph) -> None:
        self.group = grp
        self.graph = g
        count = g.vertex_count
        self._via = None
        if grp.base[:1] == [0] and grp.transversal_sizes()[0] == count:
            self.roots, self.vertex_sizes = [0], [count]
        else:
            images = _moving(grp.generators)
            self.roots, self.vertex_sizes, self._via = _vertex_closure(images, count)
            self._inverses = [np.argsort(img) for img in images]
        self.stabilizers = [_moving(grp.stabilizer_generators(r)) for r in self.roots]

    def to_root(self, obj: tuple[int, ...]) -> tuple[int, ...]:
        """The image of obj under an element of G carrying obj[0] to its root."""
        if self._via is None:
            t = self.group.transversal_inverse(obj[0]).images
            return tuple(int(t[x]) for x in obj)
        while (i := self._via[obj[0]]) >= 0:
            inv = self._inverses[i]
            obj = tuple(int(inv[x]) for x in obj)
        return obj

    def partition(self, rooted):
        """Every G-orbit on the objects that start at a root.

        rooted(r) lists the objects at r without their first vertex, as the
        rows of an int array in ascending order.  Returns each G-orbit as
        its least member and its size under G, in order of least members,
        and for each root the codes of its objects with the index of the
        G-orbit of each.
        """
        count = self.graph.vertex_count
        parts: list[tuple[tuple[int, ...], int]] = []
        where = {}
        for r, size, stab in zip(self.roots, self.vertex_sizes, self.stabilizers):
            tails = rooted(r)
            dims = (count,) * tails.shape[1]
            codes = np.ravel_multi_index(tuple(tails.T), dims)
            labels = orbit_labels(codes, [np.ravel_multi_index(tuple(img[tails].T), dims)
                                          for img in stab])
            firsts, sizes = _least(labels)
            where[r] = (codes, len(parts) + np.searchsorted(firsts, labels))
            parts += [((r, *tails[i].tolist()), size * s)
                      for i, s in zip(firsts.tolist(), sizes.tolist())]
        return parts, where

    @cached_property
    def arc_orbits(self):
        adjacency, count = self.graph.adjacency, self.graph.vertex_count
        return self.partition(lambda r: bit_positions([adjacency[r]], count)[1][:, None])


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


def _result(parts: list[tuple[tuple[int, ...], int]]) -> TransitivityResult:
    sizes = tuple(size for _, size in parts)
    if len(parts) <= 1:
        return TransitivityResult(True, sizes, None)
    return TransitivityResult(False, sizes, (parts[0][0], parts[1][0]))


def is_vertex_transitive(grp: PermutationGroup, g: CayleyGraph,
                         rooted: _Rooted | None = None) -> TransitivityResult:
    ctx = _context(grp, g, rooted)
    return _result([((r,), size) for r, size in zip(ctx.roots, ctx.vertex_sizes)])


def is_edge_transitive(grp: PermutationGroup, g: CayleyGraph,
                       rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on unordered edges or not, with a two-edge witness.

    An arc orbit and the orbit of its reversed arcs form one edge orbit,
    with half as many edges as arcs when the two orbits coincide.
    """
    ctx = _context(grp, g, rooted)
    arcs, where = ctx.arc_orbits
    parts = []
    paired: set[int] = set()
    for i, ((r, v), size) in enumerate(arcs):
        if i in paired:
            continue
        root, x = ctx.to_root((v, r))
        codes, orbit_of = where[root]
        j = int(orbit_of[np.searchsorted(codes, x)])
        paired.add(j)
        parts.append(((r, v), size // 2 if j == i else size))
    return _result(parts)


def is_arc_transitive(grp: PermutationGroup, g: CayleyGraph,
                      rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on ordered adjacent pairs or not."""
    return _result(_context(grp, g, rooted).arc_orbits[0])


def is_two_arc_transitive(grp: PermutationGroup, g: CayleyGraph,
                          rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on paths u ~ v ~ w with w != u or not."""
    ctx = _context(grp, g, rooted)
    adj, count = g.adjacency, g.vertex_count

    def tails(r: int):
        hood = bit_positions([adj[r]], count)[1]
        at, w = bit_positions([adj[v] & ~(1 << r) for v in hood.tolist()], count)
        return np.column_stack((hood[at], w))

    return _result(ctx.partition(tails)[0])


def is_distance_transitive(grp: PermutationGroup, g: CayleyGraph,
                           rooted: _Rooted | None = None) -> DistanceTransitivityResult:
    """One orbit on ordered pairs at each distance 0..D or not.

    Distances come from one BFS per root; the graph must be connected,
    which holds for every graph this package builds.  A root nearer than d
    to every vertex has no objects at distance d.
    """
    ctx = _context(grp, g, rooted)
    count = g.vertex_count
    layers = {r: bfs_layers(g.adjacency, r) for r in ctx.roots}
    if any(sum(ls).bit_count() != count for ls in layers.values()):
        raise ValueError("distance transitivity needs a connected graph")

    per_distance: list[tuple[int, ...]] = []
    witness = None
    witness_distance = None
    for d in range(max(len(ls) for ls in layers.values())):
        res = _result(ctx.partition(
            lambda r: bit_positions([layers[r][d] if d < len(layers[r]) else 0],
                                    count)[1][:, None]
        )[0])
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
