"""Orbit computations answering the transitivity questions for the family.

Each question asks whether a group G of automorphisms of Gamma(n), the
graph of graph.py, has a single orbit on one kind of object: vertices,
edges, arcs, ordered pairs at a fixed distance, or 2-arcs (paths
u ~ v ~ w with w != u).  G is handed in as an AffineGroup (symmetries):
T x| G_0, G_0's generating matrices certified on S and its keys closed
when it was built, so it is vertex-transitive and every question reads it
as it is.  Any other object is refused with ValueError, naming its type,
before any work.  No graph is built or read.

The objects of the whole graph are never closed under G.  Every question
is answered at vertex 0 instead, by the correspondence between orbitals
and suborbits (Cameron, Permutation Groups, 1999; Godsil and Royle,
Algebraic Graph Theory, 2001):

    Let G be vertex-transitive and G_0 the stabiliser of vertex 0.  The
    G-orbits on arcs, 2-arcs and distance-d pairs correspond one-to-one
    with the G_0-orbits on the same objects starting at 0, and the G-orbit
    of such an object x has size n^2 * |G_0.x|.

The objects at 0 come from S: the arcs (0, s), s in S; the distance-2
pairs (0, w), w neither 0 nor in S, as (a, b) off S and 0 has a, b != 0
and is (a, 0) + (0, b), so the diameter is 2; the 2-arcs 0 ~ s ~ s + t,
t in S but -s.  A certified map h fixing 0 is linear (Babai 1979), so
h(x e_1 + y e_2) = x h(e_1) + y h(e_2), and the AffineGroup lists G_0 by
its keys.  Its vertex_orbits, one walk over the vertices, give the arc and
distance-2 orbits, the orbit label of each member of S and G_0,s for each
arc orbit's least member s; no orbit kernel runs.  An edge orbit pairs the
arc orbit of (0, v) with that of (0, -v), onto which the translation by
-v carries the reversed arcs (v, 0).  Every 2-arc orbit at 0 has members
0 ~ s ~ s + t, which form one orbit of G_0,s, named by its least s + h(t),
and the G-orbit has n^2 |G_0.s| |G_0,s.t| members; the roots s are read
one at a time.  The pairs at distance 0 form one orbit, as G is
vertex-transitive.

Reports equal those of closing every object of the graph under G.  Every
G-orbit has a member starting at 0, the least vertex, and the orbits at 0
come out in the order of their least members, so witnesses are those
least members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _block_rows
# check_graph_automorphism is never called here: bench/tracing.py patches it here
from .symmetries import AffineGroup, check_graph_automorphism, claimed_affine_group  # noqa: F401

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
    """Distance transitivity, one orbit computation per distance 0, 1, 2."""

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


def _affine(grp: AffineGroup) -> AffineGroup:
    """grp, refused with ValueError unless it is an AffineGroup."""
    if not isinstance(grp, AffineGroup):
        raise ValueError(f"the orbit engine reads an AffineGroup, not {type(grp).__name__}")
    return grp


def _result(parts: list[tuple[tuple[int, ...], int]]) -> TransitivityResult:
    sizes = tuple(size for _, size in parts)
    if len(parts) <= 1:
        return TransitivityResult(True, sizes, None)
    return TransitivityResult(False, sizes, (parts[0][0], parts[1][0]))


def is_vertex_transitive(grp: AffineGroup) -> TransitivityResult:
    """One orbit on vertices, with n^2 of them, as the group holds T."""
    return _result([((0,), _affine(grp).degree)])


def is_edge_transitive(grp: AffineGroup) -> TransitivityResult:
    """One orbit on unordered edges or not, with a two-edge witness.

    An arc orbit and the orbit of its reversed arcs, a pairing as G_0 is
    linear, form one edge orbit, listed at the lesser least member, with
    half as many edges as arcs when the two orbits coincide.
    """
    (label, arcs, *_), n = _affine(grp).vertex_orbits, grp.n
    # the reversed arcs (v, 0), translated by -v, are the arcs (0, -v), in
    # the orbit whose least member is label[-v]
    mate = {v: int(label[-(v // n) % n * n + -v % n]) for (_, v), _ in arcs}
    return _result([((0, v), size // 2 if mate[v] == v else size)
                    for (_, v), size in arcs if mate[v] >= v])


def is_arc_transitive(grp: AffineGroup) -> TransitivityResult:
    """One orbit on ordered adjacent pairs or not."""
    return _result(_affine(grp).vertex_orbits[1])


def is_two_arc_transitive(grp: AffineGroup) -> TransitivityResult:
    """One orbit on paths u ~ v ~ w with w != u or not."""
    _, arcs, _, fixers = _affine(grp).vertex_orbits
    n, c1, c2 = grp.n, *grp.columns
    # S holds i d for d = e_1, e_2 and e_1 + e_2 and 0 < i < n, and h(i d) = i h(d)
    d = np.array([c1, c2, (c1 + c2) % n]).transpose(2, 1, 0)[..., None]
    i = np.arange(1, n, dtype=np.int32)
    # each arc orbit's least member s as (x, y), read one root at a time in
    # ascending order, so the orbits come out in order of (s, w)
    roots = np.array([divmod(s, n) for (_, s), _ in arcs], dtype=np.int32)[..., None, None]
    step, parts = _block_rows(3 * n - 3), []
    for ((_, s), size), fixing, root in zip(arcs, fixers, roots):
        # w, the least s + h(t) over G_0,s for each t, 0 at t = -s alone, as
        # a running minimum a block of elements at a time
        least = grp.degree
        for start in range(0, fixing.size, step):
            xy = root + d[fixing[start:start + step]] * i
            xy -= xy // n * n  # xy % n, which takes four times as long on int32
            least = np.minimum(least, (xy[:, 0] * n + xy[:, 1]).min(axis=0))
        # the t sharing a w form one orbit of G_0,s, whose G-orbit has
        # n^2 |G_0.s| |G_0,s.t| members, (0, s)'s arcs times the run
        ws, runs = np.unique(least, return_counts=True)
        parts += [((0, s, w), size * run) for w, run in zip(ws.tolist(), runs.tolist()) if w]
    return _result(parts)


def is_distance_transitive(grp: AffineGroup) -> DistanceTransitivityResult:
    """One orbit on ordered pairs at each distance 0, 1, 2 of Gamma(n),
    whose diameter is 2, or not."""
    _, arcs, far, _ = _affine(grp).vertex_orbits
    # the pairs (v, v) form one orbit, as G is vertex-transitive, and the
    # pairs at distance 1 are the arcs
    results = [_result(parts) for parts in ([((0, 0), grp.degree)], arcs, far)]
    witness_distance = next((d for d, r in enumerate(results) if not r.transitive), None)
    return DistanceTransitivityResult(
        transitive=witness_distance is None,
        orbit_sizes_by_distance=tuple(r.orbit_sizes for r in results),
        witness_distance=witness_distance,
        witness=None if witness_distance is None else results[witness_distance].witness,
    )


def classify_action(grp: AffineGroup) -> TransitivityReport:
    """Answer all five transitivity questions for one group action.

    Ends with a consistency check of the implication chain (arc implies
    edge, 2-arc implies arc, distance implies arc); a violation cannot come
    from the mathematics, only from a broken orbit engine.
    """
    vertex = is_vertex_transitive(grp)
    edge = is_edge_transitive(grp)
    arc = is_arc_transitive(grp)
    distance = is_distance_transitive(grp)
    two_arc = is_two_arc_transitive(grp)

    if arc.transitive and not edge.transitive:
        raise RuntimeError("orbit engine inconsistency: arc without edge transitivity")
    if two_arc.transitive and not arc.transitive:
        raise RuntimeError("orbit engine inconsistency: 2-arc without arc transitivity")
    if distance.transitive and not arc.transitive:
        raise RuntimeError("orbit engine inconsistency: distance without arc transitivity")

    return TransitivityReport(
        n=grp.n,
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
            "distance2_pairs": distance.orbit_sizes_by_distance[2],
            "two_arcs": two_arc.orbit_sizes,
        },
    )


def classify(n: int) -> TransitivityReport:
    """Classify the claimed group for modulus n, in affine form."""
    return classify_action(claimed_affine_group(n))
