"""Orbit computations answering the transitivity questions for the family.

Each question asks whether a group G of automorphisms of Gamma(n), the
graph of graph.py, has a single orbit on one kind of object: vertices,
edges, arcs, ordered pairs at a fixed distance, or 2-arcs (paths
u ~ v ~ w with w != u).  Only G is handed in; n is read off its degree,
n^2.  G must be vertex-transitive, which its chain shows when the first
level's orbit covers every vertex, and its chain must be based at vertex
0, as the claimed groups are; any other degree, group or chain is refused
with ValueError.  The objects of the whole graph are never closed under
G.  Every question is answered at vertex 0 instead, by the correspondence
between orbitals and suborbits (Cameron, Permutation Groups, 1999; Godsil
and Royle, Algebraic Graph Theory, 2001):

    Let G be vertex-transitive and G_0 the stabiliser of vertex 0.  The
    G-orbits on arcs, 2-arcs and distance-d pairs correspond one-to-one
    with the G_0-orbits on the same objects starting at 0, and the G-orbit
    of such an object x has size n^2 * |G_0.x|.

G_0 is generated by the next level's strong generators, and the
first-level transversal carries any vertex back to 0.

Before any of it, _Rooted certifies the chain's strong generators, which
the kernel and the edge pairing read, by the certificate of S in
symmetries, as claimed_aut_group certifies its generators.  So no graph is
built or read, and the objects at 0 come from S: the arcs (0, s), s in S;
the distance-2 pairs (0, w), w neither 0 nor in S, as (a, b) off S and 0
has a, b != 0 and is (a, 0) + (0, b), so the diameter is 2; the 2-arcs
0 ~ s ~ s + t, t in S but -s.  Each object set is one ascending int
array, a vertex w as w and a tail (s, w) as s * n^2 + w, partitioned by
core.orbit_labels, the one orbit kernel, which refuses generators that do
not act on the objects.  Edge orbits are arc orbits paired with the orbits
of their reversed arcs; the reversal (v, 0) of an arc at 0 is carried back
to 0, once per arc orbit.  The pairs at distance 0 form one orbit, as G is
vertex-transitive, and need no kernel call.

Reports equal those of closing every object of the graph under G.  Every
G-orbit has a member starting at 0, the least vertex, and the kernel
lists the orbits at 0 in order of their least members, so orbits come out
in the order of their least members and witnesses are those least
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .bsgs import PermutationGroup
from .core import orbit_labels
from .graph import GRAPH_MAX_MODULUS, connection_indices
# check_graph_automorphism is never called here: bench/tracing.py patches it here
from .symmetries import _certify, check_graph_automorphism, claimed_aut_group  # noqa: F401

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


class _Rooted:
    """The engine's one entry check: the group, of degree n^2, its strong
    generators certified, as a vertex-transitive action rooted at vertex 0,
    its chain's first base point, whose first-level transversal carries any
    vertex to 0, with the image arrays of the next level's generators,
    which generate G_0."""

    def __init__(self, grp: PermutationGroup) -> None:
        n = isqrt(grp.degree)
        if n * n != grp.degree or not 4 <= n <= GRAPH_MAX_MODULUS:
            raise ValueError(f"group degree {grp.degree} is not n**2 for a modulus "
                             f"4 <= n <= {GRAPH_MAX_MODULUS}")
        _certify(n, grp.strong_generators)
        if not grp.base or grp.transversal_sizes()[0] != grp.degree:
            raise ValueError("the group is not vertex-transitive: its chain's first "
                             "level does not cover every vertex")
        if grp.base[0] != 0:
            raise ValueError(f"the chain's first base point is {grp.base[0]}, "
                             "not vertex 0")
        self.group, self.n = grp, n
        self.stabilizer = [p.images for p in grp.stabilizer_generators(0)]

    def partition(self, tails: np.ndarray):
        """Every G-orbit on the objects that start at 0.

        tails lists those objects without their first vertex, as the rows
        of an int array in ascending order.  Returns each G-orbit as its
        least member and its size under G, in order of least members, and
        the codes of the objects with the index of the G-orbit of each.
        """
        count = self.group.degree
        dims = (count,) * tails.shape[1]
        codes = np.ravel_multi_index(tuple(tails.T), dims)
        # a generator, not a list: the kernel reads each image array once,
        # so only one is alive at a time, which lowers the peak RSS
        labels = orbit_labels(codes, (np.ravel_multi_index(tuple(img[tails].T), dims)
                                      for img in self.stabilizer))
        firsts = np.flatnonzero(labels == np.arange(labels.size))
        sizes = np.bincount(labels)[firsts]
        parts = [((0, *tails[i].tolist()), count * s)
                 for i, s in zip(firsts.tolist(), sizes.tolist())]
        return parts, (codes, np.searchsorted(firsts, labels))

    @cached_property
    def arc_orbits(self):
        return self.partition(connection_indices(self.n)[:, None])


def _context(grp: PermutationGroup, rooted: _Rooted | None) -> _Rooted:
    # classify_action shares one context between the is_*_transitive calls;
    # only one _Rooted built for this very group is trusted.
    if rooted is not None and rooted.group is grp:
        return rooted
    return _Rooted(grp)


def _result(parts: list[tuple[tuple[int, ...], int]]) -> TransitivityResult:
    sizes = tuple(size for _, size in parts)
    if len(parts) <= 1:
        return TransitivityResult(True, sizes, None)
    return TransitivityResult(False, sizes, (parts[0][0], parts[1][0]))


def is_vertex_transitive(grp: PermutationGroup,
                         rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on vertices, with n^2 of them: only vertex-transitive
    groups are accepted."""
    _context(grp, rooted)
    return _result([((0,), grp.degree)])


def is_edge_transitive(grp: PermutationGroup,
                       rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on unordered edges or not, with a two-edge witness.

    An arc orbit and the orbit of its reversed arcs form one edge orbit,
    with half as many edges as arcs when the two orbits coincide.
    """
    ctx = _context(grp, rooted)
    arcs, (codes, orbit_of) = ctx.arc_orbits
    parts = []
    paired: set[int] = set()
    for i, ((_, v), size) in enumerate(arcs):
        if i in paired:
            continue
        # the reversed arc (v, 0), carried back to 0, is the arc (0, x)
        x = ctx.group.transversal_inverse(v).apply(0)
        j = int(orbit_of[np.searchsorted(codes, x)])
        paired.add(j)
        parts.append(((0, v), size // 2 if j == i else size))
    return _result(parts)


def is_arc_transitive(grp: PermutationGroup,
                      rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on ordered adjacent pairs or not."""
    return _result(_context(grp, rooted).arc_orbits[0])


def is_two_arc_transitive(grp: PermutationGroup,
                          rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on paths u ~ v ~ w with w != u or not."""
    ctx = _context(grp, rooted)
    hood = connection_indices(ctx.n)
    si, sj = np.divmod(hood, ctx.n)
    # row a holds s + t for s = hood[a] and every t in S; each row ascends
    # from its one 0, at t = -s, which is not a 2-arc
    w = np.sort((si[:, None] + si) % ctx.n * ctx.n + (sj[:, None] + sj) % ctx.n, axis=1)
    tails = np.column_stack((np.repeat(hood, hood.size - 1), w[:, 1:].ravel()))
    del w  # at large n the partition sets the peak RSS of analyze
    return _result(ctx.partition(tails)[0])


def is_distance_transitive(grp: PermutationGroup,
                           rooted: _Rooted | None = None) -> DistanceTransitivityResult:
    """One orbit on ordered pairs at each distance 0, 1, 2 of Gamma(n),
    whose diameter is 2, or not."""
    ctx = _context(grp, rooted)
    far = np.ones(grp.degree, dtype=bool)
    far[connection_indices(ctx.n)] = far[0] = False
    # the pairs (v, v) form one orbit, as G is vertex-transitive, and the
    # pairs at distance 1 are the arcs
    results = [_result(parts) for parts in (
        [((0, 0), grp.degree)], ctx.arc_orbits[0],
        ctx.partition(np.flatnonzero(far)[:, None])[0])]
    witness_distance = next((d for d, r in enumerate(results) if not r.transitive), None)
    return DistanceTransitivityResult(
        transitive=witness_distance is None,
        orbit_sizes_by_distance=tuple(r.orbit_sizes for r in results),
        witness_distance=witness_distance,
        witness=None if witness_distance is None else results[witness_distance].witness,
    )


def classify_action(grp: PermutationGroup) -> TransitivityReport:
    """Answer all five transitivity questions for one group action.

    Ends with a consistency check of the implication chain (arc implies
    edge, 2-arc implies arc, distance implies arc); a violation cannot come
    from the mathematics, only from a broken orbit engine.
    """
    rooted = _Rooted(grp)
    vertex = is_vertex_transitive(grp, rooted)
    edge = is_edge_transitive(grp, rooted)
    arc = is_arc_transitive(grp, rooted)
    distance = is_distance_transitive(grp, rooted)
    two_arc = is_two_arc_transitive(grp, rooted)

    if arc.transitive and not edge.transitive:
        raise RuntimeError("orbit engine inconsistency: arc without edge transitivity")
    if two_arc.transitive and not arc.transitive:
        raise RuntimeError("orbit engine inconsistency: 2-arc without arc transitivity")
    if distance.transitive and not arc.transitive:
        raise RuntimeError("orbit engine inconsistency: distance without arc transitivity")

    return TransitivityReport(
        n=rooted.n,
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
    """Classify the claimed group for modulus n."""
    return classify_action(claimed_aut_group(n))
