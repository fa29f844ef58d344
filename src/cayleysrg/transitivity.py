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
symmetries, as claimed_aut_group certifies its generators, and refuses a
next-level generator that moves 0.  So no graph is built or read, and the
objects at 0 come from S: the arcs (0, s), s in S; the distance-2 pairs
(0, w), w neither 0 nor in S, as (a, b) off S and 0 has a, b != 0 and is
(a, 0) + (0, b), so the diameter is 2; the 2-arcs 0 ~ s ~ s + t, t in S
but -s.  Each object is numbered in the order of its tail, a vertex v as
v - 1 and a 2-arc by a k x k table of the pairs (s, t).  A certified map
fixing 0 is linear (Babai 1979), so each generator of G_0 permutes these
numbers by gathers alone, for core.orbit_labels, the one orbit kernel.
It runs twice: on the n^2 - 1 vertices, whose orbits in S are the arc
orbits and whose others are the distance-2 orbits, as G_0 fixes S, and
on the 2-arcs.  Edge orbits are arc orbits paired with the orbits of
their reversed arcs; the reversal (v, 0) of an arc at 0 is carried back
to 0, once per arc orbit.  The pairs at distance 0 form one orbit, as G
is vertex-transitive, and need no kernel call.

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
    which generate G_0, and pos[v], the index of v in S or -1."""

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
        self.stabilizer = [p.images for p in grp.stabilizer_generators(0)]
        if any(img[0] != 0 for img in self.stabilizer):
            raise ValueError("a generator of the chain's second level moves vertex 0, "
                             "so it is not in G_0")
        self.group, self.n = grp, n
        self.hood = connection_indices(n)
        self.pos = np.full(grp.degree, -1)
        self.pos[self.hood] = np.arange(self.hood.size)

    @cached_property
    def vertex_orbits(self):
        """G_0's orbits on the vertices other than 0, vertex v as object
        v - 1: the labels, then the arc orbits and the distance-2 orbits,
        each as its least pair (0, v) and its size under G, in order of v."""
        count = self.group.degree
        labels = orbit_labels(count - 1, (img[1:] - 1 for img in self.stabilizer))
        firsts, sizes = _orbits(labels, count)
        arcs, far = [], []
        for v, size in zip((firsts + 1).tolist(), sizes.tolist()):
            (far if self.pos[v] < 0 else arcs).append(((0, v), size))
        return labels, arcs, far


def _orbits(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each orbit's least member, ascending, and its size times count."""
    firsts = np.flatnonzero(labels == np.arange(labels.size))
    return firsts, np.bincount(labels)[firsts] * count


def _two_arcs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-arcs 0 ~ s ~ s + t, s and t the a-th and b-th members of S,
    numbered in the order of (s, s + t): rank[a, b] is the number, -1 at
    t = -s; heads[a] lists b by ascending s + t, so 2-arc i is (a, heads[a, j])
    for a, j = divmod(i, k - 1); and sums[a, b] is s + t."""
    hood = connection_indices(n)
    k = hood.size
    si, sj = np.divmod(hood, n)
    sums = (si[:, None] + si) % n * n + (sj[:, None] + sj) % n
    # a sorted row starts at its one 0, at t = -s; a row's sums are distinct,
    # so any sort gives this order, and the stable one is the fastest here
    order = np.argsort(sums, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(-1, k * k - 1).reshape(k, k)
                      - np.arange(k)[:, None], axis=1)
    rank[np.arange(k), order[:, 0]] = -1
    return rank, order[:, 1:], sums


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
    labels, arcs, _ = ctx.vertex_orbits
    parts = []
    paired: set[int] = set()
    for (_, v), size in arcs:
        if v in paired:
            continue
        # the reversed arc (v, 0), carried back to 0, is the arc (0, x),
        # in the orbit whose least member is u
        x = ctx.group.transversal_inverse(v).apply(0)
        u = int(labels[x - 1]) + 1
        paired.add(u)
        parts.append(((0, v), size // 2 if u == v else size))
    return _result(parts)


def is_arc_transitive(grp: PermutationGroup,
                      rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on ordered adjacent pairs or not."""
    return _result(_context(grp, rooted).vertex_orbits[1])


def is_two_arc_transitive(grp: PermutationGroup,
                          rooted: _Rooted | None = None) -> TransitivityResult:
    """One orbit on paths u ~ v ~ w with w != u or not."""
    ctx = _context(grp, rooted)
    rank, heads, sums = _two_arcs(ctx.n)
    k = ctx.hood.size
    # g in G_0 is linear, so it carries s + t to g(s) + g(t), and the 2-arc
    # (a, b) to (sigma[a], sigma[b]), sigma its permutation of S's indices
    labels = orbit_labels(k * (k - 1), (
        np.take(rank, sigma[:, None] * k + sigma[heads]).ravel()
        for sigma in (ctx.pos[img[ctx.hood]] for img in ctx.stabilizer)))
    firsts, sizes = _orbits(labels, grp.degree)
    a, i = np.divmod(firsts, k - 1)
    return _result([((0, s, w), size) for s, w, size in zip(
        ctx.hood[a].tolist(), sums[a, heads[a, i]].tolist(), sizes.tolist())])


def is_distance_transitive(grp: PermutationGroup,
                           rooted: _Rooted | None = None) -> DistanceTransitivityResult:
    """One orbit on ordered pairs at each distance 0, 1, 2 of Gamma(n),
    whose diameter is 2, or not."""
    _, arcs, far = _context(grp, rooted).vertex_orbits
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
