"""Strong regularity and distance regularity checks.

Everything here is counting, no formulas are trusted.  cayley_srg_params
counts on the connection set S of a Cayley graph on Z_n x Z_n alone: the
common neighbours of 0 and d are S & (d + S), so one histogram of the
differences s - t of members of S gives every common-neighbour count at
once, with no adjacency row built.  analyze_report certifies the family's
parameters that way.

The other functions count over adjacency bitmasks.  They take any object
with vertex_count and adjacency attributes (the CayleyGraph from this
package or a stripped-down stand-in in tests), so deliberately broken
graphs can be fed in to exercise the refusal paths, and they are the
oracle of the count on S; each first refuses a row count but
vertex_count.  Distances come from bitset.bfs_layers, whose layers are
counted and then dropped: beyond the adjacency rows the memory is O(n^2)
for the n^2 vertices of the family, where an all-pairs distance table
would hold n^4 entries.

Which vertices the pair scans start from is decided by _roots.  A graph on
Z_n x Z_n each of whose rows is row 0 translated has every translation as
an automorphism, so the pair (u, v) looks exactly like (0, v - u) (Godsil &
Royle, *Algebraic Graph Theory*, 2001, section 3.1) and vertex 0 alone is
scanned.  graph.translation_defect proves that hypothesis from the rows
handed in; it is never taken from the builder.  Every other graph is
scanned from every vertex.  Rooted, the scan is the first iteration of the
exhaustive one and, by the theorem, already decides it, so results,
refusal messages and witnesses agree.  The same theorem makes the count on
S the rooted scan of the rows of Cay(Z_n x Z_n, S), and it refuses with the
same messages and witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitset import bfs_layers, iter_bits
from .core import _block_rows, _check_modulus
from .graph import translation_defect

__all__ = [
    "RegularityRefusal",
    "SrgParams",
    "IntersectionArray",
    "check_strongly_regular",
    "cayley_srg_params",
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
        raise _disconnected(v, next(iter_bits(unreached)))
    return layers


def _disconnected(v: int, missing: int) -> RegularityRefusal:
    return RegularityRefusal(
        f"graph is disconnected: vertex {missing} unreachable from {v}",
        witness=(v, missing),
    )


def _disagreement(adjacent: bool, first_at: tuple[int, int], first: int,
                  at: tuple[int, int], common: int) -> RegularityRefusal:
    kind = "adjacent" if adjacent else "non-adjacent"
    return RegularityRefusal(
        f"{kind} pairs disagree: {first_at} has {first} common "
        f"neighbours, {at} has {common}",
        witness=at,
    )


def _complete() -> RegularityRefusal:
    return RegularityRefusal(
        "graph is complete or empty, not in the strongly regular range",
        witness=None,
    )


def _roots(g) -> range:
    """The vertices the pair scans start from: vertex 0 alone when g has an
    int n >= 2 with vertex_count == n * n and graph.translation_defect finds
    every row to be row 0 translated, else every vertex."""
    vc, n = g.vertex_count, getattr(g, "n", None)
    shaped = isinstance(n, int) and n >= 2 and vc == n * n
    return range(1) if shaped and translation_defect(g) is None else range(vc)


def _rows(g) -> tuple[int, object]:
    """g.vertex_count and g.adjacency, refused at the first missing or extra row."""
    vc, count = g.vertex_count, len(g.adjacency)
    if count != vc:
        raise RegularityRefusal(f"graph has {count} adjacency rows for {vc} vertices",
                                witness=min(vc, count))
    return vc, g.adjacency


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
    vc, adjacency = _rows(g)
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
                    raise _disagreement(True, lam_at, lam, (u, v), common)
            else:
                if mu is None:
                    mu, mu_at = common, (u, v)
                elif common != mu:
                    raise _disagreement(False, mu_at, mu, (u, v), common)
    if lam is None or mu is None:
        raise _complete()
    return SrgParams(v=vc, k=k, lam=lam, mu=mu)


def _bezout(a: int, x: int) -> tuple[int, int, int]:
    """(g, u, w) with u*a + w*x = g = gcd(a, x), for a > 0 and x >= 0."""
    r0, r1, u0, u1 = a, x, 1, 0
    while r1:
        q = r0 // r1
        r0, r1, u0, u1 = r1, r0 - q * r1, u1, u0 - q * u1
    return r0, u0, (r0 - u0 * a) // x if x else 0


def _least_unreached(n: int, si: np.ndarray, sj: np.ndarray) -> int | None:
    """The least vertex outside the subgroup H of Z_n x Z_n that the
    members (si, sj) generate, which is the component of 0 in their Cayley
    graph, or None when H is the whole group.

    H is L / nZ^2 for the lattice L spanned by the members and nZ^2, kept
    in Hermite form, rows (a, b) and (0, d), as each member (x, y) joins:
    with u*a + w*x = g = gcd(a, x), the rows (a, b) and (x, y) span the
    same lattice as (g, u*b + w*y) and (0, (x*b - a*y) / g) (Cohen, *A
    Course in Computational Algebraic Number Theory*, 1993, section 2.4).
    (0, 1) lies in H exactly when d = 1, and then H = aZ_n x Z_n, so the
    least vertex outside H is 1 when d > 1, else n = (1, 0) when a > 1.
    """
    a, b, d = n, 0, n
    for x, y in zip(si.tolist(), sj.tolist()):
        g, u, w = _bezout(a, x)
        d = math.gcd(d, (x * b - a * y) // g)
        a, b = g, (u * b + w * y) % d
        if a == d == 1:
            return None
    return 1 if d > 1 else n if a > 1 else None


def cayley_srg_params(n: int, hood) -> SrgParams:
    """Certify that Cay(Z_n x Z_n, S) is strongly regular, from S alone.

    hood holds the vertex indices of S, ascending.  Translations carry
    every pair onto one through 0, and 0 and d have the common neighbours
    S & (d + S) (Godsil & Royle 2001, section 3.1), so lam is that count on
    S and mu the count off S and 0.  One histogram of the |S|^2 differences
    s - t, in blocks of core._block_rows rows, counts it for every d at
    once.  A set that holds 0 or is not closed under negation gives no
    simple undirected graph and is refused first.  Every other refusal is
    the one check_strongly_regular gives on the rows of the graph, message
    and witness alike: the least vertex the graph cannot reach from 0, the
    first d in ascending order whose count is not that of its class, or a
    complete graph.
    """
    _check_modulus(n)
    size = n * n
    # floats and bools are refused, not truncated to integers
    hood = np.asarray(hood)
    if hood.ndim != 1 or hood.size and (hood.dtype.kind not in "iu" or hood[0] < 0
                                        or hood[-1] >= size or (hood[1:] <= hood[:-1]).any()):
        raise ValueError(f"hood must be ascending vertex indices below {size}")
    hood = hood.astype(np.int64)
    adjacent = np.zeros(size, dtype=bool)
    adjacent[hood] = True
    if adjacent[0]:
        raise RegularityRefusal("connection set holds 0: vertex 0 is adjacent to itself",
                                witness=(0, 0))
    si, sj = np.divmod(hood, n)
    negatives = (-si % n) * n + (-sj % n)
    lonely = np.flatnonzero(~adjacent[negatives])
    if lonely.size:
        s, minus_s = int(hood[lonely[0]]), int(negatives[lonely[0]])
        raise RegularityRefusal(
            f"connection set holds {s} but not its negative {minus_s}", witness=(0, s))
    missing = _least_unreached(n, si, sj)
    if missing is not None:
        raise _disconnected(0, missing)

    common = np.zeros(size, dtype=np.int64)
    step = _block_rows(hood.size)
    for lo in range(0, hood.size, step):
        di = (si[lo:lo + step, None] - si) % n
        dj = (sj[lo:lo + step, None] - sj) % n
        common += np.bincount((di * n + dj).ravel(), minlength=size)
    apart = np.flatnonzero(~adjacent[1:]) + 1
    if not apart.size:
        # every count of a complete graph is n*n - 2, so no pair disagrees
        raise _complete()
    lam_at, mu_at = int(hood[0]), int(apart[0])
    expected = np.where(adjacent, common[lam_at], common[mu_at])
    bad = np.flatnonzero(common[1:] != expected[1:]) + 1
    if bad.size:
        d = int(bad[0])
        first_at = lam_at if adjacent[d] else mu_at
        raise _disagreement(bool(adjacent[d]), (0, first_at), int(common[first_at]),
                            (0, d), int(common[d]))
    return SrgParams(v=size, k=int(hood.size), lam=int(common[lam_at]),
                     mu=int(common[mu_at]))


def diameter(g) -> int:
    """Largest eccentricity, by BFS from each of _roots(g): vertex 0 alone
    when the rows are translation-invariant, since translations preserve
    eccentricity, else every vertex.  Refuses a wrong row count, no
    vertices and disconnected input, whose diameter would be infinite."""
    vc, adjacency = _rows(g)
    if vc < 1:
        raise RegularityRefusal("need at least one vertex", witness=None)
    return max(len(_connected_layers(vc, adjacency, v)) - 1 for v in _roots(g))


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
    every vertex.  A wrong row count and a graph with no vertices are
    refused; a single vertex has diameter 0.
    """
    vc, adjacency = _rows(g)
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
