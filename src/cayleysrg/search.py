"""Automorphism counting by individualisation and refinement, the oracle
side of the analysis.

This module deliberately shares nothing with the symmetry construction in
symmetries.py or the group machinery in bsgs.py; from core it takes only
the Permutation type and the orbit routine.
It computes the automorphism group of a graph from its adjacency alone, so
agreement between its count and the order of the claimed group is evidence
about the graph, not about one implementation echoing the other.

The search follows McKay & Piperno, *Practical graph isomorphism II*
(J. Symb. Comput. 2014), without the canonical labelling:

- Base.  Refine the unit colouring to the coarsest equitable partition,
  then individualise one vertex of the first smallest non-singleton cell
  and refine again, until the partition is discrete.  The individualised
  vertices b_1, ..., b_k form a base: only the identity fixes them all.
- Counting.  At level i, every vertex y of the cell of b_i is a candidate
  image of b_i under the automorphisms fixing b_1, ..., b_{i-1}.  One
  search per candidate looks for such an automorphism.  It refines after
  every individualisation, and drops a branch as soon as its refinement
  trace departs from the base path's.  A leaf is accepted when its
  bijection carries every arc onto an arc.
- Result.  The images of b_i form one orbit of the stabiliser of
  b_1, ..., b_{i-1}; |Aut| is the product of the orbit sizes.  The
  automorphisms found reach every image at every level, so they generate
  Aut; they and the orbit sizes are the whole result.

Levels are counted from the deepest up.  A candidate that the automorphisms
found so far already reach from b_i needs no search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .bitset import iter_bits
from .core import Permutation, orbits

__all__ = ["BRUTE_FORCE_MAX_MODULUS", "AutomorphismList", "enumerate_automorphisms"]

# Largest modulus the oracle accepts, as vertex_count <= cap**2.  At the cap
# (961 vertices) the count takes 1.0-1.6 s on 2 vCPUs with CPython 3.11.7,
# and the oracle stage of analyze, the count plus one sift per generator
# found (5 of them), about 1.5 s.  The counts for n = 17..31 take 10 s.
BRUTE_FORCE_MAX_MODULUS = 31


@dataclass(frozen=True)
class AutomorphismList:
    """The automorphism group of one graph, as the automorphisms that the
    search found and the orbit sizes along its base.

    orbit_sizes[i] is the size of the orbit of base[i] under the
    automorphisms fixing base[:i], so the length, the group order, is
    their product.  The generators generate the whole group.
    """

    vertex_count: int
    base: tuple[int, ...]
    generators: tuple[Permutation, ...]
    orbit_sizes: tuple[int, ...]

    def __len__(self) -> int:
        return math.prod(self.orbit_sizes)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every automorphism, as the orbit of the identity's image tuple
        under the generators; len(self) of them."""
        gens = [p.images.tolist() for p in self.generators]
        closure = orbits(gens, [tuple(range(self.vertex_count))])[0]
        if len(closure) != len(self):
            raise RuntimeError(f"closure found {len(closure)} elements, not {len(self)}")
        return tuple(Permutation(images) for images in closure)


class _Partition:
    """An ordered partition of the vertices.  A cell is named by its start,
    the number of vertices in earlier cells, so splitting one cell renames
    no other.  active holds the vertices of non-singleton cells."""

    __slots__ = ("cells", "cell_of", "active")

    def __init__(self, cells: dict[int, int], cell_of: list[int], active: int):
        self.cells = cells
        self.cell_of = cell_of
        self.active = active

    def copy(self) -> _Partition:
        return _Partition(dict(self.cells), list(self.cell_of), self.active)

    def target(self) -> int:
        """Start of the first smallest non-singleton cell."""
        return min((m.bit_count(), s) for s, m in self.cells.items() if m & self.active)[1]

    def labels(self) -> list[int]:
        """The vertices of a discrete partition, in cell order."""
        return [self.cells[s].bit_length() - 1 for s in sorted(self.cells)]


def _refine(adj, part: _Partition, splitters: list[int], expect=None):
    """Refine part in place to the coarsest equitable partition finer than
    it, starting from the cells named in splitters.

    Splitting cell C by splitter W orders the fragments by their number of
    out-neighbours in W, which is 0 for every vertex of C that W does not
    reach; the rows need not be symmetric.  Every step reads and names only
    cell starts, so the result and the trace, one (splitter, cell, sorted
    (count, size) pairs) event per cell that W touches, commute with every
    relabelling of the graph.  With expect given, the refinement stops and
    returns None at the first event that differs from it.
    """
    trace = []
    pending = set(splitters)
    queue = deque(splitters)
    cells, cell_of = part.cells, part.cell_of
    while queue and part.active:
        s = queue.popleft()
        pending.discard(s)
        w_mask = cells[s]
        hit = 0
        for w in iter_bits(w_mask):
            hit |= adj[w]
        hit &= part.active
        by_cell: dict[int, dict[int, int]] = {}
        for v in iter_bits(hit):
            groups = by_cell.setdefault(cell_of[v], {})
            k = (adj[v] & w_mask).bit_count()
            groups[k] = groups.get(k, 0) | 1 << v
        for c in sorted(by_cell):
            groups = by_cell[c]
            rest = cells[c] & ~hit
            if rest:
                groups[0] = groups.get(0, 0) | rest
            counts = sorted(groups)
            sizes = [groups[k].bit_count() for k in counts]
            event = (s, c, tuple(zip(counts, sizes)))
            if expect is not None and (
                    len(trace) == len(expect) or expect[len(trace)] != event):
                return None
            trace.append(event)
            if len(counts) == 1:
                continue
            # Hopcroft: a cell already used as a splitter needs all but one
            # largest fragment, the counts into that one follow.
            skip = None if c in pending else sizes.index(max(sizes))
            start = c
            for i, k in enumerate(counts):
                frag = groups[k]
                cells[start] = frag
                if start != c:
                    for v in iter_bits(frag):
                        cell_of[v] = start
                if sizes[i] == 1:
                    part.active &= ~frag
                if i != skip and start not in pending:
                    pending.add(start)
                    queue.append(start)
                start += sizes[i]
    if expect is not None and len(trace) != len(expect):
        return None
    return trace


def _individualise(adj, part: _Partition, c: int, v: int, expect=None):
    """Split v off the front of cell c of an equitable partition and refine.
    Returns the new partition and the trace, or None on a trace mismatch."""
    child = part.copy()
    rest = child.cells[c] & ~(1 << v)
    child.cells[c] = 1 << v
    child.cells[c + 1] = rest
    for u in iter_bits(rest):
        child.cell_of[u] = c + 1
    child.active &= ~(1 << v)
    if rest & (rest - 1) == 0:
        child.active &= ~rest
    trace = _refine(adj, child, [c], expect)
    if trace is None:
        return None
    return child, trace


class _Search:
    """The base path of one graph, and the searches along it."""

    def __init__(self, g):
        self.adj = adj = list(g.adjacency)
        vc = g.vertex_count
        root = _Partition({0: (1 << vc) - 1}, [0] * vc, (1 << vc) - 1 if vc > 1 else 0)
        _refine(adj, root, [0])
        self.nodes = [root]     # nodes[i]: the partition before b_i is split off
        self.targets = []       # targets[i]: start of the cell of b_i
        self.traces = []        # traces[i]: refinement trace after b_i
        self.base = []
        node = root
        while node.active:
            c = node.target()
            b = next(iter_bits(node.cells[c]))
            node, trace = _individualise(adj, node, c, b)
            self.targets.append(c)
            self.traces.append(trace)
            self.base.append(b)
            self.nodes.append(node)
        self.leaf = node.labels()

    def _descend(self, part: _Partition, depth: int) -> list[int] | None:
        if depth == len(self.base):
            images = [0] * len(self.leaf)
            for a, b in zip(self.leaf, part.labels()):
                images[a] = b
            # A bijection maps the arcs one to one onto as many arcs, so it
            # is an automorphism once every image of an arc is an arc.
            arcs_kept = all(self.adj[images[v]] >> images[w] & 1
                            for v, row in enumerate(self.adj) for w in iter_bits(row))
            return images if arcs_kept else None
        c = self.targets[depth]
        for v in iter_bits(part.cells[c]):
            found = _individualise(self.adj, part, c, v, self.traces[depth])
            if found is not None:
                images = self._descend(found[0], depth + 1)
                if images is not None:
                    return images
        return None

    def extend(self, level: int, y: int) -> list[int] | None:
        """Images of an automorphism fixing base[:level] and mapping
        base[level] to y, or None when there is none."""
        found = _individualise(self.adj, self.nodes[level], self.targets[level], y,
                               self.traces[level])
        if found is None:
            return None
        return self._descend(found[0], level + 1)


def enumerate_automorphisms(g) -> AutomorphismList:
    """The automorphism group of g, counted along a stabiliser chain.

    g needs only vertex_count and adjacency, the rows as int bitmasks;
    row v holds the out-neighbours of v, so digraphs are counted too.
    The result is deterministic: the same graph gives the same base,
    generators and orbit sizes.
    """
    if g.vertex_count < 1:
        raise ValueError("need at least one vertex")
    cap = BRUTE_FORCE_MAX_MODULUS ** 2
    if g.vertex_count > cap:
        raise ValueError(
            f"{g.vertex_count} vertices exceed the search cap of {cap} "
            f"(modulus {BRUTE_FORCE_MAX_MODULUS}); build the claimed group instead"
        )
    search = _Search(g)
    gens: list[list[int]] = []
    orbit_sizes = []
    for level in reversed(range(len(search.base))):
        x = search.base[level]
        reached = orbits(gens, [(x,)])[0]
        for y in iter_bits(search.nodes[level].cells[search.targets[level]]):
            if (y,) in reached:
                continue
            images = search.extend(level, y)
            if images is not None:
                gens.append(images)
                reached = orbits(gens, [(x,)])[0]
        orbit_sizes.append(len(reached))
    return AutomorphismList(
        vertex_count=g.vertex_count,
        base=tuple(search.base),
        generators=tuple(Permutation(images) for images in gens),
        orbit_sizes=tuple(reversed(orbit_sizes)),
    )
