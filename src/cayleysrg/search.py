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
  trace departs from the base path's, one event per splitter W, which
  splits cells by their arcs from W, counted bit-sliced: a vertex's row
  alone when W is one vertex, and a cell reached then either lies in the
  row or splits in two.  A leaf is
  accepted when its bijection carries the out-neighbours of every vertex
  onto those of its image, as ascending lists, each row listed once.
- Result.  The images of b_i form one orbit of the stabiliser of
  b_1, ..., b_{i-1}; |Aut| is the product of the orbit sizes.  The
  automorphisms found reach every image at every level, so they generate
  Aut; they and the orbit sizes are the whole result.

Levels are counted from the deepest up.  A candidate that the automorphisms
found so far already reach from b_i needs no search, and neither does one
in the orbit of a refused candidate y under them: they all fix
b_1, ..., b_{i-1}, so if h among them carried y to z and some sigma
fixing b_1, ..., b_{i-1} carried b_i to z, then h^-1 sigma would carry b_i
to y.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .bitset import iter_bits
from .core import Permutation, orbits

__all__ = ["BRUTE_FORCE_MAX_MODULUS", "AutomorphismList", "enumerate_automorphisms"]

# Largest modulus the oracle accepts, as vertex_count <= cap**2: the largest
# n such that the count at every modulus up to it takes under 3 s, nearly
# all of it refinement.  enumerate_automorphisms(build_graph(n)), one
# process per modulus, best of 2 (from 52 to 56, the range over three
# such runs) on 2 vCPUs with CPython 3.11.7, and the process's peak RSS,
# the build included:
#   n  time    RSS      n  time       RSS      n  time       RSS
#   31 0.27 s  37 MB    42 0.99 s     52 MB    52 2.0-2.4 s  74 MB
#   32 0.32 s  38 MB    43 1.00 s     53 MB    53 1.8-2.0 s  76 MB
#   33 0.34 s  39 MB    44 1.04 s     55 MB    54 1.9-2.2 s  79 MB
#   34 0.32 s  40 MB    45 1.13 s     57 MB    55 2.5-2.9 s  82 MB
#   35 0.46 s  42 MB    46 1.18 s     59 MB    56 3.3-3.7 s  85 MB
#   36 0.56 s  43 MB    47 1.38 s     61 MB    57 3.09 s     88 MB
#   37 0.42 s  44 MB    48 1.78 s     64 MB    58 2.70 s     91 MB
#   38 0.53 s  45 MB    49 1.54 s     66 MB    59 2.90 s     95 MB
#   39 0.68 s  48 MB    50 1.41 s     68 MB    60 4.75 s     99 MB
#   40 0.91 s  49 MB    51 1.97 s     71 MB    61 3.18 s    103 MB
#   41 0.79 s  50 MB
# Composite moduli cost up to about twice their prime neighbours.  The cap
# stays below BUILD_MAX_MODULUS, as the count reads the built rows.
BRUTE_FORCE_MAX_MODULUS = 55


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
    no other.  cells holds the non-singleton cells and fixed[s] the vertex
    of the singleton cell s."""

    __slots__ = ("cells", "fixed")

    def __init__(self, cells: dict[int, int], fixed: list[int]):
        self.cells = cells
        self.fixed = fixed

    def copy(self) -> _Partition:
        return _Partition(dict(self.cells), list(self.fixed))

    def target(self) -> int:
        """Start of the first smallest non-singleton cell."""
        return min((m.bit_count(), s) for s, m in self.cells.items())[1]


def _refine(adj, part: _Partition, splitters: list[int], expect=None):
    """Refine part in place to the coarsest equitable partition finer than
    it, starting from the cells named in splitters.

    Splitter W splits each cell into fragments by the number of arcs from W
    into each vertex, in ascending order.  W's rows are summed into planes,
    planes[i] the vertices whose count has bit i set: a cell is uniform when
    each plane holds all of it or none, and a mixed one splits on the planes,
    the highest first.  A singleton W, or one whose rows are disjoint, has
    one plane, its row or their union, and a mixed cell splits into the
    vertices off it and those on it.  On digraphs the count is of arcs into
    the vertex; read off W and the rows alone, it commutes with every
    relabelling.  So do the result and the trace, one event per splitter,
    one entry per non-singleton cell that W reaches, in cell order: (cell,
    count, size) for a uniform cell and (cell, counts, sizes) for a split
    one, every step reading and naming only cell starts.  With expect given,
    the refinement stops and returns None at the first event that differs.
    """
    trace = []
    pending = set(splitters)
    queue = deque(splitters)
    cells, fixed = part.cells, part.fixed
    while queue and cells:
        s = queue.popleft()
        pending.discard(s)
        planes, reached = [], 0
        for w in iter_bits(cells[s]) if s in cells else (fixed[s],):
            carry = adj[w]
            reached |= carry
            for i, p in enumerate(planes):     # add the row, bit-sliced
                planes[i] = p ^ carry
                carry &= p
            if carry:
                planes.append(carry)
        hit = [c for c, m in cells.items() if m & reached]
        if len(hit) > 1:
            hit.sort()
        event, splits = [], []
        add = event.append
        if len(planes) == 1:
            for c in hit:
                m = cells[c]
                x = m & reached
                if x == m:
                    add((c, 1, m.bit_count()))
                    continue
                frags = (m ^ x, x)
                sizes = (frags[0].bit_count(), x.bit_count())
                add((c, (0, 1), sizes))
                splits.append((c, frags, sizes))
        else:
            bits = [(1 << i, p) for i, p in enumerate(planes)]
            for c in hit:
                m = cells[c]
                k = 0
                for bit, p in bits:
                    x = m & p
                    if x:
                        if x != m:
                            break
                        k |= bit
                else:
                    add((c, k, m.bit_count()))
                    continue
                counts, frags = [0], [m]
                for bit, p in reversed(bits):
                    if not m & p:
                        continue
                    ks, fs = counts, frags
                    counts, frags = [], []
                    for k, f in zip(ks, fs):
                        x = f & p
                        if x != f:
                            counts.append(k)
                            frags.append(f ^ x)
                        if x:
                            counts.append(k | bit)
                            frags.append(x)
                sizes = tuple([f.bit_count() for f in frags])
                add((c, tuple(counts), sizes))
                splits.append((c, frags, sizes))
        if expect is not None and (len(trace) == len(expect) or expect[len(trace)] != event):
            trace = None
            break
        trace.append(event)
        for c, frags, sizes in splits:
            # Hopcroft: a cell already used as a splitter needs all but one
            # largest fragment, the counts into that one follow.
            skip = None if c in pending else sizes.index(max(sizes))
            del cells[c]
            start = c
            for i, frag in enumerate(frags):
                if sizes[i] == 1:
                    fixed[start] = frag.bit_length() - 1
                else:
                    cells[start] = frag
                if i != skip and start not in pending:
                    pending.add(start)
                    queue.append(start)
                start += sizes[i]
    if expect is not None and trace is not None and len(trace) != len(expect):
        return None
    return trace


def _individualise(adj, part: _Partition, c: int, v: int, expect=None):
    """Split v off the front of cell c of an equitable partition and refine.
    Returns the new partition and the trace, or None on a trace mismatch."""
    child = part.copy()
    rest = child.cells.pop(c) & ~(1 << v)
    child.fixed[c] = v
    if rest & (rest - 1):
        child.cells[c + 1] = rest
    else:
        child.fixed[c + 1] = rest.bit_length() - 1
    trace = _refine(adj, child, [c], expect)
    if trace is None:
        return None
    return child, trace


class _Search:
    """The base path of one graph, and the searches along it."""

    def __init__(self, g):
        self.adj = adj = list(g.adjacency)
        self.out = [list(iter_bits(row)) for row in adj]   # out[v]: ascending
        vc = g.vertex_count
        full = (1 << vc) - 1 if vc > 1 else 0
        root = _Partition({0: full} if full else {}, [0] * vc)
        _refine(adj, root, [0])
        self.nodes = [root]     # nodes[i]: the partition before b_i is split off
        self.targets = []       # targets[i]: start of the cell of b_i
        self.traces = []        # traces[i]: refinement trace after b_i
        self.base = []
        node = root
        while node.cells:
            c = node.target()
            b = next(iter_bits(node.cells[c]))
            node, trace = _individualise(adj, node, c, b)
            self.targets.append(c)
            self.traces.append(trace)
            self.base.append(b)
            self.nodes.append(node)
        self.leaf = node.fixed

    def automorphism(self, labels: list[int]) -> list[int] | None:
        """The images of the bijection carrying the base path's leaf onto
        labels, cell by cell, when it is an automorphism, else None."""
        images = [0] * len(self.leaf)
        for a, b in zip(self.leaf, labels):
            images[a] = b
        # A bijection is an automorphism iff it carries the out-neighbours
        # of every v onto those of its image, one sorted row at a time.
        out, image = self.out, images.__getitem__
        rows_kept = all(sorted(map(image, row)) == out[images[v]]
                        for v, row in enumerate(out))
        return images if rows_kept else None

    def _descend(self, part: _Partition, depth: int) -> list[int] | None:
        if depth == len(self.base):
            return self.automorphism(part.fixed)
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


def _close(gens: list[list[int]], points: set, queue: list[int]) -> set:
    """Add to points the queued points and everything gens reach from them;
    returns points."""
    while queue:
        v = queue.pop()
        if v not in points:
            points.add(v)
            queue.extend([images[v] for images in gens])
    return points


def enumerate_automorphisms(g) -> AutomorphismList:
    """The automorphism group of g, counted along a stabiliser chain.

    g needs only vertex_count and adjacency, the rows as int bitmasks;
    row v holds the out-neighbours of v, so digraphs are counted too.  A
    row count other than vertex_count, or a row that is negative or has a
    bit at or past vertex_count, is refused with ValueError naming the
    first bad row.
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
    # one row per vertex, each a set of vertices: iter_bits never ends on a
    # negative row, and a bit at or past vertex_count names no vertex
    rows, top = g.adjacency, 1 << g.vertex_count
    for v, row in enumerate(rows):
        if v >= g.vertex_count or not 0 <= row < top:
            raise ValueError(f"row {v} of {len(rows)} is no set of the "
                             f"{g.vertex_count} vertices")
    if len(rows) < g.vertex_count:
        raise ValueError(f"row {len(rows)} is missing: {len(rows)} rows for "
                         f"{g.vertex_count} vertices")
    search = _Search(g)
    gens: list[list[int]] = []
    orbit_sizes = []
    for level in reversed(range(len(search.base))):
        reached = _close(gens, set(), [search.base[level]])
        refused: set = set()
        for y in iter_bits(search.nodes[level].cells[search.targets[level]]):
            if y in reached or y in refused:
                continue
            images = search.extend(level, y)
            if images is not None:
                gens.append(images)
                # reached is closed under the earlier generators, so its
                # growth starts from its images under the new one
                _close(gens, reached, [images[v] for v in reached])
            else:
                refused |= _close(gens, set(), [y])
        orbit_sizes.append(len(reached))
    return AutomorphismList(
        vertex_count=g.vertex_count,
        base=tuple(search.base),
        generators=tuple(Permutation(images) for images in gens),
        orbit_sizes=tuple(reversed(orbit_sizes)),
    )
