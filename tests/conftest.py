import gc
import math
import types

import numpy as np
import pytest

from cayleysrg import (
    AutomorphismError,
    CayleyGraph,
    Permutation,
    ZnPair,
    build_graph,
    claimed_aut_group,
    claimed_origin_stabilizer,
    connection_set,
    enumerate_automorphisms,
)
from cayleysrg.bitset import iter_bits
from cayleysrg.graph import connection_indices
from cayleysrg.symmetries import AffineGroup, _s_index


def automorphism_witness(g, p):
    """First adjacency discrepancy of p on g, or None if p is an automorphism.

    The exhaustive oracle for check_graph_automorphism: every row is
    checked, the image of the neighbourhood of v against the neighbourhood
    of the image of v, and the first pair (v, w) where they differ is named.
    Quadratic, exact, and blind to the Cayley structure.
    """
    if p.degree != g.vertex_count:
        raise ValueError(f"degree {p.degree} does not match {g.vertex_count} vertices")
    imgs = p.images.tolist()
    for v in range(g.vertex_count):
        mapped = 0
        for w in iter_bits(g.adjacency[v]):
            mapped |= 1 << imgs[w]
        expected = g.adjacency[imgs[v]]
        if mapped != expected:
            return (v, next(iter_bits(mapped ^ expected)))
    return None


def affine_form(grp):
    """A PermutationGroup of degree n**2, whose chain is based at vertex 0,
    as the AffineGroup the transitivity engine reads: T and its chain's
    second-level generators, each read as the matrix whose columns are its
    images of e_1 = n and e_2 = 1, as a certified map fixing 0 is linear.

    The bridge by which a chain built another way, by Schreier-Sims or by
    claimed_aut_group, is fed to the engine; T alone, a chain of one level,
    is AffineGroup(n, []).  It checks nothing of the chain: AffineGroup
    certifies the matrices on S.
    """
    n = math.isqrt(grp.degree)
    columns = [(divmod(int(p.images[n]), n), divmod(int(p.images[1]), n))
               for p in grp.stabilizer_generators(0)]
    return AffineGroup(n, [((a1, a2), (b1, b2)) for (a1, b1), (a2, b2) in columns])


class CountingRows(tuple):
    """Adjacency rows that count how often a row is looked up."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def two_switch(rows, a, b, c, d):
    """Swap the edges a-b and c-d for a-c and b-d; degrees are kept."""
    rows = list(rows)
    assert len({a, b, c, d}) == 4
    assert rows[a] >> b & 1 and rows[c] >> d & 1
    assert not rows[a] >> c & 1 and not rows[b] >> d & 1
    for x, y, on in ((a, b, False), (c, d, False), (a, c, True), (b, d, True)):
        for s, t in ((x, y), (y, x)):
            rows[s] = rows[s] | 1 << t if on else rows[s] & ~(1 << t)
    return tuple(rows)


def tampered_graphs():
    """Graphs with the rows of the graph of modulus n, row 0 kept, that are
    not that graph, each with the least row that is not row 0 translated:
    the graph of modulus 6 with a degree-preserving two-switch away from
    vertex 0, and the graph of modulus 7 without the edge between (1, 2)
    and (1, 3), both at distance 2 from vertex 0."""
    switched = two_switch(build_graph(6).adjacency, 8, 9, 13, 17)
    rows = list(build_graph(7).adjacency)
    u, w = ZnPair(1, 2, 7).index, ZnPair(1, 3, 7).index
    rows[u] &= ~(1 << w)
    rows[w] &= ~(1 << u)
    return [(CayleyGraph(6, connection_set(6), switched), 8),
            (CayleyGraph(7, connection_set(7), tuple(rows)), u)]


def affine_check_reference(n, p):
    """Raise as the affine certificate must for a single map p on the graph
    of modulus n: the check one map at a time, the oracle for the stacked
    check.

    t is p(0, 0) and the columns of M are p(1, 0) - t and p(0, 1) - t.  A
    map that differs from x -> Mx + t is refused with the first vertex
    where it does; an affine one with M(S) != S with (0, w), w the least
    vertex of p(N(0)) symmetric-difference N(p(0)).
    """
    if p.degree != n * n:
        raise ValueError(f"degree {p.degree} does not match {n * n} vertices")
    imgs = p.images
    tx, ty = divmod(int(imgs[0]), n)
    (ax, ay), (bx, by) = divmod(int(imgs[n]), n), divmod(int(imgs[1]), n)
    x, y = np.divmod(np.arange(n * n), n)
    affine = (((ax - tx) * x + (bx - tx) * y + tx) % n * n
              + ((ay - ty) * x + (by - ty) * y + ty) % n)
    stray = np.flatnonzero(affine != imgs)
    if stray.size:
        raise AutomorphismError(
            f"map is not affine on Z_{n} x Z_{n}: vertex {stray[0]} breaks x -> Mx + t",
            witness=int(stray[0]),
        )
    hood = np.array(sorted(v for v in range(n * n)
                           if (v // n == 0) != (v % n == 0) or v // n == v % n != 0))
    si, sj = np.divmod(hood, n)
    mapped = set(imgs[hood].tolist())
    expected = set(((si + tx) % n * n + (sj + ty) % n).tolist())
    if mapped != expected:
        witness = (0, min(mapped ^ expected))
        raise AutomorphismError(
            f"not an automorphism: adjacency disagrees around vertex pair {witness}",
            witness=witness,
        )


def chain_of(grp):
    """Every level of grp's chain as plain data: the base point, the image
    bytes of its strong generators, and its transversal's keys, sorted.
    The elements are left out: a transversal built on request may choose
    other elements than Schreier-Sims, so callers check those by what they
    must do."""
    return [(lev.point, [g.images.tobytes() for g in lev.gens],
             sorted(map(int, lev.transversal_inv)))
            for lev in grp._levels]


def held_permutations(root):
    """Every Permutation reachable from root by gc referents: slots,
    instance dicts, containers and cells.  A function is entered only
    through its closure cells and defaults, and a module or type not at
    all, so what a level stores is counted, not the code that builds it."""
    seen, held, todo = set(), [], [root]
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType)):
            continue
        seen.add(id(x))
        if isinstance(x, Permutation):
            held.append(x)
        elif isinstance(x, types.FunctionType):
            todo.extend([*(x.__closure__ or ()), *(x.__defaults__ or ())])
        else:
            todo.extend(gc.get_referents(x))
    return held


def pair_map_reference(n, fn):
    """The permutation a map on ZnPair induces, built one vertex at a time.

    The oracle for core.perm_from_pair_map, which evaluates an array map
    once on all coordinates: here fn takes and returns a ZnPair, and is
    called n**2 times.
    """
    images = np.empty(n * n, dtype=np.int64)
    for v in range(n * n):
        q = fn(ZnPair.from_index(v, n))
        assert q.n == n, f"pair map changed modulus: {n} to {q.n}"
        images[v] = q.index
    return Permutation(images)


def table_over_s(n: int, steps) -> np.ndarray:
    """The group that certified linear maps generate, as a table over S: one
    row per element, the indices in connection_indices(n) of its images of
    S.  steps holds each map's row, as symmetries._on_s gives it.  The rows
    are closed from the identity row, g taking row h to the row of g o h,
    and a row is kept only when its key, its images of e_2 and e_1, is new.

    The engine listed G_0 this way before it named each element by its key
    alone; kept as the oracle of symmetries._keys_over_s, whose keys must be
    this table's columns at e_2 and e_1, row for row.
    """
    k = connection_indices(n).size
    steps = np.asarray(steps, dtype=np.int64).reshape(-1, k)
    c2, c1 = _s_index(n, [1, n])
    seen, last = np.zeros(k * k, dtype=bool), np.empty(k * k, dtype=np.int64)
    seen[c2 * k + c1] = True
    rows = [np.arange(k)[None]]
    while (new := rows[-1]).size:
        keys = (steps[:, new[:, c2]] * k + steps[:, new[:, c1]]).ravel()
        order = np.arange(keys.size)
        last[keys] = order
        fresh = np.flatnonzero((last[keys] == order) & ~seen[keys])
        seen[keys[fresh]] = True
        g, h = np.divmod(fresh, len(new))
        rows.append(steps[g[:, None], new[h]])
    return np.concatenate(rows)


def orbit_labels(size: int, steps):
    """Orbits of a group on the objects range(size), as least-member labels:
    the orbit kernel transitivity ran before it read G_0 as a table over S,
    kept as the oracle of that table.

    steps holds one int array per generator, the permutation of range(size)
    it induces: steps[i][x] is the image of object x.  steps is read once,
    so it may be an iterator that makes each array as it is read.
    labels[x] is the least member of the orbit of x, so the least members
    are the objects with labels[x] == x, in ascending order, and
    np.bincount(labels) at those objects gives the orbit sizes.  No
    generators give singleton orbits.

    A step that is not an int array of size entries in range(size) means
    the generators do not act on these objects, and a repeated image means
    it is no permutation; either raises ValueError.  Labels start as the
    objects and take the minimum over each generator's image and preimage,
    then jump to their own labels, until nothing changes.  A label only
    ever names a member of the same orbit and never grows, and at the
    fixed point it is constant along every generator, hence on the orbit,
    where it can only be the least member.
    """
    moves = []
    for at in steps:
        at = np.asarray(at)
        if (at.shape != (size,) or at.dtype.kind not in "iu"
                or (size and not 0 <= at.min() <= at.max() < size)):
            raise ValueError("an image lies outside the objects: the generators do not "
                             "act on these objects")
        back = np.empty_like(at)
        back[at] = np.arange(size)
        if (back[at] != np.arange(size)).any():
            raise ValueError("a generator maps two objects onto one")
        moves += [at, back]
    labels = np.arange(size)
    while True:
        prev = labels
        for move in moves:
            labels = np.minimum(labels, labels[move])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            return labels


def orbit_labels_by_codes(codes, images):
    """The orbit kernel as it was before it took index permutations, kept as
    its oracle: objects are given by ascending int codes, and each
    generator by the codes of the images of codes, which searchsorted maps
    back to indices."""
    codes = np.asarray(codes, dtype=np.int64)
    if (codes[1:] <= codes[:-1]).any():
        raise ValueError("object codes must be strictly ascending")
    steps = []
    for img in images:
        at = np.searchsorted(codes, img)
        if at.shape != codes.shape or (at.size and (
                at.max() >= codes.size or (codes[at] != img).any())):
            raise ValueError("an image code is missing: the generators do not act "
                             "on these objects")
        if at.size and np.bincount(at).max() > 1:
            raise ValueError("a generator maps two objects onto one")
        back = np.empty_like(at)
        back[at] = np.arange(at.size)
        steps += [at, back]
    labels = np.arange(codes.size)
    while True:
        prev = labels
        for step in steps:
            labels = np.minimum(labels, labels[step])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            return labels


def _memo(fn):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = fn(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def graph():
    """Session-cached graph factory; graphs are immutable, sharing is safe."""
    return _memo(build_graph)


@pytest.fixture(scope="session")
def claimed_group():
    return _memo(claimed_aut_group)


@pytest.fixture(scope="session")
def origin_stabilizer():
    return _memo(claimed_origin_stabilizer)


@pytest.fixture(scope="session")
def brute_list():
    return _memo(lambda n: enumerate_automorphisms(build_graph(n)))
