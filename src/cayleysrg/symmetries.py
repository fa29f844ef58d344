"""Explicit vertex symmetries of the graph family and the group they generate.

Four coordinate maps on Z_n x Z_n induce graph automorphisms:

    translation by (a, b):   (x, y) -> (x + a, y + b)
    unit scaling by u:       (x, y) -> (u x, u y)      for a unit u of Z_n
    coordinate swap:         (x, y) -> (y, x)
    clique rotation:         (x, y) -> (-y, x - y)

The last three fix the origin and permute the three cliques of its
neighbourhood; scalings act trivially on the cliques, the swap exchanges
the two axis cliques, and the rotation cycles all three.  Together with
the translations they generate a group of order 6 * n**2 * phi(n), which
is the group this package's analysis claims to be the full automorphism
group of the graph.

Every automorphism check in the package goes through the Cayley structure:
every named map is affine, x -> Mx + t on Z_n x Z_n.  A translation is an
automorphism of any Cayley graph, and a linear M is one exactly when
M(S) = S (Babai, Spectra of Cayley graphs, JCTB 1979).  A map given as a
2 x 2 matrix is certified on S alone, by _on_s: every image of S lies in
S and no two are equal, O(n) work.  A map given as a permutation is
certified by _certify, which reads M and t off it, checks that it is that
affine map on every vertex, and checks that M(S) = t + S on vertex
indices: O(n**2) array work per map, one map at a time, refusing the
first bad one.  Both checks need n alone, with no graph built: the
factories and claimed_aut_group's two translations go through _certify;
G_0's generating matrices go through _on_s, in AffineGroup alone.
check_graph_automorphism first refuses any graph but the one of modulus n
with its first bad row, by graph.family_defect.

The checks are sound: they never accept a map that is not an
automorphism, nor any graph but the one Babai's criterion speaks of.  The
limit is that every map that is not affine is refused, automorphism or
not.  The paper proves that the family has no such automorphism, and the
counting oracle in search.py confirms it independently for n <= 55.

The claimed group is named on that certificate, with no Schreier-Sims.
The translations form a regular normal subgroup T, so the group is the
semidirect product of T and G_0, the group of the certified linear maps,
and its order is n**2 * |G_0| (Dixon and Mortimer, Permutation Groups,
1996).  G_0's inputs are _linear_maps(n): the scalings by a generating set
of the units, the swap and the rotation, as matrices.  A linear h is fixed
by its key, h(e_2) and h(e_1), as h(x e_1 + y e_2) = x h(e_1) + y h(e_2),
so AffineGroup's constructor, the one place G_0 is certified and closed,
names it by |G_0| keys (_keys_over_s).  analyze and transitivity take
no other group type.  The public PermutationGroup, claimed_aut_group,
names its chain to from_levels off the same keys, with two transversals
built on request, and claimed_origin_stabilizer is that chain's tail;
Schreier-Sims is the tests' oracle.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsgs import PermutationGroup
from .core import (Permutation, _check_modulus, _coordinates, check_point, perm_from_pair_map,
                   units)
# build_graph is not called here; it stays a name that bench/tracing.py wraps
from .graph import (GRAPH_MAX_MODULUS, CayleyGraph, build_graph, connection_indices,
                    family_defect)

__all__ = [
    "AutomorphismError",
    "NamedAutomorphism",
    "translation",
    "unit_scaling",
    "coordinate_swap",
    "clique_rotation",
    "check_graph_automorphism",
    "AffineGroup",
    "claimed_affine_group",
    "claimed_aut_group",
    "claimed_origin_stabilizer",
    "CliqueActionLabel",
    "clique_action",
]


class AutomorphismError(ValueError):
    """A map failed to respect the graph structure; witness names the spot."""

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class NamedAutomorphism:
    """A verified graph automorphism built from a named coordinate map."""

    kind: str
    params: tuple[int, ...]
    n: int
    perm: Permutation

    def __str__(self) -> str:
        inner = ", ".join(map(str, self.params))
        return f"{self.kind}({inner}) mod {self.n}"


def _affine_stray(n: int, imgs: np.ndarray, x, y):
    """t = (tx, ty), the image of (0, 0), of each row of the stacked image
    arrays imgs, as columns, and the mask of the entries where the row is
    not x -> Mx + t, the columns of M the images of (1, 0) and (0, 1) minus
    t; x and y are the coordinates of the vertices, in index order."""
    (tx, ty), (ax, ay), (bx, by) = (np.divmod(imgs[:, [c]], n) for c in (0, n, 1))
    stray = imgs != (((ax - tx) * x + (bx - tx) * y + tx) % n * n
                     + ((ay - ty) * x + (by - ty) * y + ty) % n)
    return tx, ty, stray


def _certify(n: int, perms) -> None:
    """Raise AutomorphismError at the first of perms that is not an affine
    automorphism of the graph of modulus n, checking one map at a time.

    For each p, t is the image of (0, 0), and the columns of M are the
    images of (1, 0) and (0, 1) minus t.  A p that is not x -> Mx + t on
    every vertex is refused with the first vertex where it differs.  For an
    affine p the first row of a row-by-row sweep fails exactly when
    M(S) != S, and every later row passes when it holds, so p is refused
    with (0, w), w the least vertex of p(N(0)) symmetric-difference
    N(p(0)).  A p that is not a Permutation of degree n**2 raises
    ValueError once every p before it has passed.
    """
    size = n * n
    # int32 holds every value below, at most 3 n**2, for any n whose graph
    # can be built, and its arithmetic is about 2.5 times faster
    x, y = np.divmod(np.arange(size, dtype=np.int32), n)
    hood = connection_indices(n)
    si, sj = np.divmod(hood, n)
    for p in perms:
        if not isinstance(p, Permutation):
            raise ValueError(f"maps must be Permutation, got {type(p).__name__}")
        if p.degree != size:
            raise ValueError(f"degree {p.degree} does not match {size} vertices")
        imgs = p.images[None].astype(np.int32)
        tx, ty, stray = _affine_stray(n, imgs, x, y)
        if stray.any():
            v = int(np.argmax(stray))
            raise AutomorphismError(
                f"map is not affine on Z_{n} x Z_{n}: vertex {v} breaks x -> Mx + t",
                witness=v,
            )
        mapped = set(imgs[0, hood].tolist())
        expected = set(((si + tx[0]) % n * n + (sj + ty[0]) % n).tolist())
        if mapped != expected:
            witness = (0, min(mapped ^ expected))
            raise AutomorphismError(
                f"not an automorphism: adjacency disagrees around vertex pair {witness}",
                witness=witness,
            )


def check_graph_automorphism(g: CayleyGraph, *perms: Permutation) -> None:
    """Raise AutomorphismError unless g is the graph of modulus g.n and
    every p in perms is an affine automorphism of it.

    g is refused first, with its first row that is missing, extra or not S
    translated by its vertex; then the first p that fails, as one p at a
    time would be: an affine p with the first pair (v, w) where the image of
    the neighbourhood of v and the neighbourhood of the image of v differ,
    any other p with a vertex where it is not affine (module docstring).
    """
    bad = family_defect(g)
    if bad is not None:
        fault = ("missing" if bad == len(g.adjacency) else "extra" if bad == g.n * g.n
                 else f"not S translated by vertex {bad}")
        raise AutomorphismError(f"not the graph of modulus {g.n}: row {bad} is {fault}",
                                witness=bad)
    _certify(g.n, perms)


def _certified(n: int, maps) -> list[Permutation]:
    """The permutations the pair maps induce, each certified."""
    perms = [perm_from_pair_map(n, fn) for fn in maps]
    _certify(n, perms)
    return perms


def _named(kind: str, params: tuple[int, ...], n: int, fn) -> NamedAutomorphism:
    (perm,) = _certified(n, [fn])
    return NamedAutomorphism(kind=kind, params=params, n=n, perm=perm)


def _shift(a: int, b: int):
    return lambda x, y: (x + a, y + b)


def _matrix_map(m):
    """The pair map of the matrix m = ((a, b), (c, d)): (x, y) -> (a x + b y, c x + d y)."""
    (a, b), (c, d) = m
    return lambda x, y: (a * x + b * y, c * x + d * y)


def _scaling(u: int):
    return ((u, 0), (0, u))


_SWAP = ((0, 1), (1, 0))
_ROTATION = ((0, -1), (1, -1))  # (x, y) -> (-y, x - y)


def translation(n: int, a: int, b: int) -> NamedAutomorphism:
    """The translation (x, y) -> (x + a, y + b); the regular action of the
    vertex group on itself."""
    _check_modulus(n)
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"translation offsets must be ints, got {a!r}, {b!r}")
    a %= n
    b %= n
    return _named("translation", (a, b), n, _shift(a, b))


def unit_scaling(n: int, u: int) -> NamedAutomorphism:
    """The scaling (x, y) -> (u x, u y) for a unit u.  Non-units are refused
    since the map would collapse residues."""
    _check_modulus(n)
    if type(u) is not int:
        raise ValueError(f"scaling factor must be an int, got {u!r}")
    u %= n
    if u not in units(n):
        raise ValueError(f"{u} is not a unit mod {n}, scaling would not be a bijection")
    return _named("unit_scaling", (u,), n, _matrix_map(_scaling(u)))


def coordinate_swap(n: int) -> NamedAutomorphism:
    """The swap (x, y) -> (y, x).  Order 2; exchanges the two axis cliques."""
    return _named("coordinate_swap", (), n, _matrix_map(_SWAP))


def clique_rotation(n: int) -> NamedAutomorphism:
    """The map (x, y) -> (-y, x - y).  Order 3; cycles the three cliques of
    the origin neighbourhood (row axis to column axis to diagonal)."""
    return _named("clique_rotation", (), n, _matrix_map(_ROTATION))


def _linear_maps(n: int) -> list:
    """G_0's generating set as matrices: the scalings by _unit_generators(n),
    the swap, the rotation."""
    return [*map(_scaling, _unit_generators(n)), _SWAP, _ROTATION]


def _linear(n: int, h1: int, h2: int) -> Permutation:
    """The linear map carrying e_1 = (1, 0) to vertex h1 and e_2 = (0, 1) to h2."""
    (a1, b1), (a2, b2) = divmod(h1, n), divmod(h2, n)
    return perm_from_pair_map(n, _matrix_map(((a1, a2), (b1, b2))))


def _unit_generators(n: int) -> list[int]:
    """A greedy generating set of U(n): each unit in ascending order, kept
    unless the units kept before it generate it, seen on residues mod n.

    It is not minimal: at n = 17 and 31 it keeps 2 and 3 where 3 alone, a
    primitive root, generates U(n).  More maps make the closure of G_0's
    keys (_keys_over_s) shallower, and that pays: with one primitive root in
    place of the greedy set it took 0.23 ms against 0.12 at n = 17, 0.38
    against 0.17 at 31, 2.9 against 0.37 at 241 and 18.8 against 7.7 at 997
    (best of 5, 2 vCPUs, CPython 3.11.7)."""
    reached, kept = {1}, []
    for u in units(n):
        if u not in reached:
            kept.append(u)
            # the cosets H u, H u^2, ... of the group H reached, up to H again
            coset = reached
            while coset := {h * u % n for h in coset} - reached:
                reached |= coset
    return kept


def _s_index(n: int, v) -> np.ndarray:
    """The index of each vertex of v in connection_indices(n), -1 off S."""
    hood = connection_indices(n)
    i = np.searchsorted(hood, v).clip(max=hood.size - 1)
    return np.where(hood[i] == v, i, -1)


def _on_s(n: int, matrices) -> np.ndarray:
    """Each matrix M's permutation of S: row i lists the index in
    connection_indices(n) of M s for each s in S.  M is certified an
    automorphism by M(S) = S (Babai 1979), O(|S|) work: every image lies in
    S and no two are equal.  So M is onto S, which spans Z_n x Z_n, and
    invertible.  AutomorphismError at the first M that fails, with (0, w),
    w the least vertex of M(S) symmetric-difference S, as _certify refuses
    M's permutation.  ValueError, before any image is taken, at an input
    that is not a 2 x 2 matrix of ints: a pair map such as a translation
    may move vertex 0, and only a matrix is sure to fix it."""
    for mat in matrices:
        if not (isinstance(mat, (tuple, list, np.ndarray)) and np.shape(mat) == (2, 2)
                and np.asarray(mat).dtype.kind in "iu"):
            raise ValueError(f"a generator of G_0 must be a 2 x 2 matrix of ints, which "
                             f"fixes vertex 0, so none moves vertex 0; got {mat!r}")
    hood = connection_indices(n)
    x, y = np.divmod(hood, n)
    m = np.asarray(matrices, dtype=np.int64).reshape(-1, 2, 2) % n
    images = ((m[:, 0, :1] * x + m[:, 0, 1:] * y) % n * n
              + (m[:, 1, :1] * x + m[:, 1, 1:] * y) % n)
    steps = _s_index(n, images)
    bad = np.flatnonzero((np.sort(steps, axis=1) != np.arange(hood.size)).any(axis=1))
    if bad.size:
        witness = (0, min(set(images[bad[0]].tolist()) ^ set(hood.tolist())))
        raise AutomorphismError(
            f"not an automorphism: adjacency disagrees around vertex pair {witness}",
            witness=witness,
        )
    return steps


def _keys_over_s(n: int, steps) -> np.ndarray:
    """The group that certified linear maps generate, by its keys: row h
    holds the indices in connection_indices(n) of h(e_2) and h(e_1).  steps
    holds each map's permutation of S, as _on_s gives it.  The keys are
    closed from the identity's, g taking h's key to its images, the key of
    g o h, and a key is kept only when it is new.  ValueError if a step
    holds -1, a map carrying S off S."""
    k = connection_indices(n).size
    steps = np.asarray(steps, dtype=np.int64).reshape(-1, k)
    if (steps < 0).any():
        raise ValueError("a generator of G_0 carries S off S: the generators do "
                         "not act on the arcs at 0")
    # codes are below k^2: last keeps one product per code, seen old codes
    seen, last = np.zeros(k * k, dtype=bool), np.empty(k * k, dtype=np.int32)
    keys = [_s_index(n, [[1, n]])]
    seen[keys[0][0, 0] * k + keys[0][0, 1]] = True
    while (new := keys[-1]).size:
        images = steps[:, new]
        codes = (images[..., 0] * k + images[..., 1]).ravel()
        order = np.arange(codes.size, dtype=np.int32)
        last[codes] = order
        fresh = np.flatnonzero((last[codes] == order) & ~seen[codes])
        seen[codes[fresh]] = True
        keys.append(images.reshape(-1, 2)[fresh])
    return np.concatenate(keys).astype(np.int32)


class AffineGroup:
    """The group T x| G_0 on Z_n x Z_n in affine form: every x -> Mx + t,
    t any vertex and M in G_0, the group the matrices generate.

    matrices are 2 x 2, ((a, b), (c, d)) for (x, y) -> (a x + b y, c x + d y),
    each certified on S alone by _on_s, and G_0 is held as its read-only
    keys, closed once by _keys_over_s.  So the order is n**2 |G_0| (Dixon
    and Mortimer 1996), and no permutation of degree n**2 is built.  A
    modulus outside 4..graph.GRAPH_MAX_MODULUS is refused with ValueError
    before any matrix is read: the closure's two arrays over the k**2
    possible keys would take 4.5 GB at n = 10007, and the walk's n**2.
    """

    def __init__(self, n: int, matrices) -> None:
        _check_modulus(n)
        if n > GRAPH_MAX_MODULUS:
            raise ValueError(f"modulus {n} exceeds the group side's cap {GRAPH_MAX_MODULUS}")
        self.matrices = list(matrices)
        self.keys = _keys_over_s(n, _on_s(n, self.matrices))
        self.keys.setflags(write=False)
        self.n = n

    @property
    def degree(self) -> int:
        return self.n * self.n

    def order(self) -> int:
        return self.degree * len(self.keys)

    def stabilizer_order(self) -> int:
        """|G_0|, the order of the stabiliser of vertex 0: the key count."""
        return len(self.keys)

    def contains(self, p: Permutation) -> bool:
        """Whether p is in the group: contains_all of p alone."""
        return self.contains_all([p])

    def contains_all(self, perms) -> bool:
        """Whether every p of perms is in the group: p is affine, x -> Mx + t
        on every vertex, by _certify's check, and M's key, its images of e_2
        and e_1, p(e_2) - t and p(e_1) - t, is one of the keys.  The maps are
        checked as one stack of image arrays."""
        perms = list(perms)
        for p in perms:
            if p.degree != self.degree:
                raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        if not perms:
            return True
        n = self.n
        imgs = np.stack([p.images for p in perms])
        tx, ty, stray = _affine_stray(n, imgs, *_coordinates(n))
        if stray.any():
            return False
        ex, ey = np.divmod(imgs[:, [1, n]], n)
        keys = _s_index(n, (ex - tx) % n * n + (ey - ty) % n)
        return bool((self.keys == keys[:, None]).all(axis=2).any(axis=1).all())

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    @cached_property
    def columns(self):
        """[h(e_1), h(e_2)] as int32 coordinates, one element h per column."""
        keys = np.array([self.keys[:, 1], self.keys[:, 0]])
        return np.array(np.divmod(connection_indices(self.n).astype(np.int32)[keys],
                                  self.n)).swapaxes(0, 1)

    @cached_property
    def vertex_orbits(self):
        """G_0's orbits on the vertices but 0, from one walk: label[v] for v
        in S, the least member of v's orbit; the arc orbits and the
        distance-2 orbits, each as its least pair (0, v) and its size under
        the group, in order of v; the elements of G_0 fixing each arc
        orbit's least member, as indices into keys.  G_0 fixes S."""
        n, count = self.n, self.degree
        c1, c2 = self.columns
        label = np.zeros(count, dtype=np.int32)
        free = np.ones(count, dtype=bool)
        free[0] = False
        # the least vertex no orbit holds yet starts the next orbit, searched
        # from the last one on; once none is free the search stays at w
        arcs, far, fixers, w = [], [], [], 0
        while free[w := w + int(free[w:].argmax())]:
            x, y = divmod(w, n)
            xy = (x * c1 + y * c2) % n
            images = (xy[0] * n + xy[1]).astype(np.intp)
            free[images] = False
            fixing = np.flatnonzero(images == w)
            size = count * len(self.keys) // fixing.size
            if x == 0 or y == 0 or x == y:
                label[images] = w
                arcs.append(((0, w), size))
                fixers.append(fixing)
            else:
                far.append(((0, w), size))
        return label, arcs, far, fixers


def claimed_affine_group(n: int) -> AffineGroup:
    """The claimed group in affine form: T and G_0's generating set,
    _linear_maps(n)."""
    return AffineGroup(n, _linear_maps(n))


class _OnRequest(Mapping):
    """A chain level's transversal that stores no permutation: each of points
    maps to make(point), built when asked for.  Its members are the points
    it holds that core.check_point accepts for degree, so never a bool."""

    def __init__(self, degree: int, points, make) -> None:
        self._degree, self._points, self._make = degree, points, make

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __contains__(self, v) -> bool:
        try:
            return check_point(v, self._degree) in self._points
        except ValueError:
            return False

    def __getitem__(self, v: int) -> Permutation:
        if v not in self:
            raise KeyError(v)
        return self._make(operator.index(v))


def claimed_aut_group(n: int) -> PermutationGroup:
    """The automorphism group predicted for the graph of modulus n, as a
    PermutationGroup of degree n**2.

    Generated by the two axis translations, certified by the affine check,
    and G_0's generating set, _linear_maps(n), certified by M(S) = S
    (Babai 1979).  Its order works out to 6 * n**2 * phi(n); whether it is
    the full automorphism group is exactly what the oracle in search.py
    cross-checks for n <= 55, by counting Aut from the graph alone.

    The translations form a regular normal subgroup T, so G is the
    semidirect product of T and G_0, the stabiliser of vertex 0, and
    |G| = n**2 * |G_0| (Dixon and Mortimer, Permutation Groups, 1996).  So
    the chain is a first level at vertex 0, whose transversal, the
    translations back to 0, is built on request, then G_0's levels, read
    off claimed_affine_group(n)'s keys: at e_2 = 1, generated by G_0's
    generating matrices as permutations, its point x mapped on request to
    the inverse of an element h with h(e_2) = x; at e_1 = n, generated by
    the other elements that fix e_2.  One from_levels call names it all,
    so each generator is sifted once, in generator order.
    """
    form = claimed_affine_group(n)
    perms = [perm_from_pair_map(n, _matrix_map(m)) for m in form.matrices]
    gens = [*_certified(n, [_shift(1, 0), _shift(0, 1)]), *perms]
    # v -> the translation by -v, which mod n is the shift by (-(v // n), -v)
    back = _OnRequest(n * n, range(n * n), lambda v: perm_from_pair_map(n, _shift(-(v // n), -v)))
    rows = connection_indices(n)[form.keys[:, ::-1]].tolist()
    # each image of e_2 keyed to the image of e_1 in its first key; key 0,
    # the identity's, is the first that fixes e_2
    first = {h2: h1 for h1, h2 in reversed(rows)}
    at_e2 = _OnRequest(n * n, first, lambda x: _linear(n, first[x], x).inverse())
    flips = [_linear(n, h1, h2) for h1, h2 in rows[1:] if h2 == 1]
    return PermutationGroup.from_levels(gens, [(0, gens, back), (1, perms, at_e2), (n, flips)],
                                        n * n * form.stabilizer_order())


def claimed_origin_stabilizer(n: int) -> PermutationGroup:
    """G_0, the subgroup fixing vertex (0, 0): claimed_aut_group(n)'s own
    tail, its chain past the first level."""
    return claimed_aut_group(n).point_stabilizer(0)


@dataclass(frozen=True)
class CliqueActionLabel:
    """How an origin-fixing automorphism permutes the three cliques.

    mapping[i] = j means clique i is carried onto clique j, with cliques
    numbered 0 (row axis), 1 (column axis), 2 (diagonal).
    """

    mapping: tuple[int, int, int]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != [0, 1, 2]:
            raise ValueError(f"mapping {self.mapping} is not a permutation of the cliques")

    @property
    def is_identity(self) -> bool:
        return self.mapping == (0, 1, 2)

    def compose(self, other: CliqueActionLabel) -> CliqueActionLabel:
        """Label of the composite map, other acting first."""
        return CliqueActionLabel(tuple(self.mapping[j] for j in other.mapping))


def clique_action(n: int, p: Permutation) -> CliqueActionLabel:
    """Read off how p permutes the three cliques around the origin.

    p must fix vertex (0, 0) and carry each clique onto some clique; an
    origin-fixing automorphism always does, anything else is refused with
    the offending vertex as witness.  The cliques are read off S, as
    connection_indices(n) lists it: i*n, i and the rest, i*(n + 1), for
    1 <= i < n, so no graph is built.
    """
    if not isinstance(p, Permutation):
        raise ValueError(f"map must be a Permutation, got {type(p).__name__}")
    if p.degree != n * n:
        raise ValueError(f"degree {p.degree} does not match {n * n} vertices")
    if p.apply(0) != 0:
        raise AutomorphismError("map does not fix the origin vertex", witness=0)
    hood = connection_indices(n)
    row, col = hood % n == 0, hood < n
    parts = [hood[row], hood[col], hood[~(row | col)]]
    targets = [set(part.tolist()) for part in parts]
    mapping = []
    for idx, part in enumerate(parts):
        image = set(p.images[part].tolist())
        for jdx, target in enumerate(targets):
            if image == target:
                mapping.append(jdx)
                break
        else:
            stray = min(image.difference(*targets) or image)
            raise AutomorphismError(
                f"clique {idx} is not carried onto a clique", witness=stray
            )
    return CliqueActionLabel(tuple(mapping))
