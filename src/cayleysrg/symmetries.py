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
M(S) = S (Babai, Spectra of Cayley graphs, JCTB 1979).  So the check
reads M and t off the permutation, checks that it is that affine map on
every vertex, and checks that M(S) = t + S on vertex indices: O(n**2)
array work per map.  It runs on a stack of maps, a block of image arrays
at a time, and refuses the first bad map as checking one at a time would.
The check needs n alone: the factories check every map they build, the
claimed groups their generators in two stacks, the translations and
G_0's, and transitivity its chain's strong generators, with no graph built.
check_graph_automorphism first refuses any graph but the one of modulus n
with its first bad row, by graph.family_defect.

The check is sound: it never accepts a map that is not an automorphism,
nor any graph but the one Babai's criterion speaks of.  Its limit is that
it refuses every map that is not affine, automorphism or not.  The paper
proves that the family has no such automorphism, and the counting oracle
in search.py confirms it independently for n <= 31.

The claimed group is assembled on that certificate, with no
Schreier-Sims.  The translations form a regular normal subgroup T, so the
group is the semidirect product of T and G_0, the group of the certified
linear maps, and its order is n**2 * |G_0| (Dixon and Mortimer,
Permutation Groups, 1996).  claimed_origin_stabilizer builds G_0 once,
reading its chain off the orbit of a base at degree n**2, and
claimed_aut_group puts the translations in front of it.  Schreier-Sims on
the same generators is the tests' oracle for both.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .bsgs import PermutationGroup
from .core import Permutation, _block_rows, check_point, perm_from_pair_map, units
from .graph import (CayleyGraph, build_graph, connection_indices, family_defect,
                    zero_neighborhood_cliques)

__all__ = [
    "AutomorphismError",
    "NamedAutomorphism",
    "translation",
    "unit_scaling",
    "coordinate_swap",
    "clique_rotation",
    "check_graph_automorphism",
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


def _certify(n: int, perms) -> None:
    """Raise AutomorphismError at the first of perms that is not an affine
    automorphism of the graph of modulus n.  The maps are checked as the
    rows of stacked image arrays, a block of core._BLOCK_ENTRIES entries at
    a time.

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
    perms = list(perms)
    fit = next((i for i, p in enumerate(perms)
                if not isinstance(p, Permutation) or p.degree != size), len(perms))
    # int32 holds every value below, at most 3 n**2, for any n whose graph
    # can be built, and its arithmetic is about 2.5 times faster
    x, y = np.divmod(np.arange(size, dtype=np.int32), n)
    hood = connection_indices(n)
    in_s = np.zeros(size, dtype=bool)
    in_s[hood] = True
    step = _block_rows(size)
    for start in range(0, fit, step):
        imgs = np.stack([p.images for p in perms[start:min(start + step, fit)]],
                        dtype=np.int32)
        (tx, ty), (ax, ay), (bx, by) = (np.divmod(imgs[:, [c]], n) for c in (0, n, 1))
        stray = imgs != (((ax - tx) * x + (bx - tx) * y + tx) % n * n
                         + ((ay - ty) * x + (by - ty) * y + ty) % n)
        # p(S) and t + S have |S| members each, so they are equal when
        # p(s) - t lies in S for every s in S
        mx, my = np.divmod(imgs[:, hood], n)
        off_s = ~in_s[(mx - tx) % n * n + (my - ty) % n]
        bad = np.flatnonzero(stray.any(axis=1) | off_s.any(axis=1))
        if not bad.size:
            continue
        r = bad[0]
        if stray[r].any():
            v = int(np.argmax(stray[r]))
            raise AutomorphismError(
                f"map is not affine on Z_{n} x Z_{n}: vertex {v} breaks x -> Mx + t",
                witness=v,
            )
        si, sj = np.divmod(hood, n)
        mapped = set(imgs[r, hood].tolist())
        expected = set(((si + tx[r]) % n * n + (sj + ty[r]) % n).tolist())
        witness = (0, min(mapped ^ expected))
        raise AutomorphismError(
            f"not an automorphism: adjacency disagrees around vertex pair {witness}",
            witness=witness,
        )
    if fit < len(perms):
        bad = perms[fit]
        raise ValueError(f"degree {bad.degree} does not match {size} vertices"
                         if isinstance(bad, Permutation) else
                         f"maps must be Permutation, got {type(bad).__name__}")


def check_graph_automorphism(g: CayleyGraph, *perms: Permutation) -> None:
    """Raise AutomorphismError unless g is the graph of modulus g.n and
    every p in perms is an affine automorphism of it.

    g is refused first, with its first row that is not S translated by its
    vertex; then the first p that fails, as one p at a time would be: an
    affine p with the first pair (v, w) where the image of the neighbourhood
    of v and the neighbourhood of the image of v differ, any other p with a
    vertex where it is not affine (see the module docstring).
    """
    bad = family_defect(g)
    if bad is not None:
        raise AutomorphismError(f"not the graph of modulus {g.n}: row {bad} is not S "
                                f"translated by vertex {bad}", witness=bad)
    _certify(g.n, perms)


def _certified(n: int, maps) -> list[Permutation]:
    """The permutations the pair maps induce, certified as one stack."""
    perms = [perm_from_pair_map(n, fn) for fn in maps]
    _certify(n, perms)
    return perms


def _named(kind: str, params: tuple[int, ...], n: int, fn) -> NamedAutomorphism:
    (perm,) = _certified(n, [fn])
    return NamedAutomorphism(kind=kind, params=params, n=n, perm=perm)


def _shift(a: int, b: int):
    return lambda x, y: (x + a, y + b)


def _scaling(u: int):
    return lambda x, y: (u * x, u * y)


def _swap(x, y):
    return y, x


def _rotation(x, y):
    return -y, x - y


def translation(n: int, a: int, b: int) -> NamedAutomorphism:
    """The translation (x, y) -> (x + a, y + b); the regular action of the
    vertex group on itself."""
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"translation offsets must be ints, got {a!r}, {b!r}")
    a %= n
    b %= n
    return _named("translation", (a, b), n, _shift(a, b))


def unit_scaling(n: int, u: int) -> NamedAutomorphism:
    """The scaling (x, y) -> (u x, u y) for a unit u.  Non-units are refused
    since the map would collapse residues."""
    if type(u) is not int:
        raise ValueError(f"scaling factor must be an int, got {u!r}")
    u %= n
    if u not in units(n):
        raise ValueError(f"{u} is not a unit mod {n}, scaling would not be a bijection")
    return _named("unit_scaling", (u,), n, _scaling(u))


def coordinate_swap(n: int) -> NamedAutomorphism:
    """The swap (x, y) -> (y, x).  Order 2; exchanges the two axis cliques."""
    return _named("coordinate_swap", (), n, _swap)


def clique_rotation(n: int) -> NamedAutomorphism:
    """The map (x, y) -> (-y, x - y).  Order 3; cycles the three cliques of
    the origin neighbourhood (row axis to column axis to diagonal)."""
    return _named("clique_rotation", (), n, _rotation)


def _linear_maps(n: int) -> list:
    """Every unit scaling, the swap and the rotation, in that order."""
    return [*map(_scaling, units(n)), _swap, _rotation]


class _Translations(Mapping):
    """Vertex v -> the translation by -v, which carries v back onto vertex 0,
    built on request in O(n**2).

    It is the first-level transversal of the claimed group at vertex 0, in
    the one-sided form every chain level keeps, and it stores none of the
    n**2 permutations of degree n**2.
    """

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n * self._n

    def __iter__(self):
        return iter(range(self._n * self._n))

    def __contains__(self, v) -> bool:
        """Any integer v but a bool, numpy's included, in 0 <= v < n**2,
        the points core.check_point accepts."""
        try:
            check_point(v, self._n * self._n)
        except ValueError:
            return False
        return True

    def __getitem__(self, v: int) -> Permutation:
        if v not in self:
            raise KeyError(v)
        a, b = divmod(operator.index(v), self._n)
        return perm_from_pair_map(self._n, _shift(-a, -b))


def claimed_aut_group(n: int) -> PermutationGroup:
    """The automorphism group predicted for the graph of modulus n.

    Generated by the two axis translations, all unit scalings, the swap and
    the rotation, every one certified an automorphism by the affine check
    (M(S) = S for the linear ones; Babai 1979).  Its order works out to
    6 * n**2 * phi(n); whether it is the full automorphism group is exactly
    what the oracle in search.py cross-checks for n <= 31, by counting Aut
    from the graph alone.

    The translations form a regular normal subgroup T, so G is the
    semidirect product of T and G_0, the stabiliser of vertex 0, and
    |G| = n**2 * |G_0| (Dixon and Mortimer, Permutation Groups, 1996).  So
    the chain is the two translations in front of claimed_origin_stabilizer:
    a first level at vertex 0 whose transversal, the translations back to
    0, is built on request, then G_0's levels as they are.  Only the two
    translations are sifted here; G_0 checked its own inputs.
    """
    shifts = _certified(n, [_shift(1, 0), _shift(0, 1)])
    return PermutationGroup.assemble(shifts, 0, _Translations(n), claimed_origin_stabilizer(n))


def claimed_origin_stabilizer(n: int) -> PermutationGroup:
    """G_0, the subgroup fixing vertex (0, 0): all unit scalings, the swap
    and the rotation, certified as one stack, so each is linear once it
    fixes vertex 0.  A linear map is fixed by its images of e_2 = (0, 1)
    and e_1 = (1, 0), the vertices 1 and n, so its chain is read off their
    orbit with no Schreier-Sims."""
    perms = _certified(n, _linear_maps(n))
    if any(p.apply(0) != 0 for p in perms):
        raise RuntimeError("a generator of G_0 moves vertex 0")
    return PermutationGroup.from_base_images(perms, [1, n])


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
    the offending vertex as witness.
    """
    if not isinstance(p, Permutation):
        raise ValueError(f"map must be a Permutation, got {type(p).__name__}")
    if p.degree != n * n:
        raise ValueError(f"degree {p.degree} does not match {n * n} vertices")
    g = build_graph(n)
    if p.apply(0) != 0:
        raise AutomorphismError("map does not fix the origin vertex", witness=0)
    parts = zero_neighborhood_cliques(g).as_tuple()
    imgs = p.images.tolist()
    mapping = []
    for idx, part in enumerate(parts):
        image = {imgs[v] for v in part}
        for jdx, target in enumerate(parts):
            if image == target:
                mapping.append(jdx)
                break
        else:
            stray = min(image.difference(*[set(t) for t in parts]) or image)
            raise AutomorphismError(
                f"clique {idx} is not carried onto a clique", witness=stray
            )
    return CliqueActionLabel(tuple(mapping))
