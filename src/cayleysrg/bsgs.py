"""Deterministic base and strong generating sets for permutation groups.

Groups are handed in as generator lists.  PermutationGroup.from_generators
compiles one into a base and strong generating set, by the sift-and-insert
form of Schreier-Sims (Seress, *Permutation Group Algorithms*, 2003,
section 4.2).  Every input generator and every Schreier generator is
sifted through the partial chain in the same way, one at a time.  A
residue that survives joins the levels it passes and extends the base
when it fixes every base point; the levels it joined are then checked
again from the deepest up.  An input that sifts to the identity is already
in the group and never becomes a strong generator.  No randomisation
anywhere, so a fixed generator list always yields the same base, the same
transversals and the same order.  A level keeps one side of its
transversal: for each point x of its base point's orbit, an element
carrying x back onto the base point, which is what sifting reads.

PermutationGroup.from_levels skips Schreier-Sims where theory knows more:
it takes the chain named level by level, each base point with its strong
generators and optionally its transversal, any Mapping (one that builds
its elements on request stores nothing), and the order.  The levels past
the first form a complete chain of the first base point's stabiliser, so
point_stabilizer reuses them as they are; it serves that point only.  Each
constructor sifts each of its own inputs once, as a self-check.

Which stage reads what: analyze, verify and transitivity read none of this
module; they run on symmetries.AffineGroup, which names G_0 by its keys and
builds no permutation of degree n**2.  PermutationGroup serves the public
API, claimed_aut_group, named to from_levels off that same form, and
claimed_origin_stabilizer, its point_stabilizer at 0, and the tests, where
from_generators is every chain's oracle.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .core import Permutation, check_point, orbits, transversal

__all__ = ["PermutationGroup"]


def _distinct(perms) -> list[Permutation]:
    """perms without repeats, first occurrence kept.  Keyed on the image
    bytes, so unlike a hash key a collision cannot drop a generator."""
    seen: set[bytes] = set()
    out: list[Permutation] = []
    for p in perms:
        key = p.images.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _checked(generators) -> tuple[list[Permutation], int]:
    """The generators as a list, and their common degree."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    for g in gens:
        # gens[0] is the first one checked, so its degree is read after its type
        if not isinstance(g, Permutation):
            raise ValueError(f"generators must be Permutation, got {type(g).__name__}")
        if g.degree != gens[0].degree:
            raise ValueError(f"generator degree {g.degree} != {gens[0].degree}")
    return gens, gens[0].degree


class _Level:
    """One stabiliser level: a base point, the strong generators that joined
    it, which fix all earlier base points, and transversal_inv, mapping each
    point of the base point's orbit to an element carrying it back onto the
    base point; a dict unless the chain was named with another Mapping."""

    __slots__ = ("point", "gens", "transversal_inv")

    def __init__(self, point: int, gens=(), transversal_inv=None) -> None:
        self.point = point
        self.gens: list[Permutation] = list(gens)
        self.transversal_inv: Mapping[int, Permutation] = (
            {} if transversal_inv is None else transversal_inv)

    def recompute_orbit(self, degree: int) -> None:
        self.transversal_inv = transversal(self.gens, self.point, degree)

    def schreier_generators(self):
        """u_y^-1 * s * u_x for every orbit point x and strong generator s,
        x first and s second, where y = s(x) and u_x is the inverse of
        transversal_inv[x]; each fixes the base point."""
        for x, u_inv in self.transversal_inv.items():
            u = u_inv.inverse()
            for s in self.gens:
                yield self.transversal_inv[s.apply(x)] * s * u


class PermutationGroup:
    """A permutation group with a base and strong generating set.

    Build with from_generators or from_levels, which keep the input list
    verbatim (inputs already in the group are not strong generators).  A
    group from point_stabilizer is the chain's tail, generated by the strong
    generators of its first level.  Membership, order and the stabiliser of
    the first base point all run off the chain; orbit_of_tuple and elements
    close over the generators.
    """

    def __init__(self, generators: list[Permutation], degree: int,
                 levels: list[_Level]) -> None:
        self._generators = list(generators)
        self._degree = degree
        self._levels = levels

    @classmethod
    def from_generators(cls, generators) -> PermutationGroup:
        """Compile a base and strong generating set from the generators.

        Each input is sifted through the partial chain like a Schreier
        residue, so one that sifts to the identity, such as a repeat, an
        identity or a power of an earlier input, is dropped.  The list must
        be nonempty so that the degree is known; passing only identity
        permutations yields the trivial group.  Base points are chosen as
        the smallest point moved by whichever residue forced the extension,
        which keeps rebuilds reproducible.  Every input is checked for
        membership in the finished chain.
        """
        gens, degree = _checked(generators)
        levels: list[_Level] = []
        group = cls(gens, degree, levels)

        def sift_in(p: Permutation, lo: int) -> int | None:
            """Sift p from level lo; a residue that stops at level j joins
            levels lo..j.  Returns j, or None when p sifts to the identity."""
            residue, j = group._strip(p, start=lo)
            if residue.is_identity():
                return None
            if j == len(levels):
                levels.append(_Level(residue.min_moved_point()))
            for k in range(lo, j + 1):
                levels[k].gens.append(residue)
                levels[k].recompute_orbit(degree)
            return j

        for g in gens:
            sift_in(g, 0)
        # Levels past i form a complete chain for the group their strong
        # generators generate; level i is complete once every Schreier
        # generator sifts to the identity through them.  The first one that
        # does not is inserted, and the levels it joined are checked again.
        i = len(levels) - 1
        while i >= 0:
            joined = (j for h in levels[i].schreier_generators()
                      if (j := sift_in(h, i + 1)) is not None)
            i = next(joined, i - 1)
        return group._self_checked(gens)

    @classmethod
    def from_levels(cls, generators, levels, order: int) -> PermutationGroup:
        """The group the generators generate, from its chain named level by
        level, with no Schreier-Sims: levels lists a base point, the strong
        generators of its level, none moving an earlier base point, else
        ValueError, and optionally a transversal, any Mapping from each
        point x of the base point's orbit to an element carrying x back onto
        it; a level with none builds it.  That the chain is complete is the
        caller's claim, resting on theory; its order must be order, and every
        input must sift to the identity, as in from_generators."""
        gens, degree = _checked(generators)
        chain: list[_Level] = []
        for b, strong, *named in levels:
            b = check_point(b, degree)
            moved = [lev.point for lev in chain for g in strong if g.apply(lev.point) != lev.point]
            if moved:
                raise ValueError(f"a strong generator at base point {b} moves the earlier "
                                 f"base point {moved[0]}")
            chain.append(_Level(b, strong, named[0] if named else transversal(strong, b, degree)))
        group = cls(gens, degree, chain)
        if group.order() != order:
            raise RuntimeError("chain construction failed its order self-check")
        return group._self_checked(gens)

    def _self_checked(self, inputs: list[Permutation]) -> PermutationGroup:
        if not all(map(self.contains, inputs)):
            raise RuntimeError("chain construction failed its membership self-check")
        return self

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> list[Permutation]:
        return list(self._generators)

    @property
    def base(self) -> list[int]:
        return [lev.point for lev in self._levels]

    @property
    def strong_generators(self) -> list[Permutation]:
        return _distinct(g for lev in self._levels for g in lev.gens)

    def stabilizer_generators(self, v: int) -> list[Permutation]:
        """Generators of the subgroup fixing the first base point v: the
        strong generators of the next level, empty when that subgroup is
        trivial.  A chain with no levels fixes every point; any other v is
        refused.
        """
        v = check_point(v, self._degree)
        if not self._levels:
            return []
        if self._levels[0].point != v:
            raise ValueError(f"point {v} is not the first base point {self._levels[0].point}")
        return list(self._levels[1].gens) if len(self._levels) > 1 else []

    def transversal_sizes(self) -> list[int]:
        return [len(lev.transversal_inv) for lev in self._levels]

    def _strip(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Sift p through levels start.. and return (residue, stop level).

        stop == len(levels) means p reduced against every level; membership
        then hinges on the residue being the identity.  A level whose base
        point the element already fixes is passed with no lookup and no
        product: every transversal maps its base point to the identity.
        """
        g = p
        for idx in range(start, len(self._levels)):
            lev = self._levels[idx]
            target = g.apply(lev.point)
            if target == lev.point:
                continue
            if target not in lev.transversal_inv:
                return g, idx
            g = lev.transversal_inv[target] * g
        return g, len(self._levels)

    def order(self) -> int:
        return math.prod(self.transversal_sizes())

    def contains(self, p: Permutation) -> bool:
        if p.degree != self._degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self._degree}")
        residue, _ = self._strip(p)
        return residue.is_identity()

    def orbit_of_point(self, v: int) -> set[int]:
        """Orbit of a point under the group, by closure under the generators."""
        return {x for (x,) in self.orbit_of_tuple((v,))}

    def orbit_of_tuple(self, t: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Orbit of a short tuple under the componentwise action.

        Closure runs over the generators only; the group itself is never
        enumerated, so this stays cheap even when the group is large.
        """
        if not 1 <= len(t) <= 3:
            raise ValueError(f"tuple length must be 1, 2 or 3, got {len(t)}")
        t = tuple(check_point(v, self._degree) for v in t)
        gens = [g.images.tolist() for g in self._generators if not g.is_identity()]
        return set(orbits(gens, [t])[0])

    def point_stabilizer(self, v: int) -> PermutationGroup:
        """The subgroup fixing the first base point v: the chain's own tail,
        the levels past the first with the next level's strong generators
        as generators, so nothing is compiled.  Like stabilizer_generators
        it refuses any other point, unless the chain has no levels."""
        gens = self.stabilizer_generators(v)
        return PermutationGroup(gens or [Permutation.identity(self._degree)],
                                self._degree, self._levels[1:])

    def elements(self, max_size: int = 1_000_000) -> list[Permutation]:
        """All elements, as the orbit of the identity's image tuple under
        the generators.  Guarded by max_size since the groups this package
        builds grow quadratically with n."""
        total = self.order()
        if total > max_size:
            raise ValueError(f"group order {total} exceeds max_size {max_size}")
        gens = [g.images.tolist() for g in self._generators if not g.is_identity()]
        closure = orbits(gens, [tuple(range(self._degree))])[0]
        if len(closure) != total:
            raise RuntimeError(f"closure found {len(closure)} elements, chain says {total}")
        return [Permutation(images) for images in closure]

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self._degree}, "
                f"generators={len(self._generators)}, order={self.order()})")
