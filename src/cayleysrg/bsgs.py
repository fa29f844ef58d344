"""Deterministic Schreier-Sims engine for permutation groups.

Groups are handed in as generator lists and compiled once into a base and
strong generating set, by the sift-and-insert form of Schreier-Sims
(Seress, *Permutation Group Algorithms*, 2003, section 4.2).  Every input
generator and every Schreier generator is sifted through the partial chain
in the same way.  A residue that survives joins the levels it passes and
extends the base when it fixes every base point; the levels it joined are
then checked again from the deepest up.  An input that sifts to the
identity is already in the group and never becomes a strong generator.
No randomisation anywhere, so a fixed generator list always yields the
same base, the same transversals and the same order.  A level keeps one
side of its transversal: for each point x of its base point's orbit, an
element carrying x back onto the base point, which is what sifting reads.

A chain can also be assembled instead of compiled, when theory already
gives the orbit of the first base point: PermutationGroup.assemble takes
that level's transversal, as any Mapping (one that builds its elements on
request stores nothing), and a chain of the point stabiliser compiled on
fewer points, lifts that chain's strong generators once and builds each
lifted level's transversal as a compiled level does.  Either way the
levels past the first form a complete chain of the first base point's
stabiliser, so point_stabilizer reuses them as they are; it serves that
point only.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from functools import cache

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
    degree = gens[0].degree
    for g in gens:
        if not isinstance(g, Permutation):
            raise ValueError(f"generators must be Permutation, got {type(g).__name__}")
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    return gens, degree


class _Level:
    """One stabiliser level: a base point, the strong generators that joined
    it, which fix all earlier base points, and transversal_inv, mapping each
    point of the base point's orbit to an element carrying it back onto the
    base point; a dict unless the chain was assembled with another Mapping."""

    __slots__ = ("point", "gens", "transversal_inv")

    def __init__(self, point: int, gens=(), transversal_inv=None) -> None:
        self.point = point
        self.gens: list[Permutation] = list(gens)
        self.transversal_inv: Mapping[int, Permutation] = (
            {} if transversal_inv is None else transversal_inv)

    def recompute_orbit(self, degree: int) -> None:
        self.transversal_inv = transversal(self.gens, self.point, degree)


class PermutationGroup:
    """A permutation group with a base and strong generating set.

    Build with from_generators or assemble, which keep the input generator
    list verbatim (inputs already in the group are not strong generators).
    A group from point_stabilizer is the chain's tail, generated by the
    strong generators of its first level.  Membership, order and the
    stabiliser of the first base point all run off the chain;
    orbit_of_tuple and elements close over the generators.
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
        # generator sifts to the identity through them.
        i = len(levels) - 1
        while i >= 0:
            lev = levels[i]
            # u_y^-1 * s * u_x, y = s(x): each u_x is inverted once per point x
            schreier = (lev.transversal_inv[s.apply(x)] * s * u
                        for x, u_inv in lev.transversal_inv.items()
                        for u in (u_inv.inverse(),) for s in lev.gens)
            for h in schreier:
                j = sift_in(h, i + 1)
                if j is not None:
                    i = j
                    break
            else:
                i -= 1
        return group._self_checked()

    @classmethod
    def assemble(cls, generators, point: int,
                 transversal_inv: Mapping[int, Permutation],
                 stabilizer: PermutationGroup,
                 lift: Callable[[Permutation], Permutation],
                 points: Sequence[int]) -> PermutationGroup:
        """The group the generators generate, from its first level and a
        chain of the stabiliser of point compiled on fewer points, with no
        Schreier-Sims at the full degree.

        transversal_inv maps each point x of the orbit of point to an
        element carrying x back onto point; it may be any Mapping, for
        example one that builds its elements on request.  stabilizer is a
        chain of a faithful copy of the stabiliser, on points that stand
        for points of the full degree, so that lift(h) maps the point x
        stands for onto the one h(x) stands for.  lift is applied to the
        strong generators of stabilizer only, each distinct one once, and
        points[b] is the point that its base point b stands for.  Each
        lifted level then builds its transversal from its base point and
        its lifted generators, as compiled levels do.  The first level is
        generated by the inputs that move point and the lifted first-level
        generators of stabilizer.

        That the orbit and the stabiliser are right is the caller's claim,
        resting on theory; the chain is then complete.  The self-check of
        from_generators runs here too: every input must sift to the
        identity.
        """
        gens, degree = _checked(generators)
        up = cache(lift)
        tail = [_Level(int(points[lev.point]), map(up, lev.gens))
                for lev in stabilizer._levels]
        for lev in tail:
            lev.recompute_orbit(degree)
        moving = [g for g in gens if g.apply(point) != point]
        first = _Level(point, moving + (tail[0].gens if tail else []), transversal_inv)
        return cls(gens, degree, [first, *tail])._self_checked()

    def _self_checked(self) -> PermutationGroup:
        for g in self._generators:
            if not self.contains(g):
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

    def transversal_inverse(self, x: int) -> Permutation:
        """An element carrying x onto the first base point: the first
        level's transversal element at x, built on request when the chain
        was assembled that way."""
        x = check_point(x, self._degree)
        if not self._levels or x not in self._levels[0].transversal_inv:
            raise ValueError(f"point {x} is not in the orbit of the first base point")
        return self._levels[0].transversal_inv[x]

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
