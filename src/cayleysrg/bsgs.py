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
same base, the same transversals and the same order.
"""

from __future__ import annotations

from .core import Permutation, orbits, transversal

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


class _Level:
    """One stabiliser level: a base point, the strong generators that joined
    it, which fix all earlier base points, and the orbit transversal of the
    point."""

    __slots__ = ("point", "gens", "transversal", "transversal_inv")

    def __init__(self, point: int) -> None:
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self.transversal_inv: dict[int, Permutation] = {}

    def recompute_orbit(self, degree: int) -> None:
        self.transversal = transversal(self.gens, self.point, degree)
        self.transversal_inv = {x: u.inverse() for x, u in self.transversal.items()}


class PermutationGroup:
    """A permutation group with a base and strong generating set.

    Build with from_generators.  The input generator list is kept verbatim
    (inputs already in the group are not strong generators); membership,
    order and stabilisers all run off the compiled chain.
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
        gens = list(generators)
        if not gens:
            raise ValueError("at least one generator is required")
        degree = gens[0].degree
        for g in gens:
            if not isinstance(g, Permutation):
                raise ValueError(f"generators must be Permutation, got {type(g).__name__}")
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")

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
            schreier = (lev.transversal_inv[s.apply(x)] * s * rep
                        for x, rep in lev.transversal.items() for s in lev.gens)
            for h in schreier:
                j = sift_in(h, i + 1)
                if j is not None:
                    i = j
                    break
            else:
                i -= 1

        for g in gens:
            if not group.contains(g):
                raise RuntimeError("chain construction failed its membership self-check")
        return group

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
        """Generators of the subgroup fixing v; empty when that subgroup is
        trivial.

        Free when v is the first base point: the strong generators of the
        next level generate its stabiliser.  For any other point they are
        the strong generators of point_stabilizer(v).
        """
        self._check_point(v)
        if self._levels and self._levels[0].point == v:
            return list(self._levels[1].gens) if len(self._levels) > 1 else []
        return self.point_stabilizer(v).strong_generators

    def transversal_sizes(self) -> list[int]:
        return [len(lev.transversal) for lev in self._levels]

    def _strip(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Sift p through levels start.. and return (residue, stop level).

        stop == len(levels) means p reduced against every level; membership
        then hinges on the residue being the identity.
        """
        g = p
        for idx in range(start, len(self._levels)):
            lev = self._levels[idx]
            target = g.apply(lev.point)
            if target not in lev.transversal_inv:
                return g, idx
            g = lev.transversal_inv[target] * g
        return g, len(self._levels)

    def order(self) -> int:
        total = 1
        for lev in self._levels:
            total *= len(lev.transversal)
        return total

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
        for v in t:
            self._check_point(v)
        gens = [g.images.tolist() for g in self._generators if not g.is_identity()]
        return set(orbits(gens, [tuple(t)])[0])

    def point_stabilizer(self, v: int) -> PermutationGroup:
        """The subgroup fixing v, compiled once: from the next level's strong
        generators at the first base point, else from the Schreier generators
        of the orbit of v under the strong generators."""
        self._check_point(v)
        if self._levels and self._levels[0].point == v:
            gens = self.stabilizer_generators(v)
        else:
            strong = self.strong_generators
            reps = transversal(strong, v, self._degree)
            inv = {x: u.inverse() for x, u in reps.items()}
            gens = _distinct(h for x, rep in reps.items() for g in strong
                             if not (h := inv[g.apply(x)] * g * rep).is_identity())
        return PermutationGroup.from_generators(gens or [Permutation.identity(self._degree)])

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

    def _check_point(self, v: int) -> None:
        if not (0 <= v < self._degree):
            raise ValueError(f"point {v} out of range for degree {self._degree}")

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self._degree}, "
                f"generators={len(self._generators)}, order={self.order()})")
