"""Deterministic Schreier-Sims engine for permutation groups.

Groups are handed in as generator lists and compiled once into a base and
strong generating set.  The construction is the classic bottom-up one: per
level compute the orbit of the base point with an explicit transversal,
sift every Schreier generator through the deeper levels, and whenever a
residue survives, append it as a strong generator and resume from the level
it got stuck at.  No randomisation anywhere, so a fixed generator list
always yields the same base, the same transversals and the same order.
"""

from __future__ import annotations

from .core import Permutation, orbits

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
    """One stabiliser level: a base point, the strong generators fixing all
    earlier base points, and the orbit transversal of the point."""

    __slots__ = ("point", "gens", "transversal", "transversal_inv")

    def __init__(self, point: int) -> None:
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self.transversal_inv: dict[int, Permutation] = {}

    def recompute_orbit(self, degree: int) -> None:
        ident = Permutation.identity(degree)
        self.transversal = {self.point: ident}
        self.transversal_inv = {self.point: ident}
        queue = [self.point]
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            rep = self.transversal[gamma]
            for s in self.gens:
                delta = s.apply(gamma)
                if delta not in self.transversal:
                    u = s * rep
                    self.transversal[delta] = u
                    self.transversal_inv[delta] = u.inverse()
                    queue.append(delta)


class PermutationGroup:
    """A permutation group with a base and strong generating set.

    Build with from_generators.  The input generator list is kept verbatim
    (identities are skipped internally); membership, order and stabilisers
    all run off the compiled chain.
    """

    def __init__(self, generators: list[Permutation], degree: int,
                 levels: list[_Level]) -> None:
        self._generators = list(generators)
        self._degree = degree
        self._levels = levels

    @classmethod
    def from_generators(cls, generators) -> PermutationGroup:
        """Compile a base and strong generating set from the generators.

        The list must be nonempty so that the degree is known; passing only
        identity permutations yields the trivial group.  Base points are
        chosen as the smallest point moved by whichever element forced the
        extension, which keeps rebuilds reproducible.
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

        working = [g for g in gens if not g.is_identity()]
        strong = _distinct(working)

        base: list[int] = []
        levels: list[_Level] = []

        def fixes_prefix(p: Permutation, upto: int) -> bool:
            return all(p.apply(base[t]) == base[t] for t in range(upto))

        def extend_base(p: Permutation) -> None:
            pt = p.min_moved_point()
            if pt is None:
                raise RuntimeError("attempted base extension with the identity")
            base.append(pt)
            levels.append(_Level(pt))

        for g in strong:
            if fixes_prefix(g, len(base)):
                extend_base(g)
        for i, lev in enumerate(levels):
            lev.gens = [g for g in strong if fixes_prefix(g, i)]
            lev.recompute_orbit(degree)

        group = cls(gens, degree, levels)

        i = len(levels) - 1
        while i >= 0:
            lev = levels[i]
            stuck = None
            for gamma in list(lev.transversal.keys()):
                rep = lev.transversal[gamma]
                for s in lev.gens:
                    u_inv = lev.transversal_inv[s.apply(gamma)]
                    schreier = u_inv * s * rep
                    if schreier.is_identity():
                        continue
                    residue, j = group._strip(schreier, start=i + 1)
                    if residue.is_identity():
                        continue
                    stuck = (residue, j)
                    break
                if stuck is not None:
                    break
            if stuck is None:
                i -= 1
                continue
            residue, j = stuck
            if j == len(levels):
                extend_base(residue)
            for k in range(i + 1, j + 1):
                levels[k].gens.append(residue)
                levels[k].recompute_orbit(degree)
            i = j

        for g in working:
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
        the Schreier generators of the orbit of v, so that
        order(self) == len(orbit_of_point(v)) * order of the subgroup.
        """
        self._check_point(v)
        if self._levels and self._levels[0].point == v:
            return list(self._levels[1].gens) if len(self._levels) > 1 else []
        lev = _Level(v)
        lev.gens = [g for g in self._generators if not g.is_identity()]
        lev.recompute_orbit(self._degree)
        schreier = (lev.transversal_inv[g.apply(x)] * g * rep
                    for x, rep in lev.transversal.items() for g in lev.gens)
        return _distinct(h for h in schreier if not h.is_identity())

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
        """The subgroup fixing v, compiled as its own group from
        stabilizer_generators(v)."""
        gens = self.stabilizer_generators(v) or [Permutation.identity(self._degree)]
        return PermutationGroup.from_generators(gens)

    def elements(self, max_size: int = 1_000_000) -> list[Permutation]:
        """All elements, by closure from the identity.  Guarded by max_size
        since the groups this package builds grow quadratically with n."""
        total = self.order()
        if total > max_size:
            raise ValueError(f"group order {total} exceeds max_size {max_size}")
        gens = [g for g in self._generators if not g.is_identity()]
        ident = Permutation.identity(self._degree)
        out = [ident]
        seen = {ident}
        qi = 0
        while qi < len(out):
            cur = out[qi]
            qi += 1
            for g in gens:
                nxt = g * cur
                if nxt not in seen:
                    seen.add(nxt)
                    out.append(nxt)
        if len(out) != total:
            raise RuntimeError(f"closure found {len(out)} elements, chain says {total}")
        return out

    def _check_point(self, v: int) -> None:
        if not (0 <= v < self._degree):
            raise ValueError(f"point {v} out of range for degree {self._degree}")

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self._degree}, "
                f"generators={len(self._generators)}, order={self.order()})")
