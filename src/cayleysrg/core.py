"""Residue pairs mod n and permutations of vertex indices.

Vertices of the graphs built elsewhere in this package are pairs (i, j)
with entries mod n, flattened row-major to the index i*n + j.  Everything
downstream (the group engine, the graphs, the search code) works on flat
indices; ZnPair reads or builds one, perm_from_pair_map maps all at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ZnPair",
    "UnitGroup",
    "units",
    "Permutation",
    "perm_from_pair_map",
    "orbits",
    "orbit_labels",
    "transversal",
    "check_point",
]

MIN_MODULUS = 4

# Entries in one block of a stacked pass over image arrays.  A batch of
# permutations is cut into blocks of this many entries, at least one row
# each, so each temporary of a pass stays within 512 KB of int64, whatever
# the number of rows, while every batch of the moduli up to 31 is one block.
_BLOCK_ENTRIES = 1 << 16


def _block_rows(degree: int) -> int:
    """Rows of degree entries in one block of _BLOCK_ENTRIES, at least one."""
    return max(1, _BLOCK_ENTRIES // degree)


def check_point(v, degree: int) -> int:
    """v as an int in range(degree); numpy integers pass, bools and
    non-integers do not.  Every bad point raises ValueError."""
    try:
        point = operator.index(v)
    except TypeError:
        point = None
    if point is None or isinstance(v, bool):
        raise ValueError(f"point {v!r} is not an integer")
    if not 0 <= point < degree:
        raise ValueError(f"point {v} out of range for degree {degree}")
    return point


def _check_modulus(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"modulus must be an int, got {type(n).__name__}")
    if n < MIN_MODULUS:
        raise ValueError(f"modulus must be at least {MIN_MODULUS}, got {n}")


@dataclass(frozen=True, slots=True)
class ZnPair:
    """An element of Z_n x Z_n, carrying its modulus.

    Arithmetic is componentwise mod n.  Mixing moduli is rejected rather
    than coerced; a pair from Z_5 x Z_5 has no meaning mod 7.
    """

    i: int
    j: int
    n: int

    def __post_init__(self) -> None:
        _check_modulus(self.n)
        for x in (self.i, self.j):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"entries must be ints, got {type(x).__name__}")
        if not (0 <= self.i < self.n and 0 <= self.j < self.n):
            raise ValueError(
                f"entries must be reduced residues mod {self.n}, got ({self.i}, {self.j})"
            )

    def _check_same_modulus(self, other: ZnPair) -> None:
        if self.n != other.n:
            raise ValueError(f"modulus mismatch: {self.n} vs {other.n}")

    def __add__(self, other: ZnPair) -> ZnPair:
        self._check_same_modulus(other)
        return ZnPair((self.i + other.i) % self.n, (self.j + other.j) % self.n, self.n)

    def __neg__(self) -> ZnPair:
        return ZnPair(-self.i % self.n, -self.j % self.n, self.n)

    def __sub__(self, other: ZnPair) -> ZnPair:
        return self + (-other)

    @property
    def index(self) -> int:
        """Row-major flat index, i*n + j."""
        return self.i * self.n + self.j

    @classmethod
    def from_index(cls, v: int, n: int) -> ZnPair:
        _check_modulus(n)
        return cls(*divmod(check_point(v, n * n), n), n)


@dataclass(frozen=True)
class UnitGroup:
    """The multiplicative units of Z_n, listed in ascending order."""

    n: int
    members: tuple[int, ...]

    @property
    def totient(self) -> int:
        return len(self.members)

    def inverse_of(self, u: int) -> int:
        if math.gcd(u % self.n, self.n) != 1:
            raise ValueError(f"{u} is not a unit mod {self.n}")
        return pow(u, -1, self.n)

    def __contains__(self, u: int) -> bool:
        return u in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def units(n: int) -> UnitGroup:
    """Units of Z_n.  Requires n >= 2 so that 1 is a proper residue."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"modulus must be an int >= 2, got {n!r}")
    members = tuple(u for u in range(1, n) if math.gcd(u, n) == 1)
    return UnitGroup(n=n, members=members)


class Permutation:
    """A permutation of {0, ..., d-1} stored as an image array.

    images[v] is the image of v.  Composition follows the convention that
    the right factor acts first: (f * g)(v) == f(g(v)).
    """

    __slots__ = ("_images", "_hash")

    def __init__(self, images) -> None:
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a nonempty one-dimensional sequence")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"images must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        d = arr.size
        if arr.min() < 0 or arr.max() >= d:
            raise ValueError("image values must lie in range(degree)")
        if np.bincount(arr, minlength=d).max() > 1:
            raise ValueError("images must be a bijection, found a repeated value")
        arr.setflags(write=False)
        self._images = arr
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, arr: NDArray[np.int64]) -> Permutation:
        # Internal fast path for arrays already known to be bijections
        # (composites and inverses of valid permutations).
        p = object.__new__(cls)
        arr.setflags(write=False)
        p._images = arr
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._trusted(np.arange(degree, dtype=np.int64))

    @property
    def images(self) -> NDArray[np.int64]:
        return self._images

    @property
    def degree(self) -> int:
        return self._images.size

    def apply(self, v: int) -> int:
        return int(self._images[check_point(v, self.degree)])

    def __call__(self, v: int) -> int:
        return self.apply(v)

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation._trusted(self._images[other._images])

    def inverse(self) -> Permutation:
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self._images] = np.arange(self.degree, dtype=np.int64)
        return Permutation._trusted(inv)

    def is_identity(self) -> bool:
        return bool((self._images == np.arange(self.degree, dtype=np.int64)).all())

    def min_moved_point(self) -> int | None:
        """Smallest point not fixed, or None for the identity."""
        moved = np.nonzero(self._images != np.arange(self.degree, dtype=np.int64))[0]
        if moved.size == 0:
            return None
        return int(moved[0])

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * self.degree
        out = []
        imgs = self._images
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = int(imgs[start])
            while v != start:
                seen[v] = True
                cyc.append(v)
                v = int(imgs[v])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.degree == other.degree and bool(
            (self._images == other._images).all()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._images.tobytes())
        return self._hash

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Permutation(identity, degree={self.degree})"
        text = " ".join("(" + " ".join(map(str, c)) + ")" for c in cycs[:6])
        if len(cycs) > 6:
            text += " ..."
        return f"Permutation({text}, degree={self.degree})"


@lru_cache(maxsize=4)
def _coordinates(n: int) -> NDArray[np.int64]:
    """The rows x, y of divmod(v, n) for every vertex v, read-only; only the
    last four moduli are kept, so a long range of them holds no old arrays."""
    xy = np.array(np.divmod(np.arange(n * n), n))
    xy.setflags(write=False)
    return xy


def perm_from_pair_map(n: int, fn: Callable[[NDArray, NDArray], tuple]) -> Permutation:
    """Build the vertex permutation induced by a map on pairs mod n.

    fn is called once, on the coordinate arrays x, y of all n**2 vertices in
    index order, read-only and shared by every call for n, and returns the
    arrays of their images, for example lambda x, y: (y, x) for the swap.
    The images are reduced mod n; that they form a bijection is checked by
    the Permutation constructor.
    """
    _check_modulus(n)
    fx, fy = fn(*_coordinates(n))
    return Permutation(fx % n * n + fy % n)


def orbits(gen_images: list[Sequence[int]], objects) -> list[dict]:
    """Orbits of tuples of points under the group the generators generate.

    gen_images holds each generator as the sequence of its images, a list
    or a memoryview of an int64 array; a tuple moves componentwise.  Every
    object not already placed seeds a new orbit, closed under the
    generators.  Each orbit is a dict in discovery order: its first key is
    the seed, and each later member maps to (parent, i) with gen_images[i]
    carrying parent onto it, so the dict is also a Schreier tree.  Objects
    in ascending order make every seed its orbit's least member.
    """
    placed: set = set()
    out: list[dict] = []
    for seed in objects:
        if seed in placed:
            continue
        orbit = {seed: None}
        queue = [seed]
        while queue:
            cur = queue.pop()
            for i, img in enumerate(gen_images):
                nxt = tuple([img[x] for x in cur])
                if nxt not in orbit:
                    orbit[nxt] = (cur, i)
                    queue.append(nxt)
        placed.update(orbit)
        out.append(orbit)
    return out


def orbit_labels(size: int, steps) -> NDArray[np.int64]:
    """Orbits of a group on the objects range(size), as least-member labels.

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


def transversal(perms: list[Permutation], point: int, degree: int) -> dict[int, Permutation]:
    """The orbit of point under the group perms generate, each member keyed
    to an element carrying it back onto point.

    Read off the Schreier tree that orbits returns, so the first key is
    point itself, mapped by the identity, and a member x reached from its
    parent by perms[i] gets the parent's element times the inverse of
    perms[i]: the inverse of the tree's path from point to x.  The tree
    walks memoryviews of the image arrays, so a small orbit at a large
    degree costs no list of every image.
    """
    tree = orbits([memoryview(p.images) for p in perms], [(point,)])[0]
    back = [p.inverse() for p in perms]
    out = {point: Permutation.identity(degree)}
    for (x,), ((parent,), i) in list(tree.items())[1:]:
        out[x] = out[parent] * back[i]
    return out
