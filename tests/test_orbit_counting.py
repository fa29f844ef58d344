"""The orbit counts of classify(n) against the orbit-counting lemma.

The orbit-counting lemma (Cameron, Permutation Groups, 1999): a finite group
acting on a finite set has as many orbits as its elements fix points on
average.  By the suborbit correspondence the G-orbits on arcs, 2-arcs and
distance-2 pairs are as many as the G_0-orbits on the same objects at
vertex 0: the members s of S, the pairs (s, t) of members of S with
t != -s, and the vertices neither 0 nor in S.  An element A of G_0, being
linear, fixes (s, t) exactly when it fixes s and t, and -s with s; so the
three counts are the means over A of |Fix_S(A)|, |Fix_S(A)|^2 - |Fix_S(A)|
and |ker(A - I)| - |Fix_S(A)| - 1.

G_0 is listed here apart from the package's engine, as the 6 phi(n)
products u sigma of a unit scaling u and one of the six matrices that the
swap and the rotation generate, and each element's fixed points are
counted by arithmetic, with no walk over the vertices.  It reaches the
cap of 1000, where no other oracle of the orbits does.
"""

import math

import numpy as np
import pytest

from cayleysrg import classify

IDENTITY = np.eye(2, dtype=np.int64)
SWAP = np.array([[0, 1], [1, 0]])
ROTATION = np.array([[0, -1], [1, -1]])  # (x, y) -> (-y, x - y)
# S is the i d for 0 < i < n and d one of these columns
DIRECTIONS = np.array([[1, 0], [0, 1], [1, 1]]).T


def g0(n):
    """G_0 as its 6 phi(n) matrices u sigma, entries reduced mod n."""
    sigmas = [w @ r for w in (IDENTITY, SWAP) for r in (IDENTITY, ROTATION, ROTATION @ ROTATION)]
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    return np.array([u * sigma for u in units for sigma in sigmas]) % n


def fixed_in_s(n, mats):
    """|Fix_S(A)| for each A of mats: i d is fixed when i (A - I) d = 0,
    which gcd(n, (A - I) d) residues i solve, 0 among them."""
    moved = (mats - IDENTITY) @ DIRECTIONS
    return (np.gcd(np.gcd(moved[:, 0], moved[:, 1]), n) - 1).sum(axis=1)


def kernel_size(n, mats):
    """|ker(A - I)| on Z_n x Z_n for each A of mats: gcd(n, d1) gcd(n, d2),
    diag(d1, d2) the Smith normal form of A - I over the integers, d1 the
    gcd of its entries and d1 d2 = |det(A - I)|, with gcd(n, 0) = n."""
    m = (mats - IDENTITY).reshape(-1, 4)
    d1 = np.gcd.reduce(m, axis=1)
    det = np.abs(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2])
    d2 = np.where(d1 > 0, det // np.maximum(d1, 1), 0)
    return np.gcd(d1, n) * np.gcd(d2, n)


@pytest.mark.parametrize("n", range(4, 13))
def test_the_listing_is_a_group_and_the_counts_are_its_fixed_points(n):
    # 6 phi(n) distinct matrices, closed under products, whose fixed points,
    # counted over every vertex, are what the closed forms give
    mats = g0(n)
    codes = {m.tobytes() for m in mats}
    assert len(codes) == len(mats) == 6 * sum(math.gcd(u, n) == 1 for u in range(n))
    assert all((a @ b % n).tobytes() in codes for a in mats for b in mats)
    x, y = np.divmod(np.arange(n * n), n)
    fixed = ((mats[:, 0, :1] * x + mats[:, 0, 1:] * y) % n == x) & \
            ((mats[:, 1, :1] * x + mats[:, 1, 1:] * y) % n == y)
    in_s = ((x == 0) | (y == 0) | (x == y)) & (x + y > 0)
    assert np.array_equal(fixed_in_s(n, mats), (fixed & in_s).sum(axis=1))
    assert np.array_equal(kernel_size(n, mats), fixed.sum(axis=1))


@pytest.mark.parametrize("n", [*range(4, 61), 64, 81, 120, 241, 243, 840, 997, 1000])
def test_orbit_counts_match_the_lemma(n):
    mats = g0(n)
    fix, ker = fixed_in_s(n, mats), kernel_size(n, mats)
    counts = classify(n).orbit_counts
    for key, fixed in (("arcs", fix), ("two_arcs", fix * fix - fix),
                       ("distance2_pairs", ker - fix - 1)):
        orbits, rest = divmod(int(fixed.sum()), len(mats))
        assert rest == 0 and len(counts[key]) == orbits, key
