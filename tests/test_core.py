import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cayleysrg.core as core
from cayleysrg import Permutation, ZnPair, perm_from_pair_map, units
from cayleysrg.core import orbits, transversal
from conftest import orbit_labels, orbit_labels_by_codes, pair_map_reference


class TestZnPair:
    def test_row_major_index(self):
        assert ZnPair(2, 3, 5).index == 13
        assert ZnPair(0, 0, 4).index == 0
        assert ZnPair(3, 3, 4).index == 15

    @pytest.mark.parametrize("n", [4, 5, 7, 11])
    def test_index_round_trip(self, n):
        for v in range(n * n):
            p = ZnPair.from_index(v, n)
            assert p.index == v
            assert 0 <= p.i < n and 0 <= p.j < n

    def test_from_index_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ZnPair.from_index(16, 4)
        with pytest.raises(ValueError):
            ZnPair.from_index(-1, 4)

    def test_addition_wraps(self):
        assert ZnPair(3, 2, 4) + ZnPair(1, 3, 4) == ZnPair(0, 1, 4)

    def test_negation_and_subtraction(self):
        p = ZnPair(1, 3, 5)
        assert -p == ZnPair(4, 2, 5)
        assert p - p == ZnPair(0, 0, 5)
        assert p + (-p) == ZnPair(0, 0, 5)

    @pytest.mark.parametrize("n", [4, 5])
    def test_abelian_group_laws_exhaustive(self, n):
        elems = [ZnPair(i, j, n) for i in range(n) for j in range(n)]
        zero = ZnPair(0, 0, n)
        for a in elems:
            assert a + zero == a
            assert a + (-a) == zero
            for b in elems:
                assert a + b == b + a
        for a in elems[:n]:
            for b in elems[::n]:
                for c in elems[:: n + 1]:
                    assert (a + b) + c == a + (b + c)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ZnPair(1, 1, 4) + ZnPair(1, 1, 5)

    def test_unreduced_entries_rejected(self):
        with pytest.raises(ValueError):
            ZnPair(4, 0, 4)
        with pytest.raises(ValueError):
            ZnPair(0, -1, 4)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            ZnPair(0, 0, 3)

    @pytest.mark.parametrize("i, j", [(0.5, 0), (0, 2.0), (True, 0), (0, False),
                                      (np.int64(1), 0)])
    def test_non_int_entries_rejected(self, i, j):
        # a float entry used to be accepted and gave a fractional index
        with pytest.raises(ValueError, match="entries must be ints"):
            ZnPair(i, j, 5)

    @given(
        n=st.integers(min_value=4, max_value=40),
        ai=st.integers(min_value=0, max_value=1000),
        aj=st.integers(min_value=0, max_value=1000),
        bi=st.integers(min_value=0, max_value=1000),
        bj=st.integers(min_value=0, max_value=1000),
    )
    def test_addition_is_componentwise_mod_n(self, n, ai, aj, bi, bj):
        a = ZnPair(ai % n, aj % n, n)
        b = ZnPair(bi % n, bj % n, n)
        s = a + b
        assert (s.i, s.j) == ((ai + bi) % n, (aj + bj) % n)


class TestUnits:
    def test_units_of_twelve(self):
        assert units(12).members == (1, 5, 7, 11)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_count_matches_gcd_census(self, n):
        census = sum(1 for u in range(1, n) if math.gcd(u, n) == 1)
        assert units(n).totient == census

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12])
    def test_closed_under_inverse_and_product(self, n):
        grp = units(n)
        assert 1 in grp
        for u in grp:
            assert grp.inverse_of(u) in grp
            assert u * grp.inverse_of(u) % n == 1
            for v in grp:
                assert u * v % n in grp

    def test_non_unit_has_no_inverse(self):
        with pytest.raises(ValueError):
            units(6).inverse_of(2)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError):
            units(1)


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(6)
        assert e.is_identity()
        assert [e.apply(v) for v in range(6)] == list(range(6))

    def test_compose_applies_right_factor_first(self):
        f = Permutation([1, 2, 0, 3])
        g = Permutation([3, 1, 2, 0])
        h = f * g
        for v in range(4):
            assert h.apply(v) == f.apply(g.apply(v))

    def test_inverse(self):
        p = Permutation([2, 0, 3, 1])
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation([0, 0, 2])
        with pytest.raises(ValueError):
            Permutation([0, 1, 3])
        with pytest.raises(ValueError, match="nonempty one-dimensional"):
            Permutation([])

    @pytest.mark.parametrize("images", [[0.7, 1.2], [1.0, 0.0], [True, False],
                                        np.array([0, 1], dtype=np.float32)])
    def test_rejects_non_integer_images(self, images):
        # floats used to be truncated, so [0.7, 1.2] became the identity
        with pytest.raises(ValueError, match="must be integers"):
            Permutation(images)

    def test_accepts_any_integer_dtype(self):
        p = Permutation(np.array([1, 0, 2], dtype=np.uint8))
        assert p.images.dtype == np.int64
        assert p == Permutation([1, 0, 2])

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            Permutation([1, 0]) * Permutation([1, 2, 0])

    def test_apply_out_of_range_rejected(self):
        p = Permutation([1, 0])
        with pytest.raises(ValueError):
            p.apply(2)
        with pytest.raises(ValueError):
            p.apply(-1)

    @pytest.mark.parametrize("point", [True, np.True_, 1.5, np.float64(0.0), "1", None])
    def test_apply_refuses_points_that_are_not_integers(self, point):
        with pytest.raises(ValueError, match="is not an integer"):
            Permutation([1, 0, 2, 3]).apply(point)

    def test_apply_accepts_numpy_integers(self):
        assert Permutation([1, 0, 2, 3]).apply(np.int64(1)) == 0

    def test_equality_and_hash(self):
        p = Permutation([1, 0, 2])
        q = Permutation(np.array([1, 0, 2]))
        assert p == q and hash(p) == hash(q)
        assert p != Permutation([0, 1, 2])

    def test_images_are_read_only(self):
        p = Permutation([1, 0])
        with pytest.raises(ValueError):
            p.images[0] = 0

    def test_cycles(self):
        p = Permutation([1, 0, 3, 4, 2, 5])
        assert p.cycles() == [(0, 1), (2, 3, 4)]
        assert Permutation.identity(4).cycles() == []

    def test_min_moved_point(self):
        assert Permutation([0, 2, 1]).min_moved_point() == 1
        assert Permutation.identity(5).min_moved_point() is None

    @given(st.permutations(range(12)), st.permutations(range(12)),
           st.permutations(range(12)))
    def test_associativity(self, a, b, c):
        f, g, h = Permutation(a), Permutation(b), Permutation(c)
        assert (f * g) * h == f * (g * h)

    @given(st.permutations(range(12)))
    def test_inverse_law(self, a):
        p = Permutation(a)
        assert (p * p.inverse()).is_identity()


class TestPermFromPairMap:
    def test_swap_map(self):
        p = perm_from_pair_map(4, lambda x, y: (y, x))
        assert p.apply(ZnPair(1, 3, 4).index) == ZnPair(3, 1, 4).index
        assert (p * p).is_identity()

    def test_non_injective_map_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            perm_from_pair_map(4, lambda x, y: (0 * x, 0 * y))

    def test_coordinates_are_shared_and_read_only(self):
        seen = []

        def swap(x, y):
            seen.append((x, y))
            return y, x

        perm_from_pair_map(7, swap)
        perm_from_pair_map(7, swap)
        (x, y), (x2, y2) = seen
        assert np.shares_memory(x, x2) and np.shares_memory(y, y2)
        for a in (x, y):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a += 1
        assert core._coordinates.cache_info().maxsize <= 4

    def test_matches_the_reference_across_a_range_of_moduli(self):
        # 4..12 and back to 4 evicts and rebuilds the coordinates
        for n in [*range(4, 13), 4, 5]:
            for fn, ref in ((lambda x, y: (y, x), lambda z: ZnPair(z.j, z.i, z.n)),
                            (lambda x, y: (x + 2 * y, -y),
                             lambda z: ZnPair((z.i + 2 * z.j) % z.n, -z.j % z.n, z.n))):
                assert perm_from_pair_map(n, fn) == pair_map_reference(n, ref)


class TestOrbits:
    # two generators on 6 points: (0 1 2) and (3 4)
    GENS = [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 3, 5]]

    def test_points_split_into_orbits_seeded_by_least_member(self):
        parts = orbits(self.GENS, [(v,) for v in range(6)])
        assert [next(iter(o)) for o in parts] == [(0,), (3,), (5,)]
        assert [sorted(o) for o in parts] == [[(0,), (1,), (2,)], [(3,), (4,)], [(5,)]]

    def test_orbit_dict_is_a_schreier_tree(self):
        pairs = [(a, b) for a in range(6) for b in range(6) if a != b]
        parts = orbits(self.GENS, pairs)
        assert sum(len(o) for o in parts) == len(pairs)
        for orbit in parts:
            seed, *rest = orbit
            assert orbit[seed] is None
            for member in rest:
                parent, i = orbit[member]
                assert tuple(self.GENS[i][x] for x in parent) == member

    def test_no_generators_gives_singletons(self):
        parts = orbits([], [(2, 1), (0, 1)])
        assert [list(o) for o in parts] == [[(2, 1)], [(0, 1)]]


def _kernel_case(gen_images, seeds):
    """Pairs of points closed under the generators, in ascending order,
    with each generator's permutation of their indices."""
    objects = sorted({x for orbit in orbits(gen_images, seeds) for x in orbit})
    index = {x: i for i, x in enumerate(objects)}
    steps = [np.array([index[img[a], img[b]] for a, b in objects]) for img in gen_images]
    return objects, steps


@st.composite
def _actions(draw):
    degree = draw(st.integers(1, 9))
    points = list(range(degree))
    gen_images = draw(st.lists(st.permutations(points), max_size=3))
    seeds = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                          min_size=1, max_size=12))
    return degree, [list(img) for img in gen_images], seeds


@st.composite
def _coded_steps(draw):
    """Permutations of range(size) and ascending codes for the objects."""
    size = draw(st.integers(0, 40))
    steps = draw(st.lists(st.permutations(range(size)), max_size=4))
    codes = sorted(draw(st.sets(st.integers(0, 10 ** 6), min_size=size, max_size=size)))
    return size, [np.array(step, dtype=np.int64) for step in steps], np.array(codes)


class TestOrbitLabels:
    @given(_actions())
    def test_matches_the_closure(self, action):
        _, gen_images, seeds = action
        objects, steps = _kernel_case(gen_images, seeds)
        labels = orbit_labels(len(objects), steps)
        # the steps may also come one at a time, as transitivity hands them
        assert orbit_labels(len(objects), iter(steps)).tolist() == labels.tolist()
        expected = orbits(gen_images, objects)
        firsts = np.flatnonzero(labels == np.arange(labels.size))
        assert [objects[i] for i in firsts] == [next(iter(o)) for o in expected]
        assert np.bincount(labels)[firsts].tolist() == [len(o) for o in expected]
        least = {x: objects.index(next(iter(o))) for o in expected for x in o}
        assert labels.tolist() == [least[x] for x in objects]

    @given(_coded_steps())
    def test_matches_the_kernel_on_codes(self, case):
        size, steps, codes = case
        assert (orbit_labels(size, steps).tolist()
                == orbit_labels_by_codes(codes, [codes[step] for step in steps]).tolist())

    @pytest.mark.parametrize("gen_images", [[], [[0, 1, 2, 3]]])
    def test_no_generators_or_the_identity_give_singletons(self, gen_images):
        objects, steps = _kernel_case(gen_images, [(0, 1), (2, 3), (3, 0)])
        assert orbit_labels(len(objects), steps).tolist() == list(range(len(objects)))

    def test_a_long_cycle_is_one_orbit(self):
        # one cycle p(i) = i + 1 mod m: the least label must reach every index
        m = 1000
        labels = orbit_labels(m, [(np.arange(m) + 1) % m])
        assert (labels == 0).all()

    def test_image_outside_the_objects_refused(self):
        # an image past either end, a step of another length, or not of ints
        for step in ([1, 2], [-1, 0], [0], [0, 1, 2], [1.0, 0.0], [True, False]):
            with pytest.raises(ValueError, match="do not act"):
                orbit_labels(2, [np.array(step)])
        # (0 1 2 3) carries the object (0, 1) onto (1, 2), which is not listed
        with pytest.raises(ValueError, match="missing"):
            orbit_labels_by_codes(np.array([0 * 4 + 1, 2 * 4 + 3]),
                                  [np.array([1 * 4 + 2, 3 * 4 + 0])])

    def test_repeated_image_refused(self):
        for step in ([1, 1], [0, 0]):
            with pytest.raises(ValueError, match="two objects onto one"):
                orbit_labels(2, [np.array([0, 1]), np.array(step)])
        with pytest.raises(ValueError, match="two objects onto one"):
            orbit_labels_by_codes(np.array([3, 5]), [np.array([5, 5])])

    def test_codes_that_do_not_ascend_refused(self):
        # the oracle's own refusal: the kernel has no codes to order
        for codes in ([5, 3], [3, 3]):
            with pytest.raises(ValueError, match="ascending"):
                orbit_labels_by_codes(np.array(codes), [])


class TestTransversal:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_every_base_level_of_the_claimed_groups(self, claimed_group, n):
        grp = claimed_group(n)
        elements = grp.elements()
        for i, point in enumerate(grp.base):
            fixed = grp.base[:i]
            # a strong generating set: the members fixing base[:i] generate
            # the stabiliser of base[:i]
            perms = [g for g in grp.strong_generators if all(g.apply(b) == b for b in fixed)]
            orbit = {p.apply(point) for p in elements if all(p.apply(b) == b for b in fixed)}
            reps = transversal(perms, point, grp.degree)
            assert set(reps) == orbit
            assert len(reps) == grp.transversal_sizes()[i]
            first, rep = next(iter(reps.items()))
            assert first == point and rep.is_identity()
            for x, u in reps.items():
                assert u.apply(x) == point
                assert all(u.apply(b) == b for b in fixed)
                assert u in grp

    def test_no_generators_gives_the_point_alone(self):
        reps = transversal([], 3, 5)
        assert list(reps) == [3]
        assert reps[3] == Permutation.identity(5)
