import random

import numpy as np
import pytest

import cayleysrg.bsgs as bsgs
import cayleysrg.core as core
from cayleysrg import (
    Permutation,
    PermutationGroup,
    ZnPair,
    claimed_aut_group,
    claimed_origin_stabilizer,
    clique_rotation,
    coordinate_swap,
    translation,
    unit_scaling,
    units,
)
from cayleysrg.symmetries import _unit_generators


class TestConstruction:
    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PermutationGroup.from_generators([])

    def test_identity_only_gives_trivial_group(self):
        grp = PermutationGroup.from_generators([Permutation.identity(10)])
        assert grp.order() == 1
        assert grp.base == []
        assert grp.contains(Permutation.identity(10))
        assert not grp.contains(Permutation([1, 0] + list(range(2, 10))))

    def test_a_first_generator_that_is_not_a_permutation_is_named(self):
        with pytest.raises(ValueError, match="must be Permutation, got list"):
            PermutationGroup.from_generators([[1, 0]])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            PermutationGroup.from_generators(
                [Permutation.identity(4), Permutation.identity(5)]
            )

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12, 30])
    def test_swap_rotation_group_has_order_six(self, n):
        grp = PermutationGroup.from_generators(
            [coordinate_swap(n).perm, clique_rotation(n).perm]
        )
        assert grp.order() == 6

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 12])
    def test_scaling_group_has_totient_order(self, n):
        gens = [unit_scaling(n, u).perm for u in units(n)]
        assert PermutationGroup.from_generators(gens).order() == units(n).totient

    def test_translation_group_order(self):
        grp = PermutationGroup.from_generators(
            [translation(6, 1, 0).perm, translation(6, 0, 1).perm]
        )
        assert grp.order() == 36

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_rebuild_is_deterministic(self, n):
        gens = [translation(n, 1, 0).perm, translation(n, 0, 1).perm,
                coordinate_swap(n).perm, clique_rotation(n).perm]
        a = PermutationGroup.from_generators(gens)
        b = PermutationGroup.from_generators(gens)
        assert a.base == b.base
        assert a.order() == b.order()
        assert a.transversal_sizes() == b.transversal_sizes()
        assert [hash(g) for g in a.strong_generators] == [hash(g) for g in b.strong_generators]

    def test_order_is_product_of_transversal_sizes(self, claimed_group):
        grp = claimed_group(6)
        prod = 1
        for size in grp.transversal_sizes():
            prod *= size
        assert prod == grp.order()

    def test_hash_collisions_drop_no_generator(self, monkeypatch):
        # generators are told apart by their images, not by hash()
        monkeypatch.setattr(Permutation, "__hash__", lambda self: 0)
        assert claimed_aut_group(6).order() == 6 * 36 * 2
        assert len(claimed_aut_group(6).point_stabilizer(0).generators) > 1

    def test_generators_kept_verbatim(self):
        gens = [coordinate_swap(5).perm, Permutation.identity(25)]
        grp = PermutationGroup.from_generators(gens)
        assert grp.generators == gens


class TestAssemble:
    """A chain named from a given first level and a compiled chain of the
    stabiliser: S_4 from the rotation of 0 1 2 3, and S_3 on 1, 2, 3 fixing
    0."""

    CYCLE = Permutation([1, 2, 3, 0])
    SWAP = Permutation([1, 0, 2, 3])
    S3 = [Permutation([0, 2, 1, 3]), Permutation([0, 2, 3, 1])]

    def assemble(self, reps, stabilizer=S3):
        """from_levels on a first level at 0 with the transversal reps, then
        the levels of the chain Schreier-Sims compiles for stabilizer."""
        tail = [(lev.point, lev.gens)
                for lev in PermutationGroup.from_generators(stabilizer)._levels]
        first = (0, [self.CYCLE, self.SWAP, *tail[0][1]], reps)
        return PermutationGroup.from_levels([self.CYCLE, self.SWAP, *self.S3],
                                            [first, *tail], 24)

    def powers(self):
        """x -> the power of the rotation carrying x back onto 0."""
        reps, u = {}, Permutation.identity(4)
        for _ in range(4):
            reps[u.apply(0)] = u.inverse()
            u = self.CYCLE * u
        return reps

    def test_matches_the_compiled_chain(self):
        grp = self.assemble(self.powers())
        ref = PermutationGroup.from_generators([self.CYCLE, self.SWAP])
        assert grp.order() == ref.order() == 24
        assert grp.generators == [self.CYCLE, self.SWAP, *self.S3]
        assert grp.base == [0, 1, 2] and grp.transversal_sizes() == [4, 3, 2]
        assert set(grp.elements()) == set(ref.elements())
        assert all(grp.contains(p) for p in ref.elements())
        stab = grp.point_stabilizer(0)
        assert stab.order() == 6 and stab.base == [1, 2]
        assert set(stab.elements()) == set(PermutationGroup.from_generators(self.S3).elements())

    def test_a_fixed_base_point_is_never_looked_up(self):
        class Recording(dict):
            def __getitem__(self, x):
                asked.append(x)
                return super().__getitem__(x)

        asked = []
        grp = self.assemble(Recording(self.powers()))
        assert all(grp.contains(p) for p in grp.elements())
        assert sorted(set(asked)) == [1, 2, 3]

    def test_a_wrong_transversal_fails_the_self_check(self):
        reps = self.powers()
        reps[1] = Permutation.identity(4)
        with pytest.raises(RuntimeError, match="self-check"):
            self.assemble(reps)

    def test_a_stabiliser_generator_that_moves_the_point_is_refused(self):
        # S_4 compiled from S_3 and the swap: its chain's first level, at
        # base point 1, holds the swap, which moves 0
        with pytest.raises(ValueError, match="moves the earlier base point 0"):
            self.assemble(self.powers(), [*self.S3, self.SWAP])


def random_generators(seed):
    """A few random generators of one random degree below 15, with
    identities and products of earlier ones among them."""
    rng = random.Random(seed)
    degree = rng.randrange(2, 15)
    gens = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.random()
        if kind < 0.15:
            gens.append(Permutation.identity(degree))
        elif kind < 0.3 and gens:
            gens.append(rng.choice(gens) * rng.choice(gens))
        else:
            # a random permutation of a random subset of the points
            moved = rng.sample(range(degree), rng.randrange(2, degree + 1))
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(images))
    return gens


def random_group(seed):
    """random_generators(seed), the group they generate by Schreier-Sims,
    and that group again from its Schreier-Sims chain's named levels."""
    gens = random_generators(seed)
    ref = PermutationGroup.from_generators(gens)
    levels = [(lev.point, lev.gens) for lev in ref._levels]
    return gens, ref, PermutationGroup.from_levels(gens, levels, ref.order())


class TestStackedSifts:
    """Chains built from named levels against Schreier-Sims, which sifts
    one element at a time, on random generators."""

    @pytest.mark.parametrize("block", [None, 1, 40])
    @pytest.mark.parametrize("seed", range(40))
    def test_chains_match_sifting_one_at_a_time(self, seed, block, monkeypatch):
        # core stacks image rows in blocks of _BLOCK_ENTRIES; neither chain
        # may depend on the block size, down to one row per block
        if block is not None:
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", block)
        gens, ref, grp = random_group(seed)
        assert grp.generators == gens and grp.base == ref.base
        assert grp.order() == ref.order()
        assert ([set(lev.transversal_inv) for lev in grp._levels]
                == [set(lev.transversal_inv) for lev in ref._levels])

    @pytest.mark.parametrize("seed", range(40))
    def test_stacks_sift_as_single_elements(self, seed):
        # a stack of members, products with a stray transposition, and
        # random maps, each sifted from every level of both chains
        rng = random.Random(seed)
        gens, ref, grp = random_group(seed)
        degree = grp.degree
        perms = [Permutation.identity(degree)]
        for _ in range(30):
            p = Permutation.identity(degree)
            for _ in range(rng.randrange(6)):
                p = rng.choice(gens) * p
            if degree > 1 and rng.random() < 0.4:
                images = list(range(degree))
                a, b = rng.sample(range(degree), 2)
                images[a], images[b] = b, a
                p = Permutation(images) * p
            perms.append(p)
        perms += [Permutation(rng.sample(range(degree), degree)) for _ in range(10)]
        for start in range(len(grp.base) + 1):
            want = [ref._strip(p, start)[0].is_identity() for p in perms]
            assert [grp._strip(p, start)[0].is_identity() for p in perms] == want
        assert [grp.contains(p) for p in perms] == [ref.contains(p) for p in perms]


class TestFromLevels:
    """Chains built from named levels refuse what their self-checks catch."""

    ROTATION, SWAP = Permutation([1, 2, 0]), Permutation([1, 0, 2])

    def test_a_deep_orbit_is_walked_without_recursion(self):
        # an m-cycle times a disjoint transposition: one generator, so the
        # orbit of 0 is a path of m points
        m = 1501
        c = Permutation([*range(1, m), 0, m + 1, m])
        flip = Permutation([*range(m), m + 1, m])
        grp = PermutationGroup.from_levels([c], [(0, [c]), (m, [flip])], 2 * m)
        assert grp.order() == 2 * m and grp.transversal_sizes() == [m, 2]
        assert grp.contains(c * c) and grp.point_stabilizer(0).order() == 2

    def test_a_wrong_order_is_refused(self):
        with pytest.raises(RuntimeError, match="order self-check"):
            PermutationGroup.from_levels([self.ROTATION], [(0, [self.ROTATION])], 6)

    def test_an_input_outside_the_chain_is_refused(self):
        # the rotation's chain has order 3 and no room for the swap
        with pytest.raises(RuntimeError, match="membership self-check"):
            PermutationGroup.from_levels([self.ROTATION, self.SWAP],
                                         [(0, [self.ROTATION])], 3)

    def test_a_strong_generator_that_moves_an_earlier_base_point_is_refused(self):
        # S_4 at base points 0, 1, 2 with a last level that holds the
        # transposition of 1 and 3: it fixes 0 and 2 but moves 1
        cycle, swap = Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])
        levels = [(0, [cycle, swap]), (1, [Permutation([0, 2, 1, 3])]),
                  (2, [Permutation([0, 3, 2, 1])])]
        with pytest.raises(ValueError, match="at base point 2 moves the earlier base point 1"):
            PermutationGroup.from_levels([cycle, swap], levels, 24)

    def test_the_base_points_are_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            PermutationGroup.from_levels([Permutation.identity(3)], [(3, [])], 1)


class TestRedundantInputs:
    @pytest.mark.parametrize("n", [17, 31])
    def test_redundant_scalings_are_not_strong_generators(self, n):
        # the inputs are the translations and G_0's generating set; every
        # other unit scaling is in the group, and none is a strong
        # generator, which are the inputs and the one flip that fixes e_2
        grp = claimed_aut_group(n)
        basis = _unit_generators(n)
        inputs = len(basis) + 4
        assert len(grp.generators) == inputs
        assert all(g in grp for g in grp.generators)
        strong = {g.images.tobytes() for g in grp.strong_generators}
        assert len(strong) == len(grp.strong_generators) == inputs + 1
        others = [unit_scaling(n, u).perm for u in units(n) if u not in basis]
        assert others and all(p in grp and p.images.tobytes() not in strong for p in others)

    def test_powers_of_the_first_input_are_dropped(self):
        first = translation(7, 1, 1).perm
        powers = [first]
        for _ in range(8):
            powers.append(powers[-1] * first)
        grp = PermutationGroup.from_generators(powers)
        assert len(grp.strong_generators) == 1
        assert grp.order() == PermutationGroup.from_generators([first]).order() == 7
        assert grp.generators == powers


class TestMembership:
    def test_rotation_not_in_swap_group(self):
        grp = PermutationGroup.from_generators([coordinate_swap(6).perm])
        assert grp.order() == 2
        assert not grp.contains(clique_rotation(6).perm)

    def test_degree_mismatch_rejected(self, claimed_group):
        with pytest.raises(ValueError, match="degree"):
            claimed_group(4).contains(Permutation.identity(25))

    @pytest.mark.parametrize("n", [5, 6])
    def test_products_of_generators_are_members(self, claimed_group, n):
        grp = claimed_group(n)
        gens = grp.generators
        rng = random.Random(20260817)
        for _ in range(200):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
            p = word[0]
            for q in word[1:]:
                p = p * q
            assert grp.contains(p)
            assert p in grp

    def test_all_strong_generators_are_members(self, claimed_group):
        grp = claimed_group(8)
        for g in grp.strong_generators:
            assert grp.contains(g)

    def test_outsider_rejected(self, claimed_group):
        grp = claimed_group(4)
        # transposing two vertices of one clique is never an automorphism here
        imgs = list(range(16))
        imgs[1], imgs[2] = imgs[2], imgs[1]
        assert not grp.contains(Permutation(imgs))


class TestOrbits:
    def test_scaling_orbit_example(self):
        gens = [unit_scaling(4, u).perm for u in units(4)]
        grp = PermutationGroup.from_generators(gens)
        start = ZnPair(1, 0, 4).index
        assert grp.orbit_of_point(start) == {start, ZnPair(3, 0, 4).index}

    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_claimed_group_is_transitive_on_vertices(self, claimed_group, n):
        grp = claimed_group(n)
        assert len(grp.orbit_of_point(0)) == n * n

    def test_point_out_of_range_rejected(self, claimed_group):
        with pytest.raises(ValueError):
            claimed_group(4).orbit_of_point(16)

    def test_tuple_orbit_matches_point_orbit(self, claimed_group):
        grp = claimed_group(5)
        assert {t[0] for t in grp.orbit_of_tuple((7,))} == grp.orbit_of_point(7)

    def test_tuple_orbit_arity_guard(self, claimed_group):
        grp = claimed_group(4)
        with pytest.raises(ValueError, match="length"):
            grp.orbit_of_tuple((0, 1, 2, 3))
        with pytest.raises(ValueError, match="length"):
            grp.orbit_of_tuple(())

    def test_pair_orbit_respects_adjacency_difference(self, claimed_group, graph):
        # arcs with a unit difference and arcs with difference (2, 0) lie in
        # different classes at n = 4
        grp, g = claimed_group(4), graph(4)
        arc_orbit = grp.orbit_of_tuple((0, ZnPair(0, 1, 4).index))
        assert (0, ZnPair(2, 0, 4).index) not in arc_orbit
        assert all(g.is_adjacent(u, v) for u, v in arc_orbit)


def schreier_stabilizer(grp, v):
    """The stabiliser of v built from every Schreier generator of the orbit
    of v, independently of the stabiliser chain of grp."""
    gens = [g for g in grp.generators if not g.is_identity()]
    rep = {v: Permutation.identity(grp.degree)}
    queue = [v]
    for x in queue:
        for g in gens:
            y = g.apply(x)
            if y not in rep:
                rep[y] = g * rep[x]
                queue.append(y)
    schreier = [rep[g.apply(x)].inverse() * g * rep[x] for x in rep for g in gens]
    return PermutationGroup.from_generators(schreier)


class TestPointStabilizer:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("point", [0])
    def test_orbit_stabilizer_identity(self, claimed_group, n, point):
        grp = claimed_group(n)
        stab = grp.point_stabilizer(point)
        assert grp.order() == len(grp.orbit_of_point(point)) * stab.order()

    def test_stabilizer_elements_fix_the_point(self, claimed_group):
        grp = claimed_group(5)
        els = set(grp.point_stabilizer(0).elements())
        assert all(p.apply(0) == 0 and grp.contains(p) for p in els)
        assert els == set(schreier_stabilizer(grp, 0).elements())

    def test_stabilizer_of_trivial_group(self):
        grp = PermutationGroup.from_generators([Permutation.identity(9)])
        assert grp.point_stabilizer(3).order() == 1

    @pytest.mark.parametrize("make, point, first_base_point", [
        (claimed_origin_stabilizer, 1, True),
    ])
    def test_matches_the_schreier_built_group(self, make, point, first_base_point):
        grp = make(5)
        assert (grp.base[0] == point) == first_base_point
        stab = grp.point_stabilizer(point)
        assert grp.order() == len(grp.orbit_of_point(point)) * stab.order()
        assert set(stab.elements()) == set(schreier_stabilizer(grp, point).elements())

    def test_other_points_are_refused(self, claimed_group):
        grp = claimed_group(5)
        assert grp.base[0] != 7
        with pytest.raises(ValueError, match="not the first base point 0"):
            grp.point_stabilizer(7)
        with pytest.raises(ValueError, match="not the first base point 0"):
            grp.stabilizer_generators(7)

    @pytest.mark.parametrize("make, point", [
        (claimed_aut_group, 0), (claimed_origin_stabilizer, 1),
    ])
    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_first_base_point_reuses_the_tail(self, make, point, n, monkeypatch):
        grp = make(n)
        assert grp.base[0] == point
        monkeypatch.setattr(PermutationGroup, "from_generators", None)
        stab = grp.point_stabilizer(point)
        monkeypatch.undo()
        assert stab.base == grp.base[1:]
        assert stab.transversal_sizes() == grp.transversal_sizes()[1:]
        assert stab.generators == grp.stabilizer_generators(point)
        assert stab.order() * len(grp.orbit_of_point(point)) == grp.order()


class TestStabilizerGenerators:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_first_base_point_needs_no_rebuild(self, claimed_group, n, monkeypatch):
        grp = claimed_group(n)
        assert grp.base[0] == 0
        monkeypatch.setattr(PermutationGroup, "point_stabilizer", None)
        monkeypatch.setattr(bsgs._Level, "recompute_orbit", None)
        gens = grp.stabilizer_generators(0)
        monkeypatch.undo()
        assert all(p.apply(0) == 0 for p in gens)
        assert PermutationGroup.from_generators(gens).order() == grp.order() // (n * n)

    def test_regular_group_has_trivial_stabilizer(self):
        grp = PermutationGroup.from_generators(
            [translation(5, 1, 0).perm, translation(5, 0, 1).perm]
        )
        assert grp.stabilizer_generators(grp.base[0]) == []

    def test_point_out_of_range_rejected(self, claimed_group):
        with pytest.raises(ValueError):
            claimed_group(4).stabilizer_generators(16)


class TestTransversalInverse:
    def test_each_level_lists_its_transversal(self, claimed_group):
        # one element per orbit point, carrying it onto the level's base
        # point, so the points they carry there are distinct; each element
        # is in the group and fixes the earlier base points
        grp = claimed_group(5)
        for level, point in enumerate(grp.base):
            elements = list(grp._levels[level].transversal_inv.values())
            assert len({u.inverse().apply(point) for u in elements}) == len(elements)
            assert len(elements) == grp.transversal_sizes()[level]
            assert all(u in grp for u in elements)
            assert all(u.apply(b) == b for u in elements for b in grp.base[:level])


@pytest.mark.parametrize("method", ["point_stabilizer", "stabilizer_generators"])
@pytest.mark.parametrize("point", [1.5, "3", True, np.True_, None, np.float64(0.0)])
@pytest.mark.parametrize("make", [claimed_aut_group,
                                  lambda n: PermutationGroup.from_generators(
                                      [Permutation.identity(n * n)])])
def test_points_that_are_not_integers_are_refused(method, point, make):
    with pytest.raises(ValueError, match="is not an integer"):
        getattr(make(5), method)(point)


class TestElements:
    def test_elements_of_small_group(self):
        grp = PermutationGroup.from_generators(
            [coordinate_swap(4).perm, clique_rotation(4).perm]
        )
        els = grp.elements()
        assert len(els) == 6
        assert len(set(els)) == 6
        assert all(grp.contains(p) for p in els)

    def test_elements_guard(self, claimed_group):
        with pytest.raises(ValueError, match="max_size"):
            claimed_group(10).elements(max_size=100)
