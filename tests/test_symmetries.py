import random
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

import cayleysrg.symmetries as symmetries
from cayleysrg import (
    AutomorphismError,
    CayleyGraph,
    CliqueActionLabel,
    Permutation,
    PermutationGroup,
    ZnPair,
    check_graph_automorphism,
    claimed_aut_group,
    claimed_origin_stabilizer,
    clique_action,
    clique_rotation,
    connection_set,
    coordinate_swap,
    perm_from_pair_map,
    translation,
    unit_scaling,
    units,
)
import cayleysrg.core as core
from cayleysrg.cli import analyze_report
from conftest import (
    affine_check_reference,
    automorphism_witness,
    chain_of,
    pair_map_reference,
    tampered_graphs,
)


def v(i, j, n):
    return ZnPair(i, j, n).index


class TestFactories:
    def test_translation_moves_origin(self):
        t = translation(5, 1, 2)
        assert t.perm.apply(v(0, 0, 5)) == v(1, 2, 5)
        assert t.kind == "translation" and t.params == (1, 2)

    def test_translation_normalises_arguments(self):
        assert translation(5, 6, 7).perm == translation(5, 1, 2).perm

    def test_scaling_example(self):
        assert unit_scaling(5, 2).perm.apply(v(1, 3, 5)) == v(2, 1, 5)

    def test_scaling_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            unit_scaling(6, 2)

    def test_scaling_by_one_is_identity(self):
        assert unit_scaling(7, 1).perm.is_identity()

    def test_swap_example(self):
        assert coordinate_swap(4).perm.apply(v(1, 3, 4)) == v(3, 1, 4)

    def test_rotation_example(self):
        assert clique_rotation(5).perm.apply(v(2, 3, 5)) == v(2, 4, 5)

    @pytest.mark.parametrize("bad", [1.0, np.int64(1), "1"], ids=type)
    def test_non_int_parameters_refused(self, bad):
        with pytest.raises(ValueError, match="offsets must be ints"):
            translation(5, bad, 0)
        with pytest.raises(ValueError, match="offsets must be ints"):
            translation(5, 0, bad)
        with pytest.raises(ValueError, match="factor must be an int"):
            unit_scaling(5, bad)

    @pytest.mark.parametrize("n", [*range(4, 14), 31])
    def test_maps_match_the_per_vertex_reference(self, n):
        cases = [
            (translation(n, a, b),
             lambda p, a=a, b=b: ZnPair((p.i + a) % n, (p.j + b) % n, n))
            for a, b in [(1, 0), (0, 1), (2, n - 1)]
        ]
        cases += [
            (unit_scaling(n, u), lambda p, u=u: ZnPair(u * p.i % n, u * p.j % n, n))
            for u in units(n)
        ]
        cases.append((coordinate_swap(n), lambda p: ZnPair(p.j, p.i, n)))
        cases.append((clique_rotation(n), lambda p: ZnPair(-p.j % n, (p.i - p.j) % n, n)))
        for named, fn in cases:
            assert named.perm == pair_map_reference(n, fn), named

    def test_group_is_built_without_per_vertex_pairs(self, monkeypatch):
        def refuse(v, n):
            raise AssertionError("a vertex was built as a ZnPair")

        monkeypatch.setattr(ZnPair, "from_index", refuse)
        assert claimed_aut_group(11).order() == 6 * 121 * 10

    @pytest.mark.parametrize("n", range(4, 11))
    def test_factories_build_verified_automorphisms(self, graph, n):
        g = graph(n)
        perms = [
            translation(n, 1, 0).perm,
            translation(n, 2, n - 1).perm,
            coordinate_swap(n).perm,
            clique_rotation(n).perm,
        ] + [unit_scaling(n, u).perm for u in units(n)]
        for p in perms:
            assert automorphism_witness(g, p) is None


def _neighbour_transposition(n):
    imgs = list(range(n * n))
    x, y = v(1, 0, n), v(1, 1, n)
    imgs[x], imgs[y] = imgs[y], imgs[x]
    return Permutation(imgs)


def _random_affine(n, rng):
    """x -> Mx + t for a random invertible M and a random t."""
    while True:
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        if (a * d - b * c) % n in units(n):
            break
    tx, ty = rng.randrange(n), rng.randrange(n)
    return perm_from_pair_map(n, lambda x, y: (a * x + b * y + tx, c * x + d * y + ty))


def _check_outcome(g, p):
    """check_graph_automorphism's answer: None, ("affine", pair) or
    ("not affine", vertex)."""
    try:
        check_graph_automorphism(g, p)
    except AutomorphismError as exc:
        return ("not affine" if "not affine" in str(exc) else "affine", exc.witness)
    return None


class TestAffineCheck:
    """The one automorphism check against the exhaustive row sweep."""

    @pytest.mark.parametrize("n", range(4, 14))
    def test_agrees_with_the_row_check(self, graph, n):
        g = graph(n)
        rng = random.Random(n)
        maps = [lambda x, y: (x + y, y)]
        if n % 2:
            maps.append(lambda x, y: (x, 2 * y))
        perms = [perm_from_pair_map(n, fn) for fn in maps]
        perms += [translation(n, a, b).perm for a, b in [(1, 0), (0, 1), (2, n - 1)]]
        perms += [unit_scaling(n, u).perm for u in units(n)]
        perms += [coordinate_swap(n).perm, clique_rotation(n).perm]
        perms.append(_neighbour_transposition(n))
        perms += [Permutation(rng.sample(range(n * n), n * n)) for _ in range(20)]
        perms += [_random_affine(n, rng) for _ in range(20)]
        for p in perms:
            row = automorphism_witness(g, p)
            outcome = _check_outcome(g, p)
            assert (outcome is None) == (row is None)
            if outcome is not None and outcome[0] == "affine":
                assert outcome[1] == row

    def test_non_automorphisms_and_their_witnesses(self, graph):
        double = perm_from_pair_map(5, lambda x, y: (x, 2 * y))
        shear = perm_from_pair_map(5, lambda x, y: (x + y, y))
        assert _check_outcome(graph(5), double) == ("affine", (0, 6))
        assert _check_outcome(graph(5), shear) == ("affine", (0, 1))
        assert automorphism_witness(graph(5), double) == (0, 6)
        assert automorphism_witness(graph(5), shear) == (0, 1)

    @pytest.mark.parametrize("n", range(4, 14))
    def test_non_affine_map_is_refused(self, graph, n):
        p = _neighbour_transposition(n)
        assert automorphism_witness(graph(n), p) is not None
        with pytest.raises(AutomorphismError, match="not affine") as exc:
            check_graph_automorphism(graph(n), p)
        assert exc.value.witness == v(1, 1, n)

    def test_factory_refuses_a_map_that_is_not_an_automorphism(self):
        with pytest.raises(AutomorphismError, match="not an automorphism") as exc:
            symmetries._named("shear", (), 5, lambda x, y: (x + y, y))
        assert exc.value.witness == (0, 1)

    def test_factories_build_no_graph(self, monkeypatch):
        def refuse(n):
            raise AssertionError("a factory built the graph")

        monkeypatch.setattr(symmetries, "build_graph", refuse)
        assert claimed_aut_group(11).order() == 6 * 121 * 10

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            symmetries._certify(4, [Permutation.identity(25)])


def _refusal(check, *args):
    """The class, message and witness of what check(*args) raises, or None."""
    try:
        check(*args)
    except (AutomorphismError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


def _one_at_a_time(n, perms):
    for p in perms:
        affine_check_reference(n, p)


class TestStackedCheck:
    """The stacked certificate against the check of one map at a time."""

    @staticmethod
    def bad_maps(n):
        bad = [_neighbour_transposition(n),
               perm_from_pair_map(n, lambda x, y: (x + y, y)),
               Permutation.identity((n + 1) ** 2)]
        if n % 2:
            bad.append(perm_from_pair_map(n, lambda x, y: (x, 2 * y)))
        return bad

    @pytest.mark.parametrize("n", range(4, 32))
    def test_refuses_what_one_at_a_time_refuses(self, claimed_group, graph, n):
        gens = claimed_group(n).generators
        assert _refusal(check_graph_automorphism, graph(n), *gens) is None
        assert _refusal(_one_at_a_time, n, gens) is None
        for bad in self.bad_maps(n):
            for i in range(len(gens) + 1):
                perms = gens[:i] + [bad] + gens[i:]
                want = _refusal(_one_at_a_time, n, perms)
                assert want is not None
                assert _refusal(check_graph_automorphism, graph(n), *perms) == want

    @pytest.mark.parametrize("n", [4, 5, 9, 13])
    def test_blocks_of_one_row_refuse_the_same(self, claimed_group, graph, n, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
        gens = claimed_group(n).generators
        for bad in self.bad_maps(n):
            for i in range(len(gens) + 1):
                perms = gens[:i] + [bad, bad] + gens[i:]
                assert (_refusal(check_graph_automorphism, graph(n), *perms)
                        == _refusal(_one_at_a_time, n, perms))

    def test_no_maps_pass(self, graph):
        check_graph_automorphism(graph(4))


class TestRelations:
    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12])
    def test_swap_and_rotation_orders(self, n):
        sw = coordinate_swap(n).perm
        rot = clique_rotation(n).perm
        assert (sw * sw).is_identity()
        assert (rot * rot * rot).is_identity()
        assert not rot.is_identity()

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12])
    def test_swap_conjugates_rotation_to_its_square(self, n):
        sw = coordinate_swap(n).perm
        rot = clique_rotation(n).perm
        assert sw * rot * sw == rot * rot

    @pytest.mark.parametrize("n", [4, 5, 8, 12])
    def test_scalings_commute_and_multiply(self, n):
        sw = coordinate_swap(n).perm
        rot = clique_rotation(n).perm
        for u in units(n):
            su = unit_scaling(n, u).perm
            assert su * sw == sw * su
            assert su * rot == rot * su
            for w in units(n):
                assert su * unit_scaling(n, w).perm == unit_scaling(n, u * w % n).perm

    def test_translations_form_an_abelian_square(self):
        a = translation(6, 1, 0).perm
        b = translation(6, 0, 1).perm
        assert a * b == b * a
        assert a * a * a * a * a * a == Permutation.identity(36)

    def test_conjugated_translation_is_a_translation(self, origin_stabilizer):
        t = translation(6, 2, 5).perm
        for f in origin_stabilizer(6).elements():
            c = f * t * f.inverse()
            a, b = divmod(c.apply(0), 6)
            assert c == translation(6, a, b).perm


class TestAutomorphismCheck:
    def test_transposition_of_neighbours_is_rejected(self, graph):
        g = graph(4)
        p = _neighbour_transposition(4)
        assert automorphism_witness(g, p) is not None
        with pytest.raises(AutomorphismError) as exc:
            check_graph_automorphism(g, p)
        assert exc.value.witness is not None

    def test_degree_mismatch_rejected(self, graph):
        with pytest.raises(ValueError, match="does not match"):
            check_graph_automorphism(graph(4), Permutation.identity(25))

    def test_a_map_that_is_not_a_permutation_is_named(self, graph):
        with pytest.raises(ValueError, match="must be Permutation, got list"):
            check_graph_automorphism(graph(4), [0] * 16)
        # after every map before it has passed, as for a wrong degree
        with pytest.raises(AutomorphismError):
            check_graph_automorphism(graph(4), _neighbour_transposition(4), [0] * 16)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_every_automorphism_the_oracle_finds_passes(self, graph, brute_list, n):
        for p in brute_list(n).elements:
            check_graph_automorphism(graph(n), p)


class TestGraphPremise:
    """The certificate is Babai's criterion for the graph of modulus n, so
    the graph handed in must be that graph, proved from its rows."""

    def test_tampered_graphs_are_refused_with_their_first_bad_row(self, graph):
        for g, row in tampered_graphs():
            # row 0 is intact, and the translation is an automorphism of
            # the untouched graph
            assert g.adjacency[0] == graph(g.n).adjacency[0]
            check_graph_automorphism(graph(g.n), translation(g.n, 1, 0).perm)
            for perms in ([translation(g.n, 1, 0).perm], []):
                with pytest.raises(AutomorphismError, match=f"row {row} is not S") as exc:
                    check_graph_automorphism(g, *perms)
                assert exc.value.witness == row

    def test_invariant_rows_of_another_connection_set_are_refused(self, graph):
        # the rows of graph(5) moved by (1, 0) are all translates of their
        # row 0, which is S + (1, 0), not S
        rows = graph(5).adjacency
        moved = CayleyGraph(5, connection_set(5), rows[5:] + rows[:5])
        with pytest.raises(AutomorphismError, match="row 0 is not S") as exc:
            check_graph_automorphism(moved, coordinate_swap(5).perm)
        assert exc.value.witness == 0


class TestClaimedGroups:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_group_order_formula(self, claimed_group, n):
        assert claimed_group(n).order() == 6 * n * n * units(n).totient

    @pytest.mark.parametrize("n", range(4, 11))
    def test_origin_stabilizer_order(self, origin_stabilizer, n):
        assert origin_stabilizer(n).order() == 6 * units(n).totient

    def test_group_contains_all_named_maps(self, claimed_group):
        grp = claimed_group(7)
        for p in (translation(7, 3, 4).perm, unit_scaling(7, 5).perm,
                  coordinate_swap(7).perm, clique_rotation(7).perm):
            assert grp.contains(p)

    def test_stabilizer_elements_fix_origin(self, origin_stabilizer):
        for p in origin_stabilizer(6).elements():
            assert p.apply(0) == 0

    def test_stabilizer_is_a_subgroup_of_the_claimed_group(
            self, claimed_group, origin_stabilizer):
        grp = claimed_group(8)
        for p in origin_stabilizer(8).generators:
            assert grp.contains(p)


class TestAssembledGroup:
    """claimed_aut_group assembles T x| G_0, with G_0 read off the orbit of
    its base (e_2, e_1); Schreier-Sims on the same generators is the
    oracle."""

    @pytest.mark.parametrize("n", range(4, 32))
    def test_matches_schreier_sims_at_full_degree(self, claimed_group, n):
        grp = claimed_group(n)
        ref = PermutationGroup.from_generators(grp.generators)
        assert grp.order() == ref.order()
        assert grp.base == ref.base
        assert grp.transversal_sizes() == ref.transversal_sizes()

        stab, ref_stab = (PermutationGroup.from_generators(h.stabilizer_generators(0))
                          for h in (grp, ref))
        assert stab.order() == ref_stab.order()
        assert all(ref_stab.contains(p) for p in grp.stabilizer_generators(0))
        assert all(stab.contains(p) for p in ref.stabilizer_generators(0))

        rng = random.Random(n)
        shear = perm_from_pair_map(n, lambda x, y: (x + y, y))
        for _ in range(4):
            word = Permutation.identity(n * n)
            for _ in range(6):
                word = rng.choice(grp.generators) * word
            assert grp.contains(word) and ref.contains(word)
            outsider = shear * translation(n, rng.randrange(n), rng.randrange(n)).perm
            assert not grp.contains(outsider) and not ref.contains(outsider)
            assert not grp.contains(word * outsider) and not ref.contains(word * outsider)

    @pytest.mark.parametrize("n", [*range(4, 18), 31])
    def test_no_schreier_sims_at_degree_n_squared(self, n, monkeypatch):
        # nor at any other degree: no chain the package builds is compiled
        def spy(cls, generators):
            raise AssertionError("from_generators was called")

        monkeypatch.setattr(PermutationGroup, "from_generators", classmethod(spy))
        report, failures = analyze_report(n)
        assert failures == []
        assert claimed_aut_group(n).point_stabilizer(0).order() == 6 * units(n).totient
        assert claimed_origin_stabilizer(n).order() == 6 * units(n).totient

    def test_a_generator_of_g0_that_moves_vertex_0_is_refused(self, monkeypatch):
        linear = symmetries._linear_maps
        monkeypatch.setattr(symmetries, "_linear_maps",
                            lambda n: [*linear(n), symmetries._shift(1, 1)])
        with pytest.raises(RuntimeError, match="moves vertex 0"):
            claimed_aut_group(5)

    def test_the_origin_stabilizer_refuses_a_map_that_moves_vertex_0(self, monkeypatch):
        # refused before its chain is read off the orbit of the base
        def spy(cls, generators, base):
            raise AssertionError("from_base_images was called")

        linear = symmetries._linear_maps
        monkeypatch.setattr(symmetries, "_linear_maps",
                            lambda n: [*linear(n), symmetries._shift(0, 1)])
        monkeypatch.setattr(PermutationGroup, "from_base_images", classmethod(spy))
        with pytest.raises(RuntimeError, match="a generator of G_0 moves vertex 0"):
            claimed_origin_stabilizer(7)

    @pytest.mark.parametrize("n", [*range(4, 18), 31])
    def test_each_generator_is_sifted_once(self, n, monkeypatch):
        # G_0's phi(n) + 2 inputs in its own self-check, the 2 translations
        # in the assembled group's, and no input a second time
        sifted = []
        contains = PermutationGroup.contains
        monkeypatch.setattr(PermutationGroup, "contains",
                            lambda grp, p: sifted.append(p) or contains(grp, p))
        grp = claimed_aut_group(n)
        assert len(sifted) == units(n).totient + 4
        assert sifted == [*grp.generators[2:], *grp.generators[:2]]

    def test_no_table_of_n_to_the_fourth_entries(self):
        n = 41
        tracemalloc.start()
        try:
            grp = claimed_aut_group(n)
            assert grp.point_stabilizer(0).order() == 6 * units(n).totient
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n**2 x n**2 table of int64 alone would take n**4 * 8 bytes
        assert peak < n ** 4 * 8

    def test_translations_are_built_on_request(self, claimed_group):
        transversal = claimed_group(6)._levels[0].transversal_inv
        assert not isinstance(transversal, dict) and len(transversal) == 36
        assert 36 not in transversal and "7" not in transversal and 1.5 not in transversal
        assert np.int64(7) in transversal
        assert transversal[v(2, 5, 6)] == translation(6, -2, -5).perm
        assert transversal[np.int64(v(2, 5, 6))] == translation(6, -2, -5).perm
        with pytest.raises(KeyError):
            transversal[-1]

    def test_translations_refuse_bools(self):
        transversal = symmetries._Translations(4)
        assert True not in transversal and False not in transversal
        assert 1 in transversal and np.int64(0) in transversal
        with pytest.raises(KeyError):
            transversal[True]

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_chains_match_sifting_one_at_a_time(self, claimed_group, n):
        # from_generators is the sift-and-insert Schreier-Sims, which sifts
        # one element at a time; at degree n**2 its chain of G_0 has the
        # base (e_2, e_1) and the same levels
        perms = claimed_group(n).generators
        g0 = PermutationGroup.from_generators(perms[2:])
        assert g0.base == [1, n]
        assert chain_of(claimed_origin_stabilizer(n)) == chain_of(g0)
        assert chain_of(claimed_group(n).point_stabilizer(0)) == chain_of(g0)
        ref = PermutationGroup.assemble(perms[:2], 0, symmetries._Translations(n), g0)
        assert chain_of(claimed_group(n)) == chain_of(ref) and ref.generators == perms

    @pytest.mark.parametrize("n", range(4, 32))
    def test_lifted_transversals_are_the_lifted_elements(self, claimed_group, n):
        # the levels of G_0, lifted into the assembled group as they are:
        # each transversal element is the linear map that carries its point
        # back onto the level's, fixing every earlier base point, and it is
        # the element Schreier-Sims puts there
        g0 = PermutationGroup.from_generators(claimed_origin_stabilizer(n).generators)
        lifted = claimed_group(n)._levels[1:]
        assert len(lifted) == len(g0._levels)
        x, y = np.divmod(np.arange(n * n), n)
        fixed = [0]
        for lev, small in zip(lifted, g0._levels):
            assert lev.point == small.point and lev.gens == small.gens
            assert list(lev.transversal_inv.items()) == list(small.transversal_inv.items())
            for v, u in lev.transversal_inv.items():
                assert u.apply(v) == lev.point and all(u.apply(b) == b for b in fixed)
                e1, e2 = divmod(u.apply(n), n), divmod(u.apply(1), n)
                linear = (x * e1[0] + y * e2[0]) % n * n + (x * e1[1] + y * e2[1]) % n
                assert np.array_equal(u.images, linear)
            fixed.append(lev.point)

    @pytest.mark.parametrize("n", [17, 31])
    def test_no_translation_is_built_for_a_fixed_base_point(self, n, monkeypatch):
        asked, calls = [], []
        get = symmetries._Translations.__getitem__
        monkeypatch.setattr(symmetries._Translations, "__getitem__",
                            lambda self, x: asked.append(x) or get(self, x))
        build = symmetries.perm_from_pair_map
        monkeypatch.setattr(symmetries, "perm_from_pair_map",
                            lambda *args: calls.append(args) or build(*args))
        claimed_aut_group(n)
        assert asked and 0 not in asked
        # the 2 + phi(n) + 2 generators, and one translation back to 0 for
        # each input translation
        assert len(calls) == units(n).totient + 6

    @pytest.mark.parametrize("n", [31, 61])
    def test_lifted_levels_keep_one_array_per_orbit_point(self, n):
        # Whatever a level of G_0 stores, at degree n**2 it may hold its
        # strong generators and one element per orbit point, and nothing more.
        for lev in claimed_aut_group(n)._levels[1:]:
            stored = [getattr(lev, name) for name in type(lev).__slots__]
            perms = [p for value in stored
                     for p in (value.values() if isinstance(value, Mapping) else
                               value if isinstance(value, list) else [value])
                     if isinstance(p, Permutation)]
            arrays = {id(p.images) for p in perms}
            gens = {id(g.images) for g in lev.gens}
            orbit = len(lev.transversal_inv)
            assert all(p.degree == n * n for p in perms)
            assert len({id(u.images) for u in lev.transversal_inv.values()}) == orbit
            assert len(arrays - gens) <= orbit


class TestCliqueAction:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_scalings_act_trivially(self, n):
        for u in units(n):
            assert clique_action(n, unit_scaling(n, u).perm).is_identity

    def test_swap_exchanges_the_axes(self):
        assert clique_action(5, coordinate_swap(5).perm).mapping == (1, 0, 2)

    def test_rotation_cycles_all_three(self):
        assert clique_action(5, clique_rotation(5).perm).mapping == (1, 2, 0)

    def test_a_map_that_is_not_a_permutation_is_refused_before_the_graph(
            self, monkeypatch):
        monkeypatch.setattr(symmetries, "build_graph", None)
        with pytest.raises(ValueError, match="must be a Permutation, got list"):
            clique_action(5, list(range(25)))
        with pytest.raises(ValueError, match="degree 16 does not match 25"):
            clique_action(5, Permutation.identity(16))

    def test_origin_mover_rejected(self):
        with pytest.raises(AutomorphismError, match="origin"):
            clique_action(5, translation(5, 1, 2).perm)

    def test_clique_smasher_rejected(self):
        imgs = list(range(16))
        x, y = v(1, 0, 4), v(1, 1, 4)
        imgs[x], imgs[y] = imgs[y], imgs[x]
        with pytest.raises(AutomorphismError, match="clique"):
            clique_action(4, Permutation(imgs))

    def test_label_composition_is_a_homomorphism(self, origin_stabilizer):
        els = origin_stabilizer(5).elements()
        labels = {p: clique_action(5, p) for p in els}
        for f in els:
            for g in els:
                assert labels[f * g].mapping == labels[f].compose(labels[g]).mapping

    @pytest.mark.parametrize("n", [5, 6])
    def test_kernel_is_exactly_the_scalings(self, origin_stabilizer, n):
        scalings = {unit_scaling(n, u).perm for u in units(n)}
        kernel = {
            p for p in origin_stabilizer(n).elements()
            if clique_action(n, p).is_identity
        }
        assert kernel == scalings

    def test_label_validation(self):
        with pytest.raises(ValueError, match="permutation"):
            CliqueActionLabel((0, 0, 1))
