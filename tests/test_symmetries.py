import random
import tracemalloc

import numpy as np
import pytest

import cayleysrg.graph as graph_module
import cayleysrg.symmetries as symmetries
import cayleysrg.transitivity as transitivity
from cayleysrg import (
    AffineGroup,
    AutomorphismError,
    CayleyGraph,
    CliqueActionLabel,
    Permutation,
    PermutationGroup,
    ZnPair,
    check_graph_automorphism,
    claimed_affine_group,
    claimed_aut_group,
    claimed_origin_stabilizer,
    classify_action,
    clique_action,
    clique_rotation,
    connection_set,
    coordinate_swap,
    perm_from_pair_map,
    translation,
    unit_scaling,
    units,
)
from cayleysrg.cli import analyze_report
from cayleysrg.graph import connection_indices
from conftest import (
    affine_check_reference,
    affine_form,
    automorphism_witness,
    chain_of,
    held_permutations,
    pair_map_reference,
    table_over_s,
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

    @pytest.mark.parametrize("n", [0, 3, -5])
    def test_a_modulus_below_four_is_refused_before_any_reduction(self, n):
        # translation and unit_scaling reduce their parameters mod n, which
        # at 0 would divide by zero; every factory names the modulus instead
        for make in (lambda: translation(n, 1, 2), lambda: unit_scaling(n, 1),
                     lambda: coordinate_swap(n), lambda: clique_rotation(n)):
            with pytest.raises(ValueError, match=f"modulus must be at least 4, got {n}$"):
                make()

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
                for run in ([bad], [bad, bad]):
                    perms = gens[:i] + run + gens[i:]
                    want = _refusal(_one_at_a_time, n, perms)
                    assert want is not None
                    assert _refusal(check_graph_automorphism, graph(n), *perms) == want

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

    def test_an_extra_row_is_refused(self, graph):
        # one more row, adjacent to itself, after the 25 rows of graph(5)
        rows = graph(5).adjacency + (1 << 25,)
        padded = CayleyGraph(5, connection_set(5), rows)
        with pytest.raises(AutomorphismError, match="row 25 is extra") as exc:
            check_graph_automorphism(padded, translation(5, 1, 0).perm)
        assert exc.value.witness == 25

    def test_a_missing_row_is_refused(self, graph):
        cut = CayleyGraph(5, connection_set(5), graph(5).adjacency[:16])
        with pytest.raises(AutomorphismError, match="row 16 is missing") as exc:
            check_graph_automorphism(cut, translation(5, 1, 0).perm)
        assert exc.value.witness == 16

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


class TestAffineForm:
    """claimed_affine_group, the form analyze reads, against the
    PermutationGroup path: claimed_aut_group and its chain's membership."""

    @pytest.mark.parametrize("n", [*range(4, 61), 64, 81, 120, 241, 243])
    def test_each_key_names_the_oracle_row(self, n):
        # the linear map of each key (h(e_2), h(e_1)), applied to S, gives
        # the oracle table's row, in the oracle's order: the keys name G_0's
        # elements with nothing lost or added
        hood = connection_indices(n)
        table = table_over_s(n, symmetries._on_s(n, symmetries._linear_maps(n)))
        (a2, a1), (b2, b1) = np.divmod(hood[claimed_affine_group(n).keys.T, None], n)
        x, y = np.divmod(hood, n)
        rows = symmetries._s_index(n, (x * a1 + y * a2) % n * n + (x * b1 + y * b2) % n)
        assert np.array_equal(rows, table)

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 64, 81, 101, 120, 241, 243])
    def test_orders_and_reports_match_the_permutation_group(self, claimed_group, n):
        form = claimed_affine_group(n)
        grp = claimed_group(n) if n < 200 else claimed_aut_group(n)
        assert form.degree == grp.degree == n * n
        assert form.order() == grp.order() == 6 * n * n * units(n).totient
        assert form.stabilizer_order() == grp.point_stabilizer(0).order()
        assert classify_action(form) == classify_action(affine_form(grp))

    @pytest.mark.parametrize("n", range(4, 32))
    def test_membership_agrees_with_the_chain(self, claimed_group, n):
        form, grp = claimed_affine_group(n), claimed_group(n)
        rng = random.Random(n)
        members = list(grp.generators)
        for _ in range(6):
            word = Permutation.identity(n * n)
            for _ in range(8):
                word = rng.choice(grp.generators) * word
            members.append(word)
        members += [translation(n, rng.randrange(n), rng.randrange(n)).perm for _ in range(4)]
        shear = perm_from_pair_map(n, lambda x, y: (x + y, y))
        transpositions = [list(range(n * n)) for _ in range(2)]
        transpositions[0][1], transpositions[0][2] = 2, 1
        # (0, 2) and (0, 3) fix 0, e_2 = 1 and e_1 = n: only the affine check
        # tells the second transposition, and the second bijection below,
        # from the identity
        transpositions[1][2], transpositions[1][3] = 3, 2
        outsiders = [
            shear,
            shear * translation(n, rng.randrange(n), rng.randrange(n)).perm,
            *map(Permutation, transpositions),
            # bijections that are not affine
            perm_from_pair_map(n, lambda x, y: (x, y + x * x)),
            perm_from_pair_map(n, lambda x, y: (x, y + x * x - x)),
        ]
        if n % 2:
            # affine, its linear part carrying e_2 and e_1 into S, and no row
            outsiders.append(perm_from_pair_map(n, lambda x, y: (x, 2 * y)))
        for p in members:
            assert form.contains(p) and p in form and grp.contains(p)
        for p in outsiders:
            assert not form.contains(p) and p not in form and not grp.contains(p)
        # the stacked check: one outsider anywhere in the stack refuses it
        assert form.contains_all(members) and form.contains_all([])
        for i, p in enumerate(outsiders):
            assert not form.contains_all(members[:i] + [p] + members[i:])
        with pytest.raises(ValueError, match="degree mismatch"):
            form.contains(Permutation.identity(n * n + 1))
        with pytest.raises(ValueError, match="degree mismatch"):
            form.contains_all(members + [Permutation.identity(n * n + 1)])

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 12, 31])
    def test_the_certificate_refuses_the_shear_and_a_singular_map(self, n):
        # the shear carries (1, 1) off S, with the witness the affine check
        # gives its permutation; (x, y) -> (x, x) carries (0, 1) onto 0
        shear = ((1, 1), (0, 1))
        with pytest.raises(AutomorphismError, match="not an automorphism") as exc:
            AffineGroup(n, [*symmetries._linear_maps(n), shear])
        assert exc.value.witness == (0, 1) == _refusal(
            symmetries._certify, n, [perm_from_pair_map(n, symmetries._matrix_map(shear))])[2]
        with pytest.raises(AutomorphismError, match="not an automorphism") as exc:
            AffineGroup(n, [((1, 0), (1, 0))])
        assert exc.value.witness == (0, 0)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 31])
    def test_the_certificate_refuses_a_map_into_s_that_is_not_onto(self, n):
        # (x, y) -> (0, x + y) carries S into S at odd n, (i, i) onto
        # (0, 2i), but not onto it: two images are equal, and (1, 0) = n is
        # the least vertex of S it misses
        with pytest.raises(AutomorphismError, match="not an automorphism") as exc:
            AffineGroup(n, [((0, 0), (1, 1))])
        assert exc.value.witness == (0, n)

    def test_the_keys_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            claimed_affine_group(7).keys[0, 0] = 1


class TestAssembledGroup:
    """claimed_aut_group names the chain of T x| G_0 to from_levels, with
    G_0's levels read off its keys; Schreier-Sims on the same
    generators is the oracle."""

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
        # G_0's inputs are matrices, which fix vertex 0: a translation, a
        # pair map, is refused as no matrix, and so is an affine map written
        # as a 2 x 3 matrix, which np.reshape alone would not catch
        linear = symmetries._linear_maps
        for bad in (symmetries._shift(1, 1), ((1, 0, 1), (0, 1, 1))):
            monkeypatch.setattr(symmetries, "_linear_maps", lambda n: [*linear(n), bad])
            with pytest.raises(ValueError, match="a generator of G_0 must be a 2 x 2 matrix"):
                claimed_aut_group(5)

    def test_the_origin_stabilizer_refuses_a_map_that_moves_vertex_0(self, monkeypatch):
        # refused before its keys are closed
        def spy(n, steps):
            raise AssertionError("_keys_over_s was called")

        linear = symmetries._linear_maps
        monkeypatch.setattr(symmetries, "_linear_maps",
                            lambda n: [*linear(n), symmetries._shift(0, 1)])
        monkeypatch.setattr(symmetries, "_keys_over_s", spy)
        with pytest.raises(ValueError, match="moves vertex 0"):
            claimed_origin_stabilizer(7)

    def test_a_linear_input_that_carries_s_off_s_is_refused(self, monkeypatch):
        # G_0's inputs are matrices, so each fixes vertex 0; the shear
        # (x, y) -> (x + y, y) among them carries (1, 1) off S, and the form
        # and both claimed groups refuse it before G_0's keys are closed
        def spy(n, steps):
            raise AssertionError("_keys_over_s was called")

        linear = symmetries._linear_maps
        monkeypatch.setattr(symmetries, "_linear_maps", lambda n: [*linear(n), ((1, 1), (0, 1))])
        monkeypatch.setattr(symmetries, "_keys_over_s", spy)
        for build in (claimed_affine_group, claimed_aut_group, claimed_origin_stabilizer):
            with pytest.raises(AutomorphismError, match="not an automorphism") as exc:
                build(7)
            assert exc.value.witness == (0, 1)

    def test_a_modulus_past_the_cap_is_refused_before_g0_is_certified(self, monkeypatch):
        # past the cap of 1000, where the closure's arrays over the k**2
        # possible keys would grow to 4.5 GB at 10007, every builder of the group and classify refuse the modulus
        # before G_0's matrices are read; so is a modulus below 4
        def spy(*args):
            raise AssertionError("G_0 was certified or closed")

        monkeypatch.setattr(symmetries, "_on_s", spy)
        monkeypatch.setattr(symmetries, "_keys_over_s", spy)
        for n, match in ((1001, "exceeds the group side's cap 1000"), (3, "at least 4")):
            for build in (AffineGroup, claimed_affine_group, claimed_aut_group,
                          claimed_origin_stabilizer, transitivity.classify):
                with pytest.raises(ValueError, match=match):
                    build(n) if build is not AffineGroup else build(n, [])

    def test_a_set_that_misses_a_scaling_fails_the_order_checks(self, monkeypatch):
        # U(15) needs the scalings by 2 and 7: without 7 the keys, and so
        # the chain, lists only a G_0 of order 24, which the scaling by 7 is
        # outside; that chain is consistent, so the report's order checks
        # are what refuse it
        greedy = symmetries._unit_generators
        assert greedy(15) == [2, 7]
        monkeypatch.setattr(symmetries, "_unit_generators", lambda n: greedy(n)[:-1])
        _, failures = analyze_report(15)
        assert {"claimed_group_order", "stabilizer_order"} <= set(failures)
        assert claimed_origin_stabilizer(15).order() == 24
        assert unit_scaling(15, 7).perm not in claimed_aut_group(15)

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101, 120, 168, 240])
    def test_every_unit_scaling_is_a_member(self, claimed_group, n):
        # the inputs hold the scalings by _unit_generators(n) alone, so this
        # is what shows that every other unit scaling is in the group
        grp = claimed_group(n)
        assert all(unit_scaling(n, u).perm in grp for u in units(n))

    def test_the_unit_generators_generate_the_units(self):
        # by closure on residues, for every modulus up to the analyze cap,
        # 1000; they are at most 4 units, so at most 6 maps, but at 840,
        # where they are 5
        for n in range(2, 1001):
            gens = symmetries._unit_generators(n)
            reached, todo = {1}, [1]
            while todo:
                h = todo.pop()
                fresh = {h * u % n for u in gens} - reached
                reached |= fresh
                todo.extend(fresh)
            assert reached == set(units(n)), n
            assert len(gens) <= (5 if n == 840 else 4), n

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_the_stabilizer_and_the_engine_list_the_same_table(self, claimed_group, n,
                                                              monkeypatch):
        # G_0's table of keys: the one claimed_origin_stabilizer reads its
        # chain off, and the one the bridge closes from the claimed group's
        # next level
        engine = affine_form(claimed_group(n)).keys
        closed = []
        close = symmetries._keys_over_s
        monkeypatch.setattr(symmetries, "_keys_over_s",
                            lambda *args: closed.append(close(*args)) or closed[-1])
        g0 = claimed_origin_stabilizer(n)
        (own,) = closed
        assert len(own) == len(engine) == g0.order() == 6 * units(n).totient
        assert np.array_equal(np.unique(own, axis=0), np.unique(engine, axis=0))
        assert len(np.unique(own, axis=0)) == len(own)

    @pytest.mark.parametrize("n", [*range(4, 18), 31])
    def test_each_generator_is_sifted_once(self, n, monkeypatch):
        # the 2 translations and G_0's generating set, the scalings by
        # _unit_generators(n), the swap and the rotation, in the order of
        # the generators, in the one self-check of from_levels, and no
        # input a second time
        sifted = []
        contains = PermutationGroup.contains
        monkeypatch.setattr(PermutationGroup, "contains",
                            lambda grp, p: sifted.append(p) or contains(grp, p))
        grp = claimed_aut_group(n)
        assert len(sifted) == len(symmetries._unit_generators(n)) + 4
        assert sifted == grp.generators

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

    @pytest.mark.parametrize("n", [61, 101])
    def test_memory_does_not_grow_with_phi(self, n):
        # no level stores G_0's 3 phi(n) transversal elements of degree
        # n**2, so the peak stays below 100 arrays of n**2 int64: about 54
        # at both moduli, phi = 60 and 100, where a stored transversal took
        # 256 and 415
        tracemalloc.start()
        try:
            grp = claimed_aut_group(n)
            assert grp.point_stabilizer(0).order() == 6 * units(n).totient
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * n * n * 8

    def test_translations_are_built_on_request(self, claimed_group):
        transversal = claimed_group(6)._levels[0].transversal_inv
        assert not isinstance(transversal, dict) and len(transversal) == 36
        assert 36 not in transversal and "7" not in transversal and 1.5 not in transversal
        assert np.int64(7) in transversal
        assert transversal[v(2, 5, 6)] == translation(6, -2, -5).perm
        assert transversal[np.int64(v(2, 5, 6))] == translation(6, -2, -5).perm
        with pytest.raises(KeyError):
            transversal[-1]

    def test_translations_refuse_bools(self, claimed_group):
        # and so does G_0's transversal at e_2, where True would be e_2 = 1
        first, level = (lev.transversal_inv for lev in claimed_group(4)._levels[:2])
        for transversal in (first, level):
            assert True not in transversal and False not in transversal
            with pytest.raises(KeyError):
                transversal[True]
        assert 1 in first and np.int64(0) in first
        assert 1 in level and np.int64(1) in level

    def test_the_transversal_at_e2_is_built_on_request(self, claimed_group):
        # G_0's level at e_2 = 1: at the prime 7 its orbit is all of S, and
        # each member x maps to a linear map fixing 0 that carries x onto
        # e_2; any other point, a vertex or not, is refused
        n = 7
        transversal = claimed_group(n)._levels[1].transversal_inv
        assert not isinstance(transversal, dict)
        assert sorted(transversal) == connection_indices(n).tolist()
        for x, u in transversal.items():
            assert u.apply(x) == 1 and u.apply(0) == 0 and u in claimed_group(n)
        assert transversal[np.int64(2)] == transversal[2]
        for bad in (0, 2 * n + 3, n * n, -1, "1", 1.5, None):
            assert bad not in transversal
        with pytest.raises(KeyError):
            transversal[0]
        with pytest.raises(KeyError):
            transversal[n * n]

    @pytest.mark.parametrize("n", [*range(4, 42), 61, 101])
    def test_chains_match_sifting_one_at_a_time(self, claimed_group, n):
        # from_generators is the sift-and-insert Schreier-Sims, which sifts
        # one element at a time; at degree n**2 its chain of G_0 has the
        # base (e_2, e_1) and the same levels, strong generators and
        # orbits.  G_0's first transversal is built on request, so its
        # elements are checked by what they do: each carries its point onto
        # e_2, and it is in the Schreier-Sims group
        perms = claimed_group(n).generators
        g0 = PermutationGroup.from_generators(perms[2:])
        assert g0.base == [1, n]
        assert chain_of(claimed_origin_stabilizer(n)) == chain_of(g0)
        assert chain_of(claimed_group(n).point_stabilizer(0)) == chain_of(g0)
        back = symmetries._OnRequest(n * n, range(n * n),
                                     lambda x: translation(n, -(x // n), -x).perm)
        first = (0, [*perms[:2], *g0._levels[0].gens], back)
        ref = PermutationGroup.from_levels(
            perms, [first, *((lev.point, lev.gens) for lev in g0._levels)], n * n * g0.order())
        assert chain_of(claimed_group(n)) == chain_of(ref) and ref.generators == perms
        for lev in claimed_origin_stabilizer(n)._levels:
            assert all(u.apply(x) == lev.point and u in g0
                       for x, u in lev.transversal_inv.items())

    @pytest.mark.parametrize("n", range(4, 32))
    def test_lifted_transversals_are_the_lifted_elements(self, claimed_group, n):
        # the levels of G_0, lifted into the claimed group as they are, with
        # the orbits Schreier-Sims finds: each transversal element is a
        # linear map in G_0 that carries its point back onto the level's,
        # fixing every earlier base point
        g0 = PermutationGroup.from_generators(claimed_origin_stabilizer(n).generators)
        lifted = claimed_group(n)._levels[1:]
        assert len(lifted) == len(g0._levels)
        x, y = np.divmod(np.arange(n * n), n)
        fixed = [0]
        for lev, small in zip(lifted, g0._levels):
            assert lev.point == small.point and lev.gens == small.gens
            assert set(lev.transversal_inv) == set(small.transversal_inv)
            for v, u in lev.transversal_inv.items():
                assert u.apply(v) == lev.point and all(u.apply(b) == b for b in fixed)
                assert u in g0
                e1, e2 = divmod(u.apply(n), n), divmod(u.apply(1), n)
                linear = (x * e1[0] + y * e2[0]) % n * n + (x * e1[1] + y * e2[1]) % n
                assert np.array_equal(u.images, linear)
            fixed.append(lev.point)

    @pytest.mark.parametrize("n", [17, 31])
    def test_no_translation_is_built_for_a_fixed_base_point(self, n, monkeypatch):
        # nor any element of G_0's transversal at e_2: a transversal built
        # on request is asked only for points other than its base point
        asked, calls = [], []
        get = symmetries._OnRequest.__getitem__
        monkeypatch.setattr(symmetries._OnRequest, "__getitem__",
                            lambda self, x: asked.append((self, x)) or get(self, x))
        build = symmetries.perm_from_pair_map
        monkeypatch.setattr(symmetries, "perm_from_pair_map",
                            lambda *args: calls.append(args) or build(*args))
        grp = claimed_aut_group(n)
        points = {id(lev.transversal_inv): lev.point for lev in grp._levels}
        assert asked and all(x != points[id(t)] for t, x in asked)
        # the 2 + m generators, m = len(_linear_maps(n)); the flip fixing
        # e_2; one translation back to 0 for each input translation; and
        # one element at e_2 for each linear input, as none fixes e_2
        m = len(symmetries._linear_maps(n))
        assert len(calls) == (2 + m) + 1 + 2 + m

    @pytest.mark.parametrize("n", [31, 61])
    def test_lifted_levels_keep_one_array_per_orbit_point(self, n):
        # Whatever a level of G_0 stores, at degree n**2 it may hold its
        # strong generators and one element per orbit point, and nothing
        # more; the level at e_2 builds its elements on request, so it holds
        # its strong generators alone
        at_e2, at_e1 = claimed_aut_group(n)._levels[1:]
        for lev in (at_e2, at_e1):
            held = held_permutations(lev)
            arrays = {id(p.images) for p in held}
            gens = {id(g.images) for g in lev.gens}
            assert all(p.degree == n * n for p in held)
            assert len(arrays - gens) <= len(lev.transversal_inv)
        assert {id(p.images) for p in held_permutations(at_e2)} == {
            id(g.images) for g in at_e2.gens}


class TestCliqueAction:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_scalings_act_trivially(self, n):
        for u in units(n):
            assert clique_action(n, unit_scaling(n, u).perm).is_identity

    def test_swap_exchanges_the_axes(self):
        assert clique_action(5, coordinate_swap(5).perm).mapping == (1, 0, 2)

    def test_rotation_cycles_all_three(self):
        assert clique_action(5, clique_rotation(5).perm).mapping == (1, 2, 0)

    @pytest.mark.parametrize("n", [241, 997])
    def test_cliques_past_the_build_cap(self, n):
        for u in (2, 3, n - 1):
            assert clique_action(n, unit_scaling(n, u).perm).is_identity
        assert clique_action(n, coordinate_swap(n).perm).mapping == (1, 0, 2)
        assert clique_action(n, clique_rotation(n).perm).mapping == (1, 2, 0)

    @staticmethod
    def forbid_builds(monkeypatch):
        """Make every build of a graph fail the test, through either module."""
        def build(n):
            raise AssertionError(f"built the graph of modulus {n}")
        monkeypatch.setattr(graph_module, "build_graph", build)
        monkeypatch.setattr(symmetries, "build_graph", build)

    def test_a_map_that_is_not_a_permutation_is_refused_before_the_graph(
            self, monkeypatch):
        self.forbid_builds(monkeypatch)
        with pytest.raises(ValueError, match="must be a Permutation, got list"):
            clique_action(5, list(range(25)))
        with pytest.raises(ValueError, match="degree 16 does not match 25"):
            clique_action(5, Permutation.identity(16))
        assert clique_action(5, coordinate_swap(5).perm).mapping == (1, 0, 2)

    def test_origin_mover_rejected(self):
        with pytest.raises(AutomorphismError, match="origin"):
            clique_action(5, translation(5, 1, 2).perm)

    def test_origin_mover_is_refused_before_the_graph(self, monkeypatch):
        self.forbid_builds(monkeypatch)
        with pytest.raises(AutomorphismError, match="origin"):
            clique_action(200, translation(200, 1, 2).perm)

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
