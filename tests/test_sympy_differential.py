"""The order of the claimed group, checked against sympy's Schreier-Sims."""

import pytest

from cayleysrg import claimed_aut_group, units
from cayleysrg.symmetries import _unit_generators

combinatorics = pytest.importorskip("sympy.combinatorics")


@pytest.mark.parametrize("n", [*range(4, 14), 17, 30, 31])
def test_order_of_the_claimed_generators(n):
    gens = [combinatorics.Permutation(p.images.tolist())
            for p in claimed_aut_group(n).generators]
    # the two translations and G_0's generating set, _linear_maps(n): the
    # order sympy finds is the evidence that this short set generates G
    assert len(gens) == len(_unit_generators(n)) + 4
    assert combinatorics.PermutationGroup(gens).order() == 6 * n * n * units(n).totient
