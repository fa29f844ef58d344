"""The order of the claimed group, checked against sympy's Schreier-Sims."""

import pytest

from cayleysrg import claimed_aut_group, units

combinatorics = pytest.importorskip("sympy.combinatorics")


@pytest.mark.parametrize("n", [*range(4, 14), 17, 30, 31])
def test_order_of_the_claimed_generators(n):
    gens = [combinatorics.Permutation(p.images.tolist())
            for p in claimed_aut_group(n).generators]
    assert len(gens) == units(n).totient + 4
    assert combinatorics.PermutationGroup(gens).order() == 6 * n * n * units(n).totient
