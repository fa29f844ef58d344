import ast
import itertools
import math
import random
from types import SimpleNamespace
from pathlib import Path

import pytest

import cayleysrg.search as search
from cayleysrg import (
    BRUTE_FORCE_MAX_MODULUS,
    Permutation,
    build_graph,
    enumerate_automorphisms,
    units,
)
from cayleysrg.bitset import bfs_layers, iter_bits
from cayleysrg.core import orbits
from conftest import automorphism_witness

# Orders the enumeration must reproduce: 6 * n**2 * phi(n).
EXPECTED_COUNTS = {4: 192, 5: 600, 6: 432}


# Oracle for the stabiliser-chain count: list every automorphism by
# backtracking over vertex images.

def exhaustive_automorphisms(g) -> list[Permutation]:
    """Every automorphism of a connected graph, by exhaustive backtracking.

    Vertices are assigned images in BFS order from vertex 0, layer by layer
    and ascending within a layer.  Each unassigned vertex keeps a candidate
    bitmask; assigning an image intersects every candidate set with the
    neighbourhood (or the complement) of the chosen image, so any partial
    map that disagrees with adjacency dies as soon as the disagreement
    appears.
    """
    vc = g.vertex_count
    adj = g.adjacency
    full = (1 << vc) - 1
    order = [v for layer in bfs_layers(adj, 0) for v in iter_bits(layer)]
    assert len(order) == vc, "the backtracker needs a connected graph"
    images = [0] * vc
    found: list[Permutation] = []

    def extend(depth: int, cand: list[int]) -> None:
        if depth == vc:
            found.append(Permutation(images))
            return
        v = order[depth]
        rest = order[depth + 1:]
        for w in iter_bits(cand[0]):
            adj_w = adj[w]
            non_adj_w = full & ~adj_w & ~(1 << w)
            narrowed: list[int] = []
            alive = True
            for off, x in enumerate(rest, start=1):
                nxt = cand[off] & (adj_w if adj[v] >> x & 1 else non_adj_w)
                if nxt == 0:
                    alive = False
                    break
                narrowed.append(nxt)
            if not alive:
                continue
            images[v] = w
            extend(depth + 1, narrowed)

    extend(0, [full] * vc)
    return found


class Plain:
    """A graph outside the family: vertex_count and adjacency bitmasks,
    the only attributes the search reads."""

    def __init__(self, vertex_count, edges):
        self.vertex_count = vertex_count
        rows = [0] * vertex_count
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.adjacency = tuple(rows)


def _cycle(k):
    return [(i, (i + 1) % k) for i in range(k)]


def _lcf(k, jumps):
    return _cycle(k) + [(i, (i + jumps[i % len(jumps)]) % k) for i in range(k)]


FIXTURES = {
    "petersen": (Plain(10, _cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]), 120),
    "frucht": (Plain(12, _lcf(12, [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])), 1),
    "cycle_8": (Plain(8, _cycle(8)), 16),
    "k33": (Plain(6, [(a, b) for a in range(3) for b in range(3, 6)]), 72),
}


class TestEnumeration:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_counts(self, brute_list, n):
        assert len(brute_list(n)) == EXPECTED_COUNTS[n]
        assert len(brute_list(n)) == 6 * n * n * units(n).totient

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_element_is_an_automorphism(self, brute_list, graph, n):
        g = graph(n)
        for p in brute_list(n).elements:
            assert automorphism_witness(g, p) is None

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_no_duplicates_and_identity_present(self, brute_list, n):
        els = brute_list(n).elements
        assert len(set(els)) == len(els)
        assert any(p.is_identity() for p in els)

    @pytest.mark.parametrize("n", [4, 5])
    def test_closed_under_composition_and_inverse(self, brute_list, n):
        els = set(brute_list(n).elements)
        for p in els:
            assert p.inverse() in els
        listed = sorted(els, key=hash)
        for p in listed:
            for q in listed:
                assert p * q in els

    def test_inverse_closure_at_six(self, brute_list):
        els = set(brute_list(6).elements)
        for p in els:
            assert p.inverse() in els

    def test_deterministic_output(self, graph):
        g = graph(4)
        first = enumerate_automorphisms(g)
        second = enumerate_automorphisms(g)
        assert first.elements == second.elements

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_automorphisms(build_graph(BRUTE_FORCE_MAX_MODULUS + 1))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_claimed_group_membership(self, brute_list, claimed_group, n):
        grp = claimed_group(n)
        found = brute_list(n)
        assert len(found) == grp.order()
        assert all(grp.contains(p) for p in found.elements)


class TestStabiliserChain:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_chain_products_are_the_exhaustive_list(self, graph, brute_list, n):
        exhaustive = exhaustive_automorphisms(graph(n))
        assert len(exhaustive) == EXPECTED_COUNTS[n]
        assert set(brute_list(n).elements) == set(exhaustive)

    @pytest.mark.parametrize("n", range(4, BRUTE_FORCE_MAX_MODULUS + 1))
    def test_count_is_the_predicted_order(self, graph, n):
        found = enumerate_automorphisms(graph(n))
        assert len(found) == 6 * n * n * units(n).totient

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_basic_orbits_form_a_chain(self, graph, n):
        g = graph(n)
        found = enumerate_automorphisms(g)
        assert len(found.orbit_sizes) == len(found.base)
        assert len(found) == math.prod(found.orbit_sizes)
        images = [p.images.tolist() for p in found.generators]
        for level, size in enumerate(found.orbit_sizes):
            fixing = [img for img in images
                      if all(img[b] == b for b in found.base[:level])]
            assert len(orbits(fixing, [(found.base[level],)])[0]) == size
        for p in found.generators:
            assert automorphism_witness(g, p) is None

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_deterministic_chain(self, n):
        first = enumerate_automorphisms(build_graph(n))
        second = enumerate_automorphisms(build_graph(n))
        assert first.base == second.base
        assert first.generators == second.generators
        assert first.orbit_sizes == second.orbit_sizes

    def test_generators_at_seven(self, graph):
        # orbits 49, 18 and 2 along the base, reached by 5 automorphisms
        found = enumerate_automorphisms(graph(7))
        assert found.orbit_sizes == (49, 18, 2)
        assert len(found.generators) == 5

    def test_search_shares_nothing_with_the_group_engine(self):
        tree = ast.parse(Path(search.__file__).read_text())
        imported = set()
        from_package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
                if node.level:
                    from_package.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        parts = {part for name in imported for part in name.split(".")}
        assert not parts & {"symmetries", "bsgs", "transitivity", "numpy"}, imported
        assert from_package == {"core.Permutation", "core.orbits", "bitset.iter_bits"}


class TestOutsideTheFamily:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_count(self, name):
        g, order = FIXTURES[name]
        found = enumerate_automorphisms(g)
        assert len(found) == order
        assert len(set(found.elements)) == order
        assert set(found.elements) == set(exhaustive_automorphisms(g))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_element_is_an_automorphism(self, name):
        g, _ = FIXTURES[name]
        rows = g.adjacency
        for p in enumerate_automorphisms(g).elements:
            img = p.images.tolist()
            for v in range(g.vertex_count):
                assert rows[img[v]] == sum(1 << img[w] for w in iter_bits(rows[v]))

    def test_frucht_has_only_the_identity(self):
        g, _ = FIXTURES["frucht"]
        found = enumerate_automorphisms(g)
        assert found.generators == ()
        assert found.elements == (Permutation.identity(12),)

    def test_single_vertex(self):
        found = enumerate_automorphisms(Plain(1, []))
        assert found.base == ()
        assert len(found) == 1
        assert found.elements == (Permutation.identity(1),)

    def test_empty_graph_refused(self):
        with pytest.raises(ValueError, match="need at least one vertex"):
            enumerate_automorphisms(Plain(0, []))

    def test_digraphs_against_every_permutation(self):
        # Rows that are not symmetric: refinement meets vertices that a
        # splitter reaches but that have no out-neighbour in it.
        rnd = random.Random(1)
        for _ in range(60):
            vc = rnd.randint(2, 6)
            rows = [sum(1 << v for v in range(vc) if v != u and rnd.random() < 0.4)
                    for u in range(vc)]
            expected = {
                p for p in itertools.permutations(range(vc))
                if all(rows[p[u]] == sum(1 << p[v] for v in iter_bits(rows[u]))
                       for u in range(vc))
            }
            found = enumerate_automorphisms(SimpleNamespace(vertex_count=vc, adjacency=rows))
            assert len(found) == len(expected), rows
            assert {tuple(p.images.tolist()) for p in found.elements} == expected, rows

