import ast
import hashlib
import itertools
import json
import math
import random
from collections import deque
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

    # 32 up to the cap take about 30 s in all: CI counts them
    @pytest.mark.parametrize("n", range(4, 32))
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


def arcs_kept_reference(g, images) -> bool:
    """Whether a bijection carries every arc onto an arc, one arc at a time:
    the oracle for the leaf check's sorted out-neighbour rows."""
    rows = g.adjacency
    return all(rows[images[v]] >> images[w] & 1
               for v, row in enumerate(rows) for w in iter_bits(row))


def chain_digest(counts) -> str:
    """sha256 of the JSON list of (base, generator images, orbit sizes) of
    each result of enumerate_automorphisms in counts."""
    chains = [[list(found.base), [p.images.tolist() for p in found.generators],
               list(found.orbit_sizes)] for found in counts]
    return hashlib.sha256(json.dumps(chains).encode()).hexdigest()


class TestLeafAndPruning:
    def leaf_labels(self, s, images):
        """The labels that make s's leaf bijection the map with these images."""
        return [images[a] for a in s.leaf]

    @pytest.mark.parametrize("name", ["family_5", "family_6", *sorted(FIXTURES)])
    def test_leaf_accepts_exactly_the_automorphisms(self, name):
        g = build_graph(int(name[-1])) if name.startswith("family") else FIXTURES[name][0]
        s = search._Search(g)
        vc = g.vertex_count
        assert s.automorphism(s.leaf) == list(range(vc))
        for p in enumerate_automorphisms(g).generators:
            images = p.images.tolist()
            assert arcs_kept_reference(g, images)
            assert s.automorphism(self.leaf_labels(s, images)) == images
        rnd = random.Random(vc)
        for _ in range(20):
            images = list(range(vc))
            rnd.shuffle(images)
            kept = s.automorphism(self.leaf_labels(s, images))
            assert (kept == images) == arcs_kept_reference(g, images)
            assert kept in (None, images)

    def test_leaf_refuses_a_bijection_that_breaks_one_arc(self):
        # The rows of the graph of modulus 5 less the arc p(v) -> p(w), p an
        # automorphism of the graph that moves v: p carries every arc that
        # is left onto an arc but v -> w
        g = build_graph(5)
        p = enumerate_automorphisms(g).generators[0].images.tolist()
        v = next(x for x in range(25) if p[x] != x)
        w = next(iter_bits(g.adjacency[v]))
        rows = list(g.adjacency)
        rows[p[v]] &= ~(1 << p[w])
        cut = SimpleNamespace(vertex_count=25, adjacency=rows)
        broken = [(a, b) for a in range(25) for b in iter_bits(rows[a])
                  if not rows[p[a]] >> p[b] & 1]
        assert broken == [(v, w)]
        s = search._Search(cut)
        assert not arcs_kept_reference(cut, p)
        assert s.automorphism(self.leaf_labels(s, p)) is None

    # The searches extend runs, found and refused.  Pruning a refused
    # candidate's orbit cut the refusals from 9, 15 and 21.
    @pytest.mark.parametrize("n, found, refused", [(6, 4, 5), (10, 4, 5), (12, 5, 11)])
    def test_refused_candidates_prune_their_orbits(self, monkeypatch, n, found, refused):
        calls = {"found": 0, "refused": 0}
        extend = search._Search.extend

        def counted(self, level, y):
            images = extend(self, level, y)
            calls["found" if images is not None else "refused"] += 1
            return images

        monkeypatch.setattr(search._Search, "extend", counted)
        result = enumerate_automorphisms(build_graph(n))
        assert calls == {"found": found, "refused": refused}
        assert len(result.generators) == found

    # The _individualise calls of the count, and how many of them a trace
    # refused: a trace that lost information would give the same chains but
    # refuse fewer candidates, and only these counts would show it.
    @pytest.mark.parametrize("n, calls, refused", [
        (4, 11, 0), (5, 9, 0), (6, 16, 5), (7, 13, 0), (8, 18, 5), (9, 13, 2),
        (10, 16, 5), (11, 11, 0), (12, 24, 11), (13, 11, 0), (14, 16, 5),
        (15, 17, 4), (16, 20, 7), (17, 13, 0),
    ])
    def test_trace_refusals_are_pinned(self, monkeypatch, n, calls, refused):
        made = []
        individualise = search._individualise

        def counted(*args):
            found = individualise(*args)
            made.append(found is None)
            return found

        monkeypatch.setattr(search, "_individualise", counted)
        enumerate_automorphisms(build_graph(n))
        assert (len(made), sum(made)) == (calls, refused)

    def test_chains_of_the_family_are_pinned(self):
        # base, generators and orbit sizes for the graphs of modulus 4..17,
        # as the search gave them before the leaf and pruning changes
        assert chain_digest(enumerate_automorphisms(build_graph(n)) for n in range(4, 18)) == \
            "14c80fb47f0818ede7790337d7f971f88123db5a6746786fdf77c18e88b55d83"

    def test_chains_outside_the_family_are_pinned(self):
        assert chain_digest(enumerate_automorphisms(FIXTURES[name][0])
                            for name in sorted(FIXTURES)) == \
            "35c33ad4c5836904d8673199bb9889567fae0502b957b553974ebf0a0c283b9b"


def refine_by_vertices(adj, cells, active, splitters):
    """Refine the partition given by cells, every cell by its start, and
    active one reached vertex at a time, each vertex counting its arcs from
    the splitter on its own and filed into its cell's dict of fragments:
    the oracle for search._refine's counts by splitter rows.  Returns the
    refined cells and active."""
    vc = len(adj)
    into = [sum(1 << w for w in range(vc) if adj[w] >> v & 1) for v in range(vc)]
    cells = dict(cells)
    cell_of = [0] * vc
    for s, m in cells.items():
        for v in iter_bits(m):
            cell_of[v] = s
    pending = set(splitters)
    queue = deque(splitters)
    while queue and active:
        s = queue.popleft()
        pending.discard(s)
        w_mask = cells[s]
        hit = 0
        for w in iter_bits(w_mask):
            hit |= adj[w]
        hit &= active
        by_cell: dict[int, dict[int, int]] = {}
        for v in iter_bits(hit):
            groups = by_cell.setdefault(cell_of[v], {})
            k = (into[v] & w_mask).bit_count()
            groups[k] = groups.get(k, 0) | 1 << v
        for c in sorted(by_cell):
            groups = by_cell[c]
            rest = cells[c] & ~hit
            if rest:
                groups[0] = groups.get(0, 0) | rest
            counts = sorted(groups)
            sizes = [groups[k].bit_count() for k in counts]
            if len(counts) == 1:
                continue
            skip = None if c in pending else sizes.index(max(sizes))
            start = c
            for i, k in enumerate(counts):
                frag = groups[k]
                cells[start] = frag
                if start != c:
                    for v in iter_bits(frag):
                        cell_of[v] = start
                if sizes[i] == 1:
                    active &= ~frag
                if i != skip and start not in pending:
                    pending.add(start)
                    queue.append(start)
                start += sizes[i]
    return cells, active


def random_digraph(rnd):
    """A digraph on 2..14 vertices with no loops, its arcs drawn at random."""
    vc = rnd.randint(2, 14)
    density = rnd.choice([0.2, 0.4, 0.6])
    rows = [sum(1 << v for v in range(vc) if v != u and rnd.random() < density)
            for u in range(vc)]
    return SimpleNamespace(vertex_count=vc, adjacency=rows)


def relabelled(g, images):
    """The graph with vertex v renamed images[v]."""
    rows = [0] * g.vertex_count
    for v, row in enumerate(g.adjacency):
        rows[images[v]] = sum(1 << images[w] for w in iter_bits(row))
    return SimpleNamespace(vertex_count=g.vertex_count, adjacency=rows)


class TestRefinement:
    def assert_same(self, part, cells, active):
        # the cells are disjoint, so their sum is their union
        assert sum(part.cells.values()) == active
        assert part.cells == {s: m for s, m in cells.items() if m & (m - 1)}
        assert all(part.fixed[s] == m.bit_length() - 1
                   for s, m in cells.items() if not m & (m - 1))

    def check_base_path(self, g):
        """The reference refinement, run on its own from the unit
        partition along the base path, meets search._refine's partition at
        the root and after every base point is split off."""
        adj, vc = list(g.adjacency), g.vertex_count
        s = search._Search(g)
        cells, active = refine_by_vertices(adj, {0: (1 << vc) - 1},
                                           (1 << vc) - 1 if vc > 1 else 0, [0])
        for level, node in enumerate(s.nodes):
            self.assert_same(node, cells, active)
            if level == len(s.base):
                break
            c = min((m.bit_count(), start) for start, m in cells.items() if m & active)[1]
            b = next(iter_bits(cells[c]))
            assert (c, b) == (s.targets[level], s.base[level])
            rest = cells[c] & ~(1 << b)
            cells[c], cells[c + 1] = 1 << b, rest
            active &= ~(1 << b)
            if rest & (rest - 1) == 0:
                active &= ~rest
            cells, active = refine_by_vertices(adj, cells, active, [c])
        assert not active

    def check_candidate_paths(self, g):
        """Every refinement of enumerate_automorphisms, on the base path and
        on every candidate path, that gives a partition meets the reference
        refinement run from the same parent partition."""
        adj, vc = list(g.adjacency), g.vertex_count
        individualise = search._individualise
        checked = []

        def spy(rows, part, c, v, expect=None):
            cells, s = dict(part.cells), 0
            while s < vc:       # every cell by its start, singletons too
                if s in part.cells:
                    s += part.cells[s].bit_count()
                else:
                    cells[s] = 1 << part.fixed[s]
                    s += 1
            active = sum(part.cells.values())
            found = individualise(rows, part, c, v, expect)
            if found is not None:
                rest = cells[c] & ~(1 << v)
                cells[c], cells[c + 1] = 1 << v, rest
                active &= ~(1 << v)
                if rest & (rest - 1) == 0:
                    active &= ~rest
                self.assert_same(found[0], *refine_by_vertices(adj, cells, active, [c]))
                checked.append(expect is not None)
            return found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_individualise", spy)
            found = enumerate_automorphisms(g)
        assert checked.count(False) == len(found.base)
        return checked.count(True)

    @pytest.mark.parametrize("n", range(4, 18))
    def test_family_base_path_against_refining_by_vertices(self, graph, n):
        self.check_base_path(graph(n))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_family_candidate_paths_against_refining_by_vertices(self, n):
        assert self.check_candidate_paths(build_graph(n))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_candidate_paths_against_refining_by_vertices(self, name):
        self.check_candidate_paths(FIXTURES[name][0])

    def test_digraph_candidate_paths_against_refining_by_vertices(self):
        rnd = random.Random(2)
        paths = sum(self.check_candidate_paths(random_digraph(rnd))
                    for _ in range(60))
        assert paths

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_base_path_against_refining_by_vertices(self, name):
        self.check_base_path(FIXTURES[name][0])

    def test_digraph_base_paths_against_refining_by_vertices(self):
        rnd = random.Random(2)
        for _ in range(60):
            self.check_base_path(random_digraph(rnd))

    @pytest.mark.parametrize("name", ["family_7", "petersen", "digraph"])
    def test_traces_survive_relabelling(self, name):
        # The root trace, and the trace after each base point, name only
        # cell starts and counts, so a relabelled graph gives the same lists.
        g = {"family_7": build_graph(7), "petersen": FIXTURES["petersen"][0],
             "digraph": random_digraph(random.Random(3))}[name]
        vc = g.vertex_count
        images = list(range(vc))
        random.Random(7).shuffle(images)
        h = relabelled(g, images)
        traces = []
        for rows in (g.adjacency, h.adjacency):
            root = search._Partition({0: (1 << vc) - 1}, [0] * vc)
            traces.append(search._refine(list(rows), root, [0]))
        assert traces[0] == traces[1]
        s = search._Search(g)
        node = search._Search(h).nodes[0]
        for level, b in enumerate(s.base):
            node, trace = search._individualise(list(h.adjacency), node, s.targets[level],
                                                images[b])
            assert trace == s.traces[level]
        assert node.fixed == [images[v] for v in s.leaf]


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

    @pytest.mark.parametrize("rows, bad", [
        ((0b110, -1, 0b011), r"row 1 of 3 is no set"),  # iter_bits(-1) never ends
        ((0b110, 0b1101, 0b011), r"row 1 of 3 is no set"),  # a bit at vertex 3
        ((0b110, 0b101, 0b011, 0), r"row 3 of 4 is no set"),
        ((0b110, 0b101), r"row 2 is missing"),
    ], ids=["negative", "bit_past_the_last_vertex", "extra_row", "missing_row"])
    def test_malformed_rows_are_refused(self, rows, bad, monkeypatch):
        # before any search starts
        monkeypatch.setattr(search, "_Search", None)
        with pytest.raises(ValueError, match=bad):
            enumerate_automorphisms(SimpleNamespace(vertex_count=3, adjacency=rows))

    def test_directed_triangle(self):
        # the arcs 0 -> 1 -> 2 -> 0: the rotations alone
        found = enumerate_automorphisms(SimpleNamespace(vertex_count=3,
                                                        adjacency=(0b010, 0b100, 0b001)))
        assert len(found) == 3

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

