import random

import numpy as np
import pytest

from cayleysrg import build_graph, from_graph6, to_dot, to_graph6
from cayleysrg.bitset import iter_bits
from cayleysrg.formats import _encode_count


def to_graph6_reference(g) -> str:
    """The per-row graph6 writer: each row's bits u < v unpacked into its
    own array, all rows concatenated and packed six bits at a time."""
    vc = g.vertex_count
    pieces = []
    for v in range(1, vc):
        col = g.adjacency[v] & ((1 << v) - 1)
        raw = col.to_bytes((v + 7) // 8, "little")
        pieces.append(np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:v])
    bits = np.concatenate(pieces) if pieces else np.zeros(0, np.uint8)
    pad = -bits.size % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, np.uint8)])
    # each group of six bits, padded to a big-endian byte, is its value << 2
    values = np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2
    return _encode_count(vc) + (values + 63).tobytes().decode("ascii")


def from_graph6_reference(text: str) -> tuple[int, list[int]]:
    """The bit-by-bit graph6 reader: the count and every body character
    range-checked in Python, then each bit u < v of row v read in turn."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    vals = [ord(ch) - 63 for ch in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("graph6 byte out of the printable range")
    if vals[0] < 63:
        vc, start = vals[0], 1
    elif len(s) >= 2 and vals[1] < 63:
        if len(s) < 4:
            raise ValueError("truncated graph6 vertex count")
        vc, start = (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    else:
        if len(s) < 8:
            raise ValueError("truncated graph6 vertex count")
        vc, start = 0, 8
        for v in vals[2:8]:
            vc = vc << 6 | v
    if vc < 1:
        raise ValueError("graph6 needs at least one vertex")
    body = s[start:]
    needed = (vc * (vc - 1) // 2 + 5) // 6
    if len(body) != needed:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {needed}")
    adjacency = [0] * vc
    pos = val = width = 0
    for v in range(1, vc):
        for u in range(v):
            if width == 0:
                val = ord(body[pos]) - 63
                pos += 1
                width = 6
            width -= 1
            if val >> width & 1:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    if width and val & ((1 << width) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    return vc, adjacency


def decoded(decode, text):
    """decode(text), or the message of the ValueError it raises."""
    try:
        return decode(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def to_dot_reference(g) -> str:
    """The row-by-row DOT writer: every row walked bit by bit."""
    n = g.n
    lines = [f"graph cayley_{n} {{"]
    for v in range(g.vertex_count):
        i, j = divmod(v, n)
        lines.append(f'  {v} [label="({i},{j})"];')
    for u in range(g.vertex_count):
        for v in iter_bits(g.adjacency[u]):
            if v > u:
                lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class FakeGraph:
    def __init__(self, vertex_count, edges, n=None):
        self.vertex_count = vertex_count
        self.n = n
        self.adjacency = [0] * vertex_count
        for u, v in edges:
            self.adjacency[u] |= 1 << v
            self.adjacency[v] |= 1 << u


def random_graph(vertex_count, seed):
    rng = random.Random(seed)
    edges = [(u, v) for v in range(vertex_count) for u in range(v) if rng.random() < 0.5]
    return FakeGraph(vertex_count, edges)


class TestGraph6:
    def test_known_small_strings(self):
        # frozen reference values for the format itself
        k4 = FakeGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert to_graph6(k4) == "C~"
        p4 = FakeGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert to_graph6(p4) == "Ch"
        c5 = FakeGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert to_graph6(c5) == "Dhc"

    # T(vc) = vc(vc - 1)/2 body bits: vc = 1..70 meets every residue of
    # T(vc) mod 6 and mod 8, and both sides of the 62/63 header boundary.
    @pytest.mark.parametrize("vertex_count", range(1, 71))
    def test_matches_reference_on_random_graphs(self, vertex_count):
        g = random_graph(vertex_count, seed=vertex_count)
        s = to_graph6(g)
        assert s == to_graph6_reference(g)
        assert from_graph6(s) == from_graph6_reference(s) == (vertex_count, g.adjacency)

    @pytest.mark.parametrize("n", [*range(4, 32), 80])
    def test_matches_reference_on_built_graphs(self, graph, n):
        g = graph(n)
        s = to_graph6(g)
        assert s == to_graph6_reference(g)
        assert from_graph6(s) == from_graph6_reference(s) == (g.vertex_count,
                                                              list(g.adjacency))

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            to_graph6(FakeGraph(0, []))

    @pytest.mark.parametrize("text", ["?", "~???", "~~??????"])
    def test_no_vertices_refused_when_read(self, text):
        # every form of the count 0 is refused, as the writer refuses it
        with pytest.raises(ValueError, match="at least one vertex"):
            from_graph6(text)

    def test_header_char_for_sixteen_vertices(self, graph):
        s = to_graph6(graph(4))
        assert s[0] == chr(63 + 16) == "O"
        assert len(s) == 1 + (16 * 15 // 2 + 5) // 6

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_round_trip(self, graph, n):
        g = graph(n)
        vc, adjacency = from_graph6(to_graph6(g))
        assert vc == g.vertex_count
        assert adjacency == list(g.adjacency)

    def test_round_trip_through_long_count(self):
        # 64 vertices forces the three-byte vertex count
        g = build_graph(8)
        s = to_graph6(g)
        assert s[:4] == "~?@?"
        vc, adjacency = from_graph6(s)
        assert vc == 64
        assert adjacency == list(g.adjacency)

    def test_prefix_accepted(self, graph):
        g = graph(4)
        assert from_graph6(">>graph6<<" + to_graph6(g))[0] == 16

    def test_wrong_body_length_rejected(self, graph):
        s = to_graph6(graph(4))
        with pytest.raises(ValueError, match="expected"):
            from_graph6(s + "A")
        with pytest.raises(ValueError, match="expected"):
            from_graph6(s[:-1])

    def test_byte_out_of_range_rejected(self, graph):
        s = to_graph6(graph(4))
        with pytest.raises(ValueError, match="printable"):
            from_graph6(s[:-1] + "!")

    def test_nonzero_padding_rejected(self):
        c5 = FakeGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        s = to_graph6(c5)
        # last char carries two padding bits; force the lowest one on
        # (padding lives in the 6-bit value, not the raw byte)
        tampered = s[:-1] + chr(((ord(s[-1]) - 63) | 1) + 63)
        with pytest.raises(ValueError, match="padding"):
            from_graph6(tampered)

    @pytest.mark.parametrize("text", [
        "", "  ", ">>graph6<<", "?", "@", "A_", "A`", "B", "Bw", "Bw?",
        "~", "~?", "~?@", "~?@?", "~~", "~~?????", "~~??????", "~~???????",
        "C~\x7f", "C~>", "Cé", "C\u20ac", "D" + "?" * 3, "Dhc", "Dhd", "Dhb",
        "~?@?" + "?" * 336,
    ])
    def test_malformed_input_matches_the_reference(self, text):
        # bad length, out-of-range byte, nonzero padding, truncated count
        assert decoded(from_graph6, text) == decoded(from_graph6_reference, text)

    @pytest.mark.parametrize("seed", range(20))
    def test_corrupted_strings_match_the_reference(self, seed):
        rng = random.Random(seed)
        s = to_graph6(random_graph(rng.randrange(1, 70), seed))
        for _ in range(20):
            i = rng.randrange(len(s) + 1)
            edit = rng.choice(["drop", "insert", "replace"])
            ch = chr(rng.randrange(32, 130))
            t = (s[:i] + s[i + 1:] if edit == "drop" else
                 s[:i] + ch + s[i:] if edit == "insert" else s[:i] + ch + s[i + 1:])
            assert decoded(from_graph6, t) == decoded(from_graph6_reference, t)

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            from_graph6("")

    def test_networkx_agrees_when_available(self, graph):
        nx = pytest.importorskip("networkx")
        for n in (4, 5):
            g = graph(n)
            G = nx.Graph()
            G.add_nodes_from(range(g.vertex_count))
            for u in range(g.vertex_count):
                for w in g.neighbors(u):
                    if w > u:
                        G.add_edge(u, w)
            assert to_graph6(g) == nx.to_graph6_bytes(G, header=False).decode().strip()


class TestDot:
    @pytest.mark.parametrize("n", range(4, 17))
    def test_matches_reference(self, graph, n):
        assert to_dot(graph(n)) == to_dot_reference(graph(n))

    def test_statement_counts_at_four(self, graph):
        text = to_dot(graph(4))
        lines = text.splitlines()
        assert lines[0] == "graph cayley_4 {"
        assert lines[-1] == "}"
        assert sum(1 for l in lines if "[label=" in l) == 16
        assert sum(1 for l in lines if " -- " in l) == 72

    def test_labels_are_residue_pairs(self, graph):
        text = to_dot(graph(5))
        assert '  0 [label="(0,0)"];' in text
        assert '  13 [label="(2,3)"];' in text

    def test_each_edge_appears_once(self, graph):
        g = graph(5)
        text = to_dot(g)
        edge_lines = [l for l in text.splitlines() if " -- " in l]
        assert len(edge_lines) == len(set(edge_lines)) == g.edge_count()
