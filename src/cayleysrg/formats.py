"""graph6 and DOT serialisation.

graph6 writes a vertex count in 6-bit chunks offset by 63, then the upper
triangle of the adjacency matrix read column by column: for v = 1, 2, ...
the bits u < v of row v, in order, as one bit stream.  Row v starts at
offset T(v) = v(v - 1)/2 of the stream.

The writer builds the whole stream as one Python int, merging the two
halves of each run of rows as lo | hi << (T(mid) - T(lo)); that is about
log2(vc) passes over T(vc) bits.  The body is the stream cut into 6-bit
groups, big-endian, each offset by 63, which is base64 of the stream with
each byte read from its top bit, in another alphabet.  So the writer takes
the stream's little-endian bytes, reverses the bits of each, encodes them
with binascii, keeps the first ceil(T(vc)/6) characters (the padding bits
are zero) and maps the base64 alphabet onto chr(63..126).

The decoder is strict, it rejects bad lengths, out-of-range bytes and
nonzero padding.  It shares no code with the writer: it lists the set bits
of the body, turns each into its edge by a search in the row offsets, and
packs both ends of every edge into rows, so a round trip certifies the
writer."""

from __future__ import annotations

import binascii

import numpy as np

from .bitset import bit_positions

__all__ = ["to_graph6", "from_graph6", "to_dot"]

_OFFSET = 63
# Byte b with its eight bits in reverse order.
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# The base64 alphabet onto the graph6 bytes chr(63..126), value for value.
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(_OFFSET, _OFFSET + 64)),
)
# Rows the DOT writer unpacks at once: the edge arrays of one block stay
# small while each format call still covers thousands of edges.
_DOT_BLOCK = 512


def _encode_count(vc: int) -> str:
    if vc <= 62:
        return chr(_OFFSET + vc)
    if vc <= 258047:
        return "~" + "".join(
            chr(_OFFSET + (vc >> shift & 63)) for shift in (12, 6, 0)
        )
    if vc <= 68719476735:
        return "~~" + "".join(
            chr(_OFFSET + (vc >> shift & 63)) for shift in (30, 24, 18, 12, 6, 0)
        )
    raise ValueError(f"{vc} vertices cannot be written in graph6")


def _stream(adjacency, lo: int, hi: int) -> int:
    """Rows lo..hi-1 as one bit stream: row v's bits u < v at offset
    T(v) - T(lo), merged by halves."""
    if hi - lo == 1:
        return adjacency[lo] & ((1 << lo) - 1)
    mid = (lo + hi) // 2
    offset = (mid * (mid - 1) - lo * (lo - 1)) // 2
    return _stream(adjacency, lo, mid) | _stream(adjacency, mid, hi) << offset


def to_graph6(g) -> str:
    """Encode a graph (vertex_count plus adjacency bitmasks) as graph6."""
    vc = g.vertex_count
    if vc < 1:
        raise ValueError("graph6 needs at least one vertex")
    nbits = vc * (vc - 1) // 2
    raw = _stream(g.adjacency, 0, vc).to_bytes((nbits + 7) // 8, "little")
    body = binascii.b2a_base64(raw.translate(_REVERSE_BITS), newline=False)
    del raw  # one copy of the stream fewer while the body is copied twice
    body = body[:(nbits + 5) // 6].translate(_BASE64_TO_GRAPH6)
    return _encode_count(vc) + body.decode("ascii")


def _decode_count(vals: np.ndarray) -> tuple[int, int]:
    """Vertex count and the index where the adjacency body starts, from the
    6-bit values of the string."""
    head = vals[:8].tolist()
    if head[0] < 63:
        return head[0], 1
    lo, start = (1, 4) if len(head) >= 2 and head[1] < 63 else (2, 8)
    if len(head) < start:
        raise ValueError("truncated graph6 vertex count")
    vc = 0
    for v in head[lo:start]:
        vc = vc << 6 | v
    return vc, start


def from_graph6(text: str) -> tuple[int, list[int]]:
    """Decode graph6 into (vertex_count, adjacency bitmasks).

    The optional ">>graph6<<" prefix is allowed; anything else malformed
    is rejected, and so is a graph with no vertices, which to_graph6 does
    not write.  The set bits of the body are found with numpy, bit p of
    the stream is the edge u < v with T(v) <= p = T(v) + u < T(v + 1), and
    each edge sets its bit in both rows of a packed matrix.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    raw = np.frombuffer(s.encode("ascii"), dtype=np.uint8) if s.isascii() else None
    if raw is None or raw.min() < _OFFSET or raw.max() > _OFFSET + 63:
        raise ValueError("graph6 byte out of the printable range")
    vals = raw - _OFFSET
    vc, start = _decode_count(vals)
    if vc < 1:
        raise ValueError("graph6 needs at least one vertex")
    body = vals[start:]
    nbits = vc * (vc - 1) // 2
    needed = (nbits + 5) // 6
    if body.size != needed:
        raise ValueError(f"graph6 body has {body.size} bytes, expected {needed}")
    # each 6-bit value shifted to the top of its byte, unpacked high bit first
    at = np.flatnonzero(np.unpackbits(body << 2))
    at = at // 8 * 6 + at % 8
    if at.size and at[-1] >= nbits:
        raise ValueError("nonzero padding bits in graph6 body")
    firsts = np.arange(vc, dtype=np.int64) * np.arange(-1, vc - 1) // 2
    v = np.searchsorted(firsts, at, side="right") - 1
    u = at - firsts[v]
    width = (vc + 7) // 8
    packed = np.zeros((vc, width), dtype=np.uint8)
    for row, col in ((u, v), (v, u)):
        np.bitwise_or.at(packed, (row, col >> 3), (1 << (col & 7)).astype(np.uint8))
    return vc, [int.from_bytes(r.tobytes(), "little") for r in packed]


def to_dot(g) -> str:
    """Undirected DOT text with vertices labelled by their residue pairs.

    Edges come as u -- v with u < v, ordered by u and then v; the rows are
    read in blocks of _DOT_BLOCK, and each block is formatted at once."""
    n, vc = g.n, g.vertex_count
    pieces = [f"graph cayley_{n} {{\n"]
    pieces.extend(f'  {v} [label="({v // n},{v % n})"];\n' for v in range(vc))
    for start in range(0, vc, _DOT_BLOCK):
        rows, cols = bit_positions(g.adjacency[start:start + _DOT_BLOCK], vc)
        rows += start
        upper = cols > rows
        pairs = np.stack([rows[upper], cols[upper]], axis=1).ravel().tolist()
        pieces.append(("  %d -- %d;\n" * (len(pairs) // 2)) % tuple(pairs))
    pieces.append("}\n")
    return "".join(pieces)
