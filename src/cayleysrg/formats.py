"""graph6 and DOT serialisation.

The graph6 encoding follows the canonical description: a vertex count in
6-bit chunks offset by 63, then the upper triangle of the adjacency matrix
read column by column, packed big-endian six bits per printable byte.  The
decoder is strict, it rejects bad lengths, out-of-range bytes and nonzero
padding, so a round trip certifies the writer.
"""

from __future__ import annotations

import numpy as np

from .bitset import iter_bits

__all__ = ["to_graph6", "from_graph6", "to_dot"]

_OFFSET = 63


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


def to_graph6(g) -> str:
    """Encode a graph (vertex_count plus adjacency bitmasks) as graph6."""
    vc = g.vertex_count
    if vc < 1:
        raise ValueError("graph6 needs at least one vertex")
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
    body = (values + _OFFSET).tobytes()
    return _encode_count(vc) + body.decode("ascii")


def _decode_count(s: str) -> tuple[int, int]:
    """Vertex count and the index where the adjacency body starts."""
    if not s:
        raise ValueError("empty graph6 string")
    vals = [ord(ch) - _OFFSET for ch in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("graph6 byte out of the printable range")
    if vals[0] < 63:
        return vals[0], 1
    if len(s) >= 2 and vals[1] < 63:
        if len(s) < 4:
            raise ValueError("truncated graph6 vertex count")
        return (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    if len(s) < 8:
        raise ValueError("truncated graph6 vertex count")
    vc = 0
    for v in vals[2:8]:
        vc = vc << 6 | v
    return vc, 8


def from_graph6(text: str) -> tuple[int, list[int]]:
    """Decode graph6 into (vertex_count, adjacency bitmasks).

    The optional ">>graph6<<" prefix is allowed; anything else malformed
    is rejected.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    vc, start = _decode_count(s)
    body = s[start:]
    nbits = vc * (vc - 1) // 2
    needed = (nbits + 5) // 6
    if len(body) != needed:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {needed}")
    adjacency = [0] * vc
    pos = 0
    val = 0
    width = 0
    for v in range(1, vc):
        for u in range(v):
            if width == 0:
                val = ord(body[pos]) - _OFFSET
                if not 0 <= val <= 63:
                    raise ValueError("graph6 byte out of the printable range")
                pos += 1
                width = 6
            width -= 1
            if val >> width & 1:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    if width and val & ((1 << width) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    return vc, adjacency


def to_dot(g) -> str:
    """Undirected DOT text with vertices labelled by their residue pairs."""
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
