"""Small helpers for vertex sets stored as Python int bitmasks, and the one
breadth-first search of the package."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = ["iter_bits", "bit_positions", "bfs_layers"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_positions(masks: Sequence[int], size: int) -> tuple[NDArray, NDArray]:
    """Every set bit of the masks, each mask below 2**size, as two arrays:
    the index of its mask and its position, ascending in that order.  It is
    iter_bits over all masks at once; only the nonzero bytes are unpacked."""
    width = (size + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    row, byte = np.nonzero(packed)
    hit, low = np.nonzero(np.unpackbits(packed[row, byte][:, None], axis=1,
                                        bitorder="little"))
    return row[hit], byte[hit] * 8 + low


def bfs_layers(adjacency: Sequence[int], source: int) -> list[int]:
    """Distance layers from source as bitmasks: layers[d] holds the vertices
    at distance d, so layers[0] is 1 << source.  The list stops at the last
    non-empty layer; vertices that source cannot reach lie in no layer.
    The layers are disjoint, so their sum is the set of reached vertices.
    Once every vertex is reached the walk stops without reading the rows of
    the last layer, which could only reach vertices already seen."""
    layers = []
    everything = (1 << len(adjacency)) - 1
    visited = frontier = 1 << source
    while frontier:
        layers.append(frontier)
        if visited == everything:
            break
        reach = 0
        for u in iter_bits(frontier):
            reach |= adjacency[u]
        frontier = reach & ~visited
        visited |= frontier
    return layers
