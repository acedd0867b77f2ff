"""Block-count index keys over an n x n grid on a signature's bounding box.

Every signature is reduced to a short text key: translate the minutiae
so the bounding box starts at the origin, split the box into n x n
blocks of equal real-valued size, count minutiae per block, and join the
counts with ``-``. Records sharing a key form one cluster. The emission
order (fixed x-block, y-block varying within it) is part of the on-disk
format and must not change.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .signature import Minutia, Signature


@dataclass(frozen=True)
class GridParams:
    """Side length of the square block matrix."""

    n: int = 5

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"grid side must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class IndexKey:
    """Per-block minutiae counts in emission order, plus their joined text."""

    counts: tuple[int, ...]
    key_text: str

    @classmethod
    def from_counts(cls, counts: list[int] | tuple[int, ...]) -> "IndexKey":
        counts = tuple(counts)
        return cls(counts, "-".join(map(str, counts)))


BoundingBox = tuple[int, int, int, int]  # (x_min, y_min, x_max, y_max)


def bounding_box(s: Signature) -> BoundingBox:
    """Componentwise min/max over the signature's minutiae coordinates."""
    return min(s.xs), min(s.ys), max(s.xs), max(s.ys)


def _block_sizes(box: BoundingBox, n: int) -> tuple[float, float]:
    x_min, y_min, x_max, y_max = box
    # Real-valued block dimensions; truncating first would merge edge
    # blocks for small boxes.
    return (x_max - x_min + 1) / n, (y_max - y_min + 1) / n


def _cells(xs: Sequence[int], ys: Sequence[int], box: BoundingBox, n: int) -> list[int]:
    """Cell number ``x_block * n + y_block`` of each point ``(xs[i], ys[i])`` inside ``box``."""
    l_block, h_block = _block_sizes(box, n)
    x_min, y_min, last = box[0], box[1], n - 1
    floor = math.floor
    # Clamp guards against float quotients landing exactly on n.
    return [(bx if (bx := floor((x - x_min) / l_block)) < last else last) * n
            + (by if (by := floor((y - y_min) / h_block)) < last else last)
            for x, y in zip(xs, ys)]


def block_of(m: Minutia, box: BoundingBox, p: GridParams = GridParams()) -> tuple[int, int]:
    """Grid cell (x_block, y_block) of one minutia, both in [0, n-1]."""
    x_min, y_min, x_max, y_max = box
    if not (x_min <= m.x <= x_max and y_min <= m.y <= y_max):
        raise ValueError(f"minutia ({m.x}, {m.y}) lies outside box {box}")
    return divmod(_cells((m.x,), (m.y,), box, p.n)[0], p.n)


def compute_index(s: Signature, p: GridParams = GridParams()) -> IndexKey:
    """Compute the cluster key of a signature.

    The counts conserve the minutiae total and are invariant under any
    constant translation of the whole signature.
    """
    counts = [0] * (p.n * p.n)
    for cell in _cells(s.xs, s.ys, bounding_box(s), p.n):
        counts[cell] += 1
    return IndexKey.from_counts(counts)
