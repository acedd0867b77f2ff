"""Block-count index keys over an n x n grid on a signature's bounding box.

Every signature is reduced to a short text key: translate the minutiae
so the bounding box starts at the origin, split the box into n x n
blocks of equal real-valued size, count minutiae per block, and join the
counts with ``-``. Records sharing a key form one cluster. The emission
order (fixed x-block, y-block varying within it) is part of the on-disk
format and must not change.

A side of ``span`` pixels puts offset ``d`` from the box's corner in
block ``floor(d / (span / n))``, clamped to ``n - 1``. For spans up to
``_TABLE_SPAN`` (1,024 px) that block is read from a table of every
offset's block, built once per ``(span, n)`` by that same rule and kept
in a bounded cache, so each entry is the rule's own result. The cache
holds at most 1,024 tables of at most 1,024 entries, about 8.5 MB at
worst (4.3 MB for every span of one grid side); a 10,000-print
synthetic corpus has about 110 spans, tabled in 0.26 MB. A longer side,
up to the 2**53 a coordinate may reach, applies the rule to each point.
The key text is written by one cached ``%`` format per grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        return cls(counts, _key_format(len(counts)) % counts)


@lru_cache(maxsize=16)
def _key_format(cells: int) -> str:
    """A ``%`` format of ``cells`` integers joined by ``-``: ``"-".join(map(str, counts))``
    in one call, in less than half its time."""
    return "-".join(["%d"] * cells)


BoundingBox = tuple[int, int, int, int]  # (x_min, y_min, x_max, y_max)


def bounding_box(s: Signature) -> BoundingBox:
    """Componentwise min/max over the signature's minutiae coordinates."""
    return min(s.xs), min(s.ys), max(s.xs), max(s.ys)


class _BlockRule:
    """``rule[d]``: the block of offset ``d`` on a side of ``span`` pixels split ``n`` ways."""

    __slots__ = ("size", "last")

    def __init__(self, span: int, n: int):
        # Real-valued block size; truncating first would merge edge
        # blocks for small boxes.
        self.size, self.last = span / n, n - 1

    def __getitem__(self, offset: int) -> int:
        # Clamp guards against float quotients landing exactly on n.
        block = math.floor(offset / self.size)
        return block if block < self.last else self.last


# Longest side, in pixels, whose blocks are read from a table.
_TABLE_SPAN = 1024


@lru_cache(maxsize=_TABLE_SPAN)  # every span of one grid side
def _block_table(span: int, n: int) -> tuple[int, ...]:
    """``_BlockRule(span, n)[d]`` for every offset ``d`` in [0, span)."""
    return tuple(map(_BlockRule(span, n).__getitem__, range(span)))


def _blocks(span: int, n: int) -> tuple[int, ...] | _BlockRule:
    """Block of each offset on a side of ``span`` pixels: a table up to ``_TABLE_SPAN``."""
    return _block_table(span, n) if span <= _TABLE_SPAN else _BlockRule(span, n)


def block_of(m: Minutia, box: BoundingBox, p: GridParams = GridParams()) -> tuple[int, int]:
    """Grid cell (x_block, y_block) of one minutia, both in [0, n-1]."""
    x_min, y_min, x_max, y_max = box
    if not (x_min <= m.x <= x_max and y_min <= m.y <= y_max):
        raise ValueError(f"minutia ({m.x}, {m.y}) lies outside box {box}")
    return (_blocks(x_max - x_min + 1, p.n)[m.x - x_min],
            _blocks(y_max - y_min + 1, p.n)[m.y - y_min])


def compute_index(s: Signature, p: GridParams = GridParams()) -> IndexKey:
    """Compute the cluster key of a signature.

    The counts conserve the minutiae total and are invariant under any
    constant translation of the whole signature.
    """
    n = p.n
    x_min, y_min, x_max, y_max = bounding_box(s)
    x_blocks, y_blocks = _blocks(x_max - x_min + 1, n), _blocks(y_max - y_min + 1, n)
    counts = [0] * (n * n)
    for x, y in zip(s.xs, s.ys):
        counts[x_blocks[x - x_min] * n + y_blocks[y - y_min]] += 1
    return IndexKey.from_counts(counts)
