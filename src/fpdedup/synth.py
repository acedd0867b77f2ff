"""Seeded synthetic signature corpora with planted, ground-truthed duplicates.

Corpora are reproducible across platforms and languages because every
random draw comes from splitmix64, a published 6-line recipe fixed here
(and by a golden-output test) rather than from a library generator
whose stream may change:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1E4B7287 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z XOR (z >> 31)

Uniform doubles are ``(output >> 11) * 2^-53``; integers in [lo, hi] are
``lo + floor(u * (hi - lo + 1))``; Gaussians use Box-Muller, consuming
two uniforms per draw and keeping the cosine branch. Positions are
integer pixels, so generated corpora are byte-stable; the rounded
Gaussian jitter could in principle differ by one pixel across libm
implementations when a draw lands within one ulp of a rounding
boundary, which the golden digest would surface.

Draw order per corpus (frozen by the golden test): the duplicate-source
permutation, then every subject in id order, then every duplicate in id
order. Duplicates are perturbed copies of distinct subjects: a uniform
translation in [0, global_offset] per axis, optional per-minutia
Gaussian jitter, and optional per-minutia drops. With zero jitter and
zero drops a duplicate is a pure translation of its source and shares
its index key exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .signature import _MAX_COORD, ParseError, Signature, _read_text

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1E4B7287
_MIX2 = 0x94D049BB133111EB


# The largest |gauss(1.0)| draw: Box-Muller's radius at the smallest u1, 2**-53.
_GAUSS_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))


class SplitMix64:
    """The splitmix64 stream; see the module docstring for the recipe."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        return lo + int(self.random() * (hi - lo + 1))

    def gauss(self, sigma: float) -> float:
        """Zero-mean Gaussian via Box-Muller (two uniforms, cosine branch)."""
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        indices = list(range(n))
        for i in range(k):
            j = self.randint(i, n - 1)
            indices[i], indices[j] = indices[j], indices[i]
        return indices[:k]


def derive_seed(seed: int, salt: int) -> int:
    """A decorrelated child seed, for independent corpora per bench size.

    It is the first output of a splitmix64 stream seeded ``salt`` gammas
    past ``seed``.
    """
    return SplitMix64(seed + salt * _GAMMA).next_u64()


@dataclass(frozen=True)
class GenSpec:
    """Shape of one synthetic corpus."""

    subjects: int
    minutiae_per_print: tuple[int, int] = (20, 60)
    image_extent: tuple[int, int] = (350, 350)
    dup_fraction: float = 0.0
    jitter: float = 0.0          # per-minutia positional noise sigma, px
    global_offset: int = 30      # max translation of a duplicate, px
    drop_prob: float = 0.0       # per-minutia omission probability
    seed: int = 0
    min_spacing: float = 15.0    # matches the matcher's default min_edge

    def __post_init__(self) -> None:
        lo, hi = self.minutiae_per_print
        if self.subjects < 0:
            raise ValueError("subjects must be >= 0")
        if lo < 1 or hi < lo:
            raise ValueError(f"minutiae range ({lo}, {hi}) is empty or invalid")
        if self.image_extent[0] < 1 or self.image_extent[1] < 1:
            raise ValueError("image extent must be positive")
        if not (0.0 <= self.dup_fraction <= 1.0):
            raise ValueError("dup_fraction must be within [0, 1]")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ValueError("drop_prob must be within [0, 1)")
        if self.global_offset < 0:
            raise ValueError("global_offset must be >= 0")
        # Range tests, so that NaN, which fails every comparison, is rejected too.
        if not (0 <= self.jitter < math.inf and 0 <= self.min_spacing < math.inf):
            raise ValueError("jitter and min_spacing must be finite and >= 0")
        # A duplicate's coordinate is at most extent - 1 + offset + round(jitter draw);
        # the parser rejects anything above _MAX_COORD.
        reach = max(self.image_extent) - 1 + self.global_offset
        if reach > _MAX_COORD or self.jitter * _GAUSS_MAX >= _MAX_COORD - reach + 0.5:
            raise ValueError("image extent, global_offset and jitter can place a coordinate "
                             "beyond 2**53, the largest a signature file may hold")

    @property
    def duplicate_count(self) -> int:
        return round(self.subjects * self.dup_fraction)


class _SpacingGrid:
    """Occupancy grid rejecting points closer than the minimum spacing."""

    def __init__(self, spacing: float):
        self.spacing = spacing
        self.cell = max(1, math.ceil(spacing))
        self.cells: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def admits(self, x: int, y: int) -> bool:
        if self.spacing <= 0:
            return True
        cx, cy = x // self.cell, y // self.cell
        limit = self.spacing * self.spacing
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for px, py in self.cells.get((nx, ny), ()):
                    if (px - x) ** 2 + (py - y) ** 2 < limit:
                        return False
        return True

    def insert(self, x: int, y: int) -> None:
        self.cells.setdefault((x // self.cell, y // self.cell), []).append((x, y))


_MAX_PLACEMENT_ATTEMPTS = 1000


def _random_signature(rng: SplitMix64, spec: GenSpec, record_id: str) -> Signature:
    count = rng.randint(*spec.minutiae_per_print)
    width, height = spec.image_extent
    grid = _SpacingGrid(spec.min_spacing)
    rows = []
    for _ in range(count):
        for _attempt in range(_MAX_PLACEMENT_ATTEMPTS):
            x = rng.randint(0, width - 1)
            y = rng.randint(0, height - 1)
            if grid.admits(x, y):
                break
        else:
            raise ValueError(
                f"cannot place {count} minutiae at spacing {spec.min_spacing} "
                f"inside extent {spec.image_extent}"
            )
        grid.insert(x, y)
        theta = rng.random() * 2.0 * math.pi
        rows.append((x, y, theta, rng.randint(0, 1)))
    return Signature(record_id, rows)


def _perturbed_copy(rng: SplitMix64, spec: GenSpec, source: Signature,
                    record_id: str) -> Signature:
    dx = rng.randint(0, spec.global_offset)
    dy = rng.randint(0, spec.global_offset)
    rows = []
    for x, y, theta, code in source.rows():
        if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
            continue
        x, y = x + dx, y + dy
        if spec.jitter > 0.0:
            x += round(rng.gauss(spec.jitter))
            y += round(rng.gauss(spec.jitter))
        rows.append((max(0, x), max(0, y), theta, code))
    if not rows:  # drops may not empty a record
        x, y, theta, code = next(source.rows())
        rows.append((x + dx, y + dy, theta, code))
    return Signature(record_id, rows)


def iter_records(spec: GenSpec) -> Iterator[tuple[Signature, str | None]]:
    """Stream the corpus as (signature, source_id-or-None) in corpus order.

    Subjects come first, then planted duplicates; a duplicate's second
    element names its source subject. Memory stays bounded by the
    duplicate sources that must be retained for copying.
    """
    rng = SplitMix64(spec.seed)
    n_dups = spec.duplicate_count
    source_indices = rng.sample(spec.subjects, n_dups) if n_dups else []
    wanted = set(source_indices)
    retained: dict[int, Signature] = {}

    id_width = max(5, len(str(max(spec.subjects - 1, 0))))
    for i in range(spec.subjects):
        signature = _random_signature(rng, spec, f"S{i:0{id_width}d}")
        if i in wanted:
            retained[i] = signature
        yield signature, None

    for j, src in enumerate(source_indices):
        source = retained[src]
        yield _perturbed_copy(rng, spec, source, f"D{j:0{id_width}d}"), source.record_id


def generate(spec: GenSpec) -> tuple[list[Signature], list[tuple[str, str]]]:
    """Materialize a corpus plus its ground-truth (duplicate, source) pairs."""
    signatures: list[Signature] = []
    ground_truth: list[tuple[str, str]] = []
    for signature, source_id in iter_records(spec):
        signatures.append(signature)
        if source_id is not None:
            ground_truth.append((signature.record_id, source_id))
    return signatures, ground_truth


def write_ground_truth(pairs: list[tuple[str, str]], path: str | Path) -> None:
    """One ``dup_id<TAB>source_id`` line per planted duplicate."""
    Path(path).write_text("".join(f"{dup}\t{src}\n" for dup, src in pairs))


def read_ground_truth(path: str | Path) -> list[tuple[str, str]]:
    """The ``(dup_id, source_id)`` pairs of a ground-truth file, in file order.

    Blank lines are skipped. A line that is not two tab-separated ids,
    or a file that does not decode, raises ParseError naming the file.
    """
    path = Path(path)
    pairs = []
    for line_no, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip():
            parts = line.split("\t")
            if len(parts) != 2 or not all(parts):
                raise ParseError(f"{path}: line {line_no}: expected 'dup_id<TAB>source_id'")
            pairs.append((parts[0], parts[1]))
    return pairs
