"""Seeded key-sharing families for dedup-skewed, sized after the paper's BD_GLO corpus.

Uniform corpora and query copies come straight from ``fpdedup.synth``
(``generate``, ``_perturbed_copy``); families are drawn from a
``SplitMix64`` stream seeded from the benchmark seed, so one seed always
gives the same inputs. Generating them is the benchmark's own cost and is
never timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from fpdedup.grid import GridParams, block_of, bounding_box, compute_index
from fpdedup.signature import Minutia, Signature
from fpdedup.stats import REFERENCE_ROWS, ReferenceRow
from fpdedup.synth import GenSpec, SplitMix64, derive_seed, generate

GRID = GridParams()
MAX_OFFSET = GenSpec(0).global_offset  # px, translation of a family member


def rank_size_buckets(row: ReferenceRow) -> tuple[int, ...]:
    """The multi-record bucket sizes of a published corpus row, as a rank-size law.

    The r-th largest bucket holds ``round(max_p * r ** -beta)`` records,
    down to 2, and buckets of 2 are added until the records beyond one per
    class come to the row's ``size - nb_class``. ``beta`` is the one whose
    in-bucket pair count, sum of c(c-1)/2, is closest to the row's, which
    its class count, mean and standard deviation give:
    (nb_class * (std_dev**2 + avg**2) - size) / 2.
    """
    extra = row.size - row.nb_class
    pairs = (row.nb_class * (row.std_dev ** 2 + row.avg ** 2) - row.size) / 2.0
    best: tuple[float, tuple[int, ...]] | None = None
    for step in range(300, 3001, 5):
        beta = step / 1000.0
        sizes = []
        while (c := round(row.max_p * (len(sizes) + 1) ** -beta)) >= 2:
            sizes.append(c)
        spare = extra - sum(c - 1 for c in sizes)
        if spare < 0:
            continue
        sizes.extend([2] * spare)
        error = abs(sum(c * (c - 1) // 2 for c in sizes) - pairs)
        if best is None or error < best[0]:
            best = (error, tuple(sizes))
    if best is None:
        raise ValueError(f"{row.name}: no rank-size law fits")
    return best[1]


BD_GLO = next(row for row in REFERENCE_ROWS if row.name == "BD_GLO")
BD_GLO_BUCKETS = rank_size_buckets(BD_GLO)

# Families of dedup-skewed: the buckets of BD_GLO's law whose sweep is bound
# by scoring, i.e. whose c(c-1)/2 scores (about 0.11 ms each) outweigh their
# c feature builds (about 1.7 ms each): c > 31, which leaves 91, 54, 40, 33.
# Smaller buckets would add feature builds, which identify already loads.
# Sizes are fixed, not drawn, so the sweep's pair count is the same for
# every seed.
MIN_FAMILY = 32
FAMILY_MINUTIAE = 40
FAMILY_BASE_SEED = 1
FAMILY_SIZES = tuple(c for c in BD_GLO_BUCKETS if c >= MIN_FAMILY)


def key_sharing_family(rng: SplitMix64, base: Signature, size: int,
                       prefix: str) -> list[Signature]:
    """``size`` distinct prints that all share ``base``'s grid key.

    Minutiae on the bounding box keep their position, so the box and the
    block sizes stay fixed; every other minutia moves to a uniform position
    inside its own grid block. All minutiae get fresh angles and type codes,
    so siblings share no triplet features, and each member is translated as
    a whole, which the key ignores.
    """
    x_min, y_min, x_max, y_max = box = bounding_box(base)
    width, height = (x_max - x_min + 1) / GRID.n, (y_max - y_min + 1) / GRID.n
    members = []
    for j in range(size):
        dx = rng.randint(0, MAX_OFFSET)
        dy = rng.randint(0, MAX_OFFSET)
        minutiae = []
        for m in base.minutiae:
            x, y = m.x, m.y
            if x not in (x_min, x_max) and y not in (y_min, y_max):
                block = xb, yb = block_of(m, box, GRID)
                # The ranges cover the block and at most one pixel more on each side.
                x_range = (x_min + math.floor(xb * width),
                           min(x_max, x_min + math.ceil((xb + 1) * width)))
                y_range = (y_min + math.floor(yb * height),
                           min(y_max, y_min + math.ceil((yb + 1) * height)))
                while True:
                    x, y = rng.randint(*x_range), rng.randint(*y_range)
                    if block_of(Minutia(x, y, 0.0, 0), box, GRID) == block:
                        break
            minutiae.append(Minutia(x + dx, y + dy, rng.random() * 2.0 * math.pi,
                                    rng.randint(0, 1)))
        members.append(Signature(f"{prefix}-{j:03d}", minutiae))
    return members


@dataclass
class SkewedTruth:
    """Ground truth of the dedup-skewed corpus, which outlives the signatures."""

    planted: list[tuple[str, str]]   # (duplicate_id, source_id), pure translations
    families: list[list[str]]        # record ids of each key-sharing family
    histogram: dict[int, int]        # bucket size -> number of buckets


def bucket_histogram(signatures: list[Signature]) -> dict[int, int]:
    """Bucket size -> number of buckets, over ``signatures``."""
    sizes: dict[str, int] = {}
    for s in signatures:
        key = compute_index(s, GRID).key_text
        sizes[key] = sizes.get(key, 0) + 1
    histogram: dict[int, int] = {}
    for size in sizes.values():
        histogram[size] = histogram.get(size, 0) + 1
    return dict(sorted(histogram.items()))


def skewed_corpus(singletons: int, seed: int, dup_fraction: float = 0.01,
                  family_sizes: tuple[int, ...] = FAMILY_SIZES
                  ) -> tuple[list[Signature], SkewedTruth]:
    """Uniform singletons with planted duplicates, plus key-sharing families.

    Raises ValueError if a family does not share one key. Family members
    are drawn from their own seed stream, so the uniform part is the corpus
    ``generate`` gives for ``singletons``, ``seed`` and ``dup_fraction``.
    """
    signatures, planted = generate(GenSpec(singletons, dup_fraction=dup_fraction, seed=seed))
    # The bases are the same for every seed, and each has the mean minutiae
    # count: a family's sweep cost follows its base's minutiae, box and
    # spacing, and with four bases drawn per seed the cost of a pass would
    # vary by about 10% from seed to seed. The seed draws every member.
    bases, _ = generate(GenSpec(len(family_sizes), minutiae_per_print=(FAMILY_MINUTIAE,) * 2,
                                seed=FAMILY_BASE_SEED))
    rng = SplitMix64(derive_seed(seed, 2))
    families = []
    for f, (base, size) in enumerate(zip(bases, family_sizes)):
        members = key_sharing_family(rng, base, size, f"F{f:02d}")
        keys = {compute_index(m, GRID).key_text for m in members}
        if keys != {compute_index(base, GRID).key_text}:
            raise ValueError(f"family F{f:02d} does not share one grid key: {len(keys)} keys")
        signatures.extend(members)
        families.append([m.record_id for m in members])
    return signatures, SkewedTruth(planted, families, bucket_histogram(signatures))
