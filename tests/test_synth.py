"""Synthetic corpus generator: portable RNG, determinism, planted duplicates."""

from __future__ import annotations

import hashlib
import math
import re

import pytest

from fpdedup.grid import compute_index
from fpdedup.signature import ParseError, parse_signature, serialize_signature
from fpdedup.synth import (_GAUSS_MAX, GenSpec, SplitMix64, derive_seed, generate,
                           iter_records, read_ground_truth, write_ground_truth)

# Verified against an independent build of the canonical public-domain
# C reference of splitmix64.
SPLITMIX_VECTORS_1234567 = [16417689497482565870, 4534544072688281124, 6410137150646818777]
SPLITMIX_VECTORS_0 = [17814590894642280936, 4902107869225862739, 17670114902409813071]

GOLDEN_SPEC = GenSpec(subjects=25, dup_fraction=0.2, jitter=1.5, drop_prob=0.1,
                      global_offset=20, seed=20260811)
GOLDEN_DIGEST = "a713df70701e812df07821d0144e7551e8659bdda1524b93ef27a6630281931f"


def corpus_blob(spec: GenSpec) -> bytes:
    sigs, truth = generate(spec)
    blob = "\n".join(s.record_id + "\n" + serialize_signature(s) for s in sigs)
    blob += "\n" + "\n".join(f"{d}\t{s}" for d, s in truth)
    return blob.encode()


# ---------------------------------------------------------------------------
# The RNG recipe


def test_splitmix64_reference_vectors():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_VECTORS_1234567
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_VECTORS_0


def test_random_unit_interval():
    rng = SplitMix64(42)
    values = [rng.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_randint_inclusive_bounds():
    rng = SplitMix64(7)
    values = [rng.randint(3, 5) for _ in range(500)]
    assert set(values) == {3, 4, 5}


def test_gauss_moments():
    rng = SplitMix64(11)
    values = [rng.gauss(2.0) for _ in range(4000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.15
    assert abs(math.sqrt(var) - 2.0) < 0.15


def test_sample_distinct():
    rng = SplitMix64(3)
    picked = rng.sample(100, 30)
    assert len(picked) == 30
    assert len(set(picked)) == 30
    assert all(0 <= i < 100 for i in picked)


def test_derive_seed_decorrelates():
    children = {derive_seed(1, salt) for salt in range(64)}
    assert len(children) == 64


def test_derive_seed_equals_mixer_written_out():
    mask = (1 << 64) - 1

    def mixed(seed: int, salt: int) -> int:
        z = (seed + (salt + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1E4B7287) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    rng = SplitMix64(7)
    pairs = [(0, 0), (2 ** 64 - 1, 2 ** 40), (-5, 3)]
    pairs += [(rng.next_u64(), rng.randint(0, 1 << 20)) for _ in range(1000)]
    assert [derive_seed(*pair) for pair in pairs] == [mixed(*pair) for pair in pairs]


# ---------------------------------------------------------------------------
# Corpus generation


def test_generation_deterministic():
    spec = GenSpec(subjects=10, dup_fraction=0.0, seed=7)
    assert corpus_blob(spec) == corpus_blob(spec)


def test_golden_digest_frozen():
    assert hashlib.sha256(corpus_blob(GOLDEN_SPEC)).hexdigest() == GOLDEN_DIGEST


def test_different_seeds_differ():
    a = GenSpec(subjects=10, seed=7)
    b = GenSpec(subjects=10, seed=8)
    assert corpus_blob(a) != corpus_blob(b)


def test_record_and_duplicate_counts():
    spec = GenSpec(subjects=200, dup_fraction=0.1, seed=1)
    sigs, truth = generate(spec)
    assert len(sigs) == 220
    assert len(truth) == 20
    assert len({d for d, _ in truth}) == 20
    assert len({s for _, s in truth}) == 20  # distinct sources -> pair groups


def test_minutiae_counts_in_range():
    spec = GenSpec(subjects=50, minutiae_per_print=(20, 60), seed=2)
    sigs, _ = generate(spec)
    assert all(20 <= len(s) <= 60 for s in sigs)


def test_minimum_spacing_respected():
    spec = GenSpec(subjects=20, min_spacing=15.0, seed=3)
    sigs, _ = generate(spec)
    for s in sigs:
        pts = [(m.x, m.y) for m in s.minutiae]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.dist(pts[i], pts[j]) >= 15.0


def test_coordinates_within_extent_for_subjects():
    spec = GenSpec(subjects=30, image_extent=(350, 350), seed=4)
    sigs, _ = generate(spec)
    for s in sigs:
        if s.record_id.startswith("S"):
            assert all(0 <= m.x < 350 and 0 <= m.y < 350 for m in s.minutiae)


def test_zero_perturbation_duplicates_share_key():
    spec = GenSpec(subjects=120, dup_fraction=0.25, jitter=0.0, drop_prob=0.0,
                   global_offset=40, seed=5)
    sigs, truth = generate(spec)
    by_id = {s.record_id: s for s in sigs}
    assert truth
    for dup, src in truth:
        assert compute_index(by_id[dup]).key_text == compute_index(by_id[src]).key_text
        assert len(by_id[dup]) == len(by_id[src])


def test_drops_never_empty_a_duplicate():
    spec = GenSpec(subjects=40, dup_fraction=0.5, drop_prob=0.9, seed=6)
    sigs, _ = generate(spec)
    assert all(len(s) >= 1 for s in sigs)


def test_streaming_matches_materialized():
    spec = GenSpec(subjects=30, dup_fraction=0.2, seed=8)
    streamed = [(s.record_id, src) for s, src in iter_records(spec)]
    sigs, truth = generate(spec)
    assert [rid for rid, _ in streamed] == [s.record_id for s in sigs]
    assert [(rid, src) for rid, src in streamed if src is not None] == truth


@pytest.mark.parametrize("bad", [
    dict(subjects=-1),
    dict(subjects=5, minutiae_per_print=(0, 10)),
    dict(subjects=5, minutiae_per_print=(30, 10)),
    dict(subjects=5, image_extent=(0, 100)),
    dict(subjects=5, dup_fraction=1.5),
    dict(subjects=5, drop_prob=-0.1),
    dict(subjects=5, jitter=-1.0),
    dict(subjects=5, jitter=float("nan")),
    dict(subjects=5, jitter=float("inf")),
    dict(subjects=5, min_spacing=float("nan")),
    dict(subjects=5, min_spacing=float("inf")),
    # a coordinate could pass 2**53: 349 + offset + jitter draw at the default extent
    dict(subjects=5, global_offset=2 ** 53 - 348),
    dict(subjects=5, jitter=(2 ** 53 - 379) / _GAUSS_MAX * 1.000001),
    dict(subjects=5, jitter=1e308),
    dict(subjects=5, image_extent=(2 ** 53 + 2, 1), global_offset=0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        GenSpec(**bad)


def test_largest_reach_accepted_and_parseable():
    # Default extent 350 and offset 30: a coordinate reaches 349 + offset + jitter draw.
    GenSpec(subjects=1, jitter=(2 ** 53 - 379) / _GAUSS_MAX * 0.999999)
    spec = GenSpec(subjects=3, dup_fraction=1.0, global_offset=2 ** 53 - 349, seed=12)
    for s in generate(spec)[0]:
        assert parse_signature(serialize_signature(s), s.record_id) == s


def test_impossible_placement_errors():
    # 60 minutiae at 200 px spacing cannot fit a 100 px extent
    spec = GenSpec(subjects=1, minutiae_per_print=(60, 60),
                   image_extent=(100, 100), min_spacing=200.0, seed=9)
    with pytest.raises(ValueError, match="cannot place"):
        generate(spec)


def test_ground_truth_file_round_trip(tmp_path):
    pairs = [("D00001", "S00004"), ("D00002", "S00011")]
    path = tmp_path / "truth.tsv"
    write_ground_truth(pairs, path)
    assert path.read_text() == "D00001\tS00004\nD00002\tS00011\n"
    assert read_ground_truth(path) == pairs


@pytest.mark.parametrize("text, line", [
    ("D00001\tS00004\nbroken\n", 2),
    ("D00001\tS00004\tS00005\n", 1),
    ("\n\tS00004\n", 2),
], ids=["one-field", "three-fields", "empty-id"])
def test_ground_truth_malformed_line_names_it(tmp_path, text, line):
    path = tmp_path / "truth.tsv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}: "):
        read_ground_truth(path)


def test_ground_truth_undecodable_names_the_file(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_bytes(b"D00001\tS\xff\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
        read_ground_truth(path)
