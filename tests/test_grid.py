"""Grid index: bounding box, block assignment, key computation."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpdedup.grid import GridParams, IndexKey, block_of, bounding_box, compute_index
from fpdedup.signature import Minutia, Signature
from fpdedup.synth import GenSpec, generate

from .conftest import REFERENCE_KEY, make_signature, translate

points_strategy = st.lists(
    st.tuples(st.integers(0, 2000), st.integers(0, 2000)), min_size=1, max_size=80
)


def test_bounding_box_two_points():
    s = make_signature("s", [(207, 45), (149, 62)])
    assert bounding_box(s) == (149, 45, 207, 62)


def test_bounding_box_reference(reference_signature):
    assert bounding_box(reference_signature) == (115, 45, 298, 328)


def test_bounding_box_single_point():
    assert bounding_box(make_signature("s", [(10, 20)])) == (10, 20, 10, 20)


def test_bounding_box_empty_errors():
    # no empty print can be built, so bounding_box never sees one
    with pytest.raises(ValueError, match="'s' has no minutiae"):
        Signature("s", [])


@pytest.mark.parametrize("big", [2 ** 53 + 1, 10 ** 400, -(10 ** 400), float("nan")],
                         ids=["2**53+1", "10**400", "-10**400", "nan"])
def test_coordinate_beyond_float_range_errors(big):
    # the constructor holds the parser's range rule, so no print the grid or
    # the matcher sees has such a coordinate; min and max return a NaN only
    # when it comes first, so each position is tried
    for position in range(3):
        for axis in range(2):
            rows = [[0, 0, 0.0, 1], [7, 3, 0.2, 1], [5, 9, 0.1, 1]]
            rows[position][axis] = big
            with pytest.raises(ValueError, match="^signature 'big' has a "):
                Signature("big", map(tuple, rows))
    edge = Signature("edge", [Minutia(0, 0, 0.0, 1), Minutia(2 ** 53, 2 ** 53, 0.0, 1)])
    assert bounding_box(edge) == (0, 0, 2 ** 53, 2 ** 53)


def test_compute_index_reference_golden(reference_signature):
    assert compute_index(reference_signature, GridParams(5)).key_text == REFERENCE_KEY


def test_compute_index_empty_errors():
    # no empty print can be built, so compute_index never sees one
    with pytest.raises(ValueError, match="'s' has no minutiae"):
        Signature("s", [])


def test_single_minutia_key():
    key = compute_index(make_signature("s", [(123, 456)]), GridParams(5))
    assert key.key_text == "1" + "-0" * 24
    assert key.counts[0] == 1 and sum(key.counts) == 1


def test_opposite_corners_key():
    key = compute_index(make_signature("s", [(0, 0), (99, 99)]), GridParams(5))
    assert key.counts[0] == 1
    assert key.counts[-1] == 1
    assert sum(key.counts) == 2


def test_block_of_origin():
    box = (0, 0, 100, 100)
    assert block_of(Minutia(0, 0, 0.0, 1), box) == (0, 0)


def test_block_of_max_coordinate_lands_in_last_block():
    # translated x = l-1 with width l must floor into block n-1
    for width in (5, 7, 100, 351):
        box = (0, 0, width - 1, width - 1)
        m = Minutia(width - 1, width - 1, 0.0, 1)
        assert block_of(m, box, GridParams(5)) == (4, 4)


def test_block_of_reference_worked_value():
    # hand evaluation: (207,45) in box (115,45,298,328), n=5 -> (2,0)
    assert block_of(Minutia(207, 45, 0.0, 1), (115, 45, 298, 328), GridParams(5)) == (2, 0)


def test_block_of_outside_box_errors():
    with pytest.raises(ValueError, match="outside"):
        block_of(Minutia(500, 0, 0.0, 1), (0, 0, 100, 100))


def test_key_text_shape():
    key = compute_index(make_signature("s", [(0, 0), (10, 37), (90, 4)]), GridParams(5))
    assert isinstance(key, IndexKey)
    assert len(key.counts) == 25
    assert key.key_text.count("-") == 24
    assert set(key.key_text) <= set("0123456789-")


def test_grid_params_validation():
    for bad in (0, 5.0, True):
        with pytest.raises(ValueError, match="grid side must be an integer >= 1"):
            GridParams(bad)


@given(points_strategy)
def test_conservation_property(points):
    s = make_signature("h", points)
    key = compute_index(s, GridParams(5))
    assert sum(key.counts) == len(points)


@given(points_strategy, st.integers(0, 3000), st.integers(0, 3000))
def test_translation_invariance_property(points, dx, dy):
    s = make_signature("h", points)
    assert compute_index(s).key_text == compute_index(translate(s, dx, dy)).key_text


@given(points_strategy, st.integers(1, 9))
def test_blocks_in_range_property(points, n):
    s = make_signature("h", points)
    box = bounding_box(s)
    p = GridParams(n)
    for m in s.minutiae:
        xb, yb = block_of(m, box, p)
        assert 0 <= xb < n and 0 <= yb < n


@given(points_strategy, st.integers(1, 9))
def test_key_counts_agree_with_block_of(points, n):
    s = make_signature("h", points)
    box, p = bounding_box(s), GridParams(n)
    counts = [0] * (n * n)
    for m in s.minutiae:
        xb, yb = block_of(m, box, p)
        counts[xb * n + yb] += 1
    assert compute_index(s, p).counts == tuple(counts)


@given(points_strategy)
def test_determinism_property(points):
    s = make_signature("h", points)
    assert compute_index(s) == compute_index(s)


@given(points_strategy)
def test_n1_key_is_minutiae_count(points):
    s = make_signature("h", points)
    assert compute_index(s, GridParams(1)).key_text == str(len(points))


def test_degenerate_box_all_share_x():
    # all minutiae on one vertical line: every x-block is 0
    s = make_signature("s", [(50, 0), (50, 10), (50, 99)])
    key = compute_index(s, GridParams(5))
    assert sum(key.counts) == 3
    assert all(c == 0 for c in key.counts[5:])  # only x-block 0 occupied


# ---------------------------------------------------------------------------
# Golden pin: keys must not drift, bit for bit

GOLDEN_GRID_NS = (1, 2, 3, 5, 7)
GOLDEN_KEYS = "54cb07967495598b9e34cc39e51c3259af9d54ce4b010fef51e52ad7836f4c89"
BIG = 2 ** 53  # the largest coordinate the parser accepts


def _golden_key_corpus() -> list[Signature]:
    """Seeded prints of 1-90 minutiae plus hand-made degenerate boxes:
    one point, one shared x or y, sides that are multiples of n (points
    exactly on block edges) and coordinates near 2**53, where float
    quotients round up onto n and the clamp decides the block."""
    signatures, _ = generate(GenSpec(subjects=300, minutiae_per_print=(1, 90),
                                     dup_fraction=0.2, jitter=1.5, seed=7013))
    signatures += [
        make_signature("single", [(123, 456)]),
        make_signature("origin", [(0, 0)]),
        make_signature("one-x", [(50, 0), (50, 10), (50, 99), (50, 400)]),
        make_signature("one-y", [(0, 77), (13, 77), (350, 77)]),
        make_signature("big-diagonal", [(0, 0), (BIG - 1, BIG - 1)]),
        make_signature("big-square", [(0, 0), (BIG, BIG), (BIG // 3, 2 * (BIG // 3) + 1)]),
        make_signature("big-offset", [(1, 1), (BIG, BIG - 1), (BIG - 2, BIG // 2)]),
        make_signature("big-top", [(BIG - 5, 3), (BIG, 0), (BIG - 2, 2 ** 52)]),
    ]
    for n in GOLDEN_GRID_NS:
        for k in (1, 2, 3, 30):
            edges = [j * k for j in range(n)] + [n * k - 1]
            points = [(e, edges[-1 - i]) for i, e in enumerate(edges)]
            signatures.append(make_signature(f"edges-{n}-{k}", points))
            signatures.append(translate(signatures[-1], 1000, 7, f"edges-{n}-{k}-moved"))
    return signatures


def test_keys_golden():
    signatures = _golden_key_corpus()
    assert min(map(len, signatures)) == 1 and max(map(len, signatures)) > 80
    h = hashlib.sha256()
    for n in GOLDEN_GRID_NS:
        for s in signatures:
            h.update(f"{n}:{compute_index(s, GridParams(n)).key_text}\n".encode())
    assert h.hexdigest() == GOLDEN_KEYS
