"""Minutiae-triplet features and pair scoring invariants."""

from __future__ import annotations

import collections
import hashlib
import math
import sys

import numpy as np
import pytest

from fpdedup import dedup, matcher
from fpdedup.dedup import _sweep_bucket
from fpdedup.matcher import (_STACK, MatchParams, MatchResult, TripletIndex, _CellGrid,
                             _JoinIndex, _arc_count, _greedy_pair_counts, _heading_table,
                             _nearest, _triangles, bucket_scorer, bucket_screen,
                             index_signature, index_signatures, is_match, match_score,
                             score_indexed)
from fpdedup.signature import TWO_PI, Minutia, Signature, normalize_angle
from fpdedup.synth import GenSpec, generate

from .conftest import make_signature, translate

PARAMS = MatchParams()


def quarter_turn(s: Signature, height: int, record_id: str = "rotated") -> Signature:
    """Exact 90-degree rotation on the pixel lattice, angles adjusted."""
    return Signature(record_id, [
        Minutia(height - m.y, m.x, normalize_angle(m.theta + math.pi / 2.0), m.type_code)
        for m in s.minutiae
    ])


@pytest.fixture(scope="module")
def random_suite() -> list[Signature]:
    signatures, _ = generate(GenSpec(subjects=40, minutiae_per_print=(20, 45), seed=404))
    return signatures


# ---------------------------------------------------------------------------
# Triangle construction


def triangles(s: Signature) -> list[tuple[int, int, int]]:
    x, y = np.array([(m.x, m.y) for m in s.minutiae], dtype=np.float64).T
    return [tuple(row) for row in _triangles(x[None], y[None], PARAMS)[0].tolist()]


def test_two_minutiae_no_triplets():
    s = make_signature("s", [(0, 0), (50, 50)])
    assert triangles(s) == []
    assert index_signature(s, PARAMS).features.shape == (0, 9)


def test_three_minutiae_within_bounds_single_triplet():
    # roughly equilateral, sides ~50 px
    s = make_signature("s", [(0, 0), (50, 0), (25, 43)])
    assert triangles(s) == [(0, 1, 2)]
    assert index_signature(s, PARAMS).features.shape == (1, 9)


def test_three_distant_minutiae_filtered_out():
    # sides ~200 px, all beyond max_edge
    s = make_signature("s", [(0, 0), (200, 0), (100, 173)])
    assert triangles(s) == []
    assert index_signature(s, PARAMS).features.shape == (0, 9)


def test_coordinate_beyond_float_range_errors():
    # the constructor refuses what float64 features could not hold, so
    # index_signature checks nothing
    with pytest.raises(ValueError, match="'big' has a coordinate outside"):
        Signature("big", [Minutia(0, 0, 0.0, 1), Minutia(10 ** 400, 0, 0.0, 1),
                          Minutia(5, 9, 0.1, 1)])
    with pytest.raises(ValueError, match="'empty' has no minutiae"):
        Signature("empty", [])


def test_edge_filter_and_count_bound(random_suite):
    k = PARAMS.neighbors_k
    for s in random_suite[:15]:
        features = index_signature(s, PARAMS).features
        assert features.shape[0] == len(triangles(s))
        assert features.shape[0] <= len(s.minutiae) * k * (k - 1) // 2
        sides, angles = features[:, 0:3], features[:, 3:6]
        assert ((PARAMS.min_edge <= sides) & (sides <= PARAMS.max_edge)).all()
        assert (sides[:, 0] <= sides[:, 1]).all() and (sides[:, 1] <= sides[:, 2]).all()
        assert np.allclose(angles.sum(axis=1), math.pi, rtol=0.0, atol=1e-6)
        assert ((0.0 <= features[:, 6:9]) & (features[:, 6:9] < 2.0 * math.pi)).all()


def test_triplet_sets_deduplicated(random_suite):
    for s in random_suite[:10]:
        index_sets = triangles(s)
        assert len(index_sets) == len(set(index_sets))
        assert all(i < j < l for i, j, l in index_sets)


def _distance_rows(points: np.ndarray) -> np.ndarray:
    """The (n, n) distance matrix ``_triangles`` ranks, diagonal at infinity."""
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return d


def test_nearest_equals_stable_argsort():
    rng = np.random.default_rng(1409)
    # a 10 x 10 lattice and one with repeated points: ties at every rank
    grid = np.array([(x * 20, y * 20) for x in range(10) for y in range(10)], dtype=float)
    repeated = np.concatenate((grid, grid[rng.integers(0, 100, size=20)]))
    # small integer distances, a NaN row and a row with NaN entries
    coarse = rng.integers(0, 6, size=(300, 60)).astype(float)
    coarse[5] = np.nan
    coarse[7, ::3] = np.nan
    cases = [_distance_rows(grid), _distance_rows(repeated), coarse,
             _distance_rows(rng.uniform(0, 500, size=(90, 2)))]
    # prints small enough to be sorted whole, k reaching n - 1 in some
    cases += [_distance_rows(grid[:n]) for n in (3, 4, 5, 13)]
    for dist in cases:
        for k in (2, 3, 4, 7, 12):
            k = min(k, dist.shape[1] - 1)
            expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_nearest(dist, k), expected)
    # the partition path ran, on tied and untied rows alike
    kth = np.partition(coarse, 3, axis=1)[:, 3:4]
    counts = np.count_nonzero(coarse <= kth, axis=1)
    assert (counts == 4).any() and (counts > 4).any() and (counts < 4).any()
    assert coarse.shape[1] > matcher._SORT_COLUMNS
    assert coarse.size >= matcher._SORT_DISTANCES


def test_heading_table_equals_atan2():
    radius = int(PARAMS.max_edge)
    table = _heading_table(radius)
    assert table.shape == (2 * radius + 1,) * 2
    span = range(-radius, radius + 1)
    expected = np.array([[math.atan2(dy, dx) for dx in span] for dy in span])
    assert table.tobytes() == expected.tobytes()


def _atan2_headings(dy: np.ndarray, dx: np.ndarray, _max_edge: float) -> np.ndarray:
    return np.array([math.atan2(a, b) for a, b in zip(dy.tolist(), dx.tolist())], dtype=float)


@pytest.mark.parametrize("p", [MatchParams(), MatchParams(max_edge=600.0),
                               MatchParams(max_edge=float("inf"))],
                         ids=["default", "above-cap", "unbounded"])
def test_headings_fallback_bit_for_bit(random_suite, monkeypatch, p):
    rng = np.random.default_rng(2210)
    prints = [
        # points on the line y = 0, so some edges have dy = 0 and dx < 0,
        # where atan2 gives pi; at a ridge angle of 3.9 the orientations
        # theta + pi and theta - pi differ in the last bit
        Signature("line", [(40 * i, 0, 3.9, 1) for i in range(6)]
                  + [(40 * i + 20, 30, 0.3 + 0.9 * i, 1) for i in range(5)]),
        random_suite[0],
        random_suite[1],
        # spread over 2000 px: most edges beyond the table's largest radius
        make_signature("sparse", [(int(x), int(y)) for x, y in rng.uniform(0, 2000, (40, 2))]),
        random_suite[2],
    ]
    built = [index_signature(s, p).features for s in prints]
    monkeypatch.setattr(matcher, "_headings", _atan2_headings)
    for s, features in zip(prints, built):
        expected = index_signature(s, p).features
        assert features.shape == expected.shape
        assert features.tobytes() == expected.tobytes(), s.record_id
    assert all(f.shape[0] > 0 for f in built[:3])



@pytest.mark.parametrize("p", [MatchParams(), MatchParams(max_edge=256.9),
                               MatchParams(min_edge=1.0, max_edge=3.0)],
                         ids=["default", "largest-radius", "small"])
def test_lattice_headings_bit_for_bit(random_suite, monkeypatch, p):
    # with max_edge within the table every stack is a lattice stack: every
    # heading is read from the table with no per-edge test, and each equals
    # math.atan2 bit for bit
    prints = random_suite[:12] + [
        make_signature("dense", [(x, 2 * y) for x in range(5) for y in range(4)]),
    ]
    radii = []
    real = matcher._heading_table
    monkeypatch.setattr(matcher, "_heading_table", lambda r: radii.append(r) or real(r))
    built = [f.features for f in index_signatures(prints, p)]
    assert radii == [int(p.max_edge)] * len({len(s.xs) for s in prints})
    assert sum(f.shape[0] for f in built) > 0
    # no table radius leaves no lattice stack: every heading from math.atan2
    monkeypatch.setattr(matcher, "_HEADING_RADIUS", 0)
    monkeypatch.setattr(matcher, "_headings", _atan2_headings)
    for s, features in zip(prints, built):
        expected = index_signature(s, p).features
        assert features.tobytes() == expected.tobytes(), s.record_id


def test_lattice_needs_every_print_of_the_stack(random_suite, monkeypatch):
    # no print can make a stack non-lattice: a negative zero or a
    # half-pixel coordinate is refused when the print is built, and only a
    # max_edge past the table makes a stack whose headings skip the table
    rows = list(random_suite[0].rows())
    for bad in (-0.0, rows[0][1] + 0.5, float(rows[0][1])):
        with pytest.raises(ValueError, match="'bad' has a row that is not"):
            Signature("bad", [(rows[0][0], bad, *rows[0][2:])] + rows[1:])
    radii = []
    real = matcher._heading_table
    monkeypatch.setattr(matcher, "_heading_table", lambda r: radii.append(r) or real(r))
    for p, read in ((PARAMS, [100]), (MatchParams(max_edge=256.99), [256]),
                    (MatchParams(max_edge=257.0), [])):
        radii.clear()
        index_signatures(random_suite[:2], p)
        assert radii == read * len({len(s.xs) for s in random_suite[:2]})


def test_lattice_by_coordinate_type(random_suite, monkeypatch):
    # the constructor takes a bool or a numpy integer as a plain int, so a
    # print of them is a lattice print, its features those of the same print
    # of ints bit for bit; it refuses a float, even an integral one
    base = random_suite[3]
    rows = list(base.rows())
    converted = {
        "bool": Signature("bool", [(True if i == 0 else x, y, t, c)
                                   for i, (x, y, t, c) in enumerate(rows)]),
        "numpy": Signature("int64", [(np.int64(x), np.uint16(y), t, np.int8(c))
                                     for x, y, t, c in rows]),
        "bool-only": Signature("corners", [(a, b, 0.5 * (a + 2 * b), True)
                                           for a in (False, True) for b in (False, True)]),
    }
    for s in converted.values():
        assert {type(v) for v in s.xs + s.ys + s.type_codes} == {int}
    assert converted["numpy"].xs == base.xs and converted["bool"].xs[0] == 1
    with pytest.raises(ValueError, match="'integral-floats' has a row that is not"):
        Signature("integral-floats", [(float(x), y, t, c) for x, y, t, c in rows])
    small = MatchParams(min_edge=0.5, max_edge=3.0)
    radii = []
    real = matcher._heading_table
    monkeypatch.setattr(matcher, "_heading_table", lambda r: radii.append(r) or real(r))
    built = {name: index_signature(s, small if name == "bool-only" else PARAMS).features
             for name, s in converted.items()}
    assert radii == [100, 100, 3]
    assert built["bool-only"].shape[0] == 4
    assert built["numpy"].tobytes() == index_signature(base, PARAMS).features.tobytes()
    monkeypatch.setattr(matcher, "_HEADING_RADIUS", 0)
    monkeypatch.setattr(matcher, "_headings", _atan2_headings)
    for name, s in converted.items():
        expected = index_signature(s, small if name == "bool-only" else PARAMS).features
        assert built[name].shape[0] > 0
        assert built[name].tobytes() == expected.tobytes(), name


def test_non_lattice_stack_reads_no_table(random_suite, monkeypatch):
    # a max_edge past the table's radius makes a non-lattice stack: every
    # heading comes from math.atan2 and none from the table, not even those
    # of edges the table would hold
    stack, p = random_suite[:6], MatchParams(max_edge=600.0)

    def no_table(radius):
        raise AssertionError(f"table of radius {radius} read for a non-lattice stack")

    monkeypatch.setattr(matcher, "_heading_table", no_table)
    built = index_signatures(stack, p)
    monkeypatch.setattr(matcher, "_headings", _atan2_headings)
    for s, index in zip(stack, built):
        assert index.features.shape[0] > 0, s.record_id
        expected = index_signature(s, p).features
        assert index.features.tobytes() == expected.tobytes(), s.record_id


def test_match_params_validation():
    with pytest.raises(ValueError):
        MatchParams(min_edge=100, max_edge=15)
    with pytest.raises(ValueError):
        MatchParams(neighbors_k=1)
    with pytest.raises(ValueError):
        MatchParams(score_threshold=101)
    for bad in (4.0, 0.5, True):
        for field in ("neighbors_k", "min_matched_descriptors"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                MatchParams(**{field: bad})
    for bad in (float("nan"), float("inf"), 0.0):
        for field in ("side_tolerance", "angle_tolerance"):
            with pytest.raises(ValueError, match="tolerances must be positive and finite"):
                MatchParams(**{field: bad})
    assert MatchParams(max_edge=float("inf")).max_edge == float("inf")


# ---------------------------------------------------------------------------
# Scoring


def test_identity_reference(reference_signature):
    result = match_score(reference_signature, reference_signature, PARAMS)
    assert result.score == 100.0
    assert result.matched_descriptors > 0


def test_identity_random_suite(random_suite):
    for s in random_suite:
        assert match_score(s, s, PARAMS).score == 100.0


def test_translation_invariance(reference_signature):
    moved = translate(reference_signature, 37, -11, "moved")
    assert all(m.y >= 0 for m in moved.minutiae)
    assert match_score(reference_signature, moved, PARAMS).score == 100.0


def test_rigid_motion_invariance(reference_signature):
    rotated = translate(quarter_turn(reference_signature, 400), 13, 5)
    assert match_score(reference_signature, rotated, PARAMS).score == 100.0


def test_symmetry(random_suite):
    for a, b in zip(random_suite[0::2], random_suite[1::2]):
        assert match_score(a, b, PARAMS) == match_score(b, a, PARAMS)


def test_unrelated_signatures_zero_matches():
    # compact constellation: neighbor edges 17..40 px
    compact = make_signature("compact", [
        (x * 17, y * 19) for x in range(5) for y in range(4)
    ])
    # sparse constellation 400+ px away: every edge is 90+ px
    sparse = make_signature("sparse", [
        (400 + x * 90, 400 + y * 95) for x in range(4) for y in range(3)
    ])
    result = match_score(compact, sparse, PARAMS)
    assert result.matched_descriptors == 0
    assert result.score == 0.0


def test_empty_signature_errors():
    # no empty print can be built, so match_score never sees one
    for rows in ([], iter([])):
        with pytest.raises(ValueError, match="'e' has no minutiae"):
            Signature("e", rows)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_angle_errors(random_suite, angle):
    # the constructor refuses a NaN or infinite angle by name, anywhere in
    # the print, so no feature build, score, identify or sweep sees one
    good = random_suite[0]
    for position in (0, len(good.xs) // 2, len(good.xs) - 1):
        with pytest.raises(ValueError, match="'bad' has a coordinate outside .* or an angle"):
            Signature("bad", [(x, y, angle if i == position else t, c)
                              for i, (x, y, t, c) in enumerate(good.rows())])


def test_below_three_minutiae_identical_sets_score_100():
    a = make_signature("a", [(10, 20), (40, 60)])
    b = make_signature("b", [(10, 20), (40, 60)])
    assert match_score(a, b, PARAMS).score == 100.0
    c = make_signature("c", [(10, 20), (41, 60)])
    assert match_score(a, c, PARAMS).score == 0.0


def test_triplet_less_prints_score_by_minutiae_equality():
    # sides of 5-10 px: every triangle falls below min_edge
    a = index_signature(make_signature("a", [(0, 0), (5, 0), (0, 8), (6, 6)]), PARAMS)
    same = index_signature(make_signature("same", [(6, 6), (0, 8), (0, 0), (5, 0)]), PARAMS)
    other = index_signature(make_signature("other", [(0, 0), (5, 0), (0, 8), (6, 7)]), PARAMS)
    assert a.features.shape[0] == same.features.shape[0] == other.features.shape[0] == 0
    assert bucket_scorer([same, other], PARAMS)(a, [0, 1]) == [MatchResult(100.0, 0),
                                                               MatchResult(0.0, 0)]


def test_minutiae_key_built_only_for_triplet_less_sides(random_suite):
    full = [index_signature(s, PARAMS) for s in random_suite[:3]]
    empty = index_signature(make_signature("two", [(10, 20), (40, 60)]), PARAMS)
    bucket_scorer(full[1:], PARAMS)(full[0], [0, 1])
    assert not any("minutiae_key" in vars(index) for index in full)
    score_indexed(full[0], empty, PARAMS)
    assert "minutiae_key" in vars(full[0]) and "minutiae_key" in vars(empty)


def test_removal_never_beats_intact_copy(random_suite):
    for s in random_suite[:10]:
        for removals in (1, 3, 5):
            if len(s.minutiae) - removals < 3:
                continue
            subset = Signature("sub", s.minutiae[:-removals])
            assert match_score(s, subset, PARAMS).score <= 100.0


def test_score_deterministic(random_suite):
    a, b = random_suite[0], random_suite[1]
    assert match_score(a, b, PARAMS) == match_score(a, b, PARAMS)


# ---------------------------------------------------------------------------
# Threshold gate


def test_is_match_threshold_inclusive():
    assert is_match(MatchResult(90.0, 3), PARAMS) is True


def test_is_match_below_threshold():
    assert is_match(MatchResult(89.99, 3), PARAMS) is False


def test_is_match_min_descriptors_gate():
    assert is_match(MatchResult(100.0, 5), PARAMS) is True
    gated = MatchParams(min_matched_descriptors=6)
    assert is_match(MatchResult(100.0, 5), gated) is False
    assert is_match(MatchResult(100.0, 6), gated) is True


@pytest.mark.parametrize("dist, pairs, expected", [
    # three pairs tied at distance 1: (0, 0) comes first and blocks the other two
    ([1, 1, 1], [(0, 0), (0, 1), (1, 0)], 1),
    # ... and (1, 1) at distance 2 is still free afterwards
    ([1, 1, 1, 2], [(0, 0), (0, 1), (1, 0), (1, 1)], 2),
    # (0, 0) is the farthest now: the tie (0, 1), (1, 0) pairs both rows
    ([2, 1, 1], [(0, 0), (0, 1), (1, 0)], 2),
])
def test_greedy_pairing_ties(dist, pairs, expected):
    ii, jj = (np.array(side) for side in zip(*pairs))
    seg = np.zeros_like(ii)
    assert _greedy_pair_counts(np.array(dist, dtype=float), seg, ii, jj, 1) == [expected]


def test_greedy_pairing_segments_independent():
    # segment 0 repeats the first tie case; segment 1 (columns 2, 3) reuses
    # row 0 and is not blocked by it; segment 2 has no candidates
    dist = np.array([1, 1, 1, 1, 3], dtype=float)
    seg = np.array([0, 0, 0, 1, 1])
    ii = np.array([0, 0, 1, 0, 1])
    jj = np.array([0, 1, 0, 2, 3])
    assert _greedy_pair_counts(dist, seg, ii, jj, 3) == [1, 2, 0]


def _plain_greedy(dist, seg, ii, jj, segments) -> list[int]:
    """Walk every pair in (segment, dist, i, j) order; keep it when row and column are free."""
    counts = [0] * segments
    rows, cols = set(), set()
    for _, s, i, j in sorted(zip(dist.tolist(), seg.tolist(), ii.tolist(), jj.tolist()),
                             key=lambda t: (t[1], t[0], t[2], t[3])):
        if (s, i) not in rows and j not in cols:
            rows.add((s, i))
            cols.add(j)
            counts[s] += 1
    return counts


def test_greedy_pairing_equals_plain_loop():
    rng = np.random.default_rng(77)
    for trial in range(400):
        segments = int(rng.integers(1, 6))
        m = int(rng.integers(0, 256))
        seg = rng.integers(0, segments, size=m)
        # each segment owns its own column range; few distinct values force ties
        width = int(rng.integers(1, 40))
        ii = rng.integers(0, width, size=m)
        jj = seg * 1000 + rng.integers(0, width, size=m)
        dist = rng.integers(0, 4, size=m).astype(float)
        if trial % 3 == 0:  # mostly unopposed: a near-diagonal with a few collisions
            ii = np.arange(m)
            jj = seg * 1000 + np.where(rng.random(m) < 0.1, rng.integers(0, 5, size=m),
                                       np.arange(m) + 10)
        assert _greedy_pair_counts(dist, seg, ii, jj, segments) == \
            _plain_greedy(dist, seg, ii, jj, segments)


def test_greedy_one_to_one_shortcut_equals_walk(monkeypatch):
    # candidate sets with and without repeated rows or columns, tied
    # distances, several segments and none at all: the count with the
    # one-to-one shortcut equals the walk's with the shortcut disabled
    rng = np.random.default_rng(1999)
    cases = [(np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
              np.empty(0, dtype=np.intp), 3)]
    for trial in range(300):
        segments = int(rng.integers(1, 5))
        m = int(rng.integers(1, 80))
        seg = np.sort(rng.integers(0, segments, size=m))
        ii = rng.permutation(m)  # distinct rows
        jj = seg * 1000 + rng.permutation(m)  # distinct columns
        kind = trial % 4
        if kind == 1:
            ii[rng.integers(0, m)] = ii[0]  # a repeated row (one of a segment's, maybe)
        elif kind == 2:
            jj[rng.integers(0, m)] = jj[0]  # a repeated column
        elif kind == 3:
            ii = rng.integers(0, 6, size=m)  # rows repeated across segments only, or within
        dist = rng.integers(0, 3, size=m).astype(float)  # ties
        cases.append((dist, seg, ii, jj, segments))
    real = matcher._one_to_one
    fired = []
    monkeypatch.setattr(matcher, "_one_to_one",
                        lambda rows, cols: fired.append(real(rows, cols)) or fired[-1])
    shortcut = [_greedy_pair_counts(*case) for case in cases]
    monkeypatch.setattr(matcher, "_one_to_one", lambda rows, cols: False)
    walked = [_greedy_pair_counts(*case) for case in cases]
    assert shortcut == walked == [_plain_greedy(*case) for case in cases]
    assert shortcut[0] == [0, 0, 0]
    assert 50 < sum(fired) < len(fired)  # the shortcut fired on some cases, not on all


# ---------------------------------------------------------------------------
# Batch scoring: one index against many


def test_bucket_scorer_any_alive_subset(random_suite):
    p = MatchParams()
    copies = [translate(s, 11, 7, f"copy{i}") for i, s in enumerate(random_suite[:3])]
    two = make_signature("two", [(10, 20), (40, 60)])
    members = index_signatures(random_suite[:6] + copies + [two, two], p)
    assert sum(m.features.shape[0] == 0 for m in members) == 2
    score = bucket_scorer(members, p)
    rng = np.random.default_rng(5)
    query = index_signature(random_suite[7], p)
    for head in list(range(len(members))) + [None]:
        a = query if head is None else members[head]
        for _ in range(4):
            # any subset in any order: suffixes, gaps, the head itself
            alive = rng.permutation(len(members))[:int(rng.integers(0, len(members) + 1))].tolist()
            assert score(a, alive) == [score_indexed(a, members[j], p) for j in alive]
    assert score(members[0], [6, 0])[0].score == 100.0
    assert score(members[-1], [len(members) - 2]) == [MatchResult(100.0, 0)]
    # a triplet-less head, not a member, scores by exact minutiae equality alone
    bare = index_signature(make_signature("two-again", [(10, 20), (40, 60)]), p)
    assert bare.features.shape[0] == 0
    assert score(bare, range(len(members))) == [
        MatchResult(100.0 if m.signature is two else 0.0, 0) for m in members]
    # the same index repeated among the members, and no members at all
    repeated = members[1:4] + [members[0], members[-1], members[3], members[0]]
    for a in (members[0], query, bare):
        assert bucket_scorer(repeated, p)(a, range(len(repeated))) == \
            [score_indexed(a, b, p) for b in repeated]
    assert score(members[0], []) == bucket_scorer([], p)(members[0], []) == []


class CountingParams(MatchParams):
    """Matcher parameters that count every read of a field, by name."""

    def __init__(self, **values):
        object.__setattr__(self, "reads", collections.Counter())
        super().__init__(**values)

    def __getattribute__(self, name: str):
        if name in MatchParams.__dataclass_fields__:
            object.__getattribute__(self, "reads")[name] += 1
        return object.__getattribute__(self, name)


def test_bucket_scorer_reads_tolerances_on_every_call(random_suite):
    # a built scorer binds its params, not copies of their values: a
    # caller that samples on each read, such as a host-speed probe, is
    # read on every call
    p = CountingParams(side_tolerance=3.0)
    members = index_signatures(random_suite[:4], p)
    score = bucket_scorer(members, p)
    for alive in ([0, 1, 2, 3], [2], [3, 1]):
        p.reads.clear()
        results = score(members[0], alive)
        assert p.reads["side_tolerance"] > 0 and p.reads["angle_tolerance"] > 0
        assert results == [score_indexed(members[0], members[j], p) for j in alive]


def _screened(fa: np.ndarray, fb: np.ndarray, p: MatchParams) -> list[tuple[float, int, int]]:
    """Every row pair that passes the screens, checked one by one, as (dist, i, j)."""
    tol, angle_tol = p.side_tolerance, p.angle_tolerance
    candidates = []
    for i, a in enumerate(fa.tolist()):
        for j, b in enumerate(fb.tolist()):
            if not (a[2] - tol <= b[2] <= a[2] + tol):
                continue
            d = [abs(x - y) for x, y in zip(a, b)]
            o = [min(x, 2.0 * math.pi - x) for x in d[6:9]]
            if (all(x <= tol for x in d[0:2]) and all(x <= angle_tol for x in d[3:6])
                    and all(x <= angle_tol for x in o)):
                dist = ((d[0] + d[1] + d[2]) / tol + (d[3] + d[4] + d[5]) / angle_tol
                        + (o[0] + o[1] + o[2]) / angle_tol)
                candidates.append((dist, i, j))
    return candidates


def _brute_counts(fa: np.ndarray, fb: np.ndarray, p: MatchParams) -> int:
    """Screen every row pair one by one, then pair greedily in (dist, i, j) order."""
    rows, cols = set(), set()
    for _, i, j in sorted(_screened(fa, fb, p)):
        if i not in rows and j not in cols:
            rows.add(i)
            cols.add(j)
    return len(rows)


def _assert_join_exact(fa: np.ndarray, fbs: list[np.ndarray], p: MatchParams) -> list[int]:
    """The join emits each pair at most once, every screened pair, and only pairs within the
    largest-side window, so that the side screen need not test s3; counts match brute force."""
    tol = p.side_tolerance
    for fb in fbs:
        ii, jj = _JoinIndex([fb], p).candidates(fa, np.ones(1, dtype=bool))
        emitted = list(zip(ii.tolist(), jj.tolist()))
        assert len(set(emitted)) == len(emitted)
        assert {(i, j) for _, i, j in _screened(fa, fb, p)} <= set(emitted)
        s3a, s3b = fa[:, 2], fb[:, 2][jj]
        assert ((s3b >= (s3a - tol)[ii]) & (s3b <= (s3a + tol)[ii])).all()
    counts = _JoinIndex(fbs, p).pair_counts(fa, np.ones(len(fbs), dtype=bool))
    assert counts == [_brute_counts(fa, fb, p) for fb in fbs]
    return counts


def _edge_features(rng: np.random.Generator, n: int, p: MatchParams) -> np.ndarray:
    """Rows on a lattice of half tolerances, some moved 1 ulp either way.

    Sides land on cell edges (multiples of side_tolerance) and side
    differences land exactly on the tolerance; orientations straddle 0
    and 2*pi.
    """
    tol, angle_tol = p.side_tolerance, p.angle_tolerance
    sides = np.sort(rng.integers(2, 14, size=(n, 3)) * (tol / 2.0), axis=1)
    nudge = rng.integers(-1, 2, size=sides.shape)
    sides = np.where(nudge < 0, np.nextafter(sides, 0.0),
                     np.where(nudge > 0, np.nextafter(sides, np.inf), sides))
    angles = rng.integers(0, 6, size=(n, 3)) * (angle_tol / 2.0)
    orientations = np.mod(rng.integers(-3, 4, size=(n, 3)) * (angle_tol / 2.0), 2.0 * math.pi)
    return np.concatenate((np.sort(sides, axis=1), angles, orientations), axis=1)


@pytest.mark.parametrize("p", [MatchParams(), MatchParams(side_tolerance=0.75, angle_tolerance=0.5)],
                         ids=["default", "narrow"])
def test_join_matches_brute_force(p):
    rng = np.random.default_rng(2024)
    for _ in range(80):
        fa = _edge_features(rng, int(rng.integers(1, 12)), p)
        fbs = [_edge_features(rng, int(rng.integers(1, 12)), p)
               for _ in range(int(rng.integers(1, 5)))]
        counts = _JoinIndex(fbs, p).pair_counts(fa, np.ones(len(fbs), dtype=bool))
        assert counts == [_brute_counts(fa, fb, p) for fb in fbs]


def test_join_keeps_pair_past_rounded_bound():
    # |s1a - s1b| rounds down to the tolerance although s1b lies above
    # s1a + tol as computed; the far row widens the key's s1 range
    p = MatchParams(side_tolerance=1.078628066597612)
    s1a, s1b, s3 = 0.5662739630985573, 1.6449020296961694, 3.0935121026603496
    assert abs(s1a - s1b) <= p.side_tolerance and s1a + p.side_tolerance < s1b

    def row(s1: float, s: float) -> np.ndarray:
        return np.array([[s1, s, s, 0.5, 1.0, 1.5, 1.0, 2.0, 3.0]])

    fa, fbs = row(s1a, s3), [row(s1b, s3), row(100.0, 100.0)]
    counts = _JoinIndex(fbs, p).pair_counts(fa, np.ones(len(fbs), dtype=bool))
    assert counts == [_brute_counts(fa, fb, p) for fb in fbs] == [1, 0]


@pytest.mark.parametrize("tol", [1e-13, 1e-20, 5e-324], ids=["ulp", "tiny", "subnormal"])
def test_join_tiny_side_tolerance(random_suite, tol):
    # tolerances near and far below the float resolution of 15-100 px
    # sides; a copy with every side 1 ulp longer matches under the first
    p = MatchParams(side_tolerance=tol)
    fa = index_signature(random_suite[0], p).features
    longer = np.concatenate((np.nextafter(fa[:, :3], np.inf), fa[:, 3:]), axis=1)
    fbs = [fa, longer, index_signature(random_suite[1], p).features, fa]
    counts = _JoinIndex(fbs, p).pair_counts(fa, np.ones(len(fbs), dtype=bool))
    assert counts == [_brute_counts(fa, fb, p) for fb in fbs]
    assert counts[0] == counts[3] > 0
    assert (counts[1] > 0) == (tol == 1e-13)


@pytest.mark.parametrize("angle_tol", [1e-13, 1e-20, 5e-324], ids=["ulp", "tiny", "subnormal"])
def test_join_tiny_angle_tolerance(random_suite, angle_tol):
    # tolerances near and far below the float resolution of orientations in
    # [0, 2*pi); a copy with every orientation 1 ulp larger matches under the first
    p = MatchParams(angle_tolerance=angle_tol)
    assert _arc_count(angle_tol) == 2 ** 24
    fa = index_signature(random_suite[0], p).features
    turned = np.concatenate((fa[:, :6], np.nextafter(fa[:, 6:], np.inf)), axis=1)
    fbs = [fa, turned, index_signature(random_suite[1], p).features, fa]
    counts = _assert_join_exact(fa, fbs, p)
    assert counts[0] == counts[3] > 0
    assert (counts[1] > 0) == (angle_tol == 1e-13)


@pytest.mark.parametrize("angle_tol", [math.pi / 2, math.pi, 2 * math.pi, 10.0],
                         ids=["quarter", "half", "full", "beyond"])
def test_join_wide_angle_tolerance(random_suite, angle_tol):
    # four arcs one quarter turn wide would be narrower than the join's
    # arcs must be, the tolerance widened past rounding, so a quarter turn
    # and every wider tolerance leave a single arc, probed once
    p = MatchParams(angle_tolerance=angle_tol)
    assert _arc_count(angle_tol) == (4 if angle_tol == math.pi / 2 else 1)
    assert _JoinIndex([], p).arcs == 1
    rng = np.random.default_rng(7)
    for _ in range(30):
        fa = _edge_features(rng, int(rng.integers(1, 12)), p)
        _assert_join_exact(fa, [_edge_features(rng, int(rng.integers(1, 12)), p)
                                for _ in range(int(rng.integers(1, 5)))], p)
    fa = index_signature(random_suite[2], p).features
    _assert_join_exact(fa, [fa, index_signature(random_suite[3], p).features], p)


def test_join_largest_angle_tolerance(random_suite):
    # the reach is cut to 2*pi, so that the largest float tolerance cannot overflow it
    p = MatchParams(angle_tolerance=sys.float_info.max)
    fa = index_signature(random_suite[2], p).features
    _assert_join_exact(fa, [fa, index_signature(random_suite[3], p).features], p)


@pytest.mark.parametrize("side_tol", [5.0, 1e6], ids=["default", "huge"])
def test_join_heads_outside_index_range(side_tol):
    # heads whose s3 lies far above, far below, or (under a huge tolerance)
    # everywhere around the indexed rows' s3: the join index's key width
    # bounds its own rows only, so a head's probes must still stay on their arc
    p = MatchParams(side_tolerance=side_tol)
    rng = np.random.default_rng(31)
    for _ in range(20):
        fbs = [_edge_features(rng, int(rng.integers(1, 12)), MatchParams())
               for _ in range(int(rng.integers(1, 4)))]
        fa = _edge_features(rng, int(rng.integers(1, 12)), MatchParams())
        for scale in (1.0, 1e3, -1.0):
            heads = np.concatenate((fa[:, :3] * scale, fa[:, 3:]), axis=1)
            _assert_join_exact(heads, fbs, p)
            _assert_join_exact(fa, [np.concatenate((f[:, :3] * scale, f[:, 3:]), axis=1)
                                    for f in fbs], p)


@pytest.mark.parametrize("angle_tol, arcs", [
    (0.2618, 23),                                   # the default
    (0.5, 12),                                      # arcs wider than the tolerance
    (0.25, 25),                                     # a reach of 0.25 misses 2*pi - 0.25 against 0
    (math.pi / 2, 1),                               # 4 arcs one tolerance wide are too narrow
    (TWO_PI / 5, 4),                                # and 5 such arcs leave 4
    (math.nextafter(TWO_PI / 65, math.inf), 64),    # the quotient rounds up onto 65
    (math.nextafter(TWO_PI / 4, math.inf), 1),      # fewer than 4 fit: a single arc
], ids=["default", "wide-arcs", "wrap", "quarter", "fifth", "rounded-quotient", "single"])
def test_join_orientations_on_arc_edges(angle_tol, arcs):
    # orientations on each of the join's arc edges k * TWO_PI / arcs and 1 ulp
    # either side, next to 0 and 2*pi included, and one tolerance away from an edge
    p = MatchParams(angle_tolerance=angle_tol)
    assert _JoinIndex([], p).arcs == arcs
    assert arcs == 1 or TWO_PI / arcs >= angle_tol
    edges = [k * (TWO_PI / arcs) for k in sorted({0, 1, arcs // 2, arcs - 1, arcs})]
    near = {float(v) for e in edges for c in (e - angle_tol, e, e + angle_tol)
            for v in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))}
    orientations = sorted(v for v in near if 0.0 <= v <= TWO_PI)
    assert orientations[0] == 0.0 and orientations[-1] == TWO_PI
    # rows differ in the first orientation alone, so a pair's count is its screen
    rows = np.array([[20.0, 30.0, 40.0, 0.5, 1.0, 1.5, o, 1.0, 2.0] for o in orientations])
    singles = list(rows[:, None, :])
    for fa in singles:
        _assert_join_exact(fa, singles, p)
    counts = _assert_join_exact(rows, [rows], p)
    assert counts == [len(rows)]


def _sorted_index(features: np.ndarray, record_id: str = "m") -> TripletIndex:
    """A hand-built triplet index of ``features``, rows sorted by column 2."""
    order = np.argsort(features[:, 2], kind="stable")
    return TripletIndex(features[order], make_signature(record_id, [(0, 0)]))


@pytest.mark.parametrize("p", [
    MatchParams(), MatchParams(side_tolerance=0.75, angle_tolerance=0.5),
    MatchParams(side_tolerance=1e-13), MatchParams(side_tolerance=1e-20),
    MatchParams(side_tolerance=5e-324), MatchParams(angle_tolerance=1e-13),
    MatchParams(angle_tolerance=1e-20), MatchParams(angle_tolerance=5e-324),
], ids=["default", "narrow", "side-ulp", "side-tiny", "side-subnormal",
        "angle-ulp", "angle-tiny", "angle-subnormal"])
def test_one_member_window_matches_brute_force(p):
    # a call scoring one member joins by the largest-side window, one
    # scoring more by the (arc, s3) join: both give the brute-force count
    rng = np.random.default_rng(1991)
    for _ in range(40):
        a = _sorted_index(_edge_features(rng, int(rng.integers(1, 12)), p), "a")
        members = [_sorted_index(_edge_features(rng, int(rng.integers(1, 12)), p))
                   for _ in range(3)]
        score = bucket_scorer(members, p)
        together = score(a, [0, 1, 2])
        for j, m in enumerate(members):
            (alone,) = score(a, [j])
            assert alone.matched_descriptors == _brute_counts(a.features, m.features, p)
            assert alone == together[j] == score_indexed(a, m, p)


def test_one_member_window_on_prints(random_suite):
    # real prints under the tiny tolerances, against copies 1 ulp off
    for p in (MatchParams(side_tolerance=1e-13), MatchParams(angle_tolerance=1e-13)):
        fa = index_signature(random_suite[0], p).features
        longer = np.concatenate((np.nextafter(fa[:, :3], np.inf), fa[:, 3:]), axis=1)
        turned = np.concatenate((fa[:, :6], np.nextafter(fa[:, 6:], np.inf)), axis=1)
        members = [_sorted_index(f) for f in (fa, longer, turned,
                                              index_signature(random_suite[1], p).features)]
        a = _sorted_index(fa, "a")
        together = bucket_scorer(members, p)(a, range(4))
        for j, m in enumerate(members):
            alone = score_indexed(a, m, p)
            assert alone.matched_descriptors == _brute_counts(a.features, m.features, p)
            assert alone == together[j]
        assert together[0].score == 100.0 and together[1].matched_descriptors > 0


def test_one_member_scorer_builds_no_join_index(monkeypatch, random_suite):
    members = index_signatures(random_suite[:3] + [make_signature("two", [(10, 20), (40, 60)])],
                               PARAMS)
    query = index_signature(random_suite[5], PARAMS)
    expected = [score_indexed(query, m, PARAMS) for m in members]
    built = []

    class Counting(_JoinIndex):
        def __init__(self, fbs, p):
            built.append(len(fbs))
            super().__init__(fbs, p)

    def refuse(fbs, p):
        raise AssertionError("a join index was built for one member")

    monkeypatch.setattr(matcher, "_JoinIndex", refuse)
    assert score_indexed(query, members[1], PARAMS) == expected[1]
    assert match_score(random_suite[5], random_suite[1], PARAMS) == expected[1]
    score = bucket_scorer(members, PARAMS)
    # one member with triplets per call: the triplet-less member does not count
    assert score(query, [2]) == [expected[2]]
    assert score(query, [3, 0]) == [expected[3], expected[0]]
    monkeypatch.setattr(matcher, "_JoinIndex", Counting)
    for alive in ([0, 1, 2, 3], [1], [2, 0], [3, 1, 0], [0]):
        assert score(query, alive) == [expected[j] for j in alive]
    assert built == [4]  # built once, on the first call of two members or more


# ---------------------------------------------------------------------------
# The cell-count bound the dedup sweep decides impostor pairs by


def _cell_edge_features(grid: _CellGrid, rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows with sides on the grid's cell edges and orientations on its arc edges, 0 and
    2*pi among them, some moved 1 ulp up (sides) or either way (orientations)."""
    edges = grid.lo + rng.integers(0, 4, size=(n, 3)) * grid.width
    sides = np.where(rng.integers(0, 2, size=(n, 3)) == 1, np.nextafter(edges, np.inf), edges)
    arcs = rng.integers(0, grid.arcs + 1, size=(n, 3)) * (TWO_PI / grid.arcs)
    nudge = rng.integers(-1, 2, size=arcs.shape)
    orientations = np.clip(np.where(nudge < 0, np.nextafter(arcs, -np.inf),
                                    np.where(nudge > 0, np.nextafter(arcs, np.inf), arcs)),
                           0.0, np.nextafter(TWO_PI, 0.0))
    angles = rng.integers(0, 6, size=(n, 3)) * 0.1
    return np.concatenate((sides, angles, orientations), axis=1)


def _partners(rows: np.ndarray, rng: np.random.Generator, p: MatchParams) -> np.ndarray:
    """Each row with every side moved by -tol, 0 or +tol and every orientation by -angle_tol,
    0 or +angle_tol, wrapping at 2*pi: pairs on the screens' edges, many of them kept."""
    sides = rows[:, :3] + rng.integers(-1, 2, size=(rows.shape[0], 3)) * p.side_tolerance
    turns = rng.integers(-1, 2, size=(rows.shape[0], 3)) * p.angle_tolerance
    orientations = np.minimum(np.mod(rows[:, 6:] + turns, TWO_PI), np.nextafter(TWO_PI, 0.0))
    return np.concatenate((sides, rows[:, 3:6], orientations), axis=1)


def _assert_screen_exact(members: list[TripletIndex], heads: list[TripletIndex],
                         p: MatchParams) -> tuple[int, int]:
    """For every (head, member) pair: the bound is at least the brute-force paired count, the
    grid within its cap, and the screen drops only pairs that ``is_match`` refuses on the
    exact score. Returns how many pairs the screen dropped and how many it kept."""
    with_rows = [m.features for m in members if m.features.shape[0]]
    grid = _CellGrid(with_rows, p)
    assert grid.grid.size <= matcher._GRID_CELLS
    screen, score = bucket_screen(members, p), bucket_scorer(members, p)
    dropped = kept = 0
    for a in heads:
        if a.features.shape[0]:
            bounds = grid.bounds(a.features).tolist()
            assert all(b >= _brute_counts(a.features, fb, p) for b, fb in zip(bounds, with_rows))
        alive = list(range(len(members)))
        undecided = screen(a, alive)
        assert undecided == [j for j in alive if j in set(undecided)]
        results = score(a, alive)
        for j, result in zip(alive, results):
            if j in undecided:
                kept += 1
            else:
                dropped += 1
                assert not is_match(result, p)
    return dropped, kept


BOUND_PARAMS = [
    MatchParams(), MatchParams(side_tolerance=0.001, angle_tolerance=0.001),
    MatchParams(side_tolerance=1e-13, angle_tolerance=1e-13),
    MatchParams(side_tolerance=20.0, angle_tolerance=1.0), MatchParams(angle_tolerance=2.5),
    MatchParams(max_edge=300.0), MatchParams(min_matched_descriptors=5),
    MatchParams(score_threshold=0.0), MatchParams(score_threshold=100.0),
]
BOUND_IDS = ["default", "milli", "ulp", "wide", "few-arcs", "max-edge-300", "min-matched-5",
             "threshold-0", "threshold-100"]


@pytest.mark.parametrize("p", BOUND_PARAMS, ids=BOUND_IDS)
def test_cell_bound_on_prints(random_suite, p, monkeypatch):
    small = sorted(random_suite, key=lambda s: len(s.xs))[:5]
    copies = [translate(small[0], 9, -4, "moved"), quarter_turn(small[1], 500)]
    one_off = Signature("one-off", [(x + (i == 3), y, t, c) for i, (x, y, t, c)
                                    in enumerate(small[2].rows())])
    two = make_signature("two", [(10, 20), (40, 60)])
    members = index_signatures(small + copies + [one_off, two], p)
    query = index_signature(random_suite[-1], p)
    dropped, kept = _assert_screen_exact(members, members + [query], p)
    assert kept >= len(members) + 2  # each print against itself, and the copies
    if p.score_threshold > 0 and p.angle_tolerance < 1.0:
        assert dropped > kept  # most of the 90 pairs are impostors, and the bound finds them
    # the sweep of these prints as one bucket: the same groups and comparisons screened or not
    bucket = [m.signature.record_id for m in members]
    prepared = dict(zip(bucket, members))
    screened = _sweep_bucket(bucket, prepared, p)
    monkeypatch.setattr(dedup, "bucket_screen", lambda _m, _p: lambda _a, alive: list(alive))
    assert _sweep_bucket(bucket, prepared, p) == screened


@pytest.mark.parametrize("p", BOUND_PARAMS, ids=BOUND_IDS)
def test_cell_bound_on_lattices(p):
    # rows on half-tolerance lattices, sides on cell edges and orientations
    # straddling 0 and 2*pi, then rows on the grid's own cell and arc edges
    # against partners one tolerance away
    rng = np.random.default_rng(4242)
    for _ in range(25):
        members = [_sorted_index(_edge_features(rng, int(rng.integers(1, 12)), p))
                   for _ in range(int(rng.integers(2, 5)))]
        heads = members + [_sorted_index(_edge_features(rng, int(rng.integers(1, 12)), p), "a")]
        _assert_screen_exact(members, heads, p)
        grid = _CellGrid([m.features for m in members], p)
        heads = [_sorted_index(_cell_edge_features(grid, rng, int(rng.integers(1, 12))), "a")
                 for _ in range(2)]
        members = [_sorted_index(_partners(h.features, rng, p)) for h in heads for _ in range(2)]
        _assert_screen_exact(members, heads + members, p)


def test_cell_bound_keeps_pair_past_rounded_bound():
    # |s1a - s1b| rounds down to the tolerance although s1b lies above
    # s1a + tol; with the s1 cells starting at lo, s1a's quotient falls just
    # short of 1 and s1b's reaches 2, so cells exactly one tolerance wide
    # would put the pair two cells apart
    p = MatchParams(side_tolerance=1.078628066597612)
    s1a, s1b, s3 = 0.5662739630985573, 1.6449020296961694, 3.0935121026603496
    lo = -0.5123541034990545
    tol = p.side_tolerance
    assert math.floor((s1b - lo) / tol) - math.floor((s1a - lo) / tol) == 2

    def row(s1: float, s: float) -> np.ndarray:
        return np.array([[s1, s, s, 0.5, 1.0, 1.5, 1.0, 2.0, 3.0]])

    fa, fbs = row(s1a, s3), [row(s1b, s3), row(lo, 100.0)]
    bounds = _CellGrid(fbs, p).bounds(fa).tolist()
    assert bounds == [_brute_counts(fa, fb, p) for fb in fbs] == [1, 0]


def test_cell_grid_capped_at_any_tolerance(random_suite):
    # a tolerance near the float resolution would ask for some 2**60 cells uncapped
    for p in (MatchParams(side_tolerance=5e-324, angle_tolerance=5e-324),
              MatchParams(side_tolerance=1e-13), MatchParams(angle_tolerance=1e-20)):
        fbs = [f.features for f in index_signatures(random_suite[:6], p)]
        grid = _CellGrid(fbs, p)
        assert 0 < grid.grid.size <= matcher._GRID_CELLS
        assert grid.bounds(fbs[0])[0] == fbs[0].shape[0]  # a print bounds itself by its rows


@pytest.mark.parametrize("angle_tol", [0.2618, 0.5, 0.25, TWO_PI / 5, math.pi / 2,
                                       math.nextafter(TWO_PI / 4, math.inf), math.pi, 10.0],
                         ids=["default", "wide-arcs", "wrap", "fifth", "quarter", "single",
                              "half", "beyond"])
def test_join_cuts_the_circle_as_the_grid_does(random_suite, angle_tol):
    # under the grid's cap the join and the bound cut the orientation circle
    # by one rule, so the grid's argument that a pair passing the orientation
    # screen lies on neighbouring arcs is the join's too
    p = MatchParams(angle_tolerance=angle_tol)
    fbs = [f.features for f in index_signatures(random_suite[:4], p)]
    grid = _CellGrid(fbs, p)
    assert grid.grid.size < matcher._GRID_CELLS
    assert _JoinIndex(fbs, p).arcs == grid.arcs


def test_screen_keeps_one_member_and_triplet_less_calls(monkeypatch, random_suite):
    members = index_signatures(random_suite[:3] + [make_signature("two", [(10, 20), (40, 60)])],
                               PARAMS)
    bare = index_signature(make_signature("bare", [(10, 20), (40, 60)]), PARAMS)
    built = []

    class Counting(_CellGrid):
        def __init__(self, fbs, p):
            built.append(len(fbs))
            super().__init__(fbs, p)

    monkeypatch.setattr(matcher, "_CellGrid", Counting)
    screen = bucket_screen(members, PARAMS)
    # one member with triplets, or a triplet-less head: every member kept, no grid
    assert screen(members[0], [1]) == [1]
    assert screen(members[0], [3, 2]) == [3, 2]
    assert screen(bare, [0, 1, 2, 3]) == [0, 1, 2, 3]
    assert built == []
    # two members with triplets: unrelated prints dropped, the triplet-less one kept
    assert screen(members[0], [3, 1, 2, 0]) == [3, 0]
    assert screen(members[1], [2, 3, 0]) == [3]
    assert built == [4]  # built once, on the first call of two members or more


# ---------------------------------------------------------------------------
# Golden pin: features and scores must not drift, bit for bit

GOLDEN_PARAMS = (MatchParams(), MatchParams(neighbors_k=2), MatchParams(neighbors_k=7))
GOLDEN_FEATURES = "1868b5847a31332edefb878fe3e107fca81d2949c49d89a7ddb2279712df36c3"
GOLDEN_SCORES = "623852f2b699344e9b6e38eaefba6e0a63c053c4815514dac18ce938d9fea6de"


def _golden_corpus() -> tuple[list[Signature], list[tuple[str, str]]]:
    """Seeded prints (some below 3 minutiae, jittered and dropped
    duplicates) plus hand-built collinear, coincident and 3-point cases."""
    signatures, truth = generate(GenSpec(
        subjects=60, minutiae_per_print=(1, 45), dup_fraction=0.25,
        jitter=2.0, drop_prob=0.05, seed=2003))
    signatures += [
        make_signature("collinear", [(0, 0), (20, 0), (40, 0), (60, 0), (80, 0)]),
        make_signature("coincident", [(10, 10), (10, 10), (40, 10), (25, 40)]),
        make_signature("three", [(0, 0), (50, 0), (25, 43)]),
    ]
    return signatures, truth


def _feature_digest(signatures: list[Signature]) -> str:
    h = hashlib.sha256()
    for p in GOLDEN_PARAMS:
        for s in signatures:
            features = index_signature(s, p).features
            h.update(repr(features.shape).encode())
            h.update(features.tobytes())
    return h.hexdigest()


def _score_digest(signatures: list[Signature], truth: list[tuple[str, str]]) -> str:
    by_id = {s.record_id: s for s in signatures}
    pairs = [(a.record_id, b.record_id) for a, b in zip(signatures, signatures[1:])]
    pairs += truth
    results = []
    for p in GOLDEN_PARAMS:
        for a, b in pairs:
            r = score_indexed(index_signature(by_id[a], p), index_signature(by_id[b], p), p)
            results.append((r.score, r.matched_descriptors))
    return hashlib.sha256(repr(results).encode()).hexdigest()


# Lattice prints with repeated coincident points: distance ties decide the
# neighbour order and many anchors see the same triangle, so this pins the
# stable tie order and the first-seen triangle order as well.
GOLDEN_TIES_K = (2, 3, 4, 7, 12)
GOLDEN_FEATURES_TIES = "32b117ac599e62f5e23e989c8f680cf4182f357331cd8d3391bb29e241ab9408"


def _lattice_corpus() -> list[Signature]:
    """Seeded integer-lattice prints (15-30 px pitch), up to 120 minutiae,
    some points repeated; ridge angles on multiples of pi/4 and a few
    random ones, so orientations land on 0 and 2*pi."""
    rng = np.random.default_rng(7011)
    angles = [q * math.pi / 4.0 for q in range(8)]
    signatures = []
    for i in range(48):
        pitch = int(rng.integers(15, 31))
        side = int(rng.integers(2, 14))
        n = int(rng.integers(1, min(side * side, 110) + 1))
        cells = rng.choice(side * side, size=n, replace=False)
        points = [(int(c % side) * pitch, int(c // side) * pitch) for c in cells]
        repeats = int(rng.integers(0, n // 4 + 2))
        points += [points[int(j)] for j in rng.integers(0, n, size=repeats)]
        signatures.append(Signature(f"lattice{i}", [
            Minutia(x, y, angles[int(rng.integers(0, 8))] if rng.random() < 0.8
                    else float(rng.uniform(0.0, 2.0 * math.pi)), 1)
            for x, y in points[:120]]))
    return signatures


def test_features_golden_ties():
    signatures = _lattice_corpus()
    assert max(len(s.minutiae) for s in signatures) > 100
    assert any(len(s.minutiae) < 3 for s in signatures)
    h = hashlib.sha256()
    for k in GOLDEN_TIES_K:
        p = MatchParams(neighbors_k=k)
        for s in signatures:
            features = index_signature(s, p).features
            h.update(repr(features.shape).encode())
            h.update(features.tobytes())
    assert h.hexdigest() == GOLDEN_FEATURES_TIES


def test_features_and_scores_golden():
    signatures, truth = _golden_corpus()
    assert any(len(s.minutiae) < 3 for s in signatures)
    assert truth
    assert _feature_digest(signatures) == GOLDEN_FEATURES
    assert _score_digest(signatures, truth) == GOLDEN_SCORES


# ---------------------------------------------------------------------------
# Stacked builds: a list built at once equals each print built alone


def _stacking_corpus() -> list[Signature]:
    """Prints of 1-8 and 20-60 minutiae, one count shared by more prints
    than a stack holds, counts whose prints have no triangle at all,
    repeated prints, and both golden corpora, in a seeded shuffled order."""
    small, _ = generate(GenSpec(subjects=24, minutiae_per_print=(1, 8), seed=1301))
    large, _ = generate(GenSpec(subjects=40, minutiae_per_print=(20, 60), seed=1302))
    crowd, _ = generate(GenSpec(subjects=2 * _STACK + 3, minutiae_per_print=(30, 30), seed=1303))
    # Grid points 200 px apart, beyond max_edge: no admissible side, so no
    # triangle, and counts no other print here has, so whole stacks have none.
    sparse = [make_signature(f"sparse{i}", [(200 * (j % 12), 200 * (j // 12))
                                            for j in range(121 + i % 3)])
              for i in range(3 * _STACK)]
    signatures = small + large + crowd + sparse + _golden_corpus()[0] + _lattice_corpus()
    signatures += signatures[::7]
    order = np.random.default_rng(1304).permutation(len(signatures))
    return [signatures[i] for i in order]


def test_index_signatures_equal_single_builds():
    signatures = _stacking_corpus()
    counts = [len(s.xs) for s in signatures]
    assert set(range(1, 9)) <= set(counts) and {20, 60} & set(counts)
    assert counts.count(30) > 2 * _STACK and counts.count(121) >= _STACK
    assert len({id(s) for s in signatures}) < len(signatures)
    for p in GOLDEN_PARAMS + tuple(MatchParams(neighbors_k=k) for k in GOLDEN_TIES_K):
        stacked = index_signatures(signatures, p)
        assert len(stacked) == len(signatures)
        for s, index in zip(signatures, stacked):
            alone = index_signature(s, p).features
            assert index.signature is s
            assert index.features.shape == alone.shape
            assert index.features.tobytes() == alone.tobytes()


def test_index_signatures_rejects_bad_print_anywhere():
    # a bad print is refused when it is built, wherever it would have stood
    # in the list; an empty list builds nothing
    rows = [(0, 0, 0.5, 1), (50, 0, 0.5, 1), (25, 43, 0.5, 1)]
    for position in range(3):
        for field, bad in ((0, 10 ** 400), (1, -1), (2, math.nan), (3, 1.5)):
            broken = [list(row) for row in rows]
            broken[position][field] = bad
            with pytest.raises(ValueError, match="^signature 'bad' has a "):
                Signature("bad", map(tuple, broken))
    assert index_signatures([], PARAMS) == []


def _assert_contract(indexes: list[TripletIndex]) -> int:
    """Every index's features finite and ascending in column 2; returns the row count."""
    for index in indexes:
        f = index.features
        assert f.dtype == np.float64 and f.ndim == 2 and f.shape[1] == 9
        assert np.isfinite(f).all(), index.signature.record_id
        assert (f[:-1, 2] <= f[1:, 2]).all(), index.signature.record_id
    return sum(index.features.shape[0] for index in indexes)


@pytest.mark.parametrize("p", [MatchParams(), MatchParams(max_edge=600.0),
                               MatchParams(neighbors_k=7)],
                         ids=["default", "non-lattice", "k7"])
def test_index_signatures_keep_the_join_contract(random_suite, p):
    # the joins trust what index_signatures builds: finite features, rows
    # ascending in the largest side; prints of 1-2 minutiae build none
    tiny = [make_signature("one", [(5, 9)]), make_signature("two", [(10, 20), (40, 60)]),
            make_signature("two-b", [(0, 0), (30, 0)], theta=6.2)]
    indexes = index_signatures(random_suite + tiny, p)
    assert _assert_contract(indexes) > 0
    assert all(index.features.shape == (0, 9) for index in indexes[-3:])
    assert _assert_contract(index_signatures(_stacking_corpus(), p)) > 0
