"""Similarity scoring of two signatures via minutiae-triplet descriptors.

Each signature is reduced to a set of local descriptors: triangles built
from every minutia and pairs of its k nearest neighbors, filtered to
keep all edges within [min_edge, max_edge]. A triplet is described by
nine translation- and rotation-invariant features: the three side
lengths (ascending), the three interior angles (matching order), and
the three minutiae ridge angles expressed relative to the triangle's
own frame (direction from each vertex to the next one in that order).
A signature's features are built as one (nt, 9) array; ``index_signatures``
builds a list of prints a stack of one minutiae count at a time, each
print's features bit for bit those it has built alone.

Headings of triangle edges are read from a table of ``math.atan2`` over
integer vectors when ``max_edge`` is within the table, and computed by
``math.atan2`` otherwise. Each minutia's nearest neighbors come from a
partition of its distance row rather than a sort of all of it; both
give bit for bit what ``math.atan2`` and a stable sort give.

Two signatures are scored by greedily pairing mutually best-matching
triplets under per-feature tolerances; the matched-pair count,
normalized by the smaller triplet-set size, gives a 0-100 score.
``bucket_scorer`` indexes a list of prints once, bound to one
``MatchParams``: their rows are concatenated with each row's member
position, and keyed and sorted on (arc, s3) as one integer, the arc
of the first orientation (the circle cut into equal arcs at least
``angle_tolerance`` wide) and the rank of s3 among the indexed rows.
Any head, a member or not, is then scored against any subset of the
members in one numpy pass: one join with the subset's rows finds every
candidate triplet pair, the screens run once over all of them, and one
greedy walk pairs them per member. A bucket sweep thus builds one index
per bucket, however many heads it scores. A call that scores one
member alone, as ``score_indexed`` and most ``identify`` hits do,
builds no index: two binary searches per head row over the member's
rows, already sorted by largest side, find its candidates (a sort-merge
band join). Both joins take a head row's largest-side window by the
same two searches, so each emits exactly the pairs within it, and the
same screens and walk follow. Each result equals that pair scored alone.

This module is also the one home of the scoring protocol that
``identify``, ``deduplicate`` and ``exhaustive_dedup`` run (``_scorer``).
The scorer is deliberately pluggable: anything with the ``(Signature,
Signature, MatchParams) -> MatchResult`` shape (a ``Matcher``) can stand
in for the built-in implementation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product, starmap
from typing import Any

import numpy as np

from .signature import TWO_PI, Signature, normalize_angles


@dataclass(frozen=True)
class MatchParams:
    """Matcher configuration; defaults mirror the common experiment setup."""

    min_edge: float = 15.0          # pixels, shortest admissible triangle side
    max_edge: float = 100.0         # pixels, longest admissible triangle side
    neighbors_k: int = 4            # nearest neighbors considered per minutia
    score_threshold: float = 90.0   # 0-100, inclusive match gate
    min_matched_descriptors: int = 0  # minimum paired triplets; 0 disables the gate
    side_tolerance: float = 5.0     # pixels, per-side pairing tolerance
    angle_tolerance: float = 0.2618  # radians (~15 deg), per-angle pairing tolerance

    def __post_init__(self) -> None:
        for name in ("neighbors_k", "min_matched_descriptors"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (0 < self.min_edge < self.max_edge):
            raise ValueError("require 0 < min_edge < max_edge")
        if self.neighbors_k < 2:
            raise ValueError("neighbors_k must be >= 2")
        if not (0 <= self.score_threshold <= 100):
            raise ValueError("score_threshold must be within [0, 100]")
        if self.min_matched_descriptors < 0:
            raise ValueError("min_matched_descriptors must be >= 0")
        # Written as range tests so that NaN, which fails every comparison, is rejected.
        if not (0 < self.side_tolerance < math.inf and 0 < self.angle_tolerance < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class MatchResult:
    score: float                # 0-100
    matched_descriptors: int    # paired triplet count


# ---------------------------------------------------------------------------
# Triangle construction

@lru_cache(maxsize=16)
def _pair_positions(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b), a < b, of every pair among k neighbors."""
    return np.triu_indices(k, 1)


# Whole rows are sorted at or below 32 columns, or below 2048 distances in
# all, where the sort beats the partition's fixed cost of about 30 us: rows
# of 20 sort at about 0.01 us a distance, rows of 40 to 90 at about 0.03 us
# (2-vCPU host, numpy 2.4).
_SORT_COLUMNS = 32
_SORT_DISTANCES = 2048


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest distances, nearest first, ties to the lower column.

    ``np.argsort(dist, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows: ``np.partition`` finds each row's k-th distance, the
    columns at or below it are picked in column order, and a stable sort
    orders those k. A row with more than k columns at or below its k-th
    distance (a tie across it), or fewer (NaN distances), is sorted
    whole, as is every row of a small matrix.
    """
    rows, n = dist.shape
    if k >= n - 1 or n <= _SORT_COLUMNS or rows * n < _SORT_DISTANCES:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    picked = dist <= np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    exact = np.count_nonzero(picked, axis=1) == k
    picked &= exact[:, None]
    flat = np.flatnonzero(picked).reshape(-1, k)  # flat positions, in column order per row
    nearest_first = np.argsort(dist.ravel()[flat], axis=1, kind="stable")
    nearest = flat[np.arange(flat.shape[0])[:, None], nearest_first] % n
    if exact.all():
        return nearest
    out = np.empty((rows, k), dtype=np.intp)
    out[exact] = nearest
    out[~exact] = np.argsort(dist[~exact], axis=1, kind="stable")[:, :k]
    return out


def _triangles(x: np.ndarray, y: np.ndarray, p: MatchParams) -> tuple[np.ndarray, np.ndarray]:
    """Vertex index triples of a stack of prints' triangles, and their sides.

    ``x`` and ``y`` are (B, n): B prints of n minutiae each, built in
    one pass. For each minutia, triangles are formed with every pair of
    its ``neighbors_k`` nearest neighbors within its print, anchor by
    anchor, and rows keep that first-seen order, print after print: a
    triangle is dropped at anchor v when an earlier anchor among its
    other two vertices also has the remaining two as neighbors, as that
    anchor formed it already. Any triangle with a side outside
    [min_edge, max_edge] is discarded. The count stays O(N * k^2) rather
    than O(N^3). Each row indexes the stack flattened to B * n minutiae,
    is sorted ascending, and comes with the sides opposite its three
    vertices, read from the one distance matrix that also ranks the
    neighbors. Fewer than three minutiae yield no rows.
    """
    stack, n = x.shape
    dx, dy = x[:, :, None] - x[:, None, :], y[:, :, None] - y[:, None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    dist.reshape(stack, n * n)[:, ::n + 1] = np.inf  # each print's diagonal
    # Row r is minutia r of the flattened stack; columns index its own print.
    dist = dist.reshape(stack * n, n)
    k = min(p.neighbors_k, n - 1)
    neighbors = _nearest(dist, k)
    a_pos, b_pos = _pair_positions(k)
    v = np.tile(np.repeat(np.arange(n), a_pos.size), stack)
    first = np.repeat(np.arange(0, stack * n, n), n * a_pos.size)  # row of the print's minutia 0
    a, b = neighbors[:, a_pos].ravel(), neighbors[:, b_pos].ravel()
    nbr = np.zeros((stack * n, n), dtype=bool)
    nbr[np.arange(stack * n)[:, None], neighbors] = True
    ra, rb = a + first, b + first  # rows of a and b in the flattened stack
    fresh = ~(((a < v) & nbr[ra, v] & nbr[ra, b]) | ((b < v) & nbr[rb, v] & nbr[rb, a]))
    tri, first = np.sort(np.stack((v, a, b), axis=1)[fresh], axis=1), first[fresh, None]
    opposite = dist[tri[:, [1, 0, 0]] + first, tri[:, [2, 2, 1]]]
    keep = ((p.min_edge <= opposite) & (opposite <= p.max_edge)).all(axis=1)
    return (tri + first)[keep], opposite[keep]


# ---------------------------------------------------------------------------
# Scoring


@dataclass
class TripletIndex:
    """Matchable form of one signature: its triplet features as arrays.

    ``features`` columns: sides (0-2), interior angles (3-5), relative
    orientations (6-8) in [0, 2*pi). Every value is finite and rows
    ascend in the largest side (column 2): ``index_signatures`` builds
    them so, the joins rely on it, and an index built by hand must keep
    it. Row numbers break ties when triplets are paired. ``minutiae_key``
    backs the degenerate case where no triplets exist and only exact
    minutiae equality can score; it is built from ``signature`` on first use.
    """

    features: np.ndarray  # (nt, 9) float64, sorted by column 2
    signature: Signature

    @cached_property
    def minutiae_key(self) -> tuple:
        return tuple(sorted(self.signature.rows()))


# Prints of one minutiae count built per numpy pass: 16 spreads the fixed
# cost of a pass thin, and keeps each (16, n, n) temporary near 1 MB at n = 90.
_STACK = 16


def index_signatures(signatures: Sequence[Signature],
                     p: MatchParams = MatchParams()) -> list[TripletIndex]:
    """Precompute each signature's matchable triplet features, one row per triangle.

    Prints are grouped by minutiae count and built up to ``_STACK`` at a
    time in one numpy pass, with no padding, so each print's features
    are those of it built alone, bit for bit, whatever the list holds.
    The distance matrix is built once and serves the neighbor search,
    the edge filter and the side lengths. A triangle's vertices are
    ordered by their opposite side length (ties to the lower minutia
    index), so the sides are ascending and the interior angles, listed
    per ordered vertex, ascend too (law of sines). Each orientation is
    the ordered vertex's ridge angle minus the direction toward the next
    ordered vertex, reduced into [0, 2*pi); vertices are at least
    min_edge apart, so that direction is always defined (a centroid
    reference would degenerate on collinear triples). ``math.acos`` is
    applied element by element, and each direction is ``math.atan2``'s
    (``_headings``, a table lookup when ``max_edge`` allows), because
    numpy's versions can differ from them in the last bit. A ``Signature``
    holds integer coordinates within 2**53 and finite angles, so every
    feature is finite. A 40-minutia print takes about 580 us built alone,
    470 us in a stack of 2 and 340-360 us in a stack of 4 or more (medians
    of 61 interleaved rounds, one process, 2-vCPU host, whose speed moves
    by up to 1.5x between runs).
    """
    by_count: dict[int, list[int]] = {}
    for position, s in enumerate(signatures):
        by_count.setdefault(len(s.xs), []).append(position)
    out: list[TripletIndex] = [None] * len(signatures)  # type: ignore[list-item]
    for positions in by_count.values():
        for start in range(0, len(positions), _STACK):
            chunk = positions[start:start + _STACK]
            built = _stack_features([signatures[i] for i in chunk], p)
            for i, features in zip(chunk, built):
                out[i] = TripletIndex(features, signatures[i])
    return out


def _stack_features(stack: list[Signature], p: MatchParams) -> list[np.ndarray]:
    """Feature matrices of prints sharing one minutiae count, in one pass.

    Rows come print by print. One stable sort keyed on (print, largest
    side) orders every print's rows by column 2 at once, and each print's
    matrix is its slice of the result.
    """
    n = len(stack[0].xs)
    columns = np.array([(s.xs, s.ys, s.thetas) for s in stack], dtype=np.float64)
    x, y, theta = columns.transpose(1, 0, 2)  # each (B, n): B prints of n minutiae
    tri, opposite = _triangles(x, y, p)
    x, y, theta = x.ravel(), y.ravel(), theta.ravel()
    nt = tri.shape[0]
    # One flat gather puts each row's vertices in ascending opposite-side order.
    flat = np.argsort(opposite, axis=1, kind="stable") + 3 * np.arange(nt)[:, None]
    sides, ov = opposite.ravel()[flat], tri.ravel()[flat]
    adj1, adj2 = sides[:, [2, 2, 1]], sides[:, [1, 0, 0]]
    cos = np.clip((adj1 * adj1 + adj2 * adj2 - sides * sides) / (2.0 * adj1 * adj2), -1.0, 1.0)
    angles = np.fromiter(map(math.acos, cos.ravel().tolist()), np.float64, 3 * nt)
    nxt = ov[:, [1, 2, 0]]
    dy, dx = (y[nxt] - y[ov]).ravel(), (x[nxt] - x[ov]).ravel()
    heading = _headings(dy, dx, p.max_edge)
    orientations = normalize_angles(theta[ov].ravel() - heading)
    features = np.concatenate((sides, angles.reshape(nt, 3), orientations.reshape(nt, 3)), axis=1)
    owner = tri[:, 0] // n
    features = features[np.lexsort((features[:, 2], owner))]
    bounds = [0] + np.cumsum(np.bincount(owner, minlength=len(stack))).tolist()
    return [features[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# Largest radius of the heading table: 513 * 513 entries, 2.1 MB.
_HEADING_RADIUS = 256


@lru_cache(maxsize=4)
def _heading_table(radius: int) -> np.ndarray:
    """``math.atan2(dy, dx)`` for every integer pair in [-radius, radius], row dy, column dx."""
    span = range(-radius, radius + 1)
    return np.fromiter(starmap(math.atan2, product(span, span)), np.float64,
                       len(span) ** 2).reshape(len(span), len(span))


def _headings(dy: np.ndarray, dx: np.ndarray, max_edge: float) -> np.ndarray:
    """``math.atan2`` of each kept edge's ``(dy, dx)``, bit for bit.

    When ``max_edge < _HEADING_RADIUS + 1`` every heading is read from
    ``_heading_table``, built once per radius; otherwise each is computed
    element by element. The argument: a ``Signature`` holds ints within
    [0, 2**53], so their float64 differences are exact integers, and
    never -0.0. Each component's magnitude is at most the edge's computed
    length (``sqrt(d*d) == |d|`` and rounding is monotone), and a kept
    edge is at most ``max_edge`` long, so both components are integers
    within ``floor(max_edge)``, the table's radius.
    """
    if max_edge < _HEADING_RADIUS + 1:
        radius = int(max_edge)
        return _heading_table(radius)[dy.astype(np.intp) + radius, dx.astype(np.intp) + radius]
    return np.fromiter(map(math.atan2, dy.tolist(), dx.tolist()), np.float64, len(dy))


def index_signature(s: Signature, p: MatchParams = MatchParams()) -> TripletIndex:
    """One signature's triplet index: ``index_signatures([s], p)[0]``."""
    return index_signatures([s], p)[0]


def _one_to_one(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether no value repeats in ``rows`` and none in ``cols``, both non-negative integers."""
    return bool(np.bincount(rows).max() == 1 and np.bincount(cols).max() == 1)


def _greedy_pair_counts(dist: np.ndarray, seg: np.ndarray, ii: np.ndarray,
                        jj: np.ndarray, segments: int) -> list[int]:
    """Per segment, the size of the greedy one-to-one pairing of candidate pairs.

    Within a segment, pairs are taken in ``(dist, i, j)`` order and a
    pair is kept when its row ``i`` and column ``j`` are both still
    free. This equals rounds of mutual-best pairing with ties to the
    lower index: under that strict order a pair is mutual-best exactly
    when no pair sharing its row or column precedes it, and removing
    such locally dominant pairs round after round yields the greedy
    matching (Preis, STACS 1999). Segments never share a column, so
    only rows need the segment in their key. When no row and no column
    repeats, no pair blocks another and the walk keeps every pair: each
    segment's count is then its pair count, with no sort and no walk.
    """
    if not ii.size:
        return [0] * segments
    rows = seg * (int(ii.max()) + 1) + ii
    if _one_to_one(rows, jj):
        return np.bincount(seg, minlength=segments).tolist()
    counts = [0] * segments
    order = np.lexsort((jj, ii, dist, seg))
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    for s, r, j in zip(seg[order].tolist(), rows[order].tolist(), jj[order].tolist()):
        if r not in used_rows and j not in used_cols:
            used_rows.add(r)
            used_cols.add(j)
            counts[s] += 1
    return counts


# At most 2**24 arcs: a join key, ``arc * (rows + 1) + rank``, then stays below
# 2**24 * (rows + 1), within int64 for any index of fewer than 2**39 rows.
_MAX_ARCS = 2 ** 24


def _arc_count(angle_tolerance: float) -> int:
    """Number of equal arcs of [0, TWO_PI), each at least the tolerance wide.

    At most ``_MAX_ARCS``, and 1 where fewer than 4 would fit, so that
    an orientation window, which reaches at most four arcs, never wraps
    onto an arc it has probed already.
    """
    arcs = math.floor(min(TWO_PI / angle_tolerance, _MAX_ARCS))  # the quotient may be inf
    if arcs >= 4 and TWO_PI / arcs < angle_tolerance:
        arcs -= 1  # the quotient rounded up onto an integer
    return arcs if arcs >= 4 else 1


def _s3_window(s3b: np.ndarray, s3a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per head row ``s3a``, the positions ``lo:hi`` of ``s3b`` within its largest-side window.

    ``s3b`` ascends and both are finite (the ``TripletIndex`` contract).
    A position is in the window exactly when ``s3a - tol <= s3b <= s3a +
    tol`` as computed, since ``searchsorted`` compares as those tests do.
    """
    return (np.searchsorted(s3b, s3a - tol, side="left"),
            np.searchsorted(s3b, s3a + tol, side="right"))


class _JoinIndex:
    """The rows of a list of feature matrices, keyed once for the candidate join.

    ``cols`` holds every row, matrix after matrix, column-major (9, rows),
    and ``seg`` the matrix each row comes from. The join is keyed on
    (arc, s3): the circle of first orientations (column 6) is cut into
    ``_arc_count`` equal arcs of width ``arc``, and a row of arc k keys
    as the integer ``k * (rows + 1) + rank``, ``rank`` the count of
    indexed s3 values below its own (its position in ``s3``, the sorted
    column). The keys are sorted here, once; ``candidates`` and
    ``pair_counts`` then serve any number of heads, members or not, each
    against the rows of the matrices it marks alive, with the tolerances
    of ``p``, the ``MatchParams`` the index was built with, read on each
    call.
    """

    def __init__(self, fbs: Sequence[np.ndarray], p: MatchParams):
        self.p = p
        self.cols = np.concatenate([f.T for f in fbs], axis=1) if fbs else np.empty((9, 0))
        self.seg = np.repeat(np.arange(len(fbs)), [f.shape[0] for f in fbs])
        self.s3 = np.sort(self.cols[2])
        self.arcs = _arc_count(p.angle_tolerance)
        self.arc = TWO_PI / self.arcs
        arc_of = np.floor(self.cols[6] / self.arc)
        arc_of[arc_of >= self.arcs] = 0.0  # a quotient that rounds up onto arcs wraps to 0
        key = (arc_of.astype(np.int64) * (self.s3.size + 1)
               + np.searchsorted(self.s3, self.cols[2], side="left"))
        self.order = np.argsort(key)
        self.key = key[self.order]
        self.seg_by_key = self.seg[self.order]

    def candidates(self, fa: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs (row ``ii`` of ``fa``, column ``jj`` of ``cols``), each once.

        Only rows of the matrices ``live`` marks (a bool per matrix) take
        part: they are picked out of the sorted keys, which keeps them
        sorted. Each row of ``fa`` probes the arcs its orientation window
        ``oa -/+ reach`` reaches, taken mod ``arcs``, and in each the ranks
        of its largest-side window (``_s3_window``), which stop short of
        the next arc's keys. The pairs are thus exactly those within the
        window on the probed arcs: every pair that also passes the
        orientation screen ``min(d, TWO_PI - d) <= angle_tolerance`` (d
        the computed ``|oa - ob|``) is among them, for orientations in
        [0, TWO_PI].

        The reach. With u = 2**-53, t the angle tolerance and T = TWO_PI,
        a pair passes only if ``ob - oa`` lies within w = t(1 + 2u) + uT of
        0, T or -T: either d rounds to at most t, or T - d does and d is
        within uT of the exact difference. The thresholds ``oa -/+ reach``
        are within 2uT of exact, the quotients by ``arc`` carry a relative
        error of u, and ``arcs * arc`` is within uT of T; summed, a reach of
        w + 6uT puts ``floor(ob / arc)``, or that minus or plus ``arcs``,
        between the floors of the thresholds' quotients. ``reach`` is
        ``t + (t + T) * 2**-49``, at least t(1 + 2u) + 7uT after its own
        rounding. An arc is at least t and at least T * 2**-24 wide, so a
        window spans under three arcs and reaches at most four, all distinct
        when there are four arcs or more. A single arc is probed once, and a
        tolerance above T, which leaves a single arc as any above T/4 does,
        is cut to T.
        """
        lo, hi = _s3_window(self.s3, fa[:, 2], self.p.side_tolerance)
        oa = fa[:, 6]
        arcs, arc = self.arcs, self.arc
        t = min(self.p.angle_tolerance, TWO_PI)
        reach = t + (t + TWO_PI) * 2.0 ** -49
        first = np.floor((oa - reach) / arc)
        n = np.minimum(np.floor((oa + reach) / arc) - first, arcs - 1)
        step = np.arange(n.max() + 1)
        probe = step <= n[:, None]
        row = np.nonzero(probe)[0]
        base = ((first[:, None] + step) % arcs)[probe].astype(np.int64) * (self.s3.size + 1)
        kept = np.flatnonzero(live[self.seg_by_key])
        key, order = self.key.take(kept), self.order.take(kept)
        start = np.searchsorted(key, base + lo[row], side="left")
        stop = np.searchsorted(key, base + hi[row], side="left")
        counts = stop - start
        ii = np.repeat(row, counts)
        jj = order[np.arange(ii.size) - np.repeat(np.cumsum(counts) - counts - start, counts)]
        return ii, jj

    def pair_counts(self, fa: np.ndarray, live: np.ndarray) -> list[int]:
        """Paired-triplet count of ``fa`` against each matrix, 0 where ``live`` is False."""
        ii, jj = self.candidates(fa, live)
        return _pair_counts(fa, self.cols, self.seg, ii, jj, live.size, self.p)


def _window_pair_count(fa: np.ndarray, fb: np.ndarray, p: MatchParams) -> int:
    """Paired-triplet count of ``fa`` against the one matrix ``fb``, joined by a window.

    For each row of ``fa``, ``_s3_window`` over ``fb``'s largest sides
    (column 2) gives the rows with ``s3a - tol <= s3b <= s3a + tol`` (a
    sort-merge band join), as the (arc, s3) join does; ``fb``'s rows
    ascend in column 2 (the ``TripletIndex`` contract). The
    first-orientation screen runs before the side screen here: on window
    candidates it keeps fewer pairs (about 13% against 15% on
    ``identify`` hits) for two gathers against four. The screens are a
    conjunction, so the order moves no pair.
    """
    lo, hi = _s3_window(fb[:, 2], fa[:, 2], p.side_tolerance)
    counts = hi - lo
    ii = np.repeat(np.arange(fa.shape[0]), counts)
    jj = np.arange(ii.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    return _pair_counts(fa, fb.T, np.zeros(fb.shape[0], dtype=np.intp), ii, jj, 1, p,
                        (_orientation_kept, _side_kept))[0]


def _side_kept(fa: np.ndarray, cols: np.ndarray, ii: np.ndarray, jj: np.ndarray,
               p: MatchParams) -> np.ndarray:
    """Per candidate pair: s1 and s2 within tolerance; both joins keep s3 within its window."""
    tol = p.side_tolerance
    return ((np.abs(fa[:, 0][ii] - cols[0][jj]) <= tol)
            & (np.abs(fa[:, 1][ii] - cols[1][jj]) <= tol))


def _orientation_kept(fa: np.ndarray, cols: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                      p: MatchParams) -> np.ndarray:
    """Per candidate pair: the first orientation within tolerance on the circle."""
    diff = np.abs(fa[:, 6][ii] - cols[6][jj])
    return np.minimum(diff, TWO_PI - diff) <= p.angle_tolerance


def _pair_counts(fa: np.ndarray, cols: np.ndarray, seg: np.ndarray, ii: np.ndarray,
                 jj: np.ndarray, segments: int, p: MatchParams,
                 screens: Sequence[Callable[..., np.ndarray]] = (_side_kept, _orientation_kept)
                 ) -> list[int]:
    """Screen candidate pairs, row ``ii`` of ``fa`` and column ``jj`` of ``cols``; pair per segment.

    ``cols`` holds the candidates' rows column-major, (9, rows), and
    ``seg`` the segment of each. Both joins, the window and the (arc,
    s3) join, emit exactly the pairs within the largest-side window and
    end here, so a pair scores the same through either. The screens
    then decide exactly as for a single pair: s1, s2, each interior
    angle and each orientation (on the circle) within tolerance; the
    pairing order is one combined distance. ``screens`` run first, in
    the order given, each on the pairs the one before kept: the side
    screen and then one orientation alone, which between them reject
    most pairs before full rows are touched.
    """
    for screen in screens:
        keep = screen(fa, cols, ii, jj, p)
        ii, jj = ii[keep], jj[keep]
    tol, angle_tol = p.side_tolerance, p.angle_tolerance
    diff = np.abs(fa[ii].T - cols[:, jj])  # (9, candidates)
    orient_d = np.minimum(diff[6:9], TWO_PI - diff[6:9])
    keep = ((diff[3] <= angle_tol) & (diff[4] <= angle_tol) & (diff[5] <= angle_tol)
            & (orient_d <= angle_tol).all(axis=0))
    diff, orient_d, ii, jj = diff[:, keep], orient_d[:, keep], ii[keep], jj[keep]

    combined = ((diff[0] + diff[1] + diff[2]) / tol
                + (diff[3] + diff[4] + diff[5]) / angle_tol
                + (orient_d[0] + orient_d[1] + orient_d[2]) / angle_tol)
    return _greedy_pair_counts(combined, seg[jj], ii, jj, segments)


def bucket_scorer(members: Sequence[TripletIndex], p: MatchParams
                  ) -> Callable[[TripletIndex, Sequence[int]], list[MatchResult]]:
    """``score(a, alive)``: ``a`` scored against ``members[j]`` for each j in ``alive``.

    The scorer is bound to ``p``. A call that scores one member (one
    with triplets, in ``alive``) joins the head with that member's rows
    by a largest-side window (``_window_pair_count``). A call that scores
    two or more joins the head with the rows of the members it names
    alone, through the members' join index, built on the first such call
    and kept: a sweep that scores each head against its shrinking
    worklist copies, keys and sorts a bucket's rows once, not once per
    head, and a one-member scorer (``score_indexed``, an ``identify`` hit
    on a one-record bucket) never builds it. Both joins end in the same
    screens and the same greedy walk (``_pair_counts``). The head need
    not be a member. Each result is the pair's own: triplets are paired
    one-to-one within a pair only, and the score is the paired count
    over the smaller triplet count, times 100.
    """
    sizes = [m.features.shape[0] for m in members]
    join: _JoinIndex | None = None

    def score(a: TripletIndex, alive: Sequence[int]) -> list[MatchResult]:
        nonlocal join
        na = a.features.shape[0]
        scored = [j for j in alive if sizes[j]] if na else []
        if len(scored) == 1:
            matched = {scored[0]: _window_pair_count(a.features, members[scored[0]].features, p)}
        elif scored:
            if join is None:
                join = _JoinIndex([m.features for m in members], p)
            live = np.zeros(len(members), dtype=bool)
            live[scored] = True
            matched = join.pair_counts(a.features, live)
        results = []
        for j in alive:
            if na == 0 or sizes[j] == 0:
                # No geometry to compare; only exact minutiae equality counts.
                same = a.minutiae_key == members[j].minutiae_key
                results.append(MatchResult(100.0 if same else 0.0, 0))
            else:
                results.append(MatchResult(100.0 * matched[j] / min(na, sizes[j]), matched[j]))
        return results

    return score


# ---------------------------------------------------------------------------
# The scoring protocol

Matcher = Callable[[Signature, Signature, MatchParams], MatchResult]
Prepare = Callable[[list[Signature], MatchParams], list[Any]]
Compare = Callable[[Any, Sequence[int]], list[MatchResult]]
Index = Callable[[list[Any], MatchParams], Compare]


def _scorer(matcher: Matcher | None) -> tuple[Prepare, Index]:
    """The (prepare, index) pair every scoring call site runs.

    Records are prepared once, a list at a time. ``index(members, p)``
    binds ``p`` and returns ``compare(a, alive)``, which scores one
    prepared form against the members at positions ``alive``, one result
    per position, in that order. The built-in scorer prepares the
    signatures' triplet indexes in stacked passes (``index_signatures``),
    and builds the members' join index at most once per ``index`` call,
    on its first compare of two or more members (``bucket_scorer``); a
    custom ``matcher`` prepares nothing and is called on each pair of
    signatures in ``alive`` order, with the ``p`` its index was given.
    """
    if matcher is None:
        return index_signatures, bucket_scorer

    def index(members: list[Any], p: MatchParams) -> Compare:
        return lambda a, alive: [matcher(a, members[j], p) for j in alive]

    return (lambda signatures, _p: list(signatures)), index


def score_indexed(a: TripletIndex, b: TripletIndex, p: MatchParams = MatchParams()) -> MatchResult:
    """Score two precomputed triplet indexes: ``bucket_scorer([b], p)(a, [0])[0]``."""
    return bucket_scorer([b], p)(a, [0])[0]


def match_score(a: Signature, b: Signature, p: MatchParams = MatchParams()) -> MatchResult:
    """Score two signatures on the 0-100 scale.

    Deterministic for a given ordered pair; symmetric in its arguments;
    100 for identical minutiae sets.
    """
    return score_indexed(*index_signatures([a, b], p), p)


def is_match(r: MatchResult, p: MatchParams = MatchParams()) -> bool:
    """Threshold gate: score at or above the threshold, enough descriptors."""
    return r.score >= p.score_threshold and r.matched_descriptors >= p.min_matched_descriptors
