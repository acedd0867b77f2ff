"""Similarity scoring of two signatures via minutiae-triplet descriptors.

Each signature is reduced to a set of local descriptors: triangles built
from every minutia and pairs of its k nearest neighbors, filtered to
keep all edges within [min_edge, max_edge]. A triplet is described by
nine translation- and rotation-invariant features: the three side
lengths (ascending), the three interior angles (matching order), and
the three minutiae ridge angles expressed relative to the triangle's
own frame (direction from each vertex to the next one in that order).
A signature's features are built as one (nt, 9) array.

Two signatures are scored by greedily pairing mutually best-matching
triplets under per-feature tolerances; the matched-pair count,
normalized by the smaller triplet-set size, gives a 0-100 score. The
scorer is deliberately pluggable: anything with the
``(Signature, Signature, MatchParams) -> MatchResult`` shape can stand
in for the built-in implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signature import Signature, normalize_angle

TWO_PI = 2.0 * math.pi


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
        if not (0 < self.min_edge < self.max_edge):
            raise ValueError("require 0 < min_edge < max_edge")
        if self.neighbors_k < 2:
            raise ValueError("neighbors_k must be >= 2")
        if not (0 <= self.score_threshold <= 100):
            raise ValueError("score_threshold must be within [0, 100]")
        if self.min_matched_descriptors < 0:
            raise ValueError("min_matched_descriptors must be >= 0")
        if self.side_tolerance <= 0 or self.angle_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class MatchResult:
    score: float                # 0-100
    matched_descriptors: int    # paired triplet count


# ---------------------------------------------------------------------------
# Triangle construction


def _triangles(coords: np.ndarray, p: MatchParams) -> np.ndarray:
    """Vertex index triples of a signature's triangles, shape (nt, 3).

    For each minutia, triangles are formed with every pair of its
    ``neighbors_k`` nearest neighbors, anchor by anchor; a triangle
    whose index set was already seen is dropped, so rows keep their
    first-seen order, and any triangle with a side outside
    [min_edge, max_edge] is discarded. The count stays O(N * k^2)
    rather than O(N^3). Each row is sorted ascending; fewer than three
    minutiae yield no rows.
    """
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    k = min(p.neighbors_k, n - 1)
    # Stable sort keeps neighbor order deterministic under distance ties.
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    a_pos, b_pos = np.triu_indices(k, 1)
    tri = np.empty((n, a_pos.size, 3), dtype=np.int64)
    tri[:, :, 0] = np.arange(n)[:, None]
    tri[:, :, 1] = neighbors[:, a_pos]
    tri[:, :, 2] = neighbors[:, b_pos]
    tri = np.sort(tri.reshape(-1, 3), axis=1)
    _, first = np.unique((tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2], return_index=True)
    tri = tri[np.sort(first)]
    i, j, l = tri.T
    edges = np.stack((dist[i, j], dist[i, l], dist[j, l]))
    keep = ((p.min_edge <= edges) & (edges <= p.max_edge)).all(axis=0)
    return tri[keep]


# ---------------------------------------------------------------------------
# Scoring


@dataclass
class TripletIndex:
    """Matchable form of one signature: its triplet features as arrays.

    ``features`` columns: sides (0-2), interior angles (3-5), relative
    orientations (6-8). Rows are sorted by the largest side (column 2)
    so scoring can window side-compatible candidates directly.
    ``minutiae_key`` backs the degenerate case where no triplets exist
    and only exact minutiae equality can score.
    """

    features: np.ndarray  # (nt, 9) float64, sorted by column 2
    columns: np.ndarray   # (9, nt) contiguous transpose, for cheap column gathers
    minutiae_key: tuple


def index_signature(s: Signature, p: MatchParams = MatchParams()) -> TripletIndex:
    """Precompute a signature's matchable triplet features, one row per triangle.

    A triangle's vertices are ordered by their opposite side length
    (ties to the lower minutia index), so the sides are ascending and
    the interior angles, listed per ordered vertex, ascend too (law of
    sines). Each orientation is the ordered vertex's ridge angle minus
    the direction toward the next ordered vertex, reduced into
    [0, 2*pi); vertices are at least min_edge apart, so that direction
    is always defined (a centroid reference would degenerate on
    collinear triples). ``math.acos`` and ``math.atan2`` are applied
    element by element because numpy's versions can differ from them in
    the last bit.
    """
    if not s.minutiae:
        raise ValueError(f"signature {s.record_id!r} is empty")
    coords = np.array([(m.x, m.y) for m in s.minutiae], dtype=np.float64)
    tri = _triangles(coords, p)
    nt = tri.shape[0]
    pts = coords[tri]  # (nt, 3, 2), vertices in index order
    edge = pts[:, [1, 0, 0]] - pts[:, [2, 2, 1]]
    opposite = np.sqrt((edge * edge).sum(axis=2))  # side opposite each vertex
    adj1, adj2 = opposite[:, [2, 2, 1]], opposite[:, [1, 0, 0]]
    cos = (adj1 * adj1 + adj2 * adj2 - opposite * opposite) / (2.0 * adj1 * adj2)
    order = np.argsort(opposite, axis=1, kind="stable")
    sides = np.take_along_axis(opposite, order, axis=1)
    cos = np.clip(np.take_along_axis(cos, order, axis=1), -1.0, 1.0)
    angles = np.array(list(map(math.acos, cos.ravel().tolist()))).reshape(nt, 3)
    ordered = np.take_along_axis(pts, order[:, :, None], axis=1)
    step = np.roll(ordered, -1, axis=1) - ordered
    thetas = np.array([m.theta for m in s.minutiae], dtype=np.float64)
    ridge = np.take_along_axis(thetas[tri], order, axis=1)
    orientations = np.array([
        normalize_angle(theta - math.atan2(dy, dx)) for theta, dy, dx in zip(
            ridge.ravel().tolist(), step[:, :, 1].ravel().tolist(), step[:, :, 0].ravel().tolist())
    ]).reshape(nt, 3)
    features = np.concatenate((sides, angles, orientations), axis=1)
    features = features[np.lexsort((np.arange(nt), features[:, 2]))]
    key = tuple(sorted((m.x, m.y, m.theta, m.type_code) for m in s.minutiae))
    return TripletIndex(features, np.ascontiguousarray(features.T), key)


def _greedy_pair_count(dist: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> int:
    """Size of the greedy one-to-one pairing of sparse candidate pairs.

    Pairs are taken in ``(dist, i, j)`` order and a pair is kept when
    its row ``i`` and column ``j`` are both still free. This equals
    rounds of mutual-best pairing with ties to the lower index: under
    that strict order a pair is mutual-best exactly when no pair sharing
    its row or column precedes it, and removing such locally dominant
    pairs round after round yields the greedy matching (Preis, STACS
    1999). ``ii`` and ``jj`` arrive sorted by ``(i, j)``, so a stable
    sort on ``dist`` gives the full order.
    """
    order = np.argsort(dist, kind="stable")
    used_i: set[int] = set()
    used_j: set[int] = set()
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
    return len(used_i)


def score_indexed(a: TripletIndex, b: TripletIndex, p: MatchParams = MatchParams()) -> MatchResult:
    """Score two precomputed triplet indexes."""
    na, nb = a.features.shape[0], b.features.shape[0]
    if na == 0 or nb == 0:
        # No geometry to compare; only exact minutiae equality counts.
        score = 100.0 if a.minutiae_key == b.minutiae_key else 0.0
        return MatchResult(score, 0)

    fa, fb = a.features, b.features
    side_tol, angle_tol = p.side_tolerance, p.angle_tolerance

    # Window on the largest side: only b-rows within +/- side_tol of
    # each a-row can be compatible, and column 2 is sorted.
    s3a, s3b = a.columns[2], b.columns[2]
    lo = np.searchsorted(s3b, s3a - side_tol, side="left")
    hi = np.searchsorted(s3b, s3a + side_tol, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return MatchResult(0.0, 0)
    ii = np.repeat(np.arange(na), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    jj = np.arange(total) - np.repeat(offsets - lo, counts)

    # Second screen on the smallest side alone before touching full rows.
    keep = np.abs(a.columns[0][ii] - b.columns[0][jj]) <= side_tol
    if not keep.any():
        return MatchResult(0.0, 0)
    ii, jj = ii[keep], jj[keep]

    diff = np.abs(fa[ii] - fb[jj])
    keep = ((diff[:, 1] <= side_tol)
            & (diff[:, 3] <= angle_tol) & (diff[:, 4] <= angle_tol)
            & (diff[:, 5] <= angle_tol))
    if not keep.any():
        return MatchResult(0.0, 0)
    diff, ii, jj = diff[keep], ii[keep], jj[keep]
    orient_d = np.minimum(diff[:, 6:9], TWO_PI - diff[:, 6:9])
    keep = (orient_d <= angle_tol).all(axis=1)
    if not keep.any():
        return MatchResult(0.0, 0)
    diff, orient_d, ii, jj = diff[keep], orient_d[keep], ii[keep], jj[keep]

    combined = (diff[:, 0:3].sum(axis=1) / side_tol
                + diff[:, 3:6].sum(axis=1) / angle_tol
                + orient_d.sum(axis=1) / angle_tol)
    matched = _greedy_pair_count(combined, ii, jj)
    return MatchResult(100.0 * matched / min(na, nb), matched)


def match_score(a: Signature, b: Signature, p: MatchParams = MatchParams()) -> MatchResult:
    """Score two signatures on the 0-100 scale.

    Deterministic for a given ordered pair; symmetric in its arguments;
    100 for identical minutiae sets. Raises ValueError when either
    signature is empty.
    """
    return score_indexed(index_signature(a, p), index_signature(b, p), p)


def is_match(r: MatchResult, p: MatchParams = MatchParams()) -> bool:
    """Threshold gate: score at or above the threshold, enough descriptors."""
    return r.score >= p.score_threshold and r.matched_descriptors >= p.min_matched_descriptors
