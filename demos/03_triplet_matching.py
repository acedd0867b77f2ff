"""
Minutiae-triplet matching: the in-cluster comparison function
=============================================================

Candidate records that share a cluster key are confirmed (or rejected)
by a minutiae-triplet matcher. Each signature is reduced to triangles
built from every minutia and its nearest neighbors; triangles are
described by side lengths, interior angles, and ridge angles relative
to the triangle frame, all invariant under translation and rotation.
Mutually best-matching triangles are paired under per-feature
tolerances and the matched fraction gives a 0-100 score.
"""

import math

from fpdedup import MatchParams, Minutia, Signature, is_match, match_score
from fpdedup.matcher import index_signature
from fpdedup.signature import normalize_angle
from fpdedup.synth import GenSpec, generate

params = MatchParams()  # 15/100 px edges, 4 neighbors, threshold 90
signatures, _ = generate(GenSpec(subjects=2, minutiae_per_print=(30, 30), seed=12))
probe, other = signatures

# One row per triangle: 3 sides, 3 interior angles, 3 relative ridge angles;
# rows are sorted by the largest side.
features = index_signature(probe, params).features
print(f"{len(probe)} minutiae -> {features.shape[0]} triplet descriptors")
first = features[0]
print(f"first triplet: sides {[round(s, 1) for s in first[0:3].tolist()]} px, "
      f"angles {[round(a, 2) for a in first[3:6].tolist()]} rad")

# Identity scores 100 by construction.
print("\nscore(probe, probe):", match_score(probe, probe, params).score)

# Translation does not change any triplet feature.
moved = Signature("moved", [Minutia(m.x + 40, m.y + 9, m.theta, m.type_code)
                            for m in probe.minutiae])
print("score(probe, moved copy):", match_score(probe, moved, params).score)

# Neither does a rigid quarter-turn (angles adjusted with the rotation).
rotated = Signature("rotated", [
    Minutia(400 - m.y, m.x, normalize_angle(m.theta + math.pi / 2), m.type_code)
    for m in probe.minutiae
])
print("score(probe, rotated copy):", match_score(probe, rotated, params).score)

# An unrelated print from the same sensor extent scores near zero.
result = match_score(probe, other, params)
print(f"score(probe, unrelated): {result.score:.2f} "
      f"({result.matched_descriptors} matched descriptors)")
print("is_match at threshold 90:", is_match(result, params))

# Positional noise (a re-scan of the same finger) erodes the score as it
# grows past the pairing tolerances.
from fpdedup.synth import SplitMix64

rng = SplitMix64(5)
print()
for jitter in (1, 3, 6):
    noisy = Signature("noisy", [
        Minutia(max(0, m.x + round(rng.gauss(jitter))),
                max(0, m.y + round(rng.gauss(jitter))), m.theta, m.type_code)
        for m in probe.minutiae
    ])
    print(f"score at jitter sigma {jitter} px:",
          round(match_score(probe, noisy, params).score, 2))

# Dropping minutiae can only lower the score or leave it at 100 (the
# surviving structure still matches perfectly); it never exceeds the
# intact copy's 100.
subset = Signature("subset", probe.minutiae[: len(probe.minutiae) // 2])
print("score with half the minutiae removed:",
      round(match_score(probe, subset, params).score, 2))
