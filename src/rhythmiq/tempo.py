"""Tempo estimation from inter-onset intervals, and beat-grid rotations.

The estimator follows the classic IOI clustering recipe: collect intervals
between pairs of nearby onsets, agglomerate them into clusters, let clusters
at near-integer period ratios reinforce each other, and read the beat period
off the best supported cluster, scaled by an integer factor if needed to land
inside the requested bpm range.
"""
from __future__ import annotations

import math

from .core import (DEFAULT_CLUSTER_WIDTH, DEFAULT_MAX_BPM, DEFAULT_MIN_BPM, BeatGrid,
                   Performance, Record)
from .errors import InsufficientDataError, NoTempoError, ValidationError

# Pairs of onsets further apart than this contribute no interval.  4 seconds
# covers one beat at the slowest bounds this package ever searches.
IOI_WINDOW = 4.0
MAX_RATIO = 8
RATIO_TOLERANCE = 0.1
REFERENCE_BPM = 120.0

PRIOR_MARGIN_BPM = 15.0


class TempoEstimate(Record):
    __slots__ = ("bpm", "cluster_support", "confidence")

    def __init__(self, bpm: float, cluster_support: int, confidence: float):
        if bpm <= 0:
            raise ValidationError(f"bpm must be positive, got {bpm}")
        if cluster_support < 0:
            raise ValidationError("cluster_support must be >= 0")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError(f"confidence must be in [0, 1], got {confidence}")
        object.__setattr__(self, "bpm", bpm)
        object.__setattr__(self, "cluster_support", cluster_support)
        object.__setattr__(self, "confidence", confidence)


class TempoBounds(Record):
    __slots__ = ("min_bpm", "max_bpm")

    def __init__(self, min_bpm: float, max_bpm: float):
        if not 0 < min_bpm < max_bpm:
            raise ValidationError(
                f"need 0 < min_bpm < max_bpm, got ({min_bpm}, {max_bpm})"
            )
        object.__setattr__(self, "min_bpm", min_bpm)
        object.__setattr__(self, "max_bpm", max_bpm)


def _pairwise_iois(onsets: list[float], window: float) -> list[float]:
    iois = []
    for i, a in enumerate(onsets):
        for b in onsets[i + 1 :]:
            gap = b - a
            if gap > window:
                break
            if gap > 0:
                iois.append(gap)
    return iois


def _cluster(iois: list[float], width: float) -> list[list[float]]:
    """Single-pass agglomerative clustering of sorted intervals.

    A value opens a new cluster when it sits more than ``width`` away from the
    running mean of the current one; afterwards adjacent clusters whose means
    drifted within ``width`` of each other are merged until stable.
    """
    clusters: list[list[float]] = []
    for v in sorted(iois):
        if clusters and v - (sum(clusters[-1]) / len(clusters[-1])) <= width:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters) - 1):
            m1 = sum(clusters[i]) / len(clusters[i])
            m2 = sum(clusters[i + 1]) / len(clusters[i + 1])
            if m2 - m1 <= width:
                clusters[i] += clusters.pop(i + 1)
                merged = True
                break
    return clusters


def _related_ratio(m1: float, m2: float) -> int | None:
    """Integer ratio 2..8 linking two cluster means, or None."""
    big, small = (m1, m2) if m1 >= m2 else (m2, m1)
    # read to 1e-9 so that float noise in the intervals, which depends on
    # where the onsets sit in absolute time, cannot tip a half-integer
    # ratio such as 6.5 to a different k
    ratio = round(big / small, 9)
    k = round(ratio)
    if 2 <= k <= MAX_RATIO and abs(ratio - k) <= RATIO_TOLERANCE * k:
        return k
    return None


def score_clusters(means: list[float], sizes: list[int]) -> list[float]:
    """Support score per cluster: own size plus size/k from each cluster at
    a near-integer multiple or divisor k of its period."""
    scores = []
    for i, m in enumerate(means):
        s = float(sizes[i])
        for j, other in enumerate(means):
            if i == j:
                continue
            k = _related_ratio(m, other)
            if k is not None:
                s += sizes[j] / k
        scores.append(s)
    return scores


def _tempo_distance(bpm: float) -> float:
    return abs(math.log2(bpm / REFERENCE_BPM))


def estimate_tempo_ioi(
    perf: Performance,
    cluster_width: float = DEFAULT_CLUSTER_WIDTH,
    bpm_range: TempoBounds | None = None,
) -> TempoEstimate:
    """Estimate the beat tempo of a performance from its IOI distribution.

    Args:
        perf: performance with at least 3 notes.
        cluster_width: agglomeration width in seconds.
        bpm_range: admissible tempo range; defaults to (40, 350).

    Returns:
        TempoEstimate whose bpm falls inside ``bpm_range``.  The winning
        cluster period is scaled by the smallest integer factor that brings
        60/period into range; among equally small factors the bpm closer to
        120 wins.

    Raises:
        InsufficientDataError: fewer than 3 notes.
        NoTempoError: no integer scaling of any cluster lands in range.
    """
    if bpm_range is None:
        bpm_range = TempoBounds(DEFAULT_MIN_BPM, DEFAULT_MAX_BPM)
    if cluster_width <= 0:
        raise ValidationError(f"cluster_width must be positive, got {cluster_width}")
    if not math.isfinite(cluster_width):
        raise ValidationError(f"cluster_width must be finite, got {cluster_width}")
    if len(perf.notes) < 3:
        raise InsufficientDataError(
            f"tempo estimation needs >= 3 notes, got {len(perf.notes)}"
        )

    iois = _pairwise_iois(perf.onsets(), IOI_WINDOW)
    if not iois:
        raise InsufficientDataError("all onsets coincide; no intervals to cluster")
    clusters = _cluster(iois, cluster_width)
    means = [sum(c) / len(c) for c in clusters]
    sizes = [len(c) for c in clusters]
    scores = score_clusters(means, sizes)

    order = sorted(
        range(len(clusters)),
        key=lambda i: (-scores[i], _tempo_distance(60.0 / means[i]), means[i]),
    )
    best = order[0]
    period = means[best]

    candidates = []
    for k in range(1, MAX_RATIO + 1):
        for scaled in ({period * k, period / k} if k > 1 else {period}):
            bpm = 60.0 / scaled
            if bpm_range.min_bpm <= bpm <= bpm_range.max_bpm:
                candidates.append((k, _tempo_distance(bpm), bpm))
    if not candidates:
        raise NoTempoError(
            f"no scaling of period {period:.4f}s maps into "
            f"[{bpm_range.min_bpm}, {bpm_range.max_bpm}] bpm"
        )
    candidates.sort()
    bpm = candidates[0][2]

    total = sum(scores)
    confidence = scores[best] / total if total > 0 else 0.0
    return TempoEstimate(bpm=bpm, cluster_support=sizes[best], confidence=confidence)


def tempo_bounds(prior: TempoEstimate) -> TempoBounds:
    """Tempo search bounds around a prior estimate.

    The floor sits 15 bpm below the prior (never below 1); the ceiling is a
    fixed 350 bpm so extreme tempi stay reachable.  The floor is additionally
    capped just under the ceiling so the bounds stay ordered for any prior.
    """
    floor = max(prior.bpm - PRIOR_MARGIN_BPM, 1.0)
    floor = min(floor, DEFAULT_MAX_BPM - 5.0)
    return TempoBounds(floor, DEFAULT_MAX_BPM)


def enumerate_rotations(grid: BeatGrid) -> list[BeatGrid]:
    """All downbeat phase rotations of a grid, in phase order."""
    return [
        BeatGrid(grid.beats, grid.beats_per_bar, p, grid.time_signature)
        for p in range(grid.beats_per_bar)
    ]
