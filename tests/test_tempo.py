import math

import pytest
from hypothesis import given, settings, strategies as st

from rhythmiq import (
    BeatGrid,
    InsufficientDataError,
    NoteEvent,
    NoTempoError,
    Performance,
    TempoBounds,
    TempoEstimate,
    ValidationError,
    enumerate_rotations,
    estimate_tempo_ioi,
    tempo_bounds,
)
from rhythmiq.tempo import _cluster, score_clusters


def _perf(onsets):
    return Performance([NoteEvent(o, 0.05, 60) for o in onsets])


def test_isochronous_is_exact():
    perf = _perf([0.5 * k for k in range(12)])
    est = estimate_tempo_ioi(perf)
    assert abs(est.bpm - 120.0) <= 0.5
    assert est.cluster_support > 0
    assert 0.0 < est.confidence <= 1.0


@pytest.mark.parametrize("bpm", [60.0, 90.0, 132.0, 150.0])
def test_isochronous_other_tempi(bpm):
    period = 60.0 / bpm
    perf = _perf([period * k for k in range(16)])
    assert abs(estimate_tempo_ioi(perf).bpm - bpm) <= 0.5


def test_fast_isochronous_locks_to_half_tempo():
    # above ~160 bpm the doubled period collects more harmonic support,
    # so the estimate lands one metrical level down
    perf = _perf([0.3 * k for k in range(16)])
    assert abs(estimate_tempo_ioi(perf).bpm - 100.0) <= 0.5


def test_swing_eighths_recover_beat():
    # 2:1 swing at 120 bpm: gaps alternate 1/3 s and 1/6 s
    onsets, t = [], 0.0
    for k in range(16):
        onsets.append(t)
        t += 1 / 3 if k % 2 == 0 else 1 / 6
    assert abs(estimate_tempo_ioi(_perf(onsets)).bpm - 120.0) <= 2.0


def test_octave_scaling_into_range():
    # 2 s period is 30 bpm, outside [40, 350]; doubling lands at 60
    perf = _perf([2.0 * k for k in range(6)])
    assert abs(estimate_tempo_ioi(perf).bpm - 60.0) <= 0.5


def test_too_few_notes():
    with pytest.raises(InsufficientDataError):
        estimate_tempo_ioi(_perf([0.0, 1.0]))


def test_no_tempo_in_narrow_range():
    perf = _perf([1.0 * k for k in range(6)])
    with pytest.raises(NoTempoError):
        estimate_tempo_ioi(perf, bpm_range=TempoBounds(41.0, 44.0))


def test_cluster_width_validation():
    with pytest.raises(ValidationError):
        estimate_tempo_ioi(_perf([0.0, 0.5, 1.0]), cluster_width=0.0)


@pytest.mark.parametrize("width", [math.nan, math.inf])
def test_cluster_width_must_be_finite(width):
    # every comparison with nan is false, and inf merges every interval
    # into one cluster, so neither may reach the clustering
    with pytest.raises(ValidationError, match="cluster_width must be finite"):
        estimate_tempo_ioi(_perf([0.0, 0.5, 1.0, 1.5]), cluster_width=width)


@given(
    st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.integers(min_value=8, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_translation_invariance(period, shift, n):
    base = estimate_tempo_ioi(_perf([period * k for k in range(n)]))
    moved = estimate_tempo_ioi(_perf([shift + period * k for k in range(n)]))
    assert moved.bpm == pytest.approx(base.bpm, abs=1e-6)


def test_translation_invariance_at_half_integer_ratios():
    # 2.6 s / 0.4 s = 6.5: the relation between these two clusters must not
    # depend on the float noise of intervals measured 30 s into the take
    base = estimate_tempo_ioi(_perf([0.2 * k for k in range(14)]))
    moved = estimate_tempo_ioi(_perf([30 + 0.2 * k for k in range(14)]))
    assert moved.bpm == pytest.approx(base.bpm, abs=1e-6)


def test_cluster_respects_width():
    clusters = _cluster([0.30, 0.31, 0.50, 0.52, 1.0], width=0.025)
    means = sorted(sum(c) / len(c) for c in clusters)
    assert len(clusters) == 3
    assert means[0] == pytest.approx(0.305)
    assert means[1] == pytest.approx(0.51)
    # any two surviving clusters sit further apart than the width
    assert all(b - a > 0.025 for a, b in zip(means, means[1:]))


def test_score_clusters_harmonic_support():
    # 0.5 is double 0.25: each feeds the other size/ratio
    scores = score_clusters([0.25, 0.5], [10, 4])
    assert scores[0] == pytest.approx(10 + 4 / 2)
    assert scores[1] == pytest.approx(4 + 10 / 2)
    # unrelated period gains nothing
    scores = score_clusters([0.25, 0.33], [10, 4])
    assert scores[0] == pytest.approx(10.0)


def test_bounds_rule():
    b = tempo_bounds(TempoEstimate(100.0, 5, 0.5))
    assert (b.min_bpm, b.max_bpm) == (85.0, 350.0)
    b = tempo_bounds(TempoEstimate(10.0, 5, 0.5))
    assert (b.min_bpm, b.max_bpm) == (1.0, 350.0)
    b = tempo_bounds(TempoEstimate(360.0, 5, 0.5))
    assert (b.min_bpm, b.max_bpm) == (345.0, 350.0)


def test_enumerate_rotations_covers_all_phases():
    grid = BeatGrid([0.5 * k for k in range(9)], 4)
    rotations = enumerate_rotations(grid)
    assert [g.phase for g in rotations] == [0, 1, 2, 3]
    assert rotations[2].downbeats()[0] == pytest.approx(1.0)
