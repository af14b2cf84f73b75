"""Evaluation metrics: note F-measure, downbeat F-measure, rotation search,
score edit counts, and signal-level SDR.

All F-measures and rates are percentages.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import DEFAULT_BEAT_TOLERANCE, DEFAULT_ONSET_TOLERANCE, Performance, Record
from .errors import ValidationError

if TYPE_CHECKING:
    from .trees import ScoreModel

ZERO_RESIDUAL_DB = 200.0


class NoteMetrics(Record):
    __slots__ = ("precision", "recall", "f_measure", "matched", "n_ref", "n_est")

    def __init__(self, precision: float, recall: float, f_measure: float,
                 matched: int, n_ref: int, n_est: int):
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "recall", recall)
        object.__setattr__(self, "f_measure", f_measure)
        object.__setattr__(self, "matched", matched)
        object.__setattr__(self, "n_ref", n_ref)
        object.__setattr__(self, "n_est", n_est)


def _f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _window_matches(ref: list[float], est: list[float], tolerance: float) -> int:
    """Size of a maximum one-to-one matching of two sorted time lists, a
    pair matching when its times differ by at most ``tolerance``.

    Each reference's partners form a contiguous run of the estimates, and
    both ends of that run only move forward, so matching the earliest
    compatible pair first is maximal.
    """
    matched = i = j = 0
    while i < len(ref) and j < len(est):
        if abs(ref[i] - est[j]) <= tolerance:
            matched += 1
            i += 1
            j += 1
        elif est[j] < ref[i]:
            j += 1
        else:
            i += 1
    return matched


def note_metrics(
    ref: Performance,
    est: Performance,
    onset_tolerance: float = DEFAULT_ONSET_TOLERANCE,
) -> NoteMetrics:
    """Match notes one-to-one on equal pitch and onset within tolerance."""
    if onset_tolerance < 0:
        raise ValidationError("onset_tolerance must be >= 0")
    if not math.isfinite(onset_tolerance):
        raise ValidationError(f"onset_tolerance must be finite, got {onset_tolerance}")
    n_ref, n_est = len(ref), len(est)
    if n_ref == 0 or n_est == 0:
        return NoteMetrics(0.0, 0.0, 0.0, 0, n_ref, n_est)
    # a Performance keeps its notes sorted by onset, so each pitch's are too
    ref_onsets: dict[int, list[float]] = {}
    est_onsets: dict[int, list[float]] = {}
    for notes, by_pitch in ((ref.notes, ref_onsets), (est.notes, est_onsets)):
        for n in notes:
            by_pitch.setdefault(n.pitch, []).append(n.onset)
    matched = sum(
        _window_matches(onsets, est_onsets[pitch], onset_tolerance)
        for pitch, onsets in ref_onsets.items()
        if pitch in est_onsets
    )
    precision = 100.0 * matched / n_est
    recall = 100.0 * matched / n_ref
    return NoteMetrics(precision, recall, _f_measure(precision, recall),
                       matched, n_ref, n_est)


def downbeat_fmeasure(
    ref_times,
    est_times,
    tolerance: float = DEFAULT_BEAT_TOLERANCE,
) -> float:
    """Greedy one-to-one event matching within a time window, as a percent."""
    if tolerance < 0:
        raise ValidationError("tolerance must be >= 0")
    if not math.isfinite(tolerance):
        raise ValidationError(f"tolerance must be finite, got {tolerance}")
    ref = sorted(ref_times)
    est = sorted(est_times)
    if not ref or not est:
        return 0.0
    matched = _window_matches(ref, est, tolerance)
    precision = 100.0 * matched / len(est)
    recall = 100.0 * matched / len(ref)
    return _f_measure(precision, recall)


def rotation_fmeasures(
    ref_downbeats,
    beat_times,
    beats_per_bar: int,
    tolerance: float = DEFAULT_BEAT_TOLERANCE,
) -> list[float]:
    """The downbeat F-measure of every rotation of a beat sequence, by phase:
    phase p takes ``beat_times[p::beats_per_bar]`` as its downbeats."""
    if beats_per_bar < 1:
        raise ValidationError("beats_per_bar must be >= 1")
    return [downbeat_fmeasure(ref_downbeats, beat_times[phase::beats_per_bar], tolerance)
            for phase in range(beats_per_bar)]


def best_phase(scores: list[float]) -> int:
    """The phase with the highest score; ties go to the smallest phase."""
    return scores.index(max(scores))


def best_rotation_fmeasure(
    ref_downbeats,
    beat_times,
    beats_per_bar: int,
    tolerance: float = DEFAULT_BEAT_TOLERANCE,
) -> tuple[float, int]:
    """Score every downbeat rotation of a beat sequence; return (best F, phase).

    Ties resolve to the smallest phase so results are reproducible.
    """
    scores = rotation_fmeasures(ref_downbeats, beat_times, beats_per_bar, tolerance)
    best = best_phase(scores)
    return scores[best], best


# ---------------------------------------------------------------------------
# score edit metrics

class EditMetrics(Record):
    """Edit counts to turn the estimate into the reference.

    Insertions are reference events the estimate misses; deletions are
    estimate events with no reference counterpart.  Rates divide by the
    reference note count, so a noisy estimate can exceed 100%.
    """

    __slots__ = ("note_insertions", "note_deletions", "rest_insertions",
                 "rest_deletions", "timesig_mismatches", "n_ref_notes")

    def __init__(self, note_insertions: int, note_deletions: int,
                 rest_insertions: int, rest_deletions: int,
                 timesig_mismatches: int, n_ref_notes: int):
        object.__setattr__(self, "note_insertions", note_insertions)
        object.__setattr__(self, "note_deletions", note_deletions)
        object.__setattr__(self, "rest_insertions", rest_insertions)
        object.__setattr__(self, "rest_deletions", rest_deletions)
        object.__setattr__(self, "timesig_mismatches", timesig_mismatches)
        object.__setattr__(self, "n_ref_notes", n_ref_notes)

    @property
    def note_insertion_rate(self) -> float:
        return self._rate(self.note_insertions)

    @property
    def note_deletion_rate(self) -> float:
        return self._rate(self.note_deletions)

    @property
    def rest_insertion_rate(self) -> float:
        return self._rate(self.rest_insertions)

    @property
    def rest_deletion_rate(self) -> float:
        return self._rate(self.rest_deletions)

    @property
    def timesig_mismatch_rate(self) -> float:
        return self._rate(self.timesig_mismatches)

    @property
    def total_error_rate(self) -> float:
        return self._rate(
            self.note_insertions + self.note_deletions
            + self.rest_insertions + self.rest_deletions
            + self.timesig_mismatches
        )

    def _rate(self, count: int) -> float:
        if self.n_ref_notes == 0:
            return 0.0 if count == 0 else math.inf
        return 100.0 * count / self.n_ref_notes


def _measure_keys(score: ScoreModel, keyed: dict):
    """Per measure: the set of note keys (onset, pitch), the set of rest
    keys (onset) and the pitch carried on into the next measure, from the
    printed pieces without building events.  An onset is its reduced
    (numerator, denominator) pair of the measure; a note counts where it
    starts, not where a tie carries it on.

    ``keyed`` maps (id(tree), carried pitch, time signature) to a measure's
    entry, so a tree met again in this call, in either score, is printed
    once; the caller keeps every keyed tree alive while it holds the map.
    """
    from .trees import _Notator  # here, as `eval notes` loads metrics but not trees

    gcd = math.gcd
    sig = score.time_signature
    notator = None
    carried = None
    out = []
    for tree in score.measures:
        key = (id(tree), carried, sig)
        entry = keyed.get(key)
        if entry is None:
            notator = notator or _Notator(sig)
            pieces, after = notator.pieces(tree, carried)
            notes = set()
            rests = set()
            for pitch, tie_from, onset, _, den, _, _, _ in pieces:
                g = gcd(onset, den)
                if pitch is None:
                    rests.add((onset // g, den // g))
                elif not tie_from:
                    notes.add((onset // g, den // g, pitch))
            entry = keyed[key] = (notes, rests, after)
        out.append(entry)
        carried = entry[2]
    return out


def score_edit_metrics(ref: ScoreModel, est: ScoreModel) -> EditMetrics:
    """Count the notes and rests to insert or delete to turn est into ref.

    Events are keyed by quantized position (and pitch for notes) within each
    measure, measures aligned by index.  A measure present in only one score
    counts as a time-signature mismatch.  Rates normalize by the reference
    note count, so scores with many spurious events can exceed 100%.  A
    tree object the two scores share is keyed once per carried pitch and
    time signature; the reference is keyed first, so its error is the one
    raised.
    """
    keyed: dict = {}
    ref_keys = _measure_keys(ref, keyed)
    est_keys = _measure_keys(est, keyed)
    empty = (set(), set(), None)
    n = max(len(ref_keys), len(est_keys))

    note_ins = note_del = rest_ins = rest_del = timesig = 0
    for i in range(n):
        if i >= len(ref_keys) or i >= len(est_keys):
            timesig += 1
        elif ref.time_signature != est.time_signature:
            timesig += 1
        ref_notes, ref_rests, _ = ref_keys[i] if i < len(ref_keys) else empty
        est_notes, est_rests, _ = est_keys[i] if i < len(est_keys) else empty
        note_ins += len(ref_notes - est_notes)
        note_del += len(est_notes - ref_notes)
        rest_ins += len(ref_rests - est_rests)
        rest_del += len(est_rests - ref_rests)

    n_ref_notes = sum(len(notes) for notes, _, _ in ref_keys)
    return EditMetrics(note_ins, note_del, rest_ins, rest_del, timesig,
                       n_ref_notes)


# ---------------------------------------------------------------------------
# signal-level SDR

def sdr(ref, est) -> float:
    """Signal-to-distortion ratio in dB; identical signals return 200.0."""
    import numpy as np  # only `eval sdr` needs numpy; other commands start without it

    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValidationError(f"shape mismatch {ref.shape} vs {est.shape}")
    if ref.size == 0:
        raise ValidationError("empty reference signal")
    num = float(np.sum(ref * ref))
    if num == 0.0:
        raise ValidationError("silent reference signal")
    den = float(np.sum((ref - est) ** 2))
    if den == 0.0:
        return ZERO_RESIDUAL_DB
    return 10.0 * math.log10(num / den)


# ---------------------------------------------------------------------------
# reporting

def summarize(values) -> dict[str, float]:
    """Mean, population standard deviation, and max of a metric series."""
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("no values to summarize")
    mean = math.fsum(values) / len(values)
    return {
        "mean": mean,
        "std": math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values)),
        "max": max(values),
    }
