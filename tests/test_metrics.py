import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhythmiq import (
    NoteEvent,
    Performance,
    RhythmiqError,
    ScoreModel,
    TimeSignature,
    ValidationError,
    best_rotation_fmeasure,
    default_grammar,
    downbeat_fmeasure,
    note_metrics,
    sample_score,
    score_edit_metrics,
    sdr,
    summarize,
)
from rhythmiq.metrics import ZERO_RESIDUAL_DB, _measure_keys
from rhythmiq.trees import continuation, note, rest, split

import support

SIG = TimeSignature(4, 4)


def _perf(pairs):
    return Performance(
        tuple(NoteEvent(onset=t, duration=0.1, pitch=p, velocity=80) for t, p in pairs)
    )


# --- note matching ----------------------------------------------------------

def _brute_force_matching(ref, est, tol):
    """Try every injective assignment of ref notes to est notes."""
    candidates = [
        [
            j
            for j, e in enumerate(est.notes)
            if e.pitch == r.pitch and abs(e.onset - r.onset) <= tol
        ]
        for r in ref.notes
    ]

    def best(i, used):
        if i == len(candidates):
            return 0
        top = best(i + 1, used)
        for j in candidates[i]:
            if j not in used:
                top = max(top, 1 + best(i + 1, used | {j}))
        return top

    return best(0, frozenset())


def test_matching_equals_brute_force_randomized():
    rng = random.Random(60301)
    for _ in range(300):
        n_ref = rng.randint(1, 10)
        n_est = rng.randint(1, 10)
        # clustered onsets and few pitches force contested assignments
        ref = _perf(
            (rng.choice([1.0, 1.04, 1.08, 1.5]), rng.choice([60, 61]))
            for _ in range(n_ref)
        )
        est = _perf(
            (rng.choice([1.0, 1.04, 1.08, 1.5]) + rng.uniform(-0.06, 0.06),
             rng.choice([60, 61]))
            for _ in range(n_est)
        )
        got = note_metrics(ref, est)
        want = _brute_force_matching(ref, est, 0.05)
        assert got.matched == want
        assert got.precision == pytest.approx(100.0 * want / n_est)
        assert got.recall == pytest.approx(100.0 * want / n_ref)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=50, max_value=300),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_window_matcher_matches_augmenting_paths(seed, n, tol_slots):
    # same-pitch takes dense enough that most windows hold several notes, on
    # a grid of 1/64 s so that differences are exact and many pairs sit right
    # on the tolerance: the per-pitch window matcher finds as many pairs as
    # augmenting paths
    rng = random.Random(seed)
    slots = n * rng.choice([1, 2, 4])
    tol = tol_slots / 64
    ref = _perf((rng.randrange(slots) / 64, 60) for _ in range(n))
    est = [(max(0, round(r.onset * 64) + rng.randint(-4, 4)) / 64, 60)
           for r in ref.notes if rng.random() < 0.9]
    est += [(rng.randrange(slots) / 64, 60) for _ in range(rng.randint(0, n // 5))]
    est = _perf(est)
    adjacency = [
        [j for j, e in enumerate(est.notes) if abs(e.onset - r.onset) <= tol]
        for r in ref.notes
    ]
    want = support.reference_max_matching(adjacency, len(est))
    assert note_metrics(ref, est, tol).matched == want


def test_one_wrong_pitch_in_four_gives_75():
    ref = _perf([(0.0, 60), (0.5, 62), (1.0, 64), (1.5, 65)])
    est = _perf([(0.0, 60), (0.5, 62), (1.0, 63), (1.5, 65)])
    m = note_metrics(ref, est)
    assert (m.precision, m.recall, m.f_measure) == (75.0, 75.0, 75.0)
    assert m.matched == 3


def test_matching_tolerance_is_inclusive():
    # 0-based onsets keep the difference exactly representable
    ref = _perf([(0.0, 60)])
    assert note_metrics(ref, _perf([(0.05, 60)])).matched == 1
    assert note_metrics(ref, _perf([(0.051, 60)])).matched == 0


def test_matching_is_one_to_one():
    # two est notes inside the window of one ref note: only one may match
    ref = _perf([(1.0, 60)])
    est = _perf([(0.98, 60), (1.02, 60)])
    m = note_metrics(ref, est)
    assert m.matched == 1
    assert m.precision == 50.0
    assert m.recall == 100.0


def test_matching_empty_sides():
    empty = Performance(())
    full = _perf([(0.0, 60)])
    for a, b in [(empty, full), (full, empty), (empty, empty)]:
        m = note_metrics(a, b)
        assert (m.precision, m.recall, m.f_measure) == (0.0, 0.0, 0.0)


def test_matching_validation():
    with pytest.raises(ValidationError):
        note_metrics(_perf([(0, 60)]), _perf([(0, 60)]), onset_tolerance=-0.1)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_tolerances_must_be_finite(tol):
    # every window comparison with NaN is false, and an infinite window
    # matches any two notes of one pitch
    with pytest.raises(ValidationError, match="onset_tolerance must be finite"):
        note_metrics(_perf([(0, 60)]), _perf([(5, 60)]), onset_tolerance=tol)
    with pytest.raises(ValidationError, match="tolerance must be finite"):
        downbeat_fmeasure([0.0], [5.0], tolerance=tol)


# --- downbeat and rotation --------------------------------------------------

def test_downbeat_fmeasure_exact_and_partial():
    assert downbeat_fmeasure([0.0, 2.0, 4.0], [0.0, 2.0, 4.0]) == 100.0
    # 2 of 4 reference downbeats found: P=100, R=50, F=66.67
    f = downbeat_fmeasure([0.0, 2.0, 4.0, 6.0], [0.0, 2.0])
    assert f == pytest.approx(200.0 / 3.0)
    assert downbeat_fmeasure([], [1.0]) == 0.0
    assert downbeat_fmeasure([1.0], []) == 0.0
    with pytest.raises(ValidationError):
        downbeat_fmeasure([0.0], [0.0], tolerance=-1)


def test_rotation_recovers_shifted_phase():
    beats = [0.5 * k for k in range(32)]
    ref_downbeats = beats[2::4]
    f, phase = best_rotation_fmeasure(ref_downbeats, beats, 4)
    assert f == 100.0
    assert phase == 2
    # the unrotated choice is strictly worse
    assert downbeat_fmeasure(ref_downbeats, beats[0::4]) < 100.0


def test_rotation_dominates_downbeat_randomized():
    rng = random.Random(4242)
    for _ in range(200):
        bpb = rng.choice([3, 4])
        n = rng.randint(4, 40)
        beats = sorted(rng.uniform(0, 30) for _ in range(n))
        ref = sorted(rng.uniform(0, 30) for _ in range(rng.randint(1, 12)))
        plain = downbeat_fmeasure(ref, beats[0::bpb])
        best, phase = best_rotation_fmeasure(ref, beats, bpb)
        assert best >= plain
        # ties resolve to the smallest phase, so phase 0 iff no improvement
        assert (phase == 0) == (best == plain)


def test_rotation_validation():
    with pytest.raises(ValidationError):
        best_rotation_fmeasure([0.0], [0.0], 0)


# --- score edit counts ------------------------------------------------------

def test_identical_scores_have_zero_edits():
    score = sample_score(default_grammar(), 4, random.Random(11))
    em = score_edit_metrics(score, score)
    assert em.note_insertions == em.note_deletions == 0
    assert em.rest_insertions == em.rest_deletions == 0
    assert em.timesig_mismatches == 0
    assert em.total_error_rate == 0.0


def test_spurious_rests_push_rate_past_100():
    ref = ScoreModel(SIG, [split(note(60), note(62), rest(), rest())])
    est = ScoreModel(
        SIG,
        [split(split(note(60), rest()), split(note(62), rest()),
               split(note(64), rest()), split(note(65), rest()))],
    )
    em = score_edit_metrics(ref, est)
    assert em.n_ref_notes == 2
    assert em.note_deletions == 2
    assert em.rest_insertions == 2
    assert em.rest_deletions == 4
    assert em.rest_deletion_rate == 200.0
    assert em.total_error_rate == 400.0


def test_measure_count_mismatch_counts_as_timesig():
    ref = ScoreModel(SIG, [split(note(60), note(62), rest(), rest())])
    est = ScoreModel(SIG, [split(note(60), note(62), rest(), rest()), rest()])
    em = score_edit_metrics(ref, est)
    assert em.timesig_mismatches == 1


def test_different_signatures_count_every_measure():
    ref = ScoreModel(SIG, [rest(), rest()])
    est = ScoreModel(TimeSignature(3, 4), [rest(), rest()])
    em = score_edit_metrics(ref, est)
    assert em.timesig_mismatches == 2


def test_rates_with_empty_reference():
    ref = ScoreModel(SIG, [rest()])
    est = ScoreModel(SIG, [split(note(60), rest(), rest(), rest())])
    em = score_edit_metrics(ref, est)
    assert em.n_ref_notes == 0
    assert em.note_deletion_rate == math.inf
    assert em.note_insertion_rate == 0.0


def _outcome(fn, *args):
    """The function's result, or the class and message of the package error
    it raised."""
    try:
        return fn(*args)
    except RhythmiqError as exc:
        return type(exc), str(exc)


def _fraction_keys(score):
    """The keys from the tree walk with Fraction onsets, like the reference
    keys."""
    return [({(Fraction(num, den), pitch) for num, den, pitch in notes},
             {Fraction(num, den) for num, den in rests})
            for notes, rests, _ in _measure_keys(score, {})]


def test_score_edit_keys_match_the_printed_events_on_the_hard_cases():
    sig58, sig54 = TimeSignature(5, 8), TimeSignature(5, 4)
    # a 5/16 rest prints as 1/4 + 1/16, the second piece at 4/5 of its span
    note_rest = split(note(60), rest())
    two_piece_rest = ScoreModel(sig58, [note_rest])
    # a piece is (pitch, tie_from, onset, duration, den, notated, timemod, group)
    assert [Fraction(onset, den) for pitch, _, onset, _, den, _, _, _
            in two_piece_rest.notated_measures()[0]
            if pitch is None] == [Fraction(1, 2), Fraction(9, 10)]
    tuplet_rest = ScoreModel(SIG, [split(note(60), rest(), note(62))])
    assert tuplet_rest.notated_measures()[0][1][6] == (3, 2)
    held = split(continuation(), note(64))
    tied_over = ScoreModel(SIG, [split(note(60), note(62)), held])
    assert tied_over.notated_measures()[1][0][1]
    opens_tied = ScoreModel(SIG, [split(continuation(), note(60))])
    triplet = split(note(60), note(62), note(64))
    unprintable = ScoreModel(sig54, [triplet])
    cases = [
        (two_piece_rest, ScoreModel(sig58, [split(rest(), note(60))])),
        (two_piece_rest, ScoreModel(sig58, [split(note(62), split(rest(), rest()))])),
        (tuplet_rest, ScoreModel(SIG, [split(note(60), note(62), rest())])),
        (tuplet_rest, ScoreModel(SIG, [split(split(note(60), rest(), note(62)), rest())])),
        (tied_over, ScoreModel(SIG, [split(note(60), note(62)), split(note(62), note(64))])),
        (tied_over, tied_over),
        (opens_tied, tied_over),
        (tied_over, opens_tied),
        (unprintable, ScoreModel(sig54, [split(note(60), rest())])),
        (ScoreModel(sig54, [split(note(60), rest())]), unprintable),
        # one tree object in both scores, met under another carried pitch
        # or time signature, counts as its printed events there
        (tied_over, ScoreModel(SIG, [split(note(60), note(61)), held])),
        (tied_over, ScoreModel(SIG, [held])),
        (ScoreModel(SIG, [note_rest]), two_piece_rest),
        (ScoreModel(SIG, [triplet]), unprintable),
        # the estimate fails first on a measure of its own, but the
        # reference is keyed first
        (ScoreModel(sig54, [note_rest, triplet]),
         ScoreModel(sig54, [split(note(60), split(note(62), note(64), note(65))), triplet])),
    ]
    outcomes = [_outcome(score_edit_metrics, ref, est) for ref, est in cases]
    assert outcomes == [_outcome(support.reference_score_edit_metrics, ref, est)
                        for ref, est in cases]
    opens = (ValidationError, "measure starts with continuation but nothing carried")
    five_twelfths = (ValidationError, "duration 5/12 of a whole note is not printable")
    assert outcomes[6] == outcomes[7] == outcomes[11] == opens
    assert outcomes[8] == outcomes[9] == outcomes[13] == outcomes[14] == five_twelfths
    assert outcomes[10].note_deletions == 1
    assert (outcomes[12].rest_deletions, outcomes[12].timesig_mismatches) == (1, 1)
    est = cases[14][1]
    assert _outcome(score_edit_metrics, est, est) == (
        ValidationError, "duration 5/24 of a whole note is not printable")


def _estimate(rng: random.Random, ref: ScoreModel) -> ScoreModel:
    """``ref`` with some measures replaced, sometimes one measure more or
    fewer, and now and then under another time signature."""
    fresh = support.random_score(rng, ref.time_signature, len(ref.measures) + 1)
    measures = [new if rng.random() < 0.4 else old
                for old, new in zip(ref.measures, fresh.measures)]
    r = rng.random()
    if r < 0.2:
        measures.append(fresh.measures[-1])
    elif r < 0.4 and len(measures) > 1:
        measures.pop()
    sig = ref.time_signature
    if rng.random() < 0.1:
        sig = rng.choice(support.SCORE_SIGNATURES)
    return ScoreModel(sig, measures)


def test_score_edit_metrics_match_the_printed_event_reference():
    # random pairs: the counts from the tree walk equal those from printed
    # events, measure keys included, or both raise the same error
    outcomes = {"counted": 0, "unprintable": 0, "opens tied": 0, "after a rest": 0}
    for seed in range(400):
        rng = random.Random(seed)
        ref = support.random_score(rng)
        est = _estimate(rng, ref)
        for score in (ref, est):
            assert _outcome(_fraction_keys, score) == _outcome(
                support.reference_measure_keys, score), seed
        outcome = _outcome(score_edit_metrics, ref, est)
        assert outcome == _outcome(support.reference_score_edit_metrics, ref, est), seed
        if isinstance(outcome, tuple):
            outcomes["unprintable" if "printable" in outcome[1] else
                     "opens tied" if "starts" in outcome[1] else "after a rest"] += 1
        else:
            outcomes["counted"] += 1
    # the generator reaches every branch
    assert min(outcomes.values()) >= 10, outcomes


# --- SDR ---------------------------------------------------------------------

def test_sdr_constructed_20db():
    ref = np.ones(100)
    est = ref + 0.1
    assert sdr(ref, est) == pytest.approx(20.0, abs=1e-12)


def test_sdr_identity_hits_cap():
    ref = np.linspace(-1, 1, 50)
    assert sdr(ref, ref.copy()) == ZERO_RESIDUAL_DB


def test_sdr_scale_invariance():
    rng = np.random.default_rng(3)
    ref = rng.standard_normal(256)
    est = ref + 0.05 * rng.standard_normal(256)
    base = sdr(ref, est)
    for c in (1e3, 1e-3):
        assert sdr(c * ref, c * est) == pytest.approx(base, abs=1e-6)


def test_sdr_can_go_negative():
    ref = np.ones(10)
    assert sdr(ref, -ref) == pytest.approx(10 * math.log10(0.25))


def test_sdr_validation():
    with pytest.raises(ValidationError):
        sdr(np.ones(3), np.ones(4))
    with pytest.raises(ValidationError):
        sdr(np.array([]), np.array([]))
    with pytest.raises(ValidationError):
        sdr(np.zeros(5), np.ones(5))


# --- reporting ---------------------------------------------------------------

def test_summarize_population_std():
    s = summarize([0.0, 10.0])
    assert s == {"mean": 5.0, "std": 5.0, "max": 10.0}
    with pytest.raises(ValidationError):
        summarize([])

