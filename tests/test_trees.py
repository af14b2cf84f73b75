import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from rhythmiq import (
    CONTINUATION,
    NOTE,
    REST,
    DecompositionError,
    NoteEvent,
    Performance,
    RhythmTree,
    RhythmiqError,
    ScoreModel,
    TimeSignature,
    ValidationError,
    decompose_measure,
    emit_musicxml,
    render_performance,
    score_edit_metrics,
)
from rhythmiq.grammar import sample_tree
from rhythmiq.trees import (
    _Notator,
    _split_arity,
    continuation,
    notatable,
    note,
    rest,
    slice_measure,
    split,
    split_notatable,
)

import support

SIG = TimeSignature(4, 4)
F = Fraction
SIGNATURES = [TimeSignature(*sig) for sig in ((4, 4), (3, 4), (6, 8), (5, 8), (2, 2), (1, 4))]


def _outcome(fn, *args):
    """The function's result, or the class of the package error it raised."""
    try:
        return fn(*args)
    except RhythmiqError as exc:
        return type(exc)


def _printed(tree, sig, carried_pitch=None):
    """The printed pieces of one measure, as the reference walk's events."""
    pieces, _ = _Notator(sig).pieces(tree, carried_pitch)
    return support.printed_events([pieces])[0]


def test_tree_validation():
    with pytest.raises(ValidationError):
        RhythmTree(label="chord")
    with pytest.raises(ValidationError):
        RhythmTree(label=NOTE)  # note without pitch
    with pytest.raises(ValidationError):
        RhythmTree(label=REST, pitch=60)
    with pytest.raises(ValidationError):
        RhythmTree(children=(note(60),))  # 1-child split
    with pytest.raises(ValidationError):
        RhythmTree(children=(note(60), note(62)), label=REST)


def test_leaves_intervals_are_exact():
    tree = split(note(60), split(note(62), note(64)))
    got = [(l.label, a, b) for l, a, b in tree.leaves()]
    assert got == [
        (NOTE, F(0), F(1, 2)),
        (NOTE, F(1, 2), F(3, 4)),
        (NOTE, F(3, 4), F(1)),
    ]


def test_validate_flow():
    # ScoreModel.notes() is the one check that a continuation has sound before it
    ScoreModel(SIG, [split(note(60), continuation())]).notes()
    with pytest.raises(ValidationError, match="nothing to continue"):
        ScoreModel(SIG, [split(rest(), continuation())]).notes()
    # sound carried from the previous measure satisfies a leading continuation
    ScoreModel(SIG, [note(62), split(continuation(), rest())]).notes()


def test_split_arity_prefers_binary():
    assert _split_arity([1], 0, 2) == 2
    assert _split_arity([], 0, 2) == 2
    assert _split_arity([1], 0, 3) == 3
    assert _split_arity([2], 0, 5) == 5
    # mixed odd denominators force the smallest odd prime involved
    assert _split_arity([5, 3], 0, 15) == 3
    # relative to the interval, not absolute position
    assert _split_arity([8], 6, 12) == 3
    # an offset sharing factors with the width reduces first: 4/12 is 1/3
    assert _split_arity([4], 0, 12) == 3
    assert _split_arity([6], 0, 12) == 2


def test_decompose_note_held_into_beat_two():
    # sound covers [0, 3/8): beat 2 is half-covered, so it reads as a
    # continuation and the empty tail as rests
    tree = decompose_measure([(0, 60)], [3], SIG, 8)
    assert tree.leaf_labels() == [NOTE, CONTINUATION, REST, REST]


def test_decompose_half_covered_measure_absorbs():
    # uncovered tail is exactly the threshold, so the whole measure
    # collapses to one note leaf before any split happens
    tree = decompose_measure([(0, 60)], [1], SIG, 2)
    assert tree.leaf_labels() == [NOTE]


def test_decompose_triplet_beat():
    onsets = [(0, 60), (1, 62), (2, 64), (3, 65)]
    extents = [1, 2, 3, 6]
    tree = decompose_measure(onsets, extents, SIG, 12)
    beat1 = tree.children[0]
    assert len(beat1.children) == 3
    assert [c.label for c in beat1.children] == [NOTE, NOTE, NOTE]


def test_decompose_rest_threshold():
    # a 16th of trailing silence (1/4 of the beat) is absorbed into the note
    tree = decompose_measure([(0, 60)], [3], SIG, 16, max_depth=2)
    assert tree.children[0].label == NOTE
    # more than half the beat silent becomes a finer split instead
    tree = decompose_measure([(0, 60)], [1], SIG, 16)
    assert not tree.children[0].is_leaf
    assert tree.children[0].children[0].label == NOTE


def test_decompose_depth_limit():
    with pytest.raises(DecompositionError,
                       match=re.escape("onsets at ['1/64'] unreachable at depth 3")):
        decompose_measure([(0, 60), (1, 62)], [1, 64], SIG, 64, max_depth=3)


def test_decompose_validation():
    with pytest.raises(ValidationError):
        decompose_measure([(4, 60)], [8], SIG, 4)  # onset outside [0, length)
    with pytest.raises(ValidationError):
        decompose_measure([(0, 60)], [0], SIG, 4)  # extent not past onset


def _in_ticks(rng, onsets, extents, carried_end):
    """A measure of fractions in ticks of a random multiple of the LCM of its
    denominators: (onsets, extents, carried_end, length)."""
    length = lcm(*(x.denominator for x in (*(p for p, _ in onsets), *extents,
                                           carried_end)))
    length *= rng.choice((1, 2, 3, 5, 12, 35))

    def tick(x):
        return int(x * length)

    return ([(tick(p), pitch) for p, pitch in onsets], [tick(e) for e in extents],
            tick(carried_end), length)


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(SIGNATURES))
@settings(max_examples=300, deadline=None)
def test_decompose_measure_matches_the_fraction_reference(seed, sig):
    # the tick decomposition gives the Fraction version's tree, or its error
    # class, at every depth bound and whatever the tick resolution
    rng = random.Random(seed)
    onsets, extents, carried_pitch, carried_end = support.random_notated_measure(rng)
    ticks, tick_extents, tick_carried_end, length = _in_ticks(
        rng, onsets, extents, carried_end)
    for max_depth in range(2, 11):
        assert _outcome(decompose_measure, ticks, tick_extents, sig, length, max_depth,
                        carried_pitch, tick_carried_end) == _outcome(
            support.reference_decompose_measure, onsets, extents, sig, max_depth,
            carried_pitch, carried_end), max_depth


def _draw_tick_measure(data):
    """A monophonic measure in ticks, as ``decompose_measure`` takes it:
    (onsets, extents, length, carried_pitch, carried_end)."""
    length = data.draw(st.integers(min_value=1, max_value=48))
    positions = sorted(data.draw(st.lists(st.integers(0, length - 1), max_size=6,
                                          unique=True)))
    # each note ends by the next onset; the last may be held over the barline
    bounds = positions[1:] + [2 * length]
    extents = [data.draw(st.integers(p + 1, bound)) for p, bound in zip(positions, bounds)]
    onsets = [(p, data.draw(st.sampled_from((60, 62, 64)))) for p in positions]
    free = positions[0] if positions else length + 1  # where a carried note may end
    carried_pitch = data.draw(st.sampled_from((None, 55))) if free else None
    carried_end = data.draw(st.integers(1, free)) if carried_pitch is not None else 0
    return onsets, extents, length, carried_pitch, carried_end


@given(st.data(),
       st.sampled_from([TimeSignature(3, 4), SIG, TimeSignature(5, 8), TimeSignature(6, 8)]),
       st.sampled_from([3, 4, 10]), st.integers(min_value=2, max_value=40))
@settings(max_examples=300, deadline=None)
def test_decompose_measure_depends_only_on_the_slice_in_lowest_terms(data, sig, max_depth,
                                                                     factor):
    # scaling the ticks, the length and the carried end by any factor gives
    # the same tree or the same error text, so the parser may key its trees
    # on the slice in lowest terms
    onsets, extents, length, carried_pitch, carried_end = _draw_tick_measure(data)

    def decomposed(c):
        try:
            return decompose_measure([(p * c, pitch) for p, pitch in onsets],
                                     [e * c for e in extents], sig, length * c, max_depth,
                                     carried_pitch, carried_end * c)
        except DecompositionError as exc:
            return str(exc)

    assert decomposed(factor) == decomposed(1)


@given(st.data(), st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=4))
@settings(max_examples=300, deadline=None)
def test_decomposed_continuations_follow_sound(data, numerator, max_depth):
    # every continuation leaf of a decomposed measure has sound before it,
    # so ScoreModel.notes() reads the tree; a carried note sounds from a
    # note measure put first
    sig = TimeSignature(numerator, 4)
    onsets, extents, length, carried_pitch, carried_end = _draw_tick_measure(data)
    try:
        tree = decompose_measure(onsets, extents, sig, length, max_depth,
                                 carried_pitch, carried_end)
    except DecompositionError:
        return
    measures = [tree] if carried_pitch is None else [note(carried_pitch), tree]
    ScoreModel(sig, measures).notes()


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(SIGNATURES),
       st.sampled_from([None, 62]))
@settings(max_examples=300, deadline=None)
def test_printed_pieces_match_the_fraction_reference(seed, sig, carried_pitch):
    # random grammars give nested duplets and triplets; decomposed measures
    # add quintuplets, septuplets and deeper odd splits
    rng = random.Random(seed)
    grammar = support.random_grammar(rng)
    sampled = _outcome(sample_tree, grammar, rng, grammar.start_for(support.SIG44),
                       rng.random() < 0.3)
    onsets, extents, carried, carried_end = support.random_notated_measure(rng)
    ticks, tick_extents, tick_carried_end, length = _in_ticks(
        rng, onsets, extents, carried_end)
    decomposed = _outcome(decompose_measure, ticks, tick_extents, sig, length, 6,
                          carried, tick_carried_end)
    for tree in (sampled, decomposed):
        if not isinstance(tree, RhythmTree):
            continue  # no tree within the grammar's depth bound
        assert _outcome(_printed, tree, sig, carried_pitch) == _outcome(
            support.reference_tree_to_notation, tree, sig, carried_pitch)


def test_notated_measures_match_the_fraction_reference():
    # notes carried and tied over barlines, and the errors of unprintable
    # durations, of a first measure that opens with a continuation and of a
    # continuation after a rest
    stray = ScoreModel(SIG, [
        split(note(60), note(62)),
        # the continuations after the rest have nothing to continue,
        # though 62 is carried into the measure
        split(note(64), rest(), continuation(), continuation()),
        split(continuation(), note(60)),
    ])
    with pytest.raises(ValidationError, match="^continuation leaf with nothing to continue$"):
        stray.notated_measures()
    scores = [stray] + [support.random_score(random.Random(seed)) for seed in range(300)]
    for index, score in enumerate(scores):
        printed = _outcome(lambda s: support.printed_events(s.notated_measures()), score)
        assert printed == _outcome(support.reference_notated_measures, score), index


def test_a_continuation_after_a_rest_has_nothing_to_continue():
    # 62 is carried into the second measure, but the rest ends it: the last
    # continuation is printed by no writer and counted by no metric
    score = ScoreModel(SIG, [split(note(60), note(62)),
                             split(continuation(), rest(), continuation(), rest())])
    message = "^continuation leaf with nothing to continue$"
    for read in (ScoreModel.notated_measures, support.reference_notated_measures,
                 emit_musicxml, ScoreModel.notes):
        with pytest.raises(ValidationError, match=message):
            read(score)
    with pytest.raises(ValidationError, match=message):
        score_edit_metrics(score, score)
    for notate in (_printed, support.reference_tree_to_notation):
        with pytest.raises(ValidationError, match=message):
            notate(score.measures[1], SIG, 62)
    # a measure that opens with a continuation and nothing carried keeps its
    # own message
    with pytest.raises(ValidationError, match="^measure starts with continuation"):
        ScoreModel(SIG, [split(continuation(), note(60))]).notated_measures()


def test_notatable():
    assert notatable(F(1, 4))
    assert notatable(F(3, 8))   # dotted quarter of a whole
    assert notatable(F(7, 16))  # double dotted
    assert not notatable(F(5, 16))
    assert not notatable(F(1, 3))
    assert split_notatable(F(5, 16)) == [F(1, 4), F(1, 16)]
    assert split_notatable(F(7, 8)) == [F(7, 8)]
    with pytest.raises(ValidationError):
        split_notatable(F(1, 3))


def test_dotted_merge():
    # quarter + tied eighth prints as one dotted quarter
    tree = split(
        split(note(60), continuation()),
        split(continuation(), note(62)),
        note(64),
        rest(),
    )
    events = _printed(tree, SIG)
    assert [(e.kind, e.notated, e.tie_from, e.tie_to) for e in events] == [
        (NOTE, F(3, 8), False, False),  # dotted quarter
        (NOTE, F(1, 8), False, False),
        (NOTE, F(1, 4), False, False),
        (REST, F(1, 4), False, False),
    ]
    assert events[0].pitch == 60
    assert events[1].pitch == 62


def test_tuplet_notation():
    tree = split(split(note(60), note(62), note(64)), rest(), rest(), rest())
    events = _printed(tree, SIG)
    triplet = events[:3]
    assert all(e.timemod == (3, 2) for e in triplet)
    assert all(e.notated == F(1, 8) for e in triplet)
    assert len({e.tuplet_group for e in triplet}) == 1
    assert events[3].timemod is None


def test_unprintable_run_splits_into_tie():
    # note covering 5 sixteenths: quarter tied to sixteenth
    tree = split(
        split(split(note(60), continuation()), split(continuation(), continuation())),
        split(split(continuation(), rest()), rest()),
        rest(),
        rest(),
    )
    events = _printed(tree, SIG)
    notes = [e for e in events if e.kind == NOTE]
    assert [n.notated for n in notes] == [F(1, 4), F(1, 16)]
    assert notes[0].tie_to and notes[1].tie_from
    xml = emit_musicxml(ScoreModel(SIG, [tree]))
    assert xml.count('<tie type="start"/>') == xml.count('<tie type="stop"/>') == 1


def test_leading_continuation_needs_carried_pitch():
    tree = split(continuation(), rest(), rest(), rest())
    with pytest.raises(ValidationError):
        _printed(tree, SIG)
    events = _printed(tree, SIG, carried_pitch=57)
    assert events[0].kind == NOTE
    assert events[0].pitch == 57
    assert events[0].tie_from


def test_score_model_validation():
    with pytest.raises(ValidationError):
        ScoreModel(SIG, [])
    for tempo in (0, -60.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            ScoreModel(SIG, [note(60)], tempo_marking=tempo)
    with pytest.raises(ValidationError):
        ScoreModel(SIG, [note(60)], anacrusis_beats=4)


def test_cross_measure_tie():
    m1 = split(rest(), rest(), rest(), note(60))
    m2 = split(continuation(), rest(), rest(), rest())
    score = ScoreModel(SIG, [m1, m2])
    pitch, tie_from = score.notated_measures()[1][0][:2]
    assert (pitch, tie_from) == (60, True)
    first, second, _ = emit_musicxml(score).split("</measure>")
    assert '<tie type="start"/>' in first and '<tie type="stop"/>' not in first
    assert '<tie type="stop"/>' in second and '<tie type="start"/>' not in second


def test_render_performance_exact_timing():
    m1 = split(note(60), note(62), split(note(64), note(65)), rest())
    score = ScoreModel(SIG, [m1], tempo_marking=120.0)
    perf = render_performance(score)
    assert [n.pitch for n in perf.notes] == [60, 62, 64, 65]
    assert perf.onsets() == [0.0, 0.5, 1.0, 1.25]
    assert perf.notes[3].duration == 0.25


def test_render_merges_tie_across_barline():
    m1 = split(rest(), rest(), rest(), note(60))
    m2 = split(continuation(), rest(), rest(), rest())
    perf = render_performance(ScoreModel(SIG, [m1, m2]), bpm=60.0)
    assert len(perf) == 1
    assert perf.notes[0].onset == 3.0
    assert perf.notes[0].duration == 2.0


def test_render_anacrusis_starts_at_zero():
    pickup = split(rest(), rest(), rest(), note(67))
    full = split(note(60), rest(), rest(), rest())
    score = ScoreModel(SIG, [pickup, full], tempo_marking=120.0,
                       anacrusis_beats=1)
    perf = render_performance(score)
    assert perf.onsets() == [0.0, 0.5]
    assert [n.pitch for n in perf.notes] == [67, 60]


def test_render_performance_output_is_monophonic():
    m = split(note(60), split(note(62), note(64)), note(65), rest())
    perf = render_performance(ScoreModel(SIG, [m, m]))
    assert support.is_monophonic(perf, tol=1e-9)


def test_score_notes_tie_over_a_barline_is_one_note():
    m1 = split(rest(), rest(), note(60), note(62))
    m2 = split(continuation(), continuation(), rest(), note(64))
    m3 = split(continuation(), rest())
    assert ScoreModel(SIG, [m1, m2, m3]).notes() == [
        (F(1, 2), F(3, 4), 60), (F(3, 4), F(3, 2), 62), (F(7, 4), F(5, 2), 64)]


@pytest.mark.parametrize("measures", [
    [split(note(60), rest(), continuation(), rest())],  # after a rest
    [split(rest(), note(60)), split(rest(), continuation())],  # after a rest, next bar
    [split(continuation(), note(60), rest(), rest())],  # opening the score
], ids=["after-rest", "after-rest-next-measure", "leading"])
def test_score_notes_reject_a_continuation_with_nothing_sounding(measures):
    score = ScoreModel(SIG, measures)
    with pytest.raises(ValidationError, match="nothing to continue"):
        score.notes()
    with pytest.raises(ValidationError, match="nothing to continue"):
        render_performance(score)


def test_score_notes_keep_the_pickup_offset():
    pickup = split(rest(), rest(), note(67), note(69))
    full = split(note(60), continuation(), rest(), rest())
    score = ScoreModel(SIG, [pickup, full], anacrusis_beats=2)
    # notes count from the start of the pickup measure, silent part included
    assert score.notes() == [(F(1, 2), F(3, 4), 67), (F(3, 4), F(1), 69),
                             (F(1), F(3, 2), 60)]
    perf = render_performance(score, bpm=60.0)
    assert perf.onsets() == [0.0, 1.0, 2.0]
    assert [n.duration for n in perf.notes] == [1.0, 1.0, 2.0]


def test_render_cuts_sound_before_the_pickup():
    # a pickup of three beats: what sounds before it is not in the score,
    # so the first note goes and the second starts at time 0
    pickup = split(split(note(60), note(62)), continuation(), note(64), note(65))
    score = ScoreModel(SIG, [pickup], anacrusis_beats=3)
    perf = render_performance(score, bpm=60.0)
    assert [(n.onset, n.duration, n.pitch) for n in perf.notes] == [
        (0.0, 1.0, 62), (1.0, 1.0, 64), (2.0, 1.0, 65)]


def test_render_a_score_that_cannot_be_printed():
    # thirds of a 5/4 measure last 5/12 of a whole note: no note value
    score = ScoreModel(TimeSignature(5, 4), [split(note(60), note(62), continuation())])
    with pytest.raises(ValidationError, match="not printable"):
        score.notated_measures()
    perf = render_performance(score, bpm=60.0)
    assert [n.pitch for n in perf.notes] == [60, 62]
    assert [n.onset for n in perf.notes] == [0.0, 5 / 3]
    assert [n.duration for n in perf.notes] == [5 / 3, 10 / 3]


def _with_pickup(score: ScoreModel) -> ScoreModel | None:
    """``score`` with measures[0] a pickup that starts at its first note, as
    the quantizer marks one; None when the first note is on the downbeat."""
    notes = score.notes()
    if not notes or not 0 < notes[0][0] < 1:
        return None
    num = score.time_signature.numerator
    return ScoreModel(score.time_signature, score.measures, score.tempo_marking,
                      anacrusis_beats=(1 - notes[0][0]) * num)


def test_render_matches_the_printed_event_reference():
    from rhythmiq import default_grammar, sample_score

    grammar = default_grammar()
    scores = []
    for seed in range(40):
        rng = random.Random(seed)
        scores.append(sample_score(grammar, rng.randint(1, 6), rng,
                                   tempo=rng.choice((60.0, 120.0, 173.0))))
        rng = random.Random(seed)
        random_grammar = support.random_grammar(rng)
        try:
            scores.append(sample_score(random_grammar, rng.randint(1, 4), rng))
        except RhythmiqError:  # a grammar the sampler cannot finish a measure of
            pass
    pickups = [s for s in map(_with_pickup, scores) if s is not None]
    assert len(pickups) >= 10
    for score in scores + pickups:
        expected = support.reference_render_performance(score)
        assert render_performance(score) == expected
        assert render_performance(score, bpm=97.0) == support.reference_render_performance(
            score, bpm=97.0)


# ---------------------------------------------------------------------------
# measure slicing

# (onset, extent, pitch) in measure units: a quarter, a note held from beat 4
# of bar 0 through all of bar 1 into bar 2, then a note on bar 3's barline
LINE = [(F(0), F(1, 4), 60), (F(3, 4), F(9, 4), 62), (F(3), F(7, 2), 64)]


def test_slice_measure_note_held_over_the_barline_is_carried():
    assert slice_measure(LINE, 0) == (
        ((F(0), 60), (F(3, 4), 62)), (F(1, 4), F(9, 4)), None, 0)
    assert slice_measure(LINE, 2) == ((), (), 62, F(1, 4))


def test_slice_measure_empty_measure_under_a_held_note():
    onsets, extents, carried_pitch, carried_end = slice_measure(LINE, 1)
    assert (onsets, extents) == ((), ())
    assert (carried_pitch, carried_end) == (62, F(5, 4))


def test_slice_measure_onset_on_a_barline_opens_that_measure():
    assert slice_measure(LINE, 3) == (((F(0), 64),), (F(1, 2),), None, 0)
    # before the line and after its last release there is nothing
    assert slice_measure(LINE, -1) == ((), (), None, 0)
    assert slice_measure(LINE, 4) == ((), (), None, 0)


def test_slice_measure_fractions_and_floats_agree():
    floats = [(float(a), float(b), p) for a, b, p in LINE]
    for m in range(-1, 5):
        exact = slice_measure(LINE, m)
        approx = slice_measure(floats, m)
        assert [(float(a), p) for a, p in exact[0]] == list(approx[0])
        assert [float(e) for e in exact[1]] == list(approx[1])
        assert exact[2] == approx[2]
        assert float(exact[3]) == approx[3]
