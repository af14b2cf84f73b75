import bisect
import gc
import hashlib
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rhythmiq import (
    AlignmentError,
    BeatGrid,
    CapacityError,
    EmptyInputError,
    GrammarError,
    GrammarRule,
    Leaf,
    MeasureInput,
    NoteEvent,
    ParseFailureError,
    Performance,
    QuantConfig,
    RhythmGrammar,
    RhythmiqError,
    Split,
    TimeSignature,
    ValidationError,
    default_grammar,
    emit_musicxml,
    fallback_quantize,
    load_beats,
    load_midi,
    parse_grammar_file,
    parse_musicxml,
    quantize_measure,
    quantize_performance,
    serialize_grammar,
    train_grammar,
)
from rhythmiq.cli import main
from rhythmiq.quantize import DEFAULT_ALPHA
from rhythmiq.trees import CONTINUATION, NOTE, REST, slice_measure

import support

SIG = TimeSignature(4, 4)


def test_quant_config_validation():
    with pytest.raises(ValidationError):
        QuantConfig(alpha=-1)
    with pytest.raises(ValidationError):
        QuantConfig(rest_threshold=0.0)
    with pytest.raises(ValidationError):
        QuantConfig(rest_threshold=1.5)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            QuantConfig(alpha=alpha)


def test_measure_input_validation():
    with pytest.raises(ValidationError):
        MeasureInput(((1.0, 60),), (1.5,))  # onset outside [0, 1)
    with pytest.raises(ValidationError):
        MeasureInput(((0.0, 60), (0.0, 62)), (0.5, 0.5))  # not increasing
    with pytest.raises(ValidationError):
        MeasureInput(((0.0, 60),), (0.0,))  # extent not past onset
    with pytest.raises(ValidationError):
        MeasureInput((), (), carried_pitch=None, carried_end=0.5)
    for pitch in (200, -1):  # the carried pitch is checked as onset pitches are
        with pytest.raises(ValidationError):
            MeasureInput(carried_pitch=pitch, carried_end=0.3)
    # a NaN passes no comparison, so it must fail each check, not slip past it
    # and reach the solver, which would blame the grammar
    with pytest.raises(ValidationError):
        MeasureInput(((0.0, 60),), (math.nan,))
    for pitch in (None, 60):
        with pytest.raises(ValidationError):
            MeasureInput(carried_pitch=pitch, carried_end=math.nan)


# ---------------------------------------------------------------------------
# solver vs exhaustive enumeration

def test_dp_matches_enumeration_randomized():
    rng = random.Random(20240)
    cfg = QuantConfig()
    for trial in range(150):
        grammar = support.random_grammar(rng)
        measure = support.random_measure(rng)
        for final in (False, True):
            oracle = support.enumerate_min_cost(measure, grammar, cfg, final=final)
            try:
                _, cost = quantize_measure(measure, grammar, cfg, final=final)
            except (CapacityError, ParseFailureError):
                cost = None
            if oracle is None:
                assert cost is None, f"trial {trial}: solver found {cost}, oracle none"
            else:
                assert cost is not None, f"trial {trial}: solver failed, oracle {oracle}"
                assert abs(cost - oracle) <= 1e-9, (
                    f"trial {trial}: solver {cost} vs enumeration {oracle}"
                )


def _boundary_measure(rng: random.Random) -> MeasureInput:
    """Onsets, releases and a carried release within 2 EPS of cells k/96."""
    def near(k: int) -> float:
        return k / 96 + rng.choice((-2, -1, 0, 1, 2)) * support.EPS

    step = rng.choice((1, 4, 8, 12, 24))  # coarse steps hit more cell edges
    slots = sorted(rng.sample(range(0, 96, step), rng.randint(0, min(6, 96 // step))))
    onsets, extents = [], []
    for i, slot in enumerate(slots):
        ceiling = slots[i + 1] if i + 1 < len(slots) else 120
        onsets.append((max(0.0, near(slot)), 60 + i))
        extents.append(near(rng.randint(slot + 1, ceiling)))
    if rng.random() < 0.4:
        return MeasureInput(tuple(onsets), tuple(extents), 59, near(rng.randint(1, 96)))
    return MeasureInput(tuple(onsets), tuple(extents))


def _equal_weights(grammar: RhythmGrammar) -> RhythmGrammar:
    """The grammar with each head's rules equally likely, so costs tie."""
    return RhythmGrammar(grammar.starts, [
        GrammarRule(r.head, r.body, math.log(len(grammar.rules_for(r.head))))
        for r in grammar.rules
    ], grammar.max_depth)


def _solve(solver, measure, grammar, config, final=False):
    try:
        return solver(measure, grammar, config, final=final)
    except RhythmiqError as exc:
        return type(exc)


def _entries(measure, grammar, config, final=False):
    solved = quantize_measure(measure, grammar, config, states=True, final=final)
    return {
        (k_in, k_out): (solved.tree(k_in, k_out), solved.cost(k_in, k_out))
        if solved.cost(k_in, k_out) < math.inf else None
        for k_in in (0, 1) for k_out in (0, 1)
    }


@given(st.integers(min_value=0, max_value=2**32), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_lattice_solver_matches_the_recursive_reference(seed, at_boundaries, ties):
    # same tree, bit-identical cost (the fold order is part of the contract)
    # and the same error class as the recursive Fraction solver, for the
    # lone (0, 0) entry and for all four (k_in, k_out) entries, in a final
    # measure and in one followed by another
    rng = random.Random(seed)
    grammar = support.random_grammar(rng)
    if ties:
        grammar = _equal_weights(grammar)
    measure = _boundary_measure(rng) if at_boundaries else support.random_measure(rng)
    config = QuantConfig(alpha=rng.choice((0.0, 8.0, 30.0, 128.0, DEFAULT_ALPHA)))
    final = rng.random() < 0.5
    assert (_solve(quantize_measure, measure, grammar, config, final)
            == _solve(support.reference_quantize_measure, measure, grammar, config, final))
    assert (_entries(measure, grammar, config, final)
            == support.reference_quantize_measure(measure, grammar, config,
                                                  states=True, final=final))


@st.composite
def _played_measure(draw) -> MeasureInput:
    """Onsets on the 1/32 or 1/24 grid of a measure, each jittered by up to
    6/1000 of it (as much as a few ms at the bench's tempi) or left on the
    grid, released early, late or at the next onset, and a carried note that
    stopped before the barline (only aligned onto the downbeat), is released
    inside the measure, or is held through it."""
    grid = draw(st.sampled_from((24, 32)))
    slots = sorted(draw(st.sets(st.integers(0, grid - 1), max_size=12)))
    positions = [min(0.999, max(0.0, slot / grid + draw(
        st.just(0.0) | st.floats(-0.006, 0.006)))) for slot in slots]
    extents = []
    for i, pos in enumerate(positions):
        ceiling = positions[i + 1] if i + 1 < len(positions) else 1.3
        extents.append(pos + (ceiling - pos) * draw(st.sampled_from((0.3, 0.7, 1.0))))
    carried = draw(st.sampled_from((None, 0.0, 0.4, 1.5)))
    onsets = tuple((pos, 60 + i) for i, pos in enumerate(positions))
    if carried is None:
        return MeasureInput(onsets, tuple(extents))
    first = positions[0] if positions else 1.0
    return MeasureInput(onsets, tuple(extents), 59, min(carried, first))


def _exactly(entries: dict) -> dict:
    """Each entry's tree and the bits of its cost."""
    return {k: entry and (entry[0], entry[1].hex()) for k, entry in entries.items()}


_DEFAULT_GRAMMAR = default_grammar()


@given(_played_measure(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_default_grammar_matches_the_recursive_reference(measure, final):
    # the shipped grammar is deeper than the random ones (depth 4, with
    # triplets and cells that only take a NOTE): all four entries, with and
    # without the carried note aligned onto the downbeat, give the
    # reference's trees and bit-identical costs
    grammar, config = _DEFAULT_GRAMMAR, QuantConfig()
    assert (_exactly(_entries(measure, grammar, config, final))
            == _exactly(support.reference_quantize_measure(measure, grammar, config,
                                                           states=True, final=final)))


def test_equal_cost_chains_keep_no_alignment_across_the_child_boundary():
    # with alpha = 0 and equally likely rules, two chains through a split
    # reach the same k with equal (cost, leaves, tuplets), one of them
    # aligning an onset onto the later child's left edge; the chain without
    # that alignment is kept, as in the reference
    g = parse_grammar_file("\n".join([
        "maxdepth = 3", "start 4/4 = A", "A -> continuation : 0.25",
        "A -> note : 0.25", "A -> rest : 0.25", "A -> (A A A) : 0.25",
    ]))
    measure = MeasureInput(
        ((0.534756344811055, 60), (0.7736606632152762, 61), (0.9583333333333334, 62)),
        (0.7736606632152762, 0.9536078472886605, 1.056108945215787))
    config = QuantConfig(alpha=0.0)
    assert (_entries(measure, g, config)
            == support.reference_quantize_measure(measure, g, config, states=True))


def test_a_chain_aligns_onsets_across_two_inner_boundaries():
    # onsets a 250th of a measure early of beats 2 and 3 align onto them,
    # so the measure's split chains k = 1 into its second and third
    # children, with or without the carried note aligned onto the downbeat
    measure = MeasureInput(((0.246, 62), (0.496, 64), (0.75, 65)), (0.496, 0.75, 1.0),
                           carried_pitch=59, carried_end=0.1)
    grammar, config = default_grammar(), QuantConfig()
    entries = _entries(measure, grammar, config)
    assert entries == support.reference_quantize_measure(measure, grammar, config,
                                                         states=True)
    for k_in in (0, 1):
        tree, _ = entries[k_in, 0]
        notes = [(left, leaf.pitch) for leaf, left, _ in tree.leaves()
                 if leaf.label == NOTE]
        assert notes[k_in:] == [(Fraction(1, 4), 62), (Fraction(1, 2), 64),
                                (Fraction(3, 4), 65)]
        assert notes[:k_in] == [(0, 59)] * k_in


def _without_leaf(grammar: RhythmGrammar, label: str) -> RhythmGrammar:
    """The grammar with every ``label`` leaf dropped and each head's other
    rules renormalized, or the grammar itself where a head would lose its
    last way to end a derivation."""
    kept = [r for r in grammar.rules if r.body != Leaf(label)]
    total = {}
    for r in kept:
        total[r.head] = total.get(r.head, 0.0) + math.exp(-r.weight)
    try:
        return RhythmGrammar(grammar.starts, [
            GrammarRule(r.head, r.body, r.weight + math.log(total[r.head])) for r in kept
        ], grammar.max_depth)
    except GrammarError:
        return grammar


def _sparse_measure(rng: random.Random) -> MeasureInput:
    """0-2 onsets, each released early in a cell, mid-cell, or held across
    several beats, and half the time a carried note: stopped before the
    barline (only aligned onto the downbeat), released inside the measure,
    or held past its end."""
    positions = [slot / 96 if rng.random() < 0.7
                 else min(0.999, max(0.0, slot / 96 + rng.uniform(-0.004, 0.004)))
                 for slot in sorted(rng.sample(range(96), rng.randint(0, 2)))]
    onsets, extents = [], []
    for i, pos in enumerate(positions):
        ceiling = positions[i + 1] if i + 1 < len(positions) else 2.0
        ext = pos + rng.choice((rng.uniform(0.005, 0.05), rng.uniform(0.05, 0.3),
                                rng.uniform(0.3, 1.5)))
        onsets.append((pos, 60 + i))
        extents.append(max(pos + 1e-4, min(ext, ceiling)))
    if rng.random() < 0.5:
        carried_end = rng.choice((0.0, rng.uniform(0.01, 0.9), rng.uniform(1.0, 2.0)))
        if onsets:
            carried_end = min(carried_end, onsets[0][0])
        return MeasureInput(tuple(onsets), tuple(extents), 59, carried_end)
    return MeasureInput(tuple(onsets), tuple(extents))


def test_sparse_measures_match_the_reference_across_configs():
    # measures of a few onsets leave most cells empty, silent or held all
    # through, on grammars that may lack a rest or a continuation leaf: over
    # one lattice, whatever the alpha and ``final``, each gives the
    # reference's trees, bit-identical costs and error class, for the
    # (0, 0) entry and all four
    rng = random.Random(1101)
    for trial in range(120):
        grammar = support.random_grammar(rng)
        if rng.random() < 0.5:
            grammar = _without_leaf(grammar, rng.choice((REST, CONTINUATION)))
        for _ in range(5):
            measure = _sparse_measure(rng)
            config = QuantConfig(alpha=rng.choice((0.0, 8.0, 128.0, DEFAULT_ALPHA, 1e4)))
            final = rng.random() < 0.5
            assert (_solve(quantize_measure, measure, grammar, config, final)
                    == _solve(support.reference_quantize_measure, measure, grammar,
                              config, final)), (trial, measure)
            assert (_entries(measure, grammar, config, final)
                    == support.reference_quantize_measure(measure, grammar, config,
                                                          states=True, final=final)
                    ), (trial, measure)


@pytest.mark.parametrize("flat_first", [True, False])
def test_equal_cost_derivations_go_to_the_earlier_rule(flat_first):
    # four quarters as (n n n n) or ((n n) (n n)): same cost, leaves and
    # tuplets, so the rule listed first wins
    flat, nested = "M -> (N N N N) : 0.5", "M -> (P P) : 0.5"
    g = parse_grammar_file("\n".join([
        "maxdepth = 2", "start 4/4 = M",
        *((flat, nested) if flat_first else (nested, flat)),
        "P -> (N N) : 1.0", "N -> note : 1.0",
    ]))
    measure = MeasureInput(tuple((k / 4, 60) for k in range(4)), (0.25, 0.5, 0.75, 1.0))
    tree, cost = quantize_measure(measure, g)
    assert len(tree.children) == (4 if flat_first else 2)
    assert (tree, cost) == support.reference_quantize_measure(measure, g)


def test_quarter_notes_parse_as_beats():
    g = default_grammar()
    measure = MeasureInput(
        tuple((i / 4, 60 + i) for i in range(4)),
        tuple((i + 1) / 4 for i in range(4)),
    )
    tree, cost = quantize_measure(measure, g)
    assert tree.leaf_labels() == [NOTE] * 4
    assert [l.pitch for l, _, _ in tree.leaves()] == [60, 61, 62, 63]
    # exact onsets pay no displacement, so cost is pure rule weight
    split = next(r for r in g.rules_for("M") if isinstance(r.body, Split))
    note = next(r for r in g.rules_for("B")
                if isinstance(r.body, Leaf) and r.body.label == NOTE)
    assert cost == pytest.approx(split.weight + 4 * note.weight, abs=1e-9)


def test_exact_triplet_wins_triplet_rule():
    g = default_grammar()
    measure = MeasureInput(
        ((0.0, 60), (1 / 12, 62), (1 / 6, 64)),
        (1 / 12, 1 / 6, 1 / 4),
    )
    tree, _ = quantize_measure(measure, g)
    beat1 = tree.children[0]
    assert len(beat1.children) == 3
    assert [c.label for c in beat1.children] == [NOTE] * 3


def test_displaced_onset_pays_alpha():
    g = default_grammar()
    exact = MeasureInput(((0.25, 60),), (0.5,))
    late = MeasureInput(((0.26, 60),), (0.5,))
    _, c_exact = quantize_measure(exact, g)
    tree, c_late = quantize_measure(late, g)
    # same tree, cost differs by alpha * 0.01
    assert tree.leaf_labels()[1] == NOTE
    assert c_late - c_exact == pytest.approx(DEFAULT_ALPHA * 0.01, abs=1e-9)


def test_empty_measure_is_whole_rest():
    tree, _ = quantize_measure(MeasureInput(), default_grammar())
    assert tree.leaf_labels() == [REST]


def test_carried_note_becomes_continuation():
    measure = MeasureInput(carried_pitch=60, carried_end=0.25)
    tree, _ = quantize_measure(measure, default_grammar())
    assert tree.leaf_labels() == [CONTINUATION, REST, REST, REST]


def test_carried_half_measure_then_silence_reads_as_written():
    # half a bar held, then half a bar of silence: the canonical
    # decomposition of that measure, not one leaf that ignores the silence
    measure = MeasureInput(carried_pitch=60, carried_end=0.5)
    tree, _ = quantize_measure(measure, default_grammar())
    assert tree.leaf_labels() == [CONTINUATION, CONTINUATION, REST, REST]


def test_capacity_error_for_dense_measure():
    g = default_grammar()
    n = 40
    measure = MeasureInput(
        tuple((i / n, 60) for i in range(n)),
        tuple((i + 1) / n for i in range(n)),
    )
    with pytest.raises(CapacityError):
        quantize_measure(measure, g)


def test_parse_failure_when_grammar_lacks_rest():
    g = parse_grammar_file("maxdepth = 2\nstart 4/4 = S\nS -> note : 1.0\n")
    with pytest.raises(ParseFailureError):
        quantize_measure(MeasureInput(), g)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_cost_monotone_in_alpha(seed):
    # every derivation's cost grows with alpha, so the minimum does too
    rng = random.Random(seed)
    grammar = support.random_grammar(rng)
    measure = support.random_measure(rng)
    costs = []
    for alpha in (0.0, 4.0, 8.0, 16.0):
        try:
            costs.append(quantize_measure(measure, grammar,
                                          QuantConfig(alpha=alpha))[1])
        except (CapacityError, ParseFailureError):
            costs.append(None)
    assert all((a is None) == (b is None) for a, b in zip(costs, costs[1:]))
    present = [c for c in costs if c is not None]
    assert all(b >= a - 1e-12 for a, b in zip(present, present[1:]))


# ---------------------------------------------------------------------------
# grid fallback

def test_fallback_recovers_jittered_grid():
    rng = random.Random(99)
    resolution = 4
    total = 4 * resolution
    for _ in range(200):
        n = rng.randint(1, 8)
        slots = sorted(rng.sample(range(total), n))
        onsets, extents = [], []
        for i, slot in enumerate(slots):
            jitter = rng.uniform(-0.499, 0.499) / total
            pos = max(0.0, slot / total + jitter)
            onsets.append((pos, 60 + i))
            extents.append((slot + 1) / total + rng.uniform(0, 0.4) / total)
        tree = fallback_quantize(
            MeasureInput(tuple(onsets), tuple(extents)), SIG, resolution)
        got = [left for leaf, left, _ in tree.leaves() if leaf.label == NOTE]
        assert got == [Fraction(s, total) for s in slots]


def test_fallback_collision_shifts_right():
    measure = MeasureInput(((0.0, 60), (0.01, 62)), (0.01, 0.25))
    tree = fallback_quantize(measure, SIG, resolution=4)
    got = [(left, leaf.pitch) for leaf, left, _ in tree.leaves()
           if leaf.label == NOTE]
    assert got == [(Fraction(0), 60), (Fraction(1, 16), 62)]


def test_fallback_collision_at_the_bar_end_keeps_the_order():
    # both onsets round to the last slot; the first makes room to its left
    measure = MeasureInput(((0.96, 60), (0.98, 62)), (0.97, 1.0))
    tree = fallback_quantize(measure, SIG, resolution=4)
    got = [(left, leaf.pitch) for leaf, left, _ in tree.leaves()
           if leaf.label == NOTE]
    assert got == [(Fraction(14, 16), 60), (Fraction(15, 16), 62)]


def test_fallback_keeps_every_onset_of_a_bar_denser_than_its_grid():
    # 24 triplet sixteenths do not fit 16 slots: the grid refines to 6 per beat
    measure = MeasureInput(tuple((k / 24, 48 + k) for k in range(24)),
                           tuple((k + 1) / 24 for k in range(24)))
    tree = fallback_quantize(measure, SIG, resolution=4)
    got = [(left, leaf.pitch) for leaf, left, _ in tree.leaves()
           if leaf.label == NOTE]
    assert got == [(Fraction(k, 24), 48 + k) for k in range(24)]


def test_fallback_warning_names_the_finer_grid():
    # nine notes a beat: more onsets than the default grammar has leaves, and
    # more than the 16 slots of the default grid
    perf = Performance([NoteEvent(k / 18, 0.05, 40 + k) for k in range(36)])
    score, warnings = quantize_performance(perf, _grid(1), default_grammar(),
                                           on_error="fallback")
    assert len(warnings) == 1
    assert "36 onsets need 9 grid slots per beat" in warnings[0]
    assert warnings[0].endswith("grid fallback applied")
    got = [(left, leaf.pitch) for leaf, left, _ in score.measures[0].leaves()
           if leaf.label == NOTE]
    assert got == [(Fraction(k, 36), 40 + k) for k in range(36)]


def test_fallback_resolution_validation():
    with pytest.raises(ValidationError):
        fallback_quantize(MeasureInput(), SIG, resolution=0)


# ---------------------------------------------------------------------------
# beat mapping

def test_time_to_beats_linear_and_extrapolated():
    grid = BeatGrid([1.0, 1.5, 2.0, 3.0, 4.0], 4)
    times = [0.5, 1.0, 1.75, 2.5, 4.5]
    beats = [support.time_to_beats(grid, t) for t in times]
    # beyond the ends, the nearest interval's rate continues
    assert beats == pytest.approx([-1.0, 0.0, 1.5, 2.5, 4.5])
    # the quantizer puts each onset there: a pickup beat, then two bars
    perf = Performance([NoteEvent(t, 0.2, 60 + k) for k, t in enumerate(times)])
    score, warnings = quantize_performance(perf, grid, default_grammar())
    assert not warnings
    assert score.anacrusis_beats == 1
    assert [start * 4 - 4 for start, _, _ in score.notes()] == beats


# ---------------------------------------------------------------------------
# full-performance driver

def _grid(n_bars: int, bpm: float = 120.0, phase: int = 0) -> BeatGrid:
    period = 60.0 / bpm
    return BeatGrid([period * k for k in range(4 * n_bars + 1)], 4, phase)


def test_quantize_performance_quarters():
    perf = Performance([NoteEvent(0.5 * k, 0.5, 60 + k) for k in range(8)])
    score, warnings = quantize_performance(perf, _grid(2), default_grammar())
    assert not warnings
    assert len(score.measures) == 2
    assert score.tempo_marking == pytest.approx(120.0)
    assert all(m.leaf_labels() == [NOTE] * 4 for m in score.measures)


def test_quantize_performance_empty():
    with pytest.raises(EmptyInputError):
        quantize_performance(Performance([]), _grid(1), default_grammar())


def test_silent_measures_under_grid_are_rests():
    # one note, but the annotation spans three bars
    perf = Performance([NoteEvent(0.0, 0.5, 60)])
    score, _ = quantize_performance(perf, _grid(3), default_grammar())
    assert len(score.measures) == 3
    assert score.measures[1].leaf_labels() == [REST]
    assert score.measures[2].leaf_labels() == [REST]


def test_early_downbeat_defers_to_next_measure():
    # silence on beat 4, then a held note 30 ms before bar 2: it belongs on
    # bar 2's downbeat, not at some strained position inside bar 1
    perf = Performance(
        [NoteEvent(0.5 * k, 0.5, 60) for k in range(3)]
        + [NoteEvent(1.97, 1.0, 72)]
    )
    score, _ = quantize_performance(perf, _grid(2), default_grammar())
    assert score.measures[0].leaf_labels() == [NOTE, NOTE, NOTE, REST]
    first = next(iter(score.measures[1].leaves()))
    assert first[0].label == NOTE
    assert first[0].pitch == 72
    assert first[1] == 0


def test_quantize_performance_solves_each_measure_once(monkeypatch):
    # the barline choices come from one solve per measure, not re-solves
    import rhythmiq.quantize as quantize

    seen = []
    solver = quantize.quantize_measure

    def counted(measure, *args, **kwargs):
        seen.append(measure)
        return solver(measure, *args, **kwargs)

    monkeypatch.setattr(quantize, "quantize_measure", counted)
    perf = Performance(
        [NoteEvent(0.5 * k, 0.5, 60) for k in range(3)]
        + [NoteEvent(1.97, 1.0, 72)]
        + [NoteEvent(4.0 + 0.5 * k, 0.5, 60) for k in range(8)]
    )
    score, _ = quantize_performance(perf, _grid(4), default_grammar())
    assert len(seen) == len(score.measures) == 4


def _least_path(tables):
    """The least (fallbacks, cost) over every k at each inner barline and
    every set of fallback measures, under the driver's rules: the first
    measure takes nothing in, the last gives nothing out, a fallback
    measure gives nothing out and takes an onset in only when none of its
    own is on its downbeat."""
    least = None
    for inner in itertools.product((0, 1), repeat=len(tables) - 1):
        ks = (0, *inner, 0)
        for fallbacks in itertools.product((False, True), repeat=len(tables)):
            total = 0.0
            for m, (table, fallback) in enumerate(zip(tables, fallbacks)):
                k_in, k_out = ks[m], ks[m + 1]
                onsets = table.measure.onsets
                if not fallback:
                    total += table.cost(k_in, k_out)
                elif k_out or k_in and onsets and onsets[0][0] == 0:
                    total = math.inf
            if total < math.inf:
                path = (sum(fallbacks), total)
                least = path if least is None else min(least, path)
    return least


def test_the_barline_viterbi_finds_the_least_fallbacks_then_cost():
    # seeded 1-3-bar performances, half on the default grammar and half on
    # random ones: each measure solved on its own, with the pitch that a
    # k_in = 1 entry takes in always given, then every path brute-forced
    import rhythmiq.quantize as quantize

    rng = random.Random(21)
    default = default_grammar()
    config = QuantConfig()
    seen = {"inner k = 1": 0, "fallback": 0, "fallback taking an onset in": 0}
    for trial in range(1500):
        grammar = default if trial % 2 else support.random_grammar(rng)
        bars = rng.randint(1, 3)
        grid = BeatGrid([1.0 + 0.5 * k for k in range(4 * bars + 1)], 4, 0)
        jitter = rng.choice((0.0, 0.004, 0.015))
        # in a third of the takes, a 10 ms grace note 20 ms early now and
        # then crowds two onsets onto one edge, or is pushed onto a silent one
        graces = rng.choice((0.0, 0.0, 0.2))
        notes = []
        # half the takes start on the downbeat, so their untimed notes stay
        # on the beats
        t = rng.choice((1.0, rng.uniform(0.7, 1.3)))
        while t < grid.beats[-1]:
            gap = rng.choice((0.125, 0.25, 1 / 6, 0.5, 0.75, 1.0))
            pitch = rng.randint(55, 80)
            if rng.random() < graces:
                notes.append(NoteEvent(t - 0.02, 0.01, pitch + 1))
            if rng.random() < 0.8:  # else a rest
                notes.append(NoteEvent(max(0.0, t + rng.gauss(0.0, jitter)),
                                       gap * rng.choice((1.0, 0.6, 2.5)), pitch))
            t += gap
        if not notes:
            continue
        notes_in, m_lo, m_hi = quantize._map(Performance(notes), grid)
        tables = []
        for m in range(m_lo, m_hi + 1):
            onsets, extents, pitch, end = slice_measure(notes_in, m)
            before = bisect.bisect_left(notes_in, (m,))
            if pitch is None and before:
                pitch = notes_in[before - 1][2]
            tables.append(quantize_measure(MeasureInput(onsets, extents, pitch, end),
                                           grammar, config, SIG, states=True,
                                           final=m == m_hi))

        solved, chosen = quantize._solve(notes_in, m_lo, m_hi, grammar, config, SIG)
        assert chosen[0][0] == 0 and chosen[-1][1] == 0
        assert all(a[1] == b[0] for a, b in zip(chosen, chosen[1:]))
        total = 0.0
        for table, (k_in, k_out, fallback) in zip(solved, chosen):
            onsets = table.measure.onsets
            if fallback:
                assert not k_out and not (k_in and onsets and onsets[0][0] == 0)
            else:
                total += table.cost(k_in, k_out)
        got = (sum(fallback for *_, fallback in chosen), total)
        assert got == _least_path(tables), (trial, chosen)
        seen["inner k = 1"] += any(k_out for _, k_out, _ in chosen)
        seen["fallback"] += got[0] > 0
        seen["fallback taking an onset in"] += any(k_in and fallback
                                                   for k_in, _, fallback in chosen)
    assert min(seen.values()) >= 10, seen  # every rule is exercised


def test_on_lattice_onset_is_never_deferred():
    # a sixteenth pickup exactly on the grid stays in its own measure
    perf = Performance(
        [NoteEvent(0.5 * k, 0.5, 60) for k in range(3)]
        + [NoteEvent(1.875, 0.125, 72), NoteEvent(2.0, 0.5, 64)]
    )
    score, _ = quantize_performance(perf, _grid(2), default_grammar())
    m1_pitches = [l.pitch for l, _, _ in score.measures[0].leaves()
                  if l.label == NOTE]
    assert 72 in m1_pitches
    first = next(iter(score.measures[1].leaves()))
    assert first[0].pitch == 64


def test_onset_just_early_of_a_beat_aligns_to_it():
    # the third quarter comes 2 ms early: it aligns to beat 3, the nearer
    # edge of the beat-long leaf, not to some 32nd before it
    perf = Performance([NoteEvent(0.0, 0.5, 60), NoteEvent(0.5, 0.498, 62),
                        NoteEvent(0.998, 0.502, 64), NoteEvent(1.5, 0.5, 65)])
    score, warnings = quantize_performance(perf, _grid(1), default_grammar())
    assert not warnings
    got = [(left, leaf.pitch) for leaf, left, _ in score.measures[0].leaves()]
    assert got == [(Fraction(k, 4), p) for k, p in enumerate((60, 62, 64, 65))]


def test_onset_just_before_the_final_barline_stays_in_the_last_bar():
    # 20 ms before the grid's end the last onset would align to the final
    # barline, but no note may start past the grid: the last bar's final
    # leaf keeps it as its note
    perf = Performance([NoteEvent(0.5 * k, 0.5, 60 + k) for k in range(7)]
                       + [NoteEvent(3.98, 0.02, 72)])
    score, warnings = quantize_performance(perf, _grid(2), default_grammar())
    assert not warnings
    assert len(score.measures) == 2
    notes = [(left, leaf.pitch) for leaf, left, _ in score.measures[1].leaves()
             if leaf.label == NOTE]
    assert notes == [(Fraction(k, 4), 64 + k) for k in range(3)] + [(Fraction(7, 8), 72)]
    assert score.measures[0].leaf_labels() == [NOTE] * 4
    # a lone measure is followed by another: there the onset aligns to the
    # closing barline, which even the finest cells cannot hold
    measure = MeasureInput(((0.99, 72),), (1.0,), carried_pitch=67, carried_end=0.0625)
    with pytest.raises(AlignmentError, match="aligns to the closing barline"):
        quantize_measure(measure, default_grammar())
    assert quantize_measure(measure, default_grammar(), final=True)[0].leaf_labels()[-1] == NOTE


def test_downbeat_entry_takes_the_carried_note():
    # with states, k_in = 1 puts the note before the barline on the downbeat
    solved = quantize_measure(MeasureInput(carried_pitch=72, carried_end=0.5),
                              default_grammar(), states=True)
    assert solved.cost(0, 0) < math.inf and solved.cost(1, 0) < math.inf
    assert solved.cost(0, 1) == solved.cost(1, 1) == math.inf
    assert solved.tree(0, 0).leaf_labels() == [CONTINUATION, CONTINUATION, REST, REST]
    assert solved.tree(1, 0).leaf_labels() == [NOTE, CONTINUATION, REST, REST]
    # a lone call is the (0, 0) entry
    alone = MeasureInput(carried_pitch=72, carried_end=0.5)
    assert quantize_measure(alone, default_grammar()) == (
        solved.tree(0, 0), solved.cost(0, 0))


_CAUSES = {
    # 36 onsets in one bar of the default grammar
    "capacity": (None, [NoteEvent(k / 18, 0.05, 40 + k) for k in range(36)],
                 "36 onsets exceed the 32 leaves reachable within depth 4"),
    # 4 ms either side of beat 2 both align to it, even in 32nd cells
    "alignment": (None, [NoteEvent(0.0, 0.4, 60), NoteEvent(0.496, 0.004, 62),
                         NoteEvent(0.504, 0.4, 64), NoteEvent(1.0, 1.0, 65)],
                  "onsets at 0.2480 and 0.2520 of the measure align to one "
                  "boundary even in the finest cells"),
    # the second quarter's release needs a rest leaf the grammar lacks
    "grammar": ("maxdepth = 1\nstart 4/4 = S\nS -> (Q Q Q Q) : 1.0\nQ -> note : 1.0\n",
                [NoteEvent(0.0, 0.5, 60), NoteEvent(0.5, 0.5, 62)],
                "no derivation fits this measure; the grammar lacks a rule for "
                "a needed leaf"),
}


@pytest.mark.parametrize("cause", sorted(_CAUSES))
def test_fallback_warning_names_its_cause(cause):
    text, notes, message = _CAUSES[cause]
    grammar = parse_grammar_file(text) if text else default_grammar()
    _, warnings = quantize_performance(Performance(notes), _grid(1), grammar,
                                       on_error="fallback")
    assert len(warnings) == 1
    assert warnings[0].startswith(f"measure 0: {message}")
    assert warnings[0].endswith("grid fallback applied")


def test_a_fallback_measure_takes_in_the_onset_pushed_onto_its_downbeat():
    # bar 2's last onset comes 5 ms before the barline, so it must align
    # onto bar 3's downbeat; bar 3 cannot be parsed (two onsets 4 ms either
    # side of its beat 2), so its grid fallback takes that onset in as its
    # first note and bar 2 stays the grammar's
    perf = Performance([NoteEvent(0.5 * k, 0.5, 60 + k) for k in range(7)]
                       + [NoteEvent(3.995, 0.3, 72), NoteEvent(4.496, 0.004, 74),
                          NoteEvent(4.504, 0.4, 76), NoteEvent(5.0, 1.0, 77)])
    score, warnings = quantize_performance(perf, _grid(3), default_grammar(),
                                           on_error="fallback")
    assert [w.split(":")[0] for w in warnings] == ["measure 2"]
    assert score.measures[1].leaf_labels() == [NOTE, NOTE, NOTE, REST]
    pitches = [leaf.pitch for measure in score.measures
               for leaf, _, _ in measure.leaves() if leaf.label == NOTE]
    assert pitches == [note.pitch for note in perf.notes]
    leaf, left, _ = next(iter(score.measures[2].leaves()))
    assert (leaf.label, leaf.pitch, left) == (NOTE, 72, 0)


def test_onset_a_rounding_error_before_a_barline_is_on_it():
    # beat arithmetic puts this onset 1e-15 measure units before bar 2: it is
    # bar 2's downbeat, not a note lost in no cell of bar 1
    from rhythmiq import emit_musicxml

    grid = _grid(2)
    onset = 2.0 - 2e-15
    assert 0 < 1 - support.time_to_beats(grid, onset) / 4 < 1e-9
    perf = Performance([NoteEvent(0.5 * k, 0.5, 60) for k in range(3)]
                       + [NoteEvent(onset, 1.0, 72)])
    score, warnings = quantize_performance(perf, grid, default_grammar())
    assert not warnings
    assert score.measures[0].leaf_labels() == [NOTE, NOTE, NOTE, REST]
    first, left, _ = next(iter(score.measures[1].leaves()))
    assert (first.label, first.pitch, left) == (NOTE, 72, 0)
    emit_musicxml(score)


def test_release_past_the_last_beat_adds_no_measure():
    # the last quarter is released 3.4 ms after the grid's final beat
    perf = Performance([NoteEvent(0.5 * k, 0.5, 60) for k in range(15)]
                       + [NoteEvent(7.5, 0.5034, 62)])
    score, warnings = quantize_performance(perf, _grid(4), default_grammar())
    assert not warnings
    assert len(score.measures) == 4
    assert score.measures[-1].leaf_labels() == [NOTE] * 4


def test_notes_past_the_grid_extend_the_score():
    # beyond the annotation the last release still sets the final measure
    perf = Performance([NoteEvent(0.5 * k, 0.5, 60) for k in range(4)]
                       + [NoteEvent(2.5, 1.5, 64)])
    score, _ = quantize_performance(perf, _grid(1), default_grammar())
    assert len(score.measures) == 2
    assert score.measures[1].leaf_labels() == [REST, NOTE, CONTINUATION, CONTINUATION]


def test_anacrusis_detected_before_first_downbeat():
    # pickup eighth note half a beat before the first annotated downbeat
    perf = Performance(
        [NoteEvent(0.75, 0.25, 67)]
        + [NoteEvent(1.0 + 0.5 * k, 0.5, 60) for k in range(4)]
    )
    grid = BeatGrid([1.0 + 0.5 * k for k in range(5)], 4)
    score, _ = quantize_performance(perf, grid, default_grammar())
    assert score.anacrusis_beats == Fraction(1, 2)
    assert len(score.measures) == 2


def test_fallback_mode_emits_warning():
    g = parse_grammar_file(
        "maxdepth = 1\nstart 4/4 = S\nS -> note : 0.6\nS -> rest : 0.4\n")
    # two onsets cannot fit a 1-leaf grammar
    perf = Performance([NoteEvent(0.0, 0.5, 60), NoteEvent(1.0, 0.5, 62)])
    with pytest.raises(CapacityError):
        quantize_performance(perf, _grid(1), g, on_error="raise")
    score, warnings = quantize_performance(perf, _grid(1), g,
                                           on_error="fallback")
    assert len(warnings) == 1
    assert "measure 0" in warnings[0]
    assert "fallback" in warnings[0]
    labels = score.measures[0].leaf_labels()
    assert labels.count(NOTE) == 2


def test_on_error_validation():
    perf = Performance([NoteEvent(0.0, 0.5, 60)])
    with pytest.raises(ValidationError):
        quantize_performance(perf, _grid(1), default_grammar(),
                             on_error="ignore")


def test_on_error_validation_names_the_bad_value():
    perf = Performance([NoteEvent(0.0, 0.5, 60)])
    with pytest.raises(ValidationError, match="got 'ignore'"):
        quantize_performance(perf, _grid(1), default_grammar(),
                             on_error="ignore")


def test_round_trip_through_rendered_midi():
    # a compact version of the full-fidelity acceptance check
    from rhythmiq import load_midi, render_performance, sample_score, save_midi

    g = default_grammar()
    rng = random.Random(424242)
    for _ in range(10):
        while True:
            score = sample_score(g, rng.randint(1, 4), rng)
            if any(l.label == NOTE for m in score.measures
                   for l, _, _ in m.leaves()):
                break
        perf = load_midi(save_midi(render_performance(score, 120.0), 120.0))
        grid = _grid(len(score.measures))
        out, warnings = quantize_performance(perf, grid, g)
        assert not warnings
        assert out == score


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_through_an_irregular_grid(seed):
    # beat intervals of 0.7-1.4 times 0.5 s, annotated from beat q of the
    # score (so from phase 4 - q) until its last bar: the first note sounds
    # before the first annotated beat and the last bar past the final one,
    # both placed along the nearest interval
    from rhythmiq import render_performance, sample_score

    g = default_grammar()
    rng = random.Random(seed)
    while True:
        score = sample_score(g, rng.randint(2, 5), rng)
        labels = [m.leaf_labels() for m in score.measures]
        if labels[0][0] == NOTE and NOTE in labels[-1]:
            break
    q = rng.randint(1, 3 if len(score.measures) == 2 else 4)
    last = 4 * (len(score.measures) - 1)
    times = [3.0]
    for _ in range(last - q):
        times.append(times[-1] + 0.5 * rng.uniform(0.7, 1.4))

    def seconds(beat: float) -> float:
        k = min(max(math.floor(beat) - q, 0), len(times) - 2)
        return times[k] + (beat - q - k) * (times[k + 1] - times[k])

    perf = Performance([NoteEvent(seconds(n.onset), seconds(n.offset) - seconds(n.onset),
                                  n.pitch)
                        for n in render_performance(score, 60.0).notes])
    assert perf.notes[0].onset < times[0] < times[-1] < perf.notes[-1].offset
    out, warnings = quantize_performance(perf, BeatGrid(times, 4, (4 - q) % 4), g)
    assert not warnings
    assert (out.measures, out.anacrusis_beats) == (score.measures, 0)


# SHA-256 over the cases of test_recorded_outputs.  A change that alters
# the quantizer's output on purpose records the new digest here.
RECORDED_OUTPUTS = "b592555c7012d16aab5ce6d56e7169144da4a185f94a5603ec6267a62ff458b9"


def test_recorded_outputs():
    # seeded performances on 4/4 grids of 2-40 beats, 0.25-0.7 s apart from
    # a random start and bar phase.  Note lengths come from a menu of beat
    # fractions, some played short, with 0, 4 or 15 ms of onset jitter; the
    # first note starts up to 2 s before the first beat.  Each case hashes
    # its MusicXML and warnings, or its error's class and message
    g = default_grammar()
    rng = random.Random(1955)
    lengths = (0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0, 1.5, 2.0, 3.0)
    digest = hashlib.sha256()
    seen = {"pickup": 0, "fallback": 0, "error": 0}
    for _ in range(200):
        times = [2.0 + rng.uniform(0.0, 0.5)]
        for _ in range(rng.randint(2, 40) - 1):
            times.append(times[-1] + rng.uniform(0.25, 0.7))
        grid = BeatGrid(times, 4, rng.randrange(4))
        beat = (times[-1] - times[0]) / (len(times) - 1)
        jitter = rng.choice((0.0, 0.004, 0.015))
        t = times[0] - rng.uniform(0.0, 2.0)
        notes = []
        while t < times[-1]:
            length = rng.choice(lengths) * beat
            notes.append(NoteEvent(max(0.0, t + rng.gauss(0.0, jitter)),
                                   length * rng.choice((1.0, 1.0, 0.6)),
                                   rng.randint(55, 80)))
            t += length
        on_error = rng.choice(("raise", "fallback"))
        try:
            score, warnings = quantize_performance(Performance(notes), grid, g,
                                                   on_error=on_error)
        except RhythmiqError as exc:
            seen["error"] += 1
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        seen["pickup"] += score.anacrusis_beats > 0
        seen["fallback"] += bool(warnings)
        digest.update(emit_musicxml(score).encode())
        digest.update("".join(w + "\n" for w in warnings).encode())
    assert min(seen.values()) >= 10, seen  # every path is in the digest
    assert digest.hexdigest() == RECORDED_OUTPUTS


# SHA-256 over the outputs of test_bench_corpus_outputs.  A change that
# alters them on purpose records the new digest here.
BENCH_OUTPUTS = "d98dccc6f041f7bc57e1e36a0e7b9ecc1adb824062d5561161e26ee627d1cd0c"


@pytest.fixture(scope="module")
def bench():
    """The bench's corpus generator, reader and checks, loaded by path, and
    its five solos."""
    modules = {}
    with pytest.MonkeyPatch.context() as patch:
        # by their own names: checks imports the other two, and a module's
        # dataclasses look it up while it loads
        for name in ("corpus", "reader", "checks"):
            path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
            spec = importlib.util.spec_from_file_location(name, path)
            modules[name] = module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
    return SimpleNamespace(**modules, solos=modules["corpus"].corpus())


def test_bench_corpus_outputs(tmp_path, bench):
    # ``quantize`` on the bench's five exact renders, then its five played
    # takes, each written as the bench writes it.  Each case hashes its
    # MusicXML and its warnings sidecar, or the sidecar's absence
    corpus, solos = bench.corpus, bench.solos
    takes = [corpus.played_take(solo) for solo in solos]
    cases = ([("exact", s.name, corpus.exact_midi(s), corpus.exact_beats(s)) for s in solos]
             + [("played", s.name, corpus.take_midi(t), t.beat_times)
                for s, t in zip(solos, takes)])
    digest = hashlib.sha256()
    for kind, name, midi, beats in cases:
        stem = tmp_path / kind / name
        stem.parent.mkdir(exist_ok=True)
        stem.with_suffix(".mid").write_bytes(midi)
        stem.with_suffix(".beats.csv").write_text(corpus.beats_csv(beats))
        out = stem.with_suffix(".musicxml")
        assert main(["quantize", str(stem.with_suffix(".mid")),
                     "--beats", str(stem.with_suffix(".beats.csv")), "--out", str(out)]) == 0
        sidecar = stem.with_suffix(".warnings.txt")
        digest.update(f"{kind}/{name}\n".encode())
        digest.update(out.read_bytes())
        digest.update(sidecar.read_bytes() if sidecar.exists() else b"no sidecar\n")
    assert digest.hexdigest() == BENCH_OUTPUTS


def test_the_bench_beats_csv_with_a_comment_or_a_bad_first_record(tmp_path, bench, capsys):
    # a comment after solo032's first record, or a header line, reads as the
    # plain file does; a first record that does not parse is an error, not
    # a header that would drop the first downbeat
    corpus, solo = bench.corpus, bench.solos[0]
    midi, beats = tmp_path / "solo.mid", tmp_path / "solo.beats.csv"
    midi.write_bytes(corpus.exact_midi(solo))
    text = corpus.beats_csv(corpus.exact_beats(solo))
    assert text.splitlines()[:2] == ["# time_sec,beat_in_bar", "0.24,1"]
    outputs = []
    for variant in (text, text.replace("0.24,1\n", "0.24,1 # bar 1\n", 1),
                    text.replace("# time_sec,beat_in_bar", "time,beat", 1)):
        grid = load_beats(variant)
        assert (len(grid.beats), grid.phase) == (129, 0)
        beats.write_text(variant)
        assert main(["quantize", str(midi), "--beats", str(beats)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == ""
    assert outputs[1] == outputs[0] == outputs[2]
    beats.write_text(text.replace("0.24,1\n", "0.24,1x\n", 1))
    assert main(["quantize", str(midi), "--beats", str(beats)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {beats}: line 2: non-numeric beat record '0.24,1x'\n")


def _bench_score(bench, solo, grammar, sigma=None):
    """The score ``quantize_performance`` gives the solo's exact render, or
    its take played with ``sigma`` s of onset jitter, read from MIDI."""
    corpus = bench.corpus
    if sigma is None:
        midi, beats = corpus.exact_midi(solo), corpus.exact_beats(solo)
    else:
        take = corpus.played_take(solo, sigma)
        midi, beats = corpus.take_midi(take), take.beat_times
    score, _ = quantize_performance(load_midi(midi), load_beats(corpus.beats_csv(beats)),
                                    grammar, on_error="fallback")
    return score


def test_played_takes_are_written_as_the_exact_renders(bench):
    # bar by bar, a played take's tree is its exact render's, and the order
    # of the rule lines in a grammar file changes no tree.  Trees, not parsed
    # MusicXML: parsing makes both readings canonical, which hides a rest
    # split in two
    grammar = default_grammar()
    text = serialize_grammar(grammar)
    lines = text.splitlines()
    rules = [line for line in lines if "->" in line]
    e_rest, e_cont = "E -> rest : 0.160000", "E -> continuation : 0.160000"
    reordered = [
        parse_grammar_file("\n".join([line for line in lines if "->" not in line]
                                     + rules[::-1])),
        parse_grammar_file(text.replace(e_rest, "@").replace(e_cont, e_rest)
                           .replace("@", e_cont)),
    ]
    matching = {0: 0, 0.004: 0}
    bars = 0
    for solo in bench.solos:
        written = _bench_score(bench, solo, grammar).measures
        for sigma in matching:
            played = _bench_score(bench, solo, grammar, sigma).measures
            matching[sigma] += sum(a == b for a, b in zip(played, written))
        for other in reordered:
            assert _bench_score(bench, solo, other, 0.004).measures == played, solo.name
        bars += solo.bars
    assert bars == 992
    assert matching[0] == 992 and matching[0.004] >= 991


def test_a_learned_grammar_transcribes_as_well_as_the_default(bench):
    # leave one out: a grammar trained on four of the bench's reference
    # scores quantizes the fifth solo's played take
    corpus = bench.corpus
    references = [parse_musicxml(corpus.musicxml(s.notes, s.bars, s.bpm))[0]
                  for s in bench.solos]
    exact = 0
    for i, solo in enumerate(bench.solos):
        grammar = train_grammar(references[:i] + references[i + 1:])
        score = _bench_score(bench, solo, grammar, 0.004)
        exact += bench.checks.exact_bars(bench.reader.read_musicxml(emit_musicxml(score)).notes,
                                         solo)
    assert exact >= 991


def test_every_quantized_score_prints():
    # seeded performances on 4/4 grids of 5-13 beats, quantized with random
    # grammars and the grid fallback, then written as MusicXML: a score with
    # a continuation after a rest, or one opening on a continuation, cannot
    # be written
    rng = random.Random(77)
    lengths = (0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0, 1.5, 2.0, 3.0)
    for case in range(1000):
        grammar = support.random_grammar(rng)
        times = [0.5]
        for _ in range(rng.randint(4, 12)):
            times.append(times[-1] + rng.uniform(0.4, 0.6))
        beat = (times[-1] - times[0]) / (len(times) - 1)
        jitter = rng.choice((0.0, 0.004, 0.015))
        t = times[0] - rng.uniform(0.0, 0.5)
        notes = []
        while t < times[-1]:
            length = rng.choice(lengths) * beat
            notes.append(NoteEvent(max(0.0, t + rng.gauss(0.0, jitter)),
                                   length * rng.choice((1.0, 1.0, 0.6)), rng.randint(55, 80)))
            t += length
        score, _ = quantize_performance(Performance(notes),
                                        BeatGrid(times, 4, rng.randrange(4)), grammar,
                                        on_error="fallback")
        emit_musicxml(score)


def test_a_continuation_never_follows_a_rest():
    # under the held note, bar 2's D cell has a rest but no continuation,
    # and a rest is admissible only where the sound ends by the cell's
    # right edge: so the D cell is no rest there, and no C cell after a
    # rest holds a continuation
    grammar = parse_grammar_file("\n".join([
        "maxdepth = 2", "start 4/4 = A",
        "A -> note : 0.218899", "A -> rest : 0.220487", "A -> (D C) : 0.560614",
        "C -> continuation : 0.301360", "C -> note : 0.342323", "C -> (C C) : 0.356317",
        "D -> note : 0.583647", "D -> rest : 0.416353",
    ]))
    score, _ = quantize_performance(Performance([NoteEvent(0.0, 3.052, 60)]),
                                    BeatGrid([0.5 * k for k in range(9)], 4, 0), grammar)
    emit_musicxml(score)  # a continuation after a rest would have nothing to continue


# ---------------------------------------------------------------------------
# compiled lattice

def _count_compiles(monkeypatch) -> list:
    """The time signature of each lattice compiled, in order."""
    import rhythmiq.grammar as grammar_module

    calls = []
    compile_lattice = grammar_module.compile_lattice

    def counted(grammar, time_signature):
        calls.append(time_signature)
        return compile_lattice(grammar, time_signature)

    monkeypatch.setattr(grammar_module, "compile_lattice", counted)
    return calls


def test_lattice_compiles_once_per_grammar_and_signature(monkeypatch):
    calls = _count_compiles(monkeypatch)
    grammar = default_grammar()
    assert calls == []  # building a grammar compiles nothing
    perf = Performance(
        [NoteEvent(0.5 * k, 0.5, 60) for k in range(3)]
        + [NoteEvent(1.97, 1.0, 72)]  # an onset aligned across a barline
    )
    quantize_performance(perf, _grid(2), grammar)
    assert calls == [SIG]
    for _ in range(3):
        quantize_measure(MeasureInput(((0.25, 60),), (0.5,)), grammar)
    assert calls == [SIG]
    quantize_measure(MeasureInput(), default_grammar())
    assert calls == [SIG] * 2  # another grammar compiles its own


def test_equal_grammars_compile_equal_lattices():
    first, second = default_grammar().lattice(SIG), default_grammar().lattice(SIG)
    assert first is not second
    assert first == second
    assert len(first.edges) == 49  # 97 nodes, 49 distinct cell edges
    assert len(first.steps) == 97  # one step per node


def test_lattice_orders_cells_ending_at_an_edge_before_those_starting_there():
    # the solve marks an edge when a leaf aligns an onset onto it, so each
    # node must come after its children and after every cell ending at its
    # left edge
    rng = random.Random(34)
    for grammar in [default_grammar()] + [support.random_grammar(rng) for _ in range(100)]:
        steps = grammar.lattice(SIG).steps
        last_ending = {ri: node for node, _, ri, *_ in steps}
        for node, li, _, *_, splits in steps:
            assert last_ending.get(li, -1) < node
            assert all(child < node for *_, children, _, _, _ in splits
                       for child, _ in children)
        assert steps[-1][3:5] == (0.0, 1.0)  # the measure's node comes last


def test_a_solve_leaves_the_lattice_unchanged():
    # the solver only reads the lattice: after a score, with onsets aligned
    # across barlines and empty, held and final measures, it still equals a
    # fresh compile and hashes
    from rhythmiq.grammar import compile_lattice

    grammar = default_grammar()
    perf = Performance(
        [NoteEvent(0.5 * k, 0.5, 60) for k in range(3)]
        + [NoteEvent(1.97, 3.0, 72), NoteEvent(6.2, 0.1, 64)]
    )
    quantize_performance(perf, _grid(4), grammar)
    lattice = grammar.lattice(SIG)
    assert lattice == compile_lattice(grammar, SIG)
    assert hash(lattice) == hash(compile_lattice(grammar, SIG))


def test_a_new_grammar_solves_from_its_own_plan():
    # each grammar keeps its own lattice, so a grammar built after
    # another one is collected (and may reuse its id) still solves as the
    # reference does
    rng = random.Random(2027)
    for trial in range(30):
        grammar = support.random_grammar(rng)
        measure = support.random_measure(rng)
        final = rng.random() < 0.5
        assert (_entries(measure, grammar, QuantConfig(), final)
                == support.reference_quantize_measure(measure, grammar, states=True,
                                                      final=final)), trial
        del grammar
        gc.collect()


def test_lattice_for_a_signature_without_start_symbol_raises(monkeypatch):
    calls = _count_compiles(monkeypatch)
    grammar = default_grammar()
    for _ in range(2):
        with pytest.raises(GrammarError):
            quantize_measure(MeasureInput(), grammar, time_signature=TimeSignature(3, 4))
    assert len(calls) == 2  # a failure is not kept


def test_lattice_queries_of_the_default_grammar():
    lattice = default_grammar().lattice(SIG)
    assert lattice.unit == 97  # nodes
    assert lattice.capacity == 32  # four beats of eight 32nds


def test_lattice_capacity_matches_the_recursive_reference():
    rng = random.Random(3030)
    grammars = [support.random_grammar(rng, max_depth=rng.randint(1, 5)) for _ in range(200)]
    # A cannot split at the depth bound, so B's split has no derivation
    # and sinks, though E's (N N N) under it does: 2 leaves, not 6
    grammars.append(parse_grammar_file("\n".join([
        "maxdepth = 3", "start 4/4 = M", "M -> (B B) : 1.0",
        "B -> (A E) : 0.5", "B -> note : 0.5", "A -> (C C) : 1.0", "C -> (N N) : 1.0",
        "E -> (N N N) : 1.0", "N -> note : 1.0",
    ])))
    for trial, grammar in enumerate(grammars):
        assert (grammar.lattice(SIG).capacity
                == support._max_leaves(grammar, grammar.start_for(SIG), grammar.max_depth,
                                       {})), trial
    assert grammars[-1].lattice(SIG).capacity == 2
    assert len({g.lattice(SIG).capacity for g in grammars}) > 10
