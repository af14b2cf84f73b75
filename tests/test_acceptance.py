"""Behavioral guarantees for the whole pipeline, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or add ``-s`` to see the printed PASS details.  Scales and tolerances are
stated inline; everything runs from fixed seeds.
"""
import json
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from rhythmiq import (
    BeatGrid,
    MeasureInput,
    NoteEvent,
    Performance,
    ScoreModel,
    TempoEstimate,
    TimeSignature,
    best_rotation_fmeasure,
    default_grammar,
    downbeat_fmeasure,
    enforce_monophony,
    emit_musicxml,
    estimate_tempo_ioi,
    fallback_quantize,
    load_midi,
    note_metrics,
    parse_musicxml,
    quantize_measure,
    quantize_performance,
    sample_score,
    save_midi,
    score_edit_metrics,
    sdr,
    tempo_bounds,
    train_grammar,
)
from rhythmiq.cli import main
from rhythmiq.metrics import ZERO_RESIDUAL_DB
from rhythmiq.quantize import CapacityError, ParseFailureError
from rhythmiq.trees import NOTE, note, render_performance, rest, split

import support

SIG = TimeSignature(4, 4)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n:02d} PASS - {detail}")


def test_criterion_01_quantizer_matches_exhaustive_enumeration():
    # 1000 randomized measures against grammars of <= 12 rules, depth <= 3;
    # the DP must return the exhaustive minimum every time, within 60 s
    rng = random.Random(12021)
    t0 = time.monotonic()
    solved = 0
    for trial in range(1000):
        grammar = support.random_grammar(rng)
        measure = support.random_measure(rng)
        try:
            _, cost = quantize_measure(measure, grammar)
        except (ParseFailureError, CapacityError):
            cost = None
        oracle = support.enumerate_min_cost(measure, grammar)
        if cost is None or oracle is None:
            assert cost is None and oracle is None, f"trial {trial}"
        else:
            assert abs(cost - oracle) <= 1e-9, f"trial {trial}: {cost} vs {oracle}"
            solved += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert solved > 200  # enough feasible cases to exercise the cost path
    _report(1, f"1000/1000 optimal ({solved} feasible) in {elapsed:.1f}s")


def test_criterion_02_round_trip_through_midi_is_exact():
    # 200 sampled scores, rendered at 120 bpm, serialized to MIDI bytes and
    # quantized back: the notated result must equal the original exactly
    grammar = default_grammar()
    rng = random.Random(77007)
    for k in range(200):
        while True:
            score = sample_score(grammar, rng.randint(1, 4), rng)
            if any(leaf.label == NOTE
                   for m in score.measures for leaf, _, _ in m.leaves()):
                break
        perf = render_performance(score)
        back = load_midi(save_midi(perf, 120.0))
        grid = BeatGrid([0.5 * i for i in range(4 * len(score.measures) + 1)], 4)
        rebuilt, warnings = quantize_performance(back, grid, grammar)
        assert not warnings, (k, warnings)
        assert rebuilt == score, f"score {k} changed through the round trip"
    _report(2, "200/200 scores identical after render/save/load/quantize")


def test_criterion_03_fallback_recovers_grid_under_bounded_jitter():
    # jitter strictly below half a grid slot must never move a note
    rng = random.Random(30303)
    for trial in range(1000):
        resolution = rng.choice([2, 3, 4, 6, 8])
        slots = 4 * resolution
        chosen = sorted(rng.sample(range(slots), rng.randint(1, 6)))
        onsets, extents = [], []
        for s in chosen:
            jitter = rng.uniform(-0.499, 0.499) / slots
            pos = max(0.0, s / slots + jitter)
            onsets.append((pos, 60))
            extents.append(pos + rng.uniform(0.2, 0.9) / slots)
        tree = fallback_quantize(
            MeasureInput(tuple(onsets), tuple(extents)), SIG,
            resolution=resolution,
        )
        lefts = [left for leaf, left, _ in tree.leaves() if leaf.label == NOTE]
        assert lefts == [Fraction(s, slots) for s in chosen], f"trial {trial}"
    _report(3, "1000/1000 jittered measures snapped to the exact grid")


def _brute_force_matching(ref, est, tol):
    candidates = [
        [j for j, e in enumerate(est.notes)
         if e.pitch == r.pitch and abs(e.onset - r.onset) <= tol]
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


def test_criterion_04_note_matching_is_maximal():
    # 1000 random pairs of <= 10 notes: matched count equals brute force
    rng = random.Random(60301)
    for trial in range(1000):
        ref = Performance([
            NoteEvent(rng.choice([1.0, 1.04, 1.08, 1.5]), 0.1,
                      rng.choice([60, 61]), 80)
            for _ in range(rng.randint(1, 10))
        ])
        est = Performance([
            NoteEvent(rng.choice([1.0, 1.04, 1.08, 1.5]) + rng.uniform(-0.06, 0.06),
                      0.1, rng.choice([60, 61]), 80)
            for _ in range(rng.randint(1, 10))
        ])
        got = note_metrics(ref, est).matched
        want = _brute_force_matching(ref, est, 0.05)
        assert got == want, f"trial {trial}: {got} vs {want}"

    # one wrong pitch out of four: precision = recall = F = 75 exactly
    ref = Performance([NoteEvent(0.5 * k, 0.1, p, 80)
                       for k, p in enumerate([60, 62, 64, 65])])
    est = Performance([NoteEvent(0.5 * k, 0.1, p, 80)
                       for k, p in enumerate([60, 62, 63, 65])])
    m = note_metrics(ref, est)
    assert (m.precision, m.recall, m.f_measure) == (75.0, 75.0, 75.0)
    _report(4, "1000/1000 matchings maximal; 1-in-4 pitch error scores 75/75/75")


def test_criterion_05_rotation_search_dominates_fixed_downbeats():
    # the best rotation can never score below the unrotated reading, and
    # equality holds exactly when phase 0 already wins
    rng = random.Random(4242)
    improved = 0
    for trial in range(1000):
        bpb = rng.choice([3, 4])
        beats = sorted(rng.uniform(0, 30) for _ in range(rng.randint(4, 40)))
        ref = sorted(rng.uniform(0, 30) for _ in range(rng.randint(1, 12)))
        plain = downbeat_fmeasure(ref, beats[0::bpb])
        best, phase = best_rotation_fmeasure(ref, beats, bpb)
        assert best >= plain, f"trial {trial}"
        assert (phase == 0) == (best == plain), f"trial {trial}"
        improved += phase != 0

    # a cleanly phase-shifted grid is recovered perfectly at every phase
    beats = [0.5 * k for k in range(32)]
    for true_phase in range(4):
        f, phase = best_rotation_fmeasure(beats[true_phase::4], beats, 4)
        assert (f, phase) == (100.0, true_phase)
    _report(5, f"1000/1000 dominance held ({improved} strict); all phases recovered")


def test_criterion_06_tempo_estimates_and_bounds():
    # isochronous quarters at 120 bpm: exact within 0.5
    iso = Performance([NoteEvent(0.5 * k, 0.4, 60, 80) for k in range(12)])
    assert abs(estimate_tempo_ioi(iso).bpm - 120.0) <= 0.5

    # 2:1 swing eighths at 120 bpm: within 2
    onsets, t = [], 0.0
    for k in range(16):
        onsets.append(t)
        t += 1 / 3 if k % 2 == 0 else 1 / 6
    swing = Performance([NoteEvent(s, 0.1, 60, 80) for s in onsets])
    swing_bpm = estimate_tempo_ioi(swing).bpm
    assert abs(swing_bpm - 120.0) <= 2.0

    # search bounds sit 15 bpm under the prior with a fixed 350 ceiling
    bounds = tempo_bounds(TempoEstimate(100.0, 5, 0.5))
    assert (bounds.min_bpm, bounds.max_bpm) == (85.0, 350.0)
    _report(6, f"isochronous exact, swing {swing_bpm:.2f}, bounds (85, 350)")


def test_criterion_07_sdr_reference_cases():
    ref = np.ones(100)
    constructed = sdr(ref, ref + 0.1)
    assert abs(constructed - 20.0) <= 0.1

    assert sdr(ref, ref.copy()) == ZERO_RESIDUAL_DB

    rng = np.random.default_rng(7)
    sig = rng.standard_normal(512)
    noisy = sig + 0.03 * rng.standard_normal(512)
    base = sdr(sig, noisy)
    for c in (1e3, 1e-3):
        assert abs(sdr(c * sig, c * noisy) - base) <= 1e-6
    _report(7, f"constructed pair {constructed:.4f} dB, identity capped, "
               "scale-invariant to 1e-6 dB")


def test_criterion_08_musicxml_round_trip_and_measure_sums():
    # 200 sampled scores: parse(emit(s)) == s, and every emitted measure's
    # durations sum exactly to the time signature length as rationals
    grammar = default_grammar()
    rng = random.Random(88008)
    checked = 0
    for k in range(200):
        score = sample_score(grammar, rng.randint(1, 4), rng)
        text = emit_musicxml(score)
        back, warnings = parse_musicxml(text)
        assert not warnings
        assert back == score, f"score {k}"
        root = ET.fromstring(text)
        divisions = int(root.find(".//divisions").text)
        for measure in root.find("part").findall("measure"):
            total = sum(int(n.findtext("duration")) for n in measure.findall("note"))
            assert Fraction(total, divisions) == Fraction(4), f"score {k}"
            checked += 1
    _report(8, f"200/200 identity round trips; {checked} measures sum exactly")


def _duplet_triplet_score(n_duplet: int, n_triplet: int) -> ScoreModel:
    beats = [split(note(60), note(62)) for _ in range(n_duplet)]
    beats += [split(note(60), note(62), note(64)) for _ in range(n_triplet)]
    measures = []
    while beats:
        chunk, beats = beats[:4], beats[4:]
        while len(chunk) < 4:
            chunk.append(note(60))
        measures.append(split(*chunk))
    return ScoreModel(SIG, measures)


def test_criterion_09_grammar_training_frequencies():
    corpus = [_duplet_triplet_score(12, 4)]

    unsmoothed = train_grammar(corpus, smoothing=0.0)
    beat_rules = {str(r.body): r for r in unsmoothed.rules_for("D4")}
    assert beat_rules["(D8 D8)"].probability == pytest.approx(0.75, abs=1e-12)
    assert beat_rules["(D12 D12 D12)"].probability == pytest.approx(0.25, abs=1e-12)

    smoothed = train_grammar(corpus, smoothing=1.0)
    rules = smoothed.rules_for("D4")
    counts = {"(D8 D8)": 12, "(D12 D12 D12)": 4}
    for r in rules:
        expected = (counts.get(str(r.body), 0) + 1) / (16 + len(rules))
        assert r.probability == pytest.approx(expected, abs=1e-12)

    for head in smoothed.nonterminals:
        total = sum(r.probability for r in smoothed.rules_for(head))
        assert abs(total - 1.0) <= 1e-9
    _report(9, "3:1 corpus gives 0.75/0.25; add-1 formula exact; heads normalized")


def test_criterion_10_edit_metrics_sanity():
    score = sample_score(default_grammar(), 4, random.Random(19))
    zero = score_edit_metrics(score, score)
    assert zero.total_error_rate == 0.0
    assert (zero.note_insertions, zero.note_deletions) == (0, 0)
    assert (zero.rest_insertions, zero.rest_deletions) == (0, 0)
    assert zero.timesig_mismatches == 0

    # an estimate drowning in spurious rests: rates are per reference note,
    # so they legitimately blow far past 100%
    ref = ScoreModel(SIG, [split(note(60), note(62), rest(), rest())])
    eighth_rests = split(*[split(rest(), rest()) for _ in range(4)])
    est = ScoreModel(SIG, [
        split(split(note(60), rest()), split(note(62), rest()),
              split(note(64), rest()), split(note(65), rest())),
        eighth_rests, eighth_rests,
    ])
    noisy = score_edit_metrics(ref, est)
    assert noisy.rest_deletion_rate > 100.0
    assert noisy.rest_deletion_rate == 1000.0
    _report(10, f"identical scores zero out; noisy estimate hits "
                f"{noisy.rest_deletion_rate:.2f}% rest deletions")


def test_criterion_11_batch_reports_mean_std_max(tmp_path, capsys):
    ref_dir = tmp_path / "ref"
    est_dir = tmp_path / "est"
    ref_dir.mkdir()
    est_dir.mkdir()
    for stem, shift in [("one", 0.0), ("two", 0.02), ("three", 0.2)]:
        notes = [NoteEvent(0.5 * k, 0.4, 60 + k, 80) for k in range(8)]
        (ref_dir / f"{stem}.mid").write_bytes(save_midi(Performance(notes), 120.0))
        shifted = [NoteEvent(n.onset + shift, n.duration, n.pitch, 80) for n in notes]
        (est_dir / f"{stem}.mid").write_bytes(save_midi(Performance(shifted), 120.0))

    assert main(["eval", "notes", str(ref_dir), str(est_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"items", "summary"}
    assert len(payload["items"]) == 3
    for name, stats in payload["summary"].items():
        assert set(stats) == {"mean", "std", "max"}, name
    f_values = [payload["items"][s]["f_measure"] for s in payload["items"]]
    assert payload["summary"]["f_measure"]["max"] == max(f_values)
    assert payload["summary"]["f_measure"]["mean"] == pytest.approx(
        sum(f_values) / 3, abs=1e-4)
    assert payload["summary"]["f_measure"]["std"] > 0
    _report(11, "batch summary carries mean/std/max for every metric")


def test_criterion_12_jittered_round_trip_keeps_onsets_and_pitches():
    # 100 sampled scores of 2-6 bars, rendered at 120 bpm with Gaussian
    # onset and release jitter of sigma = 2, 4 and 8 ms, serialized to MIDI
    # bytes and quantized back.  Per bar, the notes' onsets and pitches must
    # come back, and no bar may fall back to the grid at sigma <= 4 ms.
    # Measured: 372/372 bars at every sigma, no fallback; the 8 ms floor
    # leaves 1% of the bars as margin.
    grammar = default_grammar()
    rng = random.Random(12012)
    scores = []
    while len(scores) < 100:
        score = sample_score(grammar, rng.randint(2, 6), rng)
        if any(leaf.label == NOTE for m in score.measures for leaf, _, _ in m.leaves()):
            scores.append(score)
    bars = sum(len(score.measures) for score in scores)
    assert bars == 372

    def notes_of(tree):
        return [(left, leaf.pitch) for leaf, left, _ in tree.leaves() if leaf.label == NOTE]

    curve = []
    for sigma_ms, floor in ((2, bars), (4, bars), (8, 368)):
        sigma = sigma_ms / 1000
        jitter = random.Random(sigma_ms)
        agree = fallbacks = 0
        for score in scores:
            played = render_performance(score, 120.0)
            played = Performance([
                NoteEvent(max(0.0, n.onset + jitter.gauss(0.0, sigma)),
                          max(0.01, n.duration + jitter.gauss(0.0, sigma)),
                          n.pitch, n.velocity)
                for n in played.notes
            ])
            back = load_midi(save_midi(enforce_monophony(played), 120.0))
            grid = BeatGrid([0.5 * i for i in range(4 * len(score.measures) + 1)], 4)
            rebuilt, warnings = quantize_performance(back, grid, grammar,
                                                     on_error="fallback")
            fallbacks += len(warnings)
            assert len(rebuilt.measures) == len(score.measures)
            agree += sum(notes_of(a) == notes_of(b)
                         for a, b in zip(rebuilt.measures, score.measures))
        assert agree >= floor, (sigma_ms, agree)
        if sigma_ms <= 4:
            assert fallbacks == 0, (sigma_ms, fallbacks)
        curve.append(f"{sigma_ms} ms: {agree}/{bars} bars, {fallbacks} fallbacks")
    _report(12, "; ".join(curve))

