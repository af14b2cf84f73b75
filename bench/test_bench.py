"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import re
import struct
from fractions import Fraction as F

import pytest

import checks
import corpus
import edits
import run
from corpus import FIGURES, Note, Solo
from reader import ReadError, read_musicxml


def _figure_solo(figure: str) -> Solo:
    """Two bars: a quarter note (so holds have something to hold), then the
    figure on every remaining beat."""
    kinds = [(F(0), "n")]
    for beat in range(1, 8):
        kinds += [(beat + off, kind) for off, kind in FIGURES[figure]]
    notes, pitch = [], 60
    for i, (at, kind) in enumerate(kinds):
        until = kinds[i + 1][0] if i + 1 < len(kinds) else F(8)
        if kind == "n":
            pitch = 60 + (7 * len(notes)) % 12
            notes.append([at, until, pitch])
        elif kind == "t":
            notes[-1][1] = until
    return Solo(figure, 2, 120, tuple(Note(a, e - a, p) for a, e, p in notes))


def _midi_notes(data: bytes) -> list[tuple[int, int, int]]:
    """(on tick, off tick, pitch) from a format 0 file as the writers make it."""
    assert data[:4] == b"MThd" and data[14:18] == b"MTrk"
    (length,) = struct.unpack(">I", data[18:22])
    body, pos, tick, open_notes, notes = data[22:22 + length], 0, 0, {}, []
    while pos < len(body):
        delta = 0
        while True:
            byte = body[pos]
            pos += 1
            delta = (delta << 7) | (byte & 0x7F)
            if not byte & 0x80:
                break
        tick += delta
        status = body[pos]
        if status == 0xFF:
            pos += 3 + body[pos + 2]
        elif status & 0xF0 == 0x90:
            open_notes[body[pos + 1]] = tick
            pos += 3
        else:
            pitch = body[pos + 1]
            notes.append((open_notes.pop(pitch), tick, pitch))
            pos += 3
    return sorted(notes)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_round_trips_through_writers_and_reader(figure):
    solo = _figure_solo(figure)
    read = read_musicxml(corpus.musicxml(solo.notes, solo.bars, solo.bpm))
    assert read.measures == solo.bars
    assert read.notes == solo.notes
    ticks = [(int((1 + n.onset) * corpus.TPQ), int((1 + n.onset + n.duration) * corpus.TPQ),
              n.pitch) for n in solo.notes]
    assert _midi_notes(corpus.exact_midi(solo)) == ticks


def test_corpus_covers_lengths_tempos_and_figures():
    solos = corpus.corpus()
    assert [s.bars for s in solos] == [32, 64, 128, 256, 512]
    assert min(s.bpm for s in solos) <= 120 and max(s.bpm for s in solos) >= 250
    for s in solos:
        assert read_musicxml(corpus.musicxml(s.notes, s.bars, s.bpm)).notes == s.notes
    offsets = {n.onset % 1 for s in solos for n in s.notes}
    assert {F(1, 4), F(1, 3), F(1, 6)} <= offsets  # sixteenths, triplets, turns


def test_same_seed_same_bytes_and_digests_match_readme():
    solos = corpus.corpus()
    digests = run.read_digests()
    for workload in run.WORKLOADS:
        first, _ = run.build_inputs(workload, solos)
        again, _ = run.build_inputs(workload, corpus.corpus())
        assert first == again
        assert {p: corpus.sha256(d) for p, d in first.items()} == {
            p: digests[p] for p in first}


def test_another_corpus_seed_gives_other_bytes(monkeypatch):
    before = corpus.exact_midi(corpus.corpus()[0])
    monkeypatch.setattr(corpus, "CORPUS_SEED", corpus.CORPUS_SEED + 1)
    assert corpus.exact_midi(corpus.corpus()[0]) != before


def _moved_by_sixteenth(solo: Solo) -> tuple[Note, ...]:
    notes = list(solo.notes)
    for i in range(1, len(notes)):
        prev, n = notes[i - 1], notes[i]
        if prev.onset + prev.duration == n.onset and n.duration > F(1, 4):
            notes[i - 1] = Note(prev.onset, prev.duration + F(1, 4), prev.pitch)
            notes[i] = Note(n.onset + F(1, 4), n.duration - F(1, 4), n.pitch)
            return tuple(notes)
    raise AssertionError("no note to move")


def _edited(solo: Solo, kind: str) -> tuple[Note, ...]:
    notes = list(solo.notes)
    assert any(edits._try_edit(kind, notes, bar) for bar in range(solo.bars))
    return tuple(notes)


def _bar_short_by_sixteenth(xml: str) -> str:
    sixteenth = corpus.XML_DIVISIONS // 4
    match = next(m for m in re.finditer(r"<duration>(\d+)</duration>", xml)
                 if int(m.group(1)) > sixteenth)
    return xml[:match.start(1)] + str(int(match.group(1)) - sixteenth) + xml[match.end(1):]


@pytest.fixture(scope="module")
def solo():
    return corpus.corpus()[0]


def test_checks_pass_a_correct_output(solo):
    xml = corpus.musicxml(solo.notes, solo.bars, solo.bpm)
    assert checks.check_exact(xml, solo) == ([], solo.bars)
    order = list(range(len(solo.notes)))
    assert checks.check_played(xml, solo, order, set()) == ([], [], solo.bars)


@pytest.mark.parametrize("error", ["moved", "dropped", "pitch", "short"])
def test_exact_check_rejects_planted_error(solo, error):
    notes = {"moved": lambda: _moved_by_sixteenth(solo),
             "dropped": lambda: _edited(solo, "drop"),
             "pitch": lambda: _edited(solo, "pitch"),
             "short": lambda: solo.notes}[error]()
    xml = corpus.musicxml(notes, solo.bars, solo.bpm)
    if error == "short":
        xml = _bar_short_by_sixteenth(xml)
    problems, exact = checks.check_exact(xml, solo)
    assert problems and exact < solo.bars


@pytest.mark.parametrize("error", ["dropped", "pitch", "short"])
def test_played_check_rejects_planted_error(solo, error):
    notes = solo.notes if error == "short" else _edited(
        solo, {"dropped": "drop", "pitch": "pitch"}[error])
    xml = corpus.musicxml(notes, solo.bars, solo.bpm)
    if error == "short":
        xml = _bar_short_by_sixteenth(xml)
    problems, known, _ = checks.check_played(xml, solo, list(range(len(solo.notes))), set())
    assert problems and not known


def test_played_check_moved_onset_costs_an_exact_bar(solo):
    xml = corpus.musicxml(_moved_by_sixteenth(solo), solo.bars, solo.bpm)
    problems, _, exact = checks.check_played(xml, solo, list(range(len(solo.notes))), set())
    assert not problems and exact == solo.bars - 1


def test_played_check_names_a_loss_inside_a_fallback_bar_known(solo):
    notes = _edited(solo, "drop")
    bar = next(int(a.onset // 4) for a, b in zip(solo.notes, notes) if a != b)
    xml = corpus.musicxml(notes, solo.bars, solo.bpm)
    order = list(range(len(solo.notes)))
    problems, known, _ = checks.check_played(xml, solo, order, {bar - 1, bar})
    assert known and not problems


def test_count_check_rejects_an_off_by_one():
    expected = {"a": {"matched": 5, "n_ref": 6, "n_est": 7}}
    good = {"items": {"a": {"matched": 5, "n_ref": 6, "n_est": 7, "f_measure": 1.0}}}
    assert checks.check_counts(good, expected) == []
    bad = {"items": {"a": {"matched": 4, "n_ref": 6, "n_est": 7}}}
    assert checks.check_counts(bad, expected)
    assert checks.check_counts({"items": {}}, expected)


def test_reader_rejects_malformed_output():
    with pytest.raises(ReadError):
        read_musicxml("<score-partwise><part>")
