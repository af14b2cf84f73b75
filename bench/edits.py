"""Seeded estimates for the grade workload, with the counts they must score.

Each estimate is its reference with errors planted far apart (one every
``EDIT_SPACING`` bars), of kinds whose effect on ``rhythmiq eval score`` and
``rhythmiq eval notes`` is known from how they were built:

- pitch: a note changes pitch: one note insertion and one deletion;
- drop: a note is dropped and the note before it held on: one insertion;
- split: a note held a beat or more is split at its first eighth, the
  second half on a new pitch: one deletion;
- fill: a quarter rest between two sounding beats is filled by holding the
  note before it: one rest insertion;
- open: the last beat of a note held over more than a beat becomes a
  quarter rest before the next onset: one rest deletion;
- an extra bar of rest at the end: one time-signature mismatch and one
  rest deletion.

Insertions are reference events the estimate lacks, deletions estimate
events the reference lacks, as ``score_edit_metrics`` defines them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

from corpus import BEATS_PER_BAR, LEAD_IN_BEATS, TPQ, Note, Solo, note_events, smf

EDIT_SPACING = 8
KINDS = ("pitch", "drop", "split", "fill", "open")
NOTE_EDIT_PERIOD = 50  # eval notes: one edit of each kind per 50 notes
OUT_OF_RANGE_PITCH = 100  # above every solo's range, so it matches nothing


@dataclass(frozen=True)
class ScoreEstimate:
    notes: tuple[Note, ...]
    bars: int
    expected: dict[str, int]  # the counts eval score must print


def _try_edit(kind: str, notes: list[Note], bar: int) -> bool:
    """Plant one edit of ``kind`` in ``bar``; False when no note there fits."""
    lo, hi = bar * BEATS_PER_BAR, (bar + 1) * BEATS_PER_BAR
    for i, n in enumerate(notes):
        if not lo <= n.onset < hi:
            continue
        end = n.onset + n.duration
        nxt = notes[i + 1].onset if i + 1 < len(notes) else None
        if kind == "pitch":
            notes[i] = Note(n.onset, n.duration, n.pitch + 1)
            return True
        if kind == "drop" and i > 0 and notes[i - 1].onset + notes[i - 1].duration == n.onset:
            prev = notes[i - 1]
            notes[i - 1] = Note(prev.onset, end - prev.onset, prev.pitch)
            del notes[i]
            return True
        if kind == "split" and n.onset.denominator == 1 and n.duration >= 1:
            half = F(1, 2)
            notes[i:i + 1] = [Note(n.onset, half, n.pitch),
                              Note(n.onset + half, n.duration - half, n.pitch + 2)]
            return True
        if (kind == "fill" and end.denominator == 1 and end + 1 <= hi
                and nxt == end + 1):
            notes[i] = Note(n.onset, n.duration + 1, n.pitch)
            return True
        if (kind == "open" and end.denominator == 1 and end <= hi
                and n.onset < end - 1 and nxt == end):
            notes[i] = Note(n.onset, n.duration - 1, n.pitch)
            return True
    return False


def score_estimate(solo: Solo, index: int) -> ScoreEstimate:
    """The estimate of a reference score; every other solo gets an extra bar."""
    notes = list(solo.notes)
    planted = {kind: 0 for kind in KINDS}
    k = index  # rotate which kind each solo starts with
    for bar in range(EDIT_SPACING // 2, solo.bars - 1, EDIT_SPACING):
        for attempt in range(len(KINDS)):
            kind = KINDS[(k + attempt) % len(KINDS)]
            if _try_edit(kind, notes, bar):
                planted[kind] += 1
                k = (k + attempt + 1) % len(KINDS)
                break
    extra = index % 2
    expected = {
        "note_insertions": planted["pitch"] + planted["drop"],
        "note_deletions": planted["pitch"] + planted["split"],
        "rest_insertions": planted["fill"],
        "rest_deletions": planted["open"] + extra,
        "timesig_mismatches": extra,
        "n_ref_notes": len(solo.notes),
    }
    return ScoreEstimate(tuple(notes), solo.bars + extra, expected)


@dataclass(frozen=True)
class NotesEstimate:
    midi: bytes
    expected: dict[str, int]  # the counts eval notes must print


def notes_estimate(solo: Solo, tolerance: float = 0.05) -> NotesEstimate:
    """Drop, re-pitch, shift by half a beat, and add one note per period.

    A shift is kept only where no reference note of the same pitch lies
    within twice the matching tolerance of the new onset; re-pitched and
    added notes take pitches above the solo's range.  So every planted
    edit costs exactly one match.
    """
    sec_per_beat = 60 / solo.bpm
    by_pitch: dict[int, list[F]] = {}
    for n in solo.notes:
        by_pitch.setdefault(n.pitch, []).append(n.onset)
    events = []
    dropped = repitched = shifted = added = 0

    def add(onset: F, duration: F, pitch: int) -> None:
        on = int((LEAD_IN_BEATS + onset) * TPQ)
        events.extend(note_events(on, on + int(duration * TPQ), pitch))

    for i, n in enumerate(solo.notes):
        phase = i % NOTE_EDIT_PERIOD
        if phase == 7:
            dropped += 1
            continue
        if phase == 23:
            repitched += 1
            add(n.onset, n.duration, OUT_OF_RANGE_PITCH + i % 20)
            continue
        if phase == 41:
            at = n.onset + F(1, 2)
            if all(abs(float(at - o)) * sec_per_beat > 2 * tolerance
                   for o in by_pitch[n.pitch]):
                shifted += 1
                add(at, n.duration, n.pitch)
                continue
        if phase == 13:
            added += 1
            add(n.onset + n.duration / 2, n.duration / 2, OUT_OF_RANGE_PITCH + 20)
            add(n.onset, n.duration / 2, n.pitch)
            continue
        add(n.onset, n.duration, n.pitch)
    expected = {
        "matched": len(solo.notes) - dropped - repitched - shifted,
        "n_ref": len(solo.notes),
        "n_est": len(solo.notes) - dropped + added,
    }
    return NotesEstimate(smf(events, 60_000_000 // solo.bpm, TPQ), expected)
