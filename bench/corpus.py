"""Seeded Parker-like solos and the writers that turn them into input files.

A solo is a list of notes with exact onsets and durations in beats (4/4,
a quarter is a beat) plus MIDI pitches.  Its rhythms are built beat by beat
from figures the default grammar writes exactly, so an exact render of a
solo must come back from ``rhythmiq quantize`` note for note.

Nothing here imports ``rhythmiq``: the inputs and the references the
outputs are checked against are made apart from the program under test.
"""
from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from fractions import Fraction as F

BEATS_PER_BAR = 4
TPQ = 960  # MIDI ticks per quarter; divisible by 4 and 6, so figures are exact
XML_DIVISIONS = 12  # MusicXML divisions per quarter, for the same reason
LEAD_IN_BEATS = 1  # silence before the first annotated downbeat
CORPUS_SEED = 20240527
PLAYED_SIGMA = 0.004  # onset jitter of the played takes, seconds
PLAYED_TEMPO_US = 500000  # tempo event of a played take's MIDI file
PLAYED_TPQ = 1920  # at 500000 us per quarter a tick is 0.26 ms

# (name, bars, bpm): one chorus to a long take, over the Omnibook tempo
# range.  Each bpm divides 60e6, so an exact render's tempo event is exact.
CORPUS = (
    ("solo032", 32, 250),
    ("solo064", 64, 100),
    ("solo128", 128, 200),
    ("solo256", 256, 160),
    ("solo512", 512, 300),
)

# A figure fills one beat: (offset in the beat, kind) per slot, each slot
# lasting until the next one.  Kinds: n = new note, t = tie (the sounding
# note goes on), r = rest.  Rests are eighth-or-longer, sixteenths come in
# pairs and triplet cells always sound, as the default grammar writes them.
FIGURES = {
    "quarter": ((F(0), "n"),),
    "rest": ((F(0), "r"),),
    "hold": ((F(0), "t"),),
    "rest-eighth": ((F(0), "r"), (F(1, 2), "n")),
    "hold-eighth": ((F(0), "t"), (F(1, 2), "n")),
    "eighths": ((F(0), "n"), (F(1, 2), "n")),
    "sixteenths": ((F(0), "n"), (F(1, 4), "n"), (F(1, 2), "n"), (F(3, 4), "n")),
    "eighth-sixteenths": ((F(0), "n"), (F(1, 2), "n"), (F(3, 4), "n")),
    "sixteenths-eighth": ((F(0), "n"), (F(1, 4), "n"), (F(1, 2), "n")),
    "rest-sixteenths": ((F(0), "r"), (F(1, 2), "n"), (F(3, 4), "n")),
    "hold-sixteenths": ((F(0), "t"), (F(1, 2), "n"), (F(3, 4), "n")),
    "triplet": ((F(0), "n"), (F(1, 3), "n"), (F(2, 3), "n")),
    "turn": ((F(0), "n"), (F(1, 6), "n"), (F(1, 3), "n"), (F(2, 3), "n")),
    "sextuplet": tuple((F(k, 6), "n") for k in range(6)),
}

# figure weights in dense (running lines) and sparse (held, spaced) phrases
DENSE = {
    "eighths": 5, "sixteenths": 3, "eighth-sixteenths": 2,
    "sixteenths-eighth": 2, "triplet": 2, "turn": 1, "hold-eighth": 1,
    "rest-eighth": 1, "hold-sixteenths": 0.5, "rest-sixteenths": 0.5,
    "quarter": 1, "sextuplet": 0.15,
}
SPARSE = {
    "quarter": 4, "rest": 3, "hold": 3, "rest-eighth": 2, "hold-eighth": 2,
    "eighths": 2, "triplet": 0.5,
}


@dataclass(frozen=True)
class Note:
    onset: F  # beats from the first downbeat
    duration: F  # beats
    pitch: int


@dataclass(frozen=True)
class Solo:
    name: str
    bars: int
    bpm: int
    notes: tuple[Note, ...]

    @property
    def beats(self) -> int:
        return self.bars * BEATS_PER_BAR


def _solo_rng(name: str, *extra) -> random.Random:
    # string seeds are hashed (sha512), which Python keeps stable
    return random.Random(":".join(str(x) for x in (CORPUS_SEED, name) + extra))


def _figure_onsets(figure: str) -> int:
    return sum(kind == "n" for _, kind in FIGURES[figure])


def _pick(rng: random.Random, weights: dict[str, float], sounding: bool) -> str:
    names = [f for f in weights if sounding or FIGURES[f][0][1] != "t"]
    return rng.choices(names, weights=[weights[f] for f in names])[0]


def generate_solo(name: str, bars: int, bpm: int) -> Solo:
    """One seeded solo: phrases of dense or sparse figures between rests.

    The solo opens with a quarter rest, as the grid's first downbeat comes
    before the first note of a take.  A bar is either silent or holds at
    least two onsets: a bar with one onset or none may be written as one
    leaf, which then absorbs a trailing rest.
    """
    rng = _solo_rng(name)
    kinds: list[tuple[F, str]] = []  # (absolute beat, kind) per slot
    sounding = False
    phrase_left = 0
    dense = True
    for bar in range(bars):
        if phrase_left == 0:
            phrase_left = rng.randint(2, 6)
            dense = rng.random() < 0.6
        phrase_left -= 1
        weights = DENSE if dense else SPARSE
        rest_bar = not dense and rng.random() < 0.12
        while True:
            beat_figures, s = [], sounding
            for beat in range(BEATS_PER_BAR):
                if rest_bar or (bar == 0 and beat == 0):
                    fig = "rest"
                elif phrase_left == 0 and beat == BEATS_PER_BAR - 1 and rng.random() < 0.5:
                    fig = "rest"  # breath at the phrase end
                else:
                    fig = _pick(rng, weights, s)
                beat_figures.append(fig)
                s = FIGURES[fig][-1][1] != "r"
            onsets = sum(_figure_onsets(f) for f in beat_figures)
            if rest_bar or onsets >= 2:
                break
        for beat, fig in enumerate(beat_figures):
            start = bar * BEATS_PER_BAR + beat
            kinds += [(start + off, kind) for off, kind in FIGURES[fig]]
        sounding = s

    lo = rng.randint(49, 56)
    hi = lo + rng.randint(22, 28)
    pitch = (lo + hi) // 2
    notes: list[list] = []  # [onset, end, pitch]
    end_of_solo = F(bars * BEATS_PER_BAR)
    for i, (at, kind) in enumerate(kinds):
        until = kinds[i + 1][0] if i + 1 < len(kinds) else end_of_solo
        if kind == "n":
            step = rng.choice((-5, -4, -3, -2, -2, -1, -1, 1, 1, 2, 2, 3, 4, 5))
            pitch += step
            if not lo <= pitch <= hi:
                pitch -= 2 * step
            notes.append([at, until, pitch])
        elif kind == "t":
            notes[-1][1] = until
    return Solo(name, bars, bpm,
                tuple(Note(a, e - a, p) for a, e, p in notes))


def corpus() -> list[Solo]:
    return [generate_solo(name, bars, bpm) for name, bars, bpm in CORPUS]


# ---------------------------------------------------------------------------
# played takes


@dataclass(frozen=True)
class Take:
    """A performance of a solo: seconds, plus the beat times it was played to."""

    beat_times: tuple[float, ...]  # one per beat, first downbeat first, end included
    notes: tuple[tuple[float, float, int], ...]  # (onset, release, pitch)


def _at(beat_times, beat: F) -> float:
    """Seconds at a beat position, linear between annotated beats."""
    i = min(int(beat), len(beat_times) - 2)
    frac = float(beat - i)
    return beat_times[i] + frac * (beat_times[i + 1] - beat_times[i])


def exact_beats(solo: Solo) -> tuple[float, ...]:
    """Beat times of an exact render: whole microseconds at the MIDI tempo,
    so they read back as the very floats ``load_midi`` gives its notes."""
    us = 60_000_000 // solo.bpm
    return tuple((LEAD_IN_BEATS + k) * us / 1e6 for k in range(solo.beats + 1))


def played_take(solo: Solo, sigma: float = PLAYED_SIGMA) -> Take:
    """Beat periods drift around the nominal tempo as in a live take; onsets
    get Gaussian jitter of ``sigma`` and releases jitter of their own."""
    rng = _solo_rng(solo.name, "played", sigma)
    nominal = 60.0 / solo.bpm
    drift = 0.0
    times = [LEAD_IN_BEATS * nominal]
    for _ in range(solo.beats):
        drift = 0.9 * drift + rng.gauss(0.0, 0.01)
        times.append(times[-1] + nominal * (1.0 + drift))
    notes = []
    for n in solo.notes:
        onset = _at(times, n.onset) + rng.gauss(0.0, sigma)
        release = _at(times, n.onset + n.duration) + rng.gauss(0.0, sigma)
        notes.append((onset, max(release, onset + 0.01), n.pitch))
    return Take(tuple(times), tuple(notes))


def performed_order(take: Take) -> list[int]:
    """Indices of the solo's notes in the order the take plays them."""
    return sorted(range(len(take.notes)),
                  key=lambda i: (take.notes[i][0], take.notes[i][2]))


# ---------------------------------------------------------------------------
# writers


def _varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def smf(events: list[tuple[int, int, bytes]], tempo_us: int, tpq: int) -> bytes:
    body = bytearray(_varlen(0) + b"\xff\x51\x03" + tempo_us.to_bytes(3, "big"))
    prev = 0
    for tick, _, msg in sorted(events):
        body += _varlen(tick - prev) + msg
        prev = tick
    body += _varlen(0) + b"\xff\x2f\x00"
    return (b"MThd" + struct.pack(">IHHH", 6, 0, 1, tpq)
            + b"MTrk" + struct.pack(">I", len(body)) + bytes(body))


def note_events(on: int, off: int, pitch: int) -> list[tuple[int, int, bytes]]:
    # note-offs sort before note-ons at the same tick
    return [(on, 1, bytes((0x90, pitch, 80))), (off, 0, bytes((0x80, pitch, 0)))]


def exact_midi(solo: Solo) -> bytes:
    """Format 0 file at the solo's tempo; every tick is exact."""
    events = []
    for n in solo.notes:
        on = int((LEAD_IN_BEATS + n.onset) * TPQ)
        off = int((LEAD_IN_BEATS + n.onset + n.duration) * TPQ)
        events += note_events(on, off, n.pitch)
    return smf(events, 60_000_000 // solo.bpm, TPQ)


def take_midi(take: Take) -> bytes:
    """Format 0 file at a fixed tempo, times rounded to the nearest tick."""
    per_sec = PLAYED_TPQ * 1e6 / PLAYED_TEMPO_US
    events = []
    for onset, release, pitch in take.notes:
        on = round(onset * per_sec)
        events += note_events(on, max(on + 1, round(release * per_sec)), pitch)
    return smf(events, PLAYED_TEMPO_US, PLAYED_TPQ)


def beats_csv(beat_times) -> str:
    """Beat annotation CSV; times keep all their digits."""
    lines = ["# time_sec,beat_in_bar"]
    for k, t in enumerate(beat_times):
        lines.append(f"{t!r},{k % BEATS_PER_BAR + 1}")
    return "\n".join(lines) + "\n"


_SPELLING = (("C", 0), ("C", 1), ("D", 0), ("D", 1), ("E", 0), ("F", 0),
             ("F", 1), ("G", 0), ("G", 1), ("A", 0), ("A", 1), ("B", 0))


def musicxml(notes, bars: int, bpm: int) -> str:
    """Single-part MusicXML: full bars, notes tied over barlines, gaps as
    rests.  Durations are written as they sound; <type> is left out."""
    bar_len = F(BEATS_PER_BAR)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<score-partwise version="3.1">',
        '  <part-list><score-part id="P1"><part-name>Solo</part-name>'
        "</score-part></part-list>",
        '  <part id="P1">',
    ]
    ordered = sorted(notes, key=lambda n: n.onset)
    i = 0
    carry = None  # (end, pitch) of a note tied into this bar
    for bar in range(bars):
        lo, hi = bar * bar_len, (bar + 1) * bar_len
        lines.append(f'    <measure number="{bar + 1}">')
        if bar == 0:
            lines.append(
                f"      <attributes><divisions>{XML_DIVISIONS}</divisions>"
                "<key><fifths>0</fifths></key>"
                f"<time><beats>{BEATS_PER_BAR}</beats><beat-type>4</beat-type></time>"
                "<clef><sign>G</sign><line>2</line></clef></attributes>")
            lines.append(f'      <direction><direction-type><words>q = {bpm}</words>'
                         f'</direction-type><sound tempo="{bpm}"/></direction>')
        cursor = lo
        pieces = []  # (start, end, pitch or None, tie_stop, tie_start)
        if carry is not None:
            end, pitch = carry
            pieces.append((lo, min(end, hi), pitch, True, end > hi))
            cursor = min(end, hi)
            carry = (end, pitch) if end > hi else None
        while i < len(ordered) and ordered[i].onset < hi:
            n = ordered[i]
            if n.onset > cursor:
                pieces.append((cursor, n.onset, None, False, False))
            end = n.onset + n.duration
            pieces.append((n.onset, min(end, hi), n.pitch, False, end > hi))
            if end > hi:
                carry = (end, n.pitch)
            cursor = min(end, hi)
            i += 1
        if cursor < hi:
            pieces.append((cursor, hi, None, False, False))
        for start, end, pitch, stop, begin in pieces:
            dur = (end - start) * XML_DIVISIONS
            if pitch is None:
                lines.append(f"      <note><rest/><duration>{dur}</duration></note>")
                continue
            step, alter = _SPELLING[pitch % 12]
            alter_el = f"<alter>{alter}</alter>" if alter else ""
            ties = ('<tie type="stop"/>' if stop else "") + ('<tie type="start"/>' if begin else "")
            tied = ('<tied type="stop"/>' if stop else "") + ('<tied type="start"/>' if begin else "")
            notations = f"<notations>{tied}</notations>" if tied else ""
            lines.append(
                f"      <note><pitch><step>{step}</step>{alter_el}"
                f"<octave>{pitch // 12 - 1}</octave></pitch>"
                f"<duration>{dur}</duration>{ties}{notations}</note>")
        lines.append("    </measure>")
    lines += ["  </part>", "</score-partwise>", ""]
    return "\n".join(lines)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
