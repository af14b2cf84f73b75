"""MusicXML emission and parsing for monophonic scores.

Output is byte-deterministic: fixed element order, no encoding dates, fixed
number formatting.  Parsing accepts single-part partwise files and rejects
polyphony (chords, backup) rather than guessing.
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

from .core import TimeSignature
from .errors import FormatError, UnsupportedContentError, ValidationError
from .trees import (
    NOTE,
    REST,
    NotatedEvent,
    ScoreModel,
    decompose_measure,
    slice_measure,
)

_NATURAL_PC = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_STEP_ORDER = {s: i for i, s in enumerate("CDEFGAB")}
_SHARP_ORDER = "FCGDAEB"
_FLAT_ORDER = "BEADGCF"

_TYPE_NAMES = {
    Fraction(2): "breve",
    Fraction(1): "whole",
    Fraction(1, 2): "half",
    Fraction(1, 4): "quarter",
    Fraction(1, 8): "eighth",
    Fraction(1, 16): "16th",
    Fraction(1, 32): "32nd",
    Fraction(1, 64): "64th",
    Fraction(1, 128): "128th",
}


@dataclass(frozen=True)
class SpelledPitch:
    step: str
    alter: int
    octave: int

    def __str__(self) -> str:
        acc = {-2: "bb", -1: "b", 0: "", 1: "#", 2: "##"}[self.alter]
        return f"{self.step}{acc}{self.octave}"

    @property
    def midi(self) -> int:
        return _NATURAL_PC[self.step] + self.alter + 12 * (self.octave + 1)


def _key_alters(fifths: int) -> dict[str, int]:
    if fifths >= 0:
        return {s: 1 for s in _SHARP_ORDER[:fifths]}
    return {s: -1 for s in _FLAT_ORDER[:-fifths]}


def spell_pitch(midi: int, fifths: int = 0) -> SpelledPitch:
    """Spell a MIDI pitch for a key signature.

    Diatonic notes use the key's own spelling; chromatic notes take a sharp
    in sharp-side keys and a flat in flat-side keys.
    """
    if not 0 <= midi <= 127:
        raise ValidationError(f"pitch {midi} outside 0..127")
    if not -7 <= fifths <= 7:
        raise ValidationError(f"fifths {fifths} outside -7..7")
    alters = _key_alters(fifths)
    pc = midi % 12
    prefer = 1 if fifths >= 0 else -1

    best = None
    for step, nat in _NATURAL_PC.items():
        alter = (pc - nat) % 12
        if alter > 6:
            alter -= 12
        if abs(alter) > 2:
            continue
        if alter == alters.get(step, 0):
            tier = 0  # the key's own spelling of this class
        elif alter == prefer and alters.get(step, 0) == 0:
            tier = 1
        elif alter == 0:
            tier = 2
        else:
            tier = 3
        rank = (tier, abs(alter), _STEP_ORDER[step])
        if best is None or rank < best[0]:
            best = (rank, step, alter)

    _, step, alter = best
    octave = (midi - alter) // 12 - 1
    return SpelledPitch(step, alter, octave)


def _dots_and_type(notated: Fraction) -> tuple[str, int]:
    if notated.numerator == 1:
        base, dots = notated, 0
    elif notated.numerator == 3:
        base, dots = notated * Fraction(2, 3), 1
    elif notated.numerator == 7:
        base, dots = notated * Fraction(4, 7), 2
    else:
        raise ValidationError(f"duration {notated} is not notatable")
    try:
        return _TYPE_NAMES[base], dots
    except KeyError:
        raise ValidationError(f"duration {notated} has no note type")


def _escape(text: str) -> str:
    """Escape character data for an XML element."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _format_bpm(bpm: float) -> str:
    if bpm == int(bpm):
        return str(int(bpm))
    return f"{bpm:.2f}"


def emit_musicxml(
    score: ScoreModel,
    part_name: str = "Part 1",
    fifths: int = 0,
    title: str | None = None,
) -> str:
    """Serialize a score as single-part MusicXML (partwise, version 3.1)."""
    sig = score.time_signature
    quarters_per_measure = Fraction(sig.numerator * 4, sig.denominator)
    measures = score.notated_measures()

    divisions = 1
    for events in measures:
        for ev in events:
            divisions = math.lcm(divisions, (ev.duration * quarters_per_measure).denominator)

    pickup = score.anacrusis_beats > 0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<!DOCTYPE score-partwise PUBLIC "-//Recordare//DTD MusicXML 3.1 '
        'Partwise//EN" "http://www.musicxml.org/dtds/partwise.dtd">',
        '<score-partwise version="3.1">',
    ]
    if title:
        lines += ["  <work>", f"    <work-title>{_escape(title)}</work-title>", "  </work>"]
    lines += [
        "  <part-list>",
        '    <score-part id="P1">',
        f"      <part-name>{_escape(part_name)}</part-name>",
        "    </score-part>",
        "  </part-list>",
        '  <part id="P1">',
    ]

    beat_unit = _TYPE_NAMES[Fraction(1, sig.denominator)]
    quarter_bpm = score.tempo_marking * 4 / sig.denominator

    for i, events in enumerate(measures):
        number = i if pickup else i + 1
        attrs = f'number="{number}"'
        if pickup and i == 0:
            attrs += ' implicit="yes"'
            while events and events[0].kind == REST:
                events = events[1:]
        lines.append(f"    <measure {attrs}>")

        if i == 0:
            lines += [
                "      <attributes>",
                f"        <divisions>{divisions}</divisions>",
                f"        <key><fifths>{fifths}</fifths></key>",
                f"        <time><beats>{sig.numerator}</beats>"
                f"<beat-type>{sig.denominator}</beat-type></time>",
                "        <clef><sign>G</sign><line>2</line></clef>",
                "      </attributes>",
                "      <direction placement=\"above\">",
                "        <direction-type>",
                f"          <metronome><beat-unit>{beat_unit}</beat-unit>"
                f"<per-minute>{_format_bpm(score.tempo_marking)}</per-minute></metronome>",
                "        </direction-type>",
                f"        <sound tempo=\"{_format_bpm(quarter_bpm)}\"/>",
                "      </direction>",
            ]

        whole_rest = (
            len(events) == 1
            and events[0].kind == REST
            and events[0].duration == 1
            and not (pickup and i == 0)
        )
        group_edges = _tuplet_edges(events)
        for j, ev in enumerate(events):
            lines += _note_xml(
                ev, j, quarters_per_measure, divisions, fifths,
                whole_rest, group_edges,
            )
        lines.append("    </measure>")

    lines += ["  </part>", "</score-partwise>", ""]
    return "\n".join(lines)


def _tuplet_edges(events: list[NotatedEvent]) -> dict[int, tuple[int, int]]:
    """Map tuplet group id to (first, last) event index."""
    edges: dict[int, tuple[int, int]] = {}
    for j, ev in enumerate(events):
        if ev.tuplet_group is None:
            continue
        if ev.tuplet_group not in edges:
            edges[ev.tuplet_group] = (j, j)
        else:
            first, _ = edges[ev.tuplet_group]
            edges[ev.tuplet_group] = (first, j)
    return edges


def _note_xml(
    ev: NotatedEvent,
    index: int,
    quarters_per_measure: Fraction,
    divisions: int,
    fifths: int,
    whole_rest: bool,
    group_edges: dict[int, tuple[int, int]],
) -> list[str]:
    duration = ev.duration * quarters_per_measure * divisions
    if duration.denominator != 1:
        raise ValidationError(f"duration {ev.duration} not integral at {divisions}")
    out = ["      <note>"]
    if ev.kind == REST:
        out.append('        <rest measure="yes"/>' if whole_rest else "        <rest/>")
    else:
        sp = spell_pitch(ev.pitch, fifths)
        out.append("        <pitch>")
        out.append(f"          <step>{sp.step}</step>")
        if sp.alter:
            out.append(f"          <alter>{sp.alter}</alter>")
        out.append(f"          <octave>{sp.octave}</octave>")
        out.append("        </pitch>")
    out.append(f"        <duration>{duration.numerator}</duration>")
    if ev.kind == NOTE:
        if ev.tie_from:
            out.append('        <tie type="stop"/>')
        if ev.tie_to:
            out.append('        <tie type="start"/>')
    if not whole_rest:
        type_name, dots = _dots_and_type(ev.notated)
        out.append(f"        <type>{type_name}</type>")
        out += ["        <dot/>"] * dots
    if ev.timemod is not None:
        actual, normal = ev.timemod
        out.append(
            f"        <time-modification><actual-notes>{actual}</actual-notes>"
            f"<normal-notes>{normal}</normal-notes></time-modification>"
        )
    notations = []
    if ev.kind == NOTE and ev.tie_from:
        notations.append('<tied type="stop"/>')
    if ev.kind == NOTE and ev.tie_to:
        notations.append('<tied type="start"/>')
    if ev.tuplet_group is not None:
        first, last = group_edges[ev.tuplet_group]
        if index == first:
            notations.append('<tuplet type="start" number="1"/>')
        if index == last:
            notations.append('<tuplet type="stop" number="1"/>')
    if notations:
        out.append("        <notations>" + "".join(notations) + "</notations>")
    out.append("      </note>")
    return out


# ---------------------------------------------------------------------------
# parsing

def _integer(text: str | None, where: str, what: str, positive: bool = False) -> int:
    """Read an integer element text; malformed input raises FormatError."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise FormatError(f"{where}{what} must be an integer, got {text!r}")
    if positive and value <= 0:
        raise FormatError(f"{where}{what} must be a positive integer, got {text!r}")
    return value


def parse_musicxml(text: str, max_depth: int = 10) -> tuple[ScoreModel, list[str]]:
    """Parse single-part partwise MusicXML back into a score.

    Chords and backup (second voices) raise UnsupportedContentError; grace
    notes are skipped with a warning.  Measures are re-quantized onto the
    canonical tree form, so parse(emit(s)) == s for canonical scores.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FormatError(f"not well-formed XML: {exc}")
    if root.tag != "score-partwise":
        raise UnsupportedContentError(f"unsupported root element {root.tag!r}")
    parts = root.findall("part")
    if not parts:
        raise FormatError("no <part> element")
    if len(parts) > 1:
        raise UnsupportedContentError(f"{len(parts)} parts; only one is supported")

    warnings: list[str] = []
    divisions = None
    sig = None
    fifths = 0
    tempo_marking = None

    # (global onset in measure units, extent, pitch, tie_start_open)
    events: list[list] = []
    measure_contents: list[Fraction] = []

    part = parts[0]
    measure_elems = part.findall("measure")
    if not measure_elems:
        raise FormatError("part has no measures")

    for m_index, measure in enumerate(measure_elems):
        where = f"measure {m_index + 1}: "
        attributes = measure.find("attributes")
        if attributes is not None:
            d = attributes.findtext("divisions")
            if d is not None:
                divisions = _integer(d, where, "divisions", positive=True)
            t = attributes.find("time")
            if t is not None:
                sig = TimeSignature(
                    _integer(t.findtext("beats"), where, "time beats"),
                    _integer(t.findtext("beat-type"), where, "time beat-type"),
                )
            k = attributes.find("key")
            if k is not None and k.findtext("fifths") is not None:
                fifths = _integer(k.findtext("fifths"), where, "key fifths")
        if sig is None:
            sig = TimeSignature(4, 4)
            warnings.append("no time signature; assuming 4/4")
        if divisions is None:
            divisions = 1
            warnings.append("no divisions declared; assuming 1")

        sound = measure.find(".//sound[@tempo]")
        if sound is not None and tempo_marking is None:
            tempo_text = sound.get("tempo")
            try:
                tempo = float(tempo_text)
            except ValueError:
                tempo = math.nan
            if not (math.isfinite(tempo) and tempo > 0):
                raise FormatError(
                    f"{where}sound tempo must be a positive number, got {tempo_text!r}")
            tempo_marking = tempo * sig.denominator / 4

        quarters_per_measure = Fraction(sig.numerator * 4, sig.denominator)
        cursor = Fraction(0)  # in quarters
        for elem in measure:
            if elem.tag == "backup":
                raise UnsupportedContentError("backup element (multiple voices)")
            if elem.tag == "forward":
                cursor += Fraction(
                    _integer(elem.findtext("duration"), where, "forward duration",
                             positive=True),
                    divisions,
                )
                continue
            if elem.tag != "note":
                continue
            if elem.find("chord") is not None:
                raise UnsupportedContentError("chord (polyphony)")
            if elem.find("grace") is not None:
                warnings.append(f"{where}grace note skipped")
                continue
            dur = Fraction(
                _integer(elem.findtext("duration"), where, "note duration",
                         positive=True),
                divisions,
            )
            if elem.find("rest") is not None:
                cursor += dur
                continue
            pitch_el = elem.find("pitch")
            if pitch_el is None:
                raise FormatError("note without pitch or rest")
            step = pitch_el.findtext("step")
            if step not in _NATURAL_PC:
                raise FormatError(f"{where}pitch step must be one of A-G, got {step!r}")
            alter = _integer(pitch_el.findtext("alter") or "0", where, "pitch alter")
            octave = _integer(pitch_el.findtext("octave"), where, "pitch octave")
            midi = _NATURAL_PC[step] + alter + 12 * (octave + 1)
            if not 0 <= midi <= 127:
                raise ValidationError(f"pitch {step}{alter}/{octave} out of range")

            tie_stop = any(
                t.get("type") == "stop" for t in elem.findall("tie")
            )
            tie_start = any(
                t.get("type") == "start" for t in elem.findall("tie")
            )
            onset_u = m_index + cursor / quarters_per_measure
            extent_u = m_index + (cursor + dur) / quarters_per_measure
            if (
                tie_stop
                and events
                and events[-1][3]
                and events[-1][2] == midi
                and abs(events[-1][1] - onset_u) < Fraction(1, 10**9)
            ):
                events[-1][1] = extent_u
                events[-1][3] = tie_start
            else:
                if tie_stop:
                    warnings.append(
                        f"{where}dangling tie stop treated as onset"
                    )
                events.append([onset_u, extent_u, midi, tie_start])
            cursor += dur
        measure_contents.append(cursor)

    n = len(measure_elems)
    quarters_per_measure = Fraction(sig.numerator * 4, sig.denominator)
    anacrusis = Fraction(0)
    for m_index, content in enumerate(measure_contents):
        if content > quarters_per_measure:
            raise ValidationError(
                f"measure {m_index + 1} holds {content} quarters, "
                f"more than {quarters_per_measure}"
            )
        if content < quarters_per_measure:
            if m_index == 0 and n > 1:
                gap = (quarters_per_measure - content) / quarters_per_measure
                anacrusis = content / quarters_per_measure * sig.numerator
                for ev in events:
                    if ev[0] < 1:
                        ev[0] += gap
                        ev[1] += gap
            elif m_index != n - 1:
                raise ValidationError(
                    f"measure {m_index + 1} holds {content} quarters, "
                    f"fewer than {quarters_per_measure}"
                )

    notes = [(onset, extent, pitch) for onset, extent, pitch, _ in events]
    measures = []
    for m in range(n):
        onsets, extents, carried_pitch, carried_end = slice_measure(notes, m)
        measures.append(
            decompose_measure(
                onsets, extents, sig, max_depth=max_depth,
                carried_pitch=carried_pitch, carried_end=carried_end,
            )
        )

    score = ScoreModel(
        sig, measures,
        tempo_marking=tempo_marking if tempo_marking is not None else 120.0,
        anacrusis_beats=anacrusis,
    )
    return score, warnings
