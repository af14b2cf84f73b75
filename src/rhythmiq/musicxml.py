"""MusicXML emission and parsing for monophonic scores.

Output is byte-deterministic: fixed element order, no encoding dates, fixed
number formatting.  Parsing accepts single-part partwise files and rejects
polyphony (chords, backup) rather than guessing.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm

from .core import Record, TimeSignature
from .errors import FormatError, UnsupportedContentError, ValidationError
from .trees import ScoreModel, decompose_measure, slice_measure

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


class SpelledPitch(Record):
    __slots__ = ("step", "alter", "octave")

    def __init__(self, step: str, alter: int, octave: int):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "alter", alter)
        object.__setattr__(self, "octave", octave)

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
    """Serialize a score as single-part MusicXML (partwise, version 3.1).

    Durations are integer divisions: a piece of ``duration / den`` of the
    measure lasts ``duration * 4 * beats / (den * beat_type)`` quarters,
    and <divisions> is the LCM of those denominators.  A pickup prints
    exactly its ``anacrusis_beats``: a note before them, or a rest across
    their start, raises ValidationError, as does a tempo that overflows.
    """
    sig = score.time_signature
    measures = score.notated_measures()
    scale_num, scale_den = 4 * sig.numerator, sig.denominator
    divisions = lcm(*(
        den * scale_den // gcd(duration * scale_num, den * scale_den)
        for pieces in measures for _, _, _, duration, den, _, _, _ in pieces
    ))

    pickup = score.anacrusis_beats > 0
    lead = sig.numerator - score.anacrusis_beats  # beats of measure 0 before the pickup
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
    if math.isinf(quarter_bpm):
        raise ValidationError(f"tempo {score.tempo_marking} overflows in quarters per minute")
    # the printed pitch of each MIDI pitch and the <type>/<dot> lines of each
    # notated value, worked out once per call
    pitches: dict[int, str] = {}
    types: dict[tuple[int, int], str] = {}

    for i, pieces in enumerate(measures):
        # a note is tied on when the piece after it, here or in the next
        # measure, is tied from it (only a note's piece is followed by one)
        following = measures[i + 1][0] if i + 1 < len(measures) else None
        number = i if pickup else i + 1
        attrs = f'number="{number}"'
        if pickup and i == 0:
            attrs += ' implicit="yes"'
            # print exactly the pickup: drop the rests that end where it starts
            while pieces[0][2] * sig.numerator < lead * pieces[0][4]:
                midi, _, onset, duration, den = pieces[0][:5]
                if midi is not None or (onset + duration) * sig.numerator > lead * den:
                    raise ValidationError(f"the pickup of {score.anacrusis_beats} beats "
                                          "starts after a note or inside a rest")
                pieces = pieces[1:]
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

        # a lone rest filling the measure
        whole_rest = (
            len(pieces) == 1
            and pieces[0][0] is None
            and pieces[0][3] == pieces[0][4]
            and not (pickup and i == 0)
        )
        group_edges = _tuplet_edges(pieces)
        for j, piece in enumerate(pieces):
            after = pieces[j + 1] if j + 1 < len(pieces) else following
            tie_to = after is not None and after[1]
            duration = piece[3] * scale_num * divisions // (piece[4] * scale_den)
            lines.append(_note_xml(
                piece, j, duration, fifths, whole_rest, tie_to, group_edges,
                pitches, types,
            ))
        lines.append("    </measure>")

    lines += ["  </part>", "</score-partwise>", ""]
    return "\n".join(lines)


def _tuplet_edges(pieces) -> dict[int, tuple[int, int]]:
    """Map tuplet group id to (first, last) piece index."""
    edges: dict[int, tuple[int, int]] = {}
    for j, piece in enumerate(pieces):
        group = piece[7]
        if group is not None:
            edges[group] = (edges.get(group, (j,))[0], j)
    return edges


def _note_xml(
    piece,
    index: int,
    duration: int,
    fifths: int,
    whole_rest: bool,
    tie_to: bool,
    group_edges: dict[int, tuple[int, int]],
    pitches: dict[int, str],
    types: dict[tuple[int, int], str],
) -> str:
    """One <note> element of a printed piece (see ``_Notator.pieces``), its
    lines joined without a final newline; ``pitches`` and ``types`` cache
    the pitch and <type>/<dot> lines across calls."""
    midi, tie_from, _, _, _, notated, timemod, group = piece
    out = ["      <note>"]
    if midi is None:
        out.append('        <rest measure="yes"/>' if whole_rest else "        <rest/>")
    else:
        pitch = pitches.get(midi)
        if pitch is None:
            sp = spell_pitch(midi, fifths)
            alter = f"\n          <alter>{sp.alter}</alter>" if sp.alter else ""
            pitch = pitches[midi] = (
                f"        <pitch>\n          <step>{sp.step}</step>{alter}\n"
                f"          <octave>{sp.octave}</octave>\n        </pitch>"
            )
        out.append(pitch)
    out.append(f"        <duration>{duration}</duration>")
    if tie_from:
        out.append('        <tie type="stop"/>')
    if tie_to:
        out.append('        <tie type="start"/>')
    if not whole_rest:
        key = (notated.numerator, notated.denominator)
        type_lines = types.get(key)
        if type_lines is None:
            type_name, dots = _dots_and_type(notated)
            type_lines = types[key] = (
                f"        <type>{type_name}</type>" + "\n        <dot/>" * dots)
        out.append(type_lines)
    if timemod is not None:
        actual, normal = timemod
        out.append(
            f"        <time-modification><actual-notes>{actual}</actual-notes>"
            f"<normal-notes>{normal}</normal-notes></time-modification>"
        )
    notations = ""
    if tie_from:
        notations += '<tied type="stop"/>'
    if tie_to:
        notations += '<tied type="start"/>'
    if group is not None:
        first, last = group_edges[group]
        if index == first:
            notations += '<tuplet type="start" number="1"/>'
        if index == last:
            notations += '<tuplet type="stop" number="1"/>'
    if notations:
        out.append(f"        <notations>{notations}</notations>")
    out.append("      </note>")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# parsing

# depth bound of the measure trees that parsing builds
_PARSE_DEPTH = 10


def _integer(text: str | None, where: str, what: str, positive: bool = False) -> int:
    """Read an integer element text; malformed input raises FormatError."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise FormatError(f"{where}{what} must be an integer, got {text!r}")
    if positive and value <= 0:
        raise FormatError(f"{where}{what} must be a positive integer, got {text!r}")
    return value


def parse_musicxml(
    text: str, *, decomposed: dict | None = None,
) -> tuple[ScoreModel, list[str]]:
    """Parse single-part partwise MusicXML back into a score.

    Chords and backup (second voices) raise UnsupportedContentError; grace
    notes are skipped with a warning.  Each <attributes> is read where it
    stands, and one that changes <divisions> or <time> after the measure's
    first timed note or <forward> raises UnsupportedContentError, as does a
    <time> that differs from the signature already in force (a score has
    one signature).  Measures are re-quantized onto the canonical tree form,
    so parse(emit(s)) == s for canonical scores.

    Each measure's fill is checked as it ends: none may be over-full, and
    only the last, or the first of several, may be short.  That first one
    is the pickup, placed at the first barline as it is read.

    Positions are integer ticks: measure m spans [m * length, (m + 1) *
    length), and ``length`` grows to a common multiple whenever a measure's
    <divisions> and <time> need finer ticks; each measure is decomposed in
    them, at most ``_PARSE_DEPTH`` levels deep.  A tie stop merges with the
    note before it when that note is open, has the same pitch and ends
    exactly where the stop begins.

    ``decomposed`` maps a measure's slice in lowest terms (the time
    signature, then the length, onsets, extents, carried pitch and carried
    end with their ticks divided by their gcd) to its tree.  Decomposition
    depends only on positions relative to the measure, so a slice met again,
    in this score or in another parsed with the same map, at any
    <divisions>, takes the same tree object.  Without a map each call uses a
    fresh one.
    """
    import xml.etree.ElementTree as ET  # only parsing needs it, emitting does not

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

    # the notes in ticks; only the last note's tie can still be open
    length = 1
    onsets: list[int] = []
    extents: list[int] = []
    pitches: list[int] = []
    tie_open = False
    anacrusis = Fraction(0)

    part = parts[0]
    measure_elems = part.findall("measure")
    if not measure_elems:
        raise FormatError("part has no measures")
    n = len(measure_elems)

    def measure_step() -> int:
        """Ticks per division in the current measure, once its <divisions>
        and <time> are read (a missing one takes its default); ``length``
        and every position grow first if that is not a whole number."""
        nonlocal sig, divisions, length
        if sig is None:
            sig = TimeSignature(4, 4)
            warnings.append("no time signature; assuming 4/4")
        if divisions is None:
            divisions = 1
            warnings.append("no divisions declared; assuming 1")
        per_measure = 4 * sig.numerator * divisions  # divisions in beat_type measures
        need = per_measure // gcd(per_measure, sig.denominator)
        if length % need:
            factor = need // gcd(length, need)
            length *= factor
            onsets[:] = [t * factor for t in onsets]
            extents[:] = [t * factor for t in extents]
        return length * sig.denominator // per_measure

    for m_index, measure in enumerate(measure_elems):
        where = f"measure {m_index + 1}: "
        step = None  # ticks per division, fixed at the measure's first pitch
        cursor = 0  # in divisions
        for elem in measure:
            tag = elem.tag
            if tag == "attributes":
                # read where they stand: once the measure's time has begun,
                # only the key may change
                d = elem.findtext("divisions")
                t = elem.find("time")
                if cursor and (d is not None or t is not None):
                    raise UnsupportedContentError(
                        f"{where}<divisions> or <time> after the measure's first note")
                if d is not None:
                    divisions = _integer(d, where, "divisions", positive=True)
                if t is not None:
                    new = TimeSignature(
                        _integer(t.findtext("beats"), where, "time beats"),
                        _integer(t.findtext("beat-type"), where, "time beat-type"),
                    )
                    if sig is not None and new != sig:
                        raise UnsupportedContentError(
                            f"{where}time signature changes from {sig} to {new}")
                    sig = new
                k = elem.find("key")
                if k is not None and k.findtext("fifths") is not None:
                    fifths = _integer(k.findtext("fifths"), where, "key fifths")
                continue
            if tag == "backup":
                raise UnsupportedContentError(f"{where}backup element (multiple voices)")
            if tag == "forward":
                cursor += _integer(elem.findtext("duration"), where, "forward duration",
                                   positive=True)
                continue
            if tag != "note":
                continue
            if elem.find("chord") is not None:
                raise UnsupportedContentError(f"{where}chord (polyphony)")
            if elem.find("grace") is not None:
                warnings.append(f"{where}grace note skipped")
                continue
            dur = _integer(elem.findtext("duration"), where, "note duration", positive=True)
            if elem.find("rest") is not None:
                cursor += dur
                continue
            pitch_el = elem.find("pitch")
            if pitch_el is None:
                raise FormatError(f"{where}note without pitch or rest")
            step_name = pitch_el.findtext("step")
            if step_name not in _NATURAL_PC:
                raise FormatError(f"{where}pitch step must be one of A-G, got {step_name!r}")
            alter = _integer(pitch_el.findtext("alter") or "0", where, "pitch alter")
            octave = _integer(pitch_el.findtext("octave"), where, "pitch octave")
            midi = _NATURAL_PC[step_name] + alter + 12 * (octave + 1)
            if not 0 <= midi <= 127:
                raise ValidationError(f"{where}pitch {step_name}{alter}/{octave} out of range")

            ties = [t.get("type") for t in elem.findall("tie")]
            if step is None:
                step = measure_step()
                base = m_index * length
            onset = base + cursor * step
            cursor += dur
            extent = base + cursor * step
            if "stop" in ties and tie_open and pitches[-1] == midi and extents[-1] == onset:
                extents[-1] = extent
            else:
                if "stop" in ties:
                    warnings.append(f"{where}dangling tie stop treated as onset")
                onsets.append(onset)
                extents.append(extent)
                pitches.append(midi)
            tie_open = "start" in ties
        if step is None:
            step = measure_step()
        # the measure holds cursor / divisions quarters of the score's
        # 4 * beats / beat_type
        held, full = cursor * sig.denominator, 4 * sig.numerator * divisions
        if held > full or held < full and 0 < m_index < n - 1:
            raise ValidationError(
                f"measure {m_index + 1} holds {Fraction(cursor, divisions)} quarters, "
                f"{'more' if held > full else 'fewer'} than "
                f"{Fraction(4 * sig.numerator, sig.denominator)}"
            )
        if held < full and m_index < n - 1:  # the pickup, placed at the first barline
            anacrusis = Fraction(held, 4 * divisions)
            gap = length - cursor * step
            onsets[:] = [t + gap for t in onsets]
            extents[:] = [t + gap for t in extents]

        sound = None if tempo_marking is not None else measure.find(".//sound[@tempo]")
        if sound is not None:
            tempo_text = sound.get("tempo")
            try:
                tempo = float(tempo_text)
            except ValueError:
                tempo = math.nan
            if not (math.isfinite(tempo) and tempo > 0):
                raise FormatError(
                    f"{where}sound tempo must be a positive number, got {tempo_text!r}")
            tempo_marking = tempo * sig.denominator / 4

    if decomposed is None:
        decomposed = {}
    notes = list(zip(onsets, extents, pitches))
    measures = []
    for m in range(n):
        starts, ends, carried_pitch, carried_end = slice_measure(notes, m, length)
        g = gcd(length, carried_end, *ends, *[t for t, _ in starts])
        if g > 1:
            starts = tuple([(t // g, pitch) for t, pitch in starts])
            ends = tuple([e // g for e in ends])
            carried_end //= g
        key = (sig, length // g, starts, ends, carried_pitch, carried_end)
        tree = decomposed.get(key)
        if tree is None:
            tree = decomposed[key] = decompose_measure(
                starts, ends, sig, length // g, max_depth=_PARSE_DEPTH,
                carried_pitch=carried_pitch, carried_end=carried_end,
            )
        measures.append(tree)

    score = ScoreModel(
        sig, measures,
        tempo_marking=tempo_marking if tempo_marking is not None else 120.0,
        anacrusis_beats=anacrusis,
    )
    return score, warnings
