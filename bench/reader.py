"""The benchmark's own MusicXML reader, used to check the program's output.

It reads what a monophonic partwise file says, with no re-quantization:
notes with exact onsets and durations in beats, tied notes merged, and the
length of every measure.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction as F

from corpus import BEATS_PER_BAR, Note

_STEPS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


class ReadError(ValueError):
    """The file is not a well-formed monophonic score of whole bars."""


@dataclass(frozen=True)
class Read:
    notes: tuple[Note, ...]  # onsets in beats from the first downbeat
    measures: int


def read_musicxml(text: str) -> Read:
    """Parse a score whose every measure holds exactly one 4/4 bar."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ReadError(f"not well-formed XML: {exc}") from None
    parts = root.findall("part")
    if root.tag != "score-partwise" or len(parts) != 1:
        raise ReadError("expected one part of a partwise score")
    divisions = None
    notes: list[list] = []  # [onset, end, pitch, tie_open]
    measures = parts[0].findall("measure")
    for index, measure in enumerate(measures):
        if measure.get("implicit") == "yes":
            raise ReadError(f"measure {index + 1} is an implicit pickup")
        d = measure.findtext("attributes/divisions")
        if d is not None:
            divisions = int(d)
        t = measure.find("attributes/time")
        if t is not None and (t.findtext("beats"), t.findtext("beat-type")) != (
                str(BEATS_PER_BAR), "4"):
            raise ReadError(f"measure {index + 1} is not in 4/4")
        if divisions is None:
            raise ReadError("no divisions before the first note")
        start = F(index * BEATS_PER_BAR)
        cursor = F(0)
        for el in measure:
            if el.tag in ("backup", "forward"):
                raise ReadError(f"measure {index + 1}: <{el.tag}> is not monophonic")
            if el.tag != "note":
                continue
            if el.find("chord") is not None or el.find("grace") is not None:
                raise ReadError(f"measure {index + 1}: chord or grace note")
            dur = F(int(el.findtext("duration")), divisions)
            if dur <= 0:
                raise ReadError(f"measure {index + 1}: duration {dur}")
            at = start + cursor
            cursor += dur
            if el.find("rest") is not None:
                continue
            pitch = (_STEPS[el.findtext("pitch/step")]
                     + int(el.findtext("pitch/alter") or 0)
                     + 12 * (int(el.findtext("pitch/octave")) + 1))
            tie_types = {tie.get("type") for tie in el.findall("tie")}
            if "stop" in tie_types:
                if not (notes and notes[-1][3] and notes[-1][1] == at
                        and notes[-1][2] == pitch):
                    raise ReadError(f"measure {index + 1}: tie stop with no tie start")
                notes[-1][1] = at + dur
                notes[-1][3] = "start" in tie_types
            else:
                if notes and notes[-1][3]:
                    raise ReadError(f"measure {index + 1}: tie start never stopped")
                notes.append([at, at + dur, pitch, "start" in tie_types])
        if cursor != BEATS_PER_BAR:
            raise ReadError(
                f"measure {index + 1} holds {cursor} beats, not one bar")
    if notes and notes[-1][3]:
        raise ReadError("the last note's tie is never stopped")
    return Read(tuple(Note(a, e - a, p) for a, e, p, _ in notes), len(measures))


def notes_by_bar(notes) -> dict[int, list[tuple[F, F, int]]]:
    """Notes grouped by the bar they start in, positions relative to it."""
    out: dict[int, list] = {}
    for n in notes:
        bar = int(n.onset // BEATS_PER_BAR)
        out.setdefault(bar, []).append(
            (n.onset - bar * BEATS_PER_BAR, n.duration, n.pitch))
    return out
