"""Output checks.  Each returns a list of problems; an empty list passes.

References come from the generated solos and from how the estimates were
built, never from a saved copy of the program's output.
"""
from __future__ import annotations

import difflib

from corpus import BEATS_PER_BAR, Solo
from reader import ReadError, notes_by_bar, read_musicxml


def exact_bars(read_notes, solo: Solo) -> int:
    """Reference bars whose notes the output matches in onset, duration and
    pitch, tied notes merged."""
    ref, out = notes_by_bar(solo.notes), notes_by_bar(read_notes)
    return sum(ref.get(b, []) == out.get(b, []) for b in range(solo.bars))


def check_exact(xml: str, solo: Solo) -> tuple[list[str], int]:
    """An exact render must come back note for note, bar for bar."""
    try:
        read = read_musicxml(xml)
    except ReadError as exc:
        return [str(exc)], 0
    problems = []
    if read.measures != solo.bars:
        problems.append(f"{read.measures} measures for {solo.bars} bars")
    exact = exact_bars(read.notes, solo)
    if exact != solo.bars:
        problems.append(f"{solo.bars - exact} of {solo.bars} bars differ from the solo")
    return problems, exact


def check_played(xml: str, solo: Solo, performed: list[int],
                 fallback_bars: set[int]) -> tuple[list[str], list[str], int]:
    """A played take must keep every bar whole and every note, in order.

    ``performed`` holds the indices of the solo's notes in the order the
    take plays them.
    Returns (problems, known, exact): ``known`` holds the problems that the
    grid fallback is known to cause, notes lost or moved inside a bar the
    program reported as a fallback bar.  Measures past the grid may only
    hold rests.
    """
    try:
        read = read_musicxml(xml)
    except ReadError as exc:
        return [str(exc)], [], 0
    problems = []
    if read.measures < solo.bars:
        problems.append(f"{read.measures} measures do not cover {solo.bars} bars")
    late = [n for n in read.notes if n.onset >= solo.beats]
    if late:
        problems.append(f"{len(late)} notes start after the last annotated beat")
    played = [solo.notes[i].pitch for i in performed]
    out = [n.pitch for n in read.notes]
    known = []
    ops = difflib.SequenceMatcher(a=played, b=out, autojunk=False).get_opcodes()
    for tag, i1, i2, j1, j2 in ops:
        if tag == "equal":
            continue
        what = f"performed notes {i1}..{i2} {tag}d as output notes {j1}..{j2}"
        # an early downbeat lands in the bar before, so a fallback bar may
        # hold notes of the bar after it
        ref_bars = {int(solo.notes[performed[i]].onset // BEATS_PER_BAR)
                    for i in range(i1, i2)}
        out_bars = {int(read.notes[j].onset // BEATS_PER_BAR) for j in range(j1, j2)}
        near = fallback_bars | {b + 1 for b in fallback_bars}
        if ref_bars <= near and out_bars <= fallback_bars:
            known.append(what + " in a fallback bar")
        else:
            problems.append(what)
    return problems, known, exact_bars(read.notes, solo)


def check_counts(payload: dict, expected: dict[str, dict[str, int]]) -> list[str]:
    """``eval score``/``eval notes`` items must print the planted counts."""
    items = payload.get("items", {})
    if set(items) != set(expected):
        return [f"items {sorted(items)} for pairs {sorted(expected)}"]
    problems = []
    for stem, want in expected.items():
        got = {key: items[stem].get(key) for key in want}
        if got != want:
            problems.append(f"{stem}: printed {got}, planted {want}")
    return problems
