"""Rhythm trees, canonical decomposition, and conversion to notated events.

A rhythm tree describes one measure as nested equal subdivisions of the
interval [0, 1).  Leaves are sounded notes, rests, or continuations of the
preceding note (which is how ties and dots are encoded).  The same structure
is produced by the grammar-based quantizer, by reading MusicXML, and by the
canonical decomposition used for grammar training, so it lives in one place.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import TimeSignature
from .errors import DecompositionError, ValidationError

NOTE = "note"
REST = "rest"
CONTINUATION = "continuation"
LEAF_LABELS = (NOTE, REST, CONTINUATION)

# notated durations may carry up to two dots
_NOTATABLE_NUMERATORS = (1, 3, 7)


@dataclass(frozen=True)
class RhythmTree:
    """One node of a rhythm tree.

    Internal nodes have ``children`` and no label; leaves have a ``label``
    and, for note leaves, a ``pitch``.
    """

    children: tuple["RhythmTree", ...] = ()
    label: str | None = None
    pitch: int | None = None

    def __post_init__(self):
        if self.children:
            if self.label is not None:
                raise ValidationError("internal node cannot carry a leaf label")
            if len(self.children) < 2:
                raise ValidationError("a split needs at least 2 children")
        else:
            if self.label not in LEAF_LABELS:
                raise ValidationError(f"leaf label must be one of {LEAF_LABELS}")
            if self.label == NOTE and self.pitch is None:
                raise ValidationError("note leaf needs a pitch")
            if self.label != NOTE and self.pitch is not None:
                raise ValidationError("only note leaves carry a pitch")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self, left=Fraction(0), right=Fraction(1)):
        """Yield (leaf, left, right) with exact interval endpoints."""
        if self.is_leaf:
            yield self, left, right
            return
        k = len(self.children)
        width = (right - left) / k
        for i, child in enumerate(self.children):
            yield from child.leaves(left + i * width, left + (i + 1) * width)

    def leaf_labels(self) -> list[str]:
        return [leaf.label for leaf, _, _ in self.leaves()]

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def count_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def validate_flow(self, carried: bool = False) -> None:
        """Check that every continuation leaf has a sounding predecessor."""
        prev_sounding = carried
        for leaf, _, _ in self.leaves():
            if leaf.label == CONTINUATION and not prev_sounding:
                raise ValidationError("continuation leaf with nothing to continue")
            prev_sounding = leaf.label in (NOTE, CONTINUATION)


def note(pitch: int) -> RhythmTree:
    return RhythmTree(label=NOTE, pitch=pitch)


def rest() -> RhythmTree:
    return RhythmTree(label=REST)


def continuation() -> RhythmTree:
    return RhythmTree(label=CONTINUATION)


def split(*children: RhythmTree) -> RhythmTree:
    return RhythmTree(children=tuple(children))


# ---------------------------------------------------------------------------
# canonical decomposition


def _split_arity(boundaries: list[Fraction], left: Fraction, right: Fraction) -> int:
    """Preferred arity for an interval holding the given inner boundaries.

    Binary, unless some boundary sits at an odd denominator relative to the
    interval (thirds, ninths, fifths, ...).  Halving can never reach such a
    point, so the smallest odd prime factor involved forces the split.
    """
    width = right - left
    forced: set[int] = set()
    for b in boundaries:
        rel = (b - left) / width
        den = rel.denominator
        if den == 1 or den % 2 == 0:
            continue
        p = 3
        while den % p:
            p += 2
        forced.add(p)
    return min(forced) if forced else 2


def decompose_measure(
    onsets: list[tuple[Fraction, int]],
    extents: list[Fraction],
    time_signature: TimeSignature,
    max_depth: int = 4,
    rest_threshold: Fraction = Fraction(1, 2),
    carried_pitch: int | None = None,
    carried_end: Fraction = Fraction(0),
) -> RhythmTree:
    """Build the canonical rhythm tree of one notated measure.

    Positions are fractions of the measure.  ``extents[i]`` is where note i
    stops sounding (it may exceed 1 when the note is held over the barline).
    The measure splits into ``numerator`` beats at the top, then binary
    subdivisions, switching to ternary (or a higher odd prime) only where a
    boundary cannot be reached by halving.  Silence merges into the coarsest
    leaves; a gap covering no more than ``rest_threshold`` of a leaf is
    absorbed into the preceding note instead of becoming a rest.

    Raises DecompositionError when an onset cannot be placed within
    ``max_depth`` levels.
    """
    positions = [p for p, _ in onsets]
    if any(not 0 <= p < 1 for p in positions):
        raise ValidationError("onset positions must lie in [0, 1)")
    if any(p2 <= p1 for p1, p2 in zip(positions, positions[1:])):
        raise ValidationError("onset positions must be strictly increasing")
    if len(extents) != len(onsets):
        raise ValidationError("one extent per onset required")
    if any(e <= p for p, e in zip(positions, extents)):
        raise ValidationError("extents must lie beyond their onsets")

    def sounding_end(left: Fraction) -> Fraction:
        """End of whatever note is sounding at ``left``."""
        end = carried_end if carried_pitch is not None else Fraction(0)
        for (p, _), e in zip(onsets, extents):
            if p <= left:
                end = e
            else:
                break
        return end

    def build(left: Fraction, right: Fraction, depth: int) -> RhythmTree:
        inner = [p for p in positions if left < p < right]
        at_left = None
        for (p, pitch) in onsets:
            if p == left:
                at_left = pitch
        if not inner:
            width = right - left
            end = sounding_end(left)
            covered = min(max(end, left), right)
            uncovered = (right - covered) / width
            if at_left is not None:
                if uncovered <= rest_threshold or depth >= max_depth:
                    return note(at_left)
            else:
                if end <= left:
                    return rest()
                if uncovered <= rest_threshold:
                    return continuation()
                if depth >= max_depth:
                    return rest() if uncovered > rest_threshold else continuation()
            # a sounding end strictly inside wants finer leaves
            boundaries = [end] if left < end < right else []
        else:
            if depth >= max_depth:
                raise DecompositionError(
                    f"onsets at {[str(p) for p in inner]} unreachable at depth {max_depth}"
                )
            boundaries = list(inner)
            end = sounding_end(left)
            if left < end < right:
                boundaries.append(end)

        if depth == 0 and time_signature.numerator >= 2:
            k = time_signature.numerator
        else:
            k = _split_arity(boundaries, left, right)
        width = (right - left) / k
        children = tuple(
            build(left + i * width, left + (i + 1) * width, depth + 1)
            for i in range(k)
        )
        return RhythmTree(children=children)

    tree = build(Fraction(0), Fraction(1), 0)
    tree.validate_flow(carried=carried_pitch is not None and carried_end > 0)
    return tree


# ---------------------------------------------------------------------------
# measure slicing


def slice_measure(notes, m: int):
    """Cut measure ``m`` out of a monophonic line.

    ``notes`` holds (onset, extent, pitch) in global measure units, measure
    ``m`` spanning [m, m + 1), sorted by onset; positions may be Fractions or
    floats.  An onset belongs to the last barline at or before it, compared
    exactly: a caller working in floats puts positions within its tolerance
    of a barline on the barline first.  Returns the measure's relative
    (position, pitch) onsets, their extents, and the pitch and relative end
    of the note held over the opening barline (None and 0 when there is none).
    """
    lo = bisect_left(notes, (m,))
    hi = bisect_left(notes, (m + 1,), lo)
    inside = notes[lo:hi]
    onsets = tuple((onset - m, pitch) for onset, _, pitch in inside)
    extents = tuple(extent - m for _, extent, _ in inside)
    # in a monophonic line only the note just before can still be sounding
    if lo and notes[lo - 1][1] > m:
        _, extent, pitch = notes[lo - 1]
        return onsets, extents, pitch, extent - m
    return onsets, extents, None, 0


# ---------------------------------------------------------------------------
# notation


@dataclass
class NotatedEvent:
    """A printed note or rest within one measure.

    ``onset`` and ``duration`` are fractions of the measure (sounding time);
    ``notated`` is the printed duration in whole-note units, which differs
    from sounding time inside tuplets.  ``timemod`` is the MusicXML
    actual/normal pair for tuplet members.
    """

    kind: str
    onset: Fraction
    duration: Fraction
    notated: Fraction
    pitch: int | None = None
    timemod: tuple[int, int] | None = None
    tuplet_group: int | None = None
    tie_from: bool = False
    tie_to: bool = False


def notatable(q: Fraction) -> bool:
    """True when ``q`` whole notes prints as one symbol (up to two dots)."""
    den = q.denominator
    return q > 0 and den & (den - 1) == 0 and q.numerator in _NOTATABLE_NUMERATORS


def split_notatable(q: Fraction) -> list[Fraction]:
    """Split a duration into printable pieces, longest first."""
    den = q.denominator
    if den & (den - 1):
        raise ValidationError(f"duration {q} of a whole note is not printable")
    pieces = []
    remaining = q
    while remaining > 0:
        if notatable(remaining):
            pieces.append(remaining)
            break
        power = Fraction(2)
        while power > remaining:
            power /= 2
        pieces.append(power)
        remaining -= power
    return pieces


def _nominal_power(k: int) -> int:
    power = 1
    while power * 2 <= k:
        power *= 2
    return power


def tree_to_notation(
    tree: RhythmTree,
    time_signature: TimeSignature,
    carried_pitch: int | None = None,
) -> list[NotatedEvent]:
    """Flatten a measure tree into printed events.

    Runs of a note leaf followed by continuation leaves merge into a single
    printed duration when the sum is printable and the run stays inside one
    tuplet group; otherwise the run is split into tied events.  A leading
    continuation run becomes a note tied from the previous measure
    (``carried_pitch`` supplies its pitch).
    """
    measure_whole = Fraction(time_signature.numerator, time_signature.denominator)

    # walk leaves carrying notated duration and tuplet context
    flat: list[tuple[RhythmTree, Fraction, Fraction, Fraction, tuple[int, int], int | None]] = []
    group_counter = [0]

    def walk(node, left, right, notated, timemod, group):
        if node.is_leaf:
            flat.append((node, left, right, notated, timemod, group))
            return
        k = len(node.children)
        width = (right - left) / k
        child_notated = notated / k
        child_timemod = timemod
        child_group = group
        if not notatable(child_notated) and notatable(notated / _nominal_power(k)):
            normal = _nominal_power(k)
            child_notated = notated / normal
            a, n = timemod[0] * k, timemod[1] * normal
            g = gcd(a, n)
            child_timemod = (a // g, n // g)
            group_counter[0] += 1
            child_group = group_counter[0]
        for i, child in enumerate(node.children):
            walk(child, left + i * width, left + (i + 1) * width,
                 child_notated, child_timemod, child_group)

    walk(tree, Fraction(0), Fraction(1), measure_whole, (1, 1), None)

    # group into runs: note + following continuations, rests standalone
    events: list[NotatedEvent] = []

    def emit_run(leaves, pitch, tie_from_prev):
        kind = NOTE if pitch is not None else REST
        i = 0
        first_chunk = True
        while i < len(leaves):
            _, left, right, notated, timemod, group = leaves[i]
            j = i + 1
            total = notated
            end = right
            while (
                j < len(leaves)
                and leaves[j][4] == timemod
                and leaves[j][5] == group
                and notatable(total + leaves[j][3])
            ):
                total += leaves[j][3]
                end = leaves[j][2]
                j += 1
            run_width = end - left
            pos = left
            for piece_index, piece in enumerate(split_notatable(total)):
                width = run_width * piece / total
                events.append(NotatedEvent(
                    kind=kind,
                    onset=pos,
                    duration=width,
                    notated=piece,
                    pitch=pitch,
                    timemod=None if timemod == (1, 1) else timemod,
                    tuplet_group=group,
                    tie_from=(kind == NOTE)
                    and (tie_from_prev or not first_chunk or piece_index > 0),
                ))
                pos += width
                first_chunk = False
            i = j

    idx = 0
    while idx < len(flat):
        leaf = flat[idx][0]
        if leaf.label == REST:
            run = [flat[idx]]
            idx += 1
            emit_run(run, None, False)
        elif leaf.label == NOTE:
            run = [flat[idx]]
            idx += 1
            while idx < len(flat) and flat[idx][0].label == CONTINUATION:
                run.append(flat[idx])
                idx += 1
            emit_run(run, leaf.pitch, False)
        else:  # leading continuation, tied from previous measure
            if carried_pitch is None:
                raise ValidationError("measure starts with continuation but nothing carried")
            run = []
            while idx < len(flat) and flat[idx][0].label == CONTINUATION:
                run.append(flat[idx])
                idx += 1
            emit_run(run, carried_pitch, True)

    # recompute tie_to cleanly: a note is tied to the next event when that
    # event is a note with tie_from and the same pitch
    for a, b in zip(events, events[1:]):
        a.tie_to = a.kind == NOTE and b.kind == NOTE and b.tie_from and b.pitch == a.pitch
    return events


@dataclass(frozen=True)
class ScoreModel:
    """A notated score: one rhythm tree per measure plus global attributes.

    ``anacrusis_beats`` marks measures[0] as a pickup covering only its final
    beats.  Equality is structural, which is what the round-trip tests rely
    on.
    """

    time_signature: TimeSignature
    measures: tuple[RhythmTree, ...]
    tempo_marking: float = 120.0
    anacrusis_beats: Fraction = Fraction(0)

    def __init__(self, time_signature, measures, tempo_marking=120.0,
                 anacrusis_beats=Fraction(0)):
        measures = tuple(measures)
        if not measures:
            raise ValidationError("a score needs at least one measure")
        if tempo_marking <= 0:
            raise ValidationError(f"tempo_marking must be positive, got {tempo_marking}")
        anacrusis_beats = Fraction(anacrusis_beats)
        if not 0 <= anacrusis_beats < time_signature.numerator:
            raise ValidationError("anacrusis must be shorter than a full measure")
        object.__setattr__(self, "time_signature", time_signature)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "tempo_marking", float(tempo_marking))
        object.__setattr__(self, "anacrusis_beats", anacrusis_beats)

    def notated_measures(self) -> list[list[NotatedEvent]]:
        """Printed events per measure with cross-measure ties resolved."""
        out: list[list[NotatedEvent]] = []
        carried: int | None = None
        for tree in self.measures:
            events = tree_to_notation(tree, self.time_signature, carried)
            out.append(events)
            labels = tree.leaf_labels()
            last_note_pitch = None
            for leaf, _, _ in tree.leaves():
                if leaf.label == NOTE:
                    last_note_pitch = leaf.pitch
            if labels and labels[-1] in (NOTE, CONTINUATION):
                carried = last_note_pitch if last_note_pitch is not None else carried
            else:
                carried = None
        for prev, nxt, tree in zip(out, out[1:], self.measures[1:]):
            starts_tied = tree.leaf_labels()[0] == CONTINUATION
            if prev and prev[-1].kind == NOTE:
                prev[-1].tie_to = starts_tied
        return out


def render_performance(score: ScoreModel, bpm: float | None = None,
                       velocity: int = 64):
    """Render a score to a Performance with mathematically exact timing.

    Tied notes merge into single events; rests are silence.  The pickup, if
    any, starts at time 0 and the first full measure begins after it.
    """
    from .core import NoteEvent, Performance

    if bpm is None:
        bpm = score.tempo_marking
    beat = 60.0 / bpm
    num = score.time_signature.numerator
    pickup = score.anacrusis_beats

    notes = []
    pending = None  # (start_beats, end_beats, pitch)
    for m_index, events in enumerate(score.notated_measures()):
        if pickup > 0:
            measure_start = Fraction(0) if m_index == 0 else pickup + (m_index - 1) * num
            skip = 1 - Fraction(pickup, num) if m_index == 0 else Fraction(0)
        else:
            measure_start = Fraction(m_index * num)
            skip = Fraction(0)
        for ev in events:
            if ev.onset < skip:
                continue
            start = measure_start + (ev.onset - skip) * num
            end = start + ev.duration * num
            if ev.kind == REST:
                continue
            if ev.tie_from and pending is not None and pending[2] == ev.pitch:
                pending = (pending[0], end, ev.pitch)
            else:
                if pending is not None:
                    notes.append(pending)
                pending = (start, end, ev.pitch)
            if not ev.tie_to:
                notes.append(pending)
                pending = None
    if pending is not None:
        notes.append(pending)

    return Performance(
        [
            NoteEvent(float(s) * beat, float(e - s) * beat, p, velocity)
            for s, e, p in notes
        ],
        source_label="rendered",
    )
