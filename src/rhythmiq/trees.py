"""Rhythm trees, canonical decomposition, and the printed pieces of a measure.

A rhythm tree describes one measure as nested equal subdivisions of the
interval [0, 1).  Leaves are sounded notes, rests, or continuations of the
preceding note (which is how ties and dots are encoded).  The same structure
is produced by the grammar-based quantizer, by reading MusicXML, and by the
canonical decomposition used for grammar training, so it lives in one place.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, isfinite, lcm

from .core import Record, TimeSignature
from .errors import DecompositionError, ValidationError

NOTE = "note"
REST = "rest"
CONTINUATION = "continuation"
LEAF_LABELS = (NOTE, REST, CONTINUATION)

# notated durations may carry up to two dots
_NOTATABLE_NUMERATORS = (1, 3, 7)


class RhythmTree(Record):
    """One node of a rhythm tree.

    Internal nodes have ``children`` and no label; leaves have a ``label``
    and, for note leaves, a ``pitch``.
    """

    __slots__ = ("children", "label", "pitch")

    def __init__(self, children: tuple["RhythmTree", ...] = (),
                 label: str | None = None, pitch: int | None = None):
        if children:
            if label is not None:
                raise ValidationError("internal node cannot carry a leaf label")
            if len(children) < 2:
                raise ValidationError("a split needs at least 2 children")
        else:
            if label not in LEAF_LABELS:
                raise ValidationError(f"leaf label must be one of {LEAF_LABELS}")
            if label == NOTE and pitch is None:
                raise ValidationError("note leaf needs a pitch")
            if label != NOTE and pitch is not None:
                raise ValidationError("only note leaves carry a pitch")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "pitch", pitch)

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
        """The leaves' labels in order."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node.label)
        return out

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)


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


def _split_arity(boundaries: list[int], left: int, right: int) -> int:
    """Preferred arity for a tick interval holding the given inner boundaries.

    Binary, unless some boundary sits at an odd denominator relative to the
    interval (thirds, ninths, fifths, ...).  Halving can never reach such a
    point, so the smallest odd prime factor involved forces the split.
    """
    width = right - left
    forced = 0
    for b in boundaries:
        den = width // gcd(b - left, width)  # of (b - left) / width in lowest terms
        if den == 1 or den % 2 == 0:
            continue
        p = 3
        while den % p:
            p += 2
        if not forced or p < forced:
            forced = p
    return forced or 2


# the share of a leaf that silence may cover and still be absorbed into the
# note before it: fixed, as the canonical form parse(emit(s)) == s rests on it
_REST_THRESHOLD = Fraction(1, 2)


def decompose_measure(
    onsets: list[tuple[int, int]],
    extents: list[int],
    time_signature: TimeSignature,
    length: int,
    max_depth: int = 4,
    carried_pitch: int | None = None,
    carried_end: int = 0,
) -> RhythmTree:
    """Build the canonical rhythm tree of one notated measure.

    Positions are integer ticks of a measure ``length`` ticks long, as
    ``slice_measure`` gives them.  ``extents[i]`` is where note i stops
    sounding (past ``length`` when the note is held over the barline).
    The measure splits into ``numerator`` beats at the top, then binary
    subdivisions, switching to ternary (or a higher odd prime) only where a
    boundary cannot be reached by halving.  Silence merges into the coarsest
    leaves; a gap covering no more than half a leaf is absorbed into the
    preceding note instead of becoming a rest.

    Raises DecompositionError when an onset cannot be placed within
    ``max_depth`` levels.
    """
    if len(extents) != len(onsets):
        raise ValidationError("one extent per onset required")
    positions = [p for p, _ in onsets]
    if any(not 0 <= p < length for p in positions):
        raise ValidationError(f"onset positions must lie in [0, {length})")
    if any(p2 <= p1 for p1, p2 in zip(positions, positions[1:])):
        raise ValidationError("onset positions must be strictly increasing")
    if any(e <= p for p, e in zip(positions, extents)):
        raise ValidationError("extents must lie beyond their onsets")

    # Scaled so that every split edge is a tick: the top split divides by the
    # numerator; an odd arity divides a boundary's denominator relative to
    # the cell, which divides the width; and at most ``max_depth`` splits lie
    # on any path, so each binary one halves a width that still holds one of
    # the ``max_depth`` factors of 2.
    numerator = time_signature.numerator
    scale = numerator << max(max_depth, 0)
    starts = [p * scale for p in positions]
    ends = [e * scale for e in extents]
    pitches = [pitch for _, pitch in onsets]
    carried_until = carried_end * scale if carried_pitch is not None else 0
    absorb_num, absorb_den = _REST_THRESHOLD.numerator, _REST_THRESHOLD.denominator
    # a tree is immutable, so equal leaves are shared
    rest_leaf, continuation_leaf = rest(), continuation()
    note_leaves = {pitch: note(pitch) for pitch in set(pitches)}

    def build(left: int, right: int, depth: int) -> RhythmTree:
        # onsets at or before ``left`` are starts[:i]; inside are starts[i:j]
        i = bisect_right(starts, left)
        j = bisect_left(starts, right, i)
        end = ends[i - 1] if i else carried_until  # what sounds at ``left`` ends here
        if i == j:
            width = right - left
            covered = min(max(end, left), right)
            absorbed = (right - covered) * absorb_den <= absorb_num * width
            if i and starts[i - 1] == left:
                if absorbed or depth >= max_depth:
                    return note_leaves[pitches[i - 1]]
            else:
                if end <= left:
                    return rest_leaf
                if absorbed:
                    return continuation_leaf
                if depth >= max_depth:
                    return rest_leaf
            # a sounding end strictly inside wants finer leaves
            boundaries = [end] if left < end < right else []
        else:
            if depth >= max_depth:
                raise DecompositionError(
                    f"onsets at {[str(Fraction(p, length)) for p in positions[i:j]]} "
                    f"unreachable at depth {max_depth}"
                )
            boundaries = starts[i:j]
            if left < end < right:
                boundaries.append(end)

        if depth == 0 and numerator >= 2:
            k = numerator
        else:
            k = _split_arity(boundaries, left, right)
        step = (right - left) // k
        return RhythmTree(children=tuple([
            build(left + c * step, left + (c + 1) * step, depth + 1)
            for c in range(k)
        ]))

    return build(0, length * scale, 0)


# ---------------------------------------------------------------------------
# measure slicing


def slice_measure(notes, m: int, length=1):
    """Cut measure ``m`` out of a monophonic line.

    ``notes`` holds (onset, extent, pitch), sorted by onset, in units of
    which a measure is ``length`` long: measure ``m`` spans [m * length,
    (m + 1) * length).  Positions are integer ticks, which is what
    ``decompose_measure`` takes, or floats of measures (``length`` 1), as the
    quantizer slices a performance.  An onset belongs to the last barline at
    or before it, compared exactly: a caller working in floats puts
    positions within its tolerance of a barline on the barline first.
    Returns the measure's relative (position, pitch) onsets, their extents,
    and the pitch and relative end of the note held over the opening barline
    (None and 0 when there is none), in the same units.
    """
    start = m * length
    lo = bisect_left(notes, (start,))
    hi = bisect_left(notes, (start + length,), lo)
    inside = notes[lo:hi]
    onsets = tuple((onset - start, pitch) for onset, _, pitch in inside)
    extents = tuple(extent - start for _, extent, _ in inside)
    # in a monophonic line only the note just before can still be sounding
    if lo and notes[lo - 1][1] > start:
        _, extent, pitch = notes[lo - 1]
        return onsets, extents, pitch, extent - start
    return onsets, extents, None, 0


# ---------------------------------------------------------------------------
# notation


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


class _Notator:
    """Printed pieces of the measures of one time signature, in ticks.

    A node's context is its notated duration (whole-note units) and its
    tuplet ratio; ``contexts`` lists those met so far.  The context step of
    each (context, arity) pair and the printed pieces of each chunk length
    are worked out once per notator, so no node, leaf or piece builds a
    Fraction.
    """

    def __init__(self, time_signature: TimeSignature):
        self.whole = Fraction(time_signature.numerator, time_signature.denominator)
        self.contexts: list[tuple[Fraction, tuple[int, int]]] = [(self.whole, (1, 1))]
        self._ids = {self.contexts[0]: 0}
        self._steps: dict[tuple[int, int], tuple[int, bool]] = {}
        self._pieces: dict[tuple[int, int], list[tuple[Fraction, int]]] = {}

    def _step(self, ctx: int, k: int) -> tuple[int, bool]:
        """Context of the children of a k-way split, and whether the split
        opens a tuplet group."""
        notated, timemod = self.contexts[ctx]
        child = (notated / k, timemod)
        normal = _nominal_power(k)
        tuplet = False
        if not notatable(child[0]) and notatable(notated / normal):
            a, n = timemod[0] * k, timemod[1] * normal
            g = gcd(a, n)
            child = (notated / normal, (a // g, n // g))
            tuplet = True
        child_ctx = self._ids.setdefault(child, len(self.contexts))
        if child_ctx == len(self.contexts):
            self.contexts.append(child)
        self._steps[ctx, k] = (child_ctx, tuplet)
        return child_ctx, tuplet

    def _pieces_of(self, total: tuple[int, int]) -> list[tuple[Fraction, int]]:
        """The printed pieces of a chunk of ``num / den`` whole notes, each
        with its share of ``num``: a piece's denominator divides ``den``."""
        num, den = total
        pieces = self._pieces[total] = [
            (piece, piece.numerator * den // piece.denominator)
            for piece in split_notatable(Fraction(num, den))
        ]
        return pieces

    def walk(self, tree: RhythmTree):
        """Flatten ``tree`` in one walk into (leaf, start, end, timemod,
        group) records and the tree's tick count: the LCM of the arity
        products along its root-to-leaf paths, so every leaf edge is a tick.
        """
        steps = self._steps
        found = []
        groups = 0
        # a node spans cell ``index`` of ``cells`` equal cells of the measure
        stack = [(tree, 0, 1, 0, None)]
        while stack:
            node, index, cells, ctx, group = stack.pop()
            children = node.children
            if not children:
                found.append((node, index, cells, ctx, group))
                continue
            k = len(children)
            child_ctx, tuplet = steps.get((ctx, k)) or self._step(ctx, k)
            if tuplet:
                groups += 1
                group = groups
            index *= k
            cells *= k
            for c in range(k - 1, -1, -1):
                stack.append((children[c], index + c, cells, child_ctx, group))
        ticks = lcm(*{cells for _, _, cells, _, _ in found})
        contexts = self.contexts
        records = []
        for leaf, index, cells, ctx, group in found:
            size = ticks // cells
            records.append((leaf, index * size, (index + 1) * size,
                            contexts[ctx][1], group))
        return records, ticks

    def pieces(self, tree: RhythmTree, carried_pitch: int | None):
        """Print one measure in integers.

        Leaves group into runs: a rest on its own, or a note and the
        continuations after it; a continuation that opens the measure is a
        note of ``carried_pitch`` tied from before, and one that follows a
        rest raises ValidationError.  Within a run, leaves merge
        while they share a tuplet ratio and group and their notated sum
        stays printable; each merged chunk prints as its pieces, tied.
        Within one tuplet ratio the notated duration is proportional to the
        tick width, so sums are tick counts.

        Returns the pieces and the pitch sounding into the next measure
        (None after a rest).  A piece is (pitch, tie_from, onset, duration,
        den, notated, timemod, group): ``pitch`` is None for a rest;
        ``onset / den`` and ``duration / den`` are fractions of the measure;
        ``timemod`` is None outside tuplets.
        """
        records, ticks = self.walk(tree)
        whole_num, whole_den = self.whole.numerator, self.whole.denominator
        known = self._pieces
        out = []
        sounding = carried_pitch  # the pitch of the last note leaf, or carried in
        idx, n = 0, len(records)
        while idx < n:
            leaf = records[idx][0]
            label = leaf.label
            if label == REST:
                pitch, tied, end = None, False, idx + 1
            else:
                if label == NOTE:
                    pitch = sounding = leaf.pitch
                    tied, end = False, idx + 1
                elif idx:  # a note's run takes its continuations in: this follows a rest
                    raise ValidationError("continuation leaf with nothing to continue")
                elif carried_pitch is None:
                    raise ValidationError(
                        "measure starts with continuation but nothing carried")
                else:
                    pitch, tied, end = carried_pitch, True, idx
                while end < n and records[end][0].label == CONTINUATION:
                    end += 1
            i = idx
            while i < end:
                _, start, stop, timemod, group = records[i]
                # notated whole notes per tick = num / den
                num = whole_num * timemod[0]
                den = whole_den * timemod[1] * ticks
                j = i + 1
                while j < end and records[j][3] == timemod and records[j][4] == group:
                    wider = (records[j][2] - start) * num
                    g = gcd(wider, den)
                    d = den // g
                    if d & (d - 1) or wider // g not in _NOTATABLE_NUMERATORS:
                        break
                    stop = records[j][2]
                    j += 1
                width = stop - start
                g = gcd(width * num, den)
                total = (width * num // g, den // g)
                shares = known.get(total) or self._pieces_of(total)
                tie = pitch is not None and (tied or i > idx)
                timemod = None if timemod == (1, 1) else timemod
                if len(shares) == 1:
                    out.append((pitch, tie, start, width, ticks, shares[0][0], timemod, group))
                else:  # piece by piece, in units of 1 / (ticks * total[0])
                    onset = start * total[0]
                    for piece, share in shares:
                        size = width * share
                        out.append((pitch, tie, onset, size, ticks * total[0], piece,
                                    timemod, group))
                        onset += size
                        tie = pitch is not None
                i = j
            idx = end
        return out, sounding if records[-1][0].label != REST else None


class ScoreModel(Record):
    """A notated score: one rhythm tree per measure plus global attributes.

    ``anacrusis_beats`` marks measures[0] as a pickup covering only its final
    beats.  Equality is structural, which is what the round-trip tests rely
    on.
    """

    __slots__ = ("time_signature", "measures", "tempo_marking", "anacrusis_beats")

    def __init__(self, time_signature, measures, tempo_marking=120.0,
                 anacrusis_beats=Fraction(0)):
        measures = tuple(measures)
        if not measures:
            raise ValidationError("a score needs at least one measure")
        if not (isfinite(tempo_marking) and tempo_marking > 0):
            raise ValidationError(
                f"tempo_marking must be finite and positive, got {tempo_marking}")
        anacrusis_beats = Fraction(anacrusis_beats)
        if not 0 <= anacrusis_beats < time_signature.numerator:
            raise ValidationError("anacrusis must be shorter than a full measure")
        object.__setattr__(self, "time_signature", time_signature)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "tempo_marking", float(tempo_marking))
        object.__setattr__(self, "anacrusis_beats", anacrusis_beats)

    def notes(self) -> list[tuple[Fraction, Fraction, int]]:
        """The sounding notes as (start, end, pitch), in measures from the
        start of ``measures[0]``.

        A note leaf opens a note and the continuation leaves after it extend
        it, across barlines too; a rest ends it.  Raises ValidationError on
        a continuation with nothing sounding.
        """
        out: list[tuple[Fraction, Fraction, int]] = []
        sounding = False
        for m, tree in enumerate(self.measures):
            for leaf, left, right in tree.leaves(Fraction(m), Fraction(m + 1)):
                label = leaf.label
                if label == NOTE:
                    out.append((left, right, leaf.pitch))
                elif label == CONTINUATION:
                    if not sounding:
                        raise ValidationError("continuation leaf with nothing to continue")
                    out[-1] = (out[-1][0], right, out[-1][2])
                sounding = label != REST
        return out

    def notated_measures(self) -> list[list[tuple]]:
        """The printed pieces of each measure, as ``_Notator.pieces`` gives
        them: a note held over a barline opens the next measure as a piece
        of its pitch tied from before."""
        notator = _Notator(self.time_signature)
        carried: int | None = None
        out = []
        for tree in self.measures:
            pieces, carried = notator.pieces(tree, carried)
            out.append(pieces)
        return out


def render_performance(score: ScoreModel, bpm: float | None = None):
    """Render a score to a Performance with mathematically exact timing:
    one NoteEvent per note of ``score.notes()``, rests as silence.

    The pickup, if any, starts at time 0 and the first full measure begins
    after it; sound before the pickup's final beats is cut off.
    """
    from .core import NoteEvent, Performance

    if bpm is None:
        bpm = score.tempo_marking
    beat = 60.0 / bpm
    num = score.time_signature.numerator
    pickup = score.anacrusis_beats
    shift = num - pickup if pickup else 0  # beats of measures[0] before time 0

    events = []
    for start, end, pitch in score.notes():
        start, end = max(start * num - shift, 0), end * num - shift
        if end > 0:
            events.append(NoteEvent(float(start) * beat, float(end - start) * beat, pitch))
    return Performance(events)
