"""Grammar-guided rhythm quantization.

The core solver searches all derivations of a weighted grammar for the tree
whose leaves best explain a measure of performed onsets, each onset aligned
to the nearer edge of its leaf.  The objective is alpha * sum(|onset -
aligned edge|) + alpha / 8 * sum(sound or silence a leaf gets wrong) +
sum(rule weights); ties break toward fewer leaves, then fewer tuplet nodes,
then a rest over a continuation or the split listed first, so results are
deterministic.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .core import (
    DEFAULT_ALPHA,
    DEFAULT_FALLBACK_RESOLUTION,
    DEFAULT_REST_THRESHOLD,
    BeatGrid,
    Performance,
    Record,
    TimeSignature,
    enforce_monophony,
)
from .errors import (
    AlignmentError,
    CapacityError,
    EmptyInputError,
    ParseFailureError,
    RhythmiqError,
    ValidationError,
)
from .grammar import RhythmGrammar
from .trees import (
    CONTINUATION,
    NOTE,
    REST,
    RhythmTree,
    ScoreModel,
    decompose_measure,
    slice_measure,
)

EPS = 1e-9

# a tree is immutable, so the solver's leaves are shared: one per label,
# and one per pitch for notes
_LEAVES = {label: RhythmTree(label=label) for label in (REST, CONTINUATION)}
_NOTE_LEAVES = {pitch: RhythmTree(label=NOTE, pitch=pitch) for pitch in range(128)}

# beta / alpha: releases are less reliable than onsets (Nakamura, Yoshii &
# Dixon, TASLP 2017), so a misplaced one costs less, but not nothing.  Below
# about 1/13 a beat held into a silent bar reads as a whole-bar rest; 1/4
# loses exact bars on the bench's takes with 8-15 ms of onset jitter
_RELEASE_SHARE = 0.125


class QuantConfig(Record):
    """Solver knobs.

    alpha trades data fit against grammar probability: distances are measured
    in fractions of a measure, so alpha = 256 prices a displacement of a
    64th of a 4/4 measure (half a 32nd-note cell) like a rule of probability
    exp(-4).  The default comes from a sweep over sampled scores rendered
    with 2-15 ms of timing jitter at 120 and 200 bpm: per-bar onset and
    pitch agreement rises with alpha up to about 192 and is flat above.
    rest_threshold is checked but changes nothing (each leaf pays for its
    tail instead); it stays until the callers that pass it are gone.
    """

    __slots__ = ("alpha", "rest_threshold")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 rest_threshold: float = DEFAULT_REST_THRESHOLD):
        if alpha < 0:
            raise ValidationError(f"alpha must be >= 0, got {alpha}")
        if not math.isfinite(alpha):
            raise ValidationError(f"alpha must be finite, got {alpha}")
        if not 0 < rest_threshold <= 1:
            raise ValidationError(
                f"rest_threshold must be in (0, 1], got {rest_threshold}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rest_threshold", rest_threshold)


class MeasureInput(Record):
    """One measure of performed material in measure-relative coordinates.

    onsets: (position in [0, 1), pitch) per note, strictly increasing.
    extents: sounding end of each note, > its onset; may pass the barline.
    carried_pitch/carried_end: note held over from the previous measure and
    where (in this measure's units) it stops sounding.  For the k_in = 1
    entries of ``quantize_measure(..., states=True)`` it is the note the
    previous measure may align onto the downbeat, with carried_end 0 when
    it stopped before the barline.
    """

    __slots__ = ("onsets", "extents", "carried_pitch", "carried_end")

    def __init__(self, onsets: tuple[tuple[float, int], ...] = (),
                 extents: tuple[float, ...] = (), carried_pitch: int | None = None,
                 carried_end: float = 0.0):
        if len(onsets) != len(extents):
            raise ValidationError("onsets and extents must pair up")
        prev = -math.inf
        for (pos, pitch), ext in zip(onsets, extents):
            if not 0.0 <= pos < 1.0:
                raise ValidationError(f"onset {pos} outside [0, 1)")
            if pos <= prev:
                raise ValidationError("onsets must be strictly increasing")
            if not ext > pos:
                raise ValidationError(f"extent {ext} not beyond onset {pos}")
            if not 0 <= pitch <= 127:
                raise ValidationError(f"pitch {pitch} outside 0..127")
            prev = pos
        if carried_pitch is not None and not 0 <= carried_pitch <= 127:
            raise ValidationError(f"carried pitch {carried_pitch} outside 0..127")
        if not carried_end >= 0:
            raise ValidationError(f"carried_end must be >= 0, got {carried_end}")
        if carried_end > 0 and carried_pitch is None:
            raise ValidationError("carried_end without carried_pitch")
        object.__setattr__(self, "onsets", onsets)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "carried_pitch", carried_pitch)
        object.__setattr__(self, "carried_end", carried_end)


def quantize_measure(
    measure: MeasureInput,
    grammar: RhythmGrammar,
    config: QuantConfig | None = None,
    time_signature: TimeSignature = TimeSignature(4, 4),
    *,
    states: bool = False,
    final: bool = False,
) -> tuple[RhythmTree, float] | MeasureStates:
    """Find the minimum-cost derivation explaining one measure.

    Each onset aligns to the nearer edge of the leaf that holds it.  A leaf
    [l, r) holds the onsets at or after l and before r (both less EPS); the
    ones in its left half, midpoint included, are its note, at a cost of
    alpha * (p - l).  At most one onset in its right half moves to r, where
    it is the next leaf's note, and the leaf pays alpha * (r - p).  So every
    node keeps its best derivation per (k_in, k_out) in {0, 1}^2, the number
    of onsets aligned onto its left edge from before and past its right edge;
    a split chains k through its children left to right.  In the ``final``
    measure of a score nothing follows the closing barline, so a leaf that
    ends there keeps an onset of its right half as its note, at
    alpha * (p - l), and no entry gives an onset out.

    With e the end of the sound ringing into [l, r) and beta = alpha / 8, a
    note pays beta * (r - end) when its release end < r (for one aligned
    in, end = max(e, l)); a continuation needs e > l + EPS and
    pays beta * (r - e) when e < r; a rest needs e <= r + EPS and pays
    beta * (e - l) when e > l + EPS.  So one test at each edge decides both
    sides of it, and no continuation follows a rest.

    Returns the (0, 0) entry, where nothing crosses either barline: the
    winning tree and its total cost.  Raises CapacityError when the measure
    holds more onsets than any derivation within the grammar's depth bound
    can carry, AlignmentError when two onsets, or the last onset and the
    closing barline, align to one boundary even in the finest cells, and
    ParseFailureError when the grammar lacks a rule for a needed leaf.

    With ``states`` it returns the ``MeasureStates`` of all four entries
    instead and raises none of these.  The k_in = 1 entries exist when the
    measure has a ``carried_pitch``, which is then the note aligned onto
    the downbeat (sounding until ``carried_end``, 0 when it stopped
    before); the (0, 0) entry does not depend on them.

    One bottom-up pass over the grammar's compiled lattice: per node, its
    leaf options per k_in, then each split's children chained through the
    lanes k = 0 and k = 1.  A child whose only entry is (0, 0) adds its
    cost to lane 0 and closes lane 1.  A split whose children cannot hold
    the cell's notes is not tried.  On equal (cost, leaves, tuplets) a rest
    keeps an entry from a continuation and the earlier split from a later
    one, and a split's chain keeps, per k after each child, the first best
    of k = 0, then k = 1, before it.
    """
    config = config or QuantConfig()
    table = MeasureStates(measure, grammar, config, time_signature, final)
    if states:
        return table
    cost = table.cost(0, 0)
    if cost == math.inf:
        raise table.failure()
    return table.tree(0, 0), cost


class MeasureStates:
    """One measure solved for every (k_in, k_out): whether the previous
    measure's last onset is aligned onto its downbeat, and whether its own
    last onset is aligned onto the closing barline.

    ``results`` holds each lattice node's (0, 0) entry and ``states`` all
    four, indexed 2 * k_in + k_out, or None where (0, 0) is the only one.
    An entry is (cost, size, rule, first onset, k mask), where size is
    leaves * ``Lattice.unit`` + tuplets, so it orders as (leaves,
    tuplets) does; bit i of a split's mask is the k before child i, its
    last bit the k_out.

    Every node takes its entries from one leaf block, then from its
    splits, in node order, in one pass that reads the lattice and writes
    only this table.  A leaf that aligns an onset onto its right edge marks
    the edge, so the nodes that start there, which come later, also find
    their k_in = 1 entries.  The trees built from the entries share their
    leaves.
    """

    def __init__(self, measure: MeasureInput, grammar: RhythmGrammar,
                 config: QuantConfig, time_signature: TimeSignature, final: bool):
        self.measure = measure
        self.grammar = grammar
        self.final = final
        self.lattice = grammar.lattice(time_signature)
        edges, steps, unit, _ = self.lattice
        alpha = config.alpha
        beta = alpha * _RELEASE_SHARE
        onsets, extents = measure.onsets, measure.extents
        positions = [pos for pos, _ in onsets]
        # per count of onsets before a point, the end of the sound ringing
        # there; carried_end is 0 without a carried note
        ends = [measure.carried_end, *extents]

        # per cell edge: the onsets before it, and whether a leaf ending
        # there aligns one onto it.  The leaves ending at an edge come
        # before the cells starting there; only the previous measure aligns
        # an onset onto the downbeat
        self.lows = lows = [bisect_left(positions, edge - EPS) for edge in edges]
        pushed = [False] * len(edges)
        pushed[0] = measure.carried_pitch is not None

        self.results = results = [None] * unit
        self.states = states = [None] * unit
        for node, li, ri, lf, rf, mid, note, rest, cont, splits in steps:
            lo = lows[li]
            hi = lows[ri]
            pushed_in = pushed[li]
            sound_end = ends[lo]
            # ``right`` is the first onset in the right half; at the
            # score's end none moves
            if lo == hi or final and rf == 1.0:
                right = hi
            else:
                right = bisect_right(positions, mid + EPS, lo, hi)
            k_out = hi - right
            entries: list = [None] * 4
            k_ins = (0, 1) if pushed_in else (0,)
            # as a leaf, priced as ``quantize_measure`` says; a rest wins a
            # tie with a continuation, and a leaf never ties a split, which
            # has more leaves, so leaves go first
            if (note or rest or cont) and k_out <= 1:
                push = alpha * (rf - positions[right]) if k_out else 0.0
                stay = right - lo  # the onsets that stay in the cell
                if stay <= 1:
                    if stay:  # the cell's own note
                        if note is not None:
                            dist = abs(positions[lo] - lf)
                            end = extents[lo]
                            tail = beta * (rf - end) if end < rf else 0.0
                            entries[k_out] = (note.weight + (
                                alpha * (dist if dist >= EPS else 0.0) + push + tail),
                                unit, note, lo, 0)
                    else:
                        if rest is not None and sound_end <= rf + EPS:
                            rung = beta * (sound_end - lf) if sound_end > lf + EPS else 0.0
                            entries[k_out] = (rest.weight + (push + rung), unit, rest, lo, 0)
                        if cont is not None and sound_end > lf + EPS:
                            tail = beta * (rf - sound_end) if sound_end < rf else 0.0
                            cost = cont.weight + (push + tail)
                            if entries[k_out] is None or cost < entries[k_out][0]:
                                entries[k_out] = (cost, unit, cont, lo, 0)
                if pushed_in and not stay and note is not None:  # the note aligned in
                    end = sound_end if sound_end > lf else lf
                    tail = beta * (rf - end) if end < rf else 0.0
                    entries[2 + k_out] = (note.weight + (push + tail), unit, note, lo, 0)
                if entries[1] or entries[3]:
                    pushed[ri] = True

            # a candidate must beat an entry's (cost, size) outright; a split
            # whose children cannot hold k_in + onsets - k_out notes for
            # either k_out has no entry
            onsets_in = hi - lo
            for weight, tuplet, children, rule, fewest, most in splits:
                for k_in in k_ins:
                    if not fewest <= onsets_in + k_in <= most:
                        continue
                    # the best derivation so far per k after the child, as
                    # (cost, size, mask) in lane 0 and lane 1, cost None
                    # where none reaches it.  Each keeps the first best of
                    # k = 0, then k = 1, before it
                    if k_in:
                        c0, c1, s1, m1 = None, weight, tuplet, 1
                    else:
                        c0, s0, m0, c1 = weight, tuplet, 0, None
                    for child, bit in children:
                        sub = states[child]
                        if sub is None:  # takes and gives nothing
                            e = results[child]
                            if c0 is None or e is None:
                                break
                            c0 += e[0]
                            s0 += e[1]
                            c1 = None
                            continue
                        e00, e01, e10, e11 = sub
                        n1 = None
                        if c0 is not None:
                            if e01 is not None:
                                n1, t1, b1 = c0 + e01[0], s0 + e01[1], m0 | bit
                            if e00 is None:
                                c0 = None
                            else:
                                c0 += e00[0]
                                s0 += e00[1]
                        if c1 is not None:
                            if e10 is not None:
                                c, s = c1 + e10[0], s1 + e10[1]
                                if c0 is None or c < c0 or c == c0 and s < s0:
                                    c0, s0, m0 = c, s, m1
                            if e11 is not None:
                                c, s = c1 + e11[0], s1 + e11[1]
                                if n1 is None or c < n1 or c == n1 and s < t1:
                                    n1, t1, b1 = c, s, m1 | bit
                        if n1 is None:
                            if c0 is None:
                                break
                            c1 = None
                        else:
                            c1, s1, m1 = n1, t1, b1
                    else:
                        i = 2 * k_in
                        if c0 is not None:
                            old = entries[i]
                            if old is None or c0 < old[0] or c0 == old[0] and s0 < old[1]:
                                entries[i] = (c0, s0, rule, lo, m0)
                        if c1 is not None:
                            old = entries[i + 1]
                            if old is None or c1 < old[0] or c1 == old[0] and s1 < old[1]:
                                entries[i + 1] = (c1, s1, rule, lo, m1)
            results[node] = entries[0]
            if entries[1] or entries[2] or entries[3]:
                states[node] = entries

    def _entry(self, node: int, k_in: int, k_out: int):
        if self.states[node] is not None:
            return self.states[node][2 * k_in + k_out]
        return None if k_in or k_out else self.results[node]

    def cost(self, k_in: int, k_out: int) -> float:
        """The entry's cost, inf when no derivation has these states."""
        entry = self._entry(-1, k_in, k_out)
        return math.inf if entry is None else entry[0]

    def tree(self, k_in: int, k_out: int) -> RhythmTree:
        """The entry's winning derivation as a tree."""
        return self._tree(len(self.results) - 1, k_in, k_out)

    def _tree(self, node: int, k_in: int, k_out: int) -> RhythmTree:
        entry = self._entry(node, k_in, k_out)
        rule, lo, mask = entry[2], entry[3], entry[4]
        if rule.label is None:
            return RhythmTree(children=tuple(
                self._tree(child, mask >> i & 1, mask >> i + 1 & 1)
                for i, child in enumerate(rule.children)))
        if rule.label == NOTE:
            if k_in:
                pitch = self.measure.onsets[lo - 1][1] if lo else self.measure.carried_pitch
            else:
                pitch = self.measure.onsets[lo][1]
            return _NOTE_LEAVES[pitch]
        return _LEAVES[rule.label]

    def failure(self) -> RhythmiqError:
        """Why the (0, 0) entry has no derivation."""
        onsets = self.measure.onsets
        lattice = self.lattice
        cap = lattice.capacity
        if len(onsets) > cap:
            return CapacityError(
                f"{len(onsets)} onsets exceed the {cap} leaves reachable "
                f"within depth {self.grammar.max_depth}"
            )
        # align each onset in the narrowest cell a note may fill: onset i is
        # in the cell between edges li and ri when lows[li] <= i < lows[ri],
        # as in the solve
        lows = self.lows
        cells = sorted((rf - lf, lf, rf, li, ri)
                       for _, li, ri, lf, rf, _, note, *_ in lattice.steps
                       if note is not None)
        taken: dict[float, float] = {}
        for i, (pos, _) in enumerate(onsets):
            cell = next((c for c in cells if lows[c[3]] <= i < lows[c[4]]), None)
            if cell is None:
                continue
            _, lf, rf, _, _ = cell
            stays = pos <= (lf + rf) / 2 + EPS or (self.final and rf == 1.0)
            edge = lf if stays else rf
            if edge in taken:
                return AlignmentError(
                    f"onsets at {taken[edge]:.4f} and {pos:.4f} of the measure "
                    f"align to one boundary even in the finest cells")
            if edge == 1.0:
                return AlignmentError(
                    f"the onset at {pos:.4f} of the measure aligns to the "
                    f"closing barline even in the finest cells")
            taken[edge] = pos
        return ParseFailureError(
            "no derivation fits this measure; the grammar lacks a rule for a "
            "needed leaf"
        )


# ---------------------------------------------------------------------------
# grid fallback

def _factor_count(n: int) -> int:
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            count += 1
            n //= d
        d += 1
    return count


def _grid_resolution(n_onsets: int, time_signature: TimeSignature,
                     resolution: int) -> int:
    """The smallest resolution >= ``resolution`` with a slot for each onset."""
    return max(resolution, -(-n_onsets // time_signature.numerator))


def fallback_quantize(
    measure: MeasureInput,
    time_signature: TimeSignature = TimeSignature(4, 4),
    resolution: int = DEFAULT_FALLBACK_RESOLUTION,
) -> RhythmTree:
    """Snap onsets to a uniform grid of ``resolution`` slots per beat.

    Each onset takes its nearest slot, but no earlier than the slot after
    the previous onset's and no later than leaves a slot for each onset
    after it, so a collision shifts right, at the bar's end left, and every
    onset keeps its own slot and its order.  A measure with more onsets than
    slots uses the smallest resolution above ``resolution`` that has a slot
    for each.  Used when the grammar solver cannot explain a measure.
    """
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")
    n = len(measure.onsets)
    resolution = _grid_resolution(n, time_signature, resolution)
    total = time_signature.numerator * resolution
    onsets = []
    extents = []
    slot = -1
    for i, ((pos, pitch), ext) in enumerate(zip(measure.onsets, measure.extents)):
        slot = min(total - (n - i), max(slot + 1, round(pos * total)))
        onsets.append((slot, pitch))
        extents.append(max(slot + 1, round(ext * total)))

    carried_pitch = measure.carried_pitch
    carried_end = round(measure.carried_end * total)
    if carried_end <= 0:
        carried_pitch, carried_end = None, 0

    depth = _factor_count(resolution) + (1 if time_signature.numerator > 1 else 0)
    return decompose_measure(
        onsets, extents, time_signature, total,
        max_depth=max(1, depth),
        carried_pitch=carried_pitch, carried_end=carried_end,
    )


# ---------------------------------------------------------------------------
# performance-level driver

def quantize_performance(
    performance: Performance,
    grid: BeatGrid,
    grammar: RhythmGrammar,
    config: QuantConfig | None = None,
    on_error: str = "raise",
    fallback_resolution: int = DEFAULT_FALLBACK_RESOLUTION,
) -> tuple[ScoreModel, list[str]]:
    """Quantize a full performance against annotated beats.

    Onsets and offsets are mapped through the beat grid (piecewise linear,
    extrapolated at both ends) and sliced into measures; each measure is
    solved once for all four (k_in, k_out) entries (see
    ``quantize_measure``).  Whether a measure's last onset is aligned onto
    the next downbeat is then one choice per barline, made by a two-state
    Viterbi pass over the measures: the first measure takes nothing in and
    the last, solved as ``final``, gives nothing out, so no note starts past
    the grid.  A measure no entry fits is a grid-fallback measure: it gives
    nothing out, and an onset the previous measure aligns onto its downbeat
    is its first note, unless an onset of its own is already there.  Paths
    rank by fallback count, then by cost.
    ``on_error='fallback'`` applies the grid fallback and reports each such
    measure and its cause in the returned warnings list; ``'raise'`` raises
    the first one's cause.
    """
    if on_error not in ("raise", "fallback"):
        raise ValidationError(
            f"on_error must be 'raise' or 'fallback', got {on_error!r}")
    # checked up front, not only once a measure falls back
    if fallback_resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {fallback_resolution}")
    notes, m_lo, m_hi = _map(performance, grid)
    tables, chosen = _solve(notes, m_lo, m_hi, grammar, config or QuantConfig(),
                            grid.time_signature)
    return _assemble(tables, chosen, grid, m_lo, on_error, fallback_resolution)


def _map(performance: Performance, grid: BeatGrid):
    """The monophonic line as sorted (onset, extent, pitch) in measures from
    the first downbeat, and the score's first and last measure."""
    performance = enforce_monophony(performance)
    if len(performance) == 0:
        raise EmptyInputError("nothing to quantize")
    bpb = grid.beats_per_bar
    beats = grid.beats
    top = len(beats) - 2  # past either end, the nearest interval's rate continues

    def units(t: float, i: int) -> tuple[float, int]:
        # measure units, 0 = first downbeat, and the beat interval that maps
        # ``t``, walked to from interval ``i`` at or before it; a position
        # within EPS of a barline is on it, so every later comparison can be exact
        while i < top and beats[i + 1] <= t:
            i += 1
        u = (i + (t - beats[i]) / (beats[i + 1] - beats[i]) - grid.phase) / bpb
        bar = round(u)
        return (float(bar) if abs(u - bar) <= EPS else u), i

    # (onset, extent, pitch), sorted by onset since the mapping is monotone;
    # onsets walk the beats once, and each release walks on from its onset
    notes = []
    i = 0
    for note in performance.notes:
        onset, i = units(note.onset, i)
        notes.append((onset, max(units(note.offset, i)[0], onset + 1e-6), note.pitch))

    m_lo = math.floor(notes[0][0])
    m_hi = math.floor(notes[-1][0])
    # the annotated grid defines the score's extent: silent measures under
    # it are real rest measures, not absence of music, and a release past
    # its last beat is cut at the final barline; past the grid, the last
    # release decides
    grid_bars = math.floor((len(grid.beats) - 1 - grid.phase) / bpb + EPS)
    if grid_bars >= 1:
        m_lo = min(m_lo, 0)
    if grid_bars > max(m_hi, 0):
        m_hi = grid_bars - 1
    else:
        m_hi = max(m_hi, math.ceil(notes[-1][1]) - 1)
    return notes, m_lo, m_hi


def _solve(notes, m_lo: int, m_hi: int, grammar: RhythmGrammar, config: QuantConfig,
           sig: TimeSignature):
    """Each measure's ``MeasureStates``, solved once with the barline
    Viterbi stepped after it, and its chosen (k_in, k_out, fallback)."""
    tables: list[MeasureStates] = []
    # per barline and k, the best (fallbacks, cost) of the measures before
    # it; per measure and k_out, the (k_in, fallback) that reached it
    best: list = [(0, 0.0), None]
    back = []
    for m in range(m_lo, m_hi + 1):
        onsets, extents, carried_pitch, carried_end = slice_measure(notes, m)
        # a path reaches k = 1 here, so the k_in = 1 entries need the pitch pushed in
        if best[1] is not None and carried_pitch is None:  # it stopped before the barline
            carried_pitch = notes[bisect_left(notes, (m,)) - 1][2]
        table = quantize_measure(MeasureInput(onsets, extents, carried_pitch, carried_end),
                                 grammar, config, sig, states=True, final=m == m_hi)
        tables.append(table)
        reached: list = [None, None]
        choice: list = [None, None]
        for k_in, prev in enumerate(best):
            if prev is None:
                continue
            fallbacks, total = prev
            options = [((fallbacks, total + table.cost(k_in, k_out)), k_out, False)
                       for k_out in (0, 1)]
            # a fallback puts an onset pushed in on the downbeat, so none
            # may be there yet
            if not k_in or not onsets or onsets[0][0] > 0:
                options.append(((fallbacks + 1, total), 0, True))
            for cand, k_out, fallback in options:
                if cand[1] < math.inf and (reached[k_out] is None or cand < reached[k_out]):
                    reached[k_out], choice[k_out] = cand, (k_in, fallback)
        back.append(choice)
        best = reached

    chosen = []
    k = 0
    for choice in reversed(back):
        k_in, fallback = choice[k]
        chosen.append((k_in, k, fallback))
        k = k_in
    return tables, chosen[::-1]


def _assemble(tables, chosen, grid: BeatGrid, m_lo: int, on_error: str,
              fallback_resolution: int) -> tuple[ScoreModel, list[str]]:
    """The score of the chosen entries, with a grid fallback where one was
    chosen, its tempo marking and its pickup."""
    sig = grid.time_signature
    warnings: list[str] = []
    measures = []
    for index, (table, (k_in, k_out, fallback)) in enumerate(zip(tables, chosen)):
        if not fallback:
            measures.append(table.tree(k_in, k_out))
            continue
        error = table.failure()
        if on_error == "raise":
            raise error
        measure = table.measure
        if k_in:  # the previous measure's last onset is this one's first
            measure = MeasureInput(((0.0, measure.carried_pitch), *measure.onsets),
                                   (max(measure.carried_end, EPS), *measure.extents))
        n = len(measure.onsets)
        resolution = _grid_resolution(n, sig, fallback_resolution)
        finer = (f"; {n} onsets need {resolution} grid slots per beat"
                 if resolution > fallback_resolution else "")
        warnings.append(f"measure {index}: {error}{finer}; grid fallback applied")
        measures.append(fallback_quantize(measure, sig, fallback_resolution))

    intervals = [b - a for a, b in zip(grid.beats, grid.beats[1:])]
    tempo = 60.0 / (math.fsum(intervals) / len(intervals))

    pickup = 0
    if m_lo < 0:  # a note before the first downbeat opens a pickup
        start = next((left for leaf, left, _ in measures[0].leaves() if leaf.label == NOTE), 0)
        if start:
            pickup = (1 - start) * sig.numerator
    return ScoreModel(sig, measures, tempo_marking=tempo, anacrusis_beats=pickup), warnings
