"""Grammar-guided rhythm quantization.

The core solver searches all derivations of a weighted grammar for the tree
whose leaf onsets best explain a measure of performed onsets.  The objective
is alpha * sum(|onset - leaf onset|) + sum(rule weights); ties break toward
fewer leaves, then fewer tuplet nodes, then the lexicographically smallest
rule sequence, so results are deterministic.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean

from .core import BeatGrid, Performance, TimeSignature, enforce_monophony
from .errors import (
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
DEFAULT_ALPHA = 8.0


@dataclass(frozen=True)
class QuantConfig:
    """Solver knobs.

    alpha trades data fit against grammar probability: distances are measured
    in fractions of a measure, so alpha = 8 prices a half-beat displacement in
    4/4 like a rule of probability exp(-1).
    """

    alpha: float = DEFAULT_ALPHA
    rest_threshold: float = 0.5

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 < self.rest_threshold <= 1:
            raise ValidationError(
                f"rest_threshold must be in (0, 1], got {self.rest_threshold}"
            )


@dataclass(frozen=True)
class MeasureInput:
    """One measure of performed material in measure-relative coordinates.

    onsets: (position in [0, 1), pitch) per note, strictly increasing.
    extents: sounding end of each note, > its onset; may pass the barline.
    carried_pitch/carried_end: note held over from the previous measure and
    where (in this measure's units) it stops sounding.
    """

    onsets: tuple[tuple[float, int], ...] = ()
    extents: tuple[float, ...] = ()
    carried_pitch: int | None = None
    carried_end: float = 0.0

    def __post_init__(self):
        if len(self.onsets) != len(self.extents):
            raise ValidationError("onsets and extents must pair up")
        prev = -math.inf
        for (pos, pitch), ext in zip(self.onsets, self.extents):
            if not 0.0 <= pos < 1.0:
                raise ValidationError(f"onset {pos} outside [0, 1)")
            if pos <= prev:
                raise ValidationError("onsets must be strictly increasing")
            if ext <= pos:
                raise ValidationError(f"extent {ext} not beyond onset {pos}")
            if not 0 <= pitch <= 127:
                raise ValidationError(f"pitch {pitch} outside 0..127")
            prev = pos
        if self.carried_end < 0:
            raise ValidationError("carried_end must be >= 0")
        if self.carried_end > 0 and self.carried_pitch is None:
            raise ValidationError("carried_end without carried_pitch")


def quantize_measure(
    measure: MeasureInput,
    grammar: RhythmGrammar,
    config: QuantConfig | None = None,
    time_signature: TimeSignature = TimeSignature(4, 4),
) -> tuple[RhythmTree, float]:
    """Find the minimum-cost derivation explaining one measure.

    Returns the winning tree and its total cost.  Raises CapacityError when
    the measure holds more onsets than any derivation within the grammar's
    depth bound can carry, ParseFailureError when the grammar simply lacks
    the rules the data requires.

    One bottom-up pass over the grammar's compiled lattice: a cell holds the
    onsets at or after its left edge and before its right edge (both less
    EPS).  The rule sequence tie-break needs no sequences: every candidate of
    a cell starts with a different rule, so on equal (cost, leaves, tuplets)
    the earlier rule keeps the cell.
    """
    config = config or QuantConfig()
    lattice = grammar.lattice(time_signature)
    alpha = config.alpha
    theta = config.rest_threshold
    onsets, extents = measure.onsets, measure.extents
    positions = [pos for pos, _ in onsets]
    carried_end = measure.carried_end if measure.carried_pitch is not None else 0.0

    # per node, children first: (cost, leaves, tuplets, rule, first onset)
    # of the best derivation, or None
    results: list = []
    for lf, rf, rules in lattice.nodes:
        lo = bisect_left(positions, lf - EPS)
        count = bisect_left(positions, rf - EPS, lo) - lo
        # whatever was sounding when the cell begins
        sound_end = extents[lo - 1] if lo else carried_end

        # a leaf's uncovered tail, silence after the note or the carried
        # sound relative to the leaf width, may be at most theta; when no
        # strict option fits, the relaxed leaves drop that bound the way the
        # notation builder does at its depth limit
        note_extra = 0.0
        if count > 1:
            strict = relaxed = ()
        elif count == 1:
            relaxed = (NOTE,)
            tail = (rf - min(max(extents[lo], lf), rf)) / (rf - lf)
            strict = relaxed if tail <= theta + EPS else ()
            dist = abs(positions[lo] - lf)
            note_extra = alpha * (dist if dist >= EPS else 0.0)
        elif sound_end <= lf + EPS:
            strict = relaxed = (REST,)
        else:
            # a continuation needs sound at the left edge; a rest there is
            # only a relaxed option
            relaxed = (REST, CONTINUATION)
            tail = (rf - min(sound_end, rf)) / (rf - lf)
            strict = (CONTINUATION,) if tail <= theta + EPS else ()

        best = choice = None
        for rule in rules:
            weight, label, children, tuplets = rule
            if label is None:
                cost, leaves = weight, 0
                for child in children:
                    sub = results[child]
                    if sub is None:
                        break
                    cost += sub[0]
                    leaves += sub[1]
                    tuplets += sub[2]
                else:
                    cand = (cost, leaves, tuplets)
                    if best is None or cand < best:
                        best, choice = cand, rule
            elif label in strict:
                cand = (weight + note_extra if label == NOTE else weight, 1, 0)
                if best is None or cand < best:
                    best, choice = cand, rule
        if best is None and relaxed:
            for rule in rules:
                if rule.label in relaxed:
                    cand = (rule.weight + note_extra if rule.label == NOTE
                            else rule.weight, 1, 0)
                    if best is None or cand < best:
                        best, choice = cand, rule
        results.append(None if best is None else (*best, choice, lo))

    if results[-1] is None:
        cap = lattice.max_leaves()
        if len(onsets) > cap:
            raise CapacityError(
                f"{len(onsets)} onsets exceed the {cap} leaves reachable "
                f"within depth {grammar.max_depth}"
            )
        raise ParseFailureError(
            "no derivation fits this measure; the grammar lacks a needed rule"
        )
    return _derivation(results, len(results) - 1, onsets), results[-1][0]


def _derivation(results: list, node: int, onsets) -> RhythmTree:
    """The tree of a node's winning derivation, from the solver's results."""
    _, _, _, rule, lo = results[node]
    if rule.label is None:
        return RhythmTree(children=tuple(
            _derivation(results, child, onsets) for child in rule.children))
    if rule.label == NOTE:
        return RhythmTree(label=NOTE, pitch=onsets[lo][1])
    return RhythmTree(label=rule.label)


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
    resolution: int = 4,
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
        end_slot = max(slot + 1, round(ext * total))
        onsets.append((Fraction(slot, total), pitch))
        extents.append(Fraction(end_slot, total))

    carried_pitch = measure.carried_pitch
    carried_end = Fraction(round(measure.carried_end * total), total)
    if carried_end <= 0:
        carried_pitch, carried_end = None, Fraction(0)

    depth = _factor_count(resolution) + (1 if time_signature.numerator > 1 else 0)
    return decompose_measure(
        onsets, extents, time_signature,
        max_depth=max(1, depth),
        carried_pitch=carried_pitch, carried_end=carried_end,
    )


# ---------------------------------------------------------------------------
# performance-level driver

def time_to_beats(grid: BeatGrid, t: float) -> float:
    """Map seconds to a continuous beat coordinate (0 = first annotation)."""
    beats = grid.beats
    i = bisect_right(beats, t) - 1
    i = max(0, min(i, len(beats) - 2))
    dt = beats[i + 1] - beats[i]
    return i + (t - beats[i]) / dt


def quantize_performance(
    performance: Performance,
    grid: BeatGrid,
    grammar: RhythmGrammar,
    config: QuantConfig | None = None,
    on_error: str = "raise",
    fallback_resolution: int = 4,
) -> tuple[ScoreModel, list[str]]:
    """Quantize a full performance against annotated beats.

    Onsets and offsets are mapped through the beat grid (piecewise linear,
    extrapolated at both ends), sliced into measures, and solved one measure
    at a time.  An onset landing in the last half beat of a measure is also
    tried as the downbeat of the next measure; the joint two-measure cost
    decides.  ``on_error='fallback'`` replaces unsolvable measures with the
    grid fallback and reports them in the returned warnings list.
    """
    if on_error not in ("raise", "fallback"):
        raise ValidationError(f"on_error must be 'raise' or 'fallback'")
    config = config or QuantConfig()
    performance = enforce_monophony(performance)
    if len(performance) == 0:
        raise EmptyInputError("nothing to quantize")

    sig = grid.time_signature
    bpb = grid.beats_per_bar

    def units(t: float) -> float:
        # measure units, 0 = first downbeat; a position within EPS of a
        # barline is on it, so every later comparison can be exact
        u = (time_to_beats(grid, t) - grid.phase) / bpb
        bar = round(u)
        return float(bar) if abs(u - bar) <= EPS else u

    # (onset, extent, pitch), sorted by onset since the mapping is monotone
    notes = []
    for note in performance.notes:
        onset = units(note.onset)
        notes.append((onset, max(units(note.offset), onset + 1e-6), note.pitch))

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

    warnings: list[str] = []

    # the deferral below weighs the same measure contents more than once;
    # each distinct input is parsed once, failures included
    solved: dict[MeasureInput, tuple[RhythmTree, float] | RhythmiqError] = {}

    def attempt(m: int):
        inp = MeasureInput(*slice_measure(notes, m))
        if inp not in solved:
            try:
                solved[inp] = quantize_measure(inp, grammar, config, sig)
            except RhythmiqError as exc:
                solved[inp] = exc
        return inp, solved[inp]

    def soft(m: int) -> float:
        result = attempt(m)[1]
        return math.inf if isinstance(result, RhythmiqError) else result[1]

    def solve(m: int) -> RhythmTree:
        inp, result = attempt(m)
        if not isinstance(result, RhythmiqError):
            return result[0]
        if on_error == "raise":
            raise result
        n = len(inp.onsets)
        resolution = _grid_resolution(n, sig, fallback_resolution)
        finer = (f"; {n} onsets need {resolution} grid slots per beat"
                 if resolution > fallback_resolution else "")
        warnings.append(f"measure {m - m_lo}: {result}{finer}; grid fallback applied")
        return fallback_quantize(inp, sig, fallback_resolution)

    defer_window = 0.5 / bpb
    lattice = grammar.lattice(sig).note_positions
    measures = []
    m = m_lo
    while m <= m_hi:
        nxt = bisect_left(notes, (m + 1,))  # first onset at or past the next barline
        if nxt and notes[nxt - 1][0] >= m:
            onset, extent, pitch = notes[nxt - 1]
            pos = onset - m
            downbeat_taken = nxt < len(notes) and notes[nxt][0] < m + 1 + 1e-6
            # an onset sitting exactly on a notatable grid position was played
            # there on purpose; only off-grid stragglers may be early downbeats
            near = bisect_left(lattice, pos)
            on_lattice = any(abs(pos - p) < 1e-6 for p in lattice[max(near - 1, 0):near + 1])
            if (pos >= 1 - defer_window and pos > 0
                    and not downbeat_taken and not on_lattice):
                plan_a = soft(m) + soft(m + 1)
                notes[nxt - 1] = (float(m + 1), max(extent, m + 1 + 1e-6), pitch)
                penalty = config.alpha * (m + 1 - onset)
                plan_b = soft(m) + soft(m + 1) + penalty
                if plan_b < plan_a:
                    m_hi = max(m_hi, m + 1)
                else:
                    notes[nxt - 1] = (onset, extent, pitch)
        measures.append(solve(m))
        m += 1

    intervals = [b - a for a, b in zip(grid.beats, grid.beats[1:])]
    tempo = 60.0 / fmean(intervals)

    anacrusis = Fraction(0)
    if m_lo < 0:
        for leaf, left, right in measures[0].leaves():
            if leaf.label == NOTE:
                if left > 0:
                    anacrusis = (1 - left) * sig.numerator
                break

    score = ScoreModel(sig, measures, tempo_marking=tempo,
                       anacrusis_beats=anacrusis)
    return score, warnings
