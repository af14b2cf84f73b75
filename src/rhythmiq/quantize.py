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
from .grammar import Leaf, RhythmGrammar
from .trees import (
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


def _sounding_end(measure: MeasureInput, left: float) -> tuple[float, int | None]:
    """End and pitch of whatever was sounding when ``left`` begins."""
    end, pitch = 0.0, None
    if measure.carried_pitch is not None:
        end, pitch = measure.carried_end, measure.carried_pitch
    for (pos, p), ext in zip(measure.onsets, measure.extents):
        if pos < left - EPS:
            end, pitch = ext, p
        else:
            break
    return end, pitch


def _max_leaves(grammar: RhythmGrammar, head: str, budget: int,
                memo: dict) -> int:
    key = (head, budget)
    if key in memo:
        return memo[key]
    best = 0
    for rule in grammar.rules_for(head):
        if isinstance(rule.body, Leaf):
            best = max(best, 1)
        elif budget >= 1 and all(
            grammar.min_depth(c) <= budget - 1 for c in rule.body.children
        ):
            best = max(
                best,
                sum(_max_leaves(grammar, c, budget - 1, memo) for c in rule.body.children),
            )
    memo[key] = best
    return best


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
    """
    config = config or QuantConfig()
    start = grammar.start_for(time_signature)
    alpha = config.alpha
    theta = config.rest_threshold
    onsets = measure.onsets

    def inside(left: float, right: float):
        return [
            (pos, pitch, ext)
            for (pos, pitch), ext in zip(onsets, measure.extents)
            if left - EPS <= pos < right - EPS
        ]

    def uncovered_after(end: float, left: float, right: float) -> float:
        return (right - min(max(end, left), right)) / (right - left)

    memo: dict = {}

    def best(head: str, left: Fraction, right: Fraction, depth: int):
        key = (head, left, right, depth)
        if key in memo:
            return memo[key]
        lf, rf = float(left), float(right)
        contained = inside(lf, rf)
        sound_end, _ = _sounding_end(measure, lf)

        # a leaf's uncovered tail: silence after the note (or carried sound)
        # relative to the leaf width; theta bounds what a leaf may absorb
        if len(contained) == 1:
            note_gap = uncovered_after(contained[0][2], lf, rf)
        empty_gap = uncovered_after(sound_end, lf, rf)

        def leaf_legal(label: str, degraded: bool) -> bool:
            if label == NOTE:
                if len(contained) != 1:
                    return False
                return degraded or note_gap <= theta + EPS
            if contained:
                return False
            if label == REST:
                return sound_end <= lf + EPS or degraded
            # continuation: something must still be sounding at the left edge
            if sound_end <= lf + EPS:
                return False
            return degraded or empty_gap <= theta + EPS

        def leaf_candidate(idx, rule):
            if rule.body.label == NOTE:
                pos, pitch, _ = contained[0]
                dist = abs(pos - lf)
                if dist < EPS:
                    dist = 0.0
                return (rule.weight + alpha * dist, 1, 0, (idx,),
                        RhythmTree(label=NOTE, pitch=pitch))
            return (rule.weight, 1, 0, (idx,),
                    RhythmTree(label=rule.body.label))

        winner = None
        for idx, rule in enumerate(grammar.rules):
            if rule.head != head:
                continue
            if isinstance(rule.body, Leaf):
                if not leaf_legal(rule.body.label, degraded=False):
                    continue
                cand = leaf_candidate(idx, rule)
            else:
                if depth >= grammar.max_depth:
                    continue
                children = rule.body.children
                k = len(children)
                width = (right - left) / k
                cost, leaves, tuplets = rule.weight, 0, (k & (k - 1) != 0)
                seq: tuple[int, ...] = (idx,)
                subtrees = []
                ok = True
                for i, child_head in enumerate(children):
                    sub = best(child_head, left + i * width,
                               left + (i + 1) * width, depth + 1)
                    if sub is None:
                        ok = False
                        break
                    cost += sub[0]
                    leaves += sub[1]
                    tuplets += sub[2]
                    seq = seq + sub[3]
                    subtrees.append(sub[4])
                if not ok:
                    continue
                cand = (cost, leaves, tuplets, seq,
                        RhythmTree(children=tuple(subtrees)))
            if winner is None or cand[:4] < winner[:4]:
                winner = cand

        if winner is None:
            # nothing strict fits: relax the coverage rule the way the
            # notation builder does at its depth limit, so a lone displaced
            # onset or an awkward tail still gets some leaf
            for idx, rule in enumerate(grammar.rules):
                if rule.head != head or not isinstance(rule.body, Leaf):
                    continue
                if not leaf_legal(rule.body.label, degraded=True):
                    continue
                cand = leaf_candidate(idx, rule)
                if winner is None or cand[:4] < winner[:4]:
                    winner = cand
        memo[key] = winner
        return winner

    result = best(start, Fraction(0), Fraction(1), 0)
    if result is None:
        cap = _max_leaves(grammar, start, grammar.max_depth, {})
        if len(onsets) > cap:
            raise CapacityError(
                f"{len(onsets)} onsets exceed the {cap} leaves reachable "
                f"within depth {grammar.max_depth}"
            )
        raise ParseFailureError(
            "no derivation fits this measure; the grammar lacks a needed rule"
        )
    cost, _, _, _, tree = result
    return tree, cost


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


def fallback_quantize(
    measure: MeasureInput,
    time_signature: TimeSignature = TimeSignature(4, 4),
    resolution: int = 4,
) -> RhythmTree:
    """Snap onsets to a uniform grid of ``resolution`` slots per beat.

    Collisions shift to the nearest free slot (rightward first).  Used when
    the grammar solver cannot explain a measure.
    """
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")
    total = time_signature.numerator * resolution
    used: set[int] = set()
    placed: list[tuple[int, int, float]] = []  # (slot, pitch, extent)
    for (pos, pitch), ext in zip(measure.onsets, measure.extents):
        slot = min(total - 1, max(0, round(pos * total)))
        s = slot
        while s in used and s < total:
            s += 1
        if s >= total:
            s = slot
            while s in used and s >= 0:
                s -= 1
            if s < 0:
                continue  # measure denser than the grid; drop the onset
        used.add(s)
        placed.append((s, pitch, ext))

    placed.sort()
    onsets = []
    extents = []
    for slot, pitch, ext in placed:
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


def _note_positions(grammar: RhythmGrammar, start: str) -> list[float]:
    """Left endpoints (measure units) where the grammar can put a note."""
    seen: set = set()
    points: set = set()

    def rec(head: str, left: Fraction, right: Fraction, depth: int):
        key = (head, left, right, depth)
        if key in seen:
            return
        seen.add(key)
        if grammar.leaf_rule(head, NOTE) is not None:
            points.add(left)
        if depth >= grammar.max_depth:
            return
        for rule in grammar.rules_for(head):
            if isinstance(rule.body, Leaf):
                continue
            k = len(rule.body.children)
            width = (right - left) / k
            for i, child in enumerate(rule.body.children):
                rec(child, left + i * width, left + (i + 1) * width, depth + 1)

    rec(start, Fraction(0), Fraction(1), 0)
    return sorted(float(p) for p in points)


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
        warnings.append(f"measure {m - m_lo}: {result}; grid fallback applied")
        return fallback_quantize(inp, sig, fallback_resolution)

    defer_window = 0.5 / bpb
    lattice = _note_positions(grammar, grammar.start_for(sig))
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
            on_lattice = any(abs(pos - p) < 1e-6 for p in lattice)
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
