"""Shared test helpers: random grammar construction, random measures, an
exhaustive derivation enumerator used as the optimality oracle, the
memoized recursive solver the compiled-lattice solver must reproduce, and
the Fraction-based decomposition, notation walk, augmenting-path note
matcher and MusicXML parser that the integer-tick trees layer, the window
matcher and the integer-tick MusicXML reader replaced, the score-edit keys
taken from printed events that the keys from the tree walk replaced, the
renderer from printed events that the one from ``ScoreModel.notes``
replaced, the three-pass MIDI reader and bisecting beat mapping that the
one-pass reader and the walk along the beats replaced, and random scores
to compare them on.

The enumerator builds every derivation of the grammar explicitly (no
memoized minima), so agreement with the solver's DP is a real check and not
a tautology.  Costs are folded in the same order the solver folds them
(rule weight first, then children left to right) so exact float comparison
is meaningful.
"""
import math
import random
import struct
import xml.etree.ElementTree as ET
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from math import gcd

from rhythmiq import (
    AlignmentError,
    BeatGrid,
    CapacityError,
    DecompositionError,
    EditMetrics,
    EmptyInputError,
    FormatError,
    GrammarRule,
    Leaf,
    MeasureInput,
    NoteEvent,
    ParseFailureError,
    Performance,
    QuantConfig,
    RhythmGrammar,
    RhythmTree,
    ScoreModel,
    Split,
    TimeSignature,
    UnsupportedContentError,
    ValidationError,
    sample_score,
)
from rhythmiq.midi_io import _CHANNEL_DATA_BYTES, _Reader, _TempoMap, _varlen
from rhythmiq.musicxml import _NATURAL_PC, _integer
from rhythmiq.trees import (
    CONTINUATION,
    NOTE,
    REST,
    _nominal_power,
    continuation,
    decompose_measure,
    notatable,
    note,
    rest,
    slice_measure,
    split,
    split_notatable,
)

SIG44 = TimeSignature(4, 4)
EPS = 1e-9


def is_monophonic(perf: Performance, tol: float = 0.0) -> bool:
    """Whether each note of ``perf`` ends by the next onset, within ``tol``."""
    return all(a.offset <= b.onset + tol for a, b in zip(perf.notes, perf.notes[1:]))


def random_grammar(rng: random.Random, max_rules: int = 12,
                   max_depth: int = 3) -> RhythmGrammar:
    """A small random grammar over heads A..D.

    Every head keeps at least one leaf rule, so min depths are zero and any
    depth bound is valid.  At most one ternary split per head keeps the
    enumeration oracle's cross products tractable.
    """
    heads = ["A", "B", "C", "D"][: rng.randint(1, 4)]
    per_head: dict[str, list] = {}
    for head in heads:
        labels = ["note", "rest", "continuation"]
        rng.shuffle(labels)
        bodies = [Leaf(labels[0])]
        for label in labels[1:]:
            if rng.random() < 0.35:
                bodies.append(Leaf(label))
        have_ternary = False
        for _ in range(rng.randint(0, 2)):
            arity = rng.choice((2, 2, 3))
            if arity == 3 and have_ternary:
                arity = 2
            have_ternary = have_ternary or arity == 3
            body = Split(tuple(rng.choice(heads) for _ in range(arity)))
            if body not in bodies:
                bodies.append(body)
        per_head[head] = bodies

    # trim extras (never the guaranteed first leaf) down to the rule budget
    total = sum(len(b) for b in per_head.values())
    while total > max_rules:
        head = rng.choice([h for h in heads if len(per_head[h]) > 1])
        per_head[head].pop(rng.randrange(1, len(per_head[head])))
        total -= 1

    rules = []
    for head in heads:
        raw = [rng.uniform(0.2, 1.0) for _ in per_head[head]]
        norm = sum(raw)
        rules += [
            GrammarRule(head, body, -math.log(w / norm))
            for body, w in zip(per_head[head], raw)
        ]
    return RhythmGrammar({SIG44: heads[0]}, rules, rng.randint(1, max_depth))


def random_measure(rng: random.Random) -> MeasureInput:
    """Random monophonic measure content, on-grid half the time."""
    n = rng.randint(0, 5)
    slots = sorted(rng.sample(range(48), n))
    onsets, extents = [], []
    for slot in slots:
        pos = slot / 48
        if rng.random() < 0.5:
            pos = min(0.999, max(0.0, pos + rng.uniform(-0.008, 0.008)))
        onsets.append(pos)
    for i, pos in enumerate(onsets):
        ceiling = onsets[i + 1] if i + 1 < n else 1.0 + rng.uniform(0.0, 0.4)
        ext = pos + rng.uniform(0.02, 0.5)
        extents.append(max(pos + 1e-4, min(ext, ceiling)))
    carried_pitch, carried_end = None, 0.0
    if rng.random() < 0.3:
        carried_pitch = 60
        carried_end = rng.uniform(0.05, 0.9)
    return MeasureInput(
        tuple((pos, 60 + i) for i, pos in enumerate(onsets)),
        tuple(extents),
        carried_pitch,
        carried_end,
    )


def random_notated_measure(rng: random.Random):
    """Random exact content of one notated measure, in measure fractions:
    (position, pitch) onsets on a few families of grids (binary, ternary,
    quintuple, mixed, and odd primes up to 11), their extents, some held
    over the barline, and half the time a note carried in."""
    dens = rng.choice([(2, 4, 8, 16), (3, 6, 12), (5, 10), (2, 3, 4, 6, 8, 12, 16, 24),
                       (7, 9, 11, 32, 64)])
    positions = sorted({
        Fraction(rng.randrange(d), d)
        for d in (rng.choice(dens) for _ in range(rng.randint(0, 8)))
    })
    extents = []
    for i, pos in enumerate(positions):
        d = rng.choice(dens)
        end = pos + Fraction(rng.randint(1, d), d)
        if i + 1 < len(positions) and rng.random() < 0.6:
            end = min(end, positions[i + 1])  # legato up to the next onset
        extents.append(end)
    carried_pitch, carried_end = None, Fraction(0)
    if rng.random() < 0.5:
        d = rng.choice(dens)
        carried_pitch, carried_end = 55, Fraction(rng.randint(0, 2 * d), d)
    onsets = [(pos, 60 + i) for i, pos in enumerate(positions)]
    return onsets, extents, carried_pitch, carried_end


def enumerate_min_cost(measure: MeasureInput, grammar: RhythmGrammar,
                       config: QuantConfig | None = None,
                       sig: TimeSignature = SIG44, k_in: int = 0, k_out: int = 0,
                       final: bool = False):
    """Minimum cost of the measure's (k_in, k_out) entry by complete
    enumeration, or None if no derivation has those states.

    Legality matches the solver contract.  A leaf [l, r) holds the onsets in
    [l - EPS, r - EPS).  Those at or before its midpoint (within EPS) are
    its note, at alpha * (p - l); at most one past it moves to r, at
    alpha * (r - p), as the next leaf's note.  k_in = 1 at the measure's
    start makes the carried note the one aligned onto the downbeat.  In a
    ``final`` measure a leaf ending at the closing barline keeps all its
    onsets, none moves past the measure.  Each leaf pays beta = alpha / 8
    per unit of sound it gets wrong, e being the end of the sound ringing
    in: a note, which needs exactly one note, beta * (r - end) for the
    silence after its release; a continuation, which needs e > l + EPS,
    beta * (r - e) when e < r; a rest, which needs e <= r + EPS,
    beta * (e - l) when e > l + EPS.
    """
    config = config or QuantConfig()
    alpha = config.alpha
    beta = alpha * 0.125

    def sounding_at(left: float) -> float:
        end = measure.carried_end if measure.carried_pitch is not None else 0.0
        for (pos, _), ext in zip(measure.onsets, measure.extents):
            if pos < left - EPS:
                end = ext
        return end

    def derivations(head: str, left: Fraction, right: Fraction,
                    depth: int, k_in: int) -> list[tuple[float, int]]:
        """(cost, k_out) of every derivation taking k_in onsets in."""
        lf, rf = float(left), float(right)
        if k_in and lf == 0 and measure.carried_pitch is None:
            return []
        contained = [
            (pos, ext)
            for (pos, _), ext in zip(measure.onsets, measure.extents)
            if lf - EPS <= pos < rf - EPS
        ]
        mid = (lf + rf) / 2
        stay = [(pos, ext) for pos, ext in contained
                if pos <= mid + EPS or (final and right == 1)]
        moved = contained[len(stay):]
        end = sounding_at(lf)

        def leaf_costs() -> list[tuple[float, int]]:
            if len(moved) > 1 or k_in + len(stay) > 1:
                return []
            push = alpha * (rf - moved[0][0]) if moved else 0.0
            out = []
            for rule in grammar.rules_for(head):
                if not isinstance(rule.body, Leaf):
                    continue
                label = rule.body.label
                if label == "note":
                    if k_in + len(stay) != 1:
                        continue
                    if k_in:
                        note_end, extra = max(end, lf), push
                    else:
                        (pos, note_end), = stay
                        d = abs(pos - lf)
                        extra = alpha * (0.0 if d < EPS else d) + push
                    silence = beta * (rf - note_end) if note_end < rf else 0.0
                    out.append((rule.weight + (extra + silence), len(moved)))
                elif label == "rest":
                    if k_in or stay or end > rf + EPS:
                        continue
                    sound = beta * (end - lf) if end > lf + EPS else 0.0
                    out.append((rule.weight + (push + sound), len(moved)))
                else:
                    if k_in or stay or end <= lf + EPS:
                        continue
                    silence = beta * (rf - end) if end < rf else 0.0
                    out.append((rule.weight + (push + silence), len(moved)))
            return out

        found = leaf_costs()
        if depth < grammar.max_depth:
            for rule in grammar.rules_for(head):
                if isinstance(rule.body, Leaf):
                    continue
                k = len(rule.body.children)
                w = (right - left) / k
                partial = [(rule.weight, k_in)]
                for i, child in enumerate(rule.body.children):
                    subs = {k_mid: derivations(child, left + i * w, left + (i + 1) * w,
                                               depth + 1, k_mid)
                            for k_mid in {k_mid for _, k_mid in partial}}
                    partial = [(cost + c, k_next) for cost, k_mid in partial
                               for c, k_next in subs[k_mid]]
                found += partial
        return found

    costs = [cost for cost, k in derivations(grammar.start_for(sig), Fraction(0),
                                             Fraction(1), 0, k_in) if k == k_out]
    return min(costs) if costs else None


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


def _finest_alignment_clash(measure: MeasureInput, grammar: RhythmGrammar,
                            start: str, final: bool) -> bool:
    """Whether two onsets, or the last one and the closing barline, align to
    one boundary in the narrowest cells a note may fill; in a ``final``
    measure the last cell keeps its onsets."""
    cells = set()

    def visit(head: str, left: Fraction, right: Fraction, depth: int) -> None:
        for rule in grammar.rules_for(head):
            if isinstance(rule.body, Leaf):
                if rule.body.label == NOTE:
                    cells.add((right - left, left, right))
            elif depth < grammar.max_depth:
                w = (right - left) / len(rule.body.children)
                for i, child in enumerate(rule.body.children):
                    visit(child, left + i * w, left + (i + 1) * w, depth + 1)

    visit(start, Fraction(0), Fraction(1), 0)
    edges = []
    for pos, _ in measure.onsets:
        holding = [c for c in sorted(cells) if float(c[1]) - EPS <= pos < float(c[2]) - EPS]
        if holding:
            _, left, right = holding[0]
            lf, rf = float(left), float(right)
            moves = pos > (lf + rf) / 2 + EPS and not (final and right == 1)
            edges.append(right if moves else left)
    return len(set(edges)) < len(edges) or Fraction(1) in edges


def reference_quantize_measure(
    measure: MeasureInput,
    grammar: RhythmGrammar,
    config: QuantConfig | None = None,
    time_signature: TimeSignature = TimeSignature(4, 4),
    *,
    states: bool = False,
    final: bool = False,
):
    """The recursive Fraction solver, kept as the reference of
    ``quantize_measure``: same trees, bit-identical costs, same errors.

    Aligned semantics: a leaf [l, r) holds the onsets in [l - EPS, r - EPS);
    those at or before its midpoint (within EPS) are its note, at
    alpha * (p - l), and at most one past it moves to r, at alpha * (r - p),
    as the next leaf's note; in a ``final`` measure a leaf ending at the
    closing barline keeps all its onsets.  Leaves pay beta = alpha / 8 for
    the sound they get wrong, as ``enumerate_min_cost`` says, and are
    offered in label order note, rest, continuation, so a rest wins a tie.
    ``best`` keeps each cell's winner per (k_in, k_out); a split chains k
    through its children left to right.

    Returns the (0, 0) entry's tree and cost, or raises CapacityError,
    AlignmentError or ParseFailureError.  With ``states`` returns
    {(k_in, k_out): (tree, cost) or None}; the k_in = 1 entries take the
    carried note as the one aligned onto the downbeat.
    """
    config = config or QuantConfig()
    start = grammar.start_for(time_signature)
    alpha = config.alpha
    beta = alpha * 0.125
    onsets = measure.onsets

    def inside(left: float, right: float):
        return [
            (pos, pitch, ext)
            for (pos, pitch), ext in zip(onsets, measure.extents)
            if left - EPS <= pos < right - EPS
        ]

    memo: dict = {}

    def best(head: str, left: Fraction, right: Fraction, depth: int, k_in: int):
        """{k_out: (cost, leaves, tuplets, tree)} of the cell's winners."""
        key = (head, left, right, depth, k_in)
        if key in memo:
            return memo[key]
        lf, rf = float(left), float(right)
        contained = inside(lf, rf)
        sound_end, sound_pitch = _sounding_end(measure, lf)
        mid = (lf + rf) / 2
        stay = [c for c in contained if c[0] <= mid + EPS or (final and right == 1)]
        moved = contained[len(stay):]
        k_out = len(moved)
        push = alpha * (rf - moved[0][0]) if moved else 0.0
        # the leaf's note: the onset aligned in from before, or its own
        if k_in:
            note = ((sound_pitch, max(sound_end, lf), 0.0) if sound_pitch is not None
                    else None)
        elif stay:
            pos, pitch, ext = stay[0]
            dist = abs(pos - lf)
            note = (pitch, ext, alpha * (0.0 if dist < EPS else dist))
        else:
            note = None
        notes = k_in + len(stay)

        def leaf_price(label: str) -> float | None:
            """What the leaf pays for the sound it gets wrong, None where
            the label is not admissible."""
            if k_out > 1 or notes > 1:
                return None
            if label == NOTE:
                if notes != 1 or note is None:
                    return None
                return beta * (rf - note[1]) if note[1] < rf else 0.0
            if notes:
                return None
            if label == REST:
                if sound_end > rf + EPS:
                    return None
                return beta * (sound_end - lf) if sound_end > lf + EPS else 0.0
            # continuation: something must still be sounding past the left edge
            if sound_end <= lf + EPS:
                return None
            return beta * (rf - sound_end) if sound_end < rf else 0.0

        def leaf_candidate(rule, price: float):
            if rule.body.label == NOTE:
                return (rule.weight + (note[2] + push + price), 1, 0,
                        RhythmTree(label=NOTE, pitch=note[0]))
            return (rule.weight + (push + price), 1, 0, RhythmTree(label=rule.body.label))

        winners: dict = {}

        def offer(k: int, cand) -> None:
            if k not in winners or cand[:3] < winners[k][:3]:
                winners[k] = cand

        head_rules = grammar.rules_for(head)
        for label in (NOTE, REST, CONTINUATION):
            for rule in head_rules:
                if rule.body == Leaf(label):
                    price = leaf_price(label)
                    if price is not None:
                        offer(k_out, leaf_candidate(rule, price))
        for rule in head_rules:
            if isinstance(rule.body, Leaf) or depth >= grammar.max_depth:
                continue
            children = rule.body.children
            k = len(children)
            width = (right - left) / k
            # per k between children: (cost, leaves, tuplets, subtrees)
            front = {k_in: (rule.weight, 0, int(k & (k - 1) != 0), ())}
            for i, child_head in enumerate(children):
                nxt: dict = {}
                for k_mid in (0, 1):
                    if k_mid not in front:
                        continue
                    cost, leaves, tuplets, subtrees = front[k_mid]
                    subs = best(child_head, left + i * width,
                                left + (i + 1) * width, depth + 1, k_mid)
                    for k_next in (0, 1):
                        if k_next not in subs:
                            continue
                        sub = subs[k_next]
                        cand = (cost + sub[0], leaves + sub[1], tuplets + sub[2],
                                subtrees + (sub[3],))
                        if k_next not in nxt or cand[:3] < nxt[k_next][:3]:
                            nxt[k_next] = cand
                front = nxt
            for k_end in (0, 1):
                if k_end in front:
                    cost, leaves, tuplets, subtrees = front[k_end]
                    offer(k_end, (cost, leaves, tuplets, RhythmTree(children=subtrees)))
        memo[key] = winners
        return winners

    def entries(k_in: int) -> dict:
        if k_in and measure.carried_pitch is None:
            return {}
        return best(start, Fraction(0), Fraction(1), 0, k_in)

    if states:
        return {
            (k_in, k_out): (winner[3], winner[0]) if winner else None
            for k_in in (0, 1) for k_out in (0, 1)
            for winner in [entries(k_in).get(k_out)]
        }
    result = entries(0).get(0)
    if result is None:
        cap = _max_leaves(grammar, start, grammar.max_depth, {})
        if len(onsets) > cap:
            raise CapacityError(
                f"{len(onsets)} onsets exceed the {cap} leaves reachable "
                f"within depth {grammar.max_depth}"
            )
        if _finest_alignment_clash(measure, grammar, start, final):
            raise AlignmentError("two onsets align to one boundary")
        raise ParseFailureError(
            "no derivation fits this measure; the grammar lacks a needed rule"
        )
    cost, _, _, tree = result
    return tree, cost


# ---------------------------------------------------------------------------
# trees and note-matching references


def _reference_split_arity(boundaries: list[Fraction], left: Fraction, right: Fraction) -> int:
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


def reference_decompose_measure(
    onsets: list[tuple[Fraction, int]],
    extents: list[Fraction],
    time_signature: TimeSignature,
    max_depth: int = 4,
    carried_pitch: int | None = None,
    carried_end: Fraction = Fraction(0),
) -> RhythmTree:
    """The Fraction decomposition that the integer-tick ``decompose_measure``
    replaced, kept as its reference: same trees, same errors.

    Build the canonical rhythm tree of one notated measure.

    Positions are fractions of the measure.  ``extents[i]`` is where note i
    stops sounding (it may exceed 1 when the note is held over the barline).
    The measure splits into ``numerator`` beats at the top, then binary
    subdivisions, switching to ternary (or a higher odd prime) only where a
    boundary cannot be reached by halving.  Silence merges into the coarsest
    leaves; a gap covering no more than half a leaf is absorbed into the
    preceding note instead of becoming a rest.

    Raises DecompositionError when an onset cannot be placed within
    ``max_depth`` levels.
    """
    rest_threshold = Fraction(1, 2)
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
            k = _reference_split_arity(boundaries, left, right)
        width = (right - left) / k
        children = tuple(
            build(left + i * width, left + (i + 1) * width, depth + 1)
            for i in range(k)
        )
        return RhythmTree(children=children)

    tree = build(Fraction(0), Fraction(1), 0)
    _check_flow(tree, carried=carried_pitch is not None and carried_end > 0)
    return tree


def _check_flow(tree: RhythmTree, carried: bool) -> None:
    """Raise ValidationError on a continuation leaf with no sounding leaf
    (or ``carried`` sound) before it."""
    sounding = carried
    for leaf, _, _ in tree.leaves():
        if leaf.label == CONTINUATION and not sounding:
            raise ValidationError("continuation leaf with nothing to continue")
        sounding = leaf.label != REST


@dataclass
class Event:
    """A printed note or rest of the reference walks.

    ``onset`` and ``duration`` are fractions of the measure (sounding time);
    ``notated`` is the printed duration in whole-note units; ``timemod`` is
    the MusicXML actual/normal pair of a tuplet member.  ``tie_to`` is
    settled once the next event is printed.
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


def printed_events(measures) -> list[list[Event]]:
    """Per measure, the printed pieces of ``_Notator.pieces`` (a list of
    them per measure, as ``ScoreModel.notated_measures`` gives) as events,
    for comparison with the reference walks: a note is tied on when the
    piece after it, in its measure or the next, is tied from it, which is
    where ``emit_musicxml`` prints a tie start."""
    out = [
        [Event(REST if pitch is None else NOTE, Fraction(onset, den),
               Fraction(duration, den), notated, pitch, timemod, group, tie_from)
         for pitch, tie_from, onset, duration, den, notated, timemod, group in pieces]
        for pieces in measures
    ]
    flat = [ev for events in out for ev in events]
    for a, b in zip(flat, flat[1:]):
        a.tie_to = a.kind == NOTE and b.tie_from
    return out


def reference_tree_to_notation(
    tree: RhythmTree,
    time_signature: TimeSignature,
    carried_pitch: int | None = None,
) -> list[Event]:
    """The Fraction walk that the integer ``_Notator.pieces`` replaced,
    kept as its reference: equal events, same errors.

    Flatten a measure tree into printed events.

    Runs of a note leaf followed by continuation leaves merge into a single
    printed duration when the sum is printable and the run stays inside one
    tuplet group; otherwise the run is split into tied events.  A leading
    continuation run becomes a note tied from the previous measure
    (``carried_pitch`` supplies its pitch); a continuation after a rest
    raises ValidationError.
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
    events: list[Event] = []

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
                events.append(Event(
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
        else:  # a continuation run, tied from the previous measure when it opens this one
            if idx:  # after a rest, as a note's run takes in its continuations
                raise ValidationError("continuation leaf with nothing to continue")
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


def reference_max_matching(adjacency: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size via augmenting paths: the matcher
    ``note_metrics`` used before its per-pitch window matcher, kept as its
    reference."""
    match_right = [-1] * n_right

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adjacency[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if augment(u, [False] * n_right):
            size += 1
    return size


def reference_parse_musicxml(text: str) -> tuple[ScoreModel, list[str]]:
    """The ``Fraction``-cursor MusicXML parser that the integer-tick
    ``parse_musicxml`` replaced, kept as its reference: positions are exact
    measure fractions, a tie stop merges within 1e-9 of a measure, and each
    measure is decomposed by ``reference_decompose_measure`` at depth 10."""
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

    part = parts[0]
    measure_elems = part.findall("measure")
    if not measure_elems:
        raise FormatError("part has no measures")
    n = len(measure_elems)
    anacrusis = Fraction(0)

    for m_index, measure in enumerate(measure_elems):
        where = f"measure {m_index + 1}: "
        attributes = measure.find("attributes")
        if attributes is not None:
            d = attributes.findtext("divisions")
            if d is not None:
                divisions = _integer(d, where, "divisions", positive=True)
            t = attributes.find("time")
            if t is not None:
                new = TimeSignature(
                    _integer(t.findtext("beats"), where, "time beats"),
                    _integer(t.findtext("beat-type"), where, "time beat-type"),
                )
                # a score has one signature
                if sig is not None and new != sig:
                    raise UnsupportedContentError(
                        f"{where}time signature changes from {sig} to {new}")
                sig = new
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

        # the fill is checked, and a pickup placed at the first barline, as
        # each measure ends
        content = cursor
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
            reference_decompose_measure(
                onsets, extents, sig, max_depth=10,
                carried_pitch=carried_pitch, carried_end=carried_end,
            )
        )

    score = ScoreModel(
        sig, measures,
        tempo_marking=tempo_marking if tempo_marking is not None else 120.0,
        anacrusis_beats=anacrusis,
    )
    return score, warnings


# score edit keys

SCORE_SIGNATURES = [TimeSignature(*sig) for sig in ((4, 4), (3, 4), (6, 8), (7, 8),
                                                    (5, 8), (5, 4))]


def random_score(rng: random.Random, sig: TimeSignature | None = None,
                 n_measures: int | None = None) -> ScoreModel:
    """A random score of random trees: duplet, triplet and quintuplet
    splits; notes of three pitches, rests, and continuations, mostly after
    sounding leaves, so notes tie within and across measures.  About one
    score in twenty opens with a continuation with nothing to continue; in
    5/8 and 5/4 a triplet split outside a tuplet prints a duration that
    cannot be printed; and there a leaf often prints as two or more
    pieces."""
    sig = sig or rng.choice(SCORE_SIGNATURES)
    sounding = rng.random() < 0.05

    def leaf() -> RhythmTree:
        nonlocal sounding
        r = rng.random()
        if (sounding and r < 0.3) or r < 0.02:
            return continuation()
        sounding = r < 0.75
        return note(rng.choice((60, 62, 64))) if sounding else rest()

    def tree(depth: int) -> RhythmTree:
        if depth == 0 or rng.random() < 0.4:
            return leaf()
        return split(*[tree(depth - 1) for _ in range(rng.choice((2, 2, 3, 5)))])

    if n_measures is None:
        n_measures = rng.randint(1, 5)
    return ScoreModel(sig, [tree(3) for _ in range(n_measures)])


def pickup_score(rng: random.Random, grammar: RhythmGrammar, tie_out: bool,
                 rest_open: bool) -> ScoreModel:
    """A sampled 4/4 score of 2-5 measures whose first 1-3 beats are rests,
    with ``anacrusis_beats`` the rest of the measure.  With ``tie_out`` the
    last note of the pickup is held into bar 1; with ``rest_open`` the
    pickup opens with half a beat of rest.  Measures are re-decomposed at
    the parser's depth bound, so the score is in canonical form."""
    score = sample_score(grammar, rng.randint(2, 5), rng)
    num = score.time_signature.numerator
    silent = rng.randint(1, 3)
    lead = Fraction(silent, num)
    cut = lead + Fraction(1, 2 * num) if rest_open else lead
    notes = [(max(start, lead), end, pitch) for start, end, pitch in score.notes()
             if (start >= cut if rest_open else end > lead)]
    if not any(start < 1 for start, _, _ in notes):  # a pickup holds a note
        notes.insert(0, (Fraction(num - 1, num), Fraction(1), 67))
    if tie_out:
        last = max(i for i, (start, _, _) in enumerate(notes) if start < 1)
        later = notes[last + 1:]
        end = later[0][1] if later else 1 + Fraction(1, num)
        notes[last:] = [(notes[last][0], end, notes[last][2]), *later[1:]]
    length = math.lcm(*(x.denominator for note_ in notes for x in note_[:2]))
    ticks = [(start.numerator * (length // start.denominator),
              end.numerator * (length // end.denominator), pitch)
             for start, end, pitch in notes]
    measures = []
    for m in range(len(score.measures)):
        onsets, extents, carried_pitch, carried_end = slice_measure(ticks, m, length)
        measures.append(decompose_measure(
            onsets, extents, score.time_signature, length, max_depth=10,
            carried_pitch=carried_pitch, carried_end=carried_end))
    return ScoreModel(score.time_signature, measures, score.tempo_marking,
                      anacrusis_beats=num - silent)


def reference_notated_measures(score: ScoreModel) -> list[list[Event]]:
    """``ScoreModel.notated_measures`` on the Fraction walk: each measure
    printed by ``reference_tree_to_notation``, the pitch of its last note
    leaf carried on while its last leaf sounds."""
    out = []
    starts_tied = []
    carried = None
    for tree in score.measures:
        out.append(reference_tree_to_notation(tree, score.time_signature, carried))
        leaves = [leaf for leaf, _, _ in tree.leaves()]
        starts_tied.append(leaves[0].label == CONTINUATION)
        if leaves[-1].label in (NOTE, CONTINUATION):
            for leaf in reversed(leaves):
                if leaf.label == NOTE:
                    carried = leaf.pitch
                    break
        else:
            carried = None
    for prev, tied in zip(out, starts_tied[1:]):
        if prev and prev[-1].kind == NOTE:
            prev[-1].tie_to = tied
    return out


def reference_measure_keys(score: ScoreModel):
    """The score-edit keys taken from the printed events of the Fraction
    walk, kept as the reference of the keys ``score_edit_metrics`` takes
    from the integer tree walk: equal counts, same errors.

    Per measure: set of note keys (onset, pitch) and rest keys (onset).
    """
    out = []
    for events in reference_notated_measures(score):
        notes = set()
        rests = set()
        for ev in events:
            if ev.kind == NOTE and not ev.tie_from:
                notes.add((ev.onset, ev.pitch))
            elif ev.kind == REST:
                rests.add(ev.onset)
        out.append((notes, rests))
    return out


def reference_score_edit_metrics(ref: ScoreModel, est: ScoreModel) -> EditMetrics:
    """``score_edit_metrics`` on the keys of ``reference_measure_keys``."""
    ref_keys = reference_measure_keys(ref)
    est_keys = reference_measure_keys(est)
    empty = (set(), set())
    n = max(len(ref_keys), len(est_keys))

    note_ins = note_del = rest_ins = rest_del = timesig = 0
    for i in range(n):
        if i >= len(ref_keys) or i >= len(est_keys):
            timesig += 1
        elif ref.time_signature != est.time_signature:
            timesig += 1
        ref_notes, ref_rests = ref_keys[i] if i < len(ref_keys) else empty
        est_notes, est_rests = est_keys[i] if i < len(est_keys) else empty
        note_ins += len(ref_notes - est_notes)
        note_del += len(est_notes - ref_notes)
        rest_ins += len(ref_rests - est_rests)
        rest_del += len(est_rests - ref_rests)

    n_ref_notes = sum(len(notes) for notes, _ in ref_keys)
    return EditMetrics(note_ins, note_del, rest_ins, rest_del, timesig,
                       n_ref_notes)


def reference_render_performance(score: ScoreModel, bpm: float | None = None):
    """``render_performance`` from printed events: notes tied across events
    merge, rests are silence, and events before a pickup's final beats are
    skipped.  Raises on a score whose durations cannot be printed."""
    if bpm is None:
        bpm = score.tempo_marking
    beat = 60.0 / bpm
    num = score.time_signature.numerator
    pickup = score.anacrusis_beats

    notes = []
    pending = None  # (start_beats, end_beats, pitch)
    for m_index, events in enumerate(reference_notated_measures(score)):
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
        [NoteEvent(float(s) * beat, float(e - s) * beat, p) for s, e, p in notes]
    )


# ---------------------------------------------------------------------------
# the MIDI reader and beat mapping the one-pass reader and walk replaced

def _reference_parse_track(chunk: bytes):
    """Yield (tick, kind, payload) events from one MTrk chunk body; data
    bytes are read as they come, high bit or not."""
    size = len(chunk)
    pos = tick = 0
    running = None
    while pos < size:
        if chunk[pos] < 0x80:  # a one-byte delta time
            tick += chunk[pos]
            pos += 1
        else:
            delta, pos = _varlen(chunk, pos)
            tick += delta
        if pos >= size:
            raise FormatError("truncated MIDI data")
        status = chunk[pos]
        if status < 0x80:
            if running is None:
                raise FormatError("data byte with no running status")
            status = running  # the byte read is the message's first data byte
        else:
            pos += 1
        if status == 0xFF:
            if pos >= size:
                raise FormatError("truncated MIDI data")
            meta_type = chunk[pos]
            length, pos = _varlen(chunk, pos + 1)
            if pos + length > size:
                raise FormatError("truncated MIDI data")
            payload = chunk[pos : pos + length]
            pos += length
            running = None
            if meta_type == 0x51:
                if length != 3:
                    raise FormatError("set-tempo meta event must carry 3 bytes")
                yield tick, "tempo", int.from_bytes(payload, "big")
            elif meta_type == 0x2F:
                yield tick, "end", None
                return
        elif status in (0xF0, 0xF7):
            length, pos = _varlen(chunk, pos)
            if pos + length > size:
                raise FormatError("truncated MIDI data")
            pos += length
            running = None
        elif status >= 0xF0:
            raise FormatError(f"unsupported system message 0x{status:02x}")
        else:
            running = status
            kind = status & 0xF0
            end = pos + _CHANNEL_DATA_BYTES[kind]
            if end > size:
                raise FormatError("truncated MIDI data")
            channel = status & 0x0F
            if kind == 0x90 and chunk[pos + 1] > 0:
                yield tick, "on", (channel, chunk[pos], chunk[pos + 1])
            elif kind == 0x80 or kind == 0x90:
                yield tick, "off", (channel, chunk[pos])
            pos = end


def reference_load_midi(data: bytes) -> Performance:
    """``load_midi`` as three passes: parse every track into tagged events,
    collect the tempo events, then pair note-ons with note-offs per track."""
    r = _Reader(data)
    if r.take(4) != b"MThd":
        raise FormatError("missing MThd header")
    if struct.unpack(">I", r.take(4))[0] != 6:
        raise FormatError("bad MThd length")
    fmt, ntracks, division = struct.unpack(">HHH", r.take(6))
    if fmt not in (0, 1):
        raise FormatError(f"unsupported MIDI format {fmt}")
    if division & 0x8000:
        raise FormatError("SMPTE division is not supported")
    if division == 0:
        raise FormatError("division must be positive")

    tracks = []
    for _ in range(ntracks):
        if r.take(4) != b"MTrk":
            raise FormatError("missing MTrk chunk")
        length = struct.unpack(">I", r.take(4))[0]
        tracks.append(list(_reference_parse_track(r.take(length))))

    tempo_events = [
        (tick, payload)
        for track in tracks
        for tick, kind, payload in track
        if kind == "tempo"
    ]
    tmap = _TempoMap(tempo_events, division)

    notes = []
    for track in tracks:
        open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        last_tick = track[-1][0] if track else 0  # ticks never decrease
        for tick, kind, payload in track:
            if kind == "on":
                channel, pitch, velocity = payload
                open_notes.setdefault((channel, pitch), []).append((tick, velocity))
            elif kind == "off":
                channel, pitch = payload
                stack = open_notes.get((channel, pitch))
                if stack:
                    on_tick, velocity = stack.pop(0)
                    if tick > on_tick:
                        notes.append((on_tick, tick, pitch, velocity))
        # close anything left hanging at end of track
        for (channel, pitch), stack in open_notes.items():
            for on_tick, velocity in stack:
                if last_tick > on_tick:
                    notes.append((on_tick, last_tick, pitch, velocity))

    if not notes:
        raise EmptyInputError("MIDI file contains no notes")

    events = []
    for on, off, pitch, velocity in notes:
        onset = tmap.seconds(on)
        events.append(NoteEvent(
            onset=onset,
            duration=tmap.seconds(off) - onset,
            pitch=pitch,
            velocity=max(1, velocity),
        ))
    return Performance(events)


def time_to_beats(grid: BeatGrid, t: float) -> float:
    """Map seconds to a continuous beat coordinate (0 = first annotation):
    linear within the beat interval that holds ``t``, found by bisection,
    and past either end along the nearest interval."""
    beats = grid.beats
    i = bisect_right(beats, t) - 1
    i = max(0, min(i, len(beats) - 2))
    dt = beats[i + 1] - beats[i]
    return i + (t - beats[i]) / dt
