"""Weighted rhythm grammars: file format, training, and sampling.

A grammar assigns each nonterminal a set of rules, either equal splits into
child nonterminals or leaf emissions (note, rest, continuation).  Weights are
negative log probabilities and every head's rule probabilities sum to one.
"""
from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .core import Record, TimeSignature
from .errors import GrammarError, ValidationError
from .trees import (
    CONTINUATION,
    LEAF_LABELS,
    NOTE,
    REST,
    RhythmTree,
    ScoreModel,
    decompose_measure,
    slice_measure,
)

PROB_TOLERANCE = 1e-9
# the deepest depth bound: a binary cell at depth 29 spans 2**-29 of a
# measure, still wider than the quantizer's 1e-9 tolerance, but its halves
# would not be, so no deeper cell can be told apart from its neighbours
_MAX_DEPTH = 29
# the most lattice nodes a measure may compile to; the default grammar has
# 97, while a grammar whose node splits into itself doubles them per level
_MAX_NODES = 1 << 16


class Split(Record):
    """Equal subdivision into child nonterminals (at least two)."""

    __slots__ = ("children",)

    def __init__(self, children: tuple[str, ...]):
        if len(children) < 2:
            raise ValidationError("a split needs at least 2 children")
        object.__setattr__(self, "children", children)

    def __str__(self) -> str:
        return "(" + " ".join(self.children) + ")"


class Leaf(Record):
    __slots__ = ("label",)

    def __init__(self, label: str):
        if label not in LEAF_LABELS:
            raise ValidationError(f"leaf label must be one of {LEAF_LABELS}")
        object.__setattr__(self, "label", label)

    def __str__(self) -> str:
        return self.label


class GrammarRule(Record):
    __slots__ = ("head", "body", "weight")

    def __init__(self, head: str, body: Split | Leaf, weight: float):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "weight", weight)  # negative log probability

    @property
    def probability(self) -> float:
        return math.exp(-self.weight)

    def __str__(self) -> str:
        return f"{self.head} -> {self.body} : {self.probability:.6f}"


class LatticeRule(NamedTuple):
    """One rule of a lattice node's head: a leaf ``label``, or a split into
    the ``children`` node ids (label None) with ``tuplet`` 1 for an arity
    that is not a power of two."""

    weight: float
    label: str | None
    children: tuple[int, ...]
    tuplet: int


class Lattice(NamedTuple):
    """Every derivation of one measure in a time signature, as a DAG laid
    out for the quantizer's bottom-up pass.

    Its nodes are the reachable (head, cell, depth) of the measure's
    derivations, ordered by right edge, narrowest first: children come
    before parents, every cell that ends at an edge before any that starts
    there, and the start symbol's node over the whole measure last.  A
    node's cell endpoints (left, right) are in measure units, rounded once
    from exact fractions, and its rules are the head's rules in grammar
    order, splits only above the depth bound.

    ``edges``: the distinct cell endpoints, ascending, so a measure looks
    up its onsets once per edge rather than twice per node.

    ``steps``: every node in node order, as (node, left edge index,
    right edge index, left, right, midpoint, NOTE rule, REST rule,
    CONTINUATION rule, leaf rules, splits).  A label's rule is None where
    the head has no such leaf; the leaf rules keep grammar order.  A split
    is (weight, tuplet, ((child, 2 << i) for each child i), rule, fewest,
    most + 1), where fewest and most bound the NOTE leaves of its
    derivations: a derivation of a cell that takes k_in onsets in and gives
    k_out out has k_in + onsets - k_out of them.

    ``unit``: the node count.  A derivation has fewer tuplet nodes than
    that, so leaves * unit + tuplets orders derivations as (leaves,
    tuplets) does.

    ``capacity``: the most leaves of any derivation of the whole measure.
    """

    edges: tuple[float, ...]
    steps: tuple[tuple, ...]
    unit: int
    capacity: int


def compile_lattice(grammar: RhythmGrammar, time_signature: TimeSignature) -> Lattice:
    """Expand the grammar's derivations of one measure into a ``Lattice``.

    Raises GrammarError when the grammar has no start symbol for
    ``time_signature``, or its derivations pass ``_MAX_NODES`` nodes.
    """
    start = grammar.start_for(time_signature)
    ids: dict[tuple, int] = {}
    nodes: list[tuple[float, float, tuple[LatticeRule, ...]]] = []

    def visit(head: str, left: int, right: int, den: int, depth: int) -> int:
        # the cell [left / den, right / den) in lowest terms, so a cell
        # reached along two paths is one node; int / int rounds once, as
        # float(Fraction) does
        g = math.gcd(left, right, den)
        left, right, den = left // g, right // g, den // g
        key = (head, left, right, den, depth)
        node = ids.get(key)
        if node is not None:
            return node
        rules = []
        for rule in grammar.rules_for(head):
            if isinstance(rule.body, Leaf):
                rules.append(LatticeRule(rule.weight, rule.body.label, (), 0))
            elif depth < grammar.max_depth:
                k = len(rule.body.children)
                width = right - left
                children = tuple(
                    visit(child, left * k + i * width, left * k + (i + 1) * width,
                          den * k, depth + 1)
                    for i, child in enumerate(rule.body.children)
                )
                rules.append(LatticeRule(rule.weight, None, children,
                                         int(k & (k - 1) != 0)))
        if len(nodes) == _MAX_NODES:
            raise GrammarError(f"the derivations of a {time_signature} measure pass "
                               f"{_MAX_NODES} lattice nodes; lower maxdepth")
        ids[key] = node = len(nodes)
        nodes.append((left / den, right / den, tuple(rules)))
        return node

    visit(start, 0, 1, 1, 0)
    # by right edge, then narrowest first: a split has two or more
    # children, so each is narrower than its parent or ends before it
    order = sorted(range(len(nodes)), key=lambda n: (nodes[n][1], -nodes[n][0]))
    rank = {n: i for i, n in enumerate(order)}
    nodes = [(lf, rf, tuple(rule._replace(children=tuple(rank[c] for c in rule.children))
                            for rule in rules))
             for lf, rf, rules in map(nodes.__getitem__, order)]

    edges = sorted({x for lf, rf, _ in nodes for x in (lf, rf)})
    index = {x: i for i, x in enumerate(edges)}
    # per node, over its derivations: the fewest and most NOTE leaves and
    # the most leaves; a node with none has inf, -inf and -inf, so a child
    # with no derivation sinks the split
    fewest: list[float] = []
    most: list[float] = []
    caps: list[float] = []
    steps = []
    for node, (lf, rf, rules) in enumerate(nodes):
        counts = [(int(rule.label == NOTE),) * 2 + (1,) if rule.label is not None else
                  tuple(sum(bound[c] for c in rule.children)
                        for bound in (fewest, most, caps))
                  for rule in rules]
        fewest.append(min((low for low, _, _ in counts), default=math.inf))
        most.append(max((high for _, high, _ in counts), default=-math.inf))
        caps.append(max((cap for _, _, cap in counts), default=-math.inf))
        leaves = tuple(rule for rule in rules if rule.label is not None)
        by_label = {rule.label: rule for rule in leaves}
        splits = tuple(
            (rule.weight, rule.tuplet,
             tuple((child, 2 << i) for i, child in enumerate(rule.children)), rule,
             low, high + 1)
            for rule, (low, high, _) in zip(rules, counts) if rule.label is None
        )
        steps.append((node, index[lf], index[rf], lf, rf, (lf + rf) / 2, by_label.get(NOTE),
                      by_label.get(REST), by_label.get(CONTINUATION), leaves, splits))
    # the start symbol derives a tree within the depth bound, so the
    # measure's node has a derivation
    return Lattice(tuple(edges), tuple(steps), len(nodes), caps[-1])


class RhythmGrammar:
    """An immutable weighted grammar with per-time-signature start symbols."""

    def __init__(self, starts: dict[TimeSignature, str],
                 rules: list[GrammarRule] | tuple[GrammarRule, ...],
                 max_depth: int = 4):
        if not 1 <= max_depth <= _MAX_DEPTH:
            raise GrammarError(
                f"max_depth must be >= 1 and <= {_MAX_DEPTH}, got {max_depth}")
        if not starts:
            raise GrammarError("grammar needs at least one start symbol")
        self.starts = dict(starts)
        self.rules = tuple(rules)
        self.max_depth = int(max_depth)
        self._lattices: dict[TimeSignature, Lattice] = {}

        self._by_head: dict[str, list[GrammarRule]] = {}
        for rule in self.rules:
            if rule.head in LEAF_LABELS:
                raise GrammarError(f"{rule.head!r} is a reserved leaf label")
            head_rules = self._by_head.setdefault(rule.head, [])
            if any(r.body == rule.body for r in head_rules):
                raise GrammarError(f"duplicate rule {rule.head} -> {rule.body}")
            head_rules.append(rule)

        for sig, sym in self.starts.items():
            if sym not in self._by_head:
                raise GrammarError(f"start symbol {sym!r} for {sig} has no rules")
        for rule in self.rules:
            if isinstance(rule.body, Split):
                for child in rule.body.children:
                    if child not in self._by_head:
                        raise GrammarError(
                            f"rule {rule.head} references unknown symbol {child!r}"
                        )

        for head, head_rules in self._by_head.items():
            total = sum(r.probability for r in head_rules)
            if not abs(total - 1.0) <= PROB_TOLERANCE:  # NaN fails it too
                raise GrammarError(
                    f"probabilities for head {head!r} sum to {total!r}, not 1"
                )

        self._min_depth = self._compute_min_depths()
        for head in self._reachable():
            if self._min_depth.get(head, math.inf) > self.max_depth:
                raise GrammarError(
                    f"symbol {head!r} cannot derive a tree within depth {self.max_depth}"
                )

    def _compute_min_depths(self) -> dict[str, float]:
        depths = {h: math.inf for h in self._by_head}
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                if isinstance(rule.body, Leaf):
                    d = 0.0
                else:
                    d = 1 + max(depths[c] for c in rule.body.children)
                if d < depths[rule.head]:
                    depths[rule.head] = d
                    changed = True
        return depths

    def _reachable(self) -> set[str]:
        seen = set(self.starts.values())
        frontier = list(seen)
        while frontier:
            head = frontier.pop()
            for rule in self._by_head.get(head, ()):
                if isinstance(rule.body, Split):
                    for child in rule.body.children:
                        if child not in seen:
                            seen.add(child)
                            frontier.append(child)
        return seen

    @property
    def nonterminals(self) -> set[str]:
        return set(self._by_head)

    def rules_for(self, head: str) -> list[GrammarRule]:
        return self._by_head.get(head, [])

    def start_for(self, time_signature: TimeSignature) -> str:
        try:
            return self.starts[time_signature]
        except KeyError:
            raise GrammarError(f"grammar has no start symbol for {time_signature}")

    def lattice(self, time_signature: TimeSignature) -> Lattice:
        """The compiled derivations of one measure, built on first use; the
        grammar is immutable, so each time signature compiles once."""
        lattice = self._lattices.get(time_signature)
        if lattice is None:
            lattice = compile_lattice(self, time_signature)
            self._lattices[time_signature] = lattice
        return lattice

    def min_depth(self, head: str) -> int:
        return int(self._min_depth[head])


# ---------------------------------------------------------------------------
# text format

_RULE_RE = re.compile(r"^(\w+)\s*->\s*(.+?)\s*:\s*([0-9.eE+-]+)$")
_SPLIT_RE = re.compile(r"^\(\s*(\w+(?:\s+\w+)*)\s*\)$")
_START_RE = re.compile(r"^start\s+(\d+)\s*/\s*(\d+)\s*=\s*(\w+)$")
_MAXDEPTH_RE = re.compile(r"^maxdepth\s*=\s*(\d+)$")


def parse_grammar_file(text: str) -> RhythmGrammar:
    """Parse the grammar text format.

    Lines are ``maxdepth = N``, ``start N/D = SYM``, rule lines
    ``HEAD -> (C1 C2 ... Ck) : prob`` or ``HEAD -> note|rest|continuation :
    prob``, and ``#`` comments.  Probabilities are renormalized per head; a
    deviation beyond 1e-6 draws a warning.
    """
    starts: dict[TimeSignature, str] = {}
    raw_rules: list[tuple[str, Split | Leaf, float]] = []
    first_line: dict[tuple[str, Split | Leaf], int] = {}
    start_line: dict[TimeSignature, int] = {}
    max_depth = 4

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _MAXDEPTH_RE.match(line)
        if m:
            max_depth = int(m.group(1))
            if not 1 <= max_depth <= _MAX_DEPTH:
                raise GrammarError(f"line {lineno}: maxdepth must be >= 1 and <= "
                                   f"{_MAX_DEPTH}, got {max_depth}")
            continue
        m = _START_RE.match(line)
        if m:
            try:
                sig = TimeSignature(int(m.group(1)), int(m.group(2)))
            except ValidationError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from None
            first = start_line.setdefault(sig, lineno)
            if first != lineno:
                raise GrammarError(
                    f"line {lineno}: duplicate start for {sig} (first on line {first})")
            starts[sig] = m.group(3)
            continue
        m = _RULE_RE.match(line)
        if m:
            head, body_text, prob_text = m.groups()
            if head in LEAF_LABELS:
                raise GrammarError(f"line {lineno}: {head!r} is a reserved leaf label")
            try:
                prob = float(prob_text)
            except ValueError:
                raise GrammarError(f"line {lineno}: bad probability {prob_text!r}")
            if not 0 < prob < math.inf:
                raise GrammarError(
                    f"line {lineno}: probability must be a finite number > 0, got {prob_text!r}")
            split_m = _SPLIT_RE.match(body_text)
            if split_m:
                try:
                    body: Split | Leaf = Split(tuple(split_m.group(1).split()))
                except ValidationError as exc:
                    raise GrammarError(f"line {lineno}: {exc}") from None
            elif body_text in LEAF_LABELS:
                body = Leaf(body_text)
            else:
                raise GrammarError(f"line {lineno}: bad rule body {body_text!r}")
            first = first_line.setdefault((head, body), lineno)
            if first != lineno:
                raise GrammarError(
                    f"line {lineno}: duplicate rule {head} -> {body} (first on line {first})"
                )
            raw_rules.append((head, body, prob))
            continue
        raise GrammarError(f"line {lineno}: cannot parse {line!r}")

    if not raw_rules:
        raise GrammarError("grammar file defines no rules")
    if not starts:
        raise GrammarError("grammar file defines no start symbols")

    totals: dict[str, float] = {}
    for head, _, prob in raw_rules:
        totals[head] = totals.get(head, 0.0) + prob
    for head, total in totals.items():
        if abs(total - 1.0) > 1e-6:
            warnings.warn(
                f"probabilities for head {head!r} sum to {total:.6g}; renormalizing",
                stacklevel=2,
            )
    rules = [
        GrammarRule(head, body, -math.log(prob / totals[head]))
        for head, body, prob in raw_rules
    ]
    return RhythmGrammar(starts, rules, max_depth)


def serialize_grammar(grammar: RhythmGrammar) -> str:
    """Render a grammar in the text format with 6-decimal probabilities."""
    lines = [f"maxdepth = {grammar.max_depth}"]
    for sig in sorted(grammar.starts, key=lambda s: (s.numerator, s.denominator)):
        lines.append(f"start {sig} = {grammar.starts[sig]}")
    for rule in grammar.rules:
        lines.append(str(rule))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# training

def _head_name(width: Fraction, time_signature: TimeSignature) -> str:
    if width == 1:
        return f"M{time_signature.numerator}_{time_signature.denominator}"
    if width.numerator == 1:
        return f"D{width.denominator}"
    return f"D{width.denominator}_{width.numerator}"


def train_grammar(
    corpus: list[ScoreModel],
    smoothing: float = 1.0,
    max_depth: int | None = None,
) -> RhythmGrammar:
    """Estimate a grammar from notated scores.

    Every measure already is a rhythm tree; its nodes are mapped to
    duration-class symbols (measure, beat, half-beat, ...) and each production
    is counted.  Probabilities use add-k smoothing over the observed rule
    inventory of each head: (count + k) / (total + k * |rules of head|).

    Args:
        corpus: scores to count productions from.
        smoothing: the k in add-k smoothing, >= 0.
        max_depth: depth bound of the result; default is the deepest tree seen.
    """
    if smoothing < 0:
        raise ValidationError(f"smoothing must be >= 0, got {smoothing}")
    if not math.isfinite(smoothing):
        raise ValidationError(f"smoothing must be finite, got {smoothing}")
    if not corpus:
        raise ValidationError("cannot train a grammar from an empty corpus")

    counts: dict[str, Counter] = {}
    starts: dict[TimeSignature, str] = {}
    deepest = 1

    def count_node(node: RhythmTree, head: str, width: Fraction,
                   sig: TimeSignature, depth: int):
        nonlocal deepest
        deepest = max(deepest, depth + node.depth())
        bucket = counts.setdefault(head, Counter())
        if node.is_leaf:
            bucket[Leaf(node.label)] += 1
            return
        k = len(node.children)
        child_width = width / k
        child_head = _head_name(child_width, sig)
        bucket[Split((child_head,) * k)] += 1
        for child in node.children:
            count_node(child, child_head, child_width, sig, depth + 1)

    for score in corpus:
        sig = score.time_signature
        start = _head_name(Fraction(1), sig)
        starts[sig] = start
        for tree in score.measures:
            count_node(tree, start, Fraction(1), sig, 0)

    rules = []
    for head in counts:
        bucket = counts[head]
        inventory = len(bucket)
        total = sum(bucket.values())
        for body, count in sorted(
            bucket.items(), key=lambda kv: (isinstance(kv[0], Leaf), str(kv[0]))
        ):
            prob = (count + smoothing) / (total + smoothing * inventory)
            rules.append(GrammarRule(head, body, -math.log(prob)))

    depth_bound = max_depth if max_depth is not None else deepest
    return RhythmGrammar(starts, rules, depth_bound)


# ---------------------------------------------------------------------------
# default grammar and sampling

_DEFAULT_GRAMMAR_TEXT = """\
# Default grammar for common-time monophonic transcription.
#
# Sixteenth and finer symbols emit notes only, so fine rhythms appear as
# dense clusters and silence always aligns with eighth-or-coarser leaves.
# At the default alpha = 256 true structure beats every onset-displacing
# coarser reading, triplets win for exact triplet spacing, and a swung pair
# (no middle onset) cannot be written as a tuplet at all.
maxdepth = 4
start 4/4 = M

M -> (B B B B) : 0.9348
M -> note : 0.0002
M -> rest : 0.035
M -> continuation : 0.03

B -> (E E) : 0.586
B -> (T T T) : 0.08
B -> note : 0.074
B -> rest : 0.13
B -> continuation : 0.13

E -> (S S) : 0.18
E -> note : 0.50
E -> rest : 0.16
E -> continuation : 0.16

S -> (X X) : 0.13
S -> note : 0.87

T -> (G G) : 0.15
T -> note : 0.85

G -> note : 1.0

X -> note : 1.0
"""


def default_grammar() -> RhythmGrammar:
    """The grammar shipped with the package (4/4 only)."""
    return parse_grammar_file(_DEFAULT_GRAMMAR_TEXT)


def sample_tree(grammar: RhythmGrammar, rng, start: str,
                prev_sounding: bool = False) -> RhythmTree:
    """Sample one measure tree; continuations only appear after sound."""

    def pick(head: str, budget: int, sounding: bool) -> tuple[RhythmTree, bool]:
        feasible = []
        for rule in grammar.rules_for(head):
            if isinstance(rule.body, Leaf):
                if rule.body.label == CONTINUATION and not sounding:
                    continue
                feasible.append(rule)
            else:
                need = 1 + max(grammar.min_depth(c) for c in rule.body.children)
                if need <= budget:
                    feasible.append(rule)
        if not feasible:
            raise GrammarError(f"no feasible rule for {head!r} while sampling")
        weights = [r.probability for r in feasible]
        rule = rng.choices(feasible, weights=weights)[0]
        if isinstance(rule.body, Leaf):
            label = rule.body.label
            if label == NOTE:
                return RhythmTree(label=NOTE, pitch=60), True
            if label == REST:
                return RhythmTree(label=REST), False
            return RhythmTree(label=CONTINUATION), sounding
        children = []
        for child_head in rule.body.children:
            child, sounding = pick(child_head, budget - 1, sounding)
            children.append(child)
        return RhythmTree(children=tuple(children)), sounding

    tree, _ = pick(start, grammar.max_depth, prev_sounding)
    return tree


def sample_score(
    grammar: RhythmGrammar,
    n_measures: int,
    rng,
    time_signature: TimeSignature = TimeSignature(4, 4),
    pitch_range: tuple[int, int] = (55, 79),
    tempo: float = 120.0,
) -> ScoreModel:
    """Sample a score and return it in canonical (quantizer-image) form.

    Trees are sampled measure by measure, pitches follow a bounded random
    walk, and the result is re-decomposed canonically so silence occupies the
    coarsest leaves, exactly as the quantizer would notate it.
    """
    start = grammar.start_for(time_signature)
    raw = []
    sounding = False
    for _ in range(n_measures):
        tree = sample_tree(grammar, rng, start, prev_sounding=sounding)
        raw.append(tree)
        labels = tree.leaf_labels()
        sounding = labels[-1] in (NOTE, CONTINUATION)

    # the sampled notes in ticks of a measure ``length`` long, as
    # decomposition takes them, pitched by a bounded random walk
    spans = ScoreModel(time_signature, raw).notes()
    length = math.lcm(*(x.denominator for span in spans for x in span[:2]))
    lo, hi = pitch_range
    pitch = (lo + hi) // 2
    ticks = []
    for onset, extent, _ in spans:
        pitch = min(hi, max(lo, pitch + rng.randint(-4, 4)))
        ticks.append((onset.numerator * (length // onset.denominator),
                      extent.numerator * (length // extent.denominator), pitch))
    measures = []
    for m in range(n_measures):
        onsets, extents, carried_pitch, carried_end = slice_measure(ticks, m, length)
        measures.append(
            decompose_measure(
                onsets, extents, time_signature, length,
                max_depth=grammar.max_depth,
                carried_pitch=carried_pitch, carried_end=carried_end,
            )
        )
    return ScoreModel(time_signature, measures, tempo_marking=tempo)
