import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhythmiq import (
    GrammarError,
    GrammarRule,
    Leaf,
    RhythmGrammar,
    ScoreModel,
    Split,
    TimeSignature,
    ValidationError,
    default_grammar,
    parse_grammar_file,
    sample_score,
    sample_tree,
    serialize_grammar,
    train_grammar,
)
from rhythmiq.trees import CONTINUATION, NOTE, decompose_measure, note, split

import support

SIG = TimeSignature(4, 4)

SMALL = """\
maxdepth = 3
start 4/4 = S
S -> (H H) : 0.6
S -> note : 0.4
H -> note : 0.5
H -> rest : 0.3
H -> continuation : 0.2
"""


def test_parse_basic():
    g = parse_grammar_file(SMALL)
    assert g.max_depth == 3
    assert g.start_for(SIG) == "S"
    assert g.nonterminals == {"S", "H"}
    assert len(g.rules_for("H")) == 3
    [note_rule] = [r for r in g.rules_for("S") if r.body == Leaf(NOTE)]
    assert note_rule.probability == pytest.approx(0.4)


def test_parse_serialize_round_trip():
    g = parse_grammar_file(SMALL)
    again = parse_grammar_file(serialize_grammar(g))
    assert again.max_depth == g.max_depth
    assert again.starts == g.starts
    for a, b in zip(again.rules, g.rules):
        assert (a.head, a.body) == (b.head, b.body)
        assert a.probability == pytest.approx(b.probability, abs=1e-6)


def test_parse_renormalizes_with_warning():
    text = "start 4/4 = S\nS -> note : 0.5\nS -> rest : 0.3\n"
    with pytest.warns(UserWarning, match="renormaliz"):
        g = parse_grammar_file(text)
    probs = sorted(r.probability for r in g.rules_for("S"))
    assert probs == [pytest.approx(0.375), pytest.approx(0.625)]


def test_parse_errors():
    with pytest.raises(GrammarError):
        parse_grammar_file("start 4/4 = S\n")  # no rules
    with pytest.raises(GrammarError):
        parse_grammar_file("S -> note : 1.0\n")  # no start
    with pytest.raises(GrammarError):
        parse_grammar_file("start 4/4 = S\nS -> chord : 1.0\n")
    with pytest.raises(GrammarError):
        parse_grammar_file("start 4/4 = S\nS -> note : nope\n")
    with pytest.raises(GrammarError):
        parse_grammar_file("start 4/4 = S\nS -> note : -1\n")
    with pytest.raises(GrammarError):
        parse_grammar_file("start 4/4 = S\nwhat is this line\n")
    # each of these lines is malformed, and the error names it
    for line, message in [
        ("start 4/5 = S", "line 3: denominator must be one of"),
        ("start 0/4 = S", "line 3: numerator must be >= 1"),
        ("S -> (R) : 0.5", "line 3: a split needs at least 2 children"),
        ("S -> rest : 1e400", "line 3: probability must be a finite number > 0"),
        ("maxdepth = 0", "line 3: maxdepth must be >= 1"),
        ("rest -> note : 1.0", "line 3: 'rest' is a reserved leaf label"),
        ("start 4/4 = S", r"line 3: duplicate start for 4/4 \(first on line 1\)"),
        ("maxdepth = 30", "line 3: maxdepth must be >= 1 and <= 29, got 30"),
    ]:
        with pytest.raises(GrammarError, match=message):
            parse_grammar_file(f"start 4/4 = S\nS -> note : 0.5\n{line}\n")
    with pytest.raises(GrammarError, match="line 2: probability must be a finite number"):
        parse_grammar_file("start 4/4 = S\nS -> note : 1e400\n")  # alone, no NaN weight


def test_grammar_structural_validation():
    ok = [GrammarRule("S", Leaf(NOTE), 0.0)]
    with pytest.raises(GrammarError):
        RhythmGrammar({SIG: "S"}, ok, max_depth=0)
    with pytest.raises(GrammarError):
        RhythmGrammar({SIG: "T"}, ok)  # start has no rules
    with pytest.raises(GrammarError):
        RhythmGrammar({SIG: "S"}, [GrammarRule("S", Split(("A", "A")), 0.0)])
    with pytest.raises(GrammarError):
        # probabilities sum to 2
        RhythmGrammar({SIG: "S"}, [GrammarRule("S", Leaf(NOTE), 0.0),
                                   GrammarRule("S", Leaf("rest"), 0.0)])
    with pytest.raises(GrammarError, match="sum to nan"):
        RhythmGrammar({SIG: "S"}, [GrammarRule("S", Leaf(NOTE), math.nan)])


# M splits into itself, so its lattice has 2 ** (maxdepth + 1) - 1 nodes
SELF_SPLIT = "maxdepth = {}\nstart 4/4 = M\nM -> (M M) : 0.5\nM -> note : 0.5\n"


def test_a_grammar_past_the_depth_or_node_bound_is_refused():
    with pytest.raises(GrammarError, match="max_depth must be >= 1 and <= 29, got 30"):
        RhythmGrammar({SIG: "S"}, [GrammarRule("S", Leaf(NOTE), 0.0)], max_depth=30)
    with pytest.raises(GrammarError, match="4/4 measure pass 65536 lattice nodes"):
        parse_grammar_file(SELF_SPLIT.format(16)).lattice(SIG)
    assert parse_grammar_file(SELF_SPLIT.format(10)).lattice(SIG).unit == 2 ** 11 - 1


def test_duplicate_rules_are_rejected():
    text = ("start 4/4 = M\nM -> (B B) : 0.25\nM -> (B B) : 0.25\n"
            "M -> note : 0.5\nB -> note : 1.0\n")
    with pytest.raises(GrammarError, match=r"line 3: duplicate rule M -> \(B B\)"):
        parse_grammar_file(text)
    twice = GrammarRule("M", Split(("B", "B")), -math.log(0.25))
    with pytest.raises(GrammarError, match="duplicate rule"):
        RhythmGrammar({SIG: "M"}, [twice, twice,
                                   GrammarRule("M", Leaf(NOTE), -math.log(0.5)),
                                   GrammarRule("B", Leaf(NOTE), 0.0)])


def test_depth_infeasible_symbol_rejected():
    # B only derives through an endless split chain within depth 1
    text = "maxdepth = 1\nstart 4/4 = S\nS -> (B B) : 1.0\nB -> (B B) : 1.0\n"
    with pytest.raises(GrammarError):
        parse_grammar_file(text)


def test_default_grammar_is_normalized():
    g = default_grammar()
    for head in g.nonterminals:
        total = sum(r.probability for r in g.rules_for(head))
        assert abs(total - 1.0) <= 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_grammar_heads_normalized(seed):
    g = support.random_grammar(random.Random(seed))
    assert len(g.rules) <= 12
    for head in g.nonterminals:
        total = sum(r.probability for r in g.rules_for(head))
        assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# training

def _duplet_triplet_score(n_duplet: int, n_triplet: int) -> ScoreModel:
    """One measure per beat pattern: n_duplet beats split in 2, n_triplet in 3,
    padded with plain quarter notes to fill each measure of 4 beats."""
    beats = [split(note(60), note(62)) for _ in range(n_duplet)]
    beats += [split(note(60), note(62), note(64)) for _ in range(n_triplet)]
    measures = []
    while beats:
        chunk, beats = beats[:4], beats[4:]
        while len(chunk) < 4:
            chunk.append(note(60))
        measures.append(split(*chunk))
    return ScoreModel(SIG, measures)


def test_train_known_frequencies_unsmoothed():
    g = train_grammar([_duplet_triplet_score(12, 4)], smoothing=0.0)
    beat_rules = {str(r.body): r for r in g.rules_for("D4")}
    assert beat_rules["(D8 D8)"].probability == pytest.approx(0.75, abs=1e-12)
    assert beat_rules["(D12 D12 D12)"].probability == pytest.approx(0.25, abs=1e-12)


def test_train_add_one_smoothing_formula():
    corpus = [_duplet_triplet_score(12, 4)]
    g = train_grammar(corpus, smoothing=1.0)
    rules = g.rules_for("D4")
    inventory = len(rules)
    # D4 derives 12 duplets and 4 triplets; add-1 over the observed inventory
    counts = {"(D8 D8)": 12, "(D12 D12 D12)": 4}
    total = sum(counts.values())
    for r in rules:
        expected = (counts.get(str(r.body), 0) + 1) / (total + inventory)
        assert r.probability == pytest.approx(expected, abs=1e-12)


def test_train_normalization_within_tolerance():
    g = train_grammar([_duplet_triplet_score(9, 3)], smoothing=0.5)
    for head in g.nonterminals:
        total = sum(r.probability for r in g.rules_for(head))
        assert abs(total - 1.0) <= 1e-9


def test_train_depth_matches_deepest_tree():
    g = train_grammar([_duplet_triplet_score(3, 1)], smoothing=1.0)
    assert g.max_depth == 2


def test_train_rejects_bad_args():
    with pytest.raises(ValidationError):
        train_grammar([], smoothing=1.0)
    with pytest.raises(ValidationError):
        train_grammar([_duplet_triplet_score(1, 1)], smoothing=-0.1)
    for smoothing in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="smoothing must be finite"):
            train_grammar([_duplet_triplet_score(1, 1)], smoothing=smoothing)


def test_trained_grammar_usable_for_sampling():
    g = train_grammar([_duplet_triplet_score(6, 2)], smoothing=1.0)
    tree = sample_tree(g, random.Random(7), g.start_for(SIG))
    ScoreModel(SIG, [tree]).notes()  # raises on a continuation after silence


# ---------------------------------------------------------------------------
# sampling

def test_sample_tree_respects_flow():
    g = default_grammar()
    for seed in range(40):
        tree = sample_tree(g, random.Random(seed), "M")
        ScoreModel(SIG, [tree]).notes()  # continuation never follows silence


def test_sample_tree_deterministic_per_seed():
    g = default_grammar()
    assert sample_tree(g, random.Random(5), "M") == sample_tree(
        g, random.Random(5), "M")


def test_sample_score_is_canonical():
    # the sampled trees are a fixpoint: re-decomposing the onsets and extents
    # they themselves spell out reproduces them exactly
    g = default_grammar()
    score = sample_score(g, 4, random.Random(11))
    onsets, extents = [], []
    for m, tree in enumerate(score.measures):
        for leaf, left, right in tree.leaves():
            if leaf.label == NOTE:
                onsets.append((m + left, leaf.pitch))
                extents.append(m + right)
            elif leaf.label == CONTINUATION:
                extents[-1] = m + right
    assert onsets, "seed 11 samples a score with notes"
    # decomposition takes ticks: a measure is ``length`` ticks long
    length = math.lcm(*(x.denominator for x in (*(p for p, _ in onsets), *extents)))
    for m, tree in enumerate(score.measures):
        local = [(p - m, pch) for p, pch in onsets if m <= p < m + 1]
        exts = [e - m for (p, _), e in zip(onsets, extents) if m <= p < m + 1]
        carried_pitch, carried_end = None, Fraction(0)
        for (p, pch), e in zip(onsets, extents):
            if p < m and e > m:
                carried_pitch, carried_end = pch, e - m
        rebuilt = decompose_measure(
            [(int(p * length), pch) for p, pch in local], [int(e * length) for e in exts],
            SIG, length, max_depth=g.max_depth,
            carried_pitch=carried_pitch, carried_end=int(carried_end * length),
        )
        assert rebuilt == tree


def test_sample_score_deterministic_and_in_range():
    g = default_grammar()
    a = sample_score(g, 3, random.Random(3), pitch_range=(60, 72))
    b = sample_score(g, 3, random.Random(3), pitch_range=(60, 72))
    assert a == b
    for tree in a.measures:
        for leaf, _, _ in tree.leaves():
            if leaf.label == NOTE:
                assert 60 <= leaf.pitch <= 72
