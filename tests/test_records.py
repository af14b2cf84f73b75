"""Value semantics of the package's record types.

Each case builds a record twice from the same arguments and once with one
field changed.  Records compare by type and field values, frozen ones hash
by them and refuse assignment.
"""
import copy
import pickle

import pytest

from rhythmiq import (
    BeatGrid,
    EditMetrics,
    GrammarRule,
    Leaf,
    MeasureInput,
    NoteEvent,
    NoteMetrics,
    Performance,
    QuantConfig,
    RhythmTree,
    ScoreModel,
    SpelledPitch,
    Split,
    TempoBounds,
    TempoEstimate,
    TimeSignature,
)
from rhythmiq.cli import PipelineConfig
from rhythmiq.trees import note, rest, split

SIG = TimeSignature(4, 4)

# (type, arguments, arguments with one field changed)
CASES = [
    (NoteEvent, (0.5, 0.25, 60, 80), (0.5, 0.25, 61, 80)),
    (Performance, ([NoteEvent(0.0, 1.0, 60)],), ([NoteEvent(0.0, 1.0, 62)],)),
    (TimeSignature, (3, 4), (3, 8)),
    (BeatGrid, ([0.0, 0.5, 1.0, 1.5], 2), ([0.0, 0.5, 1.0, 1.5], 2, 1)),
    (Split, (("A", "B"),), (("A", "C"),)),
    (Leaf, ("note",), ("rest",)),
    (GrammarRule, ("S", Leaf("note"), 0.5), ("S", Leaf("note"), 0.7)),
    (QuantConfig, (2.0, 0.5), (2.0, 0.25)),
    (MeasureInput, (((0.0, 60),), (0.5,)), (((0.0, 62),), (0.5,))),
    (RhythmTree, ((note(60), rest()),), ((note(60), note(62)),)),
    (ScoreModel, (SIG, [split(note(60), rest())]),
     (SIG, [split(note(60), rest())], 100.0)),
    (SpelledPitch, ("C", 0, 4), ("C", 1, 4)),
    (PipelineConfig, (), (1.0,)),
    (NoteMetrics, (50.0, 50.0, 50.0, 1, 2, 2), (50.0, 50.0, 50.0, 1, 2, 3)),
    (EditMetrics, (0, 1, 0, 0, 0, 4), (1, 1, 0, 0, 0, 4)),
    (TempoEstimate, (120.0, 3, 0.5), (121.0, 3, 0.5)),
    (TempoBounds, (40.0, 350.0), (50.0, 350.0)),
]


@pytest.mark.parametrize("cls, args, changed", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, args, changed):
    a, b, other = cls(*args), cls(*args), cls(*changed)
    assert a == b and not a != b
    assert a != other and not a == other
    values = tuple(getattr(a, name) for name in cls.__slots__)
    assert a != values  # no tuple behaviour leaks
    assert not hasattr(a, "__dict__")
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{cls.__name__}(")
    assert hash(a) == hash(b)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_record_repr_names_every_field():
    assert repr(SIG) == "TimeSignature(numerator=4, denominator=4)"
    assert repr(note(60)) == "RhythmTree(children=(), label='note', pitch=60)"
