import math
import re

import pytest
from hypothesis import given, strategies as st

from rhythmiq import (
    BeatGrid,
    NoteEvent,
    Performance,
    TimeSignature,
    ValidationError,
    enforce_monophony,
    load_beats,
    save_beats,
)

import support


def test_note_event_validation():
    with pytest.raises(ValidationError):
        NoteEvent(-0.1, 1.0, 60)
    with pytest.raises(ValidationError):
        NoteEvent(0.0, 0.0, 60)
    with pytest.raises(ValidationError):
        NoteEvent(0.0, 1.0, 128)
    with pytest.raises(ValidationError):
        NoteEvent(0.0, 1.0, 60, velocity=0)


@pytest.mark.parametrize("onset, duration, message", [
    (math.nan, 1.0, "onset must be finite, got nan"),
    (math.inf, 1.0, "onset must be finite, got inf"),
    (0.0, math.nan, "duration must be finite, got nan"),
    (0.0, math.inf, "duration must be finite, got inf"),
])
def test_note_event_times_must_be_finite(onset, duration, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        NoteEvent(onset, duration, 60)


def test_note_event_offset():
    n = NoteEvent(1.5, 0.25, 60)
    assert n.offset == 1.75


def test_performance_sorts_notes():
    perf = Performance([NoteEvent(1.0, 0.5, 62), NoteEvent(0.0, 0.5, 60)])
    assert perf.onsets() == [0.0, 1.0]
    assert len(perf) == 2


def test_enforce_monophony_truncates():
    poly = Performance([NoteEvent(0.0, 1.0, 60), NoteEvent(0.5, 0.5, 62)])
    fixed = enforce_monophony(poly)
    assert support.is_monophonic(fixed)
    assert fixed.notes[0].duration == 0.5


def test_enforce_monophony_drops_swallowed_notes():
    # second note starts at the same instant; zero-length truncation drops it
    poly = Performance([NoteEvent(0.0, 1.0, 60), NoteEvent(0.0, 0.2, 62)])
    fixed = enforce_monophony(poly)
    assert len(fixed) == 1


@given(st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.floats(min_value=0.01, max_value=5, allow_nan=False),
        st.integers(min_value=0, max_value=127),
    ),
    min_size=1, max_size=20,
))
def test_enforce_monophony_idempotent(raw):
    perf = Performance([NoteEvent(o, d, p) for o, d, p in raw])
    once = enforce_monophony(perf)
    # tol covers the one-ulp slack of onset + truncated duration
    assert support.is_monophonic(once, tol=1e-9)
    assert enforce_monophony(once) == once


def test_time_signature_parse():
    assert str(TimeSignature(6, 8)) == "6/8"
    with pytest.raises(ValidationError):
        TimeSignature(4, 5)


def test_beat_grid_validation():
    with pytest.raises(ValidationError):
        BeatGrid([0.0], 4)
    with pytest.raises(ValidationError):
        BeatGrid([0.0, 0.0], 4)
    with pytest.raises(ValidationError):
        BeatGrid([0.0, 0.5], 4, phase=4)


def test_beat_grid_downbeats_and_positions():
    grid = BeatGrid([0.5 * k for k in range(9)], 4, phase=2)
    assert grid.downbeats() == [1.0, 3.0]
    assert grid.beat_position(2) == 1
    assert grid.beat_position(3) == 2
    assert grid.beat_position(1) == 4


def test_load_beats_basic():
    text = "# comment\n0.0,1\n0.5,2\n1.0,3\n1.5,4\n2.0,1\n"
    grid = load_beats(text)
    assert grid.beats_per_bar == 4
    assert grid.phase == 0
    assert grid.downbeats() == [0.0, 2.0]


def test_load_beats_header_and_anacrusis():
    text = "time,beat\n0.0,3\n0.5,4\n1.0,1\n1.5,2\n"
    grid = load_beats(text)
    assert grid.phase == 2
    assert grid.downbeats() == [1.0]


def test_load_beats_errors():
    with pytest.raises(ValidationError):
        load_beats("")
    with pytest.raises(ValidationError):
        load_beats("0.0,2\n0.5,3\n")  # no downbeat anywhere
    with pytest.raises(ValidationError):
        load_beats("0.0,1\n0.0,2\n")  # not increasing
    with pytest.raises(ValidationError):
        load_beats("0.0,1,extra\n")


@pytest.mark.parametrize("record", ["nan,2", "inf,2", "-inf,2"])
def test_load_beats_rejects_non_finite_times(record):
    with pytest.raises(ValidationError,
                       match=r"^line 3: beat time must be finite, got '-?(nan|inf)'$"):
        load_beats(f"# time,beat\n0.0,1\n{record}\n1.0,3\n")
    with pytest.raises(ValidationError, match="beat times must be finite"):
        BeatGrid([0.0, float(record.split(",")[0])], 2)


def test_load_beats_rejects_a_non_finite_position():
    with pytest.raises(ValidationError, match="line 2: non-numeric beat record"):
        load_beats("0.0,1\n0.5,inf\n")


# bars of 3 beats until line 4 restarts the count: read as bars of 4, this
# file put its downbeats at 0 and 2 s where it marks 0, 1.5 and 3.5 s
SHIFTING_BARS = "0,1\n.5,2\n1,3\n1.5,1\n2,2\n2.5,3\n3,4\n3.5,1\n"


@pytest.mark.parametrize("text, message", [
    (SHIFTING_BARS, "line 4: beat position 1 where bars of 4 beats put 4"),
    ("# time,beat\n0,1\n.5,2.9\n1,3\n", "line 3: beat position must be a whole number, got '2.9'"),
    ("0,1\n.5,2\n1,4\n1.5,1\n", "line 3: beat position 4 where bars of 4 beats put 3"),
    ("0,3\n.5,1\n1,3\n", "line 3: beat position 3 where bars of 3 beats put 2"),
], ids=["restarted-bar", "fraction", "skipped-beat", "short-bar"])
def test_load_beats_rejects_positions_that_disagree_with_the_bar(text, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_beats(text)


@given(st.integers(min_value=1, max_value=9), st.data())
def test_a_saved_grid_with_a_whole_bar_loads_back(beats_per_bar, data):
    phase = data.draw(st.integers(min_value=0, max_value=beats_per_bar - 1))
    n_beats = data.draw(st.integers(min_value=max(2, phase + beats_per_bar), max_value=40))
    grid = BeatGrid([0.25 * k for k in range(n_beats)], beats_per_bar, phase)
    back = load_beats(save_beats(grid))
    assert (back.beats_per_bar, back.phase) == (beats_per_bar, phase)


def test_save_beats_round_trip():
    grid = BeatGrid([0.25 * k for k in range(8)], 4, phase=1)
    back = load_beats(save_beats(grid))
    assert back.beats_per_bar == grid.beats_per_bar
    assert back.phase == grid.phase
    assert all(abs(a - b) < 1e-6 for a, b in zip(back.beats, grid.beats))
