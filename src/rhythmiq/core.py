"""Symbolic domain types: notes, performances, time signatures, beat grids.

All types are immutable ``Record`` values that validate their invariants in
``__init__``.  Times are seconds, pitches are MIDI numbers.
"""
from __future__ import annotations

import math
from operator import attrgetter

from .errors import ValidationError

ALLOWED_DENOMINATORS = (1, 2, 4, 8, 16, 32)

# the defaults of the settings in ``cli.PipelineConfig``, defined here once
# so that the CLI takes them without loading the modules that use them
DEFAULT_ALPHA = 256.0  # quantize.QuantConfig
DEFAULT_REST_THRESHOLD = 0.5
DEFAULT_FALLBACK_RESOLUTION = 4  # grid slots per beat of quantize.fallback_quantize
DEFAULT_ONSET_TOLERANCE = 0.05  # seconds, metrics.note_metrics
DEFAULT_BEAT_TOLERANCE = 0.07  # seconds, metrics.downbeat_fmeasure
DEFAULT_CLUSTER_WIDTH = 0.025  # seconds, tempo.estimate_tempo_ioi
DEFAULT_MIN_BPM = 40.0  # tempo.estimate_tempo_ioi's bpm range
DEFAULT_MAX_BPM = 350.0


class Record:
    """Base of the package's value types.

    A subclass names its fields in ``__slots__`` and sets them once in its
    ``__init__`` with ``object.__setattr__``; any later assignment raises
    AttributeError.  Equality, ``hash`` and ``repr`` follow the fields in
    ``__slots__``, in order, and records of different types never compare
    equal.  A copy or a pickle is rebuilt through ``__init__`` from the
    field values.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the field values as a tuple; attrgetter of one name returns the bare value
        cls._values = property(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class NoteEvent(Record):
    """A single played note.

    onset: finite seconds, >= 0.  duration: finite seconds, > 0.
    pitch: MIDI number 0..127.  velocity: 1..127.
    """

    __slots__ = ("onset", "duration", "pitch", "velocity")

    def __init__(self, onset: float, duration: float, pitch: int, velocity: int = 64):
        if not math.isfinite(onset):
            raise ValidationError(f"onset must be finite, got {onset}")
        if onset < 0:
            raise ValidationError(f"onset must be >= 0, got {onset}")
        if not math.isfinite(duration):
            raise ValidationError(f"duration must be finite, got {duration}")
        if duration <= 0:
            raise ValidationError(f"duration must be > 0, got {duration}")
        if not 0 <= pitch <= 127:
            raise ValidationError(f"pitch must be in 0..127, got {pitch}")
        if not 1 <= velocity <= 127:
            raise ValidationError(f"velocity must be in 1..127, got {velocity}")
        object.__setattr__(self, "onset", onset)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "pitch", pitch)
        object.__setattr__(self, "velocity", velocity)

    @property
    def offset(self) -> float:
        return self.onset + self.duration


class Performance(Record):
    """A sequence of played notes, kept sorted by (onset, pitch)."""

    __slots__ = ("notes",)

    def __init__(self, notes):
        ordered = tuple(sorted(notes, key=lambda n: (n.onset, n.pitch)))
        object.__setattr__(self, "notes", ordered)

    def __len__(self) -> int:
        return len(self.notes)

    def onsets(self) -> list[float]:
        return [n.onset for n in self.notes]


class TimeSignature(Record):
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if numerator < 1:
            raise ValidationError(f"numerator must be >= 1, got {numerator}")
        if denominator not in ALLOWED_DENOMINATORS:
            raise ValidationError(
                f"denominator must be one of {ALLOWED_DENOMINATORS}, got {denominator}"
            )
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class BeatGrid(Record):
    """Beat times plus bar structure.

    ``phase`` is the index into ``beats`` of the first downbeat, so
    ``beats[phase::beats_per_bar]`` are the downbeat times.
    """

    __slots__ = ("beats", "beats_per_bar", "phase", "time_signature")

    def __init__(self, beats, beats_per_bar, phase=0, time_signature=None):
        beats = tuple(float(b) for b in beats)
        if len(beats) < 2:
            raise ValidationError("a beat grid needs at least 2 beats")
        if not all(map(math.isfinite, beats)):
            raise ValidationError("beat times must be finite")
        if any(b2 <= b1 for b1, b2 in zip(beats, beats[1:])):
            raise ValidationError("beat times must be strictly increasing")
        if beats_per_bar < 1:
            raise ValidationError(f"beats_per_bar must be >= 1, got {beats_per_bar}")
        if not 0 <= phase < beats_per_bar:
            raise ValidationError(
                f"phase must be in 0..{beats_per_bar - 1}, got {phase}"
            )
        if time_signature is None:
            time_signature = TimeSignature(beats_per_bar, 4)
        object.__setattr__(self, "beats", beats)
        object.__setattr__(self, "beats_per_bar", int(beats_per_bar))
        object.__setattr__(self, "phase", int(phase))
        object.__setattr__(self, "time_signature", time_signature)

    def downbeats(self) -> list[float]:
        return list(self.beats[self.phase :: self.beats_per_bar])

    def beat_position(self, index: int) -> int:
        """1-based position of beat ``index`` within its bar (1 = downbeat)."""
        return (index - self.phase) % self.beats_per_bar + 1


def enforce_monophony(perf: Performance) -> Performance:
    """Truncate overlapping notes so the performance is strictly monophonic.

    Each note is cut at the onset of its successor in (onset, pitch) order;
    notes whose truncated duration is <= 0 are dropped.  Idempotent.
    """
    out = []
    notes = perf.notes
    for i, n in enumerate(notes):
        duration = n.duration
        if i + 1 < len(notes):
            duration = min(duration, notes[i + 1].onset - n.onset)
        if duration > 0:
            if duration != n.duration:
                n = NoteEvent(n.onset, duration, n.pitch, n.velocity)
            out.append(n)
    return Performance(out)


def data_lines(text: str) -> list[tuple[int, str]]:
    """A text input's data lines as (line number, line): ``#`` starts a
    comment that runs to the end of the line, a line left blank once its
    comment and outer whitespace are cut holds no data, and lines count from 1.
    """
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def load_beats(text: str) -> BeatGrid:
    """Parse a beat annotation CSV into a BeatGrid.

    Each data line (``data_lines``) is ``time_sec,beat_in_bar`` where
    beat_in_bar counts from 1 at the downbeat.  Only the first may be a
    header: one whose time field is not a number.  The bar is as long as the
    largest position, and every position must be the one that bar gives its line.
    """
    times: list[float] = []
    positions: list[int] = []
    linenos: list[int] = []
    for index, (lineno, line) in enumerate(data_lines(text)):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ValidationError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        t = None
        try:
            t = float(fields[0])
            b = float(fields[1])
            position = int(b)
        except (ValueError, OverflowError):  # OverflowError: int() of inf
            if index == 0 and t is None:
                continue  # a header
            raise ValidationError(f"line {lineno}: non-numeric beat record {line!r}") from None
        if not math.isfinite(t):
            raise ValidationError(
                f"line {lineno}: beat time must be finite, got {fields[0]!r}")
        if position != b:
            raise ValidationError(
                f"line {lineno}: beat position must be a whole number, got {fields[1]!r}")
        times.append(t)
        positions.append(position)
        linenos.append(lineno)
    if not times:
        raise ValidationError("no beat records found")
    beats_per_bar = max(positions)
    try:
        phase = positions.index(1)
    except ValueError:
        raise ValidationError("no downbeat (beat position 1) in annotation")
    grid = BeatGrid(times, beats_per_bar, phase)  # rejects times that do not increase
    for i, (position, lineno) in enumerate(zip(positions, linenos)):
        if position != grid.beat_position(i):
            raise ValidationError(
                f"line {lineno}: beat position {position} where bars of "
                f"{beats_per_bar} beats put {grid.beat_position(i)}")
    return grid


def save_beats(grid: BeatGrid) -> str:
    """Serialize a BeatGrid back to beat CSV text."""
    lines = ["# time_sec,beat_in_bar"]
    for i, t in enumerate(grid.beats):
        lines.append(f"{t:.6f},{grid.beat_position(i)}")
    return "\n".join(lines) + "\n"
