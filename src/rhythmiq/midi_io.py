"""Standard MIDI File reading and writing.

Supports format 0 and format 1 files with metrical (ticks-per-quarter)
division.  Reading honors the full tempo map when converting ticks to
seconds; writing emits a format 0 file at 480 ticks per quarter with a
single tempo event.
"""
from __future__ import annotations

import math
import struct
from bisect import bisect_right

from .core import NoteEvent, Performance
from .errors import EmptyInputError, FormatError, ValidationError

WRITE_TPQ = 480
DEFAULT_TEMPO = 500000  # microseconds per quarter, 120 bpm
MAX_TEMPO = 0xFFFFFF


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated MIDI data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


# data byte count for channel messages by high nibble
_CHANNEL_DATA_BYTES = {
    0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2,
}


def _varlen(data: bytes, pos: int) -> tuple[int, int]:
    """Read the variable-length quantity at ``pos``: (value, next position)."""
    value = 0
    for pos in range(pos, pos + 4):
        if pos >= len(data):
            raise FormatError("truncated MIDI data")
        b = data[pos]
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value, pos + 1
    raise FormatError("variable-length quantity longer than 4 bytes")


def _read_track(chunk: bytes, offset: int,
                tempos: list[tuple[int, int]]) -> list[tuple[int, int, int, int]]:
    """Read one MTrk chunk body, which starts ``offset`` bytes into the file.

    Appends its set-tempo events as (tick, microseconds per quarter) to
    ``tempos`` and returns its notes as (on tick, off tick, pitch, velocity),
    in order of release, then the notes still sounding in the order their
    (channel, pitch) first sounded; those close at the tick of the track's
    last note, set-tempo or end-of-track event.  A note-off closes the
    earliest open note of its channel and pitch, and a note that does not
    end after it starts is dropped.
    """
    size = len(chunk)
    pos = tick = last = 0
    running = None
    sounding: dict[tuple[int, int], list[tuple[int, int]]] = {}
    notes = []
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
            pos += length
            running = None
            if meta_type == 0x51:
                if length != 3:
                    raise FormatError("set-tempo meta event must carry 3 bytes")
                tempos.append((tick, int.from_bytes(chunk[pos - 3 : pos], "big")))
                last = tick
            elif meta_type == 0x2F:
                last = tick
                break
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
            if (chunk[pos] | chunk[end - 1]) > 0x7F:
                bad = pos if chunk[pos] > 0x7F else end - 1
                raise FormatError(f"data byte 0x{chunk[bad]:02x} at offset "
                                  f"{offset + bad} has its high bit set")
            if kind == 0x90 or kind == 0x80:
                last = tick
                key = (status & 0x0F, chunk[pos])
                velocity = chunk[pos + 1]
                if kind == 0x90 and velocity:
                    sounding.setdefault(key, []).append((tick, velocity))
                elif stack := sounding.get(key):
                    on, velocity = stack.pop(0)
                    if tick > on:
                        notes.append((on, tick, key[1], velocity))
            pos = end
    for (_, pitch), stack in sounding.items():
        notes.extend((on, last, pitch, velocity) for on, velocity in stack if last > on)
    return notes


class _TempoMap:
    """Piecewise tick-to-seconds conversion from set-tempo events."""

    def __init__(self, tempo_events: list[tuple[int, int]], tpq: int):
        self.tpq = tpq
        events = sorted(tempo_events)
        if not events or events[0][0] > 0:
            events.insert(0, (0, DEFAULT_TEMPO))
        # anchors of (tick, seconds, us_per_quarter), the first at tick 0
        self.anchors = [(events[0][0], 0.0, events[0][1])]
        for tick, tempo in events[1:]:
            prev_tick, prev_sec, prev_tempo = self.anchors[-1]
            sec = prev_sec + (tick - prev_tick) * prev_tempo / (tpq * 1e6)
            self.anchors.append((tick, sec, tempo))
        self.ticks = [tick for tick, _, _ in self.anchors]

    def seconds(self, tick: int) -> float:
        # the last anchor at or before ``tick``
        a_tick, a_sec, a_tempo = self.anchors[bisect_right(self.ticks, tick) - 1]
        return a_sec + (tick - a_tick) * a_tempo / (self.tpq * 1e6)


def load_midi(data: bytes) -> Performance:
    """Parse a format 0 or 1 Standard MIDI File into a Performance.

    Note-on events with velocity 0 are treated as note-offs.  All tracks are
    merged; tempo events from any track contribute to the tempo map.
    """
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

    tempos: list[tuple[int, int]] = []
    notes = []
    for _ in range(ntracks):
        if r.take(4) != b"MTrk":
            raise FormatError("missing MTrk chunk")
        length = struct.unpack(">I", r.take(4))[0]
        start = r.pos
        notes += _read_track(r.take(length), start, tempos)
    tmap = _TempoMap(tempos, division)

    if not notes:
        raise EmptyInputError("MIDI file contains no notes")

    events = []
    for on, off, pitch, velocity in notes:
        onset = tmap.seconds(on)
        events.append(NoteEvent(
            onset=onset,
            duration=tmap.seconds(off) - onset,
            pitch=pitch,
            velocity=velocity,
        ))
    return Performance(events)


def _write_varlen(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def save_midi(perf: Performance, bpm: float) -> bytes:
    """Serialize a Performance to a format 0 MIDI file at a fixed tempo.

    Uses 480 ticks per quarter.  Onset and offset times round-trip through
    load_midi within one tick.
    """
    if not perf.notes:
        raise EmptyInputError("cannot write a MIDI file with no notes")
    # microseconds per quarter; a bpm that is not finite and positive has none
    tempo = round(60e6 / bpm) if math.isfinite(bpm) and bpm > 0 else 0
    if not 1 <= tempo <= MAX_TEMPO:
        raise ValidationError(f"bpm {bpm} gives no MIDI tempo of 1..{MAX_TEMPO} "
                              "microseconds per quarter")

    ticks_per_sec = WRITE_TPQ * 1e6 / tempo
    events = []  # (tick, order, message bytes)
    for n in perf.notes:
        on_tick = round(n.onset * ticks_per_sec)
        off_tick = max(on_tick + 1, round(n.offset * ticks_per_sec))
        events.append((on_tick, 1, bytes((0x90, n.pitch, n.velocity))))
        events.append((off_tick, 0, bytes((0x80, n.pitch, 0))))
    events.sort(key=lambda e: (e[0], e[1]))

    body = bytearray()
    body += _write_varlen(0) + bytes((0xFF, 0x51, 0x03)) + tempo.to_bytes(3, "big")
    prev_tick = 0
    for tick, _, message in events:
        body += _write_varlen(tick - prev_tick) + message
        prev_tick = tick
    body += _write_varlen(0) + bytes((0xFF, 0x2F, 0x00))

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, WRITE_TPQ)
    track = b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
    return header + track
