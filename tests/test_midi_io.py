"""MIDI reader/writer tests.

The tempo-map cases build files byte by byte so expected onset seconds can be
worked out by hand, independent of the code under test.
"""
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from rhythmiq import (
    EmptyInputError,
    FormatError,
    NoteEvent,
    Performance,
    RhythmiqError,
    ValidationError,
)
from rhythmiq.cli import main
from rhythmiq.midi_io import load_midi, save_midi

import support


def _varlen(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def _smf(track_body: bytes, fmt=0, tpq=480, ntracks=1) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, ntracks, tpq)
    return header + b"MTrk" + struct.pack(">I", len(track_body)) + track_body


def _event(delta: int, *data: int) -> bytes:
    return _varlen(delta) + bytes(data)


END = _event(0, 0xFF, 0x2F, 0x00)


def test_fixed_tempo_by_hand():
    # 100 bpm = 600000 us/quarter; one quarter note at tick 480..960
    body = (
        _event(0, 0xFF, 0x51, 0x03) + (600000).to_bytes(3, "big")
        + _event(480, 0x90, 60, 80)
        + _event(480, 0x80, 60, 0)
        + END
    )
    perf = load_midi(_smf(body))
    assert len(perf) == 1
    assert perf.notes[0].onset == pytest.approx(0.6, abs=1e-9)
    assert perf.notes[0].duration == pytest.approx(0.6, abs=1e-9)
    assert perf.notes[0].pitch == 60
    assert perf.notes[0].velocity == 80


def test_tempo_change_mid_note():
    # tempo halves at tick 480; note spans ticks 240..720:
    # 240 ticks at 500000 us/q = 0.25 s, then 240 ticks at 250000 = 0.125 s
    body = (
        _event(0, 0xFF, 0x51, 0x03) + (500000).to_bytes(3, "big")
        + _event(240, 0x90, 64, 100)
        + _event(240, 0xFF, 0x51, 0x03) + (250000).to_bytes(3, "big")
        + _event(240, 0x80, 64, 0)
        + END
    )
    perf = load_midi(_smf(body))
    assert perf.notes[0].onset == pytest.approx(0.25, abs=1e-9)
    assert perf.notes[0].offset == pytest.approx(0.25 + 0.25 + 0.125, abs=1e-9)


def test_default_tempo_is_120():
    body = _event(0, 0x90, 60, 64) + _event(480, 0x80, 60, 0) + END
    perf = load_midi(_smf(body))
    assert perf.notes[0].duration == pytest.approx(0.5, abs=1e-9)


def test_velocity_zero_note_on_is_off():
    body = (
        _event(0, 0x90, 60, 64)
        + _event(480, 0x90, 60, 0)
        + END
    )
    perf = load_midi(_smf(body))
    assert len(perf) == 1
    assert perf.notes[0].duration == pytest.approx(0.5, abs=1e-9)


def test_running_status():
    # second note-on omits the status byte
    body = (
        _event(0, 0x90, 60, 64)
        + _event(240, 0x80, 60, 0)
        + _varlen(0) + bytes((0x90, 62, 64))
        + _varlen(240) + bytes((62, 0))  # running status, velocity-0 off
        + END
    )
    perf = load_midi(_smf(body))
    assert [n.pitch for n in perf.notes] == [60, 62]


def test_unclosed_note_ends_at_track_end():
    body = (
        _event(0, 0x90, 60, 64)
        + _event(960, 0xFF, 0x2F, 0x00)
    )
    perf = load_midi(_smf(body))
    assert perf.notes[0].duration == pytest.approx(1.0, abs=1e-9)


def test_format_1_merges_tracks():
    t1 = _event(0, 0xFF, 0x51, 0x03) + (500000).to_bytes(3, "big") + END
    t2 = _event(0, 0x90, 60, 64) + _event(480, 0x80, 60, 0) + END
    data = (
        b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480)
        + b"MTrk" + struct.pack(">I", len(t1)) + t1
        + b"MTrk" + struct.pack(">I", len(t2)) + t2
    )
    perf = load_midi(data)
    assert len(perf) == 1


def test_format_errors():
    with pytest.raises(FormatError):
        load_midi(b"RIFF" + b"\0" * 20)
    with pytest.raises(FormatError):
        load_midi(_smf(END, fmt=2))
    smpte = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 0xE250)
    with pytest.raises(FormatError):
        load_midi(smpte + b"MTrk" + struct.pack(">I", len(END)) + END)
    with pytest.raises(FormatError):
        load_midi(_smf(END)[:-2])  # truncated


@pytest.mark.parametrize("cut", [
    _event(0, 0x90, 60, 64) + _varlen(20000)[:2],  # inside a delta time
    _event(0, 0xFF, 0x51, 0x03) + (500000).to_bytes(3, "big")[:2],  # inside a meta payload
    _event(0, 0x90, 60),  # inside a channel message
])
def test_truncation_inside_an_event_is_a_format_error(cut):
    # the track chunk is whole; the event at its end is not
    with pytest.raises(FormatError, match="^truncated MIDI data$"):
        load_midi(_smf(cut))


def test_track_format_errors():
    with pytest.raises(FormatError, match="longer than 4 bytes"):
        load_midi(_smf(bytes((0x81, 0x80, 0x80, 0x80, 0x00)) + END))
    with pytest.raises(FormatError, match="no running status"):
        load_midi(_smf(_event(0, 60, 64) + END))
    with pytest.raises(FormatError, match="must carry 3 bytes"):
        load_midi(_smf(_event(0, 0xFF, 0x51, 0x02, 0x07, 0xA1) + END))
    with pytest.raises(FormatError, match="unsupported system message 0xf2"):
        load_midi(_smf(_event(0, 0xF2, 0x00, 0x00) + END))


@pytest.mark.parametrize("event, byte", [
    (_event(0, 0x90, 60, 0x90), 0x90),
    (_event(0, 0x90, 0xC8, 64), 0xC8),
    (_event(0, 0xB0, 7, 0xFF), 0xFF),
], ids=["note-on velocity", "note-on pitch", "controller value"])
def test_a_data_byte_with_its_high_bit_set_is_a_format_error(event, byte, tmp_path, capsys):
    before = _event(0, 0x90, 62, 64) + _event(240, 0x80, 62, 0)
    data = _smf(before + event + END)
    # the header is 14 bytes and the chunk's head 8; the event's delta time
    # and status byte come before its data
    offset = 22 + len(before) + event.index(byte, 2)
    message = f"data byte 0x{byte:02x} at offset {offset} has its high bit set"
    with pytest.raises(FormatError, match=f"^{message}$"):
        load_midi(data)
    path = tmp_path / "bad.mid"
    path.write_bytes(data)
    assert main(["tempo", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_fifty_tempo_changes_by_hand():
    # beat k (480 ticks) runs at 500000 + 10000 k us per quarter, and a
    # half-beat note starts at its midpoint, so note k starts after
    # sum_{i<k} (0.5 + 0.01 i) s + (0.5 + 0.01 k) / 2 s
    body = b""
    for k in range(50):
        tempo = 500000 + 10000 * k
        body += _event(0, 0xFF, 0x51, 0x03) + tempo.to_bytes(3, "big")
        body += _event(240, 0x90, 60 + k % 12, 64) + _event(240, 0x80, 60 + k % 12, 0)
    perf = load_midi(_smf(body + END))
    assert len(perf) == 50
    for k, n in enumerate(perf.notes):
        beat = 0.5 + 0.01 * k
        assert n.onset == pytest.approx(0.5 * k + 0.005 * k * (k - 1) + beat / 2, abs=1e-9)
        assert n.duration == pytest.approx(beat / 2, abs=1e-9)


@st.composite
def _track(draw) -> bytes:
    """A track body of random events with data bytes below 0x80: a status
    byte that running status allows may be left out, and the end-of-track
    event may be missing or come early."""
    body = bytearray()
    running = None
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        # ties in time between events are common, and a delta may take 4 bytes
        body += _varlen(draw(st.one_of(st.sampled_from([0, 0, 1, 30]),
                                       st.integers(0, 1 << 27))))
        kind = draw(st.sampled_from(["note", "note", "note", "channel", "tempo",
                                     "meta", "sysex"]))
        if kind in ("note", "channel"):
            if kind == "note":  # few pitches and channels, so notes overlap
                status = (draw(st.sampled_from([0x80, 0x90, 0x90]))
                          | draw(st.sampled_from([0, 0, 1])))
                data = [draw(st.integers(60, 61)),
                        draw(st.sampled_from([0, 1, 64, 127]))]
            else:  # poly pressure, controller, program, channel pressure, pitch bend
                status = draw(st.sampled_from([0xA0, 0xB0, 0xC0, 0xD0, 0xE0]))
                data = [draw(st.integers(0, 0x7F))
                        for _ in range(1 if status in (0xC0, 0xD0) else 2)]
            if status != running or not draw(st.booleans()):
                body.append(status)
            body += bytes(data)
            running = status
        elif kind == "tempo":
            body += bytes((0xFF, 0x51, 0x03))
            body += draw(st.integers(1, 0xFFFFFF)).to_bytes(3, "big")
            running = None
        elif kind == "meta":  # text, marker, time signature, end of track, ...
            payload = draw(st.binary(max_size=6))
            body += bytes((0xFF, draw(st.sampled_from([0x01, 0x06, 0x2F, 0x51, 0x58]))))
            body += _varlen(len(payload)) + payload
            running = None
        else:
            payload = draw(st.binary(max_size=6))
            body += bytes((draw(st.sampled_from([0xF0, 0xF7])),))
            body += _varlen(len(payload)) + payload
            running = None
    if draw(st.booleans()):
        body += END
    return bytes(body)


def _outcome(read, data: bytes):
    try:
        return read(data)
    except RhythmiqError as exc:
        return type(exc), str(exc)


@given(st.sampled_from([0, 1]), st.integers(1, 960), st.lists(_track(), min_size=1, max_size=3))
# notes left sounding on two channels, at one tick and pitch: the first
# channel to sound comes first
@example(0, 480, [_event(0, 0x91, 60, 10) + _event(0, 0x90, 60, 20)
                  + _event(0, 0x90, 60, 30) + _event(480, 0xFF, 0x2F, 0x00)])
@settings(max_examples=150, deadline=None)
def test_reader_matches_the_three_pass_reference(fmt, tpq, tracks):
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), tpq)
    chunks = [b"MTrk" + struct.pack(">I", len(body)) + body for body in tracks]
    data = header + b"".join(chunks)
    # the file whole and cut at every byte, then its last track cut at every
    # byte with the chunk length made to fit
    head = header + b"".join(chunks[:-1])
    last = tracks[-1]
    variants = [data[:cut] for cut in range(len(data) + 1)]
    variants += [head + b"MTrk" + struct.pack(">I", cut) + last[:cut] for cut in range(len(last))]
    for variant in variants:
        assert _outcome(load_midi, variant) == _outcome(support.reference_load_midi, variant)


def test_no_notes_is_empty_input():
    with pytest.raises(EmptyInputError):
        load_midi(_smf(END))


def test_save_midi_rejects_empty_and_bad_bpm():
    perf = Performance([NoteEvent(0.0, 1.0, 60)])
    with pytest.raises(EmptyInputError):
        save_midi(Performance([]), 120)
    # 1e-9 bpm overflows the 24-bit tempo field; 1e9 rounds it to 0
    for bpm in (0, -1, float("nan"), float("inf"), 1e-9, 1e9):
        with pytest.raises(ValidationError, match="bpm"):
            save_midi(perf, bpm)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=600),
            st.floats(min_value=0.05, max_value=4, allow_nan=False),
            st.integers(min_value=0, max_value=127),
            st.integers(min_value=1, max_value=127),
        ),
        min_size=1, max_size=15,
        unique_by=(lambda t: t[0], lambda t: t[2]),
    ),
    st.sampled_from([60.0, 97.3, 120.0, 240.0]),
)
def test_save_load_round_trip_within_one_tick(raw, bpm):
    # onsets on a 50 ms lattice so rounding to ticks never reorders notes
    perf = Performance([NoteEvent(k * 0.05, d, p, v) for k, d, p, v in raw])
    back = load_midi(save_midi(perf, bpm))
    assert len(back) == len(perf)
    tick = 60.0 / bpm / 480
    for a, b in zip(perf.notes, back.notes):
        assert b.pitch == a.pitch
        assert b.velocity == a.velocity
        assert abs(b.onset - a.onset) <= tick * 0.51
        # offsets additionally respect the 1-tick minimum duration
        assert abs(b.offset - a.offset) <= tick * 1.01
