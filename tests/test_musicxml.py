import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import support
from rhythmiq import (
    DecompositionError,
    FormatError,
    RhythmiqError,
    ScoreModel,
    SpelledPitch,
    TimeSignature,
    UnsupportedContentError,
    ValidationError,
    default_grammar,
    emit_musicxml,
    parse_musicxml,
    sample_score,
    spell_pitch,
)
import rhythmiq.musicxml as musicxml
import rhythmiq.trees as trees
from rhythmiq.metrics import score_edit_metrics
from rhythmiq.musicxml import _dots_and_type
from rhythmiq.trees import continuation, note, rest, split

SIG = TimeSignature(4, 4)


# --- pitch spelling --------------------------------------------------------

def test_spelled_pitch_str_and_midi():
    assert str(SpelledPitch("D", -1, 4)) == "Db4"
    assert str(SpelledPitch("F", 1, 3)) == "F#3"
    assert SpelledPitch("C", 0, 4).midi == 60
    assert SpelledPitch("B", 1, 3).midi == 60


def test_spell_diatonic_uses_key_spelling():
    # Eb major spells pc 3 as Eb, D major spells pc 1 as C#
    assert spell_pitch(63, fifths=-3) == SpelledPitch("E", -1, 4)
    assert spell_pitch(61, fifths=2) == SpelledPitch("C", 1, 4)


def test_spell_chromatic_follows_key_side():
    assert spell_pitch(61, fifths=-3) == SpelledPitch("D", -1, 4)
    assert spell_pitch(70, fifths=0) == SpelledPitch("A", 1, 4)
    assert spell_pitch(70, fifths=-1) == SpelledPitch("B", -1, 4)


def test_spell_natural_wins_over_accidental():
    assert spell_pitch(60, fifths=0) == SpelledPitch("C", 0, 4)
    assert spell_pitch(65, fifths=7) == SpelledPitch("E", 1, 4)


def test_spell_round_trips_all_pitches_and_keys():
    for fifths in range(-7, 8):
        for midi in range(128):
            sp = spell_pitch(midi, fifths)
            assert sp.midi == midi, (midi, fifths, sp)
            assert abs(sp.alter) <= 2


def test_spell_validation():
    with pytest.raises(ValidationError):
        spell_pitch(-1)
    with pytest.raises(ValidationError):
        spell_pitch(128)
    with pytest.raises(ValidationError):
        spell_pitch(60, fifths=8)


def test_dots_and_type():
    assert _dots_and_type(Fraction(1, 4)) == ("quarter", 0)
    assert _dots_and_type(Fraction(3, 8)) == ("quarter", 1)
    assert _dots_and_type(Fraction(7, 16)) == ("quarter", 2)
    with pytest.raises(ValidationError):
        _dots_and_type(Fraction(5, 16))


# --- emission --------------------------------------------------------------

def _simple_score():
    return ScoreModel(
        SIG,
        [split(note(60), note(62), split(note(64), note(65)), rest())],
        tempo_marking=120.0,
    )


def test_emit_is_deterministic():
    score = _simple_score()
    assert emit_musicxml(score) == emit_musicxml(score)


def test_emit_parse_emit_is_a_fixpoint():
    text = emit_musicxml(_simple_score())
    again, warnings = parse_musicxml(text)
    assert not warnings
    assert emit_musicxml(again) == text


def test_emit_header_and_tempo():
    text = emit_musicxml(_simple_score(), part_name="Alto Sax", title="Au <Privave>")
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "score-partwise" in text
    assert "<part-name>Alto Sax</part-name>" in text
    assert "<work-title>Au &lt;Privave&gt;</work-title>" in text
    assert "<per-minute>120</per-minute>" in text
    assert '<sound tempo="120"/>' in text


def test_emit_whole_measure_rest():
    score = ScoreModel(SIG, [split(note(60), note(62), note(64), note(65)), rest()])
    text = emit_musicxml(score)
    assert '<rest measure="yes"/>' in text


def test_emit_pickup_measure_is_implicit():
    score = ScoreModel(
        SIG,
        [split(rest(), rest(), rest(), note(67)), rest()],
        anacrusis_beats=Fraction(1),
    )
    text = emit_musicxml(score)
    assert '<measure number="0" implicit="yes">' in text
    # the three pickup rests are stripped, leaving one printed quarter
    first = text.split("</measure>")[0]
    assert first.count("<note>") == 1


def test_emit_tuplet_markup():
    score = ScoreModel(
        SIG,
        [split(split(note(60), note(62), note(64)), note(65), rest(), rest())],
    )
    text = emit_musicxml(score)
    assert text.count("<time-modification>") == 3
    assert "<actual-notes>3</actual-notes><normal-notes>2</normal-notes>" in text
    assert '<tuplet type="start" number="1"/>' in text
    assert '<tuplet type="stop" number="1"/>' in text


def test_emit_compound_meter_tempo_units():
    score = ScoreModel(TimeSignature(6, 8), [note(60), rest()], tempo_marking=90.0)
    text = emit_musicxml(score)
    assert "<beat-unit>eighth</beat-unit>" in text
    assert '<sound tempo="45"/>' in text
    roundtrip, _ = parse_musicxml(text)
    assert roundtrip == score


def test_emitted_measures_sum_to_signature_length():
    rng = random.Random(7)
    score = sample_score(default_grammar(), 6, rng)
    root = ET.fromstring(emit_musicxml(score))
    divisions = int(root.find(".//divisions").text)
    for measure in root.find("part").findall("measure"):
        total = sum(int(n.findtext("duration")) for n in measure.findall("note"))
        assert Fraction(total, divisions) == Fraction(4)


# --- round trips -----------------------------------------------------------

def test_round_trip_cross_measure_tie():
    score = ScoreModel(
        SIG,
        [split(rest(), rest(), rest(), note(60)),
         split(continuation(), rest(), rest(), rest())],
    )
    text = emit_musicxml(score)
    assert '<tie type="start"/>' in text
    assert '<tie type="stop"/>' in text
    back, warnings = parse_musicxml(text)
    assert not warnings
    assert back == score


def test_round_trip_anacrusis():
    score = ScoreModel(
        SIG,
        [split(rest(), rest(), rest(), note(67)),
         split(note(60), note(62), note(64), note(65))],
        anacrusis_beats=Fraction(1),
    )
    back, warnings = parse_musicxml(emit_musicxml(score))
    assert not warnings
    assert back.anacrusis_beats == Fraction(1)
    assert back == score


def test_round_trip_accidentals():
    score = ScoreModel(SIG, [split(note(61), note(63), note(66), note(70))])
    back, _ = parse_musicxml(emit_musicxml(score, fifths=-3))
    assert back == score


def test_round_trip_sampled_scores():
    rng = random.Random(991)
    g = default_grammar()
    for _ in range(30):
        score = sample_score(g, 3, rng)
        back, warnings = parse_musicxml(emit_musicxml(score))
        assert not warnings
        assert back == score


@pytest.mark.parametrize("rest_open", [False, True])
@pytest.mark.parametrize("tie_out", [False, True])
def test_round_trip_sampled_pickups(tie_out, rest_open):
    # a tie out of the pickup merges into bar 1, and a pickup that opens
    # with a rest keeps it
    rng = random.Random(17)
    for _ in range(30):
        try:
            score = support.pickup_score(rng, support.random_grammar(rng), tie_out, rest_open)
        except RhythmiqError:  # a random grammar that cannot fill or re-notate a measure
            score = support.pickup_score(rng, default_grammar(), tie_out, rest_open)
        assert parse_musicxml(emit_musicxml(score)) == (score, [])


def test_emit_prints_exactly_the_pickup():
    score = ScoreModel(
        SIG,
        [split(rest(), split(rest(), note(60)), note(62), note(64)),
         split(note(60), note(62), note(64), note(65))],
        anacrusis_beats=Fraction(3),
    )
    text = emit_musicxml(score)
    # the rest before the pickup is dropped, the one opening it is kept
    assert text.split("</measure>")[0].count("<rest/>") == 1
    assert parse_musicxml(text) == (score, [])
    # a note before the pickup, or a rest across its start, cannot be printed
    for measure, beats in ((split(rest(), note(60), note(62), note(64)), 2),
                           (split(rest(), rest(), note(62), note(64)), Fraction(5, 2))):
        with pytest.raises(ValidationError, match=f"^the pickup of {beats} beats starts"):
            emit_musicxml(ScoreModel(SIG, [measure, rest()], anacrusis_beats=beats))


def test_emit_rejects_a_tempo_that_overflows():
    # 1e308 whole notes per minute are 4e308 quarters, past the largest float
    score = ScoreModel(TimeSignature(4, 1), [note(60)], tempo_marking=1e308)
    with pytest.raises(ValidationError, match=r"^tempo 1e\+308 overflows"):
        emit_musicxml(score)


# --- parsing ---------------------------------------------------------------

HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<score-partwise version="3.1">\n'
    '  <part-list><score-part id="P1"><part-name>X</part-name>'
    "</score-part></part-list>\n"
    '  <part id="P1">'
)
TAIL = "  </part>\n</score-partwise>"
ATTRS = (
    "<attributes><divisions>1</divisions>"
    "<time><beats>4</beats><beat-type>4</beat-type></time></attributes>"
)
NOTE_Q = (
    "<note><pitch><step>C</step><octave>4</octave></pitch>"
    "<duration>1</duration><type>quarter</type></note>"
)
REST_Q = "<note><rest/><duration>1</duration><type>quarter</type></note>"


def _doc(*measures):
    return "\n".join([HEAD, *measures, TAIL])


def test_parse_forward_counts_as_silence():
    body = f"{NOTE_Q}<forward><duration>1</duration></forward>{NOTE_Q}{REST_Q}"
    score, warnings = parse_musicxml(_doc(f'<measure number="1">{ATTRS}{body}</measure>'))
    assert not warnings
    assert score.measures[0].leaf_labels() == ["note", "rest", "note", "rest"]


def test_parse_skips_grace_notes_with_warning():
    grace = (
        "<note><grace/><pitch><step>D</step><octave>4</octave></pitch>"
        "<type>eighth</type></note>"
    )
    body = f"{grace}{NOTE_Q}{REST_Q}{REST_Q}{REST_Q}"
    score, warnings = parse_musicxml(_doc(f'<measure number="1">{ATTRS}{body}</measure>'))
    assert warnings == ["measure 1: grace note skipped"]
    assert score.measures[0].leaf_labels() == ["note", "rest", "rest", "rest"]


def test_parse_dangling_tie_stop_becomes_onset():
    tied = (
        "<note><pitch><step>C</step><octave>4</octave></pitch>"
        '<duration>1</duration><tie type="stop"/><type>quarter</type></note>'
    )
    body = f"{tied}{REST_Q}{REST_Q}{REST_Q}"
    score, warnings = parse_musicxml(_doc(f'<measure number="1">{ATTRS}{body}</measure>'))
    assert warnings == ["measure 1: dangling tie stop treated as onset"]
    assert score.measures[0].leaf_labels() == ["note", "rest", "rest", "rest"]


def test_parse_assumes_defaults_with_warnings():
    score, warnings = parse_musicxml(
        _doc(f'<measure number="1">{NOTE_Q}{NOTE_Q}{NOTE_Q}{NOTE_Q}</measure>')
    )
    assert "no time signature; assuming 4/4" in warnings
    assert "no divisions declared; assuming 1" in warnings
    assert score.time_signature == SIG


def test_parse_rejects_chords():
    chord = (
        "<note><chord/><pitch><step>E</step><octave>4</octave></pitch>"
        "<duration>1</duration></note>"
    )
    doc = _doc(f'<measure number="1">{ATTRS}{NOTE_Q}{chord}{REST_Q}{REST_Q}</measure>')
    with pytest.raises(UnsupportedContentError, match="^measure 1: chord"):
        parse_musicxml(doc)


def test_parse_rejects_backup():
    doc = _doc(
        f'<measure number="1">{ATTRS}{NOTE_Q}'
        f"<backup><duration>1</duration></backup>{NOTE_Q}{NOTE_Q}{NOTE_Q}</measure>"
    )
    with pytest.raises(UnsupportedContentError, match="^measure 1: backup"):
        parse_musicxml(doc)


def test_parse_rejects_multiple_parts():
    text = emit_musicxml(_simple_score())
    start = text.index('<part id="P1">')
    end = text.index("</part>") + len("</part>")
    part = text[start:end].replace('"P1"', '"P2"')
    doubled = text[:end] + "\n" + part + text[end:]
    with pytest.raises(UnsupportedContentError, match="2 parts"):
        parse_musicxml(doubled)


def test_parse_rejects_other_roots():
    with pytest.raises(UnsupportedContentError, match="score-timewise"):
        parse_musicxml("<score-timewise></score-timewise>")


def test_parse_format_errors():
    with pytest.raises(FormatError, match="not well-formed"):
        parse_musicxml("<score-partwise><part>")
    with pytest.raises(FormatError, match="no <part>"):
        parse_musicxml("<score-partwise></score-partwise>")
    with pytest.raises(FormatError, match="no measures"):
        parse_musicxml('<score-partwise><part id="P1"></part></score-partwise>')
    bad = "<note><duration>1</duration></note>"
    with pytest.raises(FormatError, match="^measure 2: note without pitch or rest$"):
        parse_musicxml(_doc(f'<measure number="1">{ATTRS}{NOTE_Q * 4}</measure>',
                            f'<measure number="2">{bad}</measure>'))


def test_parse_rejects_overfull_measure():
    doc = _doc(f'<measure number="1">{ATTRS}{NOTE_Q * 5}</measure>')
    with pytest.raises(ValidationError, match="more than"):
        parse_musicxml(doc)


def test_parse_rejects_underfull_interior_measure():
    doc = _doc(
        f'<measure number="1">{ATTRS}{NOTE_Q * 4}</measure>',
        f'<measure number="2">{NOTE_Q * 3}</measure>',
        f'<measure number="3">{NOTE_Q * 4}</measure>',
    )
    with pytest.raises(ValidationError, match="fewer than"):
        parse_musicxml(doc)


def test_parse_allows_short_final_measure():
    doc = _doc(
        f'<measure number="1">{ATTRS}{NOTE_Q * 4}</measure>',
        f'<measure number="2">{NOTE_Q * 2}</measure>',
    )
    score, _ = parse_musicxml(doc)
    assert score.measures[1].leaf_labels() == ["note", "note", "rest", "rest"]


def test_parse_rejects_out_of_range_pitch():
    high = (
        "<note><pitch><step>C</step><octave>11</octave></pitch>"
        "<duration>4</duration><type>whole</type></note>"
    )
    with pytest.raises(ValidationError, match="^measure 1: pitch C0/11 out of range$"):
        parse_musicxml(_doc(f'<measure number="1">{ATTRS}{high}</measure>'))


def test_parse_tie_across_a_change_of_divisions():
    # the tied quarter is 1 division before the barline and 3 after it
    tied_in = (
        "<note><pitch><step>C</step><octave>4</octave></pitch>"
        '<duration>3</duration><tie type="stop"/><type>quarter</type></note>'
    )
    tied_out = NOTE_Q.replace("</duration>", '</duration><tie type="start"/>')
    rests = "<note><rest/><duration>9</duration></note>"
    doc = _doc(
        f'<measure number="1">{ATTRS}{REST_Q * 3}{tied_out}</measure>',
        f'<measure number="2"><attributes><divisions>3</divisions></attributes>'
        f"{tied_in}{rests}</measure>",
    )
    score, warnings = parse_musicxml(doc)
    assert not warnings
    assert score == ScoreModel(
        SIG,
        [split(rest(), rest(), rest(), note(60)),
         split(continuation(), rest(), rest(), rest())],
    )
    assert support.reference_parse_musicxml(doc) == (score, warnings)


def _time(beats: int) -> str:
    return f"<attributes><time><beats>{beats}</beats><beat-type>4</beat-type></time></attributes>"


@pytest.mark.parametrize("first, second, old, new", [
    # read as one 4/4 score with a 3-beat pickup when only the last <time> counted
    (ATTRS.replace(">4<", ">3<", 1) + NOTE_Q * 3, _time(4) + NOTE_Q * 4, "3/4", "4/4"),
    # failed as "measure 1 holds 4 quarters, more than 3"
    (ATTRS + NOTE_Q * 4, _time(3) + NOTE_Q * 3, "4/4", "3/4"),
    # a pickup before a change of time and divisions
    (ATTRS.replace(">1<", ">3<") + NOTE_Q.replace(">1<", ">3<"),
     "<attributes><divisions>2</divisions>"
     "<time><beats>3</beats><beat-type>4</beat-type></time></attributes>"
     + NOTE_Q.replace(">1<", ">2<") * 3, "4/4", "3/4"),
    # no <time> in force is 4/4
    ("<attributes><divisions>1</divisions></attributes>" + NOTE_Q * 4,
     _time(3) + NOTE_Q * 3, "4/4", "3/4"),
], ids=["three-then-four", "four-then-three", "pickup-then-three", "default-then-three"])
def test_parse_rejects_a_change_of_time_signature(first, second, old, new):
    doc = _doc(f'<measure number="1">{first}</measure>',
               f'<measure number="2">{second}</measure>')
    with pytest.raises(UnsupportedContentError,
                       match=f"^measure 2: time signature changes from {old} to {new}$"):
        parse_musicxml(doc)
    with pytest.raises(UnsupportedContentError):
        support.reference_parse_musicxml(doc)


def test_parse_accepts_a_restated_time_signature():
    doc = _doc(f'<measure number="1">{ATTRS}{NOTE_Q * 4}</measure>',
               f'<measure number="2">{_time(4)}{NOTE_Q * 4}</measure>')
    score, warnings = parse_musicxml(doc)
    assert not warnings
    assert score.time_signature == TimeSignature(4, 4)
    assert len(score.measures) == 2


@pytest.mark.parametrize("last", [True, False])
def test_parse_rejects_a_change_of_divisions_after_the_first_note(last):
    # two quarters, then divisions 2 and four eighths: the change would
    # rescale the quarters before it if read from the measure's start
    eighth = NOTE_Q.replace("quarter", "eighth")
    doc = _doc(
        f'<measure number="1">{ATTRS}{NOTE_Q * 4}</measure>',
        f'<measure number="2">{NOTE_Q * 2}'
        f"<attributes><divisions>2</divisions></attributes>{eighth * 4}</measure>",
        *([] if last else [f'<measure number="3">{REST_Q * 4}</measure>']),
    )
    with pytest.raises(UnsupportedContentError,
                       match="^measure 2: <divisions> or <time> after the measure's "
                             "first note$"):
        parse_musicxml(doc)
    # a key change mid-measure is read where it stands
    keyed = doc.replace("<divisions>2</divisions>", "<key><fifths>2</fifths></key>")
    score, warnings = parse_musicxml(keyed.replace(eighth * 4, NOTE_Q * 2))
    assert not warnings
    assert score.measures[1].leaf_labels() == ["note"] * 4


# --- the integer-tick parser against the Fraction reference ----------------

_SIGNATURES = [(2, 4), (3, 4), (4, 4), (5, 4), (3, 8), (6, 8), (2, 2)]


def _rewrite(text: str, rng: random.Random) -> str:
    """An emitted score rewritten the ways other writers spell scores: new
    divisions, changed once mid-score; rests as <forward> gaps; grace
    notes; dangling tie stops; a shortened first measure; and sometimes a
    <time> change."""
    root = ET.fromstring(text)
    measures = root.find("part").findall("measure")
    first = measures[0].find("attributes/divisions")
    divisions = int(first.text)
    change = rng.randrange(1, len(measures)) if len(measures) > 1 and rng.random() < 0.8 else 0
    before, after = rng.randint(1, 7), rng.randint(1, 7)
    first.text = str(divisions * (before if change else after))
    for i, measure in enumerate(measures):
        for duration in measure.iter("duration"):
            duration.text = str(int(duration.text) * (before if i < change else after))
    if change:
        attributes = ET.Element("attributes")
        ET.SubElement(attributes, "divisions").text = str(divisions * after)
        measures[change].insert(0, attributes)

    for measure in measures:
        for index, elem in enumerate(list(measure)):
            if elem.tag != "note":
                continue
            if elem.find("rest") is not None and rng.random() < 0.3:
                forward = ET.Element("forward")
                forward.append(elem.find("duration"))
                measure.remove(elem)
                measure.insert(index, forward)
            elif elem.find("pitch") is not None and rng.random() < 0.1:
                ET.SubElement(elem, "tie", type="stop")
        if rng.random() < 0.2:
            grace = ET.fromstring("<note><grace/><pitch><step>D</step><octave>5</octave>"
                                  "</pitch><type>eighth</type></note>")
            measure.insert(rng.randint(0, len(measure)), grace)

    timed = [e for e in measures[0] if e.tag in ("note", "forward")]
    if len(measures) > 1 and len(timed) > 1 and rng.random() < 0.4:
        for elem in timed[:rng.randint(1, len(timed) - 1)]:
            measures[0].remove(elem)
    if rng.random() < 0.15:
        measure = rng.choice(measures)
        attributes = measure.find("attributes")
        if attributes is None:
            attributes = ET.Element("attributes")
            measure.insert(0, attributes)
        beats, beat_type = rng.choice(_SIGNATURES)
        time = ET.SubElement(attributes, "time")
        ET.SubElement(time, "beats").text = str(beats)
        ET.SubElement(time, "beat-type").text = str(beat_type)
    return ET.tostring(root, encoding="unicode")


def _parsed(parse, text):
    try:
        return parse(text)
    except RhythmiqError as exc:
        return type(exc)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_parse_matches_the_fraction_reference(seed):
    # equal scores and warnings, or the same error class, on rewritten
    # emitted scores; random grammars add tuplets to the default's rhythms
    rng = random.Random(seed)
    n_measures = rng.randint(1, 6)
    try:
        score = sample_score(support.random_grammar(rng), n_measures, rng)
    except RhythmiqError:  # a random grammar that cannot fill or re-notate a measure
        score = sample_score(default_grammar(), n_measures, rng)
    text = _rewrite(emit_musicxml(score), rng)
    assert _parsed(parse_musicxml, text) == _parsed(support.reference_parse_musicxml, text)


# --- trees shared between the scores of a pair --------------------------------

_A = split(note(60), note(62), note(64), rest())
# the reference's measures: A twice, once after a rest and once opening the score
_REF_MEASURES = [
    _A,
    split(split(note(65), note(67), note(69)), note(71), continuation(), rest()),
    _A,
    split(note(72), continuation(), continuation(), note(74)),
    split(rest(), note(60), split(note(62), note(64)), note(65)),
    split(note(60), continuation(), note(64), continuation()),
]
# the estimate differs in the third measure only, which ends on a rest
_EST_MEASURES = [*_REF_MEASURES[:2], split(note(61), rest(), note(63), rest()),
                 *_REF_MEASURES[3:]]


def _rescaled(text: str, factor: int) -> str:
    """The same score written at ``factor`` times its <divisions>."""
    return re.sub(r"<(divisions|duration)>(\d+)</\1>",
                  lambda m: f"<{m[1]}>{int(m[2]) * factor}</{m[1]}>", text)


@pytest.mark.parametrize("factor", [1, 7, 40])
def test_a_pair_parsed_with_one_map_shares_the_trees_of_equal_slices(factor):
    # the slices are keyed in lowest terms, so an estimate written at other
    # <divisions> shares the reference's trees too
    ref_text = emit_musicxml(ScoreModel(SIG, _REF_MEASURES))
    est_text = _rescaled(emit_musicxml(ScoreModel(SIG, _EST_MEASURES)), factor)
    decomposed = {}
    ref, _ = parse_musicxml(ref_text, decomposed=decomposed)
    est, _ = parse_musicxml(est_text, decomposed=decomposed)
    assert ref == parse_musicxml(ref_text)[0]
    assert est == parse_musicxml(est_text)[0]
    assert [e is r for e, r in zip(est.measures, ref.measures)] == [
        True, True, False, True, True, True]
    # within one score too, with or without a map
    alone, _ = parse_musicxml(ref_text)
    assert ref.measures[0] is ref.measures[2]
    assert alone.measures[0] is alone.measures[2]
    assert len(decomposed) == 6


def test_a_pair_decomposes_and_prints_each_distinct_measure_once(monkeypatch):
    decomposes, walks = [], []
    decompose, pieces = musicxml.decompose_measure, trees._Notator.pieces
    monkeypatch.setattr(musicxml, "decompose_measure",
                        lambda *args, **kwargs: decomposes.append(args)
                        or decompose(*args, **kwargs))
    monkeypatch.setattr(trees._Notator, "pieces",
                        lambda self, *args: walks.append(args) or pieces(self, *args))
    decomposed = {}
    ref, _ = parse_musicxml(emit_musicxml(ScoreModel(SIG, _REF_MEASURES)),
                            decomposed=decomposed)
    est, _ = parse_musicxml(_rescaled(emit_musicxml(ScoreModel(SIG, _EST_MEASURES)), 3),
                            decomposed=decomposed)
    walks.clear()  # the writer prints the scores it emits
    counts = score_edit_metrics(ref, est)
    # five distinct measures in the reference, one more in the estimate
    assert len(decomposes) == 6
    assert len(walks) == 6
    assert (counts.note_insertions, counts.note_deletions,
            counts.rest_insertions, counts.rest_deletions) == (3, 2, 0, 1)


def test_a_measure_too_deep_for_the_pair_raises_the_reference_error():
    # with 1024 divisions to the quarter, a second note at 1/4096 of the
    # measure is deeper than the parse bound; sharing the map changes no error
    body = "".join(
        f"<note><pitch><step>{step}</step><octave>4</octave></pitch>"
        f"<duration>{duration}</duration></note>"
        for step, duration in (("C", 1), ("D", 4095)))
    deep = (
        '<score-partwise version="3.1"><part-list><score-part id="P1">'
        '<part-name>x</part-name></score-part></part-list><part id="P1">'
        '<measure number="1"><attributes><divisions>1024</divisions>'
        "<time><beats>4</beats><beat-type>4</beat-type></time></attributes>"
        f"{body}</measure></part></score-partwise>"
    )
    decomposed = {}
    for text in (deep, _rescaled(deep, 5)):
        with pytest.raises(DecompositionError, match=r"^onsets at \['1/4096'\] unreachable"):
            parse_musicxml(text, decomposed=decomposed)
    assert decomposed == {}
