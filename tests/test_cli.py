import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.io import wavfile

import support
from rhythmiq import (
    BeatGrid,
    ConfigError,
    NoteEvent,
    Performance,
    ScoreModel,
    TimeSignature,
    best_rotation_fmeasure,
    default_grammar,
    downbeat_fmeasure,
    emit_musicxml,
    enumerate_rotations,
    load_beats,
    parse_grammar_file,
    render_performance,
    sample_score,
    save_beats,
    save_midi,
)
from rhythmiq.cli import PipelineConfig, load_config, main
from rhythmiq.metrics import rotation_fmeasures
from rhythmiq.musicxml import parse_musicxml
from rhythmiq.trees import note, rest, split

TINY_GRAMMAR = "maxdepth = 1\nstart 4/4 = S\nS -> note : 0.6\nS -> rest : 0.4\n"


def _quarters_midi(tmp_path, n=16, bpm=120.0, name="perf.mid"):
    period = 60.0 / bpm
    perf = Performance(
        [NoteEvent(k * period, period * 0.9, 60 + k % 12, 80) for k in range(n)]
    )
    path = tmp_path / name
    path.write_bytes(save_midi(perf, bpm))
    return path


def _beats_csv(tmp_path, n_beats, period=0.5, phase=0, name="beats.csv"):
    grid = BeatGrid([period * k for k in range(n_beats)], 4, phase)
    path = tmp_path / name
    path.write_text(save_beats(grid))
    return path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# --- config ------------------------------------------------------------------

def test_load_config_overrides(tmp_path):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text(
        "# tuning\nalpha = 2.5\nfallback_resolution = 8\non_error = raise\n"
    )
    cfg = load_config(cfg_file)
    assert cfg.alpha == 2.5
    assert cfg.fallback_resolution == 8
    assert cfg.on_error == "raise"
    assert cfg.rest_threshold == 0.5


def test_pipeline_config_takes_the_quantizer_defaults():
    import inspect

    from rhythmiq import metrics, quantize, tempo
    from rhythmiq.quantize import DEFAULT_ALPHA, QuantConfig

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    cfg = PipelineConfig()
    assert cfg.alpha == DEFAULT_ALPHA == QuantConfig().alpha
    assert cfg.rest_threshold == QuantConfig().rest_threshold
    assert (cfg.fallback_resolution == default(quantize.fallback_quantize, "resolution")
            == default(quantize.quantize_performance, "fallback_resolution"))
    assert (cfg.onset_tolerance == default(metrics.note_metrics, "onset_tolerance")
            == metrics.DEFAULT_ONSET_TOLERANCE)
    assert (cfg.beat_tolerance == default(metrics.downbeat_fmeasure, "tolerance")
            == metrics.DEFAULT_BEAT_TOLERANCE)
    assert cfg.cluster_width == default(tempo.estimate_tempo_ioi, "cluster_width")
    assert (cfg.min_bpm, cfg.max_bpm) == (tempo.DEFAULT_MIN_BPM, tempo.DEFAULT_MAX_BPM)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    with pytest.raises(ConfigError, match="unknown setting"):
        load_config(bad)
    bad.write_text("alpha\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        load_config(bad)
    bad.write_text("alpha = fast\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(bad)


@pytest.mark.parametrize("module", ["scipy.io", "numpy", "urllib.request",
                                    "concurrent.futures", "rhythmiq.metrics",
                                    "rhythmiq.tempo", "xml.etree.ElementTree",
                                    "json", "statistics", "dataclasses",
                                    "inspect"])
def test_importing_cli_leaves_module_unloaded(module):
    # only `eval sdr` needs numpy and scipy.io, escaping XML text needs no
    # urllib, and only `--jobs` above 1 needs a thread pool; each command
    # imports the metrics, tempo, JSON and XML parsing code it runs, so the
    # start-up of `quantize` pays for none of them; the value types are
    # plain classes, so nothing loads dataclasses or the inspect it imports
    import subprocess
    import sys
    from pathlib import Path

    import rhythmiq

    src = str(Path(rhythmiq.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rhythmiq.cli; "
            "print(sys.argv[2] in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, module],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_importing_every_command_module_leaves_dataclasses_unloaded():
    # the eval and tempo commands also load metrics and tempo, whose result
    # types are plain records too
    import subprocess
    import sys
    from pathlib import Path

    import rhythmiq

    src = str(Path(rhythmiq.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import rhythmiq.cli, rhythmiq.metrics, rhythmiq.tempo; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_importing_cli_compiles_no_lattice():
    # grammars compile their lattice on first quantize, so commands that
    # never quantize (eval, tempo) pay nothing for it
    import subprocess
    import sys
    from pathlib import Path

    import rhythmiq

    src = str(Path(rhythmiq.__file__).resolve().parents[1])
    code = ("import gc, sys; sys.path.insert(0, sys.argv[1]); import rhythmiq.cli; "
            "from rhythmiq.grammar import Lattice; "
            "print(any(isinstance(o, Lattice) for o in gc.get_objects()))")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("metric, unloaded", [
    ("score", ["rhythmiq.grammar", "rhythmiq.quantize"]),
    ("notes", ["rhythmiq.grammar", "rhythmiq.quantize", "rhythmiq.musicxml",
               "rhythmiq.trees"]),
])
def test_eval_loads_only_the_modules_it_runs(tmp_path, metric, unloaded):
    # `eval score` reads MusicXML into trees but quantizes nothing, and
    # `eval notes` reads MIDI only
    import subprocess
    import sys
    from pathlib import Path

    import rhythmiq

    if metric == "score":
        path = tmp_path / "s.musicxml"
        path.write_text(emit_musicxml(ScoreModel(TimeSignature(4, 4),
                                                 [split(note(60), rest())])))
    else:
        path = _quarters_midi(tmp_path)
    src = str(Path(rhythmiq.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from rhythmiq.cli import main\n"
            "code = main(['eval', sys.argv[2], sys.argv[3], sys.argv[3]])\n"
            "print(code, 'rhythmiq.metrics' in sys.modules,\n"
            "      [m for m in sys.argv[4:] if m in sys.modules], file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code, src, metric, str(path), *unloaded],
                         capture_output=True, text=True, check=True)
    assert out.stderr.strip() == "0 True []"


def test_the_package_resolves_its_public_names_lazily():
    # `import rhythmiq` loads no submodule, yet every name in __all__
    # resolves, binds under `import *` and is listed by dir()
    import subprocess
    import sys
    from pathlib import Path

    import rhythmiq

    src = str(Path(rhythmiq.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rhythmiq\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('rhythmiq.'))\n"
        "names = {}\n"
        "exec('from rhythmiq import *', names)\n"
        "print(loaded, len(rhythmiq.__all__),\n"
        "      sorted(set(rhythmiq.__all__) - set(names)),\n"
        "      sorted(set(rhythmiq.__all__) - set(dir(rhythmiq))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] 62 [] []"
    for name in rhythmiq.__all__:
        value = getattr(rhythmiq, name)
        module = getattr(value, "__module__", None)
        if module is not None and module.startswith("rhythmiq."):
            assert getattr(sys.modules[module], name) is value
    with pytest.raises(AttributeError, match="no attribute 'quantize_score'"):
        rhythmiq.quantize_score


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(on_error="ignore")
    with pytest.raises(ConfigError):
        PipelineConfig(rotation_mode="none")


# --- tempo -------------------------------------------------------------------

def test_tempo_subcommand(tmp_path, capsys):
    midi = _quarters_midi(tmp_path)
    assert main(["tempo", str(midi)]) == 0
    payload = _json_out(capsys)
    assert abs(payload["bpm"] - 120.0) <= 0.5
    assert payload["min_bpm"] == pytest.approx(105.0)
    assert payload["max_bpm"] == pytest.approx(350.0)
    assert payload["cluster_support"] > 0


def test_tempo_insufficient_data_exits_2(tmp_path, capsys):
    midi = _quarters_midi(tmp_path, n=2)
    assert main(["tempo", str(midi)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["tempo", str(tmp_path / "nope.mid")]) == 1
    assert "error:" in capsys.readouterr().err


# --- quantize ----------------------------------------------------------------

def test_quantize_writes_score(tmp_path, capsys):
    midi = _quarters_midi(tmp_path, n=8)
    beats = _beats_csv(tmp_path, 9)
    out = tmp_path / "score.musicxml"
    assert main(["quantize", str(midi), "--beats", str(beats),
                 "--out", str(out)]) == 0
    score, warnings = parse_musicxml(out.read_text())
    assert not warnings
    assert len(score.measures) == 2
    for m in score.measures:
        assert m.leaf_labels() == ["note"] * 4
    assert not (tmp_path / "score.warnings.txt").exists()
    assert capsys.readouterr().err == ""


def test_quantize_stdout_and_title(tmp_path, capsys):
    midi = _quarters_midi(tmp_path, n=4)
    beats = _beats_csv(tmp_path, 5)
    assert main(["quantize", str(midi), "--beats", str(beats),
                 "--title", "Now's the Time"]) == 0
    out = capsys.readouterr().out
    assert "score-partwise" in out
    assert "<work-title>Now&#x27;s the Time</work-title>" in out or \
        "<work-title>Now's the Time</work-title>" in out


def test_quantize_warning_sidecar(tmp_path, capsys):
    grammar = tmp_path / "tiny.grammar"
    grammar.write_text(TINY_GRAMMAR)
    perf = Performance([NoteEvent(0.0, 0.5, 60), NoteEvent(1.0, 0.5, 62)])
    midi = tmp_path / "two.mid"
    midi.write_bytes(save_midi(perf, 120.0))
    beats = _beats_csv(tmp_path, 5)
    out = tmp_path / "two.musicxml"
    assert main(["quantize", str(midi), "--beats", str(beats),
                 "--grammar", str(grammar), "--out", str(out)]) == 0
    sidecar = tmp_path / "two.warnings.txt"
    assert sidecar.exists()
    assert "fallback" in sidecar.read_text()
    assert "fallback" in capsys.readouterr().err


def test_quantize_removes_a_stale_warning_sidecar(tmp_path, capsys):
    # the first run falls back and warns; a clean second run to the same
    # --out must not leave that run's warnings beside its score
    grammar = tmp_path / "tiny.grammar"
    grammar.write_text(TINY_GRAMMAR)
    perf = Performance([NoteEvent(0.0, 0.5, 60), NoteEvent(1.0, 0.5, 62)])
    midi = tmp_path / "two.mid"
    midi.write_bytes(save_midi(perf, 120.0))
    beats = _beats_csv(tmp_path, 5)
    out = tmp_path / "two.musicxml"
    sidecar = tmp_path / "two.warnings.txt"
    args = ["quantize", str(midi), "--beats", str(beats), "--out", str(out)]
    assert main([*args, "--grammar", str(grammar)]) == 0
    assert "fallback" in sidecar.read_text()
    capsys.readouterr()
    assert main(args) == 0
    assert not sidecar.exists()
    assert capsys.readouterr().err == ""
    score, warnings = parse_musicxml(out.read_text())
    assert not warnings
    assert score.measures[0].leaf_labels() == ["note", "rest", "note", "rest"]


@pytest.mark.parametrize("resolution", ["0", "-2"])
def test_quantize_rejects_a_bad_resolution(tmp_path, capsys, resolution):
    # on-grid quarters never fall back, so the grid is never asked for
    midi = _quarters_midi(tmp_path, n=8)
    beats = _beats_csv(tmp_path, 9)
    assert main(["quantize", str(midi), "--beats", str(beats),
                 f"--resolution={resolution}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: resolution must be >= 1, got {resolution}\n"


def test_quantize_on_error_raise_exits_1(tmp_path, capsys):
    grammar = tmp_path / "tiny.grammar"
    grammar.write_text(TINY_GRAMMAR)
    perf = Performance([NoteEvent(0.0, 0.5, 60), NoteEvent(1.0, 0.5, 62)])
    midi = tmp_path / "two.mid"
    midi.write_bytes(save_midi(perf, 120.0))
    beats = _beats_csv(tmp_path, 5)
    assert main(["quantize", str(midi), "--beats", str(beats),
                 "--grammar", str(grammar), "--on-error", "raise"]) == 1


def test_bad_config_exits_3(tmp_path, capsys):
    midi = _quarters_midi(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["tempo", str(midi), "--config", str(cfg)]) == 3
    cfg.write_text("on_error = bogus\n")
    assert main(["tempo", str(midi), "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.endswith(
        "error: on_error must be raise|fallback, got 'bogus'\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_rejects_a_non_finite_tolerance(tmp_path, capsys, value):
    midi = _quarters_midi(tmp_path)
    assert main(["eval", "notes", str(midi), str(midi), "--tol", value]) == 1
    assert capsys.readouterr().err == (
        f"error: onset_tolerance must be finite, got {value}\n")
    beats = tmp_path / "a.txt"
    beats.write_text("0.0\n2.0\n4.0\n")
    assert main(["eval", "downbeats", str(beats), str(beats), "--tol", value]) == 1
    assert capsys.readouterr().err == f"error: tolerance must be finite, got {value}\n"
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"onset_tolerance = {value}\n")
    assert main(["eval", "notes", str(midi), str(midi), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: onset_tolerance must be finite, got {value}\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_tempo_rejects_a_non_finite_cluster_width(tmp_path, capsys, value):
    midi = _quarters_midi(tmp_path)
    cfg = tmp_path / "width.cfg"
    cfg.write_text(f"cluster_width = {value}\n")
    assert main(["tempo", str(midi), "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: cluster_width must be finite, got {value}\n")


def test_a_key_signature_out_of_range_exits_1_before_any_work(tmp_path, capsys):
    # the MIDI file does not exist: the check comes before it is read
    midi, beats = tmp_path / "absent.mid", _beats_csv(tmp_path, 5)
    error = "error: fifths 99 outside -7..7\n"
    assert main(["quantize", str(midi), "--beats", str(beats), "--fifths", "99"]) == 1
    assert capsys.readouterr() == ("", error)
    cfg = tmp_path / "key.cfg"
    cfg.write_text("fifths = 99\n")
    for command in ("quantize", "rotations"):
        assert main([command, str(midi), "--beats", str(beats), "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", error)
    for fifths in (-7, 7):
        assert PipelineConfig(fifths=fifths).fifths == fifths


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_quantize_rejects_a_non_finite_alpha(tmp_path, capsys, alpha):
    midi = _quarters_midi(tmp_path, n=4)
    beats = _beats_csv(tmp_path, 5)
    assert main(["quantize", str(midi), "--beats", str(beats),
                 "--alpha", alpha]) == 1
    assert capsys.readouterr().err == f"error: alpha must be finite, got {alpha}\n"


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_quantize_rejects_a_non_finite_beat_time(tmp_path, capsys, time):
    midi = _quarters_midi(tmp_path, n=4)
    beats = tmp_path / "beats.csv"
    beats.write_text(f"0.0,1\n0.5,2\n{time},3\n1.5,4\n2.0,1\n")
    assert main(["quantize", str(midi), "--beats", str(beats)]) == 1
    assert capsys.readouterr().err == (
        f"error: line 3: beat time must be finite, got '{time}'\n")


def _with_grace_note(xml: str) -> str:
    """``xml`` with a grace note before its first note, which the reader skips."""
    grace = ("<note><grace/><pitch><step>D</step><octave>4</octave></pitch>"
             "<type>eighth</type></note>")
    return xml.replace("<note>", grace + "<note>", 1)


# --- train-grammar -----------------------------------------------------------

def test_train_grammar_from_scores(tmp_path, capsys):
    rng = random.Random(5)
    paths = []
    for i in range(3):
        score = sample_score(default_grammar(), 4, rng)
        p = tmp_path / f"score{i}.musicxml"
        p.write_text(emit_musicxml(score))
        paths.append(str(p))
    out = tmp_path / "trained.grammar"
    assert main(["train-grammar", *paths, "--out", str(out)]) == 0
    trained = parse_grammar_file(out.read_text())
    assert "M4_4" in trained.nonterminals


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_grammar_rejects_a_non_finite_smoothing(tmp_path, capsys, value):
    score = tmp_path / "score.musicxml"
    score.write_text(emit_musicxml(sample_score(default_grammar(), 4, random.Random(5))))
    out = tmp_path / "trained.grammar"
    assert main(["train-grammar", str(score), "--smoothing", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: smoothing must be finite, got {value}\n"
    assert not out.exists()


def test_a_bad_grammar_line_exits_3_with_its_line_number(tmp_path, capsys):
    midi, beats = _quarters_midi(tmp_path, n=4), _beats_csv(tmp_path, 5)
    grammar = tmp_path / "bad.grammar"
    for line, error in [
        ("start 4/5 = S", "line 3: denominator must be one of (1, 2, 4, 8, 16, 32), got 5"),
        ("S -> (S) : 1.0", "line 3: a split needs at least 2 children"),
        ("S -> note : 1e400", "line 3: probability must be a finite number > 0, "
                              "got '1e400'"),
        ("start 4/4 = S", "line 3: duplicate start for 4/4 (first on line 2)"),
        ("maxdepth = 30", "line 3: maxdepth must be >= 1 and <= 29, got 30"),
    ]:
        grammar.write_text(TINY_GRAMMAR.replace("start 4/4 = S", f"start 4/4 = S\n{line}"))
        assert main(["quantize", str(midi), "--beats", str(beats),
                     "--grammar", str(grammar)]) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_a_grammar_too_large_to_compile_exits_3(tmp_path, capsys):
    # M splits into itself, so its lattice doubles per level: 2 ** 17 - 1
    # nodes at maxdepth 16
    midi, beats = _quarters_midi(tmp_path, n=4), _beats_csv(tmp_path, 5)
    grammar = tmp_path / "deep.grammar"
    grammar.write_text("maxdepth = 16\nstart 4/4 = M\nM -> (M M) : 0.5\nM -> note : 0.5\n")
    out = tmp_path / "out.musicxml"
    assert main(["quantize", str(midi), "--beats", str(beats), "--grammar", str(grammar),
                 "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: the derivations of a 4/4 measure pass "
                                       "65536 lattice nodes; lower maxdepth\n")
    assert not out.exists()


def test_train_grammar_warns_of_what_the_reader_skips(tmp_path, capsys):
    xml = emit_musicxml(sample_score(default_grammar(), 4, random.Random(5)))
    clean, graced = tmp_path / "clean.musicxml", tmp_path / "graced.musicxml"
    clean.write_text(xml)
    graced.write_text(_with_grace_note(xml))
    assert main(["train-grammar", str(clean)]) == 0
    expected = capsys.readouterr()
    assert expected.err == ""
    assert main(["train-grammar", str(graced)]) == 0
    got = capsys.readouterr()
    assert got.out == expected.out
    assert got.err == f"warning: {graced}: measure 1: grace note skipped\n"


# --- rotations ---------------------------------------------------------------

def _rotation_setup(tmp_path):
    # performance aligned so true downbeats sit at phase 2 of the grid
    midi = _quarters_midi(tmp_path, n=16)
    beats = _beats_csv(tmp_path, 17)
    grid_times = [0.5 * k for k in range(17)]
    ref = tmp_path / "ref_downbeats.txt"
    ref.write_text("\n".join(f"{t:.3f}" for t in grid_times[2::4]) + "\n")
    return midi, beats, ref


def test_rotations_report_finds_phase(tmp_path, capsys):
    midi, beats, ref = _rotation_setup(tmp_path)
    assert main(["rotations", str(midi), "--beats", str(beats),
                 "--ref", str(ref)]) == 0
    payload = _json_out(capsys)
    assert payload["beats_per_bar"] == 4
    assert len(payload["rotations"]) == 4
    assert payload["best_phase"] == 2
    assert payload["best_downbeat_f"] == 100.0


def test_rotations_rejects_a_bad_reference_line(tmp_path, capsys):
    midi, beats, ref = _rotation_setup(tmp_path)
    ref.write_text("1.0\n# a comment\n3.0 s\n")
    assert main(["rotations", str(midi), "--beats", str(beats),
                 "--ref", str(ref)]) == 1
    assert capsys.readouterr().err == f"error: {ref}:3: bad downbeat time '3.0 s'\n"


def test_rotations_render_all_vs_best(tmp_path, capsys):
    midi, beats, ref = _rotation_setup(tmp_path)
    all_dir = tmp_path / "all"
    best_dir = tmp_path / "best"
    assert main(["rotations", str(midi), "--beats", str(beats),
                 "--ref", str(ref), "--out-dir", str(all_dir)]) == 0
    capsys.readouterr()
    assert main(["rotations", str(midi), "--beats", str(beats),
                 "--ref", str(ref), "--out-dir", str(best_dir),
                 "--rotations", "best"]) == 0
    payload = _json_out(capsys)
    assert len(list(all_dir.glob("*.musicxml"))) == 4
    best_files = list(best_dir.glob("*.musicxml"))
    assert len(best_files) == 1
    assert best_files[0].name.endswith(".rot2.musicxml")
    parse_musicxml(best_files[0].read_text())
    assert payload["rotations"][2]["file"] == str(best_files[0])


def test_rotation_mode_flag_overrides_config(tmp_path, capsys):
    midi, beats, ref = _rotation_setup(tmp_path)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("rotation_mode = best\n")
    out_dir = tmp_path / "rendered"
    assert main(["rotations", str(midi), "--beats", str(beats),
                 "--ref", str(ref), "--config", str(cfg),
                 "--out-dir", str(out_dir), "--rotations", "all"]) == 0
    assert len(list(out_dir.glob("*.musicxml"))) == 4


@pytest.mark.parametrize("render", [False, True], ids=["report", "out-dir"])
def test_rotations_of_a_grid_shorter_than_a_bar(tmp_path, capsys, render):
    # three beats of 4-beat bars: phase 3 has no downbeat, which the report
    # prints as null, and its rendering still quantizes
    midi = _quarters_midi(tmp_path, n=2)
    beats = tmp_path / "short.csv"
    beats.write_text("0.0,4\n0.5,1\n1.0,2\n")
    out_dir = tmp_path / "rendered"
    extra = ["--out-dir", str(out_dir)] if render else []
    assert main(["rotations", str(midi), "--beats", str(beats)] + extra) == 0
    payload = _json_out(capsys)
    assert [entry["first_downbeat"] for entry in payload["rotations"]] == [
        0.0, 0.5, 1.0, None]
    if render:
        assert sorted(p.name for p in out_dir.glob("*.musicxml")) == [
            f"{midi.stem}.rot{phase}.musicxml" for phase in range(4)]
        parse_musicxml((out_dir / f"{midi.stem}.rot3.musicxml").read_text())


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rotations_report_the_shared_rotation_scores(tmp_path, capsys, beats_per_bar, data):
    # per phase, the F-measure of that rotation's downbeats; the best phase
    # is best_rotation_fmeasure's, the smallest of tied ones.  The grid holds
    # a whole bar after its phase, so every rotation has a downbeat.
    phase = data.draw(st.integers(0, beats_per_bar - 1))
    n_beats = data.draw(st.integers(max(2, phase + beats_per_bar), 24))
    periods = data.draw(st.lists(st.sampled_from((0.25, 0.4, 0.5, 0.6)),
                                 min_size=n_beats - 1, max_size=n_beats - 1))
    times = [0.0]
    for period in periods:
        times.append(times[-1] + period)
    beats = tmp_path / "beats.csv"
    beats.write_text(save_beats(BeatGrid(times, beats_per_bar, phase)))
    grid = load_beats(beats.read_text())
    picks = data.draw(st.lists(st.tuples(st.integers(0, n_beats - 1),
                                         st.sampled_from((0.0, 0.03, -0.06, 0.1, 0.25))),
                               min_size=1, max_size=8))
    ref_times = [grid.beats[i] + shift for i, shift in picks]
    ref = tmp_path / "ref.txt"
    ref.write_text("".join(f"{t!r}\n" for t in ref_times))
    midi = _quarters_midi(tmp_path, n=4)
    assert main(["rotations", str(midi), "--beats", str(beats), "--ref", str(ref)]) == 0
    payload = _json_out(capsys)

    scores = [downbeat_fmeasure(ref_times, rotated.downbeats())
              for rotated in enumerate_rotations(grid)]
    assert rotation_fmeasures(ref_times, grid.beats, grid.beats_per_bar) == scores
    best_f, best = best_rotation_fmeasure(ref_times, grid.beats, grid.beats_per_bar)
    assert best == min(p for p, f in enumerate(scores) if f == max(scores))
    assert [entry["downbeat_f"] for entry in payload["rotations"]] == [
        round(f, 4) for f in scores]
    assert (payload["best_phase"], payload["best_downbeat_f"]) == (best, round(best_f, 4))


@pytest.mark.parametrize("source", ["flag", "config"])
def test_rotations_best_without_a_reference_exits_3(tmp_path, capsys, source):
    midi, beats, _ = _rotation_setup(tmp_path)
    if source == "flag":
        extra = ["--rotations", "best"]
    else:
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("rotation_mode = best\n")
        extra = ["--config", str(cfg)]
    out_dir = tmp_path / "rendered"
    assert main(["rotations", str(midi), "--beats", str(beats),
                 "--out-dir", str(out_dir), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--ref" in captured.err
    assert not out_dir.exists()


# --- eval --------------------------------------------------------------------

def test_eval_notes_identical(tmp_path, capsys):
    midi = _quarters_midi(tmp_path)
    assert main(["eval", "notes", str(midi), str(midi)]) == 0
    payload = _json_out(capsys)
    assert payload["f_measure"] == 100.0
    assert payload["matched"] == payload["n_ref"] == payload["n_est"] == 16


def test_eval_notes_directory_batch(tmp_path, capsys):
    ref_dir = tmp_path / "ref"
    est_dir = tmp_path / "est"
    ref_dir.mkdir()
    est_dir.mkdir()
    for stem, n in [("alpha", 8), ("beta", 12)]:
        _quarters_midi(ref_dir, n=n, name=f"{stem}.mid")
        _quarters_midi(est_dir, n=n, name=f"{stem}.mid")
    assert main(["eval", "notes", str(ref_dir), str(est_dir), "--jobs", "2"]) == 0
    payload = _json_out(capsys)
    assert set(payload) == {"items", "summary"}
    assert set(payload["items"]) == {"alpha", "beta"}
    for stats in payload["summary"].values():
        assert set(stats) == {"mean", "std", "max"}
    assert payload["summary"]["f_measure"] == {"mean": 100.0, "std": 0.0, "max": 100.0}


def test_eval_unpaired_directories_exit_4(tmp_path, capsys):
    ref_dir = tmp_path / "ref"
    est_dir = tmp_path / "est"
    ref_dir.mkdir()
    est_dir.mkdir()
    _quarters_midi(ref_dir, name="only_ref.mid")
    _quarters_midi(est_dir, name="only_est.mid")
    assert main(["eval", "notes", str(ref_dir), str(est_dir)]) == 4
    assert "unpaired" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["ref", "est"])
def test_eval_two_files_with_one_stem_exit_4(tmp_path, capsys, side):
    # a.musicxml and a.xml would pair by the stem "a"; neither is dropped
    xml = emit_musicxml(ScoreModel(TimeSignature(4, 4), [split(note(60), rest())]))
    for name in ("ref", "est"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.musicxml").write_text(xml)
        (tmp_path / name / "b.musicxml").write_text(xml)
    (tmp_path / side / "a.xml").write_text(xml)
    assert main(["eval", "score", str(tmp_path / "ref"), str(tmp_path / "est")]) == 4
    assert capsys.readouterr().err == (
        f"error: stem 'a' names two files in {tmp_path / side}: a.musicxml and a.xml\n")


def test_eval_mixed_file_and_directory_exit_4(tmp_path, capsys):
    midi = _quarters_midi(tmp_path)
    assert main(["eval", "notes", str(midi), str(tmp_path)]) == 4


def test_eval_downbeats(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0.0\n2.0\n4.0\n")
    b.write_text("0.01\n2.0\n4.05\n")
    assert main(["eval", "downbeats", str(a), str(b)]) == 0
    assert _json_out(capsys)["f_measure"] == 100.0


@pytest.mark.parametrize("line, message", [
    ("abc", "bad downbeat time 'abc'"),
    ("nan", "downbeat time must be finite, got 'nan'"),
    ("inf,1", "downbeat time must be finite, got 'inf,1'"),
], ids=["text", "nan", "inf"])
def test_eval_downbeats_rejects_a_bad_line(tmp_path, capsys, line, message):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(f"0.0\n{line}\n4.0\n")
    b.write_text("0.0\n2.0\n4.0\n")
    assert main(["eval", "downbeats", str(a), str(b)]) == 1
    assert capsys.readouterr().err == f"error: {a}:2: {message}\n"


# bars of 3 beats until line 4 restarts the count; its downbeats are at 0,
# 1.5 and 3.5 s, and no bar length puts every position where it stands
SHIFTING_BARS = "0,1\n.5,2\n1,3\n1.5,1\n2,2\n2.5,3\n3,4\n3.5,1\n"


@pytest.mark.parametrize("command", ["quantize", "rotations", "eval"])
def test_a_beats_csv_whose_positions_disagree_with_its_bar_exits_1(tmp_path, capsys,
                                                                   command):
    bad = tmp_path / "bad.csv"
    bad.write_text(SHIFTING_BARS)
    midi = _quarters_midi(tmp_path, n=4)
    if command == "quantize":
        argv = ["quantize", str(midi), "--beats", str(bad)]
    elif command == "rotations":
        argv = ["rotations", str(midi), "--beats", str(_beats_csv(tmp_path, 9)),
                "--ref", str(bad)]
    else:  # its first column must not be read as one downbeat per line
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n1.5\n3.5\n")
        argv = ["eval", "downbeats", str(bad), str(truth)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # a downbeats file is named, since `eval downbeats` reads two of them
    where = "" if command == "quantize" else f"{bad}: "
    assert captured.err == f"error: {where}line 4: beat position 1 where bars of 4 beats put 4\n"


def test_eval_score_identical(tmp_path, capsys):
    score = sample_score(default_grammar(), 4, random.Random(2))
    p = tmp_path / "s.musicxml"
    p.write_text(emit_musicxml(score))
    assert main(["eval", "score", str(p), str(p)]) == 0
    payload = _json_out(capsys)
    assert payload["total_error_rate"] == 0.0
    assert payload["timesig_mismatches"] == 0


def test_a_pickup_tied_into_bar_1_quantizes_and_grades_cleanly(tmp_path, capsys):
    # the grid starts on the pickup's first beat, mid-bar
    score = support.pickup_score(random.Random(1), default_grammar(), tie_out=True,
                                 rest_open=False)
    pickup = int(score.anacrusis_beats)
    period = 60.0 / score.tempo_marking
    n_beats = pickup + 4 * (len(score.measures) - 1) + 1
    midi, beats = tmp_path / "take.mid", tmp_path / "take.csv"
    midi.write_bytes(save_midi(render_performance(score), score.tempo_marking))
    beats.write_text(save_beats(BeatGrid([period * k for k in range(n_beats)], 4, pickup)))
    out = tmp_path / "take.musicxml"
    assert main(["quantize", str(midi), "--beats", str(beats), "--out", str(out)]) == 0
    assert main(["eval", "score", str(out), str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning:" not in captured.err
    payload = json.loads(captured.out)
    assert [payload[f"{kind}_{edit}"] for kind in ("note", "rest")
            for edit in ("insertions", "deletions")] == [0, 0, 0, 0]
    assert payload["n_ref_notes"] == len(score.notes())


def test_eval_score_warns_of_what_the_reader_skips(tmp_path, capsys):
    xml = emit_musicxml(sample_score(default_grammar(), 4, random.Random(2)))
    for name in ("ref", "est"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.musicxml").write_text(xml)
        (tmp_path / name / "b.musicxml").write_text(xml)
    args = ["eval", "score", str(tmp_path / "ref"), str(tmp_path / "est")]
    assert main(args) == 0
    expected = capsys.readouterr()
    assert expected.err == ""
    graced = [tmp_path / "ref" / "b.musicxml", tmp_path / "est" / "a.musicxml"]
    for path in graced:
        path.write_text(_with_grace_note(xml))
    assert main(args) == 0
    got = capsys.readouterr()
    assert got.out == expected.out
    # in pair order, the reference of a pair before its estimate
    assert got.err == "".join(f"warning: {path}: measure 1: grace note skipped\n"
                              for path in reversed(graced))


@pytest.mark.parametrize("pattern, replacement", [
    (r"<divisions>\d+</divisions>", "<divisions>0</divisions>"),
    (r"<duration>\d+</duration>", ""),
    (r"<step>C</step>", "<step>H</step>"),
    (r"<octave>\d</octave>", "<octave>x</octave>"),
    (r'<sound tempo="[^"]*"/>', '<sound tempo="fast"/>'),
], ids=["zero-divisions", "no-duration", "bad-step", "bad-octave", "bad-tempo"])
def test_eval_score_malformed_musicxml_exits_1(tmp_path, capsys, pattern, replacement):
    good = emit_musicxml(ScoreModel(TimeSignature(4, 4),
                                    [split(note(60), note(62), rest(), note(64))]))
    bad = re.sub(pattern, replacement, good, count=1)
    assert bad != good
    ref, est = tmp_path / "ref.musicxml", tmp_path / "est.musicxml"
    ref.write_text(good)
    est.write_text(bad)
    assert main(["eval", "score", str(ref), str(est)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def _strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are not in it."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_eval_score_directories_print_the_same_with_two_jobs(tmp_path, capsys):
    # each pair decomposes its shared measures once, in a map of its own, so
    # threads grading pairs side by side share nothing
    ref_dir, est_dir = tmp_path / "ref", tmp_path / "est"
    ref_dir.mkdir()
    est_dir.mkdir()
    for seed in range(4):
        ref = sample_score(default_grammar(), 6, random.Random(seed))
        other = sample_score(default_grammar(), 6, random.Random(seed + 10))
        est = ScoreModel(ref.time_signature, ref.measures[:3] + other.measures[3:])
        (ref_dir / f"s{seed}.musicxml").write_text(emit_musicxml(ref))
        (est_dir / f"s{seed}.musicxml").write_text(emit_musicxml(est))
    outputs = []
    for jobs in ("1", "2"):
        assert main(["eval", "score", str(ref_dir), str(est_dir), "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["summary"]["note_insertions"]["max"] > 0


def test_eval_score_rates_without_reference_notes_print_null(tmp_path, capsys):
    # against a reference of one rest, every rate of a nonzero count is
    # infinite; it prints as null and directory summaries skip it
    one_rest = emit_musicxml(ScoreModel(TimeSignature(4, 4), [rest()]))
    one_note = emit_musicxml(ScoreModel(TimeSignature(4, 4), [note(60)]))
    for side in ("ref", "est"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "same.musicxml").write_text(one_note)
    (tmp_path / "ref" / "empty.musicxml").write_text(one_rest)
    (tmp_path / "est" / "empty.musicxml").write_text(one_note)

    assert main(["eval", "score", str(tmp_path / "ref" / "empty.musicxml"),
                 str(tmp_path / "est" / "empty.musicxml")]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["n_ref_notes"] == 0
    assert payload["note_deletions"] == 1
    assert payload["note_deletion_rate"] is None
    assert payload["total_error_rate"] is None
    assert payload["note_insertion_rate"] == 0.0  # no errors is a rate of 0

    assert main(["eval", "score", str(tmp_path / "ref"), str(tmp_path / "est")]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["items"]["empty"]["note_deletion_rate"] is None
    assert payload["items"]["same"]["note_deletion_rate"] == 0.0
    assert payload["summary"]["note_deletion_rate"] == {"max": 0.0, "mean": 0.0, "std": 0.0}
    assert payload["summary"]["note_deletions"]["mean"] == 0.5


def test_eval_score_measure_deeper_than_the_parse_bound_exits_1(tmp_path, capsys):
    # with 1024 divisions to the quarter, the second note starts 1/4096 into
    # the measure, finer than ten levels of splits reach
    good = emit_musicxml(ScoreModel(TimeSignature(4, 4), [note(60)]))
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
    ref, est = tmp_path / "ref.musicxml", tmp_path / "est.musicxml"
    ref.write_text(good)
    est.write_text(deep)
    assert main(["eval", "score", str(ref), str(est)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: onsets at ['1/4096'] unreachable at depth 10\n"


def test_eval_sdr_identity(tmp_path, capsys):
    rate = 22050
    signal = (0.4 * np.sin(np.linspace(0, 40, rate)) * 32767).astype(np.int16)
    ref = tmp_path / "ref.wav"
    est = tmp_path / "est.wav"
    wavfile.write(ref, rate, signal)
    wavfile.write(est, rate, signal)
    assert main(["eval", "sdr", str(ref), str(est)]) == 0
    assert _json_out(capsys)["sdr_db"] == 200.0
