import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_demo_pipeline_runs_end_to_end(tmp_path):
    # the shipped demo drives tempo estimation, quantize_performance with the
    # grid fallback, MusicXML emission and the metrics in one process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_pipeline.py"),
         "--measures", "8", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "tempo_bpm", "jitter_sigma_sec", "note_f_vs_clean_timing", "measures",
        "exact_measures", "total_edit_rate_pct",
    }
    assert report["measures"] == 8
    # at the default seed every bar comes back as written
    assert report["exact_measures"] == 8
    assert report["total_edit_rate_pct"] == 0.0
    assert "warning" not in proc.stdout
    for name in ("performance.mid", "beats.csv", "reference.musicxml",
                 "transcribed.musicxml"):
        assert (tmp_path / name).stat().st_size > 0


@pytest.mark.parametrize("script, args, headers", [
    ("tempo_sweep", ["--notes", "12", "--step", "130"],
     ["isochronous pulse: estimate vs truth", "true bpm  estimated  est/true  support",
      "swung eighths at 120 bpm: estimate vs swing ratio", "ratio   8 beats   24 beats"]),
    ("training_convergence", ["--repeats", "1", "--measures", "2"],
     ["trained probability vs corpus size", "D4 -> (D8 D8)",
      "smoothing on a single-score corpus", "rules for D4"]),
], ids=["tempo_sweep", "training_convergence"])
def test_study_script_runs(script, args, headers):
    # the study scripts are not run by anything else; a small setting of
    # each checks that it still runs against the package
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for header in headers:
        assert header in proc.stdout
