import json
import os
import subprocess
import sys
from pathlib import Path

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
    # measured 4.35% at the default seed: 2 edits for 46 notes
    assert report["total_edit_rate_pct"] <= 5.0
    assert "warning" not in proc.stdout
    for name in ("performance.mid", "beats.csv", "reference.musicxml",
                 "transcribed.musicxml"):
        assert (tmp_path / name).stat().st_size > 0
