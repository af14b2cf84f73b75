"""End-to-end demo: synthesize a performance, transcribe it, evaluate it.

Samples a score from the default grammar, renders it with human-like timing
jitter, then runs the full pipeline: tempo estimation, beat-grid quantization,
MusicXML emission, and reference-based evaluation.  Artifacts land in
--out-dir (performance.mid, beats.csv, reference.musicxml, transcribed.musicxml,
report.json).
"""
import argparse
import json
import random
from pathlib import Path

from rhythmiq import (
    BeatGrid,
    NoteEvent,
    Performance,
    default_grammar,
    emit_musicxml,
    enforce_monophony,
    estimate_tempo_ioi,
    note_metrics,
    quantize_performance,
    sample_score,
    save_beats,
    save_midi,
    score_edit_metrics,
)
from rhythmiq.trees import render_performance


def jittered(perf: Performance, sigma: float, rng: random.Random) -> Performance:
    notes = [
        NoteEvent(
            max(0.0, n.onset + rng.gauss(0.0, sigma)),
            max(0.02, n.duration + rng.gauss(0.0, sigma / 2)),
            n.pitch,
            n.velocity,
        )
        for n in perf.notes
    ]
    return enforce_monophony(Performance(notes))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--measures", type=int, default=8)
    ap.add_argument("--bpm", type=float, default=120.0)
    ap.add_argument("--jitter", type=float, default=0.008,
                    help="onset jitter std dev in seconds")
    ap.add_argument("--out-dir", type=Path, default=Path("demo_out"))
    args = ap.parse_args()

    rng = random.Random(args.seed)
    grammar = default_grammar()

    while True:
        reference = sample_score(grammar, args.measures, rng, tempo=args.bpm)
        if len(reference.notes()) >= 2 * args.measures:
            break

    clean = render_performance(reference)
    performance = jittered(clean, args.jitter, rng)

    estimate = estimate_tempo_ioi(performance)
    print(f"tempo estimate: {estimate.bpm:.2f} bpm "
          f"(support {estimate.cluster_support}, "
          f"confidence {estimate.confidence:.3f})")

    period = 60.0 / args.bpm
    grid = BeatGrid([period * k for k in range(4 * args.measures + 1)], 4)
    transcribed, warnings = quantize_performance(
        performance, grid, grammar, on_error="fallback",
    )
    for w in warnings:
        print(f"warning: {w}")

    notes = note_metrics(clean, performance)
    edits = score_edit_metrics(reference, transcribed)
    report = {
        "tempo_bpm": round(estimate.bpm, 2),
        "jitter_sigma_sec": args.jitter,
        "note_f_vs_clean_timing": round(notes.f_measure, 2),
        "measures": len(transcribed.measures),
        "exact_measures": sum(
            a == b for a, b in zip(reference.measures, transcribed.measures)
        ),
        "total_edit_rate_pct": round(edits.total_error_rate, 2),
    }
    print(json.dumps(report, indent=2))

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "performance.mid").write_bytes(save_midi(performance, args.bpm))
    (out / "beats.csv").write_text(save_beats(grid))
    (out / "reference.musicxml").write_text(emit_musicxml(reference))
    (out / "transcribed.musicxml").write_text(emit_musicxml(transcribed))
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"artifacts written to {out}/")


if __name__ == "__main__":
    main()
