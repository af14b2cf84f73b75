"""Reference figures for the README, each measured once on the bench corpus.

    PYTHONPATH=src python3 bench/reference.py

Prints, as Markdown:
- the quality curve over onset jitter: exact bars, fallback bars and
  ``rhythmiq tempo`` against the true tempo, per sigma;
- ``rhythmiq eval score`` wall time with ``--jobs 1`` and ``--jobs 2``;
- the start-up of a fresh interpreter importing ``rhythmiq.cli``, split
  between the interpreter, numpy, ``scipy.io`` and the package itself.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import checks
import corpus
import run
from reader import read_musicxml

SIGMAS_MS = (0, 2, 4, 8, 15)
REPEATS = 5


def _cli(*args: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rhythmiq.cli", *args],
                          capture_output=True, text=True, env=run.child_env(), check=True)
    return time.perf_counter() - start, proc.stdout


def quality_curve(solos) -> None:
    import rhythmiq.quantize as quantize
    from rhythmiq.core import load_beats
    from rhythmiq.grammar import default_grammar
    from rhythmiq.midi_io import load_midi
    from rhythmiq.musicxml import emit_musicxml

    fallback_calls = [0]
    original = quantize.fallback_quantize

    def counted(*args, **kwargs):
        fallback_calls[0] += 1
        return original(*args, **kwargs)

    quantize.fallback_quantize = counted
    grammar = default_grammar()
    bars = sum(s.bars for s in solos)
    path = run.WORK / "reference.mid"
    print("| sigma (ms) | exact bars | exact_measures_pct | fallback bars | "
          "tempo estimate / true tempo, per solo |")
    print("|---|---|---|---|---|")
    try:
        for sigma in SIGMAS_MS:
            fallback_calls[0] = exact = 0
            ratios = []
            for solo in solos:
                take = corpus.played_take(solo, sigma / 1000)
                midi = corpus.take_midi(take)
                score, _ = quantize.quantize_performance(
                    load_midi(midi), load_beats(corpus.beats_csv(take.beat_times)), grammar,
                    on_error="fallback")
                exact += checks.exact_bars(read_musicxml(emit_musicxml(score)).notes, solo)
                path.write_bytes(midi)
                bpm = json.loads(_cli("tempo", str(path))[1])["bpm"]
                ratios.append(f"{bpm:.1f}/{solo.bpm}")
            print(f"| {sigma} | {exact}/{bars} | {100 * exact / bars:.1f} | "
                  f"{fallback_calls[0]} | {', '.join(ratios)} |")
    finally:
        quantize.fallback_quantize = original


def jobs() -> None:
    ref, est = run.INPUTS / "grade" / "ref", run.INPUTS / "grade" / "est"
    print("| eval score | median wall (s) | runs |")
    print("|---|---|---|")
    for n in (1, 2):
        walls = [_cli("eval", "score", str(ref), str(est), "--jobs", str(n))[0]
                 for _ in range(3)]
        print(f"| --jobs {n} | {statistics.median(walls):.2f} | "
              f"{', '.join(f'{w:.2f}' for w in walls)} |")


def startup() -> None:
    stages = [("interpreter", "pass"), ("+ numpy", "import numpy"),
              ("+ scipy.io.wavfile", "import numpy, scipy.io.wavfile"),
              ("+ rhythmiq.cli", "import rhythmiq.cli")]
    print("| fresh interpreter running | median wall (s) | added (s) |")
    print("|---|---|---|")
    prev = 0.0
    for label, code in stages:
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=run.child_env(), check=True)
            walls.append(time.perf_counter() - start)
        wall = statistics.median(walls)
        print(f"| {label} | {wall:.3f} | {wall - prev:+.3f} |")
        prev = wall


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    run.setup("grade")
    solos = corpus.corpus()
    quality_curve(solos)
    print()
    jobs()
    print()
    startup()


if __name__ == "__main__":
    main()
