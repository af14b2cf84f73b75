"""Solo-corpus benchmark of the rhythmiq command line.

    python3 bench/run.py --workload transcribe-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Set-up generates the corpus with
the benchmark's own code, writes it under ``bench/.work/inputs`` and checks
every file against the SHA-256 digests in ``bench/README.md``; it is timed
``SETUPS`` times and the median is reported.  The run then makes whole
passes over the workload's operations until ``--seconds`` have gone by.
Each operation is one ``python -m rhythmiq.cli`` process, run one at a time
by a single client in a closed loop; ``--seed`` sets the order in which each
pass visits them.  Every output is checked after its pass.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the layers are called in this
process instead (see ``tracing.py``) and the object holds the per-layer
metrics.  ``--write-digests`` regenerates the digests in the README.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
INPUTS = WORK / "inputs"
OUT = WORK / "out"
README = HERE / "README.md"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import edits  # noqa: E402
from reader import notes_by_bar  # noqa: E402

WORKLOADS = ("transcribe-exact", "transcribe-played", "grade")
SETUPS = 3
DIGESTS_BEGIN = "<!-- input digests begin -->"
DIGESTS_END = "<!-- input digests end -->"
FALLBACK_RE = re.compile(r"^measure (\d+): .*grid fallback applied$")


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    name: str
    args: list[str]
    bars: int  # reference bars this operation adds to a pass
    check: object  # callable(stdout text, output path or None) -> Outcome
    out: Path | None = None


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)  # the fallback fault's marks
    exact: int = 0  # reference bars transcribed exactly

    @property
    def failed(self) -> bool:
        return bool(self.problems or self.known)


# ---------------------------------------------------------------------------
# inputs


def build_inputs(workload: str, solos):
    """Every input file of a workload (path under INPUTS -> bytes) and the
    operations that use them."""
    files: dict[str, bytes] = {}
    ops: list[Op] = []
    if workload.startswith("transcribe-"):
        kind = workload.split("-", 1)[1]
        for solo in solos:
            if kind == "exact":
                midi, beats = corpus.exact_midi(solo), corpus.exact_beats(solo)
                check = _exact_check(solo)
            else:
                take = corpus.played_take(solo)
                midi, beats = corpus.take_midi(take), take.beat_times
                check = _played_check(solo, corpus.performed_order(take))
            stem = f"{kind}/{solo.name}"
            files[f"{stem}.mid"] = midi
            files[f"{stem}.beats.csv"] = corpus.beats_csv(beats).encode()
            out = OUT / f"{solo.name}.musicxml"
            args = ["quantize", str(INPUTS / f"{stem}.mid"),
                    "--beats", str(INPUTS / f"{stem}.beats.csv"), "--out", str(out)]
            ops.append(Op(solo.name, args, solo.bars, check, out))
        return files, ops

    score_expected, notes_expected = {}, {}
    unchanged = 0  # reference bars that no planted edit touched
    for index, solo in enumerate(solos):
        est = edits.score_estimate(solo, index)
        files[f"grade/ref/{solo.name}.musicxml"] = corpus.musicxml(
            solo.notes, solo.bars, solo.bpm).encode()
        files[f"grade/est/{solo.name}.musicxml"] = corpus.musicxml(
            est.notes, est.bars, solo.bpm).encode()
        score_expected[solo.name] = est.expected
        ref_bars, est_bars = notes_by_bar(solo.notes), notes_by_bar(est.notes)
        unchanged += sum(ref_bars.get(b) == est_bars.get(b) for b in range(solo.bars))
        notes_est = edits.notes_estimate(solo)
        files[f"grade/ref_mid/{solo.name}.mid"] = corpus.exact_midi(solo)
        files[f"grade/est_mid/{solo.name}.mid"] = notes_est.midi
        notes_expected[solo.name] = notes_est.expected
    grade = INPUTS / "grade"
    bars = sum(s.bars for s in solos)
    # both operations grade the same bars; the pass counts them once
    ops.append(Op("eval-score", ["eval", "score", str(grade / "ref"), str(grade / "est")],
                  bars, _counts_check(score_expected, unchanged)))
    ops.append(Op("eval-notes", ["eval", "notes", str(grade / "ref_mid"),
                                 str(grade / "est_mid")],
                  0, _counts_check(notes_expected, 0)))
    return files, ops


def _exact_check(solo):
    def check(_stdout, out):
        problems, exact = checks.check_exact(out.read_text(), solo)
        return Outcome(problems, [], exact)
    return check


def _played_check(solo, order):
    def check(_stdout, out):
        sidecar = out.with_suffix(".warnings.txt")
        lines = sidecar.read_text().splitlines() if sidecar.exists() else []
        fallback = {int(m.group(1)) for m in map(FALLBACK_RE.match, lines) if m}
        problems, known, exact = checks.check_played(out.read_text(), solo, order, fallback)
        return Outcome(problems, known, exact)
    return check


def _counts_check(expected, unchanged_bars):
    # for grade, the exact bars are those the planted edits left unchanged
    def check(stdout, _out):
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return Outcome([f"stdout is not JSON: {exc}"])
        return Outcome(checks.check_counts(payload, expected), [], unchanged_bars)
    return check


def read_digests() -> dict[str, str]:
    text = README.read_text()
    block = text[text.index(DIGESTS_BEGIN):text.index(DIGESTS_END)]
    return {path: digest for digest, path in re.findall(r"^([0-9a-f]{64})  (\S+)$", block, re.M)}


def write_digests() -> None:
    solos = corpus.corpus()
    lines = []
    for workload in WORKLOADS:
        files, _ = build_inputs(workload, solos)
        lines += [f"{corpus.sha256(data)}  {path}" for path, data in sorted(files.items())]
    text = README.read_text()
    head, rest = text.split(DIGESTS_BEGIN, 1)
    _, tail = rest.split(DIGESTS_END, 1)
    README.write_text(head + DIGESTS_BEGIN + "\n```text\n" + "\n".join(lines)
                      + "\n```\n" + DIGESTS_END + tail)


def setup(workload: str):
    """Generate, write and verify the inputs, then warm up one CLI process."""
    solos = corpus.corpus()
    files, ops = build_inputs(workload, solos)
    digests = read_digests()
    drift = [p for p, data in files.items() if digests.get(p) != corpus.sha256(data)]
    if drift:
        sys.exit(f"input drift: {len(drift)} generated files differ from the digests "
                 f"in {README.name}, first {drift[0]}")
    shutil.rmtree(INPUTS, ignore_errors=True)
    for path, data in files.items():
        target = INPUTS / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    OUT.mkdir(parents=True, exist_ok=True)
    _, _, code = run_cli(["--help"], WORK / "warmup.out")
    if code != 0:
        sys.exit(f"warm-up failed with exit code {code}; see {WORK / 'warmup.err'}")
    return ops


# ---------------------------------------------------------------------------
# running


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_cli(args: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Run one CLI process to its end: (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rhythmiq.cli", *args],
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def run_pass(ops: list[Op], rng: random.Random):
    """One pass in a seeded order; outputs are checked after the clock stops."""
    order = ops[:]
    rng.shuffle(order)
    results = []
    start = time.perf_counter()
    for op in order:
        if op.out is not None:
            op.out.unlink(missing_ok=True)
            op.out.with_suffix(".warnings.txt").unlink(missing_ok=True)
        stdout_path = WORK / f"{op.name}.out"
        wall, rss, code = run_cli(op.args, stdout_path)
        results.append((op, wall, rss, code, stdout_path))
    pass_wall = time.perf_counter() - start
    outcomes = []
    for op, wall, rss, code, stdout_path in results:
        if code != 0:
            err = stdout_path.with_suffix(".err").read_text().strip()
            outcome = Outcome([f"exit code {code}: {err[-300:]}"])
        else:
            outcome = op.check(stdout_path.read_text(), op.out)
        outcomes.append((op, wall, rss, outcome))
    return pass_wall, outcomes


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="regenerate the input digests in README.md and exit")
    args = ap.parse_args()
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "rhythmiq" / "cli.py").is_file():
        sys.exit(f"no rhythmiq sources under {SRC}; run from a source checkout")

    WORK.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        ops = setup(args.workload)
        setup_times.append(time.perf_counter() - start)

    rng = random.Random(args.seed)
    if args.trace:
        sys.path.insert(0, str(SRC))
        import tracing
        return tracing.run(args.workload, ops, rng, args.seconds, WORK, child_env(), report)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(ops, rng))

    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    failed = sum(outcome.failed for _, _, _, outcome in outcomes)
    unexplained = [(op.name, outcome.problems) for op, _, _, outcome in outcomes
                   if outcome.problems]
    known = sorted({op.name for op, _, _, outcome in outcomes if outcome.known})
    for name, problems in unexplained[:5]:
        print(f"FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)
    if known:
        print(f"failed by the known grid-fallback fault: {', '.join(known)}", file=sys.stderr)

    bars = sum(op.bars for op in ops)
    exact = [sum(o.exact for _, _, _, o in pass_outcomes) for _, pass_outcomes in passes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "bars_per_s": statistics.median(bars / wall for wall, _ in passes),
        "op_p50_s": statistics.median(wall for _, wall, _, _ in outcomes),
        "peak_rss_mb": statistics.median(max(rss for _, _, rss, _ in pass_outcomes)
                                         for _, pass_outcomes in passes),
        "exact_measures_pct": 100.0 * statistics.median(exact) / bars,
    }
    units = {"setup_s": "s", "bars_per_s": "bars/s", "op_p50_s": "s",
             "peak_rss_mb": "MB", "exact_measures_pct": "%"}
    print(f"{args.workload}: {len(passes)} passes, {len(outcomes)} operations, "
          f"{failed} failed")
    report(not unexplained, len(outcomes), failed,
           {name: {"value": value, "unit": units[name]} for name, value in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
