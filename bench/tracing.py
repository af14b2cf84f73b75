"""Traced run: the CLI's layer calls made in this process, one span each.

A span is (name, start, end, parent span, operation id), kept in memory and
written to ``trace-<workload>.json`` in the work directory when the run ends.  Spans
around the calls nested inside ``quantize_performance``, ``parse_musicxml``,
``emit_musicxml`` and ``score_edit_metrics`` come from wrapping module
attributes of the program from here; no file of the program changes.

Each traced pass is preceded by an untraced pass over the same calls, and
the difference between the two is printed as the tracing overhead.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

PER_LAYER = {
    "cli.startup_s": "s", "grammar.load_s": "s", "midi_io.load_s": "s",
    "quantize.performance_s": "s", "quantize.measure_s": "s",
    "quantize.driver_s": "s", "quantize.measures": "count",
    "quantize.measure_calls": "count", "quantize.solves_per_measure": "ratio",
    "quantize.fallback_measures": "count", "trees.notation_s": "s",
    "musicxml.emit_s": "s", "musicxml.parse_s": "s", "trees.decompose_s": "s",
    "musicxml.parse_self_s": "s", "metrics.score_edit_s": "s",
    "metrics.note_match_s": "s",
}


class Tracer:
    def __init__(self, pass_index: int):
        self.pass_index = pass_index
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus what their child spans cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(end - start for _, start, end, parent, _ in self.spans
                       if parent in own)
        return self.total(name) - children

    def number(self, name: str) -> int:
        return sum(s[0] == name for s in self.spans)


class _Untraced:
    """Stands in for a Tracer in the untraced pass."""

    op = None

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


@contextmanager
def wrapped(tracer: Tracer):
    """Route the program's nested layer calls through the tracer."""
    import rhythmiq.musicxml as musicxml
    import rhythmiq.quantize as quantize
    from rhythmiq.trees import ScoreModel

    def spanned(name, fn):
        def call(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return call

    def counted(name, fn):
        def call(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return call

    patches = [
        (quantize, "quantize_measure", spanned("quantize.measure", quantize.quantize_measure)),
        (quantize, "fallback_quantize", counted("quantize.fallback", quantize.fallback_quantize)),
        (musicxml, "decompose_measure", spanned("trees.decompose", musicxml.decompose_measure)),
        (ScoreModel, "notated_measures",
         spanned("trees.notation", ScoreModel.notated_measures)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _quantize(op, tracer) -> str:
    """What ``rhythmiq quantize`` does, layer by layer; returns stdout."""
    from rhythmiq.cli import PipelineConfig
    from rhythmiq.core import load_beats
    from rhythmiq.grammar import default_grammar
    from rhythmiq.midi_io import load_midi
    from rhythmiq.musicxml import emit_musicxml
    from rhythmiq.quantize import QuantConfig, quantize_performance

    midi, beats, out = Path(op.args[1]), Path(op.args[3]), Path(op.args[5])
    cfg = PipelineConfig()
    data = midi.read_bytes()
    with tracer.span("midi_io.load"):
        perf = load_midi(data)
    grid = load_beats(beats.read_text())
    with tracer.span("grammar.load"):
        grammar = default_grammar()
    with tracer.span("quantize.performance"):
        score, warnings = quantize_performance(
            perf, grid, grammar,
            QuantConfig(alpha=cfg.alpha, rest_threshold=cfg.rest_threshold),
            on_error=cfg.on_error, fallback_resolution=cfg.fallback_resolution)
    tracer.count("quantize.measures", len(score.measures))
    with tracer.span("musicxml.emit"):
        xml = emit_musicxml(score, fifths=cfg.fifths)
    out.write_text(xml)
    sidecar = out.with_suffix(".warnings.txt")
    sidecar.unlink(missing_ok=True)
    if warnings:
        sidecar.write_text("\n".join(warnings) + "\n")
    return ""


def _eval(op, tracer) -> str:
    """What ``rhythmiq eval score|notes`` does for each pair; returns stdout."""
    from rhythmiq.cli import PipelineConfig, _edit_payload
    from rhythmiq.metrics import note_metrics, score_edit_metrics
    from rhythmiq.midi_io import load_midi
    from rhythmiq.musicxml import parse_musicxml

    metric, ref_dir, est_dir = op.args[1], Path(op.args[2]), Path(op.args[3])
    items = {}
    for ref_path in sorted(ref_dir.iterdir()):
        est_path = est_dir / ref_path.name
        if metric == "score":
            ref_text, est_text = ref_path.read_text(), est_path.read_text()
            with tracer.span("musicxml.parse"):
                ref, _ = parse_musicxml(ref_text)
            with tracer.span("musicxml.parse"):
                est, _ = parse_musicxml(est_text)
            with tracer.span("metrics.score_edit"):
                items[ref_path.stem] = _edit_payload(score_edit_metrics(ref, est))
        else:
            ref_data, est_data = ref_path.read_bytes(), est_path.read_bytes()
            with tracer.span("midi_io.load"):
                ref = load_midi(ref_data)
            with tracer.span("midi_io.load"):
                est = load_midi(est_data)
            with tracer.span("metrics.note_match"):
                m = note_metrics(ref, est, PipelineConfig().onset_tolerance)
            items[ref_path.stem] = {"matched": m.matched, "n_ref": m.n_ref, "n_est": m.n_est}
    return json.dumps({"items": items})


def _startup(tracer, env) -> None:
    with tracer.span("cli.startup"):
        subprocess.run([sys.executable, "-c", "import rhythmiq.cli"], env=env, check=True)


def run_pass(ops, rng, tracer, env):
    """Returns (in-process seconds, outcomes); startup spans are excluded
    from the seconds so that traced and untraced passes compare."""
    order = ops[:]
    rng.shuffle(order)
    busy = 0.0
    outcomes = []
    for op_id, op in enumerate(order):
        tracer.op = op_id
        if isinstance(tracer, Tracer):
            _startup(tracer, env)
        start = time.perf_counter()
        with tracer.span("op"):
            stdout = (_quantize if op.args[0] == "quantize" else _eval)(op, tracer)
        busy += time.perf_counter() - start
        outcomes.append(op.check(stdout, op.out))
    return busy, outcomes


def layer_metrics(t: Tracer) -> dict[str, float]:
    measures = t.counts.get("quantize.measures", 0)
    calls = t.number("quantize.measure")
    return {
        "cli.startup_s": t.total("cli.startup"),
        "grammar.load_s": t.total("grammar.load"),
        "midi_io.load_s": t.total("midi_io.load"),
        "quantize.performance_s": t.total("quantize.performance"),
        "quantize.measure_s": t.total("quantize.measure"),
        "quantize.driver_s": t.self_time("quantize.performance"),
        "quantize.measures": measures,
        "quantize.measure_calls": calls,
        "quantize.solves_per_measure": calls / measures if measures else 0.0,
        "quantize.fallback_measures": t.counts.get("quantize.fallback", 0),
        "trees.notation_s": t.total("trees.notation"),
        "musicxml.emit_s": t.total("musicxml.emit"),
        "musicxml.parse_s": t.total("musicxml.parse"),
        "trees.decompose_s": t.total("trees.decompose"),
        "musicxml.parse_self_s": t.self_time("musicxml.parse"),
        "metrics.score_edit_s": t.total("metrics.score_edit"),
        "metrics.note_match_s": t.total("metrics.note_match"),
    }


def run(workload, ops, rng, seconds, work: Path, env, report) -> int:
    """Alternate untraced and traced passes until ``seconds`` have gone by."""
    import rhythmiq.cli  # noqa: F401  the CLI's imports, paid before timing
    tracers, traced, untraced, outcomes = [], [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        busy, _ = run_pass(ops, rng, _Untraced(), env)
        untraced.append(busy)
        tracer = Tracer(len(tracers))
        with wrapped(tracer):
            busy, pass_outcomes = run_pass(ops, rng, tracer, env)
        traced.append(busy)
        tracers.append(tracer)
        outcomes += pass_outcomes

    trace_file = work / f"trace-{workload}.json"
    trace_file.write_text(json.dumps([
        {"pass": t.pass_index, "name": name, "start": s, "end": e, "parent": parent, "op": op}
        for t in tracers for name, s, e, parent, op in t.spans]))
    per_pass = [layer_metrics(t) for t in tracers]
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
               for name, unit in PER_LAYER.items()}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    print(f"{workload}: {len(tracers)} traced passes; tracing overhead "
          f"{100 * overhead:+.1f}% (traced {statistics.median(traced):.3f} s, "
          f"untraced {statistics.median(untraced):.3f} s per pass, startup excluded); "
          f"spans in {trace_file.name}")
    failed = sum(o.failed for o in outcomes)
    report(not any(o.problems for o in outcomes), len(outcomes), failed, metrics)
    return 0
