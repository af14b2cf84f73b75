"""Command line interface.

Exit codes: 0 success, 1 bad input (I/O, format, validation), 2 insufficient
data, 3 grammar or configuration problems, 4 batch pairing failures.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (DEFAULT_ALPHA, DEFAULT_BEAT_TOLERANCE, DEFAULT_CLUSTER_WIDTH,
                   DEFAULT_FALLBACK_RESOLUTION, DEFAULT_MAX_BPM, DEFAULT_MIN_BPM,
                   DEFAULT_ONSET_TOLERANCE, DEFAULT_REST_THRESHOLD, Record, load_beats)
from .errors import (
    ConfigError,
    EmptyInputError,
    GrammarError,
    InsufficientDataError,
    NoTempoError,
    PairingError,
    RhythmiqError,
    ValidationError,
)

# each command imports the modules it runs, so none compiles code it never
# calls: `eval notes` reads no MusicXML and `eval score` loads no quantizer
if TYPE_CHECKING:
    import numpy as np

    from .metrics import EditMetrics


class PipelineConfig(Record):
    """Tunable pipeline settings, overridable from a key=value config file.

    rest_threshold changes nothing; it stays until its callers are gone."""

    __slots__ = ("alpha", "rest_threshold", "fallback_resolution", "onset_tolerance",
                 "beat_tolerance", "cluster_width", "min_bpm", "max_bpm", "on_error",
                 "rotation_mode", "fifths")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 rest_threshold: float = DEFAULT_REST_THRESHOLD,
                 fallback_resolution: int = DEFAULT_FALLBACK_RESOLUTION,
                 onset_tolerance: float = DEFAULT_ONSET_TOLERANCE,
                 beat_tolerance: float = DEFAULT_BEAT_TOLERANCE,
                 cluster_width: float = DEFAULT_CLUSTER_WIDTH,
                 min_bpm: float = DEFAULT_MIN_BPM, max_bpm: float = DEFAULT_MAX_BPM,
                 on_error: str = "fallback",
                 rotation_mode: str = "all",  # which rotations to render: "all" or "best"
                 fifths: int = 0):
        if on_error not in ("raise", "fallback"):
            raise ConfigError(f"on_error must be raise|fallback, got {on_error!r}")
        if rotation_mode not in ("all", "best"):
            raise ConfigError(
                f"rotation_mode must be all|best, got {rotation_mode!r}"
            )
        # checked here as ``spell_pitch`` does, so no command solves a
        # performance before it fails
        if not -7 <= fifths <= 7:
            raise ValidationError(f"fifths {fifths} outside -7..7")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rest_threshold", rest_threshold)
        object.__setattr__(self, "fallback_resolution", fallback_resolution)
        object.__setattr__(self, "onset_tolerance", onset_tolerance)
        object.__setattr__(self, "beat_tolerance", beat_tolerance)
        object.__setattr__(self, "cluster_width", cluster_width)
        object.__setattr__(self, "min_bpm", min_bpm)
        object.__setattr__(self, "max_bpm", max_bpm)
        object.__setattr__(self, "on_error", on_error)
        object.__setattr__(self, "rotation_mode", rotation_mode)
        object.__setattr__(self, "fifths", fifths)

    def replace(self, **changes) -> PipelineConfig:
        """A validated copy with ``changes`` applied."""
        return PipelineConfig(**{name: changes.get(name, getattr(self, name))
                                 for name in self.__slots__})


def load_config(path: str | Path) -> PipelineConfig:
    """Read ``key = value`` lines (# comments allowed) into a PipelineConfig."""
    defaults = PipelineConfig()
    names = PipelineConfig.__slots__
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if key not in names:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            # each setting takes the type of its default
            overrides[key] = type(getattr(defaults, key))(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}")
    return defaults.replace(**overrides)


def _config_from_args(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    for name in ("alpha", "fifths", "on_error", "rotation_mode"):
        value = getattr(args, name, None)
        if value is not None:
            cfg = cfg.replace(**{name: value})
    if getattr(args, "resolution", None) is not None:
        cfg = cfg.replace(fallback_resolution=args.resolution)
    if getattr(args, "tol", None) is not None:
        cfg = cfg.replace(onset_tolerance=args.tol, beat_tolerance=args.tol)
    return cfg


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _round(x: float) -> float | None:
    """``x`` to 4 places, or None (JSON null) when it is not finite."""
    return round(x, 4) if math.isfinite(x) else None


def _load_grammar(args):
    from .grammar import default_grammar, parse_grammar_file

    if getattr(args, "grammar", None):
        return parse_grammar_file(Path(args.grammar).read_text())
    return default_grammar()


def _load_downbeats(path: Path) -> list[float]:
    """Downbeat times from a beats CSV, or one time per line."""
    text = path.read_text()
    try:
        return load_beats(text).downbeats()
    except RhythmiqError as exc:
        lines = [(lineno, raw.split("#", 1)[0].strip())
                 for lineno, raw in enumerate(text.splitlines(), start=1)]
        lines = [(lineno, line) for lineno, line in lines if line]
        if lines and all(line.count(",") == 1 for _, line in lines):
            # every line is a time,beat_in_bar record: a bad beats CSV
            raise ValidationError(f"{path}: {exc}") from None
        times = []
        for lineno, line in lines:
            try:
                t = float(line.split(",")[0])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: bad downbeat time {line!r}")
            if not math.isfinite(t):
                raise ValidationError(
                    f"{path}:{lineno}: downbeat time must be finite, got {line!r}")
            times.append(t)
        if not times:
            raise EmptyInputError(f"{path}: no downbeat times found")
        return times


def load_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """Read a WAV file as float64 in [-1, 1], first channel only."""
    # only `eval sdr` reads audio; numpy and scipy stay out of every other command
    import numpy as np
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    x = np.asarray(data)
    if x.ndim > 1:
        x = x[:, 0]
    if x.dtype == np.uint8:
        x = (x.astype(np.float64) - 128.0) / 128.0
    elif np.issubdtype(x.dtype, np.integer):
        x = x.astype(np.float64) / float(np.iinfo(data.dtype).max + 1)
    else:
        x = x.astype(np.float64)
    return int(rate), x


# ---------------------------------------------------------------------------
# subcommands

def cmd_tempo(args) -> int:
    from .midi_io import load_midi
    from .tempo import TempoBounds, estimate_tempo_ioi, tempo_bounds

    cfg = _config_from_args(args)
    perf = load_midi(Path(args.midi).read_bytes())
    estimate = estimate_tempo_ioi(
        perf,
        cluster_width=cfg.cluster_width,
        bpm_range=TempoBounds(cfg.min_bpm, cfg.max_bpm),
    )
    bounds = tempo_bounds(estimate)
    _print_json({
        "bpm": _round(estimate.bpm),
        "confidence": _round(estimate.confidence),
        "cluster_support": estimate.cluster_support,
        "min_bpm": _round(bounds.min_bpm),
        "max_bpm": _round(bounds.max_bpm),
    })
    return 0


def _quantize_to_xml(perf, grid, grammar, cfg: PipelineConfig, title=None):
    from .musicxml import emit_musicxml
    from .quantize import QuantConfig, quantize_performance

    score, warnings = quantize_performance(
        perf, grid, grammar,
        QuantConfig(alpha=cfg.alpha, rest_threshold=cfg.rest_threshold),
        on_error=cfg.on_error,
        fallback_resolution=cfg.fallback_resolution,
    )
    xml = emit_musicxml(score, fifths=cfg.fifths, title=title)
    return xml, warnings


def cmd_quantize(args) -> int:
    from .midi_io import load_midi

    cfg = _config_from_args(args)
    perf = load_midi(Path(args.midi).read_bytes())
    grid = load_beats(Path(args.beats).read_text())
    grammar = _load_grammar(args)
    xml, warnings = _quantize_to_xml(perf, grid, grammar, cfg, title=args.title)
    if args.out:
        out = Path(args.out)
        out.write_text(xml)
        # a sidecar from an earlier run must not outlive a clean one
        sidecar = out.with_suffix(".warnings.txt")
        if warnings:
            sidecar.write_text("\n".join(warnings) + "\n")
        else:
            sidecar.unlink(missing_ok=True)
    else:
        sys.stdout.write(xml)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _read_score(path: Path, decomposed: dict):
    """Parse a MusicXML file, printing each of the parser's warnings."""
    from .musicxml import parse_musicxml

    score, warnings = parse_musicxml(path.read_text(), decomposed=decomposed)
    for w in warnings:  # one write, so lines of parallel pairs do not mix
        sys.stderr.write(f"warning: {path}: {w}\n")
    return score


def cmd_train_grammar(args) -> int:
    from .grammar import serialize_grammar, train_grammar

    decomposed: dict = {}  # one tree per distinct measure of the corpus
    corpus = [_read_score(Path(path), decomposed) for path in args.scores]
    grammar = train_grammar(corpus, smoothing=args.smoothing)
    text = serialize_grammar(grammar)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_rotations(args) -> int:
    from .metrics import best_phase, rotation_fmeasures
    from .midi_io import load_midi
    from .tempo import enumerate_rotations

    cfg = _config_from_args(args)
    if args.out_dir and cfg.rotation_mode == "best" and not args.ref:
        raise ConfigError("rendering only the best rotation needs reference downbeats (--ref)")
    perf = load_midi(Path(args.midi).read_bytes())
    grid = load_beats(Path(args.beats).read_text())
    grammar = _load_grammar(args)
    ref = _load_downbeats(Path(args.ref)) if args.ref else None

    rotations = enumerate_rotations(grid)
    # a grid shorter than a bar leaves some phases without a downbeat
    entries = [{"phase": phase, "first_downbeat": (rotated.downbeats() or [None])[0]}
               for phase, rotated in enumerate(rotations)]
    report = {"beats_per_bar": grid.beats_per_bar, "rotations": entries}
    if ref is not None:
        scores = rotation_fmeasures(ref, grid.beats, grid.beats_per_bar, cfg.beat_tolerance)
        for entry, f in zip(entries, scores):
            entry["downbeat_f"] = _round(f)
        best = best_phase(scores)
        report["best_phase"] = best
        report["best_downbeat_f"] = _round(scores[best])
    if args.out_dir:
        keep = [best] if cfg.rotation_mode == "best" else range(len(rotations))
        for phase in keep:
            xml, _ = _quantize_to_xml(perf, rotations[phase], grammar, cfg)
            out = Path(args.out_dir) / f"{Path(args.midi).stem}.rot{phase}.musicxml"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(xml)
            entries[phase]["file"] = str(out)
    _print_json(report)
    return 0


# ---------------------------------------------------------------------------
# evaluation

def _by_stem(directory: Path, suffixes: tuple[str, ...]) -> dict[str, Path]:
    """The files of ``directory`` with one of ``suffixes``, keyed by stem."""
    found: dict[str, Path] = {}
    for p in sorted(directory.iterdir()):
        if p.suffix.lower() not in suffixes:
            continue
        if p.stem in found:
            raise PairingError(
                f"stem {p.stem!r} names two files in {directory}: "
                f"{found[p.stem].name} and {p.name}"
            )
        found[p.stem] = p
    return found


def _pair_paths(ref: str, est: str, suffixes: tuple[str, ...]):
    rp, ep = Path(ref), Path(est)
    if rp.is_dir() != ep.is_dir():
        raise PairingError("reference and estimate must both be files or both directories")
    if not rp.is_dir():
        return [(rp.stem, rp, ep)]
    refs = _by_stem(rp, suffixes)
    ests = _by_stem(ep, suffixes)
    if not refs:
        raise PairingError(f"no {'/'.join(suffixes)} files in {rp}")
    unmatched_ref = sorted(set(refs) - set(ests))
    unmatched_est = sorted(set(ests) - set(refs))
    if unmatched_ref or unmatched_est:
        raise PairingError(
            f"unpaired stems; reference only: {unmatched_ref}, "
            f"estimate only: {unmatched_est}"
        )
    return [(stem, refs[stem], ests[stem]) for stem in sorted(refs)]


def _run_pairs(pairs, fn, jobs: int):
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda pair: fn(pair[1], pair[2]), pairs))
    return [fn(r, e) for _, r, e in pairs]


def _emit_eval(pairs, results: list[dict]) -> None:
    if len(pairs) == 1:
        _print_json(results[0])
        return
    from .metrics import summarize

    items = {stem: res for (stem, _, _), res in zip(pairs, results)}
    # a metric is summarized over the items where it is a number, not null
    numbers = {name: [r[name] for r in results if isinstance(r[name], (int, float))]
               for name in results[0]}
    summary = {
        name: {k: _round(v) for k, v in summarize(values).items()}
        for name, values in numbers.items()
        if values
    }
    _print_json({"items": items, "summary": summary})


def cmd_eval_notes(args) -> int:
    from .metrics import note_metrics
    from .midi_io import load_midi

    cfg = _config_from_args(args)
    pairs = _pair_paths(args.ref, args.est, (".mid", ".midi"))

    def one(ref_path: Path, est_path: Path) -> dict:
        ref = load_midi(ref_path.read_bytes())
        est = load_midi(est_path.read_bytes())
        m = note_metrics(ref, est, cfg.onset_tolerance)
        return {
            "precision": _round(m.precision),
            "recall": _round(m.recall),
            "f_measure": _round(m.f_measure),
            "matched": m.matched,
            "n_ref": m.n_ref,
            "n_est": m.n_est,
        }

    _emit_eval(pairs, _run_pairs(pairs, one, args.jobs))
    return 0


def cmd_eval_downbeats(args) -> int:
    from .metrics import downbeat_fmeasure

    cfg = _config_from_args(args)
    pairs = _pair_paths(args.ref, args.est, (".csv", ".txt"))

    def one(ref_path: Path, est_path: Path) -> dict:
        f = downbeat_fmeasure(
            _load_downbeats(ref_path), _load_downbeats(est_path),
            cfg.beat_tolerance,
        )
        return {"f_measure": _round(f)}

    _emit_eval(pairs, _run_pairs(pairs, one, args.jobs))
    return 0


def _edit_payload(m: EditMetrics) -> dict:
    return {
        "note_insertions": m.note_insertions,
        "note_deletions": m.note_deletions,
        "rest_insertions": m.rest_insertions,
        "rest_deletions": m.rest_deletions,
        "timesig_mismatches": m.timesig_mismatches,
        "note_insertion_rate": _round(m.note_insertion_rate),
        "note_deletion_rate": _round(m.note_deletion_rate),
        "rest_insertion_rate": _round(m.rest_insertion_rate),
        "rest_deletion_rate": _round(m.rest_deletion_rate),
        "timesig_mismatch_rate": _round(m.timesig_mismatch_rate),
        "total_error_rate": _round(m.total_error_rate),
        "n_ref_notes": m.n_ref_notes,
    }


def cmd_eval_score(args) -> int:
    from .metrics import score_edit_metrics

    pairs = _pair_paths(args.ref, args.est, (".musicxml", ".xml"))

    def one(ref_path: Path, est_path: Path) -> dict:
        # a measure the two scores share is one tree, decomposed and keyed
        # once; each pair owns its map, so `--jobs` threads share nothing
        decomposed: dict = {}
        ref = _read_score(ref_path, decomposed)
        return _edit_payload(score_edit_metrics(ref, _read_score(est_path, decomposed)))

    _emit_eval(pairs, _run_pairs(pairs, one, args.jobs))
    return 0


def cmd_eval_sdr(args) -> int:
    from .metrics import sdr

    pairs = _pair_paths(args.ref, args.est, (".wav",))

    def one(ref_path: Path, est_path: Path) -> dict:
        ref_rate, ref_sig = load_wav(ref_path)
        est_rate, est_sig = load_wav(est_path)
        if ref_rate != est_rate:
            raise RhythmiqError(
                f"sample rate mismatch: {ref_rate} vs {est_rate}"
            )
        return {"sdr_db": _round(sdr(ref_sig, est_sig))}

    _emit_eval(pairs, _run_pairs(pairs, one, args.jobs))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhythmiq",
        description="Monophonic performance-to-score transcription tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")

    p = sub.add_parser("tempo", parents=[common],
                       help="estimate tempo from note onsets")
    p.add_argument("midi")
    p.set_defaults(func=cmd_tempo)

    p = sub.add_parser("quantize", parents=[common],
                       help="quantize a performance against annotated beats")
    p.add_argument("midi")
    p.add_argument("--beats", required=True, help="beat annotation CSV")
    p.add_argument("--grammar", help="grammar file (default: built-in)")
    p.add_argument("--alpha", type=float, help="data-fit weight")
    p.add_argument("--resolution", type=int, help="fallback grid slots per beat")
    p.add_argument("--on-error", choices=("raise", "fallback"), dest="on_error")
    p.add_argument("--fifths", type=int, help="key signature for spelling")
    p.add_argument("--title", help="work title for the MusicXML output")
    p.add_argument("--out", help="output MusicXML path (default: stdout)")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("train-grammar", parents=[common],
                       help="estimate grammar weights from MusicXML scores")
    p.add_argument("scores", nargs="+")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--out", help="output grammar path (default: stdout)")
    p.set_defaults(func=cmd_train_grammar)

    p = sub.add_parser("rotations", parents=[common],
                       help="try every downbeat rotation of the beat grid")
    p.add_argument("midi")
    p.add_argument("--beats", required=True)
    p.add_argument("--grammar")
    p.add_argument("--alpha", type=float)
    p.add_argument("--ref", help="reference downbeat times (CSV)")
    p.add_argument("--tol", type=float, help="matching window in seconds")
    p.add_argument("--out-dir", dest="out_dir",
                   help="write rendered rotations here")
    p.add_argument("--rotations", choices=("all", "best"), dest="rotation_mode",
                   help="render every rotation or only the best-scoring one (needs --ref)")
    p.set_defaults(func=cmd_rotations)

    ev = sub.add_parser("eval", help="evaluation metrics")
    evsub = ev.add_subparsers(dest="metric", required=True)

    p = evsub.add_parser("notes", parents=[common],
                         help="note precision/recall/F between MIDI files")
    p.add_argument("ref")
    p.add_argument("est")
    p.add_argument("--tol", type=float, help="onset window in seconds")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval_notes)

    p = evsub.add_parser("downbeats", parents=[common],
                         help="downbeat F-measure between annotation files")
    p.add_argument("ref")
    p.add_argument("est")
    p.add_argument("--tol", type=float)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval_downbeats)

    p = evsub.add_parser("score", parents=[common],
                         help="edit counts between MusicXML scores")
    p.add_argument("ref")
    p.add_argument("est")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval_score)

    p = evsub.add_parser("sdr", parents=[common],
                         help="signal-to-distortion ratio between WAV files")
    p.add_argument("ref")
    p.add_argument("est")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval_sdr)

    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (InsufficientDataError, NoTempoError, EmptyInputError)):
        return 2
    if isinstance(exc, (GrammarError, ConfigError)):
        return 3
    if isinstance(exc, PairingError):
        return 4
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RhythmiqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
