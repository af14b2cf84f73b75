"""Monophonic performance-to-score transcription.

Pipeline: note events + beat annotations go in, tempo and meter hypotheses
are scored, each measure is explained by the best derivation of a weighted
rhythm grammar, and the result renders as MusicXML.  A metrics submodule
evaluates transcriptions at the note, downbeat, score, and signal levels.
Every public name is importable from the package; each loads its submodule
on first use.
"""

import importlib

# submodule -> the public names it defines
_SUBMODULES = {
    "core": (
        "BeatGrid", "NoteEvent", "Performance", "TimeSignature",
        "enforce_monophony", "load_beats", "save_beats",
    ),
    "errors": (
        "AlignmentError", "CapacityError", "ConfigError", "DecompositionError",
        "EmptyInputError", "FormatError", "GrammarError", "InsufficientDataError",
        "NoTempoError", "PairingError", "ParseFailureError", "RhythmiqError",
        "UnsupportedContentError", "ValidationError",
    ),
    "grammar": (
        "GrammarRule", "Leaf", "RhythmGrammar", "Split", "default_grammar",
        "parse_grammar_file", "sample_score", "sample_tree", "serialize_grammar",
        "train_grammar",
    ),
    "metrics": (
        "EditMetrics", "NoteMetrics", "best_rotation_fmeasure",
        "downbeat_fmeasure", "note_metrics", "score_edit_metrics", "sdr",
        "summarize",
    ),
    "midi_io": ("load_midi", "save_midi"),
    "musicxml": ("SpelledPitch", "emit_musicxml", "parse_musicxml", "spell_pitch"),
    "quantize": (
        "MeasureInput", "QuantConfig", "fallback_quantize", "quantize_measure",
        "quantize_performance",
    ),
    "tempo": (
        "TempoBounds", "TempoEstimate", "enumerate_rotations",
        "estimate_tempo_ioi", "tempo_bounds",
    ),
    "trees": (
        "CONTINUATION", "NOTE", "REST", "RhythmTree", "ScoreModel",
        "decompose_measure", "render_performance",
    ),
}
_MODULE_OF = {name: module for module, names in _SUBMODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = [name for names in _SUBMODULES.values() for name in names]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
