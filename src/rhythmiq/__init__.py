"""Monophonic performance-to-score transcription.

Pipeline: note events + beat annotations go in, tempo and meter hypotheses
are scored, each measure is explained by the best derivation of a weighted
rhythm grammar, and the result renders as MusicXML.  A metrics submodule
evaluates transcriptions at the note, downbeat, score, and signal levels.
"""

from .core import (
    BeatGrid,
    NoteEvent,
    Performance,
    TimeSignature,
    enforce_monophony,
    load_beats,
    save_beats,
)
from .errors import (
    AlignmentError,
    CapacityError,
    ConfigError,
    DecompositionError,
    EmptyInputError,
    FormatError,
    GrammarError,
    InsufficientDataError,
    NoTempoError,
    PairingError,
    ParseFailureError,
    RhythmiqError,
    UnsupportedContentError,
    ValidationError,
)
from .grammar import (
    GrammarRule,
    Leaf,
    RhythmGrammar,
    Split,
    adjust_rule_weight,
    default_grammar,
    parse_grammar_file,
    sample_score,
    sample_tree,
    serialize_grammar,
    train_grammar,
)
from .metrics import (
    EditMetrics,
    NoteMetrics,
    best_rotation_fmeasure,
    downbeat_fmeasure,
    note_metrics,
    score_edit_metrics,
    sdr,
    summarize,
)
from .midi_io import load_midi, save_midi
from .musicxml import SpelledPitch, emit_musicxml, parse_musicxml, spell_pitch
from .quantize import (
    MeasureInput,
    QuantConfig,
    fallback_quantize,
    quantize_measure,
    quantize_performance,
    time_to_beats,
)
from .tempo import (
    TempoBounds,
    TempoEstimate,
    enumerate_rotations,
    estimate_tempo_ioi,
    grid_from_tempo,
    tempo_bounds,
)
from .trees import (
    CONTINUATION,
    NOTE,
    REST,
    NotatedEvent,
    RhythmTree,
    ScoreModel,
    decompose_measure,
    render_performance,
    tree_to_notation,
)

__version__ = "0.1.0"

__all__ = [
    "BeatGrid", "NoteEvent", "Performance", "TimeSignature",
    "enforce_monophony", "load_beats", "save_beats",
    "AlignmentError", "CapacityError", "ConfigError", "DecompositionError",
    "EmptyInputError", "FormatError", "GrammarError", "InsufficientDataError",
    "NoTempoError", "PairingError", "ParseFailureError", "RhythmiqError",
    "UnsupportedContentError", "ValidationError",
    "GrammarRule", "Leaf", "RhythmGrammar", "Split", "adjust_rule_weight",
    "default_grammar", "parse_grammar_file", "sample_score", "sample_tree",
    "serialize_grammar", "train_grammar",
    "EditMetrics", "NoteMetrics", "best_rotation_fmeasure",
    "downbeat_fmeasure", "note_metrics", "score_edit_metrics", "sdr",
    "summarize",
    "load_midi", "save_midi",
    "SpelledPitch", "emit_musicxml", "parse_musicxml", "spell_pitch",
    "MeasureInput", "QuantConfig", "fallback_quantize", "quantize_measure",
    "quantize_performance", "time_to_beats",
    "TempoBounds", "TempoEstimate", "enumerate_rotations",
    "estimate_tempo_ioi", "grid_from_tempo", "tempo_bounds",
    "CONTINUATION", "NOTE", "REST", "NotatedEvent", "RhythmTree",
    "ScoreModel", "decompose_measure", "render_performance",
    "tree_to_notation",
]
