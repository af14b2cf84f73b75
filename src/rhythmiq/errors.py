"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than bare ValueError.
"""


class RhythmiqError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(RhythmiqError):
    """Input bytes or text do not conform to the expected file format."""


class EmptyInputError(RhythmiqError):
    """An input that must contain events contains none."""


class ValidationError(RhythmiqError):
    """A value violates a documented invariant."""


class InsufficientDataError(RhythmiqError):
    """Not enough data to run an estimator (e.g. fewer than 3 notes)."""


class NoTempoError(RhythmiqError):
    """No tempo hypothesis maps into the requested bpm range."""


class GrammarError(RhythmiqError):
    """A grammar file or grammar structure is unusable."""


class ConfigError(RhythmiqError):
    """A configuration file or option value is unusable."""


class DecompositionError(RhythmiqError):
    """A notated measure cannot be expressed as a rhythm tree."""


class CapacityError(RhythmiqError):
    """A measure holds more onsets than any derivation can host."""


class ParseFailureError(RhythmiqError):
    """No derivation of the measure exists under the grammar."""


class AlignmentError(ParseFailureError):
    """Two onsets of a measure, or its last onset and the closing barline,
    align to one boundary even in the finest cells."""


class UnsupportedContentError(RhythmiqError):
    """The input is well formed but uses features outside the monophonic model."""


class PairingError(RhythmiqError):
    """Batch evaluation could not pair reference and estimate files."""
