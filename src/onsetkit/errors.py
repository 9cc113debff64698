"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: usage problems exit 1, data errors
(anything deriving from DataError) exit 2, numeric divergence exits 3.
"""

from pathlib import Path


class OnsetKitError(Exception):
    """Base class for all toolkit errors."""


class DataError(OnsetKitError):
    """Bad input data: malformed files, out-of-range values, missing files."""


class AudioFormatError(DataError):
    """Unsupported or corrupt WAV encoding."""


class SampleRateError(DataError):
    """Sample rate differs from 44100 Hz."""


class EmptyInputError(DataError):
    """Zero-length audio or annotation input where content is required."""


class AnnotationError(DataError):
    """Malformed onset annotation file (with line number where known)."""


class ModelFormatError(DataError):
    """Corrupt, truncated, or version-incompatible model file."""


class ShapeError(OnsetKitError):
    """Operand shapes disagree with a layer or loss contract."""


class ConfigError(OnsetKitError):
    """Invalid configuration value (freeze segment, rates, empty corpus, ...)."""


class SnippetError(DataError):
    """The requested fine-tuning window contains no annotations."""


class DivergenceError(OnsetKitError):
    """Training produced a non-finite loss. last_loss is the loss of the step
    before it, or None when the first step diverged."""

    def __init__(self, epoch: int, last_loss: float | None = None, message: str | None = None):
        self.epoch = epoch
        self.last_loss = last_loss
        super().__init__(message or f"non-finite loss at epoch {epoch} "
                                    f"(last finite loss: {last_loss!r})")


def read_text(path, what: str) -> str:
    """A UTF-8 file's text, line ends as written (no newline translation);
    an unreadable or undecodable file is a DataError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
