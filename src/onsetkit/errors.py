"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: usage problems exit 1, data errors
(anything deriving from DataError) exit 2, numeric divergence exits 3.
"""

import reprlib
from dataclasses import fields
from pathlib import Path

import numpy as np


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


# each ranged value's interval, written as its error message quotes it
RANGES = {"seed": "[0, inf)", "profile_seed": "[0, inf)", "epochs": "[1, inf)",
          "lr_scale": "(0, 1]", "base_lr": "(0, inf)", "dropout_rate": "[0, 1)",
          "snippet_offset": "[0, inf)", "snippet_duration": "(0, inf)", "tolerance": "(0, inf)",
          "threshold": "(0, 1)", "w_max": "[0, inf)", "w_avg": "[0, inf)", "delta": "(-inf, inf)",
          "mean_f1": "[0, 1]", "baseline_f1": "[0, 1]", "f1": "[0, 1]", "wall_s": "[0, inf)",
          "onset_density": "[0, inf)", "amplitude_jitter": "[0, inf)", "attack_ms": "(0, inf)",
          "files_per_instrument": "[2, inf)",  # a snippet source and a file to score
          # a 16-bit mono 44.1 kHz WAV's RIFF size passes 2**32 - 1 above 48,695.77 s
          "file_duration": "[5, 48695]", "tempo": "[165, 180]"}
NOT_GIVEN = {"snippet_offset"}  # the values that None leaves to a default


def check_ranges(**values) -> None:
    """ConfigError unless each value lies in its name's RANGES interval; NaN
    lies in none. None skips a NOT_GIVEN value; elsewhere it is no number,
    so comparing it raises TypeError."""
    for name, value in values.items():
        if value is None and name in NOT_GIVEN:
            continue
        interval = RANGES[name]
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not (lo < value < hi or value == lo and interval[0] == "["
                or value == hi and interval[-1] == "]"):
            raise ConfigError(f"{name} must be in {interval}, got {reprlib.repr(value)}")


def check_fields(obj) -> None:
    """check_ranges over the fields of a dataclass that RANGES names; such a
    field holding a numpy scalar is stored as its Python number first."""
    for name in (f.name for f in fields(obj) if f.name in RANGES):
        if isinstance(getattr(obj, name), np.generic):
            object.__setattr__(obj, name, getattr(obj, name).item())
        check_ranges(**{name: getattr(obj, name)})
