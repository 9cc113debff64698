"""Log-frequency spectrogram features.

Pipeline: 2048-sample Hann STFT at hop 441 (100 frames/s for 44.1 kHz
input, frame t centered at sample t*441), magnitudes mapped through 81
triangular filters equally spaced on log frequency between 30 Hz and
17000 Hz (each filter normalized to unit area), then log(1 + x).
Frames run in layers.time_blocks, each block windowed from a view of the
samples (zero-padded only past the clip's ends) and written through the
filterbank into its rows: the floats of one whole-length spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio import TARGET_RATE, AudioClip
from .errors import EmptyInputError, SampleRateError
from .layers import context_rows, time_blocks

WINDOW_SIZE = 2048
HOP = 441
FRAME_RATE = 100
N_BANDS = 81
FMIN = 30.0
FMAX = 17000.0


@dataclass(frozen=True)
class FeatureMatrix:
    """frames x bands matrix of nonnegative compressed magnitudes."""

    values: np.ndarray
    frame_rate: int = FRAME_RATE

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def band_centers(first: int = 0, stop: int = N_BANDS) -> np.ndarray:
    """Center frequencies of bands first..stop-1, log-spaced with band 0 at
    FMIN and band N_BANDS - 1 at FMAX; bands outside extrapolate."""
    return FMIN * (FMAX / FMIN) ** (np.arange(first, stop) / (N_BANDS - 1))


@functools.cache
def _filterbank() -> np.ndarray:
    """(bins, N_BANDS) triangular filter matrix of a WINDOW_SIZE STFT at
    TARGET_RATE, unit area per filter; built once, read-only."""
    # centers plus one extrapolated virtual neighbor on each side
    centers = band_centers(-1, N_BANDS + 1)
    bin_hz = TARGET_RATE / WINDOW_SIZE
    bin_freq = np.arange(WINDOW_SIZE // 2 + 1) * bin_hz
    fb = np.zeros((len(bin_freq), N_BANDS))
    for b in range(N_BANDS):
        left, center, right = centers[b], centers[b + 1], centers[b + 2]
        up = (bin_freq - left) / (center - left)
        down = (right - bin_freq) / (right - center)
        tri = np.maximum(0.0, np.minimum(up, down))
        if tri.sum() == 0.0:
            # span narrower than a bin: collapse onto the nearest bin
            tri[int(round(center / bin_hz))] = 1.0
        fb[:, b] = tri / tri.sum()
    fb.flags.writeable = False
    return fb


_WINDOW = np.hanning(WINDOW_SIZE)
_WINDOW.flags.writeable = False


def n_frames_for(n_samples: int) -> int:
    return math.ceil(n_samples / HOP)


def extract_features(clip: AudioClip) -> FeatureMatrix:
    """Convert a 44.1 kHz mono clip into its frames x 81 feature matrix."""
    if clip.sample_rate != TARGET_RATE:
        raise SampleRateError(f"expected {TARGET_RATE} Hz input, got {clip.sample_rate}")
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyInputError("cannot extract features from an empty clip")
    n_frames = n_frames_for(len(x))
    half = WINDOW_SIZE // 2
    spans = time_blocks(n_frames)
    windowed = np.empty((max(e - s for s, e in spans), WINDOW_SIZE))
    values = np.empty((n_frames, N_BANDS))
    for s, e in spans:
        # frame t is centred at sample t * HOP
        seg = context_rows(x, s * HOP - half, (e - 1) * HOP + half)
        frames = np.lib.stride_tricks.sliding_window_view(seg, WINDOW_SIZE)[::HOP]
        w = np.multiply(frames, _WINDOW, out=windowed[: e - s])
        np.matmul(np.abs(np.fft.rfft(w, axis=1)), _filterbank(), out=values[s:e])
    return FeatureMatrix(values=np.log1p(values, out=values))
