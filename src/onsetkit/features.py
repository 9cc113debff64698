"""Log-frequency spectrogram features.

Pipeline: 2048-sample Hann STFT at hop 441 (100 frames/s for 44.1 kHz
input, frame t centered at sample t*441), magnitudes mapped through 81
triangular filters equally spaced on log frequency between 30 Hz and
17000 Hz (each filter normalized to unit area), then log(1 + x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import TARGET_RATE, AudioClip
from .errors import EmptyInputError, SampleRateError

WINDOW_SIZE = 2048
HOP = 441
FRAME_RATE = 100
N_BANDS = 81
FMIN = 30.0
FMAX = 17000.0
STFT_CHUNK = 64  # frames windowed and transformed at a time


@dataclass(frozen=True)
class FeatureMatrix:
    """frames x bands matrix of nonnegative compressed magnitudes."""

    values: np.ndarray
    frame_rate: int = FRAME_RATE

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]


def band_centers(n_bands: int = N_BANDS) -> np.ndarray:
    """Filter center frequencies: log-spaced from FMIN to FMAX inclusive."""
    i = np.arange(n_bands)
    return FMIN * (FMAX / FMIN) ** (i / (n_bands - 1))


def _filterbank(n_bins: int, sample_rate: int) -> np.ndarray:
    """(n_bins, N_BANDS) triangular filter matrix, unit area per filter."""
    # centers plus one extrapolated virtual neighbor on each side
    i = np.arange(-1, N_BANDS + 1)
    centers = FMIN * (FMAX / FMIN) ** (i / (N_BANDS - 1))
    bin_freq = np.arange(n_bins) * (sample_rate / WINDOW_SIZE)
    fb = np.zeros((n_bins, N_BANDS))
    for b in range(N_BANDS):
        left, center, right = centers[b], centers[b + 1], centers[b + 2]
        up = (bin_freq - left) / (center - left)
        down = (right - bin_freq) / (right - center)
        tri = np.maximum(0.0, np.minimum(up, down))
        if tri.sum() == 0.0:
            # span narrower than a bin: collapse onto the nearest bin
            tri[int(round(center / (sample_rate / WINDOW_SIZE)))] = 1.0
        fb[:, b] = tri / tri.sum()
    return fb


_FB_CACHE: dict[tuple[int, int], np.ndarray] = {}
_WINDOW = np.hanning(WINDOW_SIZE)
_WINDOW.flags.writeable = False


def _cached_filterbank(n_bins: int, sample_rate: int) -> np.ndarray:
    key = (n_bins, sample_rate)
    if key not in _FB_CACHE:
        _FB_CACHE[key] = _filterbank(n_bins, sample_rate)
    return _FB_CACHE[key]


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
    padded = np.pad(x, (half, half + HOP))
    frames = np.lib.stride_tricks.sliding_window_view(padded, WINDOW_SIZE)[::HOP]
    frames = frames[:n_frames]
    # chunks keep the windowed frames and their spectrum cache-sized; each
    # row's transform is the same whichever rows share its call
    mag = np.empty((n_frames, WINDOW_SIZE // 2 + 1))
    for s in range(0, n_frames, STFT_CHUNK):
        chunk = frames[s : s + STFT_CHUNK] * _WINDOW
        np.abs(np.fft.rfft(chunk, axis=1), out=mag[s : s + STFT_CHUNK])
    fb = _cached_filterbank(mag.shape[1], clip.sample_rate)
    return FeatureMatrix(values=np.log1p(mag @ fb))
