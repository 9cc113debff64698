import math

import numpy as np
import pytest

from onsetkit.audio import AudioClip
from onsetkit.errors import SampleRateError
from onsetkit.features import (
    FMAX,
    FMIN,
    HOP,
    N_BANDS,
    STFT_CHUNK,
    WINDOW_SIZE,
    band_centers,
    extract_features,
    n_frames_for,
    _filterbank,
)


def clip_of(x):
    return AudioClip(samples=x, sample_rate=44100)


def test_framing_counts():
    # ceil(N/441) frames for assorted lengths
    for n in [1, 440, 441, 442, 4410, 220500, 220501]:
        feats = extract_features(clip_of(np.zeros(n)))
        assert feats.values.shape == (math.ceil(n / 441), 81)
    assert n_frames_for(220500) == 500


def test_zero_clip_gives_zero_matrix():
    feats = extract_features(clip_of(np.zeros(4410)))
    assert np.all(feats.values == 0.0)


def test_values_nonnegative_finite():
    rng = np.random.default_rng(3)
    feats = extract_features(clip_of(rng.uniform(-1, 1, 44100)))
    assert np.all(feats.values >= 0.0)
    assert np.all(np.isfinite(feats.values))


def _whole_array_features(x):
    """The STFT as one call over every frame, then the filterbank."""
    n_frames = math.ceil(len(x) / HOP)
    padded = np.pad(x, (WINDOW_SIZE // 2, WINDOW_SIZE // 2 + HOP))
    frames = np.lib.stride_tricks.sliding_window_view(padded, WINDOW_SIZE)[::HOP][:n_frames]
    mag = np.abs(np.fft.rfft(frames * np.hanning(WINDOW_SIZE), axis=1))
    return np.log1p(mag @ _filterbank())


def test_chunked_stft_matches_the_whole_array_stft():
    rng = np.random.default_rng(12)
    chunk = HOP * STFT_CHUNK
    for n in (1, 100, 441, 442, chunk - HOP, chunk, chunk + 1, 30 * 44100):
        x = rng.uniform(-1.0, 1.0, n)
        got = extract_features(clip_of(x)).values
        assert got.tobytes() == _whole_array_features(x).tobytes(), n


def test_band_centers_grid():
    c = band_centers()
    assert c[0] == pytest.approx(30.0)
    assert c[-1] == pytest.approx(17000.0)
    # equal spacing on log frequency
    ratios = c[1:] / c[:-1]
    assert np.allclose(ratios, ratios[0])


def test_filterbank_unit_area():
    fb = _filterbank()
    assert fb.shape == (1025, N_BANDS)
    assert np.all(fb >= 0.0)
    assert np.max(np.abs(fb.sum(axis=0) - 1.0)) < 1e-6


def test_sine_peaks_at_nearest_band():
    # expected band from the log grid alone: argmin |30*(17000/30)^(i/80) - 440|
    grid = FMIN * (FMAX / FMIN) ** (np.arange(N_BANDS) / (N_BANDS - 1))
    expect = int(np.argmin(np.abs(grid - 440.0)))

    t = np.arange(44100) / 44100.0
    feats = extract_features(clip_of(np.sin(2 * np.pi * 440.0 * t)))
    interior = feats.values[10:90]
    argmax = np.argmax(interior, axis=1)
    assert np.all(argmax == expect)


def test_impulse_localized_in_time():
    # an impulse at sample t*441 is at the window center of frame t
    x = np.zeros(44100)
    x[10 * 441] = 1.0
    feats = extract_features(clip_of(x))
    energy = feats.values.sum(axis=1)
    assert int(np.argmax(energy)) == 10


def test_amplitude_monotonicity():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.3, 0.3, 22050)
    lo = extract_features(clip_of(x)).values
    hi = extract_features(clip_of(3.0 * x)).values
    assert np.all(hi - lo >= -1e-9)


def test_rejects_wrong_rate():
    with pytest.raises(SampleRateError):
        extract_features(AudioClip(samples=np.zeros(100), sample_rate=22050))
