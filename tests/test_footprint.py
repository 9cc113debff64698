"""Memory bounds of the inference path on one 30 s file, read by tracemalloc
(numpy reports its array buffers to it).

A 30 s clip holds 1,323,000 float64 samples (10.1 MiB) in 3,000 frames.
Each bound leaves a few MiB over what the path needs, and stays well under
what it took while WAV decoding copied the data chunk and made float64
temporaries (25 MiB), feature extraction made a whole-length padded copy
and spectrum (39 MiB), and each conv stage a zero-padded copy of its input
(27.5 MiB for tcn_v1's forward).
"""

import tracemalloc

import numpy as np
import pytest

from onsetkit.audio import AudioClip, load_audio, save_wav
from onsetkit.features import extract_features
from onsetkit.models import build_model

MIB = 1 << 20


def traced_peak(fn):
    """(fn(), the peak MiB traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / MIB


@pytest.fixture(scope="module")
def wav_30s(tmp_path_factory):
    path = tmp_path_factory.mktemp("footprint") / "noise.wav"
    x = np.random.default_rng(5).uniform(-0.9, 0.9, 30 * 44100)
    save_wav(AudioClip(samples=x, sample_rate=44100), path)
    return path


def test_load_audio_holds_the_file_and_its_samples(wav_30s):
    # the file's 2.5 MiB, the 10.1 MiB of samples and their 1.3 MiB
    # finiteness mask
    clip, peak = traced_peak(lambda: load_audio(wav_30s))
    assert clip.samples.size == 30 * 44100
    assert peak < 16.0, peak


def test_extract_features_holds_blocks_not_the_whole_length(wav_30s):
    # the 1.9 MiB result and one block's windowed frames, spectrum and
    # magnitudes (at most 255 frames: 3.8 + 4.0 + 2.0 MiB)
    clip = load_audio(wav_30s)
    feats, peak = traced_peak(lambda: extract_features(clip))
    assert feats.n_frames == 3000
    assert peak < 14.0, peak


def test_inference_forward_makes_no_padded_copies(wav_30s):
    # tcn_v1's Conv1 output (9.5 MiB) and one Conv2 block's patch matrix
    # (at most 6.7 MiB) set the peak
    feats = extract_features(load_audio(wav_30s))
    model = build_model("tcn_v1", seed=1)
    out, peak = traced_peak(lambda: model.forward(feats))
    assert out.shape == (3000,)
    assert peak < 22.0, peak
