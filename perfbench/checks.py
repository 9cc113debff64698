"""Checks made apart from the program: independent readers and references.

Nothing here calls onsetkit. Each reader parses a file format from its
documented layout, so a fault in the package's own reader cannot hide a
fault in what it reads.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

HOP = 441
N_BANDS = 81
FMIN, FMAX = 30.0, 17000.0


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def model_tensor_bytes(path) -> dict[str, bytes]:
    """Raw little-endian float32 bytes of every tensor in a model file."""
    data = Path(path).read_bytes()
    blob_at = data.index(b"\nblob ") + 1
    blob_start = data.index(b"\n", blob_at) + 1
    out, offset = {}, blob_start
    for line in data[:blob_at].decode("ascii").splitlines():
        parts = line.split()
        if parts and parts[0] == "tensor":
            size = math.prod(int(s) for s in parts[2:]) * 4
            out[parts[1]] = data[offset:offset + size]
            offset += size
    require(offset == len(data), f"{path}: tensors cover {offset - blob_start} blob bytes "
                                 f"of {len(data) - blob_start}")
    return out


def wav_sample_count(path) -> int:
    """Samples per channel of a 16-bit PCM mono WAV, from its RIFF chunks."""
    data = Path(path).read_bytes()
    pos = 12
    while pos + 8 <= len(data):
        cid, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if cid == b"fmt ":
            channels, bits = struct.unpack_from("<H", data, pos + 10)[0], \
                struct.unpack_from("<H", data, pos + 22)[0]
            require((channels, bits) == (1, 16), f"{path}: expected 16-bit mono")
        if cid == b"data":
            return size // 2
        pos += 8 + size + (size & 1)
    raise CheckFailed(f"{path}: no data chunk")


def frames_of(path) -> int:
    return math.ceil(wav_sample_count(path) / HOP)


def read_onsets(path) -> np.ndarray:
    """Onset times of a one-number-per-line file, '#' lines skipped."""
    lines = Path(path).read_text().split("\n")
    return np.array(sorted(float(s) for s in lines if s.strip() and not s.startswith("#")))


def max_matching_tp(est: np.ndarray, ref: np.ndarray, tolerance: float) -> int:
    """Size of a maximum one-to-one matching with |est - ref| <= tolerance."""
    if est.size == 0 or ref.size == 0:
        return 0
    ok = (est[:, None] >= ref[None, :] - tolerance) & (est[:, None] <= ref[None, :] + tolerance)
    rows, cols = linear_sum_assignment(ok.astype(float), maximize=True)
    return int(ok[rows, cols].sum())


def band_center(k: int) -> float:
    return FMIN * (FMAX / FMIN) ** (k / (N_BANDS - 1))


def nearest_band(freq: float) -> int:
    return int(np.argmin([abs(band_center(k) - freq) for k in range(N_BANDS)]))


def check_features(values: np.ndarray, n_samples: int, what: str) -> None:
    require(values.shape == (math.ceil(n_samples / HOP), N_BANDS),
            f"{what}: features {values.shape} for {n_samples} samples")
    require(bool(np.isfinite(values).all()), f"{what}: non-finite features")
    require(bool((values >= 0).all()), f"{what}: negative features")


def tone(freq: float, seconds: float = 1.0, rate: int = 44100) -> np.ndarray:
    t = np.arange(int(seconds * rate)) / rate
    return 0.5 * np.sin(2 * np.pi * freq * t)
