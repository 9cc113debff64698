"""Audio and annotation I/O.

WAV support is deliberately narrow: RIFF/WAVE containers with 16-bit PCM,
24-bit PCM, or 32-bit float samples, mono or stereo. Everything is folded
down to a mono float buffer in [-1, 1]; the file must be at 44100 Hz.

Annotation files are plain UTF-8 text, one onset time in seconds per line,
'#' starting a comment line; ".onsets" extension by convention.
"""

from __future__ import annotations

import reprlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AnnotationError,
    AudioFormatError,
    EmptyInputError,
    SampleRateError,
)

TARGET_RATE = 44100

# two annotation times closer than this are considered the same onset
DEDUP_SECONDS = 0.001


@dataclass(frozen=True)
class AudioClip:
    """Mono sample buffer with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("audio contains non-finite samples")


@dataclass(frozen=True)
class OnsetAnnotations:
    """Strictly ascending onset times in seconds.

    Construction sorts the input and collapses times closer than 1 ms
    (keeping the earliest of each cluster), so every instance satisfies
    the ordering invariant.
    """

    times: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        t = np.sort(np.asarray(self.times, dtype=np.float64))
        if t.size and t[0] < 0:
            raise AnnotationError("negative onset time")
        if t.size:
            keep = [0]
            for i in range(1, len(t)):
                if t[i] - t[keep[-1]] >= DEDUP_SECONDS:
                    keep.append(i)
            t = t[keep]
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return len(self.times)


def _read_chunks(data: bytes) -> dict[bytes, memoryview]:
    """Split a RIFF/WAVE payload into views of its chunks (first wins)."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError("not a RIFF/WAVE file")
    chunks: dict[bytes, memoryview] = {}
    view = memoryview(data)
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        chunks.setdefault(cid, body)
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def _decode_samples(raw: memoryview, fmt_tag: int, bits: int, n_channels: int) -> np.ndarray:
    # a new float64 array; a partial trailing sample or frame is dropped
    if fmt_tag == 1 and bits == 16:
        x = np.frombuffer(raw, dtype="<i2", count=len(raw) // 2) / 32768.0
    elif fmt_tag == 1 and bits == 24:
        # each sample in the top three bytes of a little-endian int32,
        # shifted down with its sign
        b = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
        b[:, 1:] = np.frombuffer(raw, dtype=np.uint8, count=b.size // 4 * 3).reshape(-1, 3)
        x = (b.view("<i4")[:, 0] >> 8) / float(1 << 23)
    elif fmt_tag == 3 and bits == 32:
        x = np.frombuffer(raw, dtype="<f4", count=len(raw) // 4).astype(np.float64)
    else:
        raise AudioFormatError(f"unsupported WAV encoding (format {fmt_tag}, {bits}-bit)")
    if n_channels > 1:
        x = x[: len(x) - len(x) % n_channels].reshape(-1, n_channels).mean(axis=1)
    return x


def load_audio(path: str | Path) -> AudioClip:
    """Load a 44100 Hz WAV file as a mono clip.

    Stereo channels are averaged. Any other sample rate raises
    SampleRateError: the file must be converted to 44.1 kHz first.
    """
    data = Path(path).read_bytes()
    if not data:
        raise EmptyInputError(f"empty file: {path}")
    chunks = _read_chunks(data)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise AudioFormatError("missing fmt or data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise AudioFormatError("truncated fmt chunk")
    fmt_tag, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if fmt_tag == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: sub-format GUID leads with the tag
        if len(fmt) >= 40:
            (fmt_tag,) = struct.unpack_from("<H", fmt, 24)
        else:
            raise AudioFormatError("truncated extensible fmt chunk")
    if n_channels not in (1, 2):
        raise AudioFormatError(f"unsupported channel count {n_channels}")
    if rate == 0:
        raise AudioFormatError("fmt chunk declares a sample rate of 0 Hz")
    samples = _decode_samples(chunks[b"data"], fmt_tag, bits, n_channels)
    if samples.size == 0:
        raise EmptyInputError(f"no samples in {path}")
    if rate != TARGET_RATE:
        raise SampleRateError(f"{path}: {rate} Hz; convert the file to 44.1 kHz first")
    peak = max(samples.max(), -samples.min())  # max |x| without an |x| array
    if 1.0 < peak < np.inf:  # AudioClip rejects a non-finite sample
        samples /= peak
    return AudioClip(samples=samples, sample_rate=TARGET_RATE)


def save_wav(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as 16-bit PCM mono WAV."""
    x = np.clip(clip.samples, -1.0, 1.0)
    # scale by 32768 (the load-side divisor) so the pair inverts exactly
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    hdr = b"WAVE" + b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16
    )
    body = hdr + b"data" + struct.pack("<I", len(pcm)) + pcm
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def load_annotations(path: str | Path) -> OnsetAnnotations:
    """Parse an onset annotation file.

    One decimal number per non-empty line; lines starting with '#' are
    ignored. Times are sorted and duplicates within 1 ms collapsed.
    """
    times = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as e:
        raise AnnotationError(f"{path}: not UTF-8 text ({e.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            t = float(stripped)
        except ValueError:
            raise AnnotationError(f"{path}:{lineno}: not a number: "
                                  f"{reprlib.repr(stripped)}") from None
        if not np.isfinite(t):
            raise AnnotationError(f"{path}:{lineno}: non-finite onset time "
                                  f"{reprlib.repr(stripped)}")
        if t < 0:
            raise AnnotationError(f"{path}:{lineno}: negative onset time {t}")
        times.append(t)
    return OnsetAnnotations(times=np.array(times))


def save_annotations(onsets: OnsetAnnotations, path: str | Path) -> None:
    """Write onset times, one per line with 4 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in onsets.times:
            fh.write(f"{t:.4f}\n")
