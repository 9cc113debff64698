import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from onsetkit.audio import (
    AudioClip,
    OnsetAnnotations,
    load_annotations,
    load_audio,
    save_annotations,
    save_wav,
)
from onsetkit.cli import main
from onsetkit.errors import (
    AnnotationError,
    AudioFormatError,
    EmptyInputError,
    OnsetKitError,
    SampleRateError,
)
from onsetkit.models import build_model, save_model


def wav_bytes(samples, rate, bits=16, fmt_tag=1, n_channels=1):
    """Build WAV bytes by hand, independently of the module under test."""
    x = np.asarray(samples)
    if n_channels > 1:
        x = x.reshape(-1)
    if fmt_tag == 1 and bits == 16:
        raw = np.round(np.asarray(x) * 32767.0).astype("<i2").tobytes()
    elif fmt_tag == 1 and bits == 24:
        v = np.round(np.asarray(x) * float(2**23 - 1)).astype(np.int64)
        raw = b"".join(int(s & 0xFFFFFF).to_bytes(3, "little") for s in v)
    elif fmt_tag == 3 and bits == 32:
        raw = np.asarray(x, dtype="<f4").tobytes()
    else:
        raise ValueError("bad test format")
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, n_channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(raw)) + raw
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_pcm16_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, 4410)
    clip = AudioClip(samples=x, sample_rate=44100)
    p = tmp_path / "a.wav"
    save_wav(clip, p)
    back = load_audio(p)
    assert back.sample_rate == 44100
    assert len(back.samples) == 4410
    # 16-bit quantization error only: half a step of 1/32768
    assert np.max(np.abs(back.samples - x)) <= 0.5 / 32768


def test_silence_roundtrip(tmp_path):
    p = tmp_path / "s.wav"
    save_wav(AudioClip(samples=np.zeros(1000), sample_rate=44100), p)
    back = load_audio(p)
    assert np.all(back.samples == 0.0)


def test_stereo_average_cancels(tmp_path):
    # L = -R so the mono average is exactly zero
    rng = np.random.default_rng(1)
    left = rng.uniform(-0.5, 0.5, 500)
    inter = np.empty(1000)
    inter[0::2] = left
    inter[1::2] = -left
    p = tmp_path / "st.wav"
    p.write_bytes(wav_bytes(inter, 44100, bits=32, fmt_tag=3, n_channels=2))
    back = load_audio(p)
    assert len(back.samples) == 500
    assert np.max(np.abs(back.samples)) == 0.0


def test_float32_read(tmp_path):
    x = np.linspace(-1, 1, 100, dtype=np.float32)
    p = tmp_path / "f.wav"
    p.write_bytes(wav_bytes(x, 44100, bits=32, fmt_tag=3))
    back = load_audio(p)
    assert np.allclose(back.samples, x.astype(np.float64), atol=0)


def test_float32_peak_normalized(tmp_path):
    x = np.array([0.0, 2.0, -4.0, 1.0], dtype=np.float32)
    p = tmp_path / "loud.wav"
    p.write_bytes(wav_bytes(x, 44100, bits=32, fmt_tag=3))
    back = load_audio(p)
    assert np.max(np.abs(back.samples)) == 1.0
    assert np.allclose(back.samples, x / 4.0)


def test_pcm24_read(tmp_path):
    x = np.array([0.0, 0.5, -0.5, 0.25, -1.0])
    p = tmp_path / "p24.wav"
    p.write_bytes(wav_bytes(x, 44100, bits=24))
    back = load_audio(p)
    assert np.max(np.abs(back.samples - x)) < 1e-6


def test_resample_ramp_matches_interp_oracle(tmp_path):
    # a 22050 Hz file is refused: it must be converted to 44.1 kHz first
    p = tmp_path / "r.wav"
    p.write_bytes(wav_bytes(np.linspace(-0.8, 0.8, 2205), 22050, bits=32, fmt_tag=3))
    with pytest.raises(SampleRateError):
        load_audio(p)


def test_load_errors(tmp_path):
    empty = tmp_path / "e.wav"
    empty.write_bytes(b"")
    with pytest.raises(EmptyInputError):
        load_audio(empty)

    junk = tmp_path / "j.wav"
    junk.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(AudioFormatError):
        load_audio(junk)

    eight = tmp_path / "p8.wav"
    raw = bytes(100)
    fmt = struct.pack("<HHIIHH", 1, 1, 44100, 44100, 1, 8)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(raw)) + raw
    eight.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(AudioFormatError):
        load_audio(eight)

    nodata = tmp_path / "nd.wav"
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    nodata.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(AudioFormatError):
        load_audio(nodata)


@pytest.mark.parametrize("bits, fmt_tag, n_channels", [(16, 1, 1), (32, 3, 1), (16, 1, 2)])
def test_partial_trailing_sample_dropped(tmp_path, bits, fmt_tag, n_channels):
    x = np.array([0.5, -0.25, 0.125, 0.0, -0.5, 0.75])
    good = wav_bytes(x, 44100, bits=bits, fmt_tag=fmt_tag, n_channels=n_channels)
    whole = tmp_path / "whole.wav"
    whole.write_bytes(good)
    # one byte of a further sample; the RIFF and data sizes count it
    body = good[8:] + b"\x7f"
    data_at = body.index(b"data")
    body = body[: data_at + 4] + struct.pack("<I", len(body) - data_at - 8) + body[data_at + 8 :]
    odd = tmp_path / "odd.wav"
    odd.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert load_audio(odd).samples.tobytes() == load_audio(whole).samples.tobytes()


def copying_decode(raw, bits, fmt_tag, n_channels):
    """The samples of a data chunk by the formulas load_audio used before
    it decoded in place: every step makes a new array."""
    if fmt_tag == 1 and bits == 16:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif fmt_tag == 1 and bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        x = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        x = np.where(x >= 1 << 23, x - (1 << 24), x).astype(np.float64) / float(1 << 23)
    else:
        x = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if n_channels > 1:
        x = x.reshape(-1, n_channels).mean(axis=1)
    peak = np.max(np.abs(x))
    return x / peak if peak > 1.0 else x


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("bits, fmt_tag, scale", [(16, 1, 1.0), (24, 1, 1.0), (32, 3, 1.0),
                                                  (32, 3, 3.5)])
def test_load_audio_matches_the_copying_formulas(tmp_path, bits, fmt_tag, scale, n_channels):
    # full-scale, zero and random samples; a float file at scale 3.5 peaks
    # above 1.0 and is normalized
    x = np.random.default_rng(bits + n_channels).uniform(-1.0, 1.0, 2 * 4410)
    x[:4] = [1.0, -1.0, 0.0, -0.0]
    data = wav_bytes(x * scale, 44100, bits=bits, fmt_tag=fmt_tag, n_channels=n_channels)
    p = tmp_path / "a.wav"
    p.write_bytes(data)
    clip = load_audio(p)
    raw = data[data.index(b"data", 12) + 8 :]
    assert clip.samples.tobytes() == copying_decode(raw, bits, fmt_tag, n_channels).tobytes()
    # the samples own their memory: nothing keeps the file's bytes alive
    assert clip.samples.flags.owndata and clip.samples.flags.writeable


def chunk(cid, payload, size=None):
    """One RIFF chunk declaring `size` bytes (the payload's when None), with
    the pad byte after an odd payload."""
    size = len(payload) if size is None else size
    return cid + struct.pack("<I", size) + payload + b"\x00" * (len(payload) & 1)


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


FMT16 = struct.pack("<HHIIHH", 1, 1, 44100, 2 * 44100, 2, 16)
PCM16 = np.arange(-300, 300, 3, dtype="<i2").tobytes()

# well-formed files whose chunks come in another order or size than the
# usual fmt-then-data: each loads the samples of riff(fmt, data)
WELL_FORMED_WAVS = {
    "data before fmt": riff(chunk(b"data", PCM16), chunk(b"fmt ", FMT16)),
    "odd-sized chunk with its pad byte": riff(chunk(b"LIST", b"abc"), chunk(b"fmt ", FMT16),
                                              chunk(b"data", PCM16)),
    "odd-sized data chunk": riff(chunk(b"fmt ", FMT16), chunk(b"data", PCM16 + b"\x01")),
}
# malformed files: each ends in AudioFormatError, and detect exits 2
MALFORMED_WAVS = {
    "truncated fmt chunk": riff(chunk(b"fmt ", FMT16[:12]), chunk(b"data", PCM16)),
    "odd-sized fmt chunk": riff(chunk(b"fmt ", FMT16[:15]), chunk(b"data", PCM16)),
    "fmt chunk cut by the end of the file": riff(chunk(b"data", PCM16),
                                                 chunk(b"fmt ", FMT16))[:-6],
    "odd-sized chunk without its pad byte": riff(chunk(b"LIST", b"abc")[:-1],
                                                 chunk(b"fmt ", FMT16), chunk(b"data", PCM16)),
    "data before fmt, sized past the end": riff(chunk(b"data", PCM16, size=len(PCM16) + 999),
                                                chunk(b"fmt ", FMT16)),
    "float NaN": wav_bytes(np.array([0.0, np.nan, 0.5]), 44100, bits=32, fmt_tag=3),
    "float +inf": wav_bytes(np.array([0.0, 0.5, np.inf]), 44100, bits=32, fmt_tag=3),
    "float -inf": wav_bytes(np.array([-np.inf, 0.5, 0.0]), 44100, bits=32, fmt_tag=3),
}


@pytest.mark.parametrize("case", sorted(WELL_FORMED_WAVS))
def test_chunk_order_and_padding_load_the_same_samples(tmp_path, case):
    usual, other = tmp_path / "usual.wav", tmp_path / "other.wav"
    usual.write_bytes(riff(chunk(b"fmt ", FMT16), chunk(b"data", PCM16)))
    other.write_bytes(WELL_FORMED_WAVS[case])
    assert load_audio(other).samples.tobytes() == load_audio(usual).samples.tobytes()


@pytest.mark.filterwarnings("error")  # one error line: no numpy warning before it
@pytest.mark.parametrize("case", sorted(MALFORMED_WAVS))
def test_malformed_wav_is_an_audio_format_error(tmp_path, capsys, case):
    wav = tmp_path / "bad.wav"
    wav.write_bytes(MALFORMED_WAVS[case])
    with pytest.raises(AudioFormatError):
        load_audio(wav)
    model = tmp_path / "m.model"
    save_model(build_model("tcn_v1", seed=0), model)
    assert main(["detect", str(model), str(wav), "--out", str(tmp_path / "a.onsets")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_resample_rejects_zero_rate(tmp_path):
    p = tmp_path / "z.wav"
    p.write_bytes(wav_bytes(np.zeros(10), 0, bits=32, fmt_tag=3))
    with pytest.raises(AudioFormatError, match="sample rate"):
        load_audio(p)


@st.composite
def riff_files(draw):
    """RIFF/WAVE files, mostly well-formed, with arbitrary fmt fields, chunk
    sizes and payloads."""
    fmt_tag, bits = draw(st.sampled_from(
        [(1, 16), (1, 24), (3, 32), (0xFFFE, 16), (0xFFFE, 32), (1, 8), (2, 16), (3, 64)]))
    rate = draw(st.sampled_from([44100, 48000, 22050, 1, 0]))
    fmt = struct.pack("<HHIIHH", fmt_tag, draw(st.sampled_from([1, 2, 0, 3])), rate, 0, 0, bits)
    if fmt_tag == 0xFFFE:  # cbSize, valid bits, channel mask, sub-format GUID
        fmt += struct.pack("<HHIH", 22, bits, 0, draw(st.sampled_from([1, 3, 2])))
        fmt += bytes(14)
    fmt += draw(st.binary(max_size=4))
    fmt = fmt[: draw(st.one_of(st.just(len(fmt)), st.integers(0, len(fmt))))]
    chunks = [(b"fmt ", fmt), (b"data", draw(st.binary(max_size=64)))]
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, 2)), (b"LIST", draw(st.binary(max_size=9))))
    body = b"WAVE"
    for cid, payload in chunks:
        size = len(payload) + draw(st.sampled_from([0, 0, 0, 1, -1, 1000]))
        body += cid + struct.pack("<I", max(size, 0)) + payload + b"\x00" * (len(payload) & 1)
    data = b"RIFF" + struct.pack("<I", len(body)) + body
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.one_of(st.binary(max_size=80), riff_files()))
def test_load_audio_returns_or_raises_typed_error(scratch, data):
    p = scratch / "any.wav"
    p.write_bytes(data)
    try:
        clip = load_audio(p)
    except OnsetKitError:
        return
    assert clip.sample_rate == 44100 and clip.samples.size > 0
    assert np.all(np.abs(clip.samples) <= 1.0)


annotation_text = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["# comment", "", "  ", "1e999", "-0.0", "0x10", "1_0", "\x0c"]),
        st.text(max_size=8),
    ),
    max_size=8,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=80), annotation_text))
def test_load_annotations_returns_or_raises_typed_error(scratch, data):
    p = scratch / "any.onsets"
    p.write_bytes(data)
    try:
        ann = load_annotations(p)
    except OnsetKitError:
        return
    assert np.all(np.isfinite(ann.times)) and np.all(np.diff(ann.times) > 0)
    assert not ann.times.size or ann.times[0] >= 0


def test_annotations_not_utf8(tmp_path):
    p = tmp_path / "latin1.onsets"
    p.write_bytes("# caf\xe9\n0.5\n".encode("latin-1"))
    with pytest.raises(AnnotationError, match="not UTF-8"):
        load_annotations(p)


def test_annotations_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    # times on a 0.1 ms grid, gaps kept above the 1 ms dedup threshold
    gaps = rng.integers(11, 3000, size=100)
    times = np.cumsum(gaps) / 10000.0
    ann = OnsetAnnotations(times=times)
    p = tmp_path / "a.onsets"
    save_annotations(ann, p)
    back = load_annotations(p)
    assert len(back) == 100
    assert np.max(np.abs(back.times - ann.times)) < 1e-9


def test_annotations_sorted_and_deduped():
    ann = OnsetAnnotations(times=[2.0, 0.5, 0.5004, 1.0])
    assert np.allclose(ann.times, [0.5, 1.0, 2.0])


def test_annotations_comments_and_errors(tmp_path):
    p = tmp_path / "a.onsets"
    p.write_text("# header\n0.5\n\n1.25\n# trailing\n")
    ann = load_annotations(p)
    assert np.allclose(ann.times, [0.5, 1.25])

    bad = tmp_path / "bad.onsets"
    bad.write_text("0.5\nhello\n")
    with pytest.raises(AnnotationError, match="2"):
        load_annotations(bad)

    neg = tmp_path / "neg.onsets"
    neg.write_text("-0.5\n")
    with pytest.raises(AnnotationError):
        load_annotations(neg)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_annotations_reject_non_finite_times(tmp_path, bad):
    p = tmp_path / "nf.onsets"
    p.write_text(f"0.5\n{bad}\n1.0\n")
    with pytest.raises(AnnotationError, match=r"nf\.onsets:2: non-finite"):
        load_annotations(p)


def test_empty_annotations(tmp_path):
    p = tmp_path / "e.onsets"
    p.write_text("# nothing\n")
    ann = load_annotations(p)
    assert len(ann) == 0
    save_annotations(ann, tmp_path / "out.onsets")
    assert (tmp_path / "out.onsets").read_text() == ""
