import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsetkit import synth
from onsetkit.audio import (
    TARGET_RATE,
    AudioClip,
    OnsetAnnotations,
    load_annotations,
    load_audio,
)
from onsetkit.cli import main
from onsetkit.errors import ConfigError, DataError, OnsetKitError
from onsetkit.features import extract_features
from onsetkit.models import build_model, save_model
from onsetkit.synth import (
    CorpusSpec,
    FilePair,
    InstrumentProfile,
    _synthesize,
    default_instruments,
    file_seed,
    generate_corpus,
    load_manifest,
    make_profile,
    render_file,
)
from onsetkit.training import make_targets


def render_hits(profile, times, duration, seed):
    """Render explicit hit times; annotations are the sample-aligned times."""
    return _synthesize(profile, np.asarray(times, dtype=np.float64),
                       int(round(duration * TARGET_RATE)), np.random.default_rng(seed))


def tone_profile(**kw):
    base = dict(name="t", role="voicing", decay_span=(100.0, 100.0),
                spectral_mode="damped-tone", center_freq=440.0,
                onset_density=8.9, amplitude_jitter=0.0)
    base.update(kw)
    return InstrumentProfile(**base)


def test_profile_validation():
    with pytest.raises(ConfigError):
        tone_profile(role="lead")
    with pytest.raises(ConfigError):
        tone_profile(spectral_mode="fm")
    with pytest.raises(ConfigError):
        tone_profile(decay_span=(30.0, 100.0))
    with pytest.raises(ConfigError):
        tone_profile(decay_span=(100.0, 500.0))
    with pytest.raises(ConfigError):
        tone_profile(center_freq=0.0)
    with pytest.raises(ConfigError):
        tone_profile(name="bad name")
    with pytest.raises(ConfigError):
        CorpusSpec((tone_profile(),), files_per_instrument=1)
    with pytest.raises(ConfigError):
        CorpusSpec((tone_profile(),), tempo=120.0)
    with pytest.raises(ConfigError):
        CorpusSpec((tone_profile(), tone_profile()))  # duplicate names
    for bad in (dict(onset_density=np.nan), dict(onset_density=np.inf),
                dict(amplitude_jitter=np.nan), dict(attack_ms=np.nan), dict(attack_ms=np.inf),
                dict(center_freq=np.nan), dict(center_freq=np.inf)):
        with pytest.raises(ConfigError):
            tone_profile(**bad)
    for bad in (dict(file_duration=np.nan), dict(file_duration=np.inf), dict(seed=np.nan),
                dict(files_per_instrument=np.nan)):
        with pytest.raises(ConfigError):
            CorpusSpec((tone_profile(),), **bad)
    for duration, tempo in ((np.nan, 180.0), (5.0, 120.0)):  # CorpusSpec's ranges
        with pytest.raises(ConfigError):
            render_file(tone_profile(), duration, tempo, 0)


def test_a_file_duration_a_16_bit_wav_cannot_hold_is_refused(tmp_path, capsys):
    # the RIFF size, 36 bytes of header and 2 a sample, must fit in 32 bits
    assert 36 + 2 * round(48695 * TARGET_RATE) <= 2**32 - 1 < 36 + 2 * round(48696 * TARGET_RATE)
    for duration in (5.0, 48695.0):
        assert CorpusSpec((tone_profile(),), file_duration=duration).file_duration == duration
    for bad in (np.nextafter(5.0, 0.0), np.nextafter(48695.0, np.inf), 48696.0, 1e9):
        with pytest.raises(ConfigError, match="file_duration"):
            CorpusSpec((tone_profile(),), file_duration=bad)
        with pytest.raises(ConfigError, match="file_duration"):
            render_file(tone_profile(), bad, 180.0, 0)
    assert main(["synth", "--out", str(tmp_path / "c"), "--duration", "1e9"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: file_duration"), err
    assert not (tmp_path / "c").exists()


def test_make_profile_deterministic():
    a = make_profile("foo", "voicing", 7)
    b = make_profile("foo", "voicing", 7)
    assert a == b
    c = make_profile("foo", "voicing", 8)
    assert a != c
    with pytest.raises(ConfigError):
        make_profile("foo", "melody", 7)


def test_make_profile_role_statistics():
    for seed in range(6):
        tk = make_profile("a", "time-keeping", seed)
        vo = make_profile("b", "voicing", seed)
        assert abs(tk.onset_density - 2.5) <= 0.5
        assert abs(vo.onset_density - 8.9) <= 1.78
        for p in (tk, vo):
            lo, hi = p.decay_span
            assert 50.0 <= lo <= hi <= 450.0
        assert tk.role == "time-keeping" and vo.role == "voicing"


def test_time_keeping_hits_on_beat_grid():
    prof = make_profile("keeper", "time-keeping", 3)
    _, ann = render_file(prof, 30.0, 165.0, 11)
    times = ann.times
    assert len(times) >= 40
    beat = 60.0 / 165.0
    iois = np.diff(times)
    # median inter-onset interval sits on one beat
    assert abs(np.median(iois) - beat) <= 0.005
    # every interval is a whole number of beats (sample rounding aside)
    assert np.all(np.abs(iois / beat - np.round(iois / beat)) < 0.005)
    density = len(times) / 30.0
    assert abs(density - 2.5) <= 0.5 + 0.35  # +-20% target, finite-file slack


def test_voicing_hits_fill_16th_grid():
    prof = make_profile("filler", "voicing", 4)
    _, ann = render_file(prof, 30.0, 180.0, 12)
    times = ann.times
    # expected roughly 267 hits, +-20% plus finite-file slack
    assert 190 <= len(times) <= 330
    step = 60.0 / 180.0 / 4.0
    iois = np.diff(times)
    assert np.min(iois) >= step - 0.011  # jitter can shrink a slot by <= 2x5ms
    # intervals cluster on multiples of the 16th grid up to jitter
    frac = np.abs(iois / step - np.round(iois / step)) * step
    assert np.max(frac) <= 0.0105


def test_render_zero_density_is_silent():
    prof = tone_profile(onset_density=0.0)
    clip, ann = render_file(prof, 5.0, 180.0, 0)
    assert len(ann) == 0
    assert np.all(clip.samples == 0.0)


def test_render_single_hit_position():
    prof = tone_profile(decay_span=(380.0, 380.0))
    clip, ann = render_hits(prof, [1.0], 5.0, 2)
    assert list(ann.times) == [int(round(1.0 * TARGET_RATE)) / TARGET_RATE]
    nz = np.where(np.abs(clip.samples) > 1e-4)[0]
    assert 0.998 * TARGET_RATE <= nz[0] <= 1.002 * TARGET_RATE
    # envelope decays: early window carries more energy than a later one
    s = clip.samples
    early = np.sqrt(np.mean(s[int(1.00 * TARGET_RATE):int(1.10 * TARGET_RATE)] ** 2))
    late = np.sqrt(np.mean(s[int(1.25 * TARGET_RATE):int(1.35 * TARGET_RATE)] ** 2))
    assert early > 2.0 * late
    assert np.max(np.abs(s)) <= 1.0


def test_rendered_hits_make_one_target_frame_each():
    prof = make_profile("filler", "voicing", 9)
    clip, ann = render_file(prof, 6.0, 180.0, 21)
    feats = extract_features(clip)
    targets = make_targets(ann, feats.n_frames)
    assert int(np.sum(targets == 1.0)) == len(ann)


# The synthesis formulas as they read before _synthesize shared its per-file
# arrays: every hit builds its own time axis, ramp and partial phases in new
# arrays. The oracle tests below pin render_file to these bytes.
def _reference_tone(freq, ratios, t, rng):
    nyq_guard = 0.45 * TARGET_RATE
    out = np.zeros(t.size)
    norm = 0.0
    for k, r in enumerate(ratios):
        f = freq * r
        if f >= nyq_guard:
            continue
        a = 1.0 / (1.0 + k)
        out += a * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        norm += a
    return out / norm if norm > 0 else out


def _reference_carrier(profile, n, rng):
    t = np.arange(n) / TARGET_RATE
    if profile.spectral_mode == "noise-burst":
        return 0.5 * rng.standard_normal(n)
    if profile.spectral_mode == "damped-tone":
        return _reference_tone(profile.center_freq, profile.partial_ratios, t, rng)
    tone = _reference_tone(profile.center_freq, profile.partial_ratios, t, rng)
    return 0.65 * tone + 0.35 * 0.5 * rng.standard_normal(n)


def _reference_synthesize(profile, times, n_samples, rng):
    times = np.asarray(times, dtype=np.float64)
    x = np.zeros(n_samples)
    n_hits = times.size
    spans_ms = rng.uniform(profile.decay_span[0], profile.decay_span[1], n_hits)
    amps = np.exp(rng.normal(0.0, profile.amplitude_jitter, n_hits))
    n_attack = max(1, int(round(profile.attack_ms * TARGET_RATE / 1000.0)))
    exact = []
    for i in range(n_hits):
        s0 = int(round(times[i] * TARGET_RATE))
        n_env = int(round(spans_ms[i] / 1000.0 * TARGET_RATE))
        m = min(n_env, n_samples - s0)
        if m <= 0:
            continue
        tau = spans_ms[i] / 1000.0 / synth._DECAY_TAU_DIV
        tt = np.arange(m) / TARGET_RATE
        env = np.exp(-tt / tau) * np.minimum(1.0, np.arange(1, m + 1) / n_attack)
        x[s0:s0 + m] += amps[i] * env * _reference_carrier(profile, m, rng)
        exact.append(s0 / TARGET_RATE)
    peak = np.max(np.abs(x)) if n_samples else 0.0
    if peak > 0:
        x *= 0.9 / peak
    return AudioClip(x, TARGET_RATE), OnsetAnnotations(np.asarray(exact))


def _reference_render(profile, duration, tempo, seed):
    rng = np.random.default_rng(seed)
    hit_times = synth._beat_times if profile.role == "time-keeping" else synth._pattern_times
    times = hit_times(duration, tempo, profile.onset_density, rng)
    return _reference_synthesize(profile, times, int(round(duration * TARGET_RATE)), rng)


def _assert_same_bytes(clip, ann, reference):
    ref_clip, ref_ann = reference
    assert clip.samples.tobytes() == ref_clip.samples.tobytes()
    assert ann.times.tobytes() == ref_ann.times.tobytes()


def _one_profile_per_mode():
    """make_profile's first draw of each spectral mode, time-keeping first."""
    found = {}
    for seed in range(100):
        for role in synth.ROLES:
            p = make_profile(f"p{seed}", role, seed)
            found.setdefault(p.spectral_mode, p)
    assert set(found) == set(synth.SPECTRAL_MODES)
    return [found[mode] for mode in synth.SPECTRAL_MODES]


GUARD = 0.45 * TARGET_RATE
ORACLE_PROFILES = {
    **{f"default {p.name}": p for p in default_instruments()},
    **{f"make_profile {p.spectral_mode}": p for p in _one_profile_per_mode()},
    # 6615 * 3 is the guard itself, and 7000 * 3 lies above it: both are skipped
    "partial at the guard": tone_profile(center_freq=GUARD / 3, partial_ratios=(1.0, 3.0)),
    "partial above the guard": tone_profile(center_freq=7000.0, spectral_mode="mixed"),
    "every partial above the guard, tone": tone_profile(center_freq=GUARD),
    "every partial above the guard, mixed": tone_profile(center_freq=GUARD,
                                                         spectral_mode="mixed"),
    "zero density, voicing": tone_profile(onset_density=0.0),
    "zero density, time-keeping": tone_profile(role="time-keeping", onset_density=0.0),
    "attack longer than the span": tone_profile(attack_ms=500.0, spectral_mode="mixed"),
    # at seeds 1 and 2 the last hit's span runs past the end of the file
    "time-keeping spans past the file end": tone_profile(role="time-keeping", decay_span=(440.0, 450.0),
                                            onset_density=2.5, amplitude_jitter=0.1),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", list(ORACLE_PROFILES))
def test_render_file_matches_the_per_hit_formulas(case, seed):
    profile = ORACLE_PROFILES[case]
    clip, ann = render_file(profile, 10.0, 180.0, file_seed(seed, profile.name, 1))
    _assert_same_bytes(clip, ann, _reference_render(profile, 10.0, 180.0,
                                                    file_seed(seed, profile.name, 1)))


@pytest.mark.parametrize("mode", synth.SPECTRAL_MODES)
def test_hits_cut_by_the_file_end_match_the_per_hit_formulas(mode):
    # spans of 440-450 ms from hits 400 ms, one sample and zero samples
    # before the end; the last is one sample long, the first runs 40 ms past
    profile = tone_profile(spectral_mode=mode, decay_span=(440.0, 450.0),
                           amplitude_jitter=0.1, attack_ms=30.0)
    n = 5 * TARGET_RATE
    times = np.array([0.0, 2.5, (n - 0.4 * TARGET_RATE) / TARGET_RATE,
                      (n - 2) / TARGET_RATE, (n - 1) / TARGET_RATE])
    clip, ann = _synthesize(profile, times, n, np.random.default_rng(3))
    _assert_same_bytes(clip, ann, _reference_synthesize(profile, times, n,
                                                        np.random.default_rng(3)))


def test_corpus_layout_and_manifest(tmp_path):
    spec = CorpusSpec((make_profile("alpha", "time-keeping", 0),
                       make_profile("beta", "voicing", 0)),
                      files_per_instrument=2, file_duration=5.0, tempo=180.0, seed=5)
    manifest = generate_corpus(spec, tmp_path / "c")
    wavs = sorted(p.name for p in (tmp_path / "c").glob("*.wav"))
    assert wavs == ["alpha_01.wav", "alpha_02.wav", "beta_01.wav", "beta_02.wav"]
    assert len(list((tmp_path / "c").glob("*.onsets"))) == 4
    meta, entries = load_manifest(manifest)
    assert meta["seed"] == 5 and meta["instruments"] == ("alpha", "beta")
    assert len(entries) == 4
    for e in entries:
        assert e.wav.exists() and e.wav.parent == tmp_path / "c"
        assert e.onsets.exists() and e.onsets.parent == tmp_path / "c"
    # overwrite refused without force, allowed with it
    with pytest.raises(FileExistsError):
        generate_corpus(spec, tmp_path / "c")
    generate_corpus(spec, tmp_path / "c", force=True)


def test_corpus_bitwise_determinism(tmp_path):
    spec = CorpusSpec((make_profile("alpha", "time-keeping", 0),
                       make_profile("beta", "voicing", 0)),
                      files_per_instrument=2, file_duration=5.0, seed=9)
    m1 = generate_corpus(spec, tmp_path / "one", threads=1)
    m2 = generate_corpus(spec, tmp_path / "two", threads=3)
    assert m1.read_bytes() == m2.read_bytes()
    for p1 in sorted((tmp_path / "one").iterdir()):
        p2 = tmp_path / "two" / p1.name
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_corpus_round_trip_matches_render(tmp_path):
    spec = CorpusSpec((make_profile("gamma", "voicing", 1),),
                      files_per_instrument=2, file_duration=5.0, tempo=165.0, seed=3)
    generate_corpus(spec, tmp_path)
    clip, ann = render_file(spec.instruments[0], 5.0, 165.0, file_seed(3, "gamma", 1))
    stored = load_audio(tmp_path / "gamma_01.wav")
    # wav is 16-bit, so compare within one quantization step
    assert np.max(np.abs(stored.samples - clip.samples)) <= 1.0 / 32768.0
    stored_ann = load_annotations(tmp_path / "gamma_01.onsets")
    assert len(stored_ann) == len(ann)
    assert np.max(np.abs(stored_ann.times - ann.times)) <= 1e-4


def test_manifest_of_numpy_scalar_spec_round_trips(tmp_path):
    """A spec given numpy scalars writes plain numbers, which load_manifest reads back."""
    spec = CorpusSpec(default_instruments()[:1], files_per_instrument=np.int64(2),
                      file_duration=np.float64(5.0), tempo=np.float64(180.0), seed=np.int64(1))
    meta, pairs = load_manifest(generate_corpus(spec, tmp_path))
    assert [meta[k] for k in ("seed", "tempo", "file_duration", "files_per_instrument")] == [
        1, 180.0, 5.0, 2]
    assert "tempo 180.0\n" in (tmp_path / "manifest.txt").read_text()
    assert len(pairs) == 2
    assert type(CorpusSpec(spec.instruments, tempo=170).tempo) is int  # a Python number stays


def test_manifest_errors(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("not a manifest\n")
    with pytest.raises(DataError, match="not a corpus manifest"):
        load_manifest(p)
    p.write_text("onsetkit-corpus 1\nseed 1\nbogus x\n")
    with pytest.raises(DataError, match=r"m\.txt:3: expected the tempo line"):
        load_manifest(p)
    p.write_text("onsetkit-corpus 1\nseed 1\n")
    with pytest.raises(DataError, match=r"m\.txt:3: expected the tempo line"):
        load_manifest(p)  # the rest of the metadata is missing
    with pytest.raises(DataError, match="cannot read manifest"):
        load_manifest(tmp_path / "absent.txt")
    p.write_bytes(b"onsetkit-corpus 1\nseed 1\ninstruments caf\xe9\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_manifest(p)
    head = ("onsetkit-corpus 1\nseed 1\ntempo 180\nfile_duration 5\n"
            "files_per_instrument 2\ninstruments a\n")
    tag = zlib.crc32(b"a")
    p.write_text(head + f"file b_01 b 1 1-{zlib.crc32(b'b')}-1\nfile a_02 a 2 1-{tag}-2\n")
    with pytest.raises(DataError, match=rf"m\.txt:7: expected 'file a_01 a 1 1-{tag}-1'"):
        load_manifest(p)  # an instrument the instruments line does not name
    for second in (f"file a_01 a 1 1-{tag}-1", f"file a_1 a 1 1-{tag}-1"):  # listed twice
        p.write_text(head + f"file a_01 a 1 1-{tag}-1\n" + second + "\n")
        with pytest.raises(DataError, match=rf"m\.txt:8: expected 'file a_02 a 2 1-{tag}-2'"):
            load_manifest(p)
    p.write_text(head + f"file a_01 a 1 1-{tag}-1\nfile a_02 a 2 1-{tag}-2")
    with pytest.raises(DataError, match=r"m\.txt:8: no line feed at the end"):
        load_manifest(p)
    p.write_text(head.replace("2\n", "x\n"))
    with pytest.raises(DataError, match=r"m\.txt:5: invalid files_per_instrument 'x'"):
        load_manifest(p)
    # lines are numbered as in the file: blank lines count, and U+2028 ends no line
    p.write_text("onsetkit-corpus 1\n\n\nseed 1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"m\.txt:2: expected the seed line"):
        load_manifest(p)
    p.write_text("onsetkit-corpus 1\nseed 1\u2028tempo 180\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"m\.txt:2: invalid seed"):
        load_manifest(p)


@settings(max_examples=15, deadline=None)
@given(names=st.lists(st.from_regex(r"[a-z0-9_]{1,8}", fullmatch=True), min_size=1, max_size=3,
                      unique=True),
       files=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       tempo=st.sampled_from([165.0, 170, 180.0]))
def test_load_manifest_returns_the_writers_pairs(tmp_path_factory, names, files, seed, tempo):
    out = tmp_path_factory.mktemp("written")
    spec = CorpusSpec(tuple(make_profile(n, "time-keeping", 0) for n in names),
                      files_per_instrument=files, file_duration=5.0, tempo=tempo, seed=seed)
    manifest = generate_corpus(spec, out)
    meta, pairs = load_manifest(manifest)
    assert meta == {"seed": seed, "tempo": tempo, "file_duration": 5.0,
                    "files_per_instrument": files, "instruments": tuple(names)}
    assert pairs == [FilePair(n, i, out / f"{n}_{i:02d}.wav", out / f"{n}_{i:02d}.onsets")
                     for n in names for i in range(1, files + 1)]
    written = sorted(q.name for q in out.iterdir() if q != manifest)
    assert written == sorted(q.name for pair in pairs for q in (pair.wav, pair.onsets))


@pytest.fixture(scope="module")
def written_manifest(tmp_path_factory):
    """The manifest text of a two-instrument, two-file corpus, seed 4."""
    spec = CorpusSpec((make_profile("a", "voicing", 0), make_profile("b_2", "time-keeping", 0)),
                      files_per_instrument=2, file_duration=5.0, seed=4)
    return generate_corpus(spec, tmp_path_factory.mktemp("written")).read_text(encoding="utf-8")


def _swap_lines(text, i, j):
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


_A1 = f"file a_01 a 1 4-{zlib.crc32(b'a')}-1\n"
_B2 = f"file b_2_02 b_2 2 4-{zlib.crc32(b'b_2')}-2\n"


@pytest.mark.parametrize("edit", [
    lambda t: _swap_lines(t, 1, 2),
    lambda t: t.replace("instruments a,b_2\n", "instruments a,b_2\n\n"),
    lambda t: t + "\n",
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace(_B2, ""),
    lambda t: t.replace(_B2, _A1),
    lambda t: _swap_lines(t, 6, 7),
    lambda t: t.replace(_A1, _A1.replace("4-", "5-")),
    lambda t: t.replace(_A1, _A1.replace("file a_01", "file ../../outside")),
    lambda t: t.replace("b_2", "../x"),
    lambda t: t.replace("instruments a,b_2", "instruments a,a"),
    lambda t: t.replace("files_per_instrument 2", "files_per_instrument 1000000000"),
    lambda t: t.replace("file_duration 5.0", "file_duration nan"),
    lambda t: t.replace("file_duration 5.0", "file_duration 4.0"),
    lambda t: t.replace("tempo 180.0", "tempo 999.0"),
], ids=["metadata-reordered", "blank-line", "blank-last-line", "crlf", "file-dropped",
        "file-repeated", "files-reordered", "wrong-seed-tag", "file-outside-the-corpus",
        "instrument-outside-the-corpus", "instrument-repeated", "files-per-instrument-1e9",
        "file-duration-nan", "file-duration-4", "tempo-999"])
def test_manifests_generate_corpus_never_writes_are_rejected(written_manifest, tmp_path,
                                                            capsys, edit):
    text = edit(written_manifest)
    assert text != written_manifest
    (tmp_path / "manifest.txt").write_text(text, encoding="utf-8", newline="")
    with pytest.raises(DataError):
        load_manifest(tmp_path / "manifest.txt")
    save_model(build_model("tcn_v1", 0), tmp_path / "v1.model")
    assert main(["finetune", str(tmp_path / "v1.model"), str(tmp_path), "a",
                 "--out", str(tmp_path / "out.model")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out.model").exists()


def test_a_file_count_the_lines_cannot_hold_fails_before_any_pair_is_built(
        written_manifest, tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("pairs built for a manifest that cannot hold them")

    monkeypatch.setattr(synth, "_corpus_files", unreachable)
    p = tmp_path / "manifest.txt"
    p.write_text(written_manifest.replace("files_per_instrument 2",
                                          "files_per_instrument 1000000000"), encoding="utf-8")
    with pytest.raises(DataError, match="4 file lines for 2 instruments x 1000000000 files"):
        load_manifest(p)


_MANIFEST_KEYS = ["seed 1", "tempo 180", "file_duration 5", "files_per_instrument 2",
                  "instruments a,b"]
# the magic line, then (or not) every key a manifest needs, then anything
manifest_text = st.tuples(
    st.booleans(),
    st.booleans(),
    st.lists(
        st.one_of(
            st.sampled_from(_MANIFEST_KEYS + [
                "file a_01 a 1 1-2-1", "file c_01 c 1 1-2-1", "file a_01 a x 1", "file a_01",
                "seed x", "tempo nan", "bogus 1", "instruments", "", "  "]),
            st.text(max_size=12),
        ),
        max_size=10,
    ),
).map(lambda t: ["onsetkit-corpus 1"] * t[0] + _MANIFEST_KEYS * t[1] + t[2])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=80),
    manifest_text.map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
))
def test_load_manifest_returns_or_raises_typed_error(scratch, data):
    p = scratch / "manifest.txt"
    p.write_bytes(data)
    try:
        meta, entries = load_manifest(p)
    except OnsetKitError:
        return
    assert all(e.instrument in meta["instruments"] for e in entries)


def test_default_roster_shape():
    roster = default_instruments()
    assert len(roster) == 5
    roles = [p.role for p in roster]
    assert roles.count("time-keeping") == 2 and roles.count("voicing") == 3
    names = {p.name for p in roster}
    assert len(names) == 5
    # the held-out outlier rings long with a slow attack
    bell = next(p for p in roster if p.name == "ring_bell")
    assert bell.attack_ms >= 20.0 and bell.decay_span[0] >= 350.0
    assert any(abs(r - round(r)) > 0.1 for r in bell.partial_ratios)
