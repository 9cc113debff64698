"""Deterministic synthetic percussion corpora with exact onset ground truth.

Instruments come in two rhythmic roles: time-keeping instruments place hits
on the beat grid of a fixed tempo (~2.5 hits/s), voicing instruments fill a
16th-note grid with a seeded per-file pattern plus small timing jitter
(~8.9 hits/s).  Every hit is an exponentially decaying carrier (noise burst,
damped tone, or a mix) added to the clip at an exact sample position, and
that sample position is what lands in the annotation list, so the ground
truth is exact by construction.

All randomness flows through one numpy Generator per file, seeded from
(corpus seed, crc32(instrument name), file index), so corpus bytes are a
pure function of the spec and files can be rendered in any order or in
parallel without changing the output.
"""

from __future__ import annotations

import reprlib
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, OnsetAnnotations, TARGET_RATE, save_annotations, save_wav
from .errors import RANGES, ConfigError, DataError, check_fields, check_ranges, read_text

ROLES = ("time-keeping", "voicing")
SPECTRAL_MODES = ("noise-burst", "damped-tone", "mixed")

# role statistics the generators aim for (hits per second)
TIME_KEEPING_DENSITY = 2.5
VOICING_DENSITY = 8.9

MANIFEST_NAME = "manifest.txt"
MANIFEST_MAGIC = "onsetkit-corpus"
MANIFEST_VERSION = 1

# envelope span is the time it takes a hit to decay to exp(-5) ~ -43 dB
_DECAY_TAU_DIV = 5.0
_END_MARGIN = 0.1  # s kept free of hits at the end of a file


def _check_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ConfigError("instrument name must be alphanumeric/underscore: "
                          f"{reprlib.repr(name)}")


@dataclass(frozen=True)
class InstrumentProfile:
    """Acoustic and rhythmic description of one synthetic instrument."""

    name: str
    role: str
    decay_span: tuple[float, float]  # envelope span range in ms
    spectral_mode: str
    center_freq: float  # Hz, fundamental for tone modes; ignored for noise
    onset_density: float  # target hits per second
    amplitude_jitter: float  # relative std of per-hit amplitude
    partial_ratios: tuple[float, ...] = (1.0, 2.0, 3.0)
    attack_ms: float = 2.0

    def __post_init__(self):
        _check_name(self.name)
        if self.role not in ROLES:
            raise ConfigError(f"unknown role {reprlib.repr(self.role)}, expected one of {ROLES}")
        if self.spectral_mode not in SPECTRAL_MODES:
            raise ConfigError(f"unknown spectral mode {reprlib.repr(self.spectral_mode)}")
        lo, hi = self.decay_span
        if not (50.0 <= lo <= hi <= 450.0):
            raise ConfigError(f"decay span must satisfy 50 <= lo <= hi <= 450 ms, got {self.decay_span}")
        check_fields(self)
        if self.spectral_mode != "noise-burst" and not 0.0 < self.center_freq < np.inf:
            raise ConfigError("tone modes need a positive, finite center frequency")


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for a full corpus: instrument roster plus file layout."""

    instruments: tuple[InstrumentProfile, ...]
    files_per_instrument: int = 10
    file_duration: float = 30.0
    tempo: float = 180.0
    seed: int = 0

    def __post_init__(self):
        if not self.instruments:
            raise ConfigError("corpus needs at least one instrument")
        names = [p.name for p in self.instruments]
        if len(set(names)) != len(names):
            raise ConfigError("instrument names must be unique")
        check_fields(self)


def default_instruments() -> tuple[InstrumentProfile, ...]:
    """Standard five-piece roster: two time-keepers and three voicing parts.

    ring_bell is the deliberate outlier: a long inharmonic ring with a slow
    30 ms attack, unlike anything else in the roster.  Hold it out of
    pretraining to probe adaptation to out-of-distribution material.
    """
    return (
        InstrumentProfile("drone_tone", "time-keeping", (380.0, 420.0), "damped-tone",
                          660.0, TIME_KEEPING_DENSITY, 0.08),
        InstrumentProfile("ring_bell", "time-keeping", (390.0, 430.0), "damped-tone",
                          520.0, TIME_KEEPING_DENSITY, 0.08,
                          partial_ratios=(1.0, 2.76, 5.40, 8.93), attack_ms=30.0),
        InstrumentProfile("snap_noise", "voicing", (77.0, 107.0), "noise-burst",
                          0.0, VOICING_DENSITY, 0.12),
        InstrumentProfile("clack_mix", "voicing", (90.0, 180.0), "mixed",
                          1800.0, VOICING_DENSITY, 0.12),
        InstrumentProfile("thud_tone", "voicing", (120.0, 230.0), "damped-tone",
                          140.0, VOICING_DENSITY, 0.12),
    )


def default_corpus_spec(**fields) -> CorpusSpec:
    """The default roster with CorpusSpec's defaults for the fields not given."""
    return CorpusSpec(default_instruments(), **fields)


def make_profile(name: str, role: str, seed: int) -> InstrumentProfile:
    """Draw a deterministic role-typical profile from (name, role, seed); the
    profile checks the role, so the draw takes the str of any role."""
    _check_name(name)
    check_ranges(profile_seed=seed)
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode()), zlib.crc32(str(role).encode())])
    rng = np.random.default_rng(ss)
    if role == "time-keeping":
        density = TIME_KEEPING_DENSITY * (1.0 + rng.uniform(-0.1, 0.1))
        lo = rng.uniform(370.0, 400.0)
        hi = min(450.0, lo + rng.uniform(15.0, 30.0))
        mode = "damped-tone"
        freq = rng.uniform(300.0, 900.0)
        jitter = rng.uniform(0.05, 0.12)
    else:
        density = VOICING_DENSITY * (1.0 + rng.uniform(-0.1, 0.1))
        lo = rng.uniform(70.0, 160.0)
        hi = lo + rng.uniform(20.0, 70.0)
        mode = SPECTRAL_MODES[rng.integers(len(SPECTRAL_MODES))]
        freq = rng.uniform(120.0, 2000.0) if mode != "noise-burst" else 0.0
        jitter = rng.uniform(0.08, 0.16)
    return InstrumentProfile(name, role, (lo, hi), mode, freq, density, jitter)


def _beat_times(duration: float, tempo: float, density: float, rng) -> np.ndarray:
    """Beat-grid hit times: seeded phase, then a Bernoulli keep per beat."""
    beat = 60.0 / tempo
    phase = rng.uniform(0.2, 0.8) * beat
    grid = np.arange(phase, duration - _END_MARGIN, beat)
    keep = rng.random(grid.size) < min(1.0, density * beat)
    return grid[keep]


def _pattern_times(duration: float, tempo: float, density: float, rng) -> np.ndarray:
    """16th-grid hit times: one seeded bar pattern repeated, jitter <= 5 ms."""
    step = 60.0 / tempo / 4.0
    n_slots = 16
    phase = rng.uniform(0.02, 0.06)
    n_keep = int(round(n_slots * min(1.0, density * step)))
    if n_keep == 0:
        return np.zeros(0)
    slots = np.sort(rng.choice(n_slots, size=n_keep, replace=False))
    bar = n_slots * step
    chunks = []
    start = phase
    while start < duration - _END_MARGIN:
        chunks.append(start + slots * step + rng.uniform(-0.005, 0.005, n_keep))
        start += bar
    t = np.concatenate(chunks)
    return np.sort(t[(t >= 0.0) & (t <= duration - _END_MARGIN)])


def _partial_phases(profile: InstrumentProfile, t: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(amplitude, 2*pi*f*t) of each partial below 0.45 * rate; none for noise."""
    if profile.spectral_mode == "noise-burst":
        return []
    nyq_guard = 0.45 * TARGET_RATE
    partials = []
    for k, r in enumerate(profile.partial_ratios):
        f = profile.center_freq * r
        if f < nyq_guard:
            partials.append((1.0 / (1.0 + k), 2.0 * np.pi * f * t))
    return partials


def _carrier(profile: InstrumentProfile, partials, out: np.ndarray, scratch: np.ndarray,
             rng) -> None:
    """One hit's carrier into out: unit partials at seeded phases, normalized
    by their amplitude sum, and/or noise; scratch is a buffer as long as out."""
    if profile.spectral_mode == "noise-burst":
        rng.standard_normal(out=out)
        out *= 0.5
        return
    out.fill(0.0)
    norm = 0.0
    for a, phase in partials:
        np.add(phase[:out.size], rng.uniform(0.0, 2.0 * np.pi), out=scratch)
        np.sin(scratch, out=scratch)
        scratch *= a
        out += scratch
        norm += a
    if norm > 0:
        out /= norm
    if profile.spectral_mode == "mixed":
        out *= 0.65
        rng.standard_normal(out=scratch)
        scratch *= 0.35 * 0.5
        out += scratch


def _synthesize(profile: InstrumentProfile, times: np.ndarray, n_samples: int,
                rng) -> tuple[AudioClip, OnsetAnnotations]:
    times = np.asarray(times, dtype=np.float64)
    x = np.zeros(n_samples)
    n_hits = times.size
    spans_ms = rng.uniform(profile.decay_span[0], profile.decay_span[1], n_hits)
    amps = np.exp(rng.normal(0.0, profile.amplitude_jitter, n_hits))
    n_attack = max(1, int(round(profile.attack_ms * TARGET_RATE / 1000.0)))
    n_envs = [int(round(span / 1000.0 * TARGET_RATE)) for span in spans_ms]
    # the time axis, attack ramp and partial phases of the longest hit; each
    # hit reads its first m samples, which equal the arrays of a length-m hit
    n_max = min(n_samples, max(n_envs, default=0))
    t = np.arange(n_max) / TARGET_RATE
    neg_t, ramp = -t, np.minimum(1.0, np.arange(1, n_max + 1) / n_attack)
    partials = _partial_phases(profile, t)
    env_buf, carrier_buf, scratch_buf = np.empty((3, n_max))
    exact = []
    for i in range(n_hits):
        s0 = int(round(times[i] * TARGET_RATE))
        if not (0 <= s0 < n_samples):
            raise ConfigError(f"hit at {times[i]:.4f} s falls outside the clip")
        m = min(n_envs[i], n_samples - s0)
        tau = spans_ms[i] / 1000.0 / _DECAY_TAU_DIV
        env, carrier = env_buf[:m], carrier_buf[:m]
        np.divide(neg_t[:m], tau, out=env)
        np.exp(env, out=env)
        env *= ramp[:m]
        env *= amps[i]
        _carrier(profile, partials, carrier, scratch_buf[:m], rng)
        env *= carrier
        x[s0:s0 + m] += env
        exact.append(s0 / TARGET_RATE)
    peak = max(x.max(), -x.min()) if n_samples else 0.0  # max |x| without an |x| array
    if peak > 0:
        x *= 0.9 / peak
    return AudioClip(x, TARGET_RATE), OnsetAnnotations(np.asarray(exact))


def render_file(profile: InstrumentProfile, duration: float, tempo: float,
                seed) -> tuple[AudioClip, OnsetAnnotations]:
    """Render one file of role-appropriate hits with exact annotations."""
    check_ranges(file_duration=duration, tempo=tempo)
    rng = np.random.default_rng(seed)
    if profile.role == "time-keeping":
        times = _beat_times(duration, tempo, profile.onset_density, rng)
    else:
        times = _pattern_times(duration, tempo, profile.onset_density, rng)
    return _synthesize(profile, times, int(round(duration * TARGET_RATE)), rng)


@dataclass(frozen=True)
class FilePair:
    """One audio file with its annotation file."""

    instrument: str
    index: int
    wav: Path
    onsets: Path


def file_seed(corpus_seed: int, instrument: str, index: int) -> np.random.SeedSequence:
    """Per-file rng stream; render order can never change the output."""
    return np.random.SeedSequence([corpus_seed, zlib.crc32(instrument.encode()), index])


def _roster(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    for name in names:
        _check_name(name)
    if len(set(names)) < len(names):
        raise ConfigError("instrument names must be unique")
    return names


# a manifest's metadata lines in written order, each with the parser of its value
_MANIFEST_FIELDS = {"seed": int, "tempo": float, "file_duration": float,
                    "files_per_instrument": int, "instruments": _roster}


def _corpus_files(directory: Path, names, files_per_instrument: int,
                  seed: int) -> tuple[list[FilePair], list[str]]:
    """A corpus's file pairs and the manifest's file lines for them, in written order."""
    pairs = [FilePair(name, i, directory / f"{name}_{i:02d}.wav",
                      directory / f"{name}_{i:02d}.onsets")
             for name in names for i in range(1, files_per_instrument + 1)]
    return pairs, [f"file {p.wav.stem} {p.instrument} {p.index} "
                   f"{seed}-{zlib.crc32(p.instrument.encode())}-{p.index}" for p in pairs]


def generate_corpus(spec: CorpusSpec, out_dir, force: bool = False, threads: int = 1) -> Path:
    """Write WAV + .onsets pairs plus a manifest; returns the manifest path.

    Refuses to overwrite existing corpus files unless force is set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profiles = {p.name: p for p in spec.instruments}
    pairs, file_lines = _corpus_files(out, profiles, spec.files_per_instrument, spec.seed)
    if not force:
        for path in [out / MANIFEST_NAME] + [q for pair in pairs for q in (pair.wav, pair.onsets)]:
            if path.exists():
                raise FileExistsError(f"{path} exists; pass force to overwrite")

    def render_one(pair):
        clip, ann = render_file(profiles[pair.instrument], spec.file_duration, spec.tempo,
                                file_seed(spec.seed, pair.instrument, pair.index))
        save_wav(clip, pair.wav)
        save_annotations(ann, pair.onsets)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(render_one, pairs))
    else:
        list(map(render_one, pairs))

    values = (spec.seed, repr(spec.tempo), repr(spec.file_duration), spec.files_per_instrument,
              ",".join(profiles))
    lines = [f"{MANIFEST_MAGIC} {MANIFEST_VERSION}",
             *(f"{key} {value}" for key, value in zip(_MANIFEST_FIELDS, values)), *file_lines]
    manifest = out / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return manifest


def load_manifest(path) -> tuple[dict, list[FilePair]]:
    """Parse a corpus manifest into (metadata dict, file pairs), the files
    lying beside the manifest. The file must be exactly what generate_corpus
    writes: the magic line, the metadata lines in written order, then the
    file line of every instrument and index; anything else is a DataError."""
    path = Path(path)
    lines = read_text(path, "manifest").split("\n")
    if lines[0] != f"{MANIFEST_MAGIC} {MANIFEST_VERSION}":
        raise DataError(f"{path}: not a corpus manifest")
    if lines[-1]:
        raise DataError(f"{path}:{len(lines)}: no line feed at the end")
    meta = {}
    for no, (key, parse) in enumerate(_MANIFEST_FIELDS.items(), start=2):
        label, _, value = (lines[no - 1] if no <= len(lines) else "").partition(" ")
        if label != key:
            raise DataError(f"{path}:{no}: expected the {key} line")
        try:
            meta[key] = parse(value)
            check_ranges(**{key: meta[key]} if key in RANGES else {})
        except (ValueError, ConfigError) as e:
            raise DataError(f"{path}:{no}: invalid {key} {reprlib.repr(value)}") from e
    names, per = meta["instruments"], meta["files_per_instrument"]
    if len(lines) - 7 != len(names) * per:  # 6 metadata lines and the empty tail
        raise DataError(f"{path}: {len(lines) - 7} file lines for {len(names)} instruments "
                        f"x {per} files")
    pairs, file_lines = _corpus_files(path.parent, names, per, meta["seed"])
    for no, (line, written) in enumerate(zip(lines[6:-1], file_lines), start=7):
        if line != written:
            raise DataError(f"{path}:{no}: expected {reprlib.repr(written)}, "
                            f"got {reprlib.repr(line)}")
    return meta, pairs
