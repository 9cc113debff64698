"""Experimental protocol: snippet holdout, fine-tuning cycles, grids, reports.

A cycle adapts a pretrained base model to one instrument with one freeze
configuration, always fine-tuning on a single 5 s snippet cut from the
instrument's first file, and always excluding that file from evaluation.
A grid runs every (model, instrument, freeze) combination, journals rows
as they finish, and writes a fixed-column CSV plus a Markdown summary of
the best configuration per (model, instrument).

Datasets come either from a synthetic corpus directory (manifest.txt) or
from a real recording layout <root>/<Instrument>/<Instrument>_<nn>.wav with
matching .onsets files, where file index 34 is skipped when present (one
known-corrupt recording in the layout this mirrors).
"""

from __future__ import annotations

import csv
import io
import json
import time
import zlib
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .audio import AudioClip, OnsetAnnotations, load_annotations, load_audio
from .errors import ConfigError, DataError, OnsetKitError, SnippetError
from .evaluate import EvalResult, PeakPickParams, aggregate, delta_pp, match_onsets, peak_pick
from .features import extract_features
from .models import (
    LAYER_NAMES,
    VARIANTS,
    FreezeConfig,
    Model,
    build_model,
    canonical_freeze_ids,
    load_model,
)
from .synth import MANIFEST_NAME, CorpusSpec, InstrumentProfile, generate_corpus, load_manifest, make_profile
from .training import FinetuneConfig, check_schedule, finetune, make_targets, train

RESULTS_FORMAT_LINE = "# results-format: 1"  # a results file's first line
CSV_COLUMNS = ("model", "instrument", "freeze_id", "mean_f1", "baseline_f1",
               "delta_pp", "n_files", "seed", "wall_s", "per_file_f1")
EXCLUDED_REAL_INDEX = 34
SNIPPET_OFFSET_GRID = 0.1  # s, scan step for the default snippet offset


@dataclass(frozen=True)
class FilePair:
    """One audio file with its annotation file."""

    instrument: str
    index: int
    wav: Path
    onsets: Path


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a grid run needs; mirrors the JSON config file 1:1."""

    corpus: str | Path | CorpusSpec
    base_models: dict = field(default_factory=dict)  # variant -> model path
    models: tuple = tuple(VARIANTS)
    instruments: tuple | None = None  # None = every instrument in the corpus
    freeze_configs: tuple = tuple(canonical_freeze_ids())
    snippet_offset: float | None = None  # None = earliest annotated window
    snippet_duration: float = 5.0
    epochs: int = 50
    lr_scale: float = 0.25
    base_lr: float = 1e-3
    dropout_active: bool = True
    peak_pick: PeakPickParams = PeakPickParams()
    tolerance: float = 0.025
    seed: int = 0
    out_dir: str | Path = "results"

    def __post_init__(self):
        for m in self.models:
            if m not in VARIANTS:
                raise ConfigError(f"unknown model variant {m!r}")
        if not self.models:
            raise ConfigError("need at least one model variant")
        for fid in self.freeze_configs:
            FreezeConfig.from_id(fid)
        # each range check is written so that NaN and infinity fail it
        if not 0.0 < self.snippet_duration < np.inf:
            raise ConfigError(f"snippet duration must be > 0 s, got {self.snippet_duration}")
        if self.snippet_offset is not None and not 0.0 <= self.snippet_offset < np.inf:
            raise ConfigError(f"snippet offset must be >= 0 s, got {self.snippet_offset}")
        if not 0.0 < self.tolerance < np.inf:
            raise ConfigError(f"tolerance must be > 0 s, got {self.tolerance}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        check_schedule(self.epochs, self.lr_scale, self.base_lr)


@dataclass(frozen=True)
class ResultRow:
    """One fine-tuning cycle: adapted scores against the unadapted baseline."""

    model: str
    instrument: str
    freeze_id: str
    mean_f1: float
    baseline_f1: float
    delta_pp: float
    n_files: int
    seed: int
    wall_s: float
    per_file_f1: tuple

    def __post_init__(self):
        if not 0.0 <= self.mean_f1 <= 1.0:
            raise ConfigError(f"mean F1 out of range: {self.mean_f1}")
        if abs(self.delta_pp - (self.mean_f1 - self.baseline_f1) * 100.0) > 1e-9:
            raise ConfigError("delta_pp does not match mean - baseline")
        if self.n_files != len(self.per_file_f1):
            raise ConfigError("n_files does not match per-file list")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in CSV_COLUMNS}
        d["per_file_f1"] = list(self.per_file_f1)
        return d


def load_dataset(root) -> dict:
    """Map instrument -> file pairs, sorted by index.

    A directory containing manifest.txt is read as a synthetic corpus;
    otherwise each subdirectory is an instrument holding
    <name>_<nn>.wav + <name>_<nn>.onsets pairs (index 34 skipped).
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    out: dict = {}
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        meta, entries = load_manifest(manifest)
        out = {name: [] for name in meta["instruments"]}
        for e in entries:
            out[e.instrument].append(
                FilePair(e.instrument, e.index, e.wav_path(root), e.onsets_path(root)))
    else:
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            pairs = []
            for wav in sorted(sub.glob(f"{sub.name}_*.wav")):
                tail = wav.stem[len(sub.name) + 1:]
                if not tail.isdigit():
                    continue
                index = int(tail)
                if index == EXCLUDED_REAL_INDEX:
                    continue
                onsets = wav.with_suffix(".onsets")
                if not onsets.exists():
                    raise DataError(f"missing annotations for {wav}")
                pairs.append(FilePair(sub.name, index, wav, onsets))
            if pairs:
                out[sub.name] = pairs
        if not out:
            raise DataError(f"no instruments found under {root}")
    for name in out:
        out[name] = sorted(out[name], key=lambda p: p.index)
    return out


def extract_snippet(pairs, offset: float | None = None, duration: float = 5.0):
    """Cut the fine-tuning snippet from the instrument's first file.

    Returns (features, targets, held_out_index); the held-out index is the
    snippet source file, to be excluded from every evaluation list. With
    offset=None the earliest 0.1 s-grid offset whose window contains an
    annotation is used.
    """
    if not pairs:
        raise ConfigError("no files for snippet extraction")
    first = min(pairs, key=lambda p: p.index)
    clip = load_audio(first.wav)
    ann = load_annotations(first.onsets)
    total = len(clip.samples) / clip.sample_rate
    if total + 1e-9 < duration:
        raise ConfigError(f"{first.wav.name} is {total:.2f} s, shorter than the {duration} s snippet")

    def window(o):
        return ann.times[(ann.times >= o) & (ann.times < o + duration)]

    if offset is None:
        k = 0
        offset = 0.0
        while offset + duration <= total + 1e-9:
            if window(offset).size:
                break
            k += 1
            offset = k * SNIPPET_OFFSET_GRID
        else:
            raise SnippetError(f"no {duration} s window of {first.wav.name} contains an annotation")
    elif offset + duration > total + 1e-9:
        raise ConfigError(f"snippet [{offset}, {offset + duration}) s overruns the {total:.2f} s file")

    sel = window(offset)
    if not sel.size:
        raise SnippetError(
            f"no annotations in [{offset:.2f}, {offset + duration:.2f}) s of {first.wav.name}; "
            "pick a different offset")
    s0 = int(round(offset * clip.sample_rate))
    s1 = s0 + int(round(duration * clip.sample_rate))
    feats = extract_features(AudioClip(clip.samples[s0:s1], clip.sample_rate))
    targets = make_targets(OnsetAnnotations(sel - offset), feats.n_frames)
    return feats, targets, first.index


def _load_eval_file(pair: FilePair, cache: dict | None):
    key = str(pair.wav)
    if cache is not None and key in cache:
        return cache[key]
    feats = extract_features(load_audio(pair.wav))
    ann = load_annotations(pair.onsets)
    if cache is not None:
        cache[key] = (feats, ann)
    return feats, ann


def evaluate_model(model: Model, pairs, exclude_index: int | None,
                   params: PeakPickParams | None = None, tolerance: float = 0.025,
                   cache: dict | None = None, start: int = 0,
                   inputs: dict | None = None) -> EvalResult:
    """Run the model over every file except the held-out one and score it.

    With start > 0, inputs maps each file to the activation entering block
    start (see _conv3_inputs), and each forward begins there: exact
    when the model's blocks below start equal those of the model that made
    the activations.
    """
    counts, ids = [], []
    for pair in sorted(pairs, key=lambda p: p.index):
        if pair.index == exclude_index:
            continue
        feats, ref = _load_eval_file(pair, cache)
        act = model.forward(inputs[str(pair.wav)], start=start) if start else model.forward(feats)
        counts.append(match_onsets(peak_pick(act, params), ref, tolerance))
        ids.append(pair.index)
    if not counts:
        raise ConfigError("no evaluation files left after holdout")
    return aggregate(counts, ids)


# Scoring an adapted model that leaves Conv1 and Conv2 frozen (13 of the
# 15 canonical ids) starts at Conv3, from the base's activation entering
# it. Those two stages take most of an inference forward's time, and the
# activation entering Conv3 (8 or 5 bands) weighs a fraction of the one
# entering Conv2 (26 bands). Keeping one activation per freeze id's
# lowest trainable block as well would weigh about 4.4 MiB more per 30 s
# file to spare the small Conv3 and TCN forwards.
_SCORING_START = LAYER_NAMES.index("Conv3")


def _conv3_inputs(model: Model, pairs, exclude_index: int | None, cache: dict | None) -> dict:
    """{file: the model's inference activation entering Conv3} for every
    file except the held-out one; the arrays are read-only."""
    inputs = {}
    for pair in pairs:
        if pair.index == exclude_index:
            continue
        act = model.forward(_load_eval_file(pair, cache)[0], stop=_SCORING_START)
        act.flags.writeable = False
        inputs[str(pair.wav)] = act
    return inputs


def row_seed(global_seed: int, model: str, instrument: str, freeze_id: str) -> int:
    """Per-cycle seed from the row identity; independent of execution order."""
    ss = np.random.SeedSequence([global_seed, zlib.crc32(model.encode()),
                                 zlib.crc32(instrument.encode()), zlib.crc32(freeze_id.encode())])
    return int(ss.generate_state(1, np.uint32)[0])


def run_cycle(model_path, instrument: str, freeze_id: str, config: ExperimentConfig,
              dataset: dict | None = None, cache: dict | None = None) -> ResultRow:
    """Load base model, freeze, fine-tune on the snippet, evaluate held-in files.

    Verifies that every frozen tensor survives fine-tuning bitwise unchanged.
    """
    with _cycle_identity(instrument, freeze_id):
        base = load_model(model_path)
        if dataset is None:
            dataset = load_dataset(_corpus_path(config))
        if instrument not in dataset:
            raise ConfigError(f"instrument {instrument!r} not in dataset")
        pairs = dataset[instrument]
        snippet = extract_snippet(pairs, config.snippet_offset, config.snippet_duration)
        baseline = evaluate_model(base, pairs, snippet[2], config.peak_pick, config.tolerance,
                                  cache)
        return _adapt_and_score(base, pairs, snippet, instrument, freeze_id, config,
                                cache, baseline)


@contextmanager
def _cycle_identity(instrument: str, freeze_id: str):
    """Prefix any error raised inside with the cycle it belongs to."""
    try:
        yield
    except Exception as e:
        e.args = (f"[{instrument}/{freeze_id}] {e}",)
        raise


def _adapt_and_score(base: Model, pairs, snippet, instrument: str, freeze_id: str,
                     config: ExperimentConfig, cache: dict | None,
                     baseline: EvalResult, inputs: dict | None = None) -> ResultRow:
    """One cycle from a loaded base, its cut (features, targets, held)
    snippet and its baseline score; the base is only read. inputs holds the
    base's activations entering Conv3 (see _conv3_inputs); when the freeze
    leaves Conv1 and Conv2 frozen, scoring starts there, after the frozen
    tensors are checked bitwise.
    """
    t0 = time.perf_counter()
    feats, targets, held = snippet
    freeze = FreezeConfig.from_id(freeze_id)
    seed = row_seed(config.seed, base.variant, instrument, freeze_id)
    ft = FinetuneConfig(freeze=freeze, seed=seed, epochs=config.epochs,
                        lr_scale=config.lr_scale, base_lr=config.base_lr,
                        dropout_active=config.dropout_active)
    adapted = finetune(base, (feats, targets), ft)
    _check_frozen_unchanged(base, adapted, freeze)
    from_conv3 = inputs is not None and freeze.lowest_trainable >= _SCORING_START
    result = evaluate_model(adapted, pairs, held, config.peak_pick, config.tolerance, cache,
                            _SCORING_START if from_conv3 else 0, inputs if from_conv3 else None)
    per_file = tuple(result.per_file[i][3] for i in sorted(result.per_file))
    return ResultRow(
        model=base.variant, instrument=instrument, freeze_id=freeze_id,
        mean_f1=result.mean_f1, baseline_f1=baseline.mean_f1,
        delta_pp=delta_pp(result, baseline), n_files=len(per_file),
        seed=seed, wall_s=time.perf_counter() - t0, per_file_f1=per_file,
    )


def _check_frozen_unchanged(base: Model, adapted: Model, freeze: FreezeConfig) -> None:
    before, after = base.param_dict(), adapted.param_dict()
    for layer in freeze.frozen:
        for key in before:
            if key.startswith(layer + "."):
                if before[key].tobytes() != after[key].tobytes():
                    raise OnsetKitError(f"frozen tensor {key} changed during fine-tuning")


def _corpus_path(config: ExperimentConfig):
    if isinstance(config.corpus, CorpusSpec):
        raise ConfigError("corpus is an inline spec; run the grid (or generate it) first")
    return Path(config.corpus)


def resolve_corpus(config: ExperimentConfig, threads: int = 1) -> Path:
    """Materialize an inline corpus spec under out_dir; pass paths through."""
    if not isinstance(config.corpus, CorpusSpec):
        return _corpus_path(config)
    corpus_dir = Path(config.out_dir) / "corpus"
    generate_corpus(config.corpus, corpus_dir, force=True, threads=threads)
    return corpus_dir


def run_grid(config: ExperimentConfig, threads: int = 1) -> list:
    """Every (model, instrument, freeze) cycle; returns rows in grid order.

    Rows are journaled to <out_dir>/journal.jsonl as they complete; a
    failed cycle is recorded there and the grid continues without it.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_dir = resolve_corpus(config, threads)
    dataset = load_dataset(corpus_dir)
    instruments = config.instruments or tuple(dataset)
    for name in instruments:
        if name not in dataset:
            raise ConfigError(f"instrument {name!r} not in corpus {corpus_dir}")
    for variant in config.models:
        if variant not in config.base_models:
            raise ConfigError(f"no base model configured for {variant}; pretrain first")

    bases = {}
    for variant in config.models:
        bases[variant] = load_model(config.base_models[variant])
        if bases[variant].variant != variant:
            raise ConfigError(f"{config.base_models[variant]} holds {bases[variant].variant}, "
                              f"expected {variant}")
    cache: dict = {}
    rows: dict = {}
    journal = out / "journal.jsonl"
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()

    with open(journal, "w") as log, pool:
        def record(job, row=None, error=None):
            if error is None:
                rows[job] = row
                entry = {"status": "ok", **row.to_dict()}
            else:
                entry = {"status": "error", "model": job[0], "instrument": job[1],
                         "freeze_id": job[2], "error": f"{type(error).__name__}: {error}"}
            log.write(json.dumps(entry) + "\n")
            log.flush()

        # One (variant, instrument) pair at a time: its snippet, baseline and
        # the base's activations entering Conv3 are made once and dropped
        # after its cycles, which only read them and the feature cache,
        # threaded if asked.
        for variant in config.models:
            base = bases[variant]
            for name in instruments:
                jobs = [(variant, name, fid) for fid in config.freeze_configs]
                try:
                    snippet = extract_snippet(dataset[name], config.snippet_offset,
                                              config.snippet_duration)
                    inputs = _conv3_inputs(base, dataset[name], snippet[2], cache)
                    baseline = evaluate_model(base, dataset[name], snippet[2], config.peak_pick,
                                              config.tolerance, cache, _SCORING_START, inputs)
                except Exception as e:  # recorded on every row of this pair, grid continues
                    for job in jobs:
                        record(job, error=e)
                    continue

                def one(job):
                    with _cycle_identity(name, job[2]):
                        return _adapt_and_score(base, dataset[name], snippet, name, job[2],
                                                config, cache, baseline, inputs)

                if threads > 1:
                    futures = {pool.submit(one, job): job for job in jobs}
                    outcomes = ((futures[f], f.result) for f in as_completed(futures))
                else:
                    outcomes = ((job, partial(one, job)) for job in jobs)
                for job, outcome in outcomes:
                    try:
                        record(job, row=outcome())
                    except Exception as e:
                        record(job, error=e)
                del inputs  # before the next pair's are made
    order = [(v, n, fid) for v in config.models for n in instruments
             for fid in config.freeze_configs]
    return [rows[job] for job in order if job in rows]


def write_report(rows, out_dir) -> tuple:
    """Write results.csv (fixed column order) and summary.md (best per pair)."""
    if not rows:
        raise ConfigError("no rows to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(RESULTS_FORMAT_LINE + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rows:  # numbers by repr, which gives floats back exactly
            w.writerow([v if isinstance(v, str) else json.dumps(v) if isinstance(v, list)
                        else repr(v) for v in r.to_dict().values()])

    groups: dict = {}
    for r in rows:
        groups.setdefault((r.model, r.instrument), []).append(r)
    lines = [
        "# Fine-tuning summary",
        "",
        "Best freeze configuration per (model, instrument); ties share the cell.",
        "",
        "| model | instrument | best config | mean F1 | baseline F1 | delta (p.p.) |",
        "|---|---|---|---|---|---|",
    ]
    for (model, instrument), group in groups.items():
        best = max(r.mean_f1 for r in group)
        winners = [r for r in group if r.mean_f1 == best]
        ids = "/".join(r.freeze_id for r in winners)
        lines.append(f"| {model} | {instrument} | {ids} | {best:.3f} "
                     f"| {winners[0].baseline_f1:.3f} | {winners[0].delta_pp:+.1f} |")
    md_path = out / "summary.md"
    md_path.write_text("\n".join(lines) + "\n")
    return csv_path, md_path


def read_results(path) -> list:
    """Parse a results.csv back into rows (inverse of write_report)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read results {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    rows = []
    for rec in _result_records(text, path):
        if len(rec) != len(CSV_COLUMNS):
            raise DataError(f"{path}: row with {len(rec)} cells")
        try:
            rows.append(ResultRow(**{k: _CELL_PARSERS[k](v) for k, v in zip(CSV_COLUMNS, rec)}))
        except (ValueError, OverflowError, ConfigError) as e:  # JSONDecodeError is a ValueError
            raise DataError(f"{path}: {e}") from e
    return rows


def _per_file_scores(cell: str) -> tuple:
    scores = json.loads(cell)
    if not isinstance(scores, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in scores):
        raise ValueError(f"per_file_f1 is not a list of numbers: {cell!r}")
    return tuple(float(v) for v in scores)


_CELL_PARSERS = {"model": str, "instrument": str, "freeze_id": str, "mean_f1": float,
                 "baseline_f1": float, "delta_pp": float, "n_files": int, "seed": int,
                 "wall_s": float, "per_file_f1": _per_file_scores}


def _result_records(text: str, source):
    """The csv records of a results file's rows, after its format line and
    header; rows end where the csv format ends them, not at str.splitlines
    breaks such as U+001C or U+2028."""
    reader = csv.reader(io.StringIO(text, newline=""))
    if next(reader, None) != [RESULTS_FORMAT_LINE]:
        raise DataError(f"{source}: not a results file")
    header = next(reader, None)
    if tuple(header or ()) != CSV_COLUMNS:
        raise DataError(f"{source}: unexpected columns {header}")
    return reader


def strip_wall_column(csv_text: str) -> str:
    """Results CSV minus the wall-time column, for determinism comparisons."""
    drop = CSV_COLUMNS.index("wall_s")
    buf = io.StringIO()
    buf.write(RESULTS_FORMAT_LINE + "\n")
    w = csv.writer(buf, lineterminator="\n")
    for rec in [CSV_COLUMNS, *_result_records(csv_text, "results text")]:
        w.writerow(rec[:drop] + rec[drop + 1:])
    return buf.getvalue()


def pretrain_model(corpus_dir, instruments, variant: str, epochs: int,
                   seed: int = 0, base_lr: float = 1e-3,
                   dropout_rate: float = 0.1) -> tuple:
    """Train a fresh base model on whole files of the given instruments.

    Targets come from each file's own annotations, so supervising on
    time-keeping instruments alone trains a beat-style detector.
    """
    dataset = load_dataset(corpus_dir)
    items = []
    for name in instruments:
        if name not in dataset:
            raise ConfigError(f"instrument {name!r} not in corpus {corpus_dir}")
        for pair in dataset[name]:
            feats = extract_features(load_audio(pair.wav))
            targets = make_targets(load_annotations(pair.onsets), feats.n_frames)
            items.append((feats, targets))
    model = build_model(variant, seed=seed, dropout_rate=dropout_rate)
    return train(model, items, epochs=epochs, lr=base_lr, seed=seed)


def _profile_from_json(obj: dict) -> InstrumentProfile:
    if not isinstance(obj, dict):
        raise ConfigError(f"an instrument profile must be an object, got {obj!r}")
    if set(obj) == {"name", "role", "profile_seed"}:
        return make_profile(obj["name"], obj["role"], int(obj["profile_seed"]))
    kw = dict(obj)
    kw["decay_span"] = tuple(kw["decay_span"])
    if "partial_ratios" in kw:
        kw["partial_ratios"] = tuple(kw["partial_ratios"])
    return InstrumentProfile(**kw)


def _corpus_spec_from_json(obj: dict) -> CorpusSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"corpus spec must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(CorpusSpec)}
    if unknown:
        raise ConfigError(f"unknown corpus keys {sorted(unknown)}")
    if not isinstance(obj.get("instruments"), list):
        raise ConfigError("corpus spec needs an instruments list")
    # the dataclasses check values, not JSON types: a value of the wrong type
    # fails there as a TypeError (or a ValueError, AttributeError, KeyError)
    try:
        profiles = tuple(_profile_from_json(it) for it in obj["instruments"])
        return CorpusSpec(**{**obj, "instruments": profiles})
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad corpus spec: {e!r}") from e


# JSON types of the scalar config keys (null stands for None)
_SCALAR_TYPES = {"snippet_offset": (int, float, type(None)), "snippet_duration": (int, float),
                 "epochs": (int,), "lr_scale": (int, float), "base_lr": (int, float),
                 "dropout_active": (bool,), "tolerance": (int, float), "seed": (int,)}


def _names(value, key: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key} must be a list of names, got {value!r}")
    return tuple(value)


def config_from_json(obj: dict, base_dir=None) -> ExperimentConfig:
    """Build a config from parsed JSON; relative paths resolve against base_dir."""
    unknown = set(obj) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "corpus" not in obj:
        raise ConfigError("config needs a corpus (path or inline spec)")
    base = Path(base_dir) if base_dir is not None else None

    def respath(p):
        if not isinstance(p, str):
            raise ConfigError(f"a path must be a string, got {p!r}")
        p = Path(p)
        return str(base / p) if base is not None and not p.is_absolute() else str(p)

    kw: dict = {}
    corpus = obj["corpus"]
    if isinstance(corpus, dict):
        kw["corpus"] = _corpus_spec_from_json(corpus)
    elif isinstance(corpus, str):
        kw["corpus"] = respath(corpus)
    else:
        raise ConfigError(f"corpus must be a path or an inline spec, got {corpus!r}")
    if "base_models" in obj:
        models = obj["base_models"]
        if not isinstance(models, dict) or not all(isinstance(v, str) for v in models.values()):
            raise ConfigError(f"base_models must map variants to model paths, got {models!r}")
        kw["base_models"] = {k: respath(v) for k, v in models.items()}
    for key in ("models", "freeze_configs", "instruments"):
        if key in obj and (key != "instruments" or obj[key] is not None):  # null: every instrument
            kw[key] = _names(obj[key], key)
    if "peak_pick" in obj:
        pp = obj["peak_pick"]
        if not isinstance(pp, dict):
            raise ConfigError(f"peak_pick must be an object, got {type(pp).__name__}")
        try:
            kw["peak_pick"] = PeakPickParams(**pp)
        except TypeError as e:
            raise ConfigError(f"bad peak_pick: {e}") from e
    for key, types in _SCALAR_TYPES.items():
        if key in obj:
            value = obj[key]
            # bool is an int to Python, but a JSON true is no number
            if not isinstance(value, types) or isinstance(value, bool) != (types == (bool,)):
                raise ConfigError(f"{key} has the wrong type: {value!r}")
            kw[key] = value
    if "out_dir" in obj:
        kw["out_dir"] = respath(obj["out_dir"])
    try:
        return ExperimentConfig(**kw)
    except TypeError as e:
        raise ConfigError(f"bad config: {e}") from e


def config_to_json(config: ExperimentConfig) -> dict:
    obj = asdict(config)
    if not isinstance(config.corpus, CorpusSpec):
        obj["corpus"] = str(config.corpus)
    obj["base_models"] = {k: str(v) for k, v in config.base_models.items()}
    obj["out_dir"] = str(config.out_dir)
    return obj


def _read_json(path, what):
    """Parsed JSON of a UTF-8 file; unreadable or malformed files are DataError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e


def load_config(path) -> ExperimentConfig:
    """Read an experiment config JSON file."""
    path = Path(path)
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return config_from_json(obj, base_dir=path.parent)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_json(config), indent=2, sort_keys=True) + "\n")
