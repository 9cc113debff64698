"""Experimental protocol: snippet holdout, fine-tuning cycles, grids, reports.

A cycle adapts a pretrained base model to one instrument with one freeze
configuration, always fine-tuning on a single 5 s snippet cut from the
instrument's first file, and always excluding that file from evaluation.
A grid runs every (model, instrument, freeze) combination, journals rows
in grid order, and writes a fixed-column CSV plus a Markdown summary of
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
import reprlib
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .audio import AudioClip, OnsetAnnotations, load_annotations, load_audio
from .errors import (ConfigError, DataError, OnsetKitError, SnippetError, check_fields,
                     check_ranges, read_text)
from .evaluate import (DEFAULT_TOLERANCE, EvalResult, PeakPickParams, aggregate, delta_pp,
                       match_onsets, peak_pick)
from .features import extract_features
from .models import (
    DROPOUT_RATE,
    LAYER_NAMES,
    VARIANTS,
    FreezeConfig,
    Model,
    build_model,
    canonical_freeze_ids,
    load_model,
)
from .synth import (MANIFEST_NAME, CorpusSpec, FilePair, InstrumentProfile, generate_corpus,
                    load_manifest, make_profile)
from .training import BASE_LR, FinetuneConfig, finetune, make_targets, train

RESULTS_FORMAT_LINE = "# results-format: 1"  # a results file's first line
EXCLUDED_REAL_INDEX = 34
SNIPPET_DURATION = 5.0  # s, the fine-tuning snippet
SNIPPET_OFFSET_GRID = 0.1  # s, scan step for the default snippet offset


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a grid run needs; mirrors the JSON config file 1:1."""

    corpus: str | Path | CorpusSpec
    base_models: dict[str, str | Path] = field(default_factory=dict)  # variant -> model path
    models: tuple[str, ...] = tuple(VARIANTS)
    instruments: tuple[str, ...] | None = None  # None = every instrument in the corpus
    freeze_configs: tuple[str, ...] = tuple(canonical_freeze_ids())
    snippet_offset: float | None = None  # None = earliest annotated window
    snippet_duration: float = SNIPPET_DURATION
    epochs: int = FinetuneConfig.epochs
    lr_scale: float = FinetuneConfig.lr_scale
    base_lr: float = FinetuneConfig.base_lr
    dropout_active: bool = FinetuneConfig.dropout_active
    peak_pick: PeakPickParams = PeakPickParams()
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0
    out_dir: str | Path = "results"

    def __post_init__(self):
        for m in self.models:
            if m not in VARIANTS:
                raise ConfigError(f"unknown model variant {reprlib.repr(m)}")
        if not self.models:
            raise ConfigError("need at least one model variant")
        if self.instruments is not None and not self.instruments:
            raise ConfigError("need at least one instrument (null for every one)")
        if not self.freeze_configs:
            raise ConfigError("need at least one freeze config")
        for key in ("models", "instruments", "freeze_configs"):
            entries = getattr(self, key) or ()
            if len(set(entries)) < len(entries):
                raise ConfigError(f"{key} repeats an entry: {reprlib.repr(list(entries))}")
        for fid in self.freeze_configs:
            FreezeConfig.from_id(fid)
        check_fields(self)


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
        check_fields(self)
        for f1 in self.per_file_f1:
            check_ranges(f1=f1)
        if not abs(self.delta_pp - delta_pp(self.mean_f1, self.baseline_f1)) <= 1e-9:
            raise ConfigError("delta_pp does not match mean - baseline")
        if self.n_files != len(self.per_file_f1):
            raise ConfigError("n_files does not match per-file list")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in CSV_COLUMNS}
        d["per_file_f1"] = list(self.per_file_f1)
        return d


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def load_dataset(root) -> dict:
    """Map instrument -> file pairs, sorted by index.

    A directory containing manifest.txt is read as a synthetic corpus;
    otherwise each subdirectory is an instrument holding
    <name>_<nn>.wav + <name>_<nn>.onsets pairs, <nn> ASCII digits (index 34 skipped).
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    out: dict = {}
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        meta, pairs = load_manifest(manifest)
        out = {name: [] for name in meta["instruments"]}
        for pair in pairs:
            out[pair.instrument].append(pair)
    else:
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            pairs = []
            # listed, not globbed: a folder name may hold glob characters
            for wav in sorted(p for p in sub.iterdir()
                              if p.name.startswith(f"{sub.name}_") and p.suffix == ".wav"):
                tail = wav.stem[len(sub.name) + 1:]
                if not (tail.isascii() and tail.isdigit()):
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


def instrument_pairs(dataset: dict, name: str, where: str) -> list:
    """dataset[name] of a load_dataset map; ConfigError naming `where` if it has none."""
    if name not in dataset:
        raise ConfigError(f"instrument {reprlib.repr(name)} not in {where}")
    return dataset[name]


def extract_snippet(pairs, offset: float | None = None, duration: float = SNIPPET_DURATION):
    """Cut the fine-tuning snippet from the instrument's first file.

    Returns (features, targets, held_out_index); the held-out index is the
    snippet source file, to be excluded from every evaluation list. With
    offset=None the earliest 0.1 s-grid offset whose window contains an
    annotation is used.
    """
    check_ranges(snippet_offset=offset, snippet_duration=duration)
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
                   params: PeakPickParams | None = None, tolerance: float = DEFAULT_TOLERANCE,
                   cache: dict | None = None, prefixes: dict | None = None) -> EvalResult:
    """Run the model over every file except the held-out one and score it.

    prefixes, when given, maps each file to an inference Model.prefix of
    it, and each forward begins there: exact when the model's blocks below
    the prefix's start equal those of the model that made it.
    """
    counts, ids = [], []
    for pair in sorted(pairs, key=lambda p: p.index):
        if pair.index == exclude_index:
            continue
        feats, ref = _load_eval_file(pair, cache)
        act = model.forward(feats if prefixes is None else prefixes[str(pair.wav)])
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


def row_seed(global_seed: int, model: str, instrument: str, freeze_id: str) -> int:
    """Per-cycle seed from the row identity; independent of execution order."""
    ss = np.random.SeedSequence([global_seed, zlib.crc32(model.encode()),
                                 zlib.crc32(instrument.encode()), zlib.crc32(freeze_id.encode())])
    return int(ss.generate_state(1, np.uint32)[0])


def _prepare_pair(base: Model, pairs, config: ExperimentConfig, cache: dict | None) -> tuple:
    """(snippet, prefixes, baseline) of one (base, instrument) pair: the cut
    (features, targets, held) snippet, the base's inference prefixes up to
    Conv3 of the held-in files and the base's score from them."""
    snippet = extract_snippet(pairs, config.snippet_offset, config.snippet_duration)
    prefixes = {str(p.wav): base.prefix(_load_eval_file(p, cache)[0], upto=_SCORING_START)
                for p in pairs if p.index != snippet[2]}
    baseline = evaluate_model(base, pairs, snippet[2], config.peak_pick, config.tolerance,
                              cache, prefixes)
    return snippet, prefixes, baseline


def run_cycle(model_path, instrument: str, freeze_id: str, config: ExperimentConfig,
              dataset: dict | None = None, cache: dict | None = None) -> ResultRow:
    """Load base model, freeze, fine-tune on the snippet, evaluate held-in files.

    Scores as a grid cycle does, and verifies that every frozen tensor
    survives fine-tuning bitwise unchanged.
    """
    with _cycle_identity(instrument, freeze_id):
        base = load_model(model_path)
        if dataset is None:
            dataset = load_dataset(_corpus_path(config))
        pairs = instrument_pairs(dataset, instrument, "dataset")
        cache = {} if cache is None else cache  # each held-in file is read once
        return _adapt_and_score(base, pairs, _prepare_pair(base, pairs, config, cache),
                                instrument, freeze_id, config, cache)


@contextmanager
def _cycle_identity(instrument: str, freeze_id: str):
    """Prefix any error raised inside with the cycle it belongs to."""
    try:
        yield
    except Exception as e:
        e.args = (f"[{instrument}/{freeze_id}] {e}",)
        raise


def _adapt_and_score(base: Model, pairs, prepared: tuple, instrument: str, freeze_id: str,
                     config: ExperimentConfig, cache: dict | None) -> ResultRow:
    """One cycle from a loaded base and its pair's _prepare_pair output; the
    base is only read. When the freeze leaves Conv1 and Conv2 frozen,
    scoring starts at Conv3, after the frozen tensors are checked bitwise.
    """
    t0 = time.perf_counter()
    (feats, targets, held), prefixes, baseline = prepared
    freeze = FreezeConfig.from_id(freeze_id)
    seed = row_seed(config.seed, base.variant, instrument, freeze_id)
    ft = FinetuneConfig(freeze=freeze, seed=seed, epochs=config.epochs,
                        lr_scale=config.lr_scale, base_lr=config.base_lr,
                        dropout_active=config.dropout_active)
    adapted = finetune(base, (feats, targets), ft)
    _check_frozen_unchanged(base, adapted, freeze)
    result = evaluate_model(adapted, pairs, held, config.peak_pick, config.tolerance, cache,
                            prefixes if adapted.lowest_trainable >= _SCORING_START else None)
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

    Rows are journaled to <out_dir>/journal.jsonl in the same order for
    every thread count; a failed cycle is recorded there and the grid
    continues without it.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_dir = resolve_corpus(config, threads)
    dataset = load_dataset(corpus_dir)
    instruments = config.instruments or tuple(dataset)
    for name in instruments:
        instrument_pairs(dataset, name, f"corpus {corpus_dir}")
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
    rows = []
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()
    with open(out / "journal.jsonl", "w") as log, pool:
        # One (variant, instrument) pair at a time: its snippet, baseline and
        # the base's prefixes up to Conv3 are made once and dropped
        # after its cycles, which only read them and the feature cache,
        # threaded if asked; serial cycles run on this thread.
        for variant in config.models:
            for name in instruments:
                jobs = [(variant, name, fid) for fid in config.freeze_configs]
                try:
                    prepared = _prepare_pair(bases[variant], dataset[name], config, cache)
                except Exception as e:  # recorded on every row of this pair, grid continues
                    outcomes = [(None, e)] * len(jobs)
                else:
                    def one(job):
                        try:
                            with _cycle_identity(name, job[2]):
                                return _adapt_and_score(bases[variant], dataset[name], prepared,
                                                        name, job[2], config, cache), None
                        except Exception as e:
                            return None, e

                    outcomes = (pool.map if threads > 1 else map)(one, jobs)
                for job, (row, error) in zip(jobs, outcomes):
                    if error is None:
                        rows.append(row)
                        entry = {"status": "ok", **row.to_dict()}
                    else:
                        entry = {"status": "error", "model": job[0], "instrument": job[1],
                                 "freeze_id": job[2], "error": f"{type(error).__name__}: {error}"}
                    log.write(json.dumps(entry) + "\n")
                    log.flush()
                prepared = None  # before the next pair's are made
    return rows


def write_report(rows, out_dir) -> tuple:
    """Write results.csv (fixed column order) and summary.md (best per pair)."""
    if not rows:
        raise ConfigError("no rows to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RESULTS_FORMAT_LINE + "\n" + _csv_record(CSV_COLUMNS))
        for r in rows:  # numbers by repr, which gives floats back exactly
            fh.write(_csv_record([v if isinstance(v, str) else json.dumps(v) if isinstance(v, list)
                                  else repr(v) for v in r.to_dict().values()]))

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
    md_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return csv_path, md_path


def _csv_record(cells) -> str:
    """One csv record ending in a line feed. csv.writer quotes a cell only
    for the characters of its line terminator, and a reader also ends a row
    at a bare carriage return, so the record is written with CR LF, which
    quotes a cell holding either, and then ends in LF alone."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def read_results(path) -> list:
    """Parse a results.csv back into rows (inverse of write_report)."""
    rows = []
    for rec in _result_records(read_text(path, "results"), path):
        if len(rec) != len(CSV_COLUMNS):
            raise DataError(f"{path}: row with {len(rec)} cells")
        try:
            rows.append(ResultRow(**{k: _CELL_PARSERS[k](v) for k, v in zip(CSV_COLUMNS, rec)}))
        # JSONDecodeError is a ValueError; RecursionError is JSON nested too deeply
        except (ValueError, OverflowError, RecursionError, ConfigError) as e:
            raise DataError(f"{path}: {e}") from e
    return rows


def _per_file_scores(cell: str) -> tuple:
    scores = json.loads(cell)
    if not isinstance(scores, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in scores):
        raise ValueError(f"per_file_f1 is not a list of numbers: {reprlib.repr(cell)}")
    return tuple(float(v) for v in scores)


_CELL_PARSERS = {**get_type_hints(ResultRow), "per_file_f1": _per_file_scores}


def _result_records(text: str, source) -> list:
    """The csv records of a results file's rows, after its format line and
    header; rows end where the csv format ends them, not at str.splitlines
    breaks such as U+001C or U+2028."""
    try:
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as e:  # such as a cell over the csv field size limit
        raise DataError(f"{source}: {e}") from e
    if records[:1] != [[RESULTS_FORMAT_LINE]]:
        raise DataError(f"{source}: not a results file")
    header = records[1] if len(records) > 1 else None
    if tuple(header or ()) != CSV_COLUMNS:
        raise DataError(f"{source}: unexpected columns {header}")
    return records[2:]


def pretrain_model(corpus_dir, instruments, variant: str, epochs: int, seed: int = 0,
                   base_lr: float = BASE_LR, dropout_rate: float = DROPOUT_RATE) -> tuple:
    """Train a fresh base model on whole files of the given instruments.

    Targets come from each file's own annotations, so supervising on
    time-keeping instruments alone trains a beat-style detector.
    """
    check_ranges(epochs=epochs, base_lr=base_lr, seed=seed)
    if len(set(instruments)) < len(instruments):
        raise ConfigError("instruments repeats an entry: "
                          f"{reprlib.repr(list(instruments))}")
    dataset = load_dataset(corpus_dir)
    items = []
    for name in instruments:
        for pair in instrument_pairs(dataset, name, f"corpus {corpus_dir}"):
            feats = extract_features(load_audio(pair.wav))
            targets = make_targets(load_annotations(pair.onsets), feats.n_frames)
            items.append((feats, targets))
    model = build_model(variant, seed=seed, dropout_rate=dropout_rate)
    return train(model, items, epochs=epochs, lr=base_lr, seed=seed)


# for each kind of annotation: what json.loads gives for it, and its JSON name
_JSON_KINDS = {bool: (bool, "true or false"), int: (int, "an integer"),
               float: ((int, float), "a number"), str: (str, "a string"),
               type(None): (type(None), "null"), tuple: (list, "an array"),
               dict: (dict, "a JSON object")}
_PROFILE_SHORTHAND = {"name": str, "role": str, "profile_seed": int}  # make_profile's arguments


def _json_kind(tp) -> tuple:
    """(Python type of the JSON form, JSON name) of an annotation; Path has
    no JSON form and loads through the str beside it in a union."""
    return _JSON_KINDS.get(dict if is_dataclass(tp) else get_origin(tp) or tp, ((), ""))


def _from_json(tp, value, key: str):
    """A parsed JSON value as the annotation tp; ConfigError names the key.

    Arrays become tuples, and objects a dict or the dataclass tp names,
    whose unknown keys are rejected. A JSON integer passes for a float and
    stays an int, so a loaded config saves to the same bytes; true and
    false pass only for a bool. A union takes its first member of the
    value's JSON type. Range checks are the dataclasses' own.
    """
    members = get_args(tp) if get_origin(tp) is UnionType else (tp,)
    tp = next((m for m in members if isinstance(value, _json_kind(m)[0])
               and isinstance(value, bool) == (m is bool)), None)
    if tp is None:
        expected = " or ".join(name for name in (_json_kind(m)[1] for m in members) if name)
        raise ConfigError(f"{key} must be {expected}, got {reprlib.repr(value)}")
    if get_origin(tp) is tuple:
        args = get_args(tp)
        types = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(types) != len(value):
            raise ConfigError(f"{key} must hold {len(types)} items, got {reprlib.repr(value)}")
        return tuple(_from_json(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(types, value)))
    if get_origin(tp) is dict:
        return {k: _from_json(get_args(tp)[1], v, f"{key}.{k}") for k, v in value.items()}
    if not is_dataclass(tp):
        return value
    if tp is InstrumentProfile and value.keys() == _PROFILE_SHORTHAND.keys():
        return make_profile(*(_from_json(t, value[k], f"{key}.{k}")
                              for k, t in _PROFILE_SHORTHAND.items()))
    unknown = set(value) - {f.name for f in fields(tp)}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {key}")
    missing = {f.name for f in fields(tp) if f.default is MISSING
               and f.default_factory is MISSING} - set(value)
    if missing:
        raise ConfigError(f"{key} needs {sorted(missing)}")
    hints = get_type_hints(tp)
    return tp(**{k: _from_json(hints[k], v, f"{key}.{k}") for k, v in value.items()})


def config_from_json(obj: dict, base_dir=None) -> ExperimentConfig:
    """Build a config from parsed JSON; relative paths resolve against base_dir."""
    config = _from_json(ExperimentConfig, obj, "config")
    base = Path(base_dir or ".")
    paths = {"base_models": {k: str(base / v) for k, v in config.base_models.items()}}
    if not isinstance(config.corpus, CorpusSpec):
        paths["corpus"] = str(base / config.corpus)
    if "out_dir" in obj:  # the default stays relative to the working directory
        paths["out_dir"] = str(base / config.out_dir)
    return replace(config, **paths)


def _read_json(path, what):
    """Parsed JSON of a UTF-8 file; unreadable or malformed files are DataError."""
    try:
        return json.loads(read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
        raise DataError(f"{path}: invalid JSON: {e}") from e


def load_corpus_spec(path) -> CorpusSpec:
    """Read a corpus spec JSON file, which has the form of an inline corpus."""
    return _from_json(CorpusSpec, _read_json(path, "corpus spec"), "corpus")


def load_config(path) -> ExperimentConfig:
    """Read an experiment config JSON file."""
    path = Path(path)
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return config_from_json(obj, base_dir=path.parent)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2, sort_keys=True, default=str) + "\n")
