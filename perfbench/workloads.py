"""The benchmark's three workloads: set-up, one round of operations, checks.

Every workload synthesizes its corpus from the run's seed in set-up. A
round repeats the same operations on the same inputs, so every round of a
run must produce the same numbers; `Round.digest` fingerprints them.

- adapt: `run_grid` over three freeze ids, for tcn_v1 adapted to the
  held-out outlier ring_bell (intra-task) and tcn_v2 adapted to snap_noise
  (cross-task); 50 epochs on the 5 s snippet, scored on the held-in files.
- pretrain: `pretrain_model` from a fresh model on whole 30 s files,
  nothing frozen: tcn_v1 on the four ordinary instruments, tcn_v2 on the
  two time-keepers.
- detect: `onsetkit detect` through `onsetkit.cli.main`, once per file of
  every instrument, with both base models.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import require
from common import MODELS
from tracing import Patches

VARIANTS = ("tcn_v1", "tcn_v2")
ORDINARY = ("drone_tone", "snap_noise", "clack_mix", "thud_tone")
TIME_KEEPERS = ("drone_tone", "ring_bell")
FILE_SECONDS = 30.0
TOLERANCE = 0.025  # s, the program's default matching window

ADAPT_PAIRS = (("tcn_v1", "ring_bell"), ("tcn_v2", "snap_noise"))
# from nothing frozen to everything but Out; two of three freeze Conv1, as
# fourteen of the canonical fifteen do
ADAPT_FREEZE_IDS = ("ft", "ft_Tcn16", "ft_Tcn1024")
ADAPT_EPOCHS = 50
INTRA_TASK = ("tcn_v1", "ring_bell", "ft")
INTRA_TASK_MIN_GAIN_PP = 15.0  # acceptance criterion 7
INTRA_TASK_MIN_F1 = 0.85

PRETRAIN_EPOCHS = 2
PRETRAIN_RECIPES = (("tcn_v1", ORDINARY), ("tcn_v2", TIME_KEEPERS))

TONE_BANDS = (45, 60, 72)  # band indices whose centre frequency is played as a pure tone


@dataclass
class Round:
    ops: int = 0  # operations attempted
    failed: int = 0
    busy_s: float = 0.0  # wall time inside the operations' calls
    waits: list = field(default_factory=list)  # seconds a user waits per result
    outputs: list = field(default_factory=list)  # the numbers the round produced
    wall_s: float = 0.0
    traced: bool = False

    @property
    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    files = 0  # corpus files per instrument
    base_models = False  # whether set-up builds the run's copies of the base models

    @classmethod
    def setup(cls, ok, seed: int, into: Path) -> None:
        """Synthesize the corpus; build the base models from the committed ones."""
        spec = ok.default_corpus_spec(seed=seed, files_per_instrument=cls.files,
                                      file_duration=FILE_SECONDS)
        ok.generate_corpus(spec, into / "corpus")
        if cls.base_models:
            for variant in VARIANTS:
                model = ok.load_model(MODELS / f"{variant}.model")
                ok.save_model(model, into / f"{variant}.model")

    def __init__(self, ok, seed: int, inputs: Path, work: Path):
        self.ok, self.seed, self.inputs, self.work = ok, seed, inputs, work
        self.corpus = inputs / "corpus"
        self.dataset = ok.load_dataset(self.corpus)
        self.probes = Patches()

    def close(self) -> None:
        self.probes.restore()

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> None:
        """Raise checks.CheckFailed unless the run's outputs are right."""
        first = rounds[0].digest
        for i, r in enumerate(rounds[1:], start=2):
            require(r.digest == first, f"round {i} produced other numbers than round 1")


class Adapt(Workload):
    name = "adapt"
    files = 3  # the snippet file plus two held-in files per instrument
    base_models = True

    def __init__(self, ok, seed, inputs, work):
        super().__init__(ok, seed, inputs, work)
        self.finetunes = []  # (variant, frozen layers, seconds, frozen tensor bytes)
        self.evaluated = []  # (excluded index, scored file indices)
        self.probes.function("training", "finetune", self._probe_finetune)
        self.probes.function("experiment", "evaluate_model", self._probe_evaluate)

    def _probe_finetune(self, fn):
        def probe(model, snippet, config):
            t0 = time.perf_counter()
            adapted = fn(model, snippet, config)
            seconds = time.perf_counter() - t0
            frozen = config.freeze.frozen
            tensors = {k: v.astype("<f4").tobytes() for k, v in adapted.param_dict().items()
                       if k.split(".")[0] in frozen}
            self.finetunes.append((model.variant, frozen, seconds, tensors))
            return adapted
        return probe

    def _probe_evaluate(self, fn):
        def probe(model, pairs, exclude_index, *args, **kwargs):
            result = fn(model, pairs, exclude_index, *args, **kwargs)
            self.evaluated.append((exclude_index, sorted(result.per_file)))
            return result
        return probe

    def config(self, variant, instrument):
        return self.ok.ExperimentConfig(
            corpus=self.corpus, base_models={variant: self.inputs / f"{variant}.model"},
            models=(variant,), instruments=(instrument,), freeze_configs=ADAPT_FREEZE_IDS,
            epochs=ADAPT_EPOCHS, seed=self.seed, out_dir=self.work / f"grid-{variant}")

    def run_round(self):
        experiment = sys.modules["onsetkit.experiment"]
        r = Round()
        done = len(self.finetunes)
        for variant, instrument in ADAPT_PAIRS:
            t0 = time.perf_counter()
            rows = experiment.run_grid(self.config(variant, instrument), threads=1)
            r.busy_s += time.perf_counter() - t0
            r.ops += len(ADAPT_FREEZE_IDS)
            r.failed += len(ADAPT_FREEZE_IDS) - len(rows)
            for row in rows:
                d = row.to_dict()
                del d["wall_s"]
                r.outputs.append({k: repr(v) if isinstance(v, float) else v for k, v in d.items()})
        r.waits = [s for _, _, s, _ in self.finetunes[done:]]
        return r

    def check(self, rounds):
        super().check(rounds)
        expected = [(v, inst, fid) for v, inst in ADAPT_PAIRS for fid in ADAPT_FREEZE_IDS]
        for r in rounds:
            got = [(row["model"], row["instrument"], row["freeze_id"]) for row in r.outputs]
            require(got == expected, f"grid rows {got}, expected one per cycle {expected}")
        snippet_file = 1  # extract_snippet cuts the snippet from each instrument's first file
        held_in = list(range(2, self.files + 1))
        for excluded, scored in self.evaluated:
            require(excluded == snippet_file and scored == held_in,
                    f"scored files {scored} (excluded {excluded}), expected {held_in}")
        for row in rounds[0].outputs:
            per_file = row["per_file_f1"]
            mean, base, delta = (float(row[k]) for k in ("mean_f1", "baseline_f1", "delta_pp"))
            require(row["n_files"] == len(held_in) == len(per_file), f"{row}: file count")
            require(math.isclose(mean, float(np.mean(per_file)), rel_tol=0, abs_tol=1e-12),
                    f"{row}: mean_f1 is not the mean of per_file_f1")
            require(math.isclose(delta, 100.0 * (mean - base), rel_tol=0, abs_tol=1e-9),
                    f"{row}: delta_pp is not 100 x (mean - baseline)")
            print(f"{row['model']} {row['instrument']} {row['freeze_id']}: "
                  f"{base:.3f} -> {mean:.3f} ({delta:+.1f} pp)", file=sys.stderr)
            if (row["model"], row["instrument"], row["freeze_id"]) == INTRA_TASK:
                require(delta >= INTRA_TASK_MIN_GAIN_PP and mean >= INTRA_TASK_MIN_F1,
                        f"intra-task ft cycle {base:.3f} -> {mean:.3f} ({delta:+.1f} pp); "
                        f"needs >= {INTRA_TASK_MIN_F1} and >= +{INTRA_TASK_MIN_GAIN_PP} pp")
        for variant, frozen, seconds, _ in self.finetunes[:len(expected)]:
            print(f"fine-tune {variant} {len(frozen)} layers frozen: {seconds:.3f} s",
                  file=sys.stderr)
        base_bytes = {v: checks.model_tensor_bytes(self.inputs / f"{v}.model") for v in VARIANTS}
        require(len(self.finetunes) == len(expected) * len(rounds), "fine-tune count")
        for variant, frozen, _, tensors in self.finetunes:
            require(len(tensors) > 0 or not frozen, f"{variant}: no frozen tensors captured")
            for key, raw in tensors.items():
                require(raw == base_bytes[variant][key],
                        f"{variant}: frozen tensor {key} differs from the base model file")


class Pretrain(Workload):
    name = "pretrain"
    files = 2

    def __init__(self, ok, seed, inputs, work):
        super().__init__(ok, seed, inputs, work)
        self.frames_seen = []  # feature frames extracted, per pretrain_model call
        self.probes.function("features", "extract_features", self._probe_features)

    def _probe_features(self, fn):
        def probe(clip):
            features = fn(clip)
            if self.frames_seen:
                self.frames_seen[-1] += features.n_frames
            return features
        return probe

    def run_round(self):
        experiment = sys.modules["onsetkit.experiment"]
        r = Round()
        for variant, instruments in PRETRAIN_RECIPES:
            self.frames_seen.append(0)
            r.ops += 1
            t0 = time.perf_counter()
            try:
                _, history = experiment.pretrain_model(self.corpus, instruments, variant,
                                                       epochs=PRETRAIN_EPOCHS, seed=self.seed)
            except self.ok.OnsetKitError as e:
                print(f"pretrain {variant} failed: {e}", file=sys.stderr)
                r.failed += 1
                continue
            seconds = time.perf_counter() - t0
            r.busy_s += seconds
            r.waits.append(seconds)
            r.outputs.append({"model": variant, "losses": [repr(x) for x in history]})
        return r

    def input_frames(self, instruments) -> int:
        return sum(checks.frames_of(p.wav) for name in instruments for p in self.dataset[name])

    def check(self, rounds):
        super().check(rounds)
        for row in rounds[0].outputs:
            losses = [float(x) for x in row["losses"]]
            require(len(losses) == PRETRAIN_EPOCHS, f"{row['model']}: {len(losses)} epoch losses")
            require(all(math.isfinite(x) for x in losses), f"{row['model']}: non-finite loss")
            require(losses[-1] < losses[0], f"{row['model']}: loss {losses[0]} -> {losses[-1]}")
        expected = [self.input_frames(instruments) for _, instruments in PRETRAIN_RECIPES]
        require(self.frames_seen == expected * len(rounds),
                f"features.frames per call {self.frames_seen}, files hold {expected}")


class Detect(Workload):
    name = "detect"
    files = 3
    base_models = True

    def __init__(self, ok, seed, inputs, work):
        super().__init__(ok, seed, inputs, work)
        self.pairs = [p for name in self.dataset for p in self.dataset[name]]
        self.written = []  # (onset file, reference file) written in the last round

    def out_path(self, variant, pair) -> Path:
        return self.work / variant / f"{pair.wav.stem}.onsets"

    def run_round(self):
        cli = sys.modules["onsetkit.cli"]
        r = Round()
        self.written = []
        for variant in VARIANTS:
            (self.work / variant).mkdir(parents=True, exist_ok=True)
            model = str(self.inputs / f"{variant}.model")
            for pair in self.pairs:
                out = self.out_path(variant, pair)
                r.ops += 1
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["detect", model, str(pair.wav), "--out", str(out)])
                seconds = time.perf_counter() - t0
                if code != 0:
                    r.failed += 1
                    continue
                r.busy_s += seconds
                r.waits.append(seconds)
                r.outputs.append({"model": variant, "file": pair.wav.name,
                                  "onsets": out.read_text()})
                self.written.append((variant, out, pair))
        return r

    def check(self, rounds):
        super().check(rounds)
        ok = self.ok
        for variant, est_path, pair in self.written:
            est, ref = checks.read_onsets(est_path), checks.read_onsets(pair.onsets)
            program_tp = ok.match_onsets(est, ref, TOLERANCE).tp
            independent_tp = checks.max_matching_tp(est, ref, TOLERANCE)
            require(program_tp == independent_tp,
                    f"{variant} {pair.wav.name}: match_onsets tp {program_tp}, "
                    f"maximum matching {independent_tp}")
        pair = self.pairs[0]
        features = ok.extract_features(ok.load_audio(pair.wav))
        checks.check_features(features.values, checks.wav_sample_count(pair.wav), pair.wav.name)
        for k in TONE_BANDS:
            freq = checks.band_center(k)
            values = ok.extract_features(ok.AudioClip(checks.tone(freq), 44100)).values
            checks.check_features(values, 44100, f"{freq:.0f} Hz tone")
            loudest = int(np.argmax(values.mean(axis=0)))
            require(loudest == checks.nearest_band(freq),
                    f"{freq:.0f} Hz tone peaks in band {loudest}, not {checks.nearest_band(freq)}")
        for variant in VARIANTS:
            model = ok.load_model(self.inputs / f"{variant}.model")
            twin = ok.build_model(variant, model.seed, dropout_rate=0.0)
            for name, value in model.param_dict().items():
                twin.param_dict()[name][...] = value
            inference = model.forward(features)
            training = twin.forward(features, training=True, rng=np.random.default_rng(0))
            gap = float(np.max(np.abs(inference - training)))
            require(gap <= 1e-12, f"{variant}: inference and dropout-free training forward "
                                  f"differ by {gap:.3g}")


WORKLOADS = {w.name: w for w in (Adapt, Pretrain, Detect)}
