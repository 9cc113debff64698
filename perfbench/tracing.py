"""Spans and counters recorded around calls into onsetkit, from outside it.

`Patches` swaps attributes and puts every one back on `restore()`; the
tracer and the checks' probes both go through it. A function is replaced in
every onsetkit module that holds it, because modules import each other's
functions by name (`experiment` calls its own `finetune` binding, not
`training.finetune`).

`Tracer.install` wraps the public functions listed in FUNCTIONS, the
optimizers' `step` methods, and, through a hook on `build_model`, the
`forward`/`backward` of each named block of every model built while it is
installed. Each span records its name, start, end and the span that was
open when it began; self time is a span's duration minus its children's.
Spans stay in memory until `write_chrome_trace` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

VARIANTS = ("tcn_v1", "tcn_v2")
LAYERS = ("Conv1", "Conv2", "Conv3") + tuple(f"Tcn{2**i}" for i in range(11)) + ("Out",)

# module -> public functions traced under "<module>.<function>"; every function
# that does work is listed, so that self time stays with the layer spending it
FUNCTIONS = {
    "audio": ("load_audio", "save_wav", "load_annotations", "save_annotations"),
    "features": ("extract_features",),
    "synth": ("render_file", "generate_corpus"),
    "models": ("build_model", "load_model", "save_model", "clone_model"),
    "training": ("train", "finetune", "make_targets"),
    "evaluate": ("peak_pick", "match_onsets", "aggregate"),
    "experiment": ("run_grid", "run_cycle", "evaluate_model", "extract_snippet",
                   "load_dataset", "pretrain_model"),
    "cli": ("main",),
}
OPTIMIZERS = {"Adam": "optim.adam.step", "RAdamLookahead": "optim.radam_lookahead.step"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = []
    for v in VARIANTS:
        names += [f"models.{v}.{layer}.fwd_ms" for layer in LAYERS]
        names += [f"models.{v}.{layer}.bwd_ms" for layer in LAYERS]
        names += [f"models.{v}.fwd_calls", f"models.{v}.bwd_calls", f"models.{v}.bwd_frozen_calls"]
    names += [
        "models.load_model_ms", "models.load_model_calls", "models.clone_model_ms",
        "optim.adam.step_ms", "optim.adam.step_calls",
        "optim.radam_lookahead.step_ms", "optim.radam_lookahead.step_calls",
        "training.self_ms",
        "features.extract_ms", "features.extract_calls", "features.frames",
        "audio.load_audio_ms", "audio.load_audio_calls", "audio.save_wav_ms",
        "synth.render_file_ms", "synth.render_file_calls",
        "evaluate.peak_pick_ms", "evaluate.peak_pick_calls", "evaluate.match_onsets_ms",
        "experiment.extract_snippet_ms", "experiment.extract_snippet_calls",
        "experiment.evaluate_model_ms", "experiment.evaluate_model_calls", "experiment.self_ms",
        "cli.self_ms",
        "trace.spans", "trace.overhead_pct",
    ]
    return names


# metrics that only set-up produces; a traced run takes them from its set-ups
SETUP_METRICS = ("synth.render_file_ms", "synth.render_file_calls", "audio.save_wav_ms")


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == "features.frames":
        return "frames"
    if name == "trace.overhead_pct":
        return "%"
    return "count"


def onsetkit_modules():
    return [m for n, m in list(sys.modules.items())
            if (n == "onsetkit" or n.startswith("onsetkit.")) and m is not None]


class Patches:
    """Attribute replacements, undone in reverse order by `restore()`."""

    def __init__(self):
        self._undo = []

    def function(self, module: str, name: str, make) -> None:
        """Replace onsetkit.<module>.<name> everywhere it is bound with make(original)."""
        original = getattr(sys.modules[f"onsetkit.{module}"], name)
        replacement = make(original)
        for mod in onsetkit_modules():
            if mod.__dict__.get(name) is original:
                self.attribute(mod, name, replacement)

    def attribute(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, obj.__dict__[name]))
        setattr(obj, name, value)

    def restore(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches = Patches()

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) runs once the span is closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(return_value, args)
            return return_value

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def count_frames(features, _args):
            counts["features.frames"] += features.n_frames

        def wrap_blocks(model, _args):
            for nl in model.layers:
                self._wrap_block(model.variant, nl)

        after = {"features.extract_features": count_frames, "models.build_model": wrap_blocks}
        for module, names in FUNCTIONS.items():
            for name in names:
                span = f"{module}.{name}"
                self._patches.function(
                    module, name, lambda fn, s=span: self.wrap(s, fn, after.get(s)))
        optim = sys.modules["onsetkit.optim"]
        for cls_name, span in OPTIMIZERS.items():
            cls = getattr(optim, cls_name)
            self._patches.attribute(cls, "step", self.wrap(span, cls.__dict__["step"]))

    def _wrap_block(self, variant: str, nl) -> None:
        """Shadow one block's bound forward/backward with traced instance attributes."""
        block, counts = nl.block, self.counts
        prefix = f"models.{variant}.{nl.name}"
        fwd = self.wrap(prefix + ".fwd", block.forward)
        bwd = self.wrap(prefix + ".bwd", block.backward)

        def forward(*args, **kwargs):
            counts[f"models.{variant}.fwd_calls"] += 1
            return fwd(*args, **kwargs)

        def backward(*args, **kwargs):
            counts[f"models.{variant}.bwd_calls"] += 1
            if not nl.trainable:
                counts[f"models.{variant}.bwd_frozen_calls"] += 1
            return bwd(*args, **kwargs)

        block.forward, block.backward = forward, backward

    def uninstall(self) -> None:
        self._patches.restore()

    # -- aggregation --------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive ms, self ms, calls) per span name."""
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            ms = (end - start) / 1e6
            incl[name] += ms
            own[name] += ms
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= ms
        return incl, own, calls

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values summed over everything recorded so far."""
        incl, own, calls = self.totals()
        out: dict[str, float] = {}
        for v in VARIANTS:
            for layer in LAYERS:
                out[f"models.{v}.{layer}.fwd_ms"] = incl[f"models.{v}.{layer}.fwd"]
                out[f"models.{v}.{layer}.bwd_ms"] = incl[f"models.{v}.{layer}.bwd"]
            for c in ("fwd_calls", "bwd_calls", "bwd_frozen_calls"):
                out[f"models.{v}.{c}"] = self.counts[f"models.{v}.{c}"]
        out.update({
            "models.load_model_ms": incl["models.load_model"],
            "models.load_model_calls": calls["models.load_model"],
            "models.clone_model_ms": incl["models.clone_model"],
            "optim.adam.step_ms": incl["optim.adam.step"],
            "optim.adam.step_calls": calls["optim.adam.step"],
            "optim.radam_lookahead.step_ms": incl["optim.radam_lookahead.step"],
            "optim.radam_lookahead.step_calls": calls["optim.radam_lookahead.step"],
            "training.self_ms": own["training.finetune"] + own["training.train"],
            "features.extract_ms": incl["features.extract_features"],
            "features.extract_calls": calls["features.extract_features"],
            "features.frames": self.counts["features.frames"],
            "audio.load_audio_ms": incl["audio.load_audio"],
            "audio.load_audio_calls": calls["audio.load_audio"],
            "audio.save_wav_ms": incl["audio.save_wav"],
            "synth.render_file_ms": incl["synth.render_file"],
            "synth.render_file_calls": calls["synth.render_file"],
            "evaluate.peak_pick_ms": incl["evaluate.peak_pick"],
            "evaluate.peak_pick_calls": calls["evaluate.peak_pick"],
            "evaluate.match_onsets_ms": incl["evaluate.match_onsets"],
            "experiment.extract_snippet_ms": incl["experiment.extract_snippet"],
            "experiment.extract_snippet_calls": calls["experiment.extract_snippet"],
            "experiment.evaluate_model_ms": incl["experiment.evaluate_model"],
            "experiment.evaluate_model_calls": calls["experiment.evaluate_model"],
            "experiment.self_ms": sum(ms for n, ms in own.items() if n.startswith("experiment.")),
            "cli.self_ms": own["cli.main"],
            "trace.spans": len(self.spans),
        })
        return out

    def write_chrome_trace(self, path, meta: dict) -> None:
        """All spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        t0 = min((s[1] for s in self.spans), default=0)
        events = [{"name": name, "ph": "X", "pid": 0, "tid": 0,
                   "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                   "args": {"id": i, "parent": parent}}
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": meta}))
