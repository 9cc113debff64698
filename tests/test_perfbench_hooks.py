"""The names the benchmark's tracer wraps still exist where it looks for them.

perfbench/tracing.py patches onsetkit functions by module and name, and each
optimizer's own `step` through the class `__dict__`; a rename or a `step`
moved into a base class would otherwise only fail a traced benchmark run.
It keeps its own copies of the variant and layer names, since it cannot
import onsetkit before its bootstrap; a renamed variant or layer would leave
the per-layer metrics at zero without an error.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    missing = [f"{module}.{name}" for module, names in tracing.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"onsetkit.{module}"), name, None))]
    assert missing == []


def test_each_optimizer_defines_its_own_step():
    optim = importlib.import_module("onsetkit.optim")
    assert set(load_tracing().OPTIMIZERS) == {"Adam", "RAdamLookahead"}
    for name in ("Adam", "RAdamLookahead"):
        assert callable(vars(getattr(optim, name)).get("step")), name


def test_variant_and_layer_names_match_the_models():
    tracing = load_tracing()
    models = importlib.import_module("onsetkit.models")
    assert tracing.VARIANTS == models.VARIANTS
    assert tracing.LAYERS == models.LAYER_NAMES
