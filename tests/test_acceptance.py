"""Acceptance suite: ten numbered end-to-end checks.

One test per criterion so `pytest -v` reports one pass/fail line each
(run with -s to see the per-criterion metrics while they pass). Heavy
artifacts -- the synthetic corpus, pretrained base models, and grid runs
-- are session fixtures shared between criteria; the transfer criteria
assert wall-clock budgets over the fixture timings they depend on.

Check 2 holds tcn_v1 to its published total (21,890, within 1%) and
requires the tcn_v2 total to equal the count derived in the test from its
documented layer shapes (39,697); it prints the per-layer breakdown either
way. See README.md for the arithmetic.

The tiny grid's results and the criterion 7 and 8 rows are also compared,
wall time stripped, with the golden copies in tests/golden/, so that a
change that moves any reported number shows in this suite.
"""

import importlib.util
import json
import sys
import time
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from onsetkit.audio import OnsetAnnotations
from onsetkit.errors import ShapeError
from onsetkit.evaluate import delta_pp, match_onsets
from onsetkit.experiment import (
    ExperimentConfig,
    evaluate_model,
    extract_snippet,
    load_dataset,
    pretrain_model,
    run_cycle,
    run_grid,
    write_report,
)
from onsetkit.layers import (
    Conv2d,
    Dense,
    DilatedConv1d,
    dropout_mask,
    elu,
    pool_freq3,
    sigmoid,
    unpool_freq3,
)
from onsetkit.models import (
    VARIANTS,
    FreezeConfig,
    build_model,
    canonical_freeze_ids,
    count_params,
    load_model,
    receptive_field,
    save_model,
)
from onsetkit.synth import CorpusSpec, default_corpus_spec, default_instruments, generate_corpus
from onsetkit.training import FinetuneConfig, finetune

from gradcheck import as_float64, gradcheck
from openblas import openblas_config
from results_text import strip_wall_column

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_base_recipe():
    """perfbench/make_base_models.py, read-only: the one definition of the
    base recipe. It imports perfbench's `common`, so perfbench/ is on the
    import path, and `common` in sys.modules, for this load only."""
    spec = importlib.util.spec_from_file_location("perfbench_make_base_models",
                                                  PERFBENCH / "make_base_models.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]), mock.patch.dict(sys.modules):
        spec.loader.exec_module(module)
    return module


RECIPE = load_base_recipe()  # CORPUS_SEED, PRETRAIN_SEED and each variant's (instruments, epochs)
HELD_OUT = "ring_bell"  # atypical envelope: 30 ms attack, long inharmonic ring
DENSE_VOICING = "snap_noise"  # densest non-grid part in the default roster
C8_EPOCHS = 120  # the slow-start optimizer of tcn_v2 needs a longer snippet run
C8_LR_SCALE = 1.0
# the benchmark's base models, pretrained by this recipe at one BLAS thread
COMMITTED_MODELS = PERFBENCH / "models"
# results CSVs of the fixtures below, wall time stripped, made at one BLAS thread
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def corpus(work, timings):
    """Five instruments x 10 files x 30 s, fixed seed."""
    t0 = time.perf_counter()
    out = work / "corpus"
    generate_corpus(default_corpus_spec(seed=RECIPE.CORPUS_SEED), out)
    timings["corpus"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def v1_base(work, corpus, timings):
    """tcn_v1 pretrained on the four ordinary instruments (ring_bell held out)."""
    instruments, epochs = RECIPE.RECIPES["tcn_v1"]
    assert HELD_OUT not in instruments
    t0 = time.perf_counter()
    model, _ = pretrain_model(corpus, instruments, "tcn_v1", epochs, seed=RECIPE.PRETRAIN_SEED)
    timings["pretrain_v1"] = time.perf_counter() - t0
    path = work / "v1_base.model"
    save_model(model, path)
    return path


@pytest.fixture(scope="session")
def v2_base(work, corpus, timings):
    """tcn_v2 supervised only on the beat-grid instruments (both time-keepers)."""
    instruments, epochs = RECIPE.RECIPES["tcn_v2"]
    t0 = time.perf_counter()
    model, _ = pretrain_model(corpus, instruments, "tcn_v2", epochs, seed=RECIPE.PRETRAIN_SEED)
    timings["pretrain_v2"] = time.perf_counter() - t0
    path = work / "v2_base.model"
    save_model(model, path)
    return path


@pytest.fixture(scope="session")
def transfer7(work, corpus, v1_base, timings):
    """The criterion-7 cycle, run twice for the determinism check."""
    cfg = ExperimentConfig(corpus=corpus, base_models={"tcn_v1": v1_base},
                           seed=0, out_dir=work / "c7")
    dataset = load_dataset(corpus)
    cache = {}
    t0 = time.perf_counter()
    row_a = run_cycle(v1_base, HELD_OUT, "ft", cfg, dataset=dataset, cache=cache)
    timings["cycle7"] = time.perf_counter() - t0
    row_b = run_cycle(v1_base, HELD_OUT, "ft", cfg, dataset=dataset, cache=cache)
    return row_a, row_b


@pytest.fixture(scope="session")
def transfer8(work, corpus, v2_base, timings):
    """The criterion-8 cycle (beat-pretrained -> dense voicing onsets), twice."""
    cfg = ExperimentConfig(corpus=corpus, base_models={"tcn_v2": v2_base},
                           epochs=C8_EPOCHS, lr_scale=C8_LR_SCALE,
                           seed=0, out_dir=work / "c8")
    dataset = load_dataset(corpus)
    cache = {}
    t0 = time.perf_counter()
    row_a = run_cycle(v2_base, DENSE_VOICING, "ft", cfg, dataset=dataset, cache=cache)
    timings["cycle8"] = time.perf_counter() - t0
    row_b = run_cycle(v2_base, DENSE_VOICING, "ft", cfg, dataset=dataset, cache=cache)
    return row_a, row_b


@pytest.fixture(scope="session")
def tiny_grid(work):
    """Full 2 x 5 x 15 grid on a small corpus, run twice into separate dirs."""
    corpus_dir = work / "tiny-corpus"
    spec = CorpusSpec(default_instruments(), files_per_instrument=2,
                      file_duration=5.0, tempo=180.0, seed=7)
    generate_corpus(spec, corpus_dir)
    models = {}
    for variant in VARIANTS:
        path = work / f"{variant}_untrained.model"
        save_model(build_model(variant, seed=3), path)
        models[variant] = path

    def run(tag):
        out = work / tag
        cfg = ExperimentConfig(corpus=corpus_dir, base_models=models,
                               epochs=2, seed=11, out_dir=out)
        rows = run_grid(cfg)
        csv_path, _ = write_report(rows, out)
        return rows, csv_path, out

    rows_a, csv_a, out_a = run("grid-a")
    rows_b, csv_b, out_b = run("grid-b")
    return {"corpus": corpus_dir, "models": models,
            "rows": rows_a, "csv": csv_a, "out": out_a,
            "rows2": rows_b, "csv2": csv_b}


def test_criterion_01_receptive_field_anchors():
    """Conv3 spans 50 ms in both variants; Tcn2 spans 170 ms vs 410 ms."""
    t0 = time.perf_counter()
    v1 = build_model("tcn_v1", seed=0)
    v2 = build_model("tcn_v2", seed=0)
    assert receptive_field(v1, "Conv3") == (5, 50.0)
    assert receptive_field(v2, "Conv3") == (5, 50.0)
    assert receptive_field(v1, "Tcn2") == (17, 170.0)
    assert receptive_field(v2, "Tcn2") == (41, 410.0)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_parameter_count_anchors():
    """tcn_v1 against its published total, tcn_v2 against its documented
    layer shapes; the breakdown prints first.

    tcn_v1 follows Davies & Böck (EUSIPCO 2019), whose 21,890 parameters
    it must match within 1%. tcn_v2 has no published total. This check
    used to hold it to 116,302 within 10%, an anchor that no document in
    the repository specifies or derives. It is not a bound for this
    network: keeping the documented front end, adapter and two-conv levels
    and varying only the trunk width W gives 121 W^2 + 55 W + 7,841
    parameters, so only W = 29..31 lands within 10% of 116,302, while the
    documented W = 16 gives 39,697. The tcn_v2 total must therefore equal
    the closed form below, written over the README's layer shapes.
    """
    t0 = time.perf_counter()
    v2_expected = (
        3 * 3 * 1 * 20 + 20  # Conv1: 3x3, 1 -> 20 filters
        + 1 * 10 * 20 * 20 + 20  # Conv2: 1x10, 20 -> 20
        + 3 * 3 * 20 * 20 + 20  # Conv3: 3x3, 20 -> 20
        + 20 * 16 + 16  # Tcn1 entry: 1x1 adapter, 20 -> 16 channels
        # 11 levels: k=5 dilated convs at d and 2d, then a 1x1 mix, all 16 -> 16
        + 11 * (2 * (5 * 16 * 16 + 16) + 16 * 16 + 16)
        + 16 * 1 + 1  # Out: dense 16 -> 1
    )
    measured = {}
    for variant in VARIANTS:
        total, breakdown = count_params(build_model(variant, seed=0))
        print(f"\n{variant}: {total} parameters")
        for name, n in breakdown.items():
            print(f"  {name:<8} {n:>7}")
        measured[variant] = total
    assert time.perf_counter() - t0 < 1.0
    v1_anchor = 21890
    assert abs(measured["tcn_v1"] - v1_anchor) <= 0.01 * v1_anchor, (
        f"tcn_v1 has {measured['tcn_v1']} parameters, off the published "
        f"{v1_anchor} by {abs(measured['tcn_v1'] - v1_anchor) / v1_anchor:.1%} (> 1%)")
    assert measured["tcn_v2"] == v2_expected, (
        f"tcn_v2 has {measured['tcn_v2']} parameters, "
        f"not the {v2_expected} its documented layer shapes give")


def test_criterion_03_frontend_band_arithmetic():
    """Both front-ends walk their band chains down to exactly one band."""
    t0 = time.perf_counter()
    chains = {"tcn_v1": [81, 79, 26, 24, 8, 1], "tcn_v2": [81, 79, 26, 17, 5, 3, 1]}
    for variant, chain in chains.items():
        model = build_model(variant, seed=0)
        got = [81]
        for nl in model.layers:
            if not nl.name.startswith("Conv"):
                break
            got.append(got[-1] - nl.block.conv.kf + 1)
            if nl.block.pool:
                got.append(got[-1] // 3)
        assert got == chain, f"{variant}: band chain {got} != {chain}"
        assert model.forward(np.zeros((20, 81))).shape == (20,)
        for bad in (80, 82, 27):
            with pytest.raises(ShapeError):
                model.forward(np.zeros((20, bad)))
    assert time.perf_counter() - t0 < 1.0


class _FnLayer:
    """gradcheck's layer protocol over a function: fn(x) returns the
    output and its backward, a function of the output gradient."""

    def __init__(self, fn):
        self._fn = fn
        self.params = {}
        self.grads = {}

    def forward(self, x, keep=False):
        y, self._backward = self._fn(x)
        return y

    def backward(self, gy):
        return self._backward(gy)


def _pool_fn(x):
    y, winners = pool_freq3(x, keep=True)
    return y, lambda gy: unpool_freq3(gy, winners, x.shape)


def _elu_fn(x):
    y, d = elu(x)
    d += 1.0
    return y, lambda gy: gy * d


def _sigmoid_fn(x):
    y = sigmoid(x)
    return y, lambda gy: gy * y * (1.0 - y)


def _pinned_dropout_fn(rate, seed):
    """Training-mode dropout reseeded per call, so the mask is a fixed
    function of nothing and finite differences see a smooth map."""

    def fn(x):
        mask = dropout_mask(x.shape, rate, np.random.default_rng(seed))
        scale = 1.0 / (1.0 - rate)
        return x * mask * scale, lambda gy: gy * mask * scale

    return fn


def _pool_winners(model):
    # pooling argmaxes from the latest forward; the model's only kinks
    return [nl.block._arg.copy() for nl in model.layers
            if nl.name.startswith("Conv") and nl.block.pool]


def _composition_fd(model, x, seed, h=1e-5, max_coords=6):
    """Projected central differences through the whole model.

    A coordinate whose +-h interval flips a pooling argmax is skipped:
    the map is not differentiable there, so the difference quotient
    measures the kink rather than the gradient. Every other op is smooth
    (ELU has a continuous first derivative). Returns the worst relative
    error plus how many coordinates were checked and skipped.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=np.float64).copy()

    def run():  # dropout_rate=0.0, so training mode draws nothing
        return model.forward(x, training=True)

    proj = rng.standard_normal(run().shape)
    gx = model.backward(proj).copy()
    params = model.param_dict()
    grads = {k: v.copy() for k, v in model.grad_dict().items()}
    tensors = [(x, gx)] + [(params[k], grads[k]) for k in params]
    worst, checked, skipped = 0.0, 0, 0
    for arr, grad in tensors:
        size = arr.size
        coords = np.arange(size) if size <= max_coords else rng.choice(size, max_coords, False)
        for ci in coords:
            orig = arr.flat[ci]
            arr.flat[ci] = orig + h
            fp, win_p = float(np.sum(proj * run())), _pool_winners(model)
            arr.flat[ci] = orig - h
            fm, win_m = float(np.sum(proj * run())), _pool_winners(model)
            arr.flat[ci] = orig
            if any(not np.array_equal(a, b) for a, b in zip(win_p, win_m)):
                skipped += 1
                continue
            numeric = (fp - fm) / (2.0 * h)
            analytic = float(grad.flat[ci])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, rel)
            checked += 1
    return worst, checked, skipped


def test_criterion_04_gradient_correctness():
    """Analytic vs central differences for every layer type and both models."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    worst = {}
    worst["conv2d"] = gradcheck(
        as_float64(Conv2d(3, 3, 2, 4, rng=rng)), rng.standard_normal((9, 9, 2)), seed=201)
    worst["maxpool_freq3"] = gradcheck(
        _FnLayer(_pool_fn), rng.standard_normal((6, 9, 3)), seed=202)
    worst["dilated_conv1d"] = gradcheck(
        as_float64(DilatedConv1d(5, 3, 3, dilation=8, rng=rng)),
        rng.standard_normal((48, 3)), seed=203)
    worst["dense"] = gradcheck(
        as_float64(Dense(7, 4, rng=rng)), rng.standard_normal((15, 7)), seed=204)
    worst["elu"] = gradcheck(_FnLayer(_elu_fn), rng.standard_normal((10, 6)), seed=205)
    worst["sigmoid"] = gradcheck(_FnLayer(_sigmoid_fn), rng.standard_normal((10, 6)), seed=206)
    worst["dropout"] = gradcheck(
        _FnLayer(_pinned_dropout_fn(0.4, seed=7)), rng.standard_normal((10, 6)), seed=207)
    for variant in VARIANTS:
        model = as_float64(build_model(variant, seed=4, dropout_rate=0.0))
        x = 0.1 * np.random.default_rng(50).standard_normal((64, 81))
        err, checked, skipped = _composition_fd(model, x, seed=208)
        print(f"  {variant}: {checked} coordinates checked, {skipped} skipped at pool ties")
        assert checked >= 250
        assert skipped <= checked // 20
        worst[variant] = err
    for name, err in worst.items():
        print(f"  {name:<16} rel err {err:.3e}")
        assert err < 1e-4, f"{name}: relative error {err:.3e}"
    elapsed = time.perf_counter() - t0
    print(f"  gradient suite in {elapsed:.1f}s")
    assert elapsed < 120.0


def _max_matching(est, ref, tol):
    """Exhaustive maximum-matching cardinality over estimate bitmasks."""

    @lru_cache(maxsize=None)
    def best(j, used):
        if j == len(ref):
            return 0
        score = best(j + 1, used)
        for i, e in enumerate(est):
            if not used & (1 << i) and abs(e - ref[j]) <= tol:
                score = max(score, 1 + best(j + 1, used | (1 << i)))
        return score

    return best(0, 0)


def test_criterion_05_matching_oracle():
    """Greedy matching attains the brute-force optimum on 200 random cases."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    for _ in range(200):
        est = OnsetAnnotations(times=np.sort(rng.uniform(0, 1, rng.integers(0, 7))))
        ref = OnsetAnnotations(times=np.sort(rng.uniform(0, 1, rng.integers(0, 7))))
        tol = float(rng.uniform(0.004, 0.09))
        got = match_onsets(est, ref, tol)
        assert got.tp == _max_matching(tuple(est.times), tuple(ref.times), tol)
        assert got.fp == len(est.times) - got.tp
        assert got.fn == len(ref.times) - got.tp
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_protocol_counts(tiny_grid):
    """2 x 5 x 15 grid: 150 rows, snippet file held out, frozen layers intact."""
    rows = tiny_grid["rows"]
    assert len(rows) == 150
    assert len({(r.model, r.instrument, r.freeze_id) for r in rows}) == 150
    assert {r.model for r in rows} == set(VARIANTS)
    assert len({r.instrument for r in rows}) == 5
    assert {r.freeze_id for r in rows} == set(canonical_freeze_ids())

    journal = [json.loads(line)
               for line in (tiny_grid["out"] / "journal.jsonl").read_text().splitlines()]
    assert len(journal) == 150
    assert all(entry["status"] == "ok" for entry in journal)

    # the snippet source (lowest index) never reaches an evaluation list
    dataset = load_dataset(tiny_grid["corpus"])
    model = load_model(tiny_grid["models"]["tcn_v1"])
    for name, pairs in dataset.items():
        _, _, held = extract_snippet(pairs)
        assert held == min(p.index for p in pairs) == 1
        result = evaluate_model(model, pairs, held)
        assert sorted(result.per_file) == [2]
    assert all(r.n_files == 1 for r in rows)

    # independent bitwise probe beside the certificate run_cycle applies
    feats, targets, _ = extract_snippet(dataset["clack_mix"])
    freeze = FreezeConfig.from_id("ft_Tcn32")
    for variant in VARIANTS:
        base = load_model(tiny_grid["models"][variant])
        before = {k: v.tobytes() for k, v in base.param_dict().items()}
        adapted = finetune(base, (feats, targets),
                           FinetuneConfig(freeze=freeze, seed=99, epochs=2))
        after = adapted.param_dict()
        frozen = [k for k in after if k.split(".")[0] in freeze.frozen]
        thawed = [k for k in after if k.split(".")[0] not in freeze.frozen]
        assert frozen and all(before[k] == after[k].tobytes() for k in frozen)
        assert any(before[k] != after[k].tobytes() for k in thawed)


def test_criterion_07_synthetic_transfer(transfer7, timings):
    """Snippet fine-tuning lifts the held-out instrument to >= 0.85 mean F1."""
    row, _ = transfer7
    print(f"\n  {HELD_OUT}: baseline {row.baseline_f1:.3f} -> adapted {row.mean_f1:.3f} "
          f"({row.delta_pp:+.1f} pp over {row.n_files} files)")
    assert row.n_files >= 8
    assert row.mean_f1 >= 0.85
    assert row.delta_pp >= 15.0
    total = timings["corpus"] + timings["pretrain_v1"] + timings["cycle7"]
    print(f"  synthesize + pretrain + adapt + evaluate: {total:.0f}s")
    assert total < 900.0


def test_criterion_08_cross_task_transfer(transfer8, timings):
    """Beat-grid-pretrained tcn_v2 gains >= 10 pp on dense voicing onsets."""
    row, _ = transfer8
    print(f"\n  {DENSE_VOICING}: baseline {row.baseline_f1:.3f} -> adapted {row.mean_f1:.3f} "
          f"({row.delta_pp:+.1f} pp over {row.n_files} files)")
    assert row.n_files >= 8
    assert row.delta_pp >= 10.0  # no absolute floor: cross-task transfer is weaker
    total = timings["corpus"] + timings["pretrain_v2"] + timings["cycle8"]
    print(f"  synthesize + pretrain + adapt + evaluate: {total:.0f}s")
    assert total < 900.0


def test_criterion_09_determinism(tiny_grid, transfer7, transfer8, work):
    """Reruns with identical seeds reproduce the CSVs, wall time aside."""
    grid_a = strip_wall_column(Path(tiny_grid["csv"]).read_text())
    grid_b = strip_wall_column(Path(tiny_grid["csv2"]).read_text())
    assert grid_a == grid_b
    for tag, (row_a, row_b) in {"c7": transfer7, "c8": transfer8}.items():
        csv_a, _ = write_report([row_a], work / f"det-{tag}-a")
        csv_b, _ = write_report([row_b], work / f"det-{tag}-b")
        assert strip_wall_column(csv_a.read_text()) == strip_wall_column(csv_b.read_text())


def test_criterion_10_delta_arithmetic():
    """Published-scale deltas: +50.8 and +49.0 within rounding."""
    t0 = time.perf_counter()
    assert round(delta_pp(0.985, 0.477), 1) == 50.8
    assert round(delta_pp(0.998, 0.508), 1) == 49.0
    assert time.perf_counter() - t0 < 1.0


def test_base_recipe_matches_committed_models(v1_base, v2_base):
    # the v1_base and v2_base fixtures are the recipe of
    # perfbench/make_base_models.py; its files were made at one BLAS
    # thread, where the floats must match, and other counts may sum a
    # matrix product in another order
    threads = openblas_config()[1]
    for variant, path in (("tcn_v1", v1_base), ("tcn_v2", v2_base)):
        if path.read_bytes() == (COMMITTED_MODELS / f"{variant}.model").read_bytes():
            continue
        if threads != "1":
            pytest.skip(f"{variant} differs from the committed model at {threads} BLAS threads")
        pytest.fail(f"the base recipe's {variant} model differs from the committed one")


def check_golden(name, csv_text):
    """csv_text, wall time stripped, equals the golden copy `name`. Like the
    base models, the goldens were made at one BLAS thread, where the text
    must match; other counts may sum a matrix product in another order."""
    got, want = strip_wall_column(csv_text), (GOLDEN / name).read_text()
    threads = openblas_config()[1]
    if got != want and threads != "1":
        pytest.skip(f"{name} differs from its golden copy at {threads} BLAS threads")
    assert got == want


def test_tiny_grid_results_match_golden(tiny_grid):
    check_golden("tiny_grid.csv", Path(tiny_grid["csv"]).read_text())


@pytest.mark.parametrize("criterion", ["07", "08"])
def test_transfer_row_matches_golden(criterion, request, work):
    row, _ = request.getfixturevalue(f"transfer{int(criterion)}")
    csv_path, _ = write_report([row], work / f"golden-c{criterion}")
    check_golden(f"criterion_{criterion}.csv", csv_path.read_text())
