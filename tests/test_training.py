import numpy as np
import pytest

from onsetkit.audio import OnsetAnnotations
from onsetkit.errors import AnnotationError, ConfigError, DivergenceError, ShapeError
from onsetkit.models import FreezeConfig, apply_freeze, build_model, save_model
from onsetkit.training import FinetuneConfig, finetune, make_targets, train

from model_caches import assert_holds_no_caches


def model_bytes(model, tmp_path, tag):
    p = tmp_path / f"{tag}.model"
    save_model(model, p)
    return p.read_bytes()


def test_make_targets_single_onset():
    y = make_targets(OnsetAnnotations(times=[1.0]), 500)
    assert y[100] == 1.0
    assert y[99] == 0.5 and y[101] == 0.5
    assert y.sum() == 2.0


def test_make_targets_empty():
    assert np.array_equal(make_targets(OnsetAnnotations(), 50), np.zeros(50))


def test_make_targets_close_pair_keeps_ones():
    # onsets 20 ms apart: frames 100 and 102 stay 1.0, 101 capped at 0.5
    y = make_targets(OnsetAnnotations(times=[1.0, 1.02]), 200)
    assert y[100] == 1.0 and y[102] == 1.0
    assert y[101] == 0.5
    assert y[99] == 0.5 and y[103] == 0.5


def test_make_targets_edges():
    y = make_targets(OnsetAnnotations(times=[0.0]), 10)
    assert y[0] == 1.0 and y[1] == 0.5
    # nearest frame of 0.098s at 10 frames clamps into range
    y = make_targets(OnsetAnnotations(times=[0.098]), 10)
    assert y[9] == 1.0 and y[8] == 0.5
    with pytest.raises(AnnotationError):
        make_targets(OnsetAnnotations(times=[0.1]), 10)


def tiny_corpus(n_frames=10, n_items=1, seed=0, target=1.0):
    rng = np.random.default_rng(seed)
    return [
        (rng.uniform(0, 1, (n_frames, 81)), np.full(n_frames, target)) for _ in range(n_items)
    ]


def test_train_zero_lr_keeps_params(tmp_path):
    m = build_model("tcn_v1", seed=0)
    before = model_bytes(m, tmp_path, "before")
    _, history = train(m, tiny_corpus(), epochs=1, lr=0.0, seed=1)
    assert len(history) == 1
    assert model_bytes(m, tmp_path, "after") == before


def test_train_converges_on_constant_target():
    m = build_model("tcn_v1", seed=2)
    _, history = train(m, tiny_corpus(seed=3), epochs=200, lr=0.02, seed=4)
    assert len(history) == 200
    assert history[-1] < 0.05


def test_train_deterministic():
    h = []
    for _ in range(2):
        m = build_model("tcn_v2", seed=5)
        _, hist = train(m, tiny_corpus(n_items=3, seed=6), epochs=3, lr=1e-3, seed=7)
        h.append(hist)
    assert h[0] == h[1]


def test_train_errors():
    m = build_model("tcn_v1", seed=0)
    with pytest.raises(ConfigError):
        train(m, [], epochs=1)
    with pytest.raises(ConfigError):
        train(m, tiny_corpus(), epochs=0)
    with pytest.raises(ConfigError):
        train(m, tiny_corpus() + [(np.zeros((0, 81)), np.zeros(0))], epochs=1)
    bad = [(np.zeros((10, 81)), np.zeros(9))]
    with pytest.raises(ShapeError):
        train(m, bad, epochs=1)
    apply_freeze(m, FreezeConfig.from_id("ft_Conv1"))  # features go to a frozen Conv1 first
    with pytest.raises(ShapeError):
        train(m, [(np.zeros((10, 80)), np.zeros(10))], epochs=1)


@pytest.mark.parametrize("fid, runs", [("ft", 5 * 3), ("ft_Conv1", 3), ("ft_Tcn16", 3)])
def test_frozen_conv1_runs_its_conv_once_per_item(fid, runs):
    # items short enough for one time block each: one conv call per forward
    m = apply_freeze(build_model("tcn_v2", seed=3), FreezeConfig.from_id(fid))
    conv, calls = m.layers[0].block.conv, []
    inner = conv.forward
    conv.forward = lambda *args, **kwargs: calls.append(1) or inner(*args, **kwargs)
    train(m, tiny_corpus(n_frames=40, n_items=3), epochs=5, seed=4)
    assert len(calls) == runs


def test_train_divergence_reports_epoch():
    m = build_model("tcn_v1", seed=0)
    poisoned = [(np.full((10, 81), np.nan), np.zeros(10))]
    with pytest.raises(DivergenceError) as err:
        train(m, poisoned, epochs=3)
    assert err.value.epoch == 0
    assert err.value.last_loss is None  # the first step diverged
    assert_holds_no_caches(m)  # the diverged step's caches go too


def _losses_then_nan(monkeypatch, finite):
    """Make the training loops see the given losses, then NaN."""
    import onsetkit.training as training

    seen = iter(finite)
    monkeypatch.setattr(training, "bce_loss", lambda p, t: next(seen, float("nan")))


def test_train_divergence_carries_last_finite_loss(monkeypatch):
    _losses_then_nan(monkeypatch, [0.75, 0.625])
    x = np.zeros((10, 81))
    with pytest.raises(DivergenceError) as err:
        train(build_model("tcn_v1", seed=0), [(x, np.zeros(10)), (x, np.zeros(10))], epochs=3)
    assert (err.value.epoch, err.value.last_loss) == (1, 0.625)
    assert "0.625" in str(err.value)


def test_finetune_divergence_carries_last_finite_loss(monkeypatch):
    _losses_then_nan(monkeypatch, [0.75])
    cfg = FinetuneConfig(freeze=FreezeConfig.from_id("ft_Conv3"), seed=0, epochs=3)
    with pytest.raises(DivergenceError) as err:
        finetune(build_model("tcn_v2", seed=0), (np.zeros((10, 81)), np.zeros(10)), cfg)
    assert (err.value.epoch, err.value.last_loss) == (1, 0.75)
    assert "0.75" in str(err.value)


@pytest.mark.parametrize("variant", ["tcn_v1", "tcn_v2"])
def test_trained_models_hold_no_caches(variant):
    m = build_model(variant, seed=8)
    assert train(m, tiny_corpus(n_frames=40, n_items=2, seed=9), epochs=2, seed=10)[0] is m
    assert_holds_no_caches(m)
    for fid in ("ft", "ft_Conv3"):
        config = FinetuneConfig(freeze=FreezeConfig.from_id(fid), seed=11, epochs=2)
        assert_holds_no_caches(finetune(m, tiny_corpus(n_frames=40, seed=12)[0], config))


def test_finetune_config_validation():
    cfg = FreezeConfig.from_id("ft")
    with pytest.raises(ConfigError):
        FinetuneConfig(freeze=cfg, seed=0, epochs=0)
    with pytest.raises(ConfigError):
        FinetuneConfig(freeze=cfg, seed=0, lr_scale=0.0)
    with pytest.raises(ConfigError):
        FinetuneConfig(freeze=cfg, seed=0, lr_scale=1.5)
    for bad in (dict(lr_scale=np.nan), dict(base_lr=-1.0), dict(base_lr=0.0),
                dict(base_lr=np.nan), dict(base_lr=np.inf)):
        with pytest.raises(ConfigError):
            FinetuneConfig(freeze=cfg, seed=0, **bad)
    assert FinetuneConfig(freeze=cfg, seed=0).epochs == 50
    assert FinetuneConfig(freeze=cfg, seed=0).lr_scale == 0.25


def test_finetune_respects_freeze(tmp_path):
    rng = np.random.default_rng(20)
    snippet = (rng.uniform(0, 1, (40, 81)), make_targets(OnsetAnnotations(times=[0.1, 0.25]), 40))
    m = build_model("tcn_v1", seed=21)
    cfg = FinetuneConfig(freeze=FreezeConfig.from_id("ft_Conv3"), seed=22, epochs=5)
    adapted = finetune(m, snippet, cfg)

    base = m.param_dict()
    after = adapted.param_dict()
    for name in ("Conv1", "Conv2", "Conv3"):
        for key, val in base.items():
            if key.startswith(name + "."):
                assert np.array_equal(after[key], val), key
    # something outside the frozen prefix moved
    assert any(
        not np.array_equal(after[k], v) for k, v in base.items() if k.startswith("Out.")
    )


def test_finetune_all_frozen_only_out_moves():
    rng = np.random.default_rng(23)
    snippet = (rng.uniform(0, 1, (30, 81)), make_targets(OnsetAnnotations(times=[0.15]), 30))
    m = build_model("tcn_v2", seed=24)
    cfg = FinetuneConfig(freeze=FreezeConfig.from_id("ft_Tcn1024"), seed=25, epochs=3)
    adapted = finetune(m, snippet, cfg)
    for key, val in m.param_dict().items():
        same = np.array_equal(adapted.param_dict()[key], val)
        assert same == (not key.startswith("Out.")), key


def test_finetune_zero_gradient_fixed_point(tmp_path):
    # zero features -> activation exactly 0.5; target 0.5 -> zero gradients
    m = build_model("tcn_v1", seed=26)
    snippet = (np.zeros((20, 81)), np.full(20, 0.5))
    cfg = FinetuneConfig(freeze=FreezeConfig.from_id("ft"), seed=27, epochs=4)
    adapted = finetune(m, snippet, cfg)
    assert model_bytes(adapted, tmp_path, "a") == model_bytes(m, tmp_path, "b")


def test_finetune_deterministic(tmp_path):
    rng = np.random.default_rng(28)
    snippet = (rng.uniform(0, 1, (25, 81)), make_targets(OnsetAnnotations(times=[0.1]), 25))
    m = build_model("tcn_v2", seed=29)
    cfg = FinetuneConfig(freeze=FreezeConfig.from_id("ft_Tcn4"), seed=30, epochs=4)
    a = finetune(m, snippet, cfg)
    b = finetune(m, snippet, cfg)
    assert model_bytes(a, tmp_path, "a") == model_bytes(b, tmp_path, "b")


def test_finetune_leaves_input_model_untouched(tmp_path):
    rng = np.random.default_rng(31)
    snippet = (rng.uniform(0, 1, (25, 81)), np.zeros(25))
    m = build_model("tcn_v1", seed=32)
    before = model_bytes(m, tmp_path, "before")
    finetune(m, snippet, FinetuneConfig(freeze=FreezeConfig.from_id("ft"), seed=33, epochs=2))
    assert model_bytes(m, tmp_path, "after") == before


def test_finetune_without_dropout_is_dropout_free_finetune(tmp_path):
    rng = np.random.default_rng(34)
    snippet = (rng.uniform(0, 1, (30, 81)), make_targets(OnsetAnnotations(times=[0.1]), 30))
    m = build_model("tcn_v1", seed=35)
    twin = build_model("tcn_v1", seed=35, dropout_rate=0.0)
    freeze = FreezeConfig.from_id("ft_Conv2")
    a = finetune(m, snippet, FinetuneConfig(freeze=freeze, seed=36, epochs=3,
                                            dropout_active=False))
    b = finetune(twin, snippet, FinetuneConfig(freeze=freeze, seed=36, epochs=3))
    for key, value in a.param_dict().items():
        assert value.tobytes() == b.param_dict()[key].tobytes(), key
    assert m.dropout_rate == 0.1
