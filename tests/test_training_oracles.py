"""The training path against the formulas it replaced, bit for bit.

The references below are the textbook forms: ELU through np.where with a
cached output, pooling through argmax with take_along_axis and
put_along_axis, dropout as a product with a float mask, a conv stage and
its input gradient over the whole length at once with every cache at full
resolution, a dilated conv through a kept np.pad + np.concatenate tap
matrix, the in-place inference ELU as a masked expm1, and training as a
full training forward of every block in every step. The blocks now keep
ELU's derivative, bool dropout survivors and uint8 pool winners (a
pooling stage the first two only at the winning bins), a dilated conv
keeps its input and rebuilds the tap matrix, they work in place and in
time blocks, and training computes a frozen Conv1's output once per item
and runs the frozen blocks above it cache-free; every comparison is by
tobytes(), so a changed sign of zero fails too.
"""

import numpy as np
import pytest

from onsetkit.layers import (BLOCK_FRAMES, Conv2d, DilatedConv1d, bce_loss, bce_loss_grad, elu,
                             pool_freq3, time_blocks, unpool_freq3)
from onsetkit.models import (
    VARIANT_SPECS,
    VARIANTS,
    FreezeConfig,
    Model,
    apply_freeze,
    build_model,
    canonical_freeze_ids,
    clone_model,
)
from onsetkit.training import FinetuneConfig, finetune, train

# signed zeros, subnormals, a value whose expm1 rounds to itself, and a
# saturated ELU (expm1(-800) is exactly -1.0, so pools see ties)
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, -1e-17, 1e-17,
                  -800.0, -1.0, 1.0, -37.5, 3.25])


def edge_inputs(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 2.0, shape)
    pick = rng.random(shape) < 0.6
    x[pick] = rng.choice(EDGES, size=int(pick.sum()))
    return x


def elu_ref(x):
    neg = x < 0
    y = np.where(neg, np.expm1(np.minimum(x, 0.0)), x)
    return y, np.where(neg, y + 1.0, 1.0)


def pool_ref(x):
    t, f, c = x.shape
    f3 = f // 3
    xr = x[:, : f3 * 3].reshape(t, f3, 3, c)
    arg = xr.argmax(axis=2)

    def backward(gy):
        gxr = np.zeros((t, f3, 3, c))
        np.put_along_axis(gxr, arg[:, :, None, :], gy[:, :, None, :], axis=2)
        gx = np.zeros((t, f, c))
        gx[:, : f3 * 3] = gxr.reshape(t, f3 * 3, c)
        return gx

    return np.take_along_axis(xr, arg[:, :, None, :], axis=2)[:, :, 0, :], arg, backward


def test_elu_training_matches_where_formulas():
    x = edge_inputs((300, 7), 1)
    x[:, 0] = EDGES[np.arange(300) % len(EDGES)]
    gy = edge_inputs(x.shape, 2)
    want_y, want_d = elu_ref(x)
    before = x.copy()
    y, d = elu(x)
    assert x.tobytes() == before.tobytes()  # the input is not written
    assert y.tobytes() == want_y.tobytes()
    d += 1.0  # the derivative, as the blocks keep it
    assert (gy * d).tobytes() == (gy * want_d).tobytes()
    assert d.tobytes() == want_d.tobytes()


@pytest.mark.parametrize("bands", [3, 10, 26, 81])
def test_maxpool_training_matches_argmax(bands):
    # ties of every kind: signed zeros, repeated values, saturated ELUs;
    # bands not divisible by 3 leave a remainder bin that gets no gradient
    rng = np.random.default_rng(bands)
    raw = rng.choice(np.concatenate([EDGES, [2.0, 2.0, -1.5]]), size=(60, bands, 5))
    for x in (raw, elu_ref(raw)[0], edge_inputs((60, bands, 5), bands)):
        want_y, want_arg, want_backward = pool_ref(x)
        y, winners = pool_freq3(x, keep=True)
        assert y.tobytes() == want_y.tobytes()
        assert winners.dtype == np.uint8
        assert np.array_equal(winners, want_arg)
        gy = edge_inputs(y.shape, bands + 1)
        assert unpool_freq3(gy, winners, x.shape).tobytes() == want_backward(gy).tobytes()
        out = np.full(x.shape, np.nan)  # every bin is written
        assert unpool_freq3(gy, winners, x.shape, out=out) is out
        assert out.tobytes() == want_backward(gy).tobytes()


def conv_input_grad_ref(conv, gy, in_shape):
    """Conv2d's input gradient as one whole-length scatter, tap by tap."""
    w = conv.params["w"].astype(np.float64)
    t_out, f_out = gy.shape[:2]
    gy2 = gy.reshape(-1, conv.cout)
    gx = np.zeros(in_shape)
    for i in range(conv.kt):
        for j in range(conv.kf):
            gx[i : i + t_out, j : j + f_out] += (gy2 @ w[i, j].T).reshape(t_out, f_out, conv.cin)
    return gx


def stage_ref(stage, x, rng, gy):
    """A conv stage's training forward and backward in the old formulas,
    over the whole length at once.

    Returns (output, dLoss/dinput, conv weight grads)."""
    conv = Conv2d(stage.conv.kt, stage.conv.kf, stage.conv.cin, stage.conv.cout)
    conv.params = stage.conv.params
    p = stage.pad_t
    xp = np.pad(x, ((p, p), (0, 0), (0, 0)))
    y = conv.forward(xp, keep=True)
    y, d = elu_ref(y)
    rate = stage.rate
    mask = (rng.random(y.shape) >= rate) / (1.0 - rate) if rate else None
    if mask is not None:
        y = y * mask
    pool_backward = None
    if stage.pool:
        y, _, pool_backward = pool_ref(y)
    g = pool_backward(gy) if pool_backward else gy
    if mask is not None:
        g = g * mask
    g = g * d
    conv.backward(g, input_grad=False)
    gx = conv_input_grad_ref(conv, g, xp.shape)
    return y, gx[p : gx.shape[0] - p], conv.grads


B = BLOCK_FRAMES
# one block, and the multi-block lengths of test_models' BLOCK_PROBE_FRAMES
STAGE_PROBE_FRAMES = (40, B - 1, B, B + 1, 2 * B + 1, 500, 3001)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
def test_conv_stage_training_matches_old_formulas(variant, rate):
    for frames in STAGE_PROBE_FRAMES:
        model = build_model(variant, seed=5, dropout_rate=rate)
        bands, cin = 81, 1
        for i, nl in enumerate(model.layers[:3]):
            stage = nl.block
            # zeroed input rows leave the bias alone, and a bias of -800 on
            # one channel saturates its ELU: both give pooling ties
            stage.conv.params["b"][...] = np.linspace(-1.0, 1.0, stage.conv.cout)
            stage.conv.params["b"][0] = -800.0
            x = edge_inputs((frames, bands, cin), 10 + i)
            x[::4] = 0.0
            out_shape = (frames, stage.out_bands(bands), stage.conv.cout)
            gy = edge_inputs(out_shape, 20 + i)
            want_rng = np.random.default_rng(i)
            want_y, want_gx, want_grads = stage_ref(stage, x, want_rng, gy)
            rng = np.random.default_rng(i)
            y = stage.forward(x, rng, keep=True)
            where = (nl.name, frames, rate)
            assert y.tobytes() == want_y.tobytes(), where
            assert rng.random() == want_rng.random(), where  # every mask drawn, none extra
            gy_before = gy.copy()
            gx = stage.backward(gy)
            assert gy.tobytes() == gy_before.tobytes(), where  # the gradient is not written
            assert gx.tobytes() == want_gx.tobytes(), where
            for k, v in want_grads.items():
                assert stage.conv.grads[k].tobytes() == v.tobytes(), (k,) + where
            bands, cin = out_shape[1], out_shape[2]


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_conv_input_gradient_matches_the_tap_by_tap_formula(variant):
    # every stage's conv given time blocks whatever its size (Conv1's one
    # input channel keeps one block), from gradients with signed zeros,
    # subnormals and whole zero frames
    model = build_model(variant, seed=8)
    for frames in STAGE_PROBE_FRAMES:
        bands = 81
        for i, nl in enumerate(model.layers[:3]):
            conv = nl.block.conv
            xp = edge_inputs((frames + conv.kt - 1, bands, conv.cin), 30 + i)
            conv.forward(xp, keep=True)
            gy = edge_inputs((frames, bands - conv.kf + 1, conv.cout), 40 + i)
            gy[::5] = 0.0
            spans = time_blocks(frames)
            assert len(spans) == max(1, frames // B)
            want = conv_input_grad_ref(conv, gy, xp.shape)
            got = conv.backward(gy, param_grads=False, spans=spans)
            assert got.tobytes() == want.tobytes(), (nl.name, frames)
            bands = nl.block.out_bands(bands)


def dilated_conv_ref(conv, x, gy):
    """A dilated conv's forward and gradients through the tap matrix built
    by np.pad and np.concatenate, kept from forward to backward.

    Returns (output, weight grad, bias grad, dLoss/dinput)."""
    k, d, cin = conv.k, conv.dilation, conv.cin
    h, t = (k - 1) // 2, x.shape[0]
    xp = np.pad(x, ((h * d, h * d), (0, 0)))
    x_taps = np.concatenate([xp[j * d : j * d + t] for j in range(k)], axis=1)
    w = conv.params["w"].astype(np.float64).reshape(k * cin, conv.cout)
    y = x_taps @ w + conv.params["b"].astype(np.float64)
    g_taps = gy @ w.T
    gxp = np.zeros((t + 2 * h * d, cin))
    for j in range(k):
        gxp[j * d : j * d + t] += g_taps[:, j * cin : (j + 1) * cin]
    gw = (x_taps.T @ gy).reshape(conv.params["w"].shape)
    return y, gw, gy.sum(axis=0), gxp[h * d : h * d + t]


@pytest.mark.parametrize("frames", [40, 500, 3001])
def test_dilated_conv_matches_the_kept_tap_matrix(frames):
    # every dilation of the TCN levels, from taps entirely inside the
    # input to taps that all read past its ends
    for i in range(11):
        conv = DilatedConv1d(5, 16, 16, 2**i, rng=np.random.default_rng(70 + i))
        conv.params["b"][...] = np.linspace(-1.0, 1.0, 16)
        x = edge_inputs((frames, 16), 80 + i)
        gy = edge_inputs((frames, 16), 90 + i)
        gy[::5] = 0.0
        want_y, want_gw, want_gb, want_gx = dilated_conv_ref(conv, x, gy)
        assert conv.forward(x, keep=True).tobytes() == want_y.tobytes(), (frames, i)
        gx = conv.backward(gy)
        assert gx.tobytes() == want_gx.tobytes(), (frames, i)
        assert conv.grads["w"].tobytes() == want_gw.tobytes(), (frames, i)
        assert conv.grads["b"].tobytes() == want_gb.tobytes(), (frames, i)


def _record_input_grad(monkeypatch, force=None):
    """Spy on Model.backward; with force set, override the caller's flag."""
    seen = []
    original = Model.backward

    def spy(self, g, input_grad=True):
        seen.append(input_grad)
        return original(self, g, input_grad=input_grad if force is None else force)

    monkeypatch.setattr(Model, "backward", spy)
    return seen


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_loops_skip_input_gradient_with_same_parameters(monkeypatch, variant):
    rng = np.random.default_rng(40)
    x = rng.uniform(0, 2, (60, 81))
    targets = (rng.random(60) > 0.8).astype(float)
    results = []
    for force in (None, True):
        with monkeypatch.context() as mp:
            seen = _record_input_grad(mp, force)
            trained, history = train(build_model(variant, seed=41), [(x, targets)], 2, seed=42)
            adapted = [finetune(trained, (x, targets),
                                FinetuneConfig(FreezeConfig.from_id(fid), seed=43, epochs=2))
                       for fid in ("ft", "ft_Conv2", "ft_Tcn4-Tcn64")]
            assert seen == [False] * 8
        results.append([history] + [m.param_dict() for m in [trained] + adapted])
    (h0, *plain), (h1, *forced) = results
    assert h0 == h1
    for a, b in zip(plain, forced):
        for key, value in a.items():
            assert value.tobytes() == b[key].tobytes(), key


def test_input_grad_false_returns_none_with_same_gradients():
    x = np.random.default_rng(44).uniform(0, 1, (50, 81))
    g = bce_loss_grad(np.full(50, 0.4), np.zeros(50))
    grads = []
    for input_grad in (True, False):
        m = build_model("tcn_v1", seed=45)
        m.forward(x, training=True, rng=np.random.default_rng(46))
        gx = m.backward(g, input_grad=input_grad)
        assert (gx is None) == (not input_grad)
        grads.append({k: v.tobytes() for k, v in m.grad_dict().items()})
    assert grads[0] == grads[1]


def test_elu_inplace_matches_masked_expm1():
    specials = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.nan, np.inf, -np.inf,
                         -745.0, 745.0, -1e-17, -800.0])
    for x in (specials, EDGES, edge_inputs((200, 9), 3)):
        want = np.expm1(x, out=x.copy(), where=x < 0)
        y = x.copy()
        assert elu(y, out=y)[0] is y
        assert y.tobytes() == want.tobytes()


def train_ref(model, corpus, epochs, lr, seed):
    """train with a full training forward of every block in every step."""
    trainable = [nl.trainable for nl in model.layers]
    opt = VARIANT_SPECS[model.variant][2](lr=lr)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        losses = []
        # one item is taken without a shuffle, so that fine-tuning checks
        # that train's rng.permutation(1) draws nothing
        for idx in rng.permutation(len(corpus)) if len(corpus) > 1 else [0]:
            x, targets = corpus[idx]
            for nl in model.layers:
                nl.trainable = True  # every block keeps its caches
            act = model.forward(x, training=True, rng=rng)
            for nl, flag in zip(model.layers, trainable):
                nl.trainable = flag
            losses.append(bce_loss(act, targets))
            model.backward(bce_loss_grad(act, targets), input_grad=False)
            opt.step(model.param_dict(trainable_only=True), model.grad_dict(trainable_only=True))
        history.append(float(np.mean(losses)))
    return model, history


def finetune_ref(model, snippet, config):
    """finetune through train_ref."""
    adapted = clone_model(model, dropout_rate=None if config.dropout_active else 0.0)
    return train_ref(apply_freeze(adapted, config.freeze), [snippet], config.epochs,
                     config.base_lr * config.lr_scale, config.seed)[0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_on_frozen_model_matches_full_training_forward(variant):
    # three lengths: the shuffle and each item's own frozen Conv1 output count
    rng = np.random.default_rng(60)
    corpus = []
    for i, frames in enumerate((36, 23, 41)):
        x = np.abs(edge_inputs((frames, 81), 61 + i))
        x[:, ::7] = -x[:, ::7]  # conv outputs on both sides of zero
        corpus.append((x, (rng.random(frames) > 0.8).astype(float)))
    base = build_model(variant, seed=62, dropout_rate=0.3)
    for fid in ("ft", "ft_Conv1", "ft_Tcn16", "ft_Tcn4-Tcn64"):
        freeze = FreezeConfig.from_id(fid)
        want, want_history = train_ref(apply_freeze(clone_model(base), freeze), corpus, 3,
                                       2e-3, 63)
        got, history = train(apply_freeze(clone_model(base), freeze), corpus, 3, 2e-3, 63)
        assert history == want_history, fid
        for key, value in want.param_dict().items():
            assert got.param_dict()[key].tobytes() == value.tobytes(), (fid, key)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dropout_active", [True, False])
def test_finetune_matches_full_training_forward(variant, dropout_active):
    rng = np.random.default_rng(50)
    x = np.abs(edge_inputs((36, 81), 51))
    x[:, ::7] = -x[:, ::7]  # conv outputs on both sides of zero
    targets = (rng.random(36) > 0.8).astype(float)
    base = build_model(variant, seed=52, dropout_rate=0.3)
    for fid in canonical_freeze_ids() + ["ft_Tcn4-Tcn64"]:
        config = FinetuneConfig(FreezeConfig.from_id(fid), seed=53, epochs=3, lr_scale=1.0,
                                dropout_active=dropout_active)
        want = finetune_ref(base, (x, targets), config).param_dict()
        got = finetune(base, (x, targets), config).param_dict()
        for key, value in want.items():
            assert got[key].tobytes() == value.tobytes(), (fid, key)
