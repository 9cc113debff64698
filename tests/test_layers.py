import numpy as np
import pytest

from onsetkit.errors import ConfigError, ShapeError
from onsetkit.layers import (
    Conv2d,
    Dense,
    DilatedConv1d,
    bce_loss,
    bce_loss_grad,
    dropout_mask,
    elu,
    pool_freq3,
    sigmoid,
    unpool_freq3,
)
from onsetkit.models import ConvStage, OutHead, build_model

from gradcheck import as_float64, gradcheck


# naive reference implementations, deliberately written as plain loops


def conv2d_ref(x, w, b):
    kt, kf, cin, cout = w.shape
    t_in, f_in, _ = x.shape
    out = np.zeros((t_in - kt + 1, f_in - kf + 1, cout))
    for t in range(out.shape[0]):
        for f in range(out.shape[1]):
            for o in range(cout):
                acc = b[o]
                for i in range(kt):
                    for j in range(kf):
                        for c in range(cin):
                            acc += w[i, j, c, o] * x[t + i, f + j, c]
                out[t, f, o] = acc
    return out


def dilated_ref(x, w, b, d):
    k, cin, cout = w.shape
    t_in = x.shape[0]
    h = (k - 1) // 2
    out = np.zeros((t_in, cout))
    for t in range(t_in):
        for o in range(cout):
            acc = b[o]
            for j in range(k):
                src = t + (j - h) * d
                if 0 <= src < t_in:
                    for c in range(cin):
                        acc += w[j, c, o] * x[src, c]
            out[t, o] = acc
    return out


def rng0():
    """A fresh seed-0 rng, for layers whose drawn weights a test replaces."""
    return np.random.default_rng(0)


def with_params(layer, w, b):
    """The layer with its weights and bias replaced by w and b."""
    layer.params.update(w=np.asarray(w, dtype=float), b=np.asarray(b, dtype=float))
    return layer


def test_conv2d_zero_kernel_bias():
    layer = with_params(Conv2d(3, 3, 1, 1, rng0()), np.zeros((3, 3, 1, 1)), [0.5])
    y = layer.forward(np.ones((5, 5, 1)))
    assert y.shape == (3, 3, 1)
    assert np.all(y == 0.5)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 4, 1))
    y = with_params(Conv2d(1, 1, 1, 1, rng0()), np.ones((1, 1, 1, 1)), np.zeros(1)).forward(x)
    assert np.array_equal(y, x)


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 6, 2))
    w = rng.standard_normal((3, 3, 2, 4))
    b = rng.standard_normal(4)
    y = with_params(Conv2d(3, 3, 2, 4, rng0()), w, b).forward(x)
    assert np.max(np.abs(y - conv2d_ref(x, w, b))) < 1e-6


def test_conv2d_shape_errors():
    with pytest.raises(ShapeError):
        Conv2d(3, 3, 1, 1, rng0()).forward(np.ones((2, 2, 1)))
    with pytest.raises(ShapeError):
        Conv2d(3, 3, 1, 1, rng0()).forward(np.ones((5, 5, 2)))


def test_maxpool_row():
    x = np.array([1, 5, 2, 0, 0, 7], dtype=float).reshape(1, 6, 1)
    y = pool_freq3(x)[0]
    assert y.shape == (1, 2, 1)
    assert list(y[0, :, 0]) == [5.0, 7.0]


def test_maxpool_81_to_27_and_remainder():
    assert pool_freq3(np.zeros((4, 81, 2)))[0].shape == (4, 27, 2)
    # remainder bins dropped: 80 -> 26
    assert pool_freq3(np.zeros((4, 80, 2)))[0].shape == (4, 26, 2)


def test_maxpool_tie_gradient_to_first():
    y, winners = pool_freq3(np.full((2, 6, 1), 3.0), keep=True)
    assert np.all(y == 3.0)
    gx = unpool_freq3(np.ones((2, 2, 1)), winners, (2, 6, 1))
    expect = np.array([1, 0, 0, 1, 0, 0], dtype=float)
    assert np.array_equal(gx[0, :, 0], expect)
    assert np.array_equal(gx[1, :, 0], expect)


def test_maxpool_inference_is_training_values():
    # ties of every kind, signed zeros included, and a remainder bin
    rng = np.random.default_rng(3)
    x = rng.choice([0.0, -0.0, 1.5, -1.5, -2.0], size=(40, 10, 4))
    want = pool_freq3(x, keep=True)[0]
    y, winners = pool_freq3(x)
    assert y.tobytes() == want.tobytes()
    assert winners is None


def test_maxpool_needs_three_bins():
    with pytest.raises(ShapeError):
        pool_freq3(np.zeros((4, 2, 1)))


def test_dilated_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 3))
    # k=1 identity map per channel
    layer = DilatedConv1d(1, 3, 3, dilation=4, rng=rng0())
    y = with_params(layer, np.eye(3)[None], np.zeros(3)).forward(x)
    assert np.allclose(y, x)


def test_dilated_impulse_taps():
    # out[t] = sum_j w[j] * x[t + (j-2)*d]: an impulse at 100 puts tap j at
    # output index 100 - (j-2)*d, i.e. taps d apart in reversed order,
    # kernel 5 spanning 4d+1 frames
    w = np.arange(1.0, 6.0).reshape(5, 1, 1)
    x = np.zeros((200, 1))
    x[100, 0] = 1.0
    y = with_params(DilatedConv1d(5, 1, 1, dilation=8, rng=rng0()), w, np.zeros(1)).forward(x)
    assert y.shape == (200, 1)
    nz = np.flatnonzero(y[:, 0])
    assert list(nz) == [84, 92, 100, 108, 116]
    assert list(y[nz, 0]) == [5.0, 4.0, 3.0, 2.0, 1.0]


def test_dilated_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 3))
    w = rng.standard_normal((5, 3, 2))
    b = rng.standard_normal(2)
    y = with_params(DilatedConv1d(5, 3, 2, dilation=4, rng=rng0()), w, b).forward(x)
    assert y.shape == (64, 2)
    assert np.max(np.abs(y - dilated_ref(x, w, b, 4))) < 1e-6


def test_dilated_length_preserved_when_short():
    # dilation span exceeds the sequence: still same length out
    x = np.ones((7, 1))
    layer = DilatedConv1d(5, 1, 1, dilation=16, rng=rng0())
    y = with_params(layer, np.ones((5, 1, 1)), np.zeros(1)).forward(x)
    assert y.shape == (7, 1)


def test_dilated_rejects_even_kernel():
    with pytest.raises(ConfigError):
        DilatedConv1d(4, 1, 1, dilation=2, rng=rng0())


def test_dense_identity_and_sum():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 5))
    assert np.allclose(with_params(Dense(5, 5, rng0()), np.eye(5), np.zeros(5)).forward(x), x)
    y = with_params(Dense(16, 1, rng0()), np.ones((16, 1)), np.ones(1)).forward(np.ones((3, 16)))
    assert np.all(y == 17.0)


def test_dense_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    ref = np.zeros((8, 3))
    for t in range(8):
        for o in range(3):
            ref[t, o] = b[o] + sum(w[c, o] * x[t, c] for c in range(6))
    assert np.max(np.abs(with_params(Dense(6, 3, rng0()), w, b).forward(x) - ref)) < 1e-6


def test_activation_fixed_points():
    assert elu(np.zeros(3))[0][0] == 0.0
    assert sigmoid(np.zeros(3))[0] == 0.5
    # strictly above -1 where float64 can resolve it
    v10 = elu(np.array([-10.0]))[0][0]
    assert -1.0 < v10 < -0.9999
    # exp(-50)-1 rounds to exactly -1.0 in double precision
    v50 = elu(np.array([-50.0]))[0][0]
    assert -1.0 <= v50 < -0.9999


def test_sigmoid_range_extremes():
    y = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(y))
    assert 0.0 <= y[0] < 1e-12
    assert 1.0 - 1e-12 < y[1] <= 1.0


def test_dropout_identity_modes():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, 4))
    assert dropout_mask(x.shape, 0.0, np.random.default_rng(0)) is None
    assert dropout_mask(x.shape, 0.0, None) is None  # nothing to draw
    with pytest.raises(ConfigError):
        dropout_mask(x.shape, 0.5, None)
    # inference is the identity: a forward with training=False draws nothing
    m = build_model("tcn_v1", seed=0, dropout_rate=0.5)
    feats = rng.standard_normal((30, 81))
    assert np.array_equal(m.forward(feats), m.forward(feats, rng=np.random.default_rng(0)))
    for rate in (1.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            build_model("tcn_v1", seed=0, dropout_rate=rate)


def test_dropout_mean_preserved():
    x = np.ones(10**6)
    y = x * dropout_mask(x.shape, 0.1, np.random.default_rng(7)) * (1.0 / (1.0 - 0.1))
    assert 0.995 <= y.mean() <= 1.005
    # survivors scaled by exactly 1/(1-rate)
    survivors = y[y != 0]
    assert np.allclose(survivors, 1.0 / 0.9)


def test_dropout_backward_uses_same_mask():
    # a TCN level's backward scales by the mask its forward kept
    rng = np.random.default_rng(8)
    lvl = build_model("tcn_v1", seed=0, dropout_rate=0.3).layers[4].block
    h = rng.standard_normal((50, 16))
    lvl.forward(h, rng=np.random.default_rng(9), keep=True)
    mask = dropout_mask((50, 16), 0.3, np.random.default_rng(9))
    assert np.array_equal(lvl._mask, mask)
    gy = np.ones((50, 16))
    gh = lvl.mix.backward(gy, param_grads=False) * mask * (1.0 / (1.0 - 0.3)) * lvl._d
    want = lvl.conv1.backward(gh, param_grads=False) + gy  # the residual path
    assert np.array_equal(lvl.backward(gy), want)


def test_bce_closed_forms():
    half = np.full(10, 0.5)
    assert bce_loss(half, half) == pytest.approx(np.log(2.0), abs=1e-12)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert bce_loss(y, y) <= 1e-6


def test_bce_matches_formula():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.01, 0.99, 100)
    y = rng.uniform(0, 1, 100)
    direct = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert abs(bce_loss(p, y) - direct) < 1e-9
    with pytest.raises(ShapeError):
        bce_loss(p, y[:50])


def test_bce_grad_matches_fd():
    rng = np.random.default_rng(10)
    p = rng.uniform(0.05, 0.95, 30)
    y = (rng.random(30) > 0.5).astype(float)
    g = bce_loss_grad(p, y)
    h = 1e-6
    for i in range(30):
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        fd = (bce_loss(pp, y) - bce_loss(pm, y)) / (2 * h)
        assert abs(g[i] - fd) < 1e-6


def test_gradcheck_dense_near_exact():
    rng = np.random.default_rng(11)
    layer = as_float64(Dense(6, 3, rng=rng))
    x = rng.standard_normal((12, 6))
    assert gradcheck(layer, x, seed=100) < 1e-7


def test_gradcheck_dilated_conv():
    rng = np.random.default_rng(12)
    layer = as_float64(DilatedConv1d(5, 3, 2, dilation=4, rng=rng))
    x = rng.standard_normal((40, 3))
    assert gradcheck(layer, x, seed=101) < 1e-4


def test_gradcheck_conv2d():
    rng = np.random.default_rng(13)
    layer = as_float64(Conv2d(3, 3, 2, 3, rng=rng))
    x = rng.standard_normal((8, 8, 2))
    assert gradcheck(layer, x, seed=102) < 1e-4


def test_gradcheck_composition():
    # pad -> conv -> ELU -> pool, as a conv stage of the model runs it
    rng = np.random.default_rng(14)
    stage = as_float64(ConvStage(3, 3, 1, 4, pool=True, rate=0.0, rng=rng))
    x = rng.standard_normal((10, 11, 1))
    assert gradcheck(stage, x, seed=103) < 1e-4


def test_gradcheck_sigmoid_head():
    rng = np.random.default_rng(15)
    head = as_float64(OutHead(rng))
    x = rng.standard_normal((20, 16))
    assert gradcheck(head, x, seed=104) < 1e-4
