"""Deterministic parameter layers and the functions between them.

Conv2d, DilatedConv1d and Dense hold parameters; ELU, sigmoid, dropout and
the frequency pool are plain functions. The model's blocks compose them
and hold every cache a backward reads:
  - a layer's forward(x, training=...) caches what its backward needs, only
    in training mode; an inference forward stores nothing, so backward
    follows a training-mode forward. Each class names its cache attributes
    once in `caches`; Model.drop_caches frees them all, and train calls it
    when it returns or raises, so caches live only while a model trains.
    Within that time a training forward writes a conv stage's whole-length
    caches into the previous forward's arrays when their shape and dtype
    match (see reuse_buffer), rather than allocating them anew
  - backward(gy, input_grad=True, param_grads=True) returns the input
    gradient and fills self.grads; input_grad=False fills self.grads only
    and returns None, and param_grads=False leaves self.grads untouched
  - each cache holds only what backward reads: Conv2d its patch matrix,
    Dense and DilatedConv1d their input (the dilated conv rebuilds its tap
    matrix, five shifted copies of the input, for the weight gradient)
  - the functions return what their backward needs instead of keeping it:
    elu gives the derivative minus one, pool_freq3 gives each group's first
    winning bin as uint8 (the argmax, without computing one), and
    dropout_mask gives the bool survivors, which dropout multiplies by and
    then scales; the blocks keep these only on the forwards whose backward
    will run (see Model.forward and Model.backward). A pooling block keeps
    the derivative and the survivors at the winning bins alone, gathered
    through winner_index, the flat indices unpool_freq3 scatters to: every
    other bin's gradient is +0.0, whatever they hold
  - parameters live in self.params; compute runs in float64 regardless of
    the stored parameter dtype (models keep float32; tests build float64 ones)

Tensor layouts: conv2d works on time x freq x channels, the 1-D ops on
time x channels.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ShapeError

EPS_P = 1e-7  # probability clamp for the cross-entropy


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


# time block of the features and the conv stages, in frames: temporaries
# stay cache-sized, and a block's matmul of 128-255 rows gives the floats of
# the whole-length one at one or two BLAS threads (filterbank products of
# 1-12 rows differ at one, of 33-81 at two). A conv stage whose whole-length patch matrix takes at most
# WHOLE_PATCH_BYTES runs as one block, since blocking gains nothing there:
# tcn_v1's Conv3 (2.9 MiB at 3000 frames) took 1.5 ms in blocks and 0.9 ms
# whole, and Conv1 at 500 frames (2.7 MiB) took as long either way.
BLOCK_FRAMES = 128
WHOLE_PATCH_BYTES = 4 << 20


def time_blocks(frames, patch_bytes=np.inf):
    """[s, e) spans of BLOCK_FRAMES frames; the remainder joins the last
    span, so no span is shorter than a block unless the whole input is.
    One span when the whole-length patch matrix takes at most
    WHOLE_PATCH_BYTES."""
    n = max(1, frames // BLOCK_FRAMES) if patch_bytes > WHOLE_PATCH_BYTES else 1
    edges = [i * BLOCK_FRAMES for i in range(n)] + [frames]
    return list(zip(edges[:-1], edges[1:]))


def context_rows(x, lo, hi):
    """x's rows lo..hi-1 (lo < len(x), hi > 0) with zeros before row 0 and
    past the last: a view unless they reach past an end."""
    n = x.shape[0]
    if lo >= 0 and hi <= n:
        return x[lo:hi]
    pad = [(max(-lo, 0), max(hi - n, 0))] + [(0, 0)] * (x.ndim - 1)
    return np.pad(x[max(lo, 0) : min(hi, n)], pad)


def reuse_buffer(old, shape, dtype=np.float64) -> np.ndarray:
    """old when it is an array of this shape and dtype, otherwise a new
    uninitialized one. For whole-length caches that their owner allocated
    through this function, so that a training forward writes over the
    previous forward's cache rather than allocating one beside it."""
    if isinstance(old, np.ndarray) and old.shape == shape and old.dtype == dtype:
        return old
    return np.empty(shape, dtype)


class Layer:
    """Base of the parameter layers: their parameter and gradient dicts."""

    caches: tuple[str, ...] = ()  # attributes a training forward sets for backward

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}


def elu(x: np.ndarray, out=None) -> tuple:
    """ELU of a float64 array into out (a new array when None), and
    expm1(minimum(x, 0)), the derivative minus one, as a new array.

    expm1(x) >= x below zero, and np.maximum returns its second operand on
    equal inputs, so x >= 0 (and a -0.0 input) stays x.
    """
    d = np.minimum(x, 0.0)
    np.expm1(d, out=d)
    return np.maximum(d, x, out=out), d


def sigmoid(x: np.ndarray) -> np.ndarray:
    s = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + s), s / (1.0 + s))


def dropout_mask(shape, rate, rng):
    """Inverted-dropout survivors of one draw per element, as bool; None at
    rate 0, where nothing is drawn."""
    if rate == 0.0:
        return None
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    return rng.random(shape) >= rate


def dropout(x, survivors, rate, out=None):
    """x times the survivors, then times 1/(1-rate), into out (a new array
    when None). These are the floats of one product with a float mask
    holding 1/(1-rate) and 0.0, signed zeros included."""
    y = np.multiply(x, survivors, out=out)
    y *= 1.0 / (1.0 - rate)
    return y


def glorot(shape, fan_in, fan_out, rng, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _corr2d(x, w, cols=None):
    """Valid 2-D cross-correlation of (T,F,C) with (kt,kf,C,O), through the
    flattened patch matrix: written into cols when given (rows of a larger
    matrix), otherwise a new array or a view of x."""
    kt, kf, cin, cout = w.shape
    t_out = x.shape[0] - kt + 1
    f_out = x.shape[1] - kf + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kt, kf), axis=(0, 1))
    win = win.transpose(0, 1, 3, 4, 2)
    if cols is None:
        cols = win.reshape(t_out * f_out, kt * kf * cin)
    else:
        cols.reshape(t_out, f_out, kt, kf, cin)[...] = win
    y = cols @ w.reshape(kt * kf * cin, cout)
    return y.reshape(t_out, f_out, cout)


class Conv2d(Layer):
    """Valid cross-correlation over time x freq with multi-channel kernels."""

    caches = ("_x_col", "_in_shape")

    def __init__(self, kt, kf, cin, cout, rng=None, dtype=np.float32):
        super().__init__()
        self.kt, self.kf, self.cin, self.cout = kt, kf, cin, cout
        rng = rng or np.random.default_rng(0)
        self.params["w"] = glorot((kt, kf, cin, cout), kt * kf * cin, kt * kf * cout, rng, dtype)
        self.params["b"] = np.zeros(cout, dtype=dtype)

    def forward(self, x, *, training=False, start=0, in_frames=None):
        """Output frames start.. of an input of in_frames frames (x's own
        count when None), from x, the input frames they read (output frame t
        reads input frames t..t+kt-1). training=True keeps what backward
        reads, the whole-length patch matrix and input shape: a training
        forward may run in row blocks, in order from start=0 (which takes
        the previous training forward's matrix when the shape holds)."""
        if x.ndim != 3 or x.shape[2] != self.cin:
            raise ShapeError(f"conv2d expects (time, freq, {self.cin}), got {x.shape}")
        if x.shape[0] < self.kt or x.shape[1] < self.kf:
            raise ShapeError(f"input {x.shape[:2]} smaller than kernel ({self.kt},{self.kf})")
        t_out, f_out = x.shape[0] - self.kt + 1, x.shape[1] - self.kf + 1
        cols = None
        if training:
            self._in_shape = (in_frames or x.shape[0],) + x.shape[1:]
            if start == 0:
                self._x_col = reuse_buffer(getattr(self, "_x_col", None),
                                           ((self._in_shape[0] - self.kt + 1) * f_out,
                                            self.kt * self.kf * self.cin))
            cols = self._x_col[start * f_out : (start + t_out) * f_out]
        y = _corr2d(_f64(x), _f64(self.params["w"]), cols)
        y += _f64(self.params["b"])
        return y

    def backward(self, gy, input_grad=True, param_grads=True, spans=None):
        """The input gradient is formed in the [s, e) spans of output frames
        given (one span when None), the last one also taking the kt - 1
        input frames past the output. A one-channel input gradient is formed
        whole-length: its taps are matrix-vector products, which compute the
        last rows of each call another way, so a block would change them."""
        kt, kf, cin, cout = self.kt, self.kf, self.cin, self.cout
        w = _f64(self.params["w"])
        t_out, f_out = gy.shape[:2]
        gy2 = gy.reshape(-1, cout)
        if param_grads:
            self.grads["w"] = (self._x_col.T @ gy2).reshape(kt, kf, cin, cout)
            self.grads["b"] = gy2.sum(axis=0)
        if not input_grad:
            return None
        # scatter-accumulate the input gradient block by block and, in each
        # block, tap by tap from the gy rows that reach it: one block is
        # the whole-length scatter, and in blocks every element still sums
        # its taps in the same order
        gx = np.zeros(self._in_shape, dtype=np.float64)
        starts = [s for s, _ in spans] if spans and cin > 1 else [0]
        edges = starts + [gx.shape[0]]
        for a, b in zip(edges[:-1], edges[1:]):
            for i in range(kt):
                lo, hi = max(a - i, 0), min(b - i, t_out)
                rows = gy[lo:hi].reshape(-1, cout)
                for j in range(kf):
                    gx[lo + i : hi + i, j : j + f_out] += (rows @ w[i, j].T).reshape(
                        hi - lo, f_out, cin)
        return gx


def pool_freq3(x, keep=False):
    """Non-overlapping max over groups of 3 frequency bins, remainder
    dropped. Returns (y, winners), winners (what unpool_freq3 reads) only
    with keep and None otherwise."""
    if x.ndim != 3 or x.shape[1] < 3:
        raise ShapeError(f"pool_freq3 needs (time, freq>=3, ch), got {x.shape}")
    f3 = x.shape[1] // 3
    xr = _f64(x[:, : f3 * 3]).reshape(x.shape[0], f3, 3, x.shape[2])
    # np.maximum returns its second operand on equal inputs, so taking
    # the bins last to first keeps argmax's first-index pick (it shows
    # only in the sign of a zero)
    y = np.maximum(np.maximum(xr[:, :, 2], xr[:, :, 1]), xr[:, :, 0])
    if not keep:
        return y, None
    # first bin equal to the max: 0, else 1 if bin 1 is, else 2
    arg = np.not_equal(xr[:, :, 0], y).view(np.uint8)
    arg += arg & (xr[:, :, 1] != y)
    return y, arg


@functools.lru_cache(maxsize=8)
def _group_starts(t, f, c):
    """Flat index of each group's first bin in a (t, f, c) array, laid out
    as the (t, f // 3, c) pooled output; read-only, since it is shared."""
    at = f * c * np.arange(t)[:, None, None] + 3 * c * np.arange(f // 3)[:, None] + np.arange(c)
    at.flags.writeable = False
    return at


def winner_index(winners, shape):
    """Flat index, in an array of `shape` (t, f, c) that pool_freq3 pooled,
    of each group's winning bin, laid out as the pooled output."""
    at = np.multiply(winners, shape[2], dtype=np.intp)
    at += _group_starts(*shape)
    return at


def unpool_freq3(gy, winners, in_shape, out=None):
    """Backward of pool_freq3 for an input of in_shape, into out (a new
    array when None, else a C-contiguous one of in_shape): each group's
    gradient goes to its winning bin, and every other bin holds +0.0."""
    if out is None:
        out = np.zeros(in_shape)
    else:
        out.fill(0.0)
    out.reshape(-1)[winner_index(winners, in_shape)] = gy
    return out


class DilatedConv1d(Layer):
    """Non-causal dilated 1-D convolution, zero-padded to keep length.

    out[t] = b + sum_j w[j] . x[t + (j - (k-1)/2) * dilation]

    A training forward keeps its float64 input, a fifth of the size of the
    tap matrix (see _taps) it multiplies the kernel by; backward rebuilds
    that matrix only for the weight gradient.
    """

    caches = ("_x",)

    def __init__(self, k, cin, cout, dilation, rng=None, dtype=np.float32):
        super().__init__()
        if k % 2 == 0:
            raise ConfigError(f"kernel size must be odd for a centered kernel, got {k}")
        self.k, self.cin, self.cout, self.dilation = k, cin, cout, dilation
        rng = rng or np.random.default_rng(0)
        self.params["w"] = glorot((k, cin, cout), k * cin, k * cout, rng, dtype)
        self.params["b"] = np.zeros(cout, dtype=dtype)

    def _taps(self, x):
        """The (t, k*cin) matrix of x's k shifted copies side by side, zero
        where a tap reads past either end, so the whole kernel is one
        matmul."""
        k, d, cin = self.k, self.dilation, self.cin
        t = x.shape[0]
        taps = np.zeros((t, k * cin))
        for j in range(k):
            shift = (j - (k - 1) // 2) * d  # row r of tap j reads x[r + shift]
            lo, hi = max(0, -shift), min(t, t - shift)
            if lo < hi:
                taps[lo:hi, j * cin : (j + 1) * cin] = x[lo + shift : hi + shift]
        return taps

    def forward(self, x, *, training=False):
        if x.ndim != 2 or x.shape[1] != self.cin:
            raise ShapeError(f"dilated_conv1d expects (time, {self.cin}), got {x.shape}")
        x = _f64(x)
        w = _f64(self.params["w"])
        y = self._taps(x) @ w.reshape(self.k * self.cin, self.cout) + _f64(self.params["b"])
        if training:
            self._x = x
        return y

    def backward(self, gy, input_grad=True, param_grads=True):
        k, d = self.k, self.dilation
        h = (k - 1) // 2
        t = self._x.shape[0]
        w = _f64(self.params["w"])
        if param_grads:
            self.grads["w"] = (self._taps(self._x).T @ gy).reshape(k, self.cin, self.cout)
            self.grads["b"] = gy.sum(axis=0)
        if not input_grad:
            return None
        # g_taps holds dLoss/d(shifted copies); fold the shifts back
        g_taps = gy @ w.reshape(k * self.cin, self.cout).T
        gxp = np.zeros((t + 2 * h * d, self.cin))
        for j in range(k):
            gxp[j * d : j * d + t] += g_taps[:, j * self.cin : (j + 1) * self.cin]
        return gxp[h * d : h * d + t]


class Dense(Layer):
    """Per-frame affine map (time, cin) -> (time, cout)."""

    caches = ("_x",)

    def __init__(self, cin, cout, rng=None, dtype=np.float32):
        super().__init__()
        self.cin, self.cout = cin, cout
        rng = rng or np.random.default_rng(0)
        self.params["w"] = glorot((cin, cout), cin, cout, rng, dtype)
        self.params["b"] = np.zeros(cout, dtype=dtype)

    def forward(self, x, *, training=False):
        if x.ndim != 2 or x.shape[1] != self.cin:
            raise ShapeError(f"dense expects (time, {self.cin}), got {x.shape}")
        x = _f64(x)
        if training:
            self._x = x
        return x @ _f64(self.params["w"]) + _f64(self.params["b"])

    def backward(self, gy, input_grad=True, param_grads=True):
        if param_grads:
            self.grads["w"] = self._x.T @ gy
            self.grads["b"] = gy.sum(axis=0)
        return gy @ _f64(self.params["w"]).T if input_grad else None


def bce_loss(p, target):
    """Mean binary cross-entropy with p clamped to [1e-7, 1 - 1e-7]."""
    p, target = np.asarray(p), np.asarray(target)
    if p.shape != target.shape:
        raise ShapeError(f"activation {p.shape} vs target {target.shape}")
    q = np.clip(_f64(p), EPS_P, 1.0 - EPS_P)
    return float(np.mean(-(target * np.log(q) + (1.0 - target) * np.log1p(-q))))


def bce_loss_grad(p, target):
    """dLoss/dp, zero where the clamp is active."""
    p, target = _f64(np.asarray(p)), np.asarray(target)
    q = np.clip(p, EPS_P, 1.0 - EPS_P)
    g = (q - target) / (q * (1.0 - q)) / p.size
    g[(p < EPS_P) | (p > 1.0 - EPS_P)] = 0.0
    return g

