"""The two TCN onset-detection architectures.

Both variants share one skeleton of 15 named layers:

    Conv1 Conv2 Conv3   Tcn1 Tcn2 Tcn4 ... Tcn1024   Out

The three conv stages reduce 81 frequency bands to exactly 1 (valid
convolution in frequency, zero-padded in time so frame count is
preserved), the 11 TCN levels run dilated convolutions at rates 2^0..2^10
over the 16-channel sequence, and Out is a dense layer to a single
sigmoid unit per frame.

tcn_v1: conv stages with 16 filters (3x3 pool, 3x3 pool, 1x8); each TCN
level is dilated conv(k=5, d) -> ELU -> dropout -> 1x1 mix -> residual.

tcn_v2: conv stages with 20 filters (3x3 pool, 1x10 pool, 3x3 pool); a
1x1 adapter brings 20 channels to 16 at the Tcn1 entry; each TCN level
runs two sequential dilated convs (d then 2d) before ELU -> dropout ->
1x1 mix -> residual, doubling the temporal growth per level.

Parameters are stored float32; all compute runs in float64.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelFormatError, ShapeError, check_ranges
from .features import FRAME_RATE, N_BANDS
from .layers import (Conv2d, Dense, DilatedConv1d, context_rows, dropout, dropout_mask, elu,
                     pool_freq3, reuse_buffer, sigmoid, time_blocks, unpool_freq3, winner_index)

VARIANTS = ("tcn_v1", "tcn_v2")
TCN_CHANNELS = 16
DROPOUT_RATE = 0.1
FORMAT_VERSION = 1
MAGIC = "onsetkit-model"

LAYER_NAMES = tuple(
    ["Conv1", "Conv2", "Conv3"] + [f"Tcn{2**i}" for i in range(11)] + ["Out"]
)
FREEZABLE = LAYER_NAMES[:-1]  # Out is always trainable
def _gather(a, at, out):
    """a into out, or only a's elements at the flat indices `at`."""
    if at is None:
        np.copyto(out, a)
    else:
        np.take(a, at, out=out, mode="clip")


class Block:
    """One named layer of the model, built from parts (its parameter
    layers); it keeps the caches of its ELU, dropout, pool or sigmoid.

    params and grads map "<part>.<key>" to the part's tensors, in the order
    of self.parts, which is the model file's order. Every block's forward
    is forward(x, training=False, rng=None, keep=True): keep=False runs a
    training forward cache-free (the same dropout draws and floats, nothing
    kept for backward), and backward is backward(gy, input_grad=True,
    param_grads=True), which returns None without input_grad.
    """

    rf_add = 0  # frames the block adds to the receptive field
    caches: tuple[str, ...] = ()  # attributes a training forward sets for backward
    parts: dict

    def _tensors(self, attr):
        return {f"{p}.{k}": v for p, layer in self.parts.items()
                for k, v in getattr(layer, attr).items()}

    @property
    def params(self):
        return self._tensors("params")

    @property
    def grads(self):
        return self._tensors("grads")


class ConvStage(Block):
    """conv -> ELU -> dropout (-> freq pool); time zero-padded to length.

    Every forward and backward runs in time blocks (see time_blocks), each
    block's conv reading only the input frames it needs (see _conv).
    A training forward writes each block's rows of the whole-length caches
    that backward reads: the conv's patch matrix, ELU's derivative (plus
    one), the bool dropout survivors and, when the stage pools, the uint8
    pool winners. A pooling stage keeps the derivative and the survivors
    only at each group's winning bin, in the winners' (frames, bands // 3,
    cout) shape: every other bin's gradient is +0.0, and +0.0 times a
    survivor, 1/(1-rate) and a derivative (expm1 + 1 >= +0.0) stays +0.0
    while the activations are finite, which they are whenever backward
    runs in train, since it raises DivergenceError on a non-finite loss
    first. Drawing the survivors block by block takes the whole-length
    draw's numbers, since time is the leading axis. At inference dropout is
    the identity and ELU is non-decreasing, so the stage pools first and
    writes ELU of the pooled output into its own output: same floats, and a
    pooling stage evaluates a third as many ELUs. Backward multiplies each
    block by the survivors, 1/(1-rate) and ELU's derivative, at a pooling
    stage on the pooled gradient before it unpools the block into zeros;
    the conv's weight and bias gradients stay single whole-length
    reductions, since a blocked sum has other floats.
    """

    caches = ("_d", "_mask", "_arg")

    def __init__(self, kt, kf, cin, cout, pool, rate, rng, dtype=np.float32):
        self.conv = Conv2d(kt, kf, cin, cout, rng=rng, dtype=dtype)
        self.pool, self.rate = pool, rate
        self.parts = {"conv": self.conv}
        self.pad_t = (kt - 1) // 2
        self.rf_add = kt - 1

    def _spans(self, frames, bands):
        """The time blocks of `frames` output frames with `bands` conv output
        bands, sized by the float64 patch matrix's bytes."""
        c = self.conv
        return time_blocks(frames, frames * bands * c.kt * c.kf * c.cin * 8)

    def _conv(self, x, s, e, training=False):
        """Output frames s..e-1 of the conv of x zero-padded in time, from
        only x's frames s - pad_t .. e + pad_t - 1 (see context_rows)."""
        p = self.pad_t
        return self.conv.forward(context_rows(x, s - p, e + p), training=training, start=s,
                                 in_frames=x.shape[0] + 2 * p)

    def activate(self, x):
        """pad -> conv -> ELU in training floats, keeping nothing: the part
        of a training forward that stays the same while the stage is frozen
        and its input does not change."""
        bands = x.shape[1] - self.conv.kf + 1
        out = np.empty((x.shape[0], bands, self.conv.cout))
        for s, e in self._spans(x.shape[0], bands):
            elu(self._conv(x, s, e), out=out[s:e])
        return out

    def forward(self, x, training=False, rng=None, keep=True, activated=False):
        """activated=True takes x as this stage's own activate() output and
        only reads it; the forward is then cache-free."""
        keep = training and keep and not activated
        frames, cout = x.shape[0], self.conv.cout
        bands = x.shape[1] if activated else x.shape[1] - self.conv.kf + 1
        out = np.empty((frames, bands // 3 if self.pool else bands, cout))
        if keep:  # in out's shape, the previous training forward's caches when it holds
            self._d = reuse_buffer(getattr(self, "_d", None), out.shape)
            self._mask = (reuse_buffer(getattr(self, "_mask", None), out.shape, bool)
                          if self.rate else None)
            if self.pool:
                self._arg = reuse_buffer(getattr(self, "_arg", None), out.shape, np.uint8)
        for s, e in self._spans(frames, bands):
            y = x[s:e] if activated else self._conv(x, s, e, training=keep)
            if not training:
                y = pool_freq3(y)[0] if self.pool else y
                elu(y, out=out[s:e])
                continue
            if not activated:
                y, d = elu(y, out=y)
            mask = dropout_mask(y.shape, self.rate, rng)
            if mask is not None:
                # a fresh product when the activated input is only read
                y = dropout(y, mask, self.rate, out=None if activated else y)
            if self.pool:
                y, arg = pool_freq3(y, keep)
            if keep:
                at = None
                if self.pool:  # backward reads these only at the winning bins
                    self._arg[s:e] = arg
                    at = winner_index(arg, d.shape)
                _gather(d, at, self._d[s:e])
                self._d[s:e] += 1.0  # expm1(x) + 1 below zero, 1 elsewhere
                if mask is not None:
                    _gather(mask, at, self._mask[s:e])
            out[s:e] = y
        return out

    def backward(self, gy, input_grad=True, param_grads=True):
        d, conv = self._d, self.conv
        shape = (d.shape[0], conv._in_shape[1] - conv.kf + 1, conv.cout)  # the conv's output
        spans = self._spans(*shape[:2])
        g = np.empty(shape)
        for s, e in spans:
            # the survivors, then 1/(1-rate), then ELU's derivative: at a
            # pooling stage for the winning bins alone, unpooled after
            gb = gy[s:e] if self._mask is None else dropout(gy[s:e], self._mask[s:e], self.rate)
            if self.pool:
                unpool_freq3(gb * d[s:e], self._arg[s:e], (e - s,) + shape[1:], out=g[s:e])
            else:
                np.multiply(gb, d[s:e], out=g[s:e])
        g = conv.backward(g, input_grad, param_grads, spans)
        if g is None or not self.pad_t:
            return g
        return g[self.pad_t : g.shape[0] - self.pad_t]

    def out_bands(self, bands):
        bands = bands - self.conv.kf + 1
        return bands // 3 if self.pool else bands


class TcnLevel(Block):
    """Dilated conv(s) -> ELU -> dropout -> 1x1 mix -> residual add.

    The first level (entry=True) takes the front end's (frames, 1, ch)
    output and drops its band axis; its input gradient gets it back.
    """

    caches = ("_d", "_mask")

    def __init__(self, dilation, double, adapter_in, rate, rng, dtype=np.float32, entry=False):
        self.adapter = Dense(adapter_in, TCN_CHANNELS, rng=rng, dtype=dtype) if adapter_in else None
        self.conv1 = DilatedConv1d(5, TCN_CHANNELS, TCN_CHANNELS, dilation, rng=rng, dtype=dtype)
        self.conv2 = (
            DilatedConv1d(5, TCN_CHANNELS, TCN_CHANNELS, 2 * dilation, rng=rng, dtype=dtype)
            if double
            else None
        )
        self.rate = rate
        self.mix = Dense(TCN_CHANNELS, TCN_CHANNELS, rng=rng, dtype=dtype)
        parts = {"conv1": self.conv1, "mix": self.mix, "conv2": self.conv2, "adapter": self.adapter}
        self.parts = {name: layer for name, layer in parts.items() if layer is not None}
        self.entry = entry
        self.rf_add = 4 * dilation + (8 * dilation if double else 0)

    def forward(self, x, training=False, rng=None, keep=True):
        keep = training and keep
        if self.entry:
            x = x[:, 0, :]
        if self.adapter:
            x = self.adapter.forward(x, training=keep)
        h = self.conv1.forward(x, training=keep)
        if self.conv2:
            h = self.conv2.forward(h, training=keep)
        h, d = elu(h)
        mask = dropout_mask(h.shape, self.rate, rng) if training else None
        if keep:
            d += 1.0
            self._d, self._mask = d, mask
        if mask is not None:
            dropout(h, mask, self.rate, out=h)
        return x + self.mix.forward(h, training=keep)

    def backward(self, gy, input_grad=True, param_grads=True):
        gh = self.mix.backward(gy, param_grads=param_grads)
        if self._mask is not None:
            dropout(gh, self._mask, self.rate, out=gh)
        gh *= self._d
        if self.conv2:
            gh = self.conv2.backward(gh, param_grads=param_grads)
        # the adapter's weight gradient needs the gradient at its output
        gx = self.conv1.backward(gh, input_grad or self.adapter is not None, param_grads)
        if gx is None:
            return None
        gx += gy
        if self.adapter:
            gx = self.adapter.backward(gx, input_grad, param_grads)
        return gx[:, None, :] if self.entry and gx is not None else gx


class OutHead(Block):
    """Dense to one unit per frame, sigmoid."""

    caches = ("_y",)

    def __init__(self, rng, dtype=np.float32):
        self.dense = Dense(TCN_CHANNELS, 1, rng=rng, dtype=dtype)
        self.parts = {"dense": self.dense}

    def forward(self, x, training=False, rng=None, keep=True):
        keep = training and keep
        y = sigmoid(self.dense.forward(x, training=keep))
        if keep:
            self._y = y
        return y[:, 0]

    def backward(self, gy, input_grad=True, param_grads=True):
        g = gy[:, None] * self._y * (1.0 - self._y)
        return self.dense.backward(g, input_grad, param_grads)


@dataclass(frozen=True)
class Prefix:
    """A forward's fixed part (see Model.prefix): read-only x enters block
    start, or with activated set is Conv1's pad + conv + ELU output."""

    x: np.ndarray
    start: int
    activated: bool


@dataclass
class NamedLayer:
    name: str
    block: Block
    trainable: bool = True


class Model:
    def __init__(self, variant, seed, layers, dropout_rate):
        self.variant = variant
        self.seed = seed
        self.layers = layers
        self.dropout_rate = dropout_rate
        self._kept_from = None  # lowest block whose caches the latest forward kept

    @property
    def optimizer_kind(self) -> str:
        return "adam" if self.variant == "tcn_v1" else "radam_lookahead"

    @property
    def lowest_trainable(self) -> int:
        """Index of the lowest trainable block (Out is always trainable)."""
        return next((i for i, nl in enumerate(self.layers) if nl.trainable), len(self.layers))

    def prefix(self, features, training=False, upto=None) -> Prefix:
        """The part of a forward that stays fixed while the blocks below
        `upto` (default: the lowest trainable one) keep their parameters,
        computed once for forward to start from. In training with Conv1
        below `upto` it is Conv1's pad + conv + ELU output, since dropout
        draws afresh on every forward; at inference, the activation
        entering block `upto`; otherwise the checked features."""
        x = np.asarray(getattr(features, "values", features), dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != N_BANDS:
            raise ShapeError(f"expected (frames, {N_BANDS}) features, got {x.shape}")
        x = x[:, :, None]  # time x freq x 1 channel
        upto = self.lowest_trainable if upto is None else upto
        start = 0 if training else upto
        for i in range(start):
            x = self.layers[i].block.forward(x)
        if training and upto > 0:
            x = self.layers[0].block.activate(x)
        x.flags.writeable = False
        return Prefix(x, start, training and upto > 0)

    def forward(self, features, training=False, rng=None):
        """Activation per frame, from features or from a Prefix of this
        model (or of one whose blocks below the prefix's start hold the
        same parameters): the same floats and dropout draws either way.
        Only a training-mode forward keeps the block caches that backward
        reads, and only on the blocks backward reaches: the blocks below
        the lowest trainable one run cache-free, drawing their dropout in
        place but keeping nothing. An inference forward stores nothing on
        any block (dropout is the identity there, and each conv stage
        pools before its ELU).
        """
        self._kept_from = None
        p = features if isinstance(features, Prefix) else self.prefix(features, training, 0)
        if p.activated and not training or p.start and training:
            raise ConfigError(f"this prefix cannot start a forward with training={training}")
        x, first = p.x, p.start
        if p.activated:  # draws Conv1's mask and scales a fresh copy
            x, first = self.layers[0].block.forward(x, True, rng, activated=True), 1
        lowest = self.lowest_trainable if training else 0
        for i in range(first, len(self.layers)):
            x = self.layers[i].block.forward(x, training, rng, keep=i >= lowest)
        if training:
            self._kept_from = max(first, lowest)
        return x

    def backward(self, g_activation, input_grad=True):
        """Fill the grads of every trainable block from dLoss/dactivation.

        Needs the caches of a training-mode forward through Out: raises
        ConfigError unless the latest forward ran with training=True and
        kept the caches of every block from the lowest trainable one up
        (a block it skipped or ran cache-free has since been made
        trainable), and no drop_caches came after it. Caches live until
        train returns: a model that train, finetune or pretrain_model gave
        back needs a new training forward first.

        Blocks are walked from Out down to the lowest trainable one and no
        further: blocks below it run no backward, so they form no gradients
        (their grads keep whatever they held), and the lowest one forms no
        input gradient unless it is Conv1. Frozen blocks above it pass the
        input gradient through and form no weight gradients either.

        input_grad=False skips dLoss/dfeatures even when Conv1 is
        trainable (training loops never read it); the parameter gradients
        are the same floats. Returns dLoss/dfeatures as (frames, bands, 1)
        when input_grad is set and Conv1 is trainable, otherwise None.
        """
        if self._kept_from is None:
            raise ConfigError("backward needs a training-mode forward first (training=True)")
        lowest = self.lowest_trainable
        if lowest < self._kept_from:
            raise ConfigError(f"{self.layers[lowest].name} is trainable, but the latest forward "
                              "kept no caches for it")
        g = np.asarray(g_activation, dtype=np.float64)
        input_grad = input_grad and lowest == 0
        for i in reversed(range(lowest, len(self.layers))):
            nl = self.layers[i]
            # nothing reads the lowest block's input gradient unless it is Conv1's
            g = nl.block.backward(g, input_grad=i > lowest or input_grad, param_grads=nl.trainable)
        return g

    def drop_caches(self) -> None:
        """Free every backward cache that training forwards kept, on every
        block and on every block's parts (the attributes their classes name
        in `caches`); backward then needs a new training forward."""
        self._kept_from = None
        for nl in self.layers:
            for owner in (nl.block, *nl.block.parts.values()):
                for name in owner.caches:
                    owner.__dict__.pop(name, None)

    def _tensors(self, attr, trainable_only):
        return {f"{nl.name}.{k}": v for nl in self.layers if nl.trainable or not trainable_only
                for k, v in getattr(nl.block, attr).items()}

    def param_dict(self, trainable_only=False) -> dict[str, np.ndarray]:
        return self._tensors("params", trainable_only)

    def grad_dict(self, trainable_only=False) -> dict[str, np.ndarray]:
        return self._tensors("grads", trainable_only)


def build_model(variant: str, seed: int, dropout_rate: float = DROPOUT_RATE,
                dtype=np.float32) -> Model:
    """Construct an initialized model for N_BANDS-band features."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    check_ranges(dropout_rate=dropout_rate)
    rng = np.random.default_rng(seed)
    rate = float(dropout_rate)  # a numpy scalar would write its repr into the model file
    layers = []
    if variant == "tcn_v1":
        stages = [
            ConvStage(3, 3, 1, 16, True, rate, rng, dtype),
            ConvStage(3, 3, 16, 16, True, rate, rng, dtype),
            ConvStage(1, 8, 16, 16, False, rate, rng, dtype),
        ]
    else:
        stages = [
            ConvStage(3, 3, 1, 20, True, rate, rng, dtype),
            ConvStage(1, 10, 20, 20, True, rate, rng, dtype),
            ConvStage(3, 3, 20, 20, True, rate, rng, dtype),
        ]
    bands = N_BANDS
    for i, st in enumerate(stages):
        layers.append(NamedLayer(f"Conv{i + 1}", st))
        bands = st.out_bands(bands)
    assert bands == 1, f"front-end must end at 1 band, got {bands}"
    front_channels = stages[-1].conv.cout
    for i in range(11):
        d = 2**i
        adapter_in = front_channels if i == 0 and front_channels != TCN_CHANNELS else None
        lvl = TcnLevel(d, double=(variant == "tcn_v2"), adapter_in=adapter_in, rate=rate,
                       rng=rng, dtype=dtype, entry=i == 0)
        layers.append(NamedLayer(f"Tcn{d}", lvl))
    layers.append(NamedLayer("Out", OutHead(rng, dtype)))
    return Model(variant, int(seed), layers, rate)


def count_params(model: Model) -> tuple[int, dict[str, int]]:
    """Total parameter count and a per-layer breakdown."""
    breakdown = {
        nl.name: int(sum(v.size for v in nl.block.params.values())) for nl in model.layers
    }
    return sum(breakdown.values()), breakdown


def receptive_field(model: Model, through_layer: str) -> tuple[int, float]:
    """Temporal receptive field through the named layer: (frames, ms)."""
    if through_layer not in LAYER_NAMES:
        raise KeyError(f"unknown layer {through_layer!r}")
    frames = 1
    for nl in model.layers:
        frames += nl.block.rf_add
        if nl.name == through_layer:
            break
    return frames, frames * 1000.0 / FRAME_RATE


@dataclass(frozen=True)
class FreezeConfig:
    """Contiguous segment of non-output layers exempt from updates.

    Canonical ids: "ft" (nothing frozen) and "ft_<Layer>" (frozen from
    Conv1 through <Layer>). Arbitrary contiguous segments are accepted as
    "ft_<A>-<B>".
    """

    id: str
    frozen: tuple[str, ...]

    @classmethod
    def from_id(cls, spec: str) -> "FreezeConfig":
        if spec == "ft":
            return cls(id=spec, frozen=())
        if not spec.startswith("ft_"):
            raise ConfigError(f"freeze id must be 'ft' or 'ft_...', got {reprlib.repr(spec)}")
        seg = spec[3:]
        if "-" in seg:
            first, last = seg.split("-", 1)
        else:
            first, last = "Conv1", seg
        for name in (first, last):
            if name == "Out":
                raise ConfigError("the output layer is always trainable")
            if name not in FREEZABLE:
                raise ConfigError(f"unknown layer {reprlib.repr(name)} in freeze id "
                                  f"{reprlib.repr(spec)}")
        a, b = FREEZABLE.index(first), FREEZABLE.index(last)
        if a > b:
            raise ConfigError(f"freeze segment reversed in {reprlib.repr(spec)}")
        return cls(id=spec, frozen=FREEZABLE[a : b + 1])


def canonical_freeze_ids() -> list[str]:
    """The 15 canonical configs: none frozen plus every prefix."""
    return ["ft"] + [f"ft_{name}" for name in FREEZABLE]


def apply_freeze(model: Model, config: FreezeConfig) -> Model:
    """Set trainable flags from the config (idempotent); returns the model."""
    for name in config.frozen:
        if name == "Out":
            raise ConfigError("the output layer is always trainable")
        if name not in LAYER_NAMES:
            raise ConfigError(f"unknown layer {name!r}")
    for nl in model.layers:
        nl.trainable = nl.name not in config.frozen
    return model


def clone_model(model: Model, dropout_rate: float | None = None) -> Model:
    """Independent copy with identical parameters (all layers trainable),
    at the model's own dropout rate unless another is given."""
    rate = model.dropout_rate if dropout_rate is None else dropout_rate
    twin = build_model(model.variant, model.seed, dropout_rate=rate)
    src, dst = model.param_dict(), twin.param_dict()
    for k, v in src.items():
        dst[k][...] = v
    return twin


def _header(model: Model) -> bytes:
    """The model file's text header: format, variant, seed, dropout rate,
    one line per tensor in param_dict order, and the blob's float count."""
    arrays = model.param_dict()
    lines = [f"{MAGIC} {FORMAT_VERSION}", f"variant {model.variant}", f"seed {model.seed}",
             f"dropout {model.dropout_rate!r}"]
    lines += [f"tensor {name} {' '.join(map(str, arr.shape))}" for name, arr in arrays.items()]
    lines.append(f"blob {sum(arr.size for arr in arrays.values())}")
    return ("\n".join(lines) + "\n").encode("ascii")


def save_model(model: Model, path) -> None:
    """Text header (see _header) + little-endian f32 blob."""
    blob = b"".join(arr.astype("<f4", copy=False).tobytes() for arr in model.param_dict().values())
    with open(path, "wb") as fh:
        fh.write(_header(model))
        fh.write(blob)


def load_model(path) -> Model:
    """The model of a file save_model wrote. Its first four lines give the
    variant, seed and dropout rate; the rest must be exactly that model's
    header (see _header) and a blob of its size."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = [ln.decode("ascii", errors="replace") for ln in data.split(b"\n", 4)[:4]]
    version = lines[0].split()
    if version[:1] != [MAGIC] or len(version) != 2:
        raise ModelFormatError(f"not a model file: {reprlib.repr(lines[0])}")

    def number(parse, text, what):
        try:
            return parse(text)
        except ValueError:
            raise ModelFormatError(f"{what} is not a number: {reprlib.repr(text)}") from None

    if number(int, version[1], "format version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version[1]}")
    fields = dict(line.partition(" ")[::2] for line in lines[1:])
    for key in ("variant", "seed", "dropout"):
        if key not in fields:
            raise ModelFormatError(f"header has no {key} line")
    if fields["variant"] not in VARIANTS:
        raise ModelFormatError(f"unknown variant {reprlib.repr(fields['variant'])}")
    seed = number(int, fields["seed"], "seed")
    if seed < 0:
        raise ModelFormatError(f"seed must be >= 0, got {seed}")
    dropout = number(float, fields["dropout"], "dropout")
    if not 0.0 <= dropout < 1.0:
        raise ModelFormatError("dropout must be in [0, 1), got "
                               f"{reprlib.repr(fields['dropout'])}")
    model = build_model(fields["variant"], seed, dropout_rate=dropout)
    header, params = _header(model), model.param_dict()
    ends = np.cumsum([arr.size for arr in params.values()])
    if not data.startswith(header) or len(data) != len(header) + 4 * ends[-1]:
        raise ModelFormatError(f"not the file save_model writes for a {fields['variant']} "
                               f"model of seed {seed} and dropout {dropout!r}")
    values = np.frombuffer(data, dtype="<f4", offset=len(header))
    for arr, vals in zip(params.values(), np.split(values, ends[:-1])):
        arr[...] = vals.reshape(arr.shape)
    return model
