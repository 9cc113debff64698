"""Training loop, target encoding, and snippet fine-tuning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import OnsetAnnotations
from .errors import AnnotationError, ConfigError, DivergenceError, ShapeError
from .features import FRAME_RATE
from .layers import bce_loss, bce_loss_grad
from .models import FreezeConfig, Model, apply_freeze, clone_model
from .optim import make_optimizer


def make_targets(onsets: OnsetAnnotations, n_frames: int) -> np.ndarray:
    """Per-frame supervision: 1.0 at the frame nearest each onset, 0.5 on
    its immediate neighbors (never overwriting a 1.0), 0 elsewhere."""
    y = np.zeros(n_frames)
    for t in np.asarray(getattr(onsets, "times", onsets), dtype=np.float64):
        if t >= n_frames / FRAME_RATE:
            raise AnnotationError(f"onset at {t:.4f}s beyond clip end ({n_frames} frames)")
        frame = min(int(np.floor(t * FRAME_RATE + 0.5)), n_frames - 1)
        y[frame] = 1.0
        for nb in (frame - 1, frame + 1):
            if 0 <= nb < n_frames:
                y[nb] = max(y[nb], 0.5)
    return y


def _as_values(features) -> np.ndarray:
    return np.asarray(getattr(features, "values", features), dtype=np.float64)


def train(model: Model, corpus, epochs: int, lr: float = 1e-3, seed: int = 0):
    """Train in place: per epoch, one full-sequence gradient step per item
    in seeded shuffled order. Returns (model, per-epoch mean losses)."""
    if not corpus:
        raise ConfigError("training corpus is empty")
    pairs = []
    for feats, targets in corpus:
        x = _as_values(feats)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (x.shape[0],):
            raise ShapeError(f"targets {targets.shape} vs {x.shape[0]} frames")
        pairs.append((x, targets))

    rng = np.random.default_rng(seed)
    opt = make_optimizer(model.optimizer_kind, lr)
    history, last = [], None
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        losses = []
        for idx in order:
            x, targets = pairs[idx]
            act = model.forward(x, training=True, rng=rng)
            loss = bce_loss(act, targets)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, last)
            last = loss
            model.backward(bce_loss_grad(act, targets), input_grad=False)
            opt.step(model.param_dict(trainable_only=True), model.grad_dict(trainable_only=True))
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return model, history


@dataclass(frozen=True)
class FinetuneConfig:
    freeze: FreezeConfig
    seed: int
    epochs: int = 50
    lr_scale: float = 0.25
    base_lr: float = 1e-3
    dropout_active: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.lr_scale <= 1.0:
            raise ConfigError(f"lr_scale must be in (0, 1], got {self.lr_scale}")


def finetune(model: Model, snippet, config: FinetuneConfig) -> Model:
    """Adapt a copy of the model to one snippet.

    One full-snippet gradient step per epoch with the variant's own
    optimizer kind, fresh optimizer state, learning rate base_lr*lr_scale.
    Frozen layers stay bitwise untouched; the input model is not modified.
    With dropout_active False the copy is built without dropout, so its
    training-mode forwards draw nothing.

    The epochs give the floats and dropout draws of full training forwards
    with less work on a frozen prefix: a frozen Conv1's pad + conv + ELU
    output is computed once and each epoch draws its mask and pools a fresh
    product, and the frozen blocks above it, up to the lowest trainable
    one, run cache-free.
    """
    feats, targets = snippet
    x = _as_values(feats)
    targets = np.asarray(targets, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigError("empty snippet")
    if targets.shape != (x.shape[0],):
        raise ShapeError(f"targets {targets.shape} vs {x.shape[0]} frames")

    adapted = clone_model(model, dropout_rate=None if config.dropout_active else 0.0)
    apply_freeze(adapted, config.freeze)
    opt = make_optimizer(adapted.optimizer_kind, config.base_lr * config.lr_scale)
    rng = np.random.default_rng(config.seed)
    # a frozen Conv1's pre-dropout output is the same in every epoch; its
    # dropout mask is not
    conv1, const = adapted.layers[0].block, None
    if adapted.lowest_trainable > 0:
        const = conv1.activate(x[:, :, None])
        const.flags.writeable = False
    last = None
    for epoch in range(config.epochs):
        if const is None:
            act = adapted.forward(x, training=True, rng=rng)
        else:
            h = conv1.forward(const, True, rng, activated=True)
            act = adapted.forward(h, training=True, rng=rng, start=1)
        loss = bce_loss(act, targets)
        if not np.isfinite(loss):
            raise DivergenceError(epoch, last)
        last = loss
        adapted.backward(bce_loss_grad(act, targets), input_grad=False)
        opt.step(
            adapted.param_dict(trainable_only=True), adapted.grad_dict(trainable_only=True)
        )
    return adapted
