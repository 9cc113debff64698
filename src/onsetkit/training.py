"""Training loop, target encoding, and snippet fine-tuning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import OnsetAnnotations
from .errors import (AnnotationError, ConfigError, DivergenceError, ShapeError, check_fields,
                     check_ranges)
from .features import FRAME_RATE
from .layers import bce_loss, bce_loss_grad
from .models import VARIANT_SPECS, FreezeConfig, Model, apply_freeze, clone_model

BASE_LR = 1e-3  # learning rate of pretraining, and of fine-tuning before lr_scale


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


def train(model: Model, corpus, epochs: int, lr: float = BASE_LR, seed: int = 0):
    """Train in place: per epoch, one full-sequence gradient step per item
    in seeded shuffled order. Returns (model, per-epoch mean losses).

    Frozen layers stay bitwise untouched. Each step gives the floats and
    dropout draws of a full training forward from the features, starting
    from the item's Model.prefix, computed once: past a frozen Conv1 that
    is Conv1's pad + conv + ELU output (each step draws its mask and pools
    a fresh product). Every block draws dropout from the one seeded rng,
    and only those from the lowest trainable one up keep caches (see
    Model.forward); a conv stage's whole-length ones go over the previous
    step's when the item's length holds, and every cache is dropped
    (Model.drop_caches) when train returns or raises, so the model comes
    back holding only its parameters and gradients.
    """
    check_ranges(epochs=epochs, seed=seed)
    if not corpus:
        raise ConfigError("training corpus is empty")
    items = []
    for feats, targets in corpus:
        x = np.asarray(getattr(feats, "values", feats), dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if not x.shape[0]:
            raise ConfigError("empty training item")
        if targets.shape != (x.shape[0],):
            raise ShapeError(f"targets {targets.shape} vs {x.shape[0]} frames")
        items.append((model.prefix(x, training=True), targets))

    rng = np.random.default_rng(seed)
    opt = VARIANT_SPECS[model.variant][2](lr=lr)  # the variant's optimizer class
    history, last = [], None
    try:
        for epoch in range(epochs):
            losses = []
            for idx in rng.permutation(len(items)):
                item, targets = items[idx]
                act = model.forward(item, training=True, rng=rng)
                loss = bce_loss(act, targets)
                if not np.isfinite(loss):
                    raise DivergenceError(epoch, last)
                last = loss
                model.backward(bce_loss_grad(act, targets), input_grad=False)
                opt.step(model.param_dict(trainable_only=True),
                         model.grad_dict(trainable_only=True))
                losses.append(loss)
            history.append(float(np.mean(losses)))
    finally:
        model.drop_caches()
    return model, history


@dataclass(frozen=True)
class FinetuneConfig:
    freeze: FreezeConfig
    seed: int = 0
    epochs: int = 50
    lr_scale: float = 0.25
    base_lr: float = BASE_LR
    dropout_active: bool = True

    def __post_init__(self):
        check_fields(self)


def finetune(model: Model, snippet, config: FinetuneConfig) -> Model:
    """Adapt a copy of the model to one (features, targets) snippet.

    train on a clone with the config's freeze applied: one full-snippet
    gradient step per epoch with the variant's own optimizer, fresh
    optimizer state, learning rate base_lr*lr_scale. The input model is
    not modified. With dropout_active False the copy is built without
    dropout, so its training-mode forwards draw nothing.
    """
    adapted = clone_model(model, dropout_rate=None if config.dropout_active else 0.0)
    return train(apply_freeze(adapted, config.freeze), [snippet], config.epochs,
                 config.base_lr * config.lr_scale, config.seed)[0]
