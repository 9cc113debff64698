"""Finite-difference gradient check for the layer protocol of
onsetkit.layers, shared by the layer and acceptance tests."""

import numpy as np


def as_float64(subject):
    """subject (a parameter layer, a block or a model), its parts' float32
    params swapped for float64 copies, so that a finite difference of h
    moves a weight by h and not by the float32 step nearest it."""
    blocks = [nl.block for nl in subject.layers] if hasattr(subject, "layers") else [subject]
    for block in blocks:
        for part in getattr(block, "parts", {"": block}).values():
            part.params.update({k: v.astype(np.float64) for k, v in part.params.items()})
    return subject


def gradcheck(layer, x, seed=0, h=1e-4, max_coords=48):
    """Worst relative error between analytic and central-difference grads.

    Objective: sum(R * layer(x)) for a fixed random projection R, so the
    output gradient is exactly R. Samples up to max_coords coordinates per
    tensor (input and every parameter). Double precision throughout; the
    caller picks seeds that avoid ELU/pool kink points. Forwards keep what
    backward reads (keep=True) and, given no rng, draw no dropout.
    """
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=np.float64)

    def run():
        return layer.forward(x, keep=True)

    y0 = run()
    proj = rng.standard_normal(y0.shape)
    gx = layer.backward(proj)
    tensors = [(x, gx)] + [(arr, layer.grads[name]) for name, arr in layer.params.items()]

    worst = 0.0
    for arr, grad in tensors:
        size = arr.size
        coords = np.arange(size) if size <= max_coords else rng.choice(size, max_coords, False)
        for ci in coords:
            orig = arr.flat[ci]
            arr.flat[ci] = orig + h
            fp = float(np.sum(proj * run()))
            arr.flat[ci] = orig - h
            fm = float(np.sum(proj * run()))
            arr.flat[ci] = orig
            numeric = (fp - fm) / (2.0 * h)
            analytic = float(grad.flat[ci])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, rel)
    return worst
