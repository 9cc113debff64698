"""Finite-difference gradient check for the layer protocol of
onsetkit.layers, shared by the layer and acceptance tests."""

import numpy as np


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
