"""What a model holds once training is over: its parameters and gradients,
and no backward cache."""

import numpy as np
import pytest

from onsetkit.errors import ConfigError

# every attribute a training forward sets for backward, on a block or a part
CACHE_NAMES = {"_x_col", "_in_shape", "_x", "_d", "_mask", "_arg", "_y"}


def assert_holds_no_caches(model):
    """No block or part holds a cache attribute or an array outside its
    params and grads, and backward needs a new training forward."""
    for nl in model.layers:
        for owner in (nl.block, *nl.block.parts.values()):
            held = [k for k, v in vars(owner).items()
                    if k in CACHE_NAMES or isinstance(v, np.ndarray)]
            assert held == [], (nl.name, type(owner).__name__, held)
    with pytest.raises(ConfigError, match="training-mode forward first"):
        model.backward(np.zeros(1))
