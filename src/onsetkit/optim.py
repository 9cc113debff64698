"""Optimizers: Adam and Rectified Adam wrapped in Lookahead.

Both operate on dicts of named parameter arrays, updating them in place.
Moments and all update arithmetic are float64; the final value is rounded
back to each parameter's own dtype (float32 in saved models). The caller
passes only the trainable subset, so frozen tensors are never touched.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def rho_schedule(t: int, beta2: float) -> float:
    """Length of the approximated SMA at step t (rectification schedule)."""
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    b2t = beta2**t
    return rho_inf - 2.0 * t * b2t / (1.0 - b2t)


def rectification(rho_t: float, rho_inf: float) -> float:
    """Variance rectification multiplier r_t; approaches 1 as t grows."""
    return float(
        np.sqrt(
            ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
    )


class Adam:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def _moments(self, name: str, p: np.ndarray, grad) -> tuple[np.ndarray, np.ndarray]:
        """Fold one shape-checked gradient into name's moments at step t;
        returns (bias-corrected first moment, raw second moment)."""
        g = np.asarray(grad, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"{name}: grad {g.shape} vs param {p.shape}")
        m = self.m.setdefault(name, np.zeros(p.shape))
        v = self.v.setdefault(name, np.zeros(p.shape))
        m[...] = self.beta1 * m + (1.0 - self.beta1) * g
        v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
        return m / (1.0 - self.beta1**self.t), v

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in params.items():
            m_hat, v = self._moments(name, p, grads[name])
            v_hat = v / (1.0 - self.beta2**self.t)
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p[...] = (p.astype(np.float64) - update).astype(p.dtype)


class RAdamLookahead(Adam):
    """Rectified Adam fast steps; every k steps slow weights absorb them.

    While the rectification schedule rho_t stays <= 4 the step is plain
    bias-corrected momentum (no adaptive denominator); once rho_t > 4 the
    rectified adaptive step applies. Lookahead: after every k fast steps,
    slow <- slow + alpha * (fast - slow), then fast is reset to slow.
    """

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, k=5, alpha=0.5):
        super().__init__(lr, beta1, beta2, eps)
        self.k, self.alpha = k, alpha
        self.slow: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        t = self.t
        rho_inf = 2.0 / (1.0 - self.beta2) - 1.0
        rho_t = rho_schedule(t, self.beta2)
        sync = t % self.k == 0
        for name, p in params.items():
            m_hat, v = self._moments(name, p, grads[name])
            slow = self.slow.setdefault(name, p.astype(np.float64).copy())
            if rho_t > 4.0:
                v_hat = np.sqrt(v / (1.0 - self.beta2**t))
                r_t = rectification(rho_t, rho_inf)
                theta = p.astype(np.float64) - self.lr * r_t * m_hat / (v_hat + self.eps)
            else:
                theta = p.astype(np.float64) - self.lr * m_hat
            if sync:
                slow += self.alpha * (theta - slow)
                theta = slow
            p[...] = theta.astype(p.dtype)
