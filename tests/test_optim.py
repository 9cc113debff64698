import math

import numpy as np
import pytest

from onsetkit.errors import ShapeError
from onsetkit.models import VARIANT_SPECS, build_model
from onsetkit.optim import Adam, RAdamLookahead, rectification, rho_schedule
from onsetkit.training import train


def test_adam_zero_grad_noop():
    opt = Adam()
    p = {"w": np.array([1.0, -2.0], dtype=np.float32)}
    before = p["w"].copy()
    opt.step(p, {"w": np.zeros(2)})
    assert np.array_equal(p["w"], before)
    assert opt.t == 1


def test_adam_first_step_is_lr():
    opt = Adam(lr=1e-3)
    p = {"w": np.array([0.0])}
    opt.step(p, {"w": np.array([1.0])})
    assert abs(p["w"][0] + 1e-3) < 1e-6


def test_adam_two_steps_match_hand_recurrence():
    # independent recurrence in plain floats for g = (1, 1)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        theta -= lr * mh / (math.sqrt(vh) + eps)

    opt = Adam(lr=lr)
    p = {"w": np.array([0.0])}
    opt.step(p, {"w": np.array([1.0])})
    opt.step(p, {"w": np.array([1.0])})
    assert abs(p["w"][0] - theta) < 1e-12
    # closed form for this trajectory: both steps reduce to lr/(1 + eps)
    assert abs(theta + 2 * lr / (1 + eps)) < 1e-15


def test_adam_shape_mismatch():
    opt = Adam()
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)}, {"w": np.zeros(4)})


def test_adam_keeps_param_dtype():
    opt = Adam()
    p = {"w": np.zeros(4, dtype=np.float32)}
    opt.step(p, {"w": np.ones(4)})
    assert p["w"].dtype == np.float32


def test_radam_early_steps_are_momentum_only():
    # rho_1 = 1 for beta2=0.999, so the first step is exactly -lr * m_hat
    assert rho_schedule(1, 0.999) == pytest.approx(1.0)
    opt = RAdamLookahead(lr=1e-3)
    p = {"w": np.array([0.0])}
    opt.step(p, {"w": np.array([1.0])})
    assert p["w"][0] == -1e-3


def test_radam_rectified_branch_starts_at_t5():
    # for beta2=0.999 the schedule crosses 4 between t=4 and t=5
    assert rho_schedule(4, 0.999) < 4.0
    assert rho_schedule(5, 0.999) > 4.0


def test_radam_ten_step_trajectory_matches_scripted_oracle():
    # independent scalar recurrence, plain floats, written from the update
    # definitions; includes the lookahead syncs at t=5 and t=10
    lr, b1, b2, eps, k, alpha = 1e-3, 0.9, 0.999, 1e-8, 5, 0.5
    grads = list(np.random.default_rng(42).standard_normal(10))

    theta, slow, m, v = 0.5, 0.5, 0.0, 0.0
    rho_inf = 2 / (1 - b2) - 1
    for t in range(1, 11):
        g = grads[t - 1]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        rho = rho_inf - 2 * t * b2**t / (1 - b2**t)
        if rho > 4:
            r = math.sqrt(
                ((rho - 4) * (rho - 2) * rho_inf) / ((rho_inf - 4) * (rho_inf - 2) * rho)
            )
            vh = math.sqrt(v / (1 - b2**t))
            theta = theta - lr * r * mh / (vh + eps)
        else:
            theta = theta - lr * mh
        if t % k == 0:
            slow = slow + alpha * (theta - slow)
            theta = slow

    opt = RAdamLookahead(lr=lr, k=k, alpha=alpha)
    p = {"w": np.array([0.5])}
    for g in grads:
        opt.step(p, {"w": np.array([g])})
    assert abs(p["w"][0] - theta) < 1e-10


def test_lookahead_blend_rule():
    # compare against an identical optimizer with sync disabled (huge k)
    grads = list(np.random.default_rng(7).standard_normal(5))
    pa = {"w": np.array([0.3])}
    pb = {"w": np.array([0.3])}
    a = RAdamLookahead(k=5, alpha=0.5)
    b = RAdamLookahead(k=10**9)
    for g in grads:
        a.step(pa, {"w": np.array([g])})
        b.step(pb, {"w": np.array([g])})
    fast_drift = pb["w"][0]
    expect = 0.3 + 0.5 * (fast_drift - 0.3)
    assert abs(pa["w"][0] - expect) < 1e-12
    assert a.slow["w"][0] == pa["w"][0]


def test_radam_converges_to_adam_update():
    # at huge t the rectifier is 1 and the two updates coincide
    t = 10**6
    rho_inf = 2 / (1 - 0.999) - 1
    assert abs(rectification(rho_schedule(t, 0.999), rho_inf) - 1.0) < 1e-9

    pa = {"w": np.array([0.25])}
    pr = {"w": np.array([0.25])}
    adam = Adam()
    radam = RAdamLookahead(k=10**9)
    adam.t = t
    radam.t = t
    g = {"w": np.array([0.7])}
    adam.step(pa, g)
    radam.step(pr, g)
    assert abs(pa["w"][0] - pr["w"][0]) <= 1e-6 * abs(pa["w"][0])


def test_each_variant_trains_with_its_optimizer_class(monkeypatch):
    # tcn_v1 trains with Adam and tcn_v2 with RAdam + Lookahead, the
    # optimizer of each variant's row, with no other optimizer stepping
    want = {"tcn_v1": Adam, "tcn_v2": RAdamLookahead}
    assert {variant: spec[2] for variant, spec in VARIANT_SPECS.items()} == want
    steps = []
    for cls in want.values():
        monkeypatch.setattr(cls, "step", lambda self, params, grads: steps.append(type(self)))
    x = np.random.default_rng(0).uniform(0, 1, (40, 81))
    for variant, cls in want.items():
        steps.clear()
        train(build_model(variant, seed=1), [(x, np.zeros(40))], epochs=2)
        assert steps == [cls, cls]
