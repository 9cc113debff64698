from functools import lru_cache

import numpy as np
import pytest

from onsetkit.audio import OnsetAnnotations
from onsetkit.errors import ConfigError
from onsetkit.evaluate import (
    EvalResult,
    PeakPickParams,
    aggregate,
    compute_prf,
    delta_pp,
    match_onsets,
    peak_pick,
)
from onsetkit.features import FRAME_RATE


def max_matching(est, ref, tol):
    """Brute-force maximum matching cardinality (exhaustive search)."""
    est = list(est)

    @lru_cache(maxsize=None)
    def best(j, used_mask):
        if j == len(ref):
            return 0
        score = best(j + 1, used_mask)  # leave ref j unmatched
        for i, e in enumerate(est):
            if used_mask & (1 << i):
                continue
            if abs(e - ref[j]) <= tol:
                score = max(score, 1 + best(j + 1, used_mask | (1 << i)))
        return score

    ref = tuple(ref)
    return best(0, 0)


def test_peak_pick_single_peak():
    ann = peak_pick(np.array([0.1, 0.6, 0.9, 0.6, 0.1]))
    assert list(ann.times) == [0.02]


def test_peak_pick_zero_activation():
    assert len(peak_pick(np.zeros(100))) == 0


def test_peak_pick_gap_rule():
    act = np.zeros(30)
    act[10] = 0.9
    act[12] = 0.9
    ann = peak_pick(act)
    assert list(ann.times) == [0.10]
    # widening the permitted spacing lets both through
    loose = peak_pick(act, PeakPickParams(min_gap=0.02))
    assert list(loose.times) == [0.10, 0.12]


def test_peak_pick_threshold_and_average():
    act = np.zeros(20)
    act[5] = 0.4  # below threshold
    ann = peak_pick(act)
    assert len(ann) == 0
    # isolated triangular peak: mean over +-2 is 0.34, so delta decides
    act = np.zeros(20)
    act[9:12] = [0.55, 0.6, 0.55]
    assert list(peak_pick(act, PeakPickParams(delta=0.2)).times) == [0.10]
    assert len(peak_pick(act, PeakPickParams(delta=0.3))) == 0


def test_peak_pick_shift_equivariance():
    rng = np.random.default_rng(0)
    base = np.zeros(100)
    idx = [12, 30, 31, 55, 80]
    base[idx] = rng.uniform(0.6, 1.0, len(idx))
    for params in (PeakPickParams(), PeakPickParams(w_max=0)):
        for shift in (3, 7, 20):
            shifted = np.concatenate([np.zeros(shift), base])
            a = peak_pick(base, params).times
            b = peak_pick(shifted, params).times
            assert np.allclose(b, a + shift / 100.0)


def peak_pick_with_w_max_branch(act, params):
    """peak_pick's times from its documented rule, with every frame a local
    max at w_max=0 (a branch the implementation leaves to the window)."""
    def windowed(x, half):
        return np.lib.stride_tricks.sliding_window_view(np.pad(x, half), 2 * half + 1)

    local_max = (act >= windowed(act, params.w_max).max(axis=1) if params.w_max
                 else np.ones_like(act, bool))
    above_avg = act >= windowed(act, params.w_avg).mean(axis=1) + params.delta
    times, last = [], None
    for t in np.flatnonzero((act >= params.threshold) & local_max & above_avg):
        if last is None or t - last >= int(round(params.min_gap * FRAME_RATE)):
            times.append(t / FRAME_RATE)
            last = t
    return np.array(times)


@pytest.mark.parametrize("w_max", [0, 1, 2])
def test_peak_pick_matches_the_rule_on_plateaus_and_nan_frames(w_max):
    rng = np.random.default_rng(3)
    noisy = rng.uniform(0, 1, 400)
    plateaus = np.repeat(rng.choice([0.2, 0.55, 0.8, 0.9], 80), rng.integers(1, 5, 80))
    with_nan = rng.uniform(0, 1, 400)
    with_nan[rng.choice(400, 40, replace=False)] = np.nan
    with_nan[:3] = np.nan
    params = PeakPickParams(w_max=w_max, min_gap=0.01)
    for act in (noisy, plateaus, with_nan):
        want = peak_pick_with_w_max_branch(act, params)
        assert want.size
        assert peak_pick(act, params).times.tobytes() == want.tobytes()
    assert peak_pick(np.full(7, np.nan), params).times.size == 0


def test_peak_pick_param_validation():
    with pytest.raises(ConfigError):
        PeakPickParams(threshold=0.0)
    with pytest.raises(ConfigError):
        PeakPickParams(threshold=1.0)
    with pytest.raises(ConfigError):
        PeakPickParams(w_max=-1)
    with pytest.raises(ConfigError):
        PeakPickParams(min_gap=0.005)
    for bad in (dict(min_gap=np.nan), dict(min_gap=np.inf), dict(delta=np.nan),
                dict(delta=np.inf), dict(delta=-np.inf), dict(w_max=np.nan), dict(w_avg=np.nan)):
        with pytest.raises(ConfigError):
            PeakPickParams(**bad)
    assert PeakPickParams(delta=-0.1).delta == -0.1


@pytest.mark.parametrize("tolerance", [0.0, -0.025, np.nan, np.inf])
def test_match_rejects_tolerance_not_positive_and_finite(tolerance):
    with pytest.raises(ConfigError):
        match_onsets(OnsetAnnotations(times=[0.5]), OnsetAnnotations(times=[0.5]), tolerance)


def test_match_within_tolerance():
    m = match_onsets(OnsetAnnotations(times=[0.51]), OnsetAnnotations(times=[0.50]))
    assert (m.tp, m.fp, m.fn) == (1, 0, 0)
    assert m.pairs == ((0, 0),)


def test_match_outside_tolerance():
    m = match_onsets(OnsetAnnotations(times=[0.53]), OnsetAnnotations(times=[0.50]))
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)


def test_match_one_to_one():
    # one estimate cannot satisfy two references
    m = match_onsets(OnsetAnnotations(times=[0.5]), OnsetAnnotations(times=[0.49, 0.51]))
    assert (m.tp, m.fp, m.fn) == (1, 0, 1)


def test_match_equals_bruteforce_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n_e, n_r = rng.integers(0, 7), rng.integers(0, 7)
        est = np.sort(rng.uniform(0, 1, n_e))
        ref = np.sort(rng.uniform(0, 1, n_r))
        tol = rng.uniform(0.005, 0.08)
        got = match_onsets(OnsetAnnotations(times=est), OnsetAnnotations(times=ref), tol)
        # OnsetAnnotations dedups within 1 ms; compare on its actual times
        est_d, ref_d = OnsetAnnotations(times=est).times, OnsetAnnotations(times=ref).times
        assert got.tp == max_matching(tuple(est_d), tuple(ref_d), tol)
        assert got.fp == len(est_d) - got.tp
        assert got.fn == len(ref_d) - got.tp


def test_match_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = OnsetAnnotations(times=np.sort(rng.uniform(0, 2, rng.integers(0, 6))))
        b = OnsetAnnotations(times=np.sort(rng.uniform(0, 2, rng.integers(0, 6))))
        ab = match_onsets(a, b)
        ba = match_onsets(b, a)
        assert ab.tp == ba.tp
        assert ab.fp == ba.fn and ab.fn == ba.fp


def test_compute_prf():
    assert compute_prf((2, 1, 1)) == pytest.approx((2 / 3, 2 / 3, 2 / 3))
    assert compute_prf((0, 0, 0)) == (1.0, 1.0, 1.0)
    assert compute_prf((0, 5, 3)) == (0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        compute_prf((-1, 0, 0))


def test_aggregate_both_views():
    res = aggregate([(1, 0, 0), (0, 1, 1)])
    assert res.mean_f1 == pytest.approx(0.5)
    # summed counts: tp=1, fp=1, fn=1 -> p = r = 1/2 -> f1 = 1/2
    assert res.f1 == pytest.approx(0.5)
    assert res.per_file[0] == (1, 0, 0, 1.0)
    assert res.per_file[1][3] == 0.0


def test_aggregate_identical_files():
    single = aggregate([(3, 1, 2)])
    many = aggregate([(3, 1, 2)] * 32)
    assert many.mean_f1 == pytest.approx(single.mean_f1)
    assert many.f1 == pytest.approx(single.f1)
    assert len(many.per_file) == 32


def test_aggregate_order_invariant():
    files = [(1, 0, 0), (0, 1, 1), (2, 1, 0), (3, 0, 2)]
    a = aggregate(files)
    b = aggregate(files[::-1])
    assert a.mean_f1 == pytest.approx(b.mean_f1)
    assert a.f1 == pytest.approx(b.f1)


def test_aggregate_empty():
    with pytest.raises(ConfigError):
        aggregate([])


def test_delta_pp_table_anchors():
    assert delta_pp(0.985, 0.477) == pytest.approx(50.8)
    assert delta_pp(0.998, 0.508) == pytest.approx(49.0)
    assert delta_pp(0.7, 0.7) == 0.0


def test_delta_pp_on_results():
    a = aggregate([(1, 0, 0), (1, 0, 0)])
    b = aggregate([(1, 0, 0), (0, 1, 1)])
    assert delta_pp(a, b) == pytest.approx(50.0)
    c = aggregate([(1, 0, 0)])
    with pytest.raises(ConfigError):
        delta_pp(a, c)


def test_peak_pick_then_match_roundtrip():
    # plant activation peaks exactly on a reference grid
    ref = OnsetAnnotations(times=[0.10, 0.50, 1.00])
    act = np.zeros(150)
    for t in ref.times:
        act[int(round(t * 100))] = 0.95
    est = peak_pick(act)
    m = match_onsets(est, ref)
    assert (m.tp, m.fp, m.fn) == (3, 0, 0)
