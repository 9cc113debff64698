"""Peak picking, onset matching, and P/R/F1 evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import OnsetAnnotations
from .errors import ConfigError, check_fields, check_ranges
from .features import FRAME_RATE

DEFAULT_TOLERANCE = 0.025


@dataclass(frozen=True)
class PeakPickParams:
    """Frame t becomes a candidate iff act[t] >= threshold, act[t] is the
    max over [t-w_max, t+w_max], and act[t] >= mean over [t-w_avg, t+w_avg]
    + delta (windows zero-padded at the edges). Candidates closer than
    min_gap to an accepted earlier peak are dropped left to right."""

    threshold: float = 0.5
    w_max: int = 1
    w_avg: int = 2
    delta: float = 0.0
    min_gap: float = 0.03  # seconds

    def __post_init__(self):
        check_fields(self)
        if not 1.0 / FRAME_RATE <= self.min_gap < np.inf:
            raise ConfigError(f"minimum gap below one frame (10 ms) or infinite: {self.min_gap}")


def _windowed(x: np.ndarray, half: int):
    pad = np.pad(x, half)
    return np.lib.stride_tricks.sliding_window_view(pad, 2 * half + 1)


def peak_pick(activation, params: PeakPickParams | None = None) -> OnsetAnnotations:
    """Convert a per-frame activation into onset times (seconds)."""
    params = params or PeakPickParams()
    act = np.asarray(getattr(activation, "values", activation), dtype=np.float64)
    if act.size == 0:
        return OnsetAnnotations()
    local_max = act >= _windowed(act, params.w_max).max(axis=1)
    above_avg = act >= _windowed(act, params.w_avg).mean(axis=1) + params.delta
    candidates = np.flatnonzero((act >= params.threshold) & local_max & above_avg)
    gap_frames = int(round(params.min_gap * FRAME_RATE))
    times = []
    last = None
    for t in candidates:
        if last is not None and t - last < gap_frames:
            continue
        times.append(t / FRAME_RATE)
        last = t
    return OnsetAnnotations(times=np.array(times))


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairs: tuple = field(default_factory=tuple)  # (estimate index, reference index)


def match_onsets(
    estimates: OnsetAnnotations,
    reference: OnsetAnnotations,
    tolerance: float = DEFAULT_TOLERANCE,
) -> MatchResult:
    """One-to-one matching within +-tolerance, greedy in ascending
    reference order, each reference taking the earliest unmatched
    estimate in its window. For uniform windows this greedy attains the
    maximum matching cardinality (verified against brute force in tests).
    """
    check_ranges(tolerance=tolerance)
    est = np.asarray(getattr(estimates, "times", estimates), dtype=np.float64)
    ref = np.asarray(getattr(reference, "times", reference), dtype=np.float64)
    pairs = []
    i = 0
    for j, r in enumerate(ref):
        while i < len(est) and est[i] < r - tolerance:
            i += 1
        if i < len(est) and est[i] <= r + tolerance:
            pairs.append((i, j))
            i += 1
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(est) - tp, fn=len(ref) - tp, pairs=tuple(pairs))


def compute_prf(counts) -> tuple[float, float, float]:
    """(precision, recall, f1); empty denominators count as perfect."""
    if isinstance(counts, MatchResult):
        tp, fp, fn = counts.tp, counts.fp, counts.fn
    else:
        tp, fp, fn = counts
    if min(tp, fp, fn) < 0:
        raise ConfigError("negative counts")
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass(frozen=True)
class EvalResult:
    """Summed-count scores plus the headline mean of per-file F1."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    mean_f1: float
    per_file: dict  # id -> (tp, fp, fn, f1)


def aggregate(per_file, ids=None) -> EvalResult:
    """Combine per-file (tp, fp, fn) counts.

    Reports both the summed-count P/R/F1 (diagnostics) and the mean of
    per-file F1 values (the headline score).
    """
    counts = [c if not isinstance(c, MatchResult) else (c.tp, c.fp, c.fn) for c in per_file]
    if not counts:
        raise ConfigError("nothing to aggregate")
    if ids is None:
        ids = list(range(len(counts)))
    if len(ids) != len(counts):
        raise ConfigError(f"{len(ids)} ids for {len(counts)} count triples")
    file_scores = {}
    f1s = []
    for fid, (tp, fp, fn) in zip(ids, counts):
        _, _, f1 = compute_prf((tp, fp, fn))
        file_scores[fid] = (tp, fp, fn, f1)
        f1s.append(f1)
    tp, fp, fn = (int(sum(c[k] for c in counts)) for k in range(3))
    p, r, f1 = compute_prf((tp, fp, fn))
    return EvalResult(
        tp=tp, fp=fp, fn=fn, precision=p, recall=r, f1=f1,
        mean_f1=float(np.mean(f1s)), per_file=file_scores,
    )


def delta_pp(adapted, baseline) -> float:
    """Headline F1 difference in percentage points (signed).

    Accepts EvalResults (file sets must agree) or plain F1 floats.
    """
    if isinstance(adapted, EvalResult) and isinstance(baseline, EvalResult):
        if set(adapted.per_file) != set(baseline.per_file):
            raise ConfigError("results cover different file sets")
        adapted, baseline = adapted.mean_f1, baseline.mean_f1
    return (float(adapted) - float(baseline)) * 100.0
