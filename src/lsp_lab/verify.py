"""Quantitative checks: objectives, Monte-Carlo timing, law comparisons.

The Monte-Carlo estimator is the one genuinely independent oracle in the
package: it never touches the recurrence, only the strategy itself.  Its
contract is bitwise reproducibility for a fixed seed: one Philox per call,
reset to a counter-based substream per chunk, one leg search over the
non-decreasing points for both sides, fixed pairwise reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import asymptotics
from .density_kit import (
    POWER_LAW,
    DensityModel,
    TailClass,
    first_abs_moment,
)
from .errors import DomainError, WindowError
from .solver import TurningSequence

VERDICT_CONVERGING = "converging"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_DIVERGING = "diverging"

# Per-law tolerance on |tail mean ratio - 1|; predictions are leading
# order, so the bands differ by how fast the neglected terms decay.
DEFAULT_TOL = {
    asymptotics.LAW_INCREMENT: 0.05,
    asymptotics.LAW_INDEX_INTEGRAL: 0.05,
    asymptotics.LAW_CLOSED_FORM: 0.25,
    asymptotics.LAW_PARETO_RATE: 0.01,
    asymptotics.LAW_COMPACT_RESIDUAL: 0.02,
}
DEFAULT_SLOPE_TOL = 0.05


@dataclass
class ObjectiveValue:
    value: float
    tail_bound: float

    def total_upper(self) -> float:
        return self.value + self.tail_bound


@dataclass
class MonteCarloEstimate:
    mean: float
    half_width_95: float
    n_samples: int
    seed: int
    n_rejected: int = 0

    @property
    def rejection_rate(self) -> float:
        return self.n_rejected / self.n_samples if self.n_samples else 0.0


@dataclass
class ComparisonReport:
    law: str
    model_id: str
    rows: list  # (k, numeric, predicted, ratio), sorted by k
    mean_ratio: float
    log_ratio_slope: float
    tol: float
    slope_tol: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "model": self.model_id,
            "rows": [
                {"k": int(k), "numeric": float(n), "predicted": float(p),
                 "ratio": float(r)}
                for (k, n, p, r) in self.rows
            ],
            "summary": {
                "mean_ratio": float(self.mean_ratio),
                "log_ratio_slope": float(self.log_ratio_slope),
                "tol": float(self.tol),
                "slope_tol": float(self.slope_tol),
            },
            "verdict": self.verdict,
        }


@dataclass
class GrowthReport:
    sup_tail_ratio: float
    sups_at: dict  # burn-in K -> sup of ratios for k >= K
    tends_to_one: Optional[bool]


def objective_value(model: DensityModel, seq: TurningSequence) -> ObjectiveValue:
    """Truncated objective sum plus a geometric tail majorant.

    The tail bound uses the last two survival values as a decay ratio;
    when the sequence already runs past float survival range the bound
    is exactly 0, which is honest at this precision.
    """
    pts = seq.points
    g = np.asarray(model.survival(pts))
    value = float(np.sum(pts[1:] * (g[1:] + g[:-1])))
    if seq.terminated:
        return ObjectiveValue(value, 0.0)
    g_last, g_prev = float(g[-1]), float(g[-2])
    if g_last <= 0.0:
        return ObjectiveValue(value, 0.0)
    ratio = pts[-1] / pts[-2] if pts[-2] > 0 else 1.0
    if model.support != "half-line":
        ratio = 1.0
    t = ratio * (g_last / g_prev)
    if t >= 1.0:
        return ObjectiveValue(value, math.inf)
    return ObjectiveValue(value, 2.0 * pts[-1] * g_last * t / (1.0 - t))


# ---------------------------------------------------------------------------
# Monte Carlo first-passage timing.
# ---------------------------------------------------------------------------

_CHUNK = 1 << 14


def _mc_chunk(model, xs, base, n_in_chunk, gen, fresh, chunk_index):
    """Simulate one chunk; returns [sum T, sum T^2, n accepted, n rejected].

    gen restarts from fresh with counter word 2 = chunk_index, the state
    Philox(key=seed).jumped(chunk_index) has.  Legs alternate sides, odd
    legs negative; with xs non-decreasing, side neg's first leg reaching
    y is i or i + 1 for i = searchsorted(xs, y), so one search serves both.
    """
    fresh["state"]["counter"][2] = chunk_index
    gen.bit_generator.state = fresh
    u = gen.random(n_in_chunk)
    neg = gen.random(n_in_chunk) < 0.5
    y = np.asarray(model.modulus_quantile(u))
    leg = np.searchsorted(xs, y, side="left")
    leg += (leg ^ neg) & 1
    ok = leg < len(xs)
    T = base[leg[ok]] + y[ok]
    n_ok = float(np.count_nonzero(ok))
    return np.array([T.sum(), (T**2).sum(), n_ok, n_in_chunk - n_ok])


def expected_search_time_mc(
    model: DensityModel,
    seq: TurningSequence,
    n_samples: int,
    seed: int,
    n_jobs: int = 1,
) -> MonteCarloEstimate:
    """Estimate E[time to reach the target] for the zigzag strategy seq.

    Samples a modulus and a side; the time is 2*(sum of earlier turning
    distances) + the final partial leg.  Targets beyond the sequence's
    reach, or on a side it never visits, are rejected and counted.  A
    terminated sequence implicitly mirrors its boundary leg so both
    sides are covered.  The leg search needs non-decreasing points
    (saturated ties are fine), so a decreasing or NaN plan raises
    DomainError.  One Philox generator is built per call and reset per
    chunk.  n_jobs is accepted for compatibility and has no effect.
    """
    if n_samples < 2:
        raise DomainError("need at least 2 samples")
    xs = np.asarray(seq.points[1:], dtype=float)
    if xs.size == 0:
        raise DomainError("empty strategy")
    if not np.all(np.diff(seq.points) >= 0.0):
        raise DomainError("strategy points must be non-decreasing, with no NaN")
    if seq.terminated:
        xs = np.append(xs, xs[-1])
    base = np.concatenate(([0.0], 2.0 * np.cumsum(xs)))
    gen = np.random.Generator(np.random.Philox(key=seed))
    fresh = gen.bit_generator.state

    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    sizes = [min(_CHUNK, n_samples - ci * _CHUNK) for ci in range(n_chunks)]
    # fixed-shape pairwise reduction: the tree depends only on the chunk
    # count, so the rounding depends only on (n_samples, seed)
    arr = [
        _mc_chunk(model, xs, base, sizes[ci], gen, fresh, ci) for ci in range(n_chunks)
    ]
    while len(arr) > 1:
        nxt = [arr[i] + arr[i + 1] for i in range(0, len(arr) - 1, 2)]
        if len(arr) % 2:
            nxt.append(arr[-1])
        arr = nxt
    s1, s2, n_ok, n_rej = arr[0]
    if n_ok < 2:
        raise DomainError("all samples rejected; strategy does not cover the mass")
    mean = s1 / n_ok
    var = (s2 - n_ok * mean * mean) / (n_ok - 1.0)
    return MonteCarloEstimate(
        mean=float(mean),
        half_width_95=float(1.96 * math.sqrt(max(var, 0.0) / n_ok)),
        n_samples=int(n_samples),
        seed=int(seed),
        n_rejected=int(n_rej),
    )


def expected_search_time_exact(model: DensityModel, seq: TurningSequence) -> float:
    """m1 + J: the closed-form expected time the MC estimate must match."""
    return first_abs_moment(model) + objective_value(model, seq).value


# ---------------------------------------------------------------------------
# Law comparison harness.
# ---------------------------------------------------------------------------


def _numeric_series(seq: TurningSequence, law: str, k: int) -> float:
    pts = seq.points
    if law == asymptotics.LAW_INCREMENT:
        return float(pts[k] - pts[k - 1])
    if law in (asymptotics.LAW_INDEX_INTEGRAL, asymptotics.LAW_CLOSED_FORM):
        return float(pts[k])
    if law == asymptotics.LAW_PARETO_RATE:
        if k + 1 >= len(pts):
            raise WindowError("ratio series needs k+1 inside the sequence")
        return float(pts[k + 1] / pts[k])
    if law == asymptotics.LAW_COMPACT_RESIDUAL:
        if seq.log_gaps is None:
            raise DomainError("gap-ratio comparison needs log gaps")
        if k + 1 >= len(seq.log_gaps):
            raise WindowError("ratio series needs k+1 inside the sequence")
        return float(seq.log_gaps[k + 1] / seq.log_gaps[k])
    raise DomainError(f"unknown law {law!r}")


def compare(
    seq: TurningSequence,
    prediction: asymptotics.AsymptoticPrediction,
    window: tuple[int, int],
    tol: Optional[float] = None,
    slope_tol: float = DEFAULT_SLOPE_TOL,
) -> ComparisonReport:
    """Ratio-convergence verdict for a prediction over a tail window.

    Converging means the window-mean ratio sits in [1-tol, 1+tol] and the
    log-ratio drift across the window is below slope_tol; ratios more
    than 10 tolerances off are called diverging, anything else is
    inconclusive.  Loosening tol can only move verdicts toward
    converging, never toward diverging.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise WindowError("window upper end below lower end")
    ks = [k for k in range(lo, hi + 1) if k in prediction.values]
    if len(ks) < 10:
        raise WindowError("window too short: need at least 10 predicted points")
    if ks[-1] >= len(seq.points):
        raise WindowError("window extends past the sequence")
    if tol is None:
        tol = DEFAULT_TOL.get(prediction.law, 0.05)

    rows = []
    for k in ks:
        num = _numeric_series(seq, prediction.law, k)
        pred = prediction.values[k]
        if pred <= 0:
            raise DomainError("predictions must be positive")
        rows.append((k, num, pred, num / pred))
    ratios = np.array([r for (_, _, _, r) in rows])
    if np.any(ratios <= 0):
        mean_ratio, slope = float(np.mean(ratios)), math.inf
    else:
        mean_ratio = float(np.mean(ratios))
        slope = float(np.polyfit(np.log(ks), np.log(ratios), 1)[0])

    if abs(mean_ratio - 1.0) <= tol and abs(slope) <= slope_tol:
        verdict = VERDICT_CONVERGING
    elif abs(mean_ratio - 1.0) > 10.0 * tol:
        verdict = VERDICT_DIVERGING
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ComparisonReport(
        law=prediction.law,
        model_id=prediction.model_id,
        rows=rows,
        mean_ratio=mean_ratio,
        log_ratio_slope=slope,
        tol=float(tol),
        slope_tol=float(slope_tol),
        verdict=verdict,
    )


def check_growth_bounds(seq: TurningSequence, tail: TailClass) -> GrowthReport:
    """Tail ratio diagnostics: geometric boundedness, and for classes with
    x*h -> infinity, the decay of the tail sup toward 1."""
    pts = seq.points
    if len(pts) < 20:
        raise WindowError("growth-bound check needs at least 20 points")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = pts[2:] / pts[1:-1]
    n = len(ratios)
    burn_ins = sorted({n // 5, n // 2, (3 * n) // 4, n - 5})
    sups = {int(K): float(np.max(ratios[K:])) for K in burn_ins if K < n}
    sup_half = float(np.max(ratios[n // 2:]))
    if tail.kind == POWER_LAW:
        tends = None
    else:
        levels = [sups[K] for K in sorted(sups)]
        tends = bool(levels[-1] - 1.0 <= 0.5 * max(levels[0] - 1.0, 1e-9) or levels[-1] < 1.02)
    return GrowthReport(sup_tail_ratio=sup_half, sups_at=sups, tends_to_one=tends)
