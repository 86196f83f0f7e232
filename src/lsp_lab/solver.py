"""Optimal turning-point sequences.

Three routes to the same object:

- shoot_forward iterates the optimality recurrence in x coordinates.  It
  is the textbook method and the basis of find_x1 (which runs the same
  step over arrays of trial x1), but forward iteration amplifies seed
  error so violently that no float x1 survives more than a dozen steps
  on most families.  The failure *mode* (collapse versus underflow)
  still flips cleanly across the true x1, which is what the bisection
  actually uses.
- solve integrates the recurrence in reverse from deep-tail asymptotic
  seeds, where the same instability works for us: contraction toward the
  true orbit.  A one-parameter dial shifts the seed along the asymptotic
  law; the landing residual at the origin pins the dial.  This reaches
  any horizon the float format can express.
- finite_horizon_optimize minimizes the truncated objective directly
  (a Newton polish of the stationarity chain: on the unit interval after
  cyclic coordinate descent, on the half line for each live count in
  turn, warm-started from the previous count) and is used as an
  independent cross-check on the other two.

On the unit interval everything runs in the log-gap coordinate
L = -log(1-x): interior points approach 1 doubly exponentially, so x
itself saturates to 1.0 in float64 after a handful of steps while L
stays exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import optimize
from scipy.linalg import solve_banded

from . import asymptotics, density_kit
from .density_kit import (
    COMPACT_POWER_LAW,
    COMPACT_RV,
    COMPACT_TERMINATING,
    HALF_LINE,
    POWER_LAW,
    UNIT_INTERVAL,
    DensityModel,
    classify_tail,
    first_abs_moment,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NonMonotonePredicateError,
    NotApplicableError,
)

log = logging.getLogger(__name__)

SURVIVED = "SurvivedHorizon"
MONOTONICITY_VIOLATED = "MonotonicityViolated"
NUMERIC_UNDERFLOW = "NumericUnderflow"

_BISECTION_TOL = 1e-12  # relative bracket width at which find_x1 stops
_HORIZON_N = 40  # oracle horizon for solve's x1 cross-check
_MAX_SWEEPS = 400  # cap on the compact oracle's coordinate-descent sweeps


@dataclass
class TurningSequence:
    """Strictly increasing turning points with points[0] = 0.

    For unit-interval targets log_gaps carries L_k = -log(1 - x_k)
    alongside the points: beyond the first few indices 1 - x_k drops
    under the smallest positive float and points saturate to exactly
    1.0, so monotonicity and all deep-tail laws are only decidable in
    the L representation.
    """

    points: np.ndarray
    terminated: bool
    model_id: str
    log_gaps: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.size == 0 or self.points[0] != 0.0:
            raise DomainError("turning sequences start at points[0] = 0")
        if self.log_gaps is not None:
            self.log_gaps = np.asarray(self.log_gaps, dtype=float)
            if self.log_gaps.shape != self.points.shape:
                raise DomainError("log_gaps must align with points")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.points)

    def is_strictly_increasing(self) -> bool:
        seq = self.points if self.log_gaps is None else self.log_gaps
        return bool(np.all(np.diff(seq) > 0.0))

    def to_dict(self) -> dict:
        out = {
            "model": self.model_id,
            "points": [float(t) for t in self.points],
            "terminated": bool(self.terminated),
            "increments": [float(t) for t in self.increments],
        }
        if self.log_gaps is not None:
            out["log_gaps"] = [float(t) for t in self.log_gaps]
        return out


@dataclass
class SolverConfig:
    k_max: int = 200
    x1_bracket: tuple[float, float] = (1e-6, 50.0)
    # Survival level at the half-line oracle's terminal point x_n.  The
    # default is the survival at the 1 - 1e-10 quantile as float64 rounds
    # it; go lower to push the horizon deeper than a quantile near 1 can
    # express (float resolution there is ~1e-16).
    cap_survival: float = 1.0 - (1.0 - 1e-10)
    cross_check: bool = True

    def __post_init__(self):
        if self.k_max < 1:
            raise DomainError("k_max must be at least 1")
        lo, hi = self.x1_bracket
        if not (0 < lo < hi):
            raise DomainError("x1_bracket must satisfy 0 < lo < hi")
        if not (0 < self.cap_survival < 0.1):
            raise DomainError("cap_survival must lie in (0, 0.1)")


@dataclass
class ShootResult:
    outcome: str
    failure_index: Optional[int]
    sequence: TurningSequence

    @property
    def survived(self) -> bool:
        return self.outcome == SURVIVED


# ---------------------------------------------------------------------------
# Forward recurrence.
# ---------------------------------------------------------------------------


def _step(model: DensityModel, x_prev, x_cur):
    """x_next = (G(x_cur) + G(x_prev))/p(x_cur) - x_cur, elementwise, and p(x_cur).

    The one forward-step formula, for scalars and arrays alike.  Where p
    is not positive and finite the step is undefined and x_next carries
    whatever the division gave; callers classify that case first.
    """
    p = np.asarray(model.pdf(x_cur))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_next = (model.survival(x_cur) + model.survival(x_prev)) / p - x_cur
    return x_next, p


def recurrence_step(model: DensityModel, x_prev: float, x_cur: float) -> float:
    """One forward step: x_next = (G(x_cur) + G(x_prev))/p(x_cur) - x_cur.

    Raises DomainError when the inputs are out of order or the step is
    not defined (boundary already reached, or pdf underflow).  The
    monotonicity of the *output* is the caller's concern: shoot_forward
    classifies x_next <= x_cur as an outcome, not an exception.
    """
    if not (0.0 <= x_prev < x_cur):
        raise DomainError("need 0 <= x_prev < x_cur")
    if model.support == UNIT_INTERVAL and x_cur >= 1.0:
        raise DomainError("boundary already reached; the plan terminates here")
    x_next, p = _step(model, x_prev, x_cur)
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError("pdf underflow at x_cur; recurrence step undefined")
    if not math.isfinite(x_next):
        raise DomainError("recurrence step overflowed")
    return float(x_next)


def _shoot_modes(model: DensityModel, x1s: np.ndarray, k_max: int) -> np.ndarray:
    """shoot_forward's outcome for every x1 in x1s on the half line, in one pass.

    Each step advances all live lanes through _step at once and retires
    a lane exactly where shoot_forward would end: NUMERIC_UNDERFLOW when
    the step is undefined or not finite, MONOTONICITY_VIOLATED when
    x_next <= x_cur.  Lanes still live after k_max - 1 steps survived.
    """
    modes = np.full(len(x1s), SURVIVED, dtype=object)
    live = np.arange(len(x1s))
    x_prev, x_cur = np.zeros(len(x1s)), np.asarray(x1s, dtype=float)
    for _ in range(1, k_max):
        if not live.size:
            break
        x_next, p = _step(model, x_prev, x_cur)
        under = ~((p > 0.0) & np.isfinite(p) & np.isfinite(x_next))
        collapse = ~under & (x_next <= x_cur)
        modes[live[under]] = NUMERIC_UNDERFLOW
        modes[live[collapse]] = MONOTONICITY_VIOLATED
        keep = ~(under | collapse)
        live, x_prev, x_cur = live[keep], x_cur[keep], x_next[keep]
    return modes


def shoot_forward(model: DensityModel, x1: float, k_max: int) -> ShootResult:
    """Iterate the recurrence from (0, x1) and classify how it ends.

    The failure index reports the last successfully produced point; for
    a monotonicity violation the offending next point is kept in the
    prefix so the violation is visible in the output.
    """
    if x1 <= 0:
        raise DomainError("x1 must be positive")
    if model.support == UNIT_INTERVAL and x1 > 1.0:
        raise DomainError("x1 outside the unit interval")
    terminating = (
        model.support == UNIT_INTERVAL
        and classify_tail(model).kind == COMPACT_TERMINATING
    )

    def result(outcome, idx, pts, term=False):
        seq = TurningSequence(
            points=np.asarray(pts, dtype=float),
            terminated=term,
            model_id=model.spec_string(),
        )
        return ShootResult(outcome=outcome, failure_index=idx, sequence=seq)

    points = [0.0, float(x1)]
    if model.support == UNIT_INTERVAL and x1 >= 1.0:
        if terminating:
            return result(SURVIVED, None, [0.0, 1.0], term=True)
        return result(NUMERIC_UNDERFLOW, 1, points)

    for k in range(1, k_max):
        try:
            x_next = recurrence_step(model, points[-2], points[-1])
        except DomainError:
            return result(NUMERIC_UNDERFLOW, k, points)
        if x_next <= points[-1]:
            points.append(x_next)
            return result(MONOTONICITY_VIOLATED, k, points)
        if model.support == UNIT_INTERVAL and x_next >= 1.0:
            if terminating:
                points.append(1.0)
                return result(SURVIVED, None, points, term=True)
            # non-terminating compacts never legitimately reach 1: the
            # iterate left the representable interior
            return result(NUMERIC_UNDERFLOW, k, points)
        points.append(x_next)
    return result(SURVIVED, None, points)


def recurrence_residual(model: DensityModel, seq: TurningSequence) -> np.ndarray:
    """Stationarity residuals (H(u_k) - H(u_{k-1}) - log W_k) / max(1, |H(u_k)|).

    One entry per interior index k = 1..len-2; the optimality certificate
    for any claimed sequence.  u is the working coordinate: x on the half
    line, L = -log(1 - x) on the unit interval (log_gaps when present),
    so entries stay meaningful after points saturate at 1.0.  NaN marks
    an index where log W_k is undefined.  Models without working forms
    raise their typed error: terminating compacts, custom compact-rv
    models and custom models without a declared tail.
    """
    if seq.points.size < 3:
        raise DomainError("need at least 3 points for interior residuals")
    eng = _engine_for(model, classify_tail(model))
    if eng.coord == "x":
        us = seq.points
    elif seq.log_gaps is not None:
        us = seq.log_gaps
    else:
        us = -np.log1p(-seq.points)
    res, _, _, _, scale = _chain(eng, us, 1)
    return res / scale


# ---------------------------------------------------------------------------
# Reverse-shooting engine.
# ---------------------------------------------------------------------------


@dataclass
class _Engine:
    """Per-model forms in the working coordinate u (x or L).

    hc is the cumulative hazard as a function of u and Hp its derivative,
    log_w the log of W_k = (x_k + x_{k+1}) h(x_k) - 1 written without
    underflow, law the asymptotic seed position at continuous index t,
    to_x the map back to positions.  dlog_w(u_k, u_{k+1}) gives
    (log W_k, d/du_k, d/du_{k+1}) for the stationarity chain, or None
    where W_k is too small.
    """

    name: str
    coord: str  # "x" or "L"
    hc: Callable[[float], float]
    hc_inv: Callable[[float], float]
    log_w: Callable[[float, float], Optional[float]]
    to_x: Callable[[float], float]
    law: Callable[[float], float]
    Hp: Callable[[float], float]
    dlog_w: Callable[[float, float], Optional[tuple[float, float, float]]]


def _scalar(fn) -> Callable[[float], float]:
    return lambda t: float(fn(np.asarray(t, dtype=float)))


def _overflow_checked(model: DensityModel, law: Callable[[float], float]):
    """law, with a float overflow raised as ConvergenceError at its index."""

    def checked(t):
        try:
            return law(t)
        except OverflowError:
            raise ConvergenceError(
                f"{model.spec_string()}: seed law overflows at index {t:g}"
            ) from None

    return checked


def _halfline_engine(model: DensityModel, tail: density_kit.TailClass) -> _Engine:
    """Forms in x.  Power-law tails seed from the geometric Pareto orbit;
    the other classes from the tabulated index integral, which only a seed
    request builds, while the exact invert_index stays with predictions."""
    h = _scalar(model._hazard)
    H = _scalar(model._cum_hazard)
    Hinv = _scalar(model._inv_cum_hazard)

    def log_w(xk, xk1):
        w = (xk + xk1) * h(xk) - 1.0
        return math.log(w) if w > 1.0 else None

    def dlog_w(xk, xk1):
        hk = h(xk)
        w = (xk + xk1) * hk - 1.0
        if not (w > 0.0 and xk > 0.0):
            return None
        # d log h/dx by a central difference: it only steers Newton, and
        # acceptance reads the exact residual, so 1e-6 relative is enough
        e = 1e-6 * xk
        dlog_h = (math.log(h(xk + e)) - math.log(h(xk - e))) / (2.0 * e)
        return math.log(w), hk * (1.0 + (xk + xk1) * dlog_h) / w, hk / w

    if tail.kind == POWER_LAW:
        # geometric deep orbit; the dial absorbs the prefactor
        r = asymptotics.pareto_rate(tail.index)
        law = _overflow_checked(model, lambda t: 0.5 * r**t)
    else:
        # the dial absorbs the table's offset from the exact law
        law = asymptotics.tabulate_index(model)

    return _Engine(
        model.spec_string(), "x", H, Hinv, log_w, lambda u: u, law, h, dlog_w
    )


def _compact_log_w(A0: float, s: float, Lk: float, Lk1: float):
    """log W_k in log-gap coordinates, with its partials in L_k and L_{k+1}.

    W_k = A0 (2 - e^{-L_k} - e^{-L_{k+1}}) e^{s L_k} - 1 for the forms of
    _compact_engine; a terminal slot passes L_{k+1} = inf.  Returns
    (log W_k, d/dL_k, d/dL_{k+1}), or None when W_k <= 1e-300 and the
    step is undefined.
    """
    ek = math.exp(-Lk) if Lk < 700 else 0.0
    ek1 = math.exp(-Lk1) if Lk1 < 700 else 0.0
    m = A0 * (2.0 - ek - ek1)
    t = s * Lk
    et = math.exp(-t) if t < 700 else 0.0
    if t > 40.0:
        lw = math.log(m) + t + math.log1p(-et / m)
    else:
        w = m * math.exp(t) - 1.0
        if not w > 1e-300:
            return None
        lw = math.log(w)
    den = m - et
    return lw, (A0 * ek + s * m) / den, A0 * ek1 / den


@dataclass
class _CompactEngine(_Engine):
    """An engine in L that also carries the log-gap forms and seed slots.

    A0 and s give W_k through _compact_log_w; first_slot and next_slot
    give the oracle's slot k from slot k-1, before its descent and past
    its live prefix.
    """

    A0: float
    s: float
    first_slot: Callable[[int, float], float]
    next_slot: Callable[[int, float], float]


def _compact_engine(model: DensityModel, tail: density_kit.TailClass) -> _CompactEngine:
    """The one place the compact solver branches on the tail kind."""
    if tail.kind == COMPACT_POWER_LAW:
        c = tail.index
        r = c / (c - 1.0)
        A0, s = c, 1.0
        H = lambda L: c * L
        Hp = lambda L: c
        Hinv = lambda v: v / c

        law = _overflow_checked(model, lambda t: max(1e-9, r**t - math.log(2.0 * c)))
        first_slot = lambda k, L_prev: max(1.2 * r**k - math.log(2 * c), 0.05 * k)
        next_slot = lambda k, L_prev: (c * L_prev + math.log(2 * c)) / (c - 1.0)
    elif tail.kind == COMPACT_RV and model.rv_params is not None:
        a, b = model.rv_params
        A0, s = a, 1.0 + b
        H = lambda L: (a / b) * math.expm1(b * L)
        Hp = lambda L: a * math.exp(b * L)
        Hinv = lambda v: math.log1p(b * v / a) / b

        def law(t):
            # fixed point of the slot-k depth relation for the rv family
            L = max(0.3, math.log(max(t, 2.0)) / b)
            for _ in range(200):
                depth = max(t, 1.5) * b * ((1 + b) * L + math.log(2 * a)) / a
                if depth <= 0.0:
                    raise ConvergenceError(
                        f"{model.spec_string()}: seed law has no fixed point at index {t:g}"
                    )
                Ln = math.log(depth) / b
                if abs(Ln - L) < 1e-14:
                    break
                L = Ln
            return Ln

        first_slot = next_slot = lambda k, L_prev: max(law(float(k)), L_prev + 0.01)
    else:
        raise NotApplicableError(
            f"no log-gap forms for {model.spec_string()}: the solver has them for "
            "compact power laws and for the compactfast hazard a/(1-x)^(1+b) only"
        )

    dlog_w = lambda Lk, Lk1: _compact_log_w(A0, s, Lk, Lk1)

    def log_w(Lk, Lk1):
        terms = dlog_w(Lk, Lk1)
        return None if terms is None else terms[0]

    return _CompactEngine(
        model.spec_string(), "L", H, Hinv, log_w, lambda L: -math.expm1(-L), law,
        Hp, dlog_w, A0, s, first_slot, next_slot,
    )


def _engine_for(model: DensityModel, tail: density_kit.TailClass) -> _Engine:
    if model.support == HALF_LINE:
        return _halfline_engine(model, tail)
    return _compact_engine(model, tail)


def _orbit(eng: _Engine, uK: float, uK1: float, K: int):
    """Backward pass from seeds (u_K, u_{K+1}).

    Returns (v, None, us, lw1, lw2) on a completed pass, where v is the
    landing residual H(x_1-slot) - log W_1 (zero iff x_0 = 0 exactly),
    or (None, k, us, None, None) when the orbit dies at index k: W <= 1,
    residual sign loss, or an inversion where the computed u_{k-1} fails
    to decrease (the orbit bounced instead of landing).
    """
    us = np.zeros(K + 2)
    us[K], us[K + 1] = uK, uK1
    lw_next = None
    for k in range(K, 0, -1):
        lw = eng.log_w(us[k], us[k + 1])
        if lw is None:
            return (None, k, us, None, None)
        v = eng.hc(us[k]) - lw
        if k == 1:
            return (v, None, us, lw, lw_next)
        if v <= 0.0:
            return (None, k, us, None, None)
        nxt = eng.hc_inv(v)
        if nxt >= us[k]:
            return (None, k - 1, us, None, None)
        us[k - 1] = nxt
        lw_next = lw
    raise AssertionError("unreachable")


_LOW = -1.0e6  # sentinel: orbit died or stalled, dial is below the root


def _solve_reverse(eng: _Engine, k_max: int, pad: int) -> np.ndarray:
    """Find the dial value where the reverse orbit lands at the origin.

    The landing residual along the dial is a narrow valley (negative,
    crossing zero at the root) surrounded by sentinel/stall regions;
    the march brackets the crossing, a bisection walks the bracket's low
    end onto the continuous branch, and brentq finishes.
    """
    K = k_max + pad

    def resid(th):
        v, j, us, lw1, lw2 = _orbit(eng, eng.law(K + th), eng.law(K + 1 + th), K)
        if v is None:
            return _LOW - j
        if v > 0 and (eng.hc_inv(v) >= us[1] or (lw2 is not None and lw1 < 0.2 * lw2)):
            # completed, but the final step stalled: still below the root
            return _LOW - 1.0
        return v

    th = 0.0
    r = resid(th)
    guard = 0
    if r < 0:
        lo, rlo = th, r
        while True:
            th += max(1.0, min(-(r - _LOW) - 1.0, 25.0)) if r <= _LOW else 0.5
            r = resid(th)
            guard += 1
            if r >= 0:
                break
            lo, rlo = th, r
            if guard > 600:
                raise ConvergenceError(f"{eng.name}: dial march up failed")
        hi = th
    else:
        hi = th
        step = 2.0
        while True:
            th -= step
            step *= 1.5
            r = resid(th)
            guard += 1
            if r < 0:
                break
            hi = th
            if guard > 600:
                raise ConvergenceError(f"{eng.name}: dial march down failed")
        lo, rlo = th, r
    # pull the low end off the sentinel plateau onto the genuine branch
    while rlo <= _LOW:
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        rm = resid(mid)
        guard += 1
        if rm >= 0:
            hi = mid
        else:
            lo, rlo = mid, rm
        if guard > 900:
            raise ConvergenceError(f"{eng.name}: bracket refinement failed")
    ths = optimize.brentq(resid, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    out = _orbit(eng, eng.law(K + ths), eng.law(K + 1 + ths), K)
    if out[0] is None:
        for eps in (1e-14, 1e-13, 1e-12, 1e-11):
            out = _orbit(eng, eng.law(K + ths + eps), eng.law(K + 1 + ths + eps), K)
            if out[0] is not None:
                break
    v, _, us, _, _ = out
    if v is None:
        raise ConvergenceError(f"{eng.name}: landing refinement failed")
    log.debug("%s: dial=%.6f landing=%.3e", eng.name, ths, v)
    us = us[: k_max + 1].copy()
    us[0] = 0.0
    return us


_PAD_POWER_LAW = 14
_PAD_DEFAULT = 10


def solve(model: DensityModel, config: Optional[SolverConfig] = None) -> TurningSequence:
    """Optimal turning points out to config.k_max.

    Terminating targets return [0, 1] directly.  Everything else goes
    through the reverse-shooting engine, then x1 is cross-checked
    against find_x1 and the finite-horizon optimizer; disagreement is
    logged and recorded in the sequence diagnostics, never ignored
    silently.
    """
    config = config or SolverConfig()
    if model.support == HALF_LINE:
        first_abs_moment(model)  # raises InfiniteMeanError on heavy tails
    tail = classify_tail(model)

    if tail.kind == COMPACT_TERMINATING:
        return TurningSequence(
            points=np.array([0.0, 1.0]),
            terminated=True,
            model_id=model.spec_string(),
        )

    eng = _engine_for(model, tail)
    pad = _PAD_POWER_LAW if tail.kind == POWER_LAW else _PAD_DEFAULT
    us = _solve_reverse(eng, config.k_max, pad)

    if eng.coord == "L":
        points = -np.expm1(-us)
        seq = TurningSequence(
            points=points,
            terminated=False,
            model_id=model.spec_string(),
            log_gaps=us,
        )
    else:
        seq = TurningSequence(
            points=us, terminated=False, model_id=model.spec_string()
        )

    if config.cross_check:
        x1 = float(seq.points[1])

        def bisection():
            got = find_x1(model, config)
            return got, got, x1

        def oracle():
            # compared in the working coordinate: on the unit interval x1
            # can round to 1.0 on both sides while L1 still differs
            got = finite_horizon_optimize(model, _HORIZON_N, config)
            u = got.points if got.log_gaps is None else got.log_gaps
            return float(got.points[1]), float(u[1]), float(us[1])

        # (diagnostic key, route -> (x1, compared value, its reference),
        # deviation threshold, errors that make it unavailable, its names
        # in the two warnings)
        checks = (
            ("x1_bisection", bisection, 1e-5,
             (BracketError, NonMonotonePredicateError, NotApplicableError),
             "bisection", "find_x1"),
            ("x1_oracle", oracle, 1e-3, (ConvergenceError, NotApplicableError),
             "oracle", "oracle"),
        )
        for key, route, threshold, errors, name, route_name in checks:
            try:
                x1_route, got, ref = route()
            except errors as exc:
                seq.diagnostics[f"{key}_error"] = str(exc)
                log.warning("%s: %s cross-check unavailable: %s",
                            model.spec_string(), route_name, exc)
                continue
            seq.diagnostics[key] = x1_route
            rel = abs(got - ref) / ref
            seq.diagnostics[f"{key}_reldev"] = rel
            if rel > threshold:
                log.warning(
                    "%s: %s x1=%.12g deviates from solver x1=%.12g (rel %.2e)",
                    model.spec_string(), name, x1_route, x1, rel,
                )
    return seq


# ---------------------------------------------------------------------------
# x1 bisection on the forward shooting mode.
# ---------------------------------------------------------------------------


def _forward_L_shoot(A0, s, H, L1s, k_max) -> np.ndarray:
    """Forward recurrence in log-gap coordinates for compact families, per lane.

    H maps arrays.  A lane ends "boundary" when its orbit crosses x = 1
    (dial too high) or "collapse" when L stops increasing (dial too
    low); lanes still live after k_max - 1 steps are "survived".
    """
    modes = np.full(len(L1s), "survived", dtype=object)
    live = np.arange(len(L1s))
    L_cur = np.asarray(L1s, dtype=float)
    H_prev = H(np.zeros(len(L1s)))
    for _ in range(1, k_max):
        if not live.size:
            break
        H_cur = H(L_cur)
        t = H_cur - H_prev - s * L_cur
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x_cur = -np.expm1(-L_cur)
            eps_next = (1.0 + x_cur) - (np.exp(t) + np.exp(-s * L_cur)) / A0
            L_next = -np.log(eps_next)
        boundary = (t > 690.0) | (eps_next <= 0.0)
        collapse = ~boundary & (L_next <= L_cur)
        modes[live[boundary]] = "boundary"
        modes[live[collapse]] = "collapse"
        keep = ~(boundary | collapse)
        live, H_prev, L_cur = live[keep], H_cur[keep], L_next[keep]
    return modes


_BISECT_LEVELS = 5  # bisection levels _scan_bisect evaluates per array pass


def _scan_bisect(modes, grid, below, above, survived, tol, one_sided, unbracketed):
    """Bisect the last below-then-above flip of the mode across grid.

    modes maps an array of points to their labels in one pass; the
    whole grid takes one call.  Each bisection call then labels the next
    _BISECT_LEVELS levels of the tree under the current bracket at once:
    its 2**_BISECT_LEVELS - 1 midpoints in heap order, each formed as
    0.5 * (a + b) from its parent interval.  The walk down that tree
    makes the one-midpoint-at-a-time loop's decisions (stop once
    b - a <= tol * a, end at a survived midpoint), so the result is
    bitwise that loop's.  Raises one_sided when no grid point is below,
    unbracketed when no adjacent grid pair flips from below to above.
    """
    labels = list(modes(grid))
    pair = None
    for i in range(len(grid) - 1):
        if labels[i] == below and labels[i + 1] == above:
            pair = (grid[i], grid[i + 1])
    if pair is None:
        raise one_sided if below not in labels else unbracketed
    a, b = pair
    while b - a > tol * a:
        los, his, mids = [a], [b], []
        for i in range(2**_BISECT_LEVELS - 1):
            m = 0.5 * (los[i] + his[i])
            mids.append(m)
            los += [los[i], m]
            his += [m, his[i]]
        labels = modes(np.array(mids))
        i = 0
        while i < len(mids) and b - a > tol * a:
            if labels[i] == survived:
                return mids[i]
            if labels[i] == below:
                a, i = mids[i], 2 * i + 2
            else:
                b, i = mids[i], 2 * i + 1
    return 0.5 * (a + b)


def _find_x1_compact(model, tail, config) -> float:
    eng = _compact_engine(model, tail)
    # the engine's own scalar H per lane: the labels near the flip depend
    # on its last bits
    H = np.vectorize(eng.hc, otypes=[float])
    lo_x, hi_x = config.x1_bracket
    lo = -math.log1p(-min(lo_x, 1.0 - 1e-12))
    hi = -math.log1p(-min(hi_x, 1.0 - 1e-12))
    k_cap = min(config.k_max, 60)
    L1 = _scan_bisect(
        lambda L1s: _forward_L_shoot(eng.A0, eng.s, H, L1s, k_cap),
        np.geomspace(lo, hi, 120), "collapse", "boundary", "survived",
        _BISECTION_TOL,
        NonMonotonePredicateError(
            "no undershoot mode inside the bracket; fall back to "
            "finite_horizon_optimize"
        ),
        BracketError(
            "x1 bracket does not straddle the collapse/boundary transition",
            lo=lo_x, hi=hi_x,
        ),
    )
    return -math.expm1(-L1)


def find_x1(model: DensityModel, config: Optional[SolverConfig] = None) -> float:
    """Bisection for x1 on the forward shooting outcome.

    Undershoot dies by monotonicity collapse, overshoot by numeric
    underflow (half line) or boundary crossing (unit interval); the
    transition between the two modes pins x1.  Far from the root both
    sides eventually underflow, so the scan looks for the adjacent
    collapse-then-underflow pair rather than assuming the whole bracket
    is two-sided.
    """
    config = config or SolverConfig()
    tail = classify_tail(model)
    if tail.kind == COMPACT_TERMINATING:
        return 1.0
    if model.support == UNIT_INTERVAL:
        return _find_x1_compact(model, tail, config)

    lo, hi = config.x1_bracket
    # degenerate start: lift the lower end above pdf underflow
    while model.pdf(lo) < 1e-300 and lo < hi / 4:
        lo *= 10.0
    k_cap = min(config.k_max, 60)
    return _scan_bisect(
        lambda x1s: _shoot_modes(model, x1s, k_cap),
        np.geomspace(lo, hi, 120), MONOTONICITY_VIOLATED, NUMERIC_UNDERFLOW, SURVIVED,
        _BISECTION_TOL,
        NonMonotonePredicateError(
            "no monotonicity-collapse mode inside the bracket; the "
            "shooting predicate is one-sided here, fall back to "
            "finite_horizon_optimize"
        ),
        BracketError(
            "x1 bracket does not straddle the collapse/underflow transition",
            lo=lo, hi=hi,
        ),
    )


# ---------------------------------------------------------------------------
# Finite-horizon oracle.
# ---------------------------------------------------------------------------


def _chain(eng: _Engine, us: np.ndarray, first: int):
    """The stationarity chain r_k = H(u_k) - H(u_{k-1}) - log W_k.

    us holds u_0..u_n in the engine's coordinate; the rows are slots
    first..n-1.  Returns the residuals, the Jacobian's three bands (row
    k: dr_k/du_{k-1}, dr_k/du_k, dr_k/du_{k+1}) and the scale
    max(1, |H(u_k)|): the residual is a difference of numbers of size
    ~H(u_k), so its float granularity, hence the attainable tolerance,
    scales with it.  A row where log W_k is undefined is NaN.
    """
    n = len(us) - 1
    res, lo, mid, hi = (np.full(n - first, math.nan) for _ in range(4))
    scale = np.ones(n - first)
    for i, k in enumerate(range(first, n)):
        H_k = eng.hc(us[k])
        scale[i] = max(1.0, abs(H_k))
        terms = eng.dlog_w(us[k], us[k + 1])
        if terms is None:
            continue
        lw, d_k, d_k1 = terms
        res[i] = H_k - eng.hc(us[k - 1]) - lw
        lo[i] = -eng.Hp(us[k - 1])
        mid[i] = eng.Hp(us[k]) - d_k
        hi[i] = -d_k1
    return res, lo, mid, hi, scale


def _polish(eng: _Engine, us: np.ndarray, first: int) -> None:
    """Banded Newton on the stationarity chain over slots first..n-1, in place.

    A step is halved until the slots stay strictly ordered between
    u_{first-1} and u_n.  Raises ConvergenceError when a row leaves the
    domain of log W, or when 60 steps do not bring every residual under
    1e-12 of its scale.
    """
    n = len(us) - 1
    for _ in range(60):
        res, lo, mid, hi, scale = _chain(eng, us, first)
        dead = first + np.flatnonzero(np.isnan(res))
        if dead.size:
            raise ConvergenceError(
                f"stationarity-chain Newton left the domain of log W at slot {dead[0]}",
                last_iterate=us,
            )
        if np.all(np.abs(res) < 1e-12 * scale):
            return
        ab = np.zeros((3, n - first))
        ab[0, 1:] = hi[:-1]
        ab[1, :] = mid
        ab[2, :-1] = lo[1:]
        try:
            step = solve_banded((1, 1), ab, -res)
        except ValueError:  # singular (LinAlgError) or non-finite bands
            break
        alpha = 1.0
        for _ in range(40):
            trial = us[first:n] + alpha * step
            if np.all(np.diff(np.concatenate([[us[first - 1]], trial, [us[n]]])) > 0):
                break
            alpha *= 0.5
        us[first:n] += alpha * step
    raise ConvergenceError(
        "stationarity-chain Newton did not converge on the horizon", last_iterate=us
    )


def _survival(eng: _Engine, u: float) -> float:
    v = eng.hc(u)
    return math.exp(-v) if v < 700 else 0.0


def _objective(eng: _Engine, us: np.ndarray) -> float:
    """The truncated objective sum_{k=1..n} x_k (G_k + G_{k-1})."""
    tot, g_prev = 0.0, _survival(eng, us[0])
    for u in us[1:]:
        g = _survival(eng, u)
        tot += eng.to_x(u) * (g + g_prev)
        g_prev = g
    return tot


def _descend(eng: _Engine, us: np.ndarray, slots) -> bool:
    """Cyclic coordinate descent on the truncated objective, in place.

    Each sweep minimises over one slot at a time, in the order of slots,
    between its neighbours; a slot next to u_n = inf (the unit interval's
    boundary) searches up to 60 past its current value.  Returns whether
    a sweep gained less than 1e-12 within _MAX_SWEEPS.
    """
    G = lambda u: _survival(eng, u)
    prev = _objective(eng, us)
    for _ in range(_MAX_SWEEPS):
        for k in slots:
            g_prev, x_next = G(us[k - 1]), eng.to_x(us[k + 1])
            ub = us[k + 1] if math.isfinite(us[k + 1]) else us[k] + 60.0
            us[k] = optimize.minimize_scalar(
                lambda u: eng.to_x(u) * (G(u) + g_prev) + x_next * G(u),
                bounds=(us[k - 1], ub),
                method="bounded",
                options={"xatol": 1e-12},
            ).x
        cur = _objective(eng, us)
        if prev - cur < 1e-12:
            return True
        prev = cur
    return False


def _oracle_halfline(model, n, tail, config) -> TurningSequence:
    """Scan the live count m = 1..n for the lowest-objective certified chain.

    A slot parked at the origin adds nothing to the objective, so the
    n-slot optimum is the best chain with every slot live.  m = 1 is
    [0, x_n], with no interior slot, and is always certified.  Chain m
    continues from the best chain on m - 1 slots: one slot is added at
    the H-midpoint of its last interior slot and the cap (for m = 2,
    equal-H spacing), and the Newton polish takes it from there.  The
    scan stops at the first m whose polish fails, raises the objective
    of its start, or does not lower the best objective.
    """
    eng = _halfline_engine(model, tail)
    H, Hinv = eng.hc, eng.hc_inv
    x_n = Hinv(-math.log(config.cap_survival))
    best = np.array([0.0, x_n])
    best_j = _objective(eng, best)
    for m in range(2, n + 1):
        xs = np.insert(best, m - 1, Hinv(0.5 * (H(best[-2]) + H(x_n))))
        j_start = _objective(eng, xs)
        try:
            _polish(eng, xs, 1)
        except ConvergenceError:
            break
        j = _objective(eng, xs)
        # The chain has spurious roots out in the power-law deep tail; a
        # polish that raises the objective of its start reached one of those.
        if j > j_start + 1e-9 * max(1.0, j_start) or j >= best_j:
            break
        best, best_j = xs, j
    return TurningSequence(
        points=best,
        terminated=False,
        model_id=model.spec_string(),
        diagnostics={"parked_slots": n + 1 - len(best)},
    )


def _oracle_compact(model, n, tail) -> TurningSequence:
    eng = _compact_engine(model, tail)
    Ls = np.zeros(n + 1)
    Ls[n] = math.inf
    for k in range(1, n):
        Ls[k] = eng.first_slot(k, Ls[k - 1])

    m_live = min(n - 1, 14)  # deeper slots are objective-flat at float64
    # ascending sweep order 1 .. m_live (anchored at the origin end)
    if not _descend(eng, Ls, range(1, m_live + 1)):
        raise ConvergenceError(
            f"coordinate descent did not converge in {_MAX_SWEEPS} sweeps",
            last_iterate=Ls,
        )
    # re-anchor the objective-flat tail on the converged prefix
    for k in range(m_live + 1, n):
        Ls[k] = eng.next_slot(k, Ls[k - 1])
    _polish(eng, Ls, 1)
    pts = -np.expm1(-Ls)
    # the pinned boundary leg plus its implicit mirror complete coverage,
    # exactly the terminal G_{n-1} term in the truncated objective
    return TurningSequence(
        points=pts,
        terminated=True,
        model_id=model.spec_string(),
        log_gaps=Ls,
    )


def finite_horizon_optimize(
    model: DensityModel, n: int, config: Optional[SolverConfig] = None
) -> TurningSequence:
    """Minimize the truncated objective over n turning points.

    Terminal condition: x_n = 1 on the unit interval, x_n at the
    configured survival cap on the half line.  On the half line the
    result is the lowest-objective polished chain over live counts
    1..n; the n - live surplus slots park at the origin, are stripped
    from the output and counted in diagnostics["parked_slots"].  The
    result is always a polished stationarity chain, never an uncertified
    iterate; the unit interval raises ConvergenceError where its polish
    fails.  It is the standard of comparison for solve and find_x1, not
    a fast path.
    """
    config = config or SolverConfig()
    if n < 1:
        raise DomainError("horizon must be at least 1")
    if model.support == UNIT_INTERVAL:
        tail = classify_tail(model)
        if tail.kind == COMPACT_TERMINATING:
            return TurningSequence(
                points=np.array([0.0, 1.0]),
                terminated=True,
                model_id=model.spec_string(),
            )
        return _oracle_compact(model, n, tail)
    first_abs_moment(model)
    return _oracle_halfline(model, n, classify_tail(model), config)
