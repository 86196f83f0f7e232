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
  law; landing at the origin pins it loosely, and a Newton polish of the
  whole chain certifies the orbit, to any horizon floats can express.
- finite_horizon_optimize minimizes the truncated objective directly
  (a Newton polish of the stationarity chain for each live count in
  turn, warm-started from the previous count, on both supports) and is
  used as an independent cross-check on the other two.  The chain, its
  Jacobian and the objective are evaluated over all slots as arrays,
  with libm logs and exps so that they match the slot-by-slot forms bit
  for bit; a polish step that no halving keeps ordered ends the polish.

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


def _step(model: DensityModel, g_prev, x_cur):
    """x_next = (G(x_cur) + g_prev)/p(x_cur) - x_cur, elementwise, p(x_cur) and G(x_cur).

    The one forward-step formula, for scalars and arrays alike.  g_prev
    is G(x_prev): a caller stepping along an orbit carries it from the
    step before.  Where p is not positive and finite the step is
    undefined and x_next carries whatever the division gave; callers
    classify that case first.
    """
    p = np.asarray(model.pdf(x_cur))
    g = model.survival(x_cur)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_next = (g + g_prev) / p - x_cur
    return x_next, p, g


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
    x_next, p, _ = _step(model, model.survival(x_prev), x_cur)
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError("pdf underflow at x_cur; recurrence step undefined")
    if not math.isfinite(x_next):
        raise DomainError("recurrence step overflowed")
    return float(x_next)


def _shoot_modes(model: DensityModel, x1s: np.ndarray, k_max: int) -> np.ndarray:
    """shoot_forward's outcome for every x1 in x1s on the half line, in one pass.

    Each step advances all live lanes through _step at once, carrying
    each lane's G(x_cur) forward as the next step's G(x_prev), and retires
    a lane exactly where shoot_forward would end: NUMERIC_UNDERFLOW when
    the step is undefined or not finite, MONOTONICITY_VIOLATED when
    x_next <= x_cur.  Lanes still live after k_max - 1 steps survived.
    """
    modes = np.full(len(x1s), SURVIVED, dtype=object)
    live = np.arange(len(x1s))
    g_prev, x_cur = model.survival(np.zeros(len(x1s))), np.asarray(x1s, dtype=float)
    for _ in range(1, k_max):
        if not live.size:
            break
        x_next, p, g = _step(model, g_prev, x_cur)
        under = ~((p > 0.0) & np.isfinite(p) & np.isfinite(x_next))
        collapse = ~under & (x_next <= x_cur)
        modes[live[under]] = NUMERIC_UNDERFLOW
        modes[live[collapse]] = MONOTONICITY_VIOLATED
        keep = ~(under | collapse)
        live, g_prev, x_cur = live[keep], g[keep], x_next[keep]
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

    hc is the cumulative hazard as a function of u, log_w the log of
    W_k = (x_k + x_{k+1}) h(x_k) - 1 written without underflow, law the
    asymptotic seed position at continuous index t, to_x the map back to
    positions; these take floats.  The oracle's forms take arrays of
    slots: H is hc and Hp its derivative, and dlog_w(u_k, u_{k+1}) gives
    the rows (log W_k, d/du_k, d/du_{k+1}) of the stationarity chain,
    NaN where W_k is too small.  next_slot(k, u_prev, u_n) places the
    oracle's slot k after slot k-1 at u_prev, below the terminal slot u_n.
    """

    name: str
    coord: str  # "x" or "L"
    hc: Callable[[float], float]
    hc_inv: Callable[[float], float]
    log_w: Callable[[float, float], Optional[float]]
    to_x: Callable[[float], float]
    law: Callable[[float], float]
    H: Callable[[np.ndarray], np.ndarray]
    Hp: Callable[[np.ndarray], np.ndarray]
    dlog_w: Callable[[np.ndarray, np.ndarray], np.ndarray]
    next_slot: Callable[[int, float, float], float]


def _scalar(fn) -> Callable[[float], float]:
    return lambda t: float(fn(np.asarray(t, dtype=float)))


def _each(fn) -> Callable[[np.ndarray], np.ndarray]:
    """fn mapped over an array one float at a time, for forms written with
    math: numpy's logs and exps can differ from libm's in the last bit."""
    return lambda us: np.array([fn(u) for u in us], dtype=float)


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
    h, H = model._hazard, model._cum_hazard
    h_at, hc, hc_inv = _scalar(h), _scalar(H), _scalar(model._inv_cum_hazard)
    ln = _each(math.log)

    def log_w(xk, xk1):
        w = (xk + xk1) * h_at(xk) - 1.0
        return math.log(w) if w > 1.0 else None

    def dlog_w(xk, xk1):
        hk = h(xk)
        w = (xk + xk1) * hk - 1.0
        out = np.full((3, len(xk)), math.nan)
        ok = np.flatnonzero((w > 0.0) & (xk > 0.0))
        x, s, hk, w = xk[ok], xk[ok] + xk1[ok], hk[ok], w[ok]
        # d log h/dx by a central difference: it only steers Newton, and
        # acceptance reads the exact residual, so 1e-6 relative is enough
        e = 1e-6 * x
        dlog_h = (ln(h(x + e)) - ln(h(x - e))) / (2.0 * e)
        out[:, ok] = ln(w), hk * (1.0 + s * dlog_h) / w, hk / w
        return out

    if tail.kind == POWER_LAW:
        # geometric deep orbit; the dial absorbs the prefactor
        r = asymptotics.pareto_rate(tail.index)
        law = _overflow_checked(model, lambda t: 0.5 * r**t)
    else:
        # the dial absorbs the table's offset from the exact law
        law = asymptotics.tabulate_index(model)

    def next_slot(k, u_prev, u_n):
        # the H-midpoint of the previous slot and the cap
        return hc_inv(0.5 * (hc(u_prev) + hc(u_n)))

    return _Engine(
        model.spec_string(), "x", hc, hc_inv, log_w, lambda u: u, law, H, h, dlog_w,
        next_slot,
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
    """An engine in L that also carries the log-gap forms.

    A0 and s give W_k through _compact_log_w.  next_slot ignores u_n,
    which is the boundary L = inf.
    """

    A0: float
    s: float


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
        next_slot = lambda k, L_prev, L_n: (c * L_prev + math.log(2 * c)) / (c - 1.0)
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

        next_slot = lambda k, L_prev, L_n: max(law(float(k)), L_prev + 0.01)
    else:
        raise NotApplicableError(
            f"no log-gap forms for {model.spec_string()}: the solver has them for "
            "compact power laws and for the compactfast hazard a/(1-x)^(1+b) only"
        )

    def log_w(Lk, Lk1):
        terms = _compact_log_w(A0, s, Lk, Lk1)
        return None if terms is None else terms[0]

    def dlog_w(Lk, Lk1):
        rows = [_compact_log_w(A0, s, a, b) or (math.nan,) * 3 for a, b in zip(Lk, Lk1)]
        return np.array(rows, dtype=float).reshape(-1, 3).T

    return _CompactEngine(
        model.spec_string(), "L", H, Hinv, log_w, lambda L: -math.expm1(-L), law,
        _each(H), _each(Hp), dlog_w, next_slot, A0, s,
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


def _solve_reverse(eng: _Engine, k_max: int, pad: int, xtol: float) -> np.ndarray:
    """The reverse orbit that lands at the origin, polished: u_0..u_{k_max}.

    The landing residual along the dial is a narrow valley (negative,
    crossing zero at the root) surrounded by sentinel/stall regions.  The
    march brackets the crossing and a bisection walks the low end onto the
    continuous branch, or refuses a low end that stays where orbits die.
    brentq narrows the dial to xtol; the completed orbit landing nearest,
    u_{K+1} held, starts a banded Newton polish of slots 1..K.  Every row,
    the landing row k = 1 included, ends within 1e-12 of its scale.
    """
    K = k_max + pad
    orbits = {}  # dial -> (resid, orbit); brentq re-asks for the bracket ends

    def resid(th):
        if th not in orbits:
            v, j, us, lw1, lw2 = _orbit(eng, eng.law(K + th), eng.law(K + 1 + th), K)
            if v is None:
                v = _LOW - j
            elif v > 0 and (eng.hc_inv(v) >= us[1] or (lw2 is not None and lw1 < 0.2 * lw2)):
                # completed, but the final step stalled: still below the root
                v = _LOW - 1.0
            orbits[th] = v, us
        return orbits[th][0]

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
        if hi - lo < 1e-13:
            raise ConvergenceError(f"{eng.name}: orbits die at dial {hi:.6g} before landing")
        mid = 0.5 * (lo + hi)
        rm = resid(mid)
        guard += 1
        if rm >= 0:
            hi = mid
        else:
            lo, rlo = mid, rm
        if guard > 900:
            raise ConvergenceError(f"{eng.name}: bracket refinement failed")
    ths = optimize.brentq(resid, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=300)
    v, us = min((e for e in orbits.values() if e[0] > _LOW), key=lambda e: abs(e[0]))
    log.debug("%s: dial=%.6f landing=%.3e", eng.name, ths, v)
    try:
        _polish(eng, us, 1)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{eng.name}: reverse orbit not certified: {exc}") from None
    return us[: k_max + 1].copy()


_PAD_POWER_LAW = 14
_PAD_DEFAULT = 10
# brentq's dial tolerance; a loose one moves a power law's far end past its pad
_XTOL_POWER_LAW = 1e-15
_XTOL_DEFAULT = 1e-4


def solve(model: DensityModel, config: Optional[SolverConfig] = None) -> TurningSequence:
    """Optimal turning points out to config.k_max.

    Terminating targets return [0, 1] directly.  Everything else goes
    through the reverse-shooting engine, a dial landed loosely (tightly on
    power laws) and a Newton polish of the whole chain: every
    recurrence_residual row is under 1e-12, or ConvergenceError, also for a
    dial bracket that ends where orbits die.  x1 is then cross-checked
    against find_x1 and the finite-horizon optimizer; disagreement is
    logged and recorded in the sequence diagnostics.
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
    power = tail.kind == POWER_LAW
    pad, xtol = (_PAD_POWER_LAW, _XTOL_POWER_LAW) if power else (_PAD_DEFAULT, _XTOL_DEFAULT)
    us = _solve_reverse(eng, config.k_max, pad, xtol)
    in_L = eng.coord == "L"
    seq = TurningSequence(
        points=-np.expm1(-us) if in_L else us,
        terminated=False,
        model_id=model.spec_string(),
        log_gaps=us if in_L else None,
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
    lo_x, hi_x = config.x1_bracket
    lo = -math.log1p(-min(lo_x, 1.0 - 1e-12))
    hi = -math.log1p(-min(hi_x, 1.0 - 1e-12))
    k_cap = min(config.k_max, 60)
    L1 = _scan_bisect(
        # the engine's own scalar H per lane: the labels near the flip
        # depend on its last bits
        lambda L1s: _forward_L_shoot(eng.A0, eng.s, eng.H, L1s, k_cap),
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
    first..n-1, each form evaluated once over them as an array.  Returns
    the residuals, the Jacobian's three bands (row k: dr_k/du_{k-1},
    dr_k/du_k, dr_k/du_{k+1}) and the scale max(1, |H(u_k)|): the
    residual is a difference of numbers of size ~H(u_k), so its float
    granularity, hence the attainable tolerance, scales with it.  A row
    where log W_k is undefined is NaN.
    """
    n = len(us) - 1
    H, Hp = eng.H(us[first - 1 : n]), eng.Hp(us[first - 1 : n])
    lw, d_k, d_k1 = eng.dlog_w(us[first:n], us[first + 1 :])
    res = H[1:] - H[:-1] - lw
    return res, -Hp[:-1], Hp[1:] - d_k, -d_k1, np.maximum(1.0, np.abs(H[1:]))


_HALVINGS = 0.5 ** np.arange(40)  # the polish's trial step lengths, longest first


def _polish(eng: _Engine, us: np.ndarray, first: int) -> None:
    """Banded Newton on the stationarity chain over slots first..n-1, in place.

    Each step takes the longest of 1, 1/2, .., 2**-39 times the Newton
    step that keeps the slots strictly ordered between u_{first-1} and
    u_n; all 40 trials are tested in one array pass.  Raises
    ConvergenceError when no trial is ordered, when a row leaves the
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
        trials = us[first:n] + _HALVINGS[:, None] * step
        ordered = (
            (trials[:, 0] > us[first - 1])
            & np.all(trials[:, 1:] > trials[:, :-1], axis=1)
            & (trials[:, -1] < us[n])
        )
        if not ordered.any():
            raise ConvergenceError(
                "stationarity-chain Newton found no step that keeps the slots ordered",
                last_iterate=us,
            )
        us[first:n] += _HALVINGS[ordered.argmax()] * step
    raise ConvergenceError(
        "stationarity-chain Newton did not converge on the horizon", last_iterate=us
    )


def _g(v: float) -> float:
    """Survival exp(-v) at cumulative hazard v, 0 past 700."""
    return math.exp(-v) if v < 700 else 0.0


def _objective(eng: _Engine, us: np.ndarray) -> float:
    """The truncated objective sum_{k=1..n} x_k (G_k + G_{k-1}), summed left to right."""
    g = _each(_g)(eng.H(us))
    terms = _each(eng.to_x)(us[1:]) * (g[1:] + g[:-1])
    return float(np.cumsum(terms)[-1])


def _oracle(model, n, tail, config) -> TurningSequence:
    """Scan the live count m = 1..n for the lowest-objective certified chain.

    The terminal slot u_n is the survival cap on the half line and the
    boundary L = inf on the unit interval.  m = 1 is [0, u_n], with no
    interior slot, and is always certified.  Chain m continues from the
    best chain on m - 1 slots: the engine's next_slot adds one slot after
    its last interior slot, and the Newton polish takes it from there.
    The scan stops at the first m whose polish fails, raises the
    objective of its start, or does not lower the best objective.

    A slot parked at the origin adds nothing to the objective, so on the
    half line the n-slot optimum is the best chain with every slot live;
    the surplus is stripped and counted.  On the unit interval the slots
    past the scan's stop are objective-flat at float64: next_slot places
    them, and one polish certifies all n + 1 points.
    """
    eng = _engine_for(model, tail)
    halfline = model.support == HALF_LINE
    u_n = eng.hc_inv(-math.log(config.cap_survival)) if halfline else math.inf
    best = np.array([0.0, u_n])
    best_j = _objective(eng, best)
    for m in range(2, n + 1):
        us = np.insert(best, m - 1, eng.next_slot(m - 1, best[-2], u_n))
        j_start = _objective(eng, us)
        try:
            _polish(eng, us, 1)
        except ConvergenceError:
            break
        j = _objective(eng, us)
        # The chain has spurious roots out in the power-law deep tail; a
        # polish that raises the objective of its start reached one of those.
        if j > j_start + 1e-9 * max(1.0, j_start) or j >= best_j:
            break
        best, best_j = us, j
    if halfline:
        return TurningSequence(
            points=best,
            terminated=False,
            model_id=model.spec_string(),
            diagnostics={"parked_slots": n + 1 - len(best)},
        )
    for k in range(len(best) - 1, n):  # the objective-flat slots
        best = np.insert(best, k, eng.next_slot(k, best[-2], u_n))
    _polish(eng, best, 1)
    # the pinned boundary leg plus its implicit mirror complete coverage,
    # exactly the terminal G_{n-1} term in the truncated objective
    return TurningSequence(
        points=-np.expm1(-best),
        terminated=True,
        model_id=model.spec_string(),
        log_gaps=best,
    )


def finite_horizon_optimize(
    model: DensityModel, n: int, config: Optional[SolverConfig] = None
) -> TurningSequence:
    """Minimize the truncated objective over n turning points.

    Terminal condition: x_n = 1 on the unit interval, x_n at the
    configured survival cap on the half line.  Both supports take the
    lowest-objective polished chain over live counts 1..n.  On the half
    line the n - live surplus slots park at the origin, are stripped
    from the output and counted in diagnostics["parked_slots"]; the unit
    interval returns all n + 1 points, its surplus slots placed past the
    live ones and polished with them.  The result is always a polished
    stationarity chain, never an uncertified iterate; the unit interval
    raises ConvergenceError where its final polish fails.  It is the
    standard of comparison for solve and find_x1, not a fast path.
    """
    config = config or SolverConfig()
    if n < 1:
        raise DomainError("horizon must be at least 1")
    if model.support == HALF_LINE:
        first_abs_moment(model)
    tail = classify_tail(model)
    if tail.kind == COMPACT_TERMINATING:
        return TurningSequence(
            points=np.array([0.0, 1.0]),
            terminated=True,
            model_id=model.spec_string(),
        )
    return _oracle(model, n, tail, config)
