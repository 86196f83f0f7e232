"""Asymptotic laws for turning-point sequences, as computable predictions.

Every law is leading-order only: comparisons downstream are done on
ratios over a tail window, never on absolute differences.  The index
integral has no canonical lower limit, so predictions derived from it
are defined up to a constant index shift; callers that need alignment
fit that shift rather than pretending the law fixes it.

index_integral and invert_index evaluate the index law exactly for
predictions: the package's Gauss-Kronrod quad in s = log x, and brentq.
predict_sequence inverts it once over the sorted indices, each root found
from the one before.  The solver only needs the law as a seed, so it reads
tabulate_index instead: one vectorised tabulation per model, through the
same integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._numeric import brentq, quad
from .density_kit import (
    COMPACT_POWER_LAW,
    HALF_LINE,
    LOG_BOUNDARY,
    POWER_LAW,
    SUB_LOG,
    SUPER_LOG,
    DensityModel,
    TailClass,
)
from .errors import DomainError, NotApplicableError

INCREMENT_INFINITE = "Infinite"
INCREMENT_ZERO = "Zero"
INCREMENT_FINITE = "Finite"

LAW_INCREMENT = "increment"
LAW_INDEX_INTEGRAL = "index-integral"
LAW_CLOSED_FORM = "closed-form"
LAW_PARETO_RATE = "pareto-rate"
LAW_COMPACT_RESIDUAL = "compact-residual"


@dataclass(frozen=True)
class IncrementLimit:
    """Limit of the increments x_k - x_{k-1}: infinite, zero, or 1/c."""

    variant: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.variant == INCREMENT_FINITE and not (
            self.value is not None and self.value > 0
        ):
            raise DomainError("finite increment limit must be positive")


@dataclass
class AsymptoticPrediction:
    """A law evaluated on a set of indices.

    values maps k to the predicted quantity; what that quantity is
    depends on the law: an increment for the increment formula, a
    position for index-integral and closed-form laws, the constant
    ratio x_{k+1}/x_k for the Pareto rate, and the log-gap ratio
    L_{k+1}/L_k for the compact residual law.
    """

    law: str
    model_id: str
    values: dict[int, float]
    fitted_constants: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "model": self.model_id,
            "values": {str(k): float(v) for k, v in sorted(self.values.items())},
            "fitted_constants": {k: float(v) for k, v in self.fitted_constants.items()},
        }


def increment_trichotomy(tail: TailClass) -> IncrementLimit:
    """Limiting increment by tail class: below log growth the increments
    blow up, above it they vanish, and exactly at hazard ~ c log x they
    settle at 1/c.  Power-law tails grow geometrically, so increments
    blow up there too."""
    if tail.kind == SUB_LOG:
        return IncrementLimit(INCREMENT_INFINITE)
    if tail.kind == POWER_LAW:
        return IncrementLimit(INCREMENT_INFINITE)
    if tail.kind == SUPER_LOG:
        return IncrementLimit(INCREMENT_ZERO)
    if tail.kind == LOG_BOUNDARY:
        return IncrementLimit(INCREMENT_FINITE, value=1.0 / tail.index)
    raise NotApplicableError(
        "increment trichotomy applies to half-line classes only"
    )


def predict_increment(model: DensityModel, x: float) -> float:
    """Leading-order increment at position x: log(2 x h(x)) / h(x)."""
    h = model.hazard(x)
    arg = 2.0 * x * h
    if arg <= 1.0:
        raise DomainError(
            "increment formula needs x*h(x) > 1/2; x is below the "
            "asymptotic regime"
        )
    return math.log(arg) / h


def default_x_low(model: DensityModel) -> float:
    """Lower limit for the index integral: where x*h(x) = e.

    For bounded x*h (power-law tails with limit a <= e) that level is
    never reached; fall back to the midpoint level (1+a)/2 between the
    integrand singularity at x*h=1 and the limit.
    """
    if model.support != HALF_LINE:
        raise NotApplicableError("index integral is a half-line tool")

    def f(x):
        return x * model.hazard(x) - math.e

    hi = 1.0
    for _ in range(80):
        if f(hi) > 0:
            break
        hi *= 2.0
    else:
        # x*h stays below e: aim between the singularity and the sup
        sup = float(np.max([t * model.hazard(t) for t in np.geomspace(1.0, 1e12, 60)]))
        if sup <= 1.0:
            raise DomainError("x*h(x) never exceeds 1; no admissible x_low")
        level = 0.5 * (1.0 + min(sup, math.e))

        def g(x):
            return x * model.hazard(x) - level

        hi2 = 1.0
        while g(hi2) < 0:
            hi2 *= 2.0
            if hi2 > 1e15:
                raise DomainError("could not locate the x_low level")
        return brentq(g, 1e-12, hi2, xtol=1e-14, rtol=8.9e-16)
    return brentq(f, 1e-12, hi, xtol=1e-14, rtol=8.9e-16)


def _index_integrand(model: DensityModel, s):
    """x h/log(x h) at x = e^s, the index integrand in s = log x; not finite past overflow."""
    x = np.exp(s)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h = model._hazard(x)
        return x * (h / np.log(x * h))


def _check_room(model: DensityModel, a: float, b: float) -> None:
    """DomainError unless u*h(u) > 1 at a and at 48 probes of [a, b]."""
    if a * model.hazard(a) <= 1.0:
        raise DomainError("integrand singular at the lower limit (x*h = 1); choose a larger x_low")
    probes = np.geomspace(a, b, 48)
    if np.any(probes * np.asarray(model.hazard(probes)) <= 1.0):
        raise DomainError(
            "integrand crosses the x*h = 1 singularity inside the range; choose a larger x_low"
        )


def _index_gain(model: DensityModel, a: float, b: float) -> float:
    """Integral of h/log(u h(u)) on [a, b]."""
    return quad(lambda s: _index_integrand(model, s), math.log(a), math.log(b))


def index_integral(
    model: DensityModel, x: float, x_low: Optional[float] = None
) -> float:
    """Predicted index at position x: integral of h/log(u h(u)) on [x_low, x]."""
    if x_low is None:
        x_low = default_x_low(model)
    if x <= x_low:
        raise DomainError("x must exceed x_low")
    _check_room(model, x_low, x)
    return _index_gain(model, x_low, x)


_NODES_PER_OCTAVE = 64  # seed-table density: the dial absorbs the interpolation error
_MAX_OCTAVES = 512      # index-law range past its start before an inversion gives up


def _advance(model: DensityModel, x0: float, k0: float, k: float) -> tuple[float, float]:
    """(x, k(x)) for the position x past x0 whose predicted index is k,
    given k(x0) = k0 < k.  hi doubles from 2 x0, at most _MAX_OCTAVES
    times, until k0 + the integral on [x0, hi] passes k, each new octave
    swept once for x h = 1; brentq then solves inside [x0, hi].  k0 is 0
    at x_low or an earlier positive index."""
    if k <= k0:
        raise DomainError("index must be positive")

    def f(x):
        return k0 + _index_gain(model, x0, x) - k

    hi = 2.0 * x0
    for _ in range(_MAX_OCTAVES):
        _check_room(model, 0.5 * hi, hi)
        if f(hi) > 0:
            break
        hi *= 2.0
    else:
        raise DomainError("could not bracket the index inversion")
    x = brentq(f, x0, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    return x, k + f(x)


def invert_index(model: DensityModel, k: float, x_low: Optional[float] = None) -> float:
    """Position whose predicted index is k (inverse of index_integral)."""
    if x_low is None:
        x_low = default_x_low(model)
    return _advance(model, x_low, 0.0, k)[0]


def tabulate_index(model: DensityModel) -> Callable[[float], float]:
    """The index law's inverse t -> x, tabulated for seeding the solver.

    Nothing is computed until the first call.  That call finds x_low and
    integrates h/log(x h) by Simpson's rule per interval in s = log x, on
    a geometric grid of _NODES_PER_OCTAVE intervals per octave from x_low,
    with one array hazard call per extension; the range doubles until it
    covers the asked index.  Positions interpolate linearly in log x, so
    they sit within about 1e-4 relative of invert_index, which stays the
    exact law for predictions.  Indices at or below 0 map to x_low.
    """
    ds = math.log(2.0) / _NODES_PER_OCTAVE
    s = ks = None

    def extend(n):
        # n more intervals past s[-1]; g = e^s h/log(e^s h) on the half grid
        nonlocal s, ks
        s_half = s[-1] + 0.5 * ds * np.arange(2 * n + 1)
        g = _index_integrand(model, s_half)
        if not np.all(np.isfinite(g) & (g > 0.0)):
            raise DomainError(
                "index integrand is singular or overflows before the asked index; "
                "could not bracket the index inversion"
            )
        steps = ds / 6.0 * (g[:-1:2] + 4.0 * g[1::2] + g[2::2])
        s = np.concatenate([s, s_half[2::2]])
        ks = np.concatenate([ks, ks[-1] + np.cumsum(steps)])

    def law(t):
        nonlocal s, ks
        if s is None:
            x_low = default_x_low(model)
            s, ks = np.array([math.log(x_low)]), np.zeros(1)
            extend(_NODES_PER_OCTAVE)
        while ks[-1] < t:
            if s.size > _MAX_OCTAVES * _NODES_PER_OCTAVE:
                raise DomainError("could not bracket the index inversion")
            extend(s.size - 1)
        return math.exp(float(np.interp(t, ks, s)))

    return law


def closed_form_xk(model: DensityModel, k: float) -> float:
    """The model's explicitly solvable leading-order position law at k.

    Only the families whose constructors declare a closed form have one;
    everything else raises NotApplicableError.
    """
    if k < 2:
        raise DomainError("closed forms need k >= 2 (log k > 0)")
    if model.closed_form is None:
        raise NotApplicableError(
            f"no closed-form position law for {model.spec_string()}"
        )
    return model.closed_form(k)


def pareto_rate(a: float) -> float:
    """Growth ratio r > 1 for power-law tails: root of (r^a+1)/a = 1 + r."""
    if a <= 1.0:
        raise DomainError("power-law rate needs tail exponent a > 1")

    def F(x):
        return (x**a + 1.0) / a - 1.0 - x

    hi = 2.0
    while F(hi) <= 0:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError("failed to bracket the growth-rate root")
    return brentq(F, 1.0 + 1e-14, hi, xtol=1e-15, rtol=8.9e-16)


def compact_residual_law(c: float, k, A: float):
    """Doubly exponential gap law 2c * exp(-A * (c/(c-1))^k) for compact
    power-law targets."""
    if c <= 1.0:
        raise NotApplicableError(
            "gap law needs c > 1; the c <= 1 boundary case is out of scope"
        )
    if A <= 0:
        raise DomainError("fitted constant A must be positive")
    r = c / (c - 1.0)
    ks = np.asarray(k, dtype=float)
    out = 2.0 * c * np.exp(-A * np.power(r, ks))
    return float(out) if np.ndim(k) == 0 else out


def fit_compact_constant(log_gaps: np.ndarray, c: float) -> tuple[float, dict]:
    """Least-squares fit of A in L_k ~ A * (c/(c-1))^k on the last third.

    Returns the fit plus a stability diagnostic: refits on the two
    halves of the window and their relative spread.
    """
    if c <= 1.0:
        raise NotApplicableError("gap law needs c > 1")
    L = np.asarray(log_gaps, dtype=float)
    n = L.size - 1
    if n < 6:
        raise DomainError("need at least 6 points to fit the gap constant")
    ks = np.arange(max(1, n - n // 3), n + 1)
    r = c / (c - 1.0)
    basis = np.power(r, ks.astype(float))

    def ls(idx):
        b = basis[idx]
        y = L[ks[idx]]
        return float(np.dot(b, y) / np.dot(b, b))

    allidx = np.arange(ks.size)
    A = ls(allidx)
    half = ks.size // 2
    A_lo = ls(allidx[:half]) if half >= 1 else A
    A_hi = ls(allidx[half:])
    spread = abs(A_hi - A_lo) / A if A != 0 else math.inf
    return A, {"A_first_half": A_lo, "A_second_half": A_hi, "half_refit_spread": spread}


# ---------------------------------------------------------------------------
# Prediction builders (consumed by verify.compare and the CLI).
# ---------------------------------------------------------------------------


def predict_sequence(
    model: DensityModel,
    law: str,
    ks,
    sequence=None,
) -> AsymptoticPrediction:
    """Evaluate a law on indices ks.

    The increment and compact-residual laws are relative to a computed
    sequence (the increment formula is evaluated at the solver's own
    x_k; the gap constant A is fitted from the solver's log gaps), so
    those require `sequence`.  Position laws are standalone; the index
    law finds each root from the one at the next lower k.  An empty ks
    raises DomainError.
    """
    ks = [int(t) for t in ks]
    if not ks:
        raise DomainError(f"the index range is empty: no index to evaluate the {law} law on")
    mid = model.spec_string()
    if law == LAW_INCREMENT:
        if sequence is None:
            raise DomainError("increment predictions are evaluated along a sequence")
        vals = {}
        for k in ks:
            if k < 1 or k >= len(sequence.points):
                raise DomainError(f"index {k} outside the sequence")
            vals[k] = predict_increment(model, float(sequence.points[k]))
        return AsymptoticPrediction(law, mid, vals)
    if law == LAW_INDEX_INTEGRAL:
        x_low = default_x_low(model)
        x, t, at = x_low, 0.0, {}
        for k in sorted(set(ks)):  # each root from the one before
            x, t = at[k] = _advance(model, x, t, float(k))
        vals = {k: at[k][0] for k in ks}
        return AsymptoticPrediction(law, mid, vals, {"x_low": x_low})
    if law == LAW_CLOSED_FORM:
        vals = {k: closed_form_xk(model, float(k)) for k in ks}
        return AsymptoticPrediction(law, mid, vals)
    if law == LAW_PARETO_RATE:
        from .density_kit import classify_tail

        tail = classify_tail(model)
        if tail.kind != POWER_LAW:
            raise NotApplicableError("Pareto rate applies to power-law tails")
        r = pareto_rate(tail.index)
        return AsymptoticPrediction(law, mid, {k: r for k in ks}, {"r": r})
    if law == LAW_COMPACT_RESIDUAL:
        from .density_kit import classify_tail

        tail = classify_tail(model)
        if tail.kind != COMPACT_POWER_LAW:
            raise NotApplicableError(
                "the doubly exponential gap law applies to compact "
                "power-law targets"
            )
        c = tail.index
        r = c / (c - 1.0)
        if sequence is None or sequence.log_gaps is None:
            raise DomainError(
                "gap-law predictions need a computed sequence with log gaps"
            )
        A, diag = fit_compact_constant(sequence.log_gaps, c)
        consts = {"A": A, "r": r}
        consts.update(diag)
        return AsymptoticPrediction(law, mid, {k: r for k in ks}, consts)
    raise DomainError(f"unknown law {law!r}")
