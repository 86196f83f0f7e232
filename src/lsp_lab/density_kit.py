"""Density families for symmetric linear search targets.

A DensityModel bundles the closed forms the solver and verifier need:
pdf, survival, hazard, cumulative hazard and its inverse; the modulus
quantile used for sampling |X| is H^-1(-log(1-u)) for every model.
Parameters must be finite.  All built-in families keep these exact
(no numerical differentiation), which matters because the recurrence is
evaluated in hazard form far past the range where the survival function
underflows.

Supports are either the half line [0, inf) or the unit interval [0, 1].
On the unit interval the natural deep coordinate is L = -log(1 - x).
Each constructor states its family's facts once, on the model: tail
class, mean, closed-form position law and, on the unit interval, the edge
hazard A0/(1-x)^(1+b) the solver's log-gap forms are built from.  The
solver and the laws read those fields, never the family name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ._numeric import brentq, quad
from .errors import (
    ClassificationError,
    DomainError,
    InfiniteMeanError,
)

HALF_LINE = "half-line"
UNIT_INTERVAL = "unit-interval"

# Tail-class kinds: the hazard trichotomy on the half line plus the
# compact sub-taxonomy on the unit interval.
SUB_LOG = "sublog"                      # h = o(log x)
LOG_BOUNDARY = "log-boundary"           # h ~ c log x
SUPER_LOG = "superlog"                  # h = omega(log x), regularly or rapidly varying
POWER_LAW = "powerlaw"                  # h ~ a/x with a > 1
COMPACT_RV = "compact-rv"               # hazard regularly varying at 1, index 1+b
COMPACT_POWER_LAW = "compact-powerlaw"  # survival (1-x)^c with c > 1
COMPACT_TERMINATING = "compact-terminating"  # optimal plan reaches 1 in one pass


@dataclass(frozen=True)
class TailClass:
    """Classification of the target density near the edge of its support.

    kind is one of the module-level kind constants.  index carries the
    family-specific exponent: rho for regularly varying superlog hazards,
    the tail exponent a for power laws (must exceed 1, otherwise no
    competitive plan exists), c for compact power laws, 1+b for compact
    regularly varying hazards.  rapid marks rapidly varying superlog
    hazards, which have no finite index.
    """

    kind: str
    index: Optional[float] = None
    rapid: bool = False

    def __post_init__(self):
        if self.index is not None and not math.isfinite(self.index):
            raise DomainError(f"{self.kind} tail index must be finite")
        if self.kind == POWER_LAW:
            if self.index is None or self.index <= 1.0:
                raise DomainError(
                    "power-law tail exponent must exceed 1; lighter tails have "
                    "no finite-mean target and no competitive plan"
                )
        elif self.kind == COMPACT_POWER_LAW:
            if self.index is None or self.index <= 1.0:
                raise DomainError(
                    "compact power-law class requires exponent > 1; at or below "
                    "1 the optimal plan terminates at the endpoint instead"
                )
        elif self.kind == COMPACT_RV:
            if self.index is None or self.index <= 1.0:
                raise DomainError("compact-rv index is 1+b and requires b > 0")
        elif self.kind == SUPER_LOG:
            if not self.rapid and (self.index is None or self.index <= 0.0):
                raise DomainError(
                    "superlog class needs a positive variation index or the "
                    "rapid-variation flag"
                )
        elif self.kind == LOG_BOUNDARY:
            if self.index is None or self.index <= 0.0:
                raise DomainError("log-boundary class needs its scale c > 0")


def _shaped(fn):
    """Lift an array function to scalar-in scalar-out, preserving shapes."""

    def wrapped(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = fn(xs)
        return out.reshape(np.shape(x))

    return wrapped


@dataclass
class DensityModel:
    """A symmetric target density |X| ~ f on its support.

    The callables are array-in array-out; domain checks happen in the
    public wrappers, not in the callables.
    """

    family: str
    params: tuple[float, ...]
    param_names: tuple[str, ...]
    support: str
    _pdf: Callable = field(repr=False)
    _hazard: Callable = field(repr=False)
    _cum_hazard: Callable = field(repr=False)
    _inv_cum_hazard: Callable = field(repr=False)
    # None when no class applies: infinite mean, or a custom model that
    # declares none.
    tail: Optional[TailClass] = field(default=None, repr=False)
    # Leading-order position law k -> x_k, if the family has one.
    closed_form: Optional[Callable[[float], float]] = field(default=None, repr=False)
    # (A0, b) of a unit-interval hazard A0/(1-x)^(1+b), exactly as given;
    # b = 0 is a compact power law.  None where the solver has no log-gap
    # forms: terminating compacts and custom models.
    edge_hazard: Optional[tuple[float, float]] = field(default=None, repr=False)
    # Closed-form first moment if the family has one; None means integrate.
    _moment: Optional[float] = field(default=None, repr=False)
    # True when the mean is known finite without a closed form for it.
    _finite_mean: bool = field(default=False, repr=False)

    def __post_init__(self):
        if not all(math.isfinite(p) for p in self.params):
            raise DomainError(f"{self.family} parameters must be finite, got {self.params}")

    def spec_string(self) -> str:
        if not self.params:
            return self.family
        return self.family + ":" + ",".join("%.12g" % p for p in self.params)

    def param(self, name: str) -> float:
        return self.params[self.param_names.index(name)]

    def _check_support(self, x):
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0.0):
            raise DomainError(f"x < 0 is outside the support of {self.family}")
        if self.support == UNIT_INTERVAL and np.any(xs > 1.0):
            raise DomainError(f"x > 1 is outside the support of {self.family}")
        return xs

    @staticmethod
    def _ret(x, out):
        return float(out) if np.ndim(x) == 0 else np.asarray(out)

    def pdf(self, x):
        xs = self._check_support(x)
        with np.errstate(divide="ignore", over="ignore"):
            return self._ret(x, self._pdf(xs))

    def survival(self, x):
        xs = self._check_support(x)
        with np.errstate(divide="ignore", over="ignore"):
            return self._ret(x, np.exp(-self._cum_hazard(xs)))

    def hazard(self, x):
        xs = self._check_support(x)
        if self.support == UNIT_INTERVAL and np.any(xs >= 1.0):
            raise DomainError(
                "hazard is undefined at the right endpoint: survival vanishes"
            )
        return self._ret(x, self._hazard(xs))

    def cumulative_hazard(self, x):
        xs = self._check_support(x)
        with np.errstate(divide="ignore", over="ignore"):
            return self._ret(x, self._cum_hazard(xs))

    def inverse_cumulative_hazard(self, v):
        vs = np.asarray(v, dtype=float)
        if np.any(vs < 0.0):
            raise DomainError("cumulative hazard is nonnegative")
        return self._ret(v, self._inv_cum_hazard(vs))

    def modulus_quantile(self, u):
        """Quantile of |X|: smallest x with P(|X| <= x) >= u, as H^-1(-log(1-u))."""
        us = np.asarray(u, dtype=float)
        if np.any((us < 0.0) | (us >= 1.0)):
            raise DomainError("quantile level must lie in [0, 1)")
        with np.errstate(divide="ignore"):
            return self._ret(u, self._inv_cum_hazard(-np.log1p(-us)))


# ---------------------------------------------------------------------------
# Built-in families.
# ---------------------------------------------------------------------------


def exponential(rate: float = 1.0) -> DensityModel:
    if rate <= 0:
        raise DomainError("exponential rate must be positive")
    lam = float(rate)
    return DensityModel(
        family="exponential",
        params=(lam,),
        param_names=("rate",),
        support=HALF_LINE,
        _pdf=lambda x: lam * np.exp(-lam * x),
        _hazard=lambda x: np.full_like(x, lam),
        _cum_hazard=lambda x: lam * x,
        _inv_cum_hazard=lambda v: v / lam,
        tail=TailClass(SUB_LOG),
        closed_form=lambda k: k * math.log(k) / lam,
        _moment=1.0 / lam,
    )


def stretched_exp(a: float = 1.0, b: float = 1.0) -> DensityModel:
    """Hazard a*x^b with b > 0: survival exp(-a x^(1+b)/(1+b))."""
    if a <= 0 or b <= 0:
        raise DomainError("stretched-exponential parameters must be positive")
    p = 1.0 + b

    def pdf(xs):
        # past x^b overflow the survival is 0 and the formula reads inf * 0
        h, s = a * np.power(xs, b), np.exp(-a * np.power(xs, p) / p)
        return np.multiply(h, s, out=np.zeros_like(h), where=s > 0.0)

    return DensityModel(
        family="stretchedexp",
        params=(float(a), float(b)),
        param_names=("a", "b"),
        support=HALF_LINE,
        _pdf=pdf,
        _hazard=lambda x: a * np.power(x, b),
        _cum_hazard=lambda x: a * np.power(x, p) / p,
        _inv_cum_hazard=lambda v: np.power(p * v / a, 1.0 / p),
        tail=TailClass(SUPER_LOG, index=float(b)),
        closed_form=lambda k: ((1.0 + b) / a * k * math.log(k)) ** (1.0 / (1.0 + b)),
        _finite_mean=True,
    )


def lomax(a: float) -> DensityModel:
    """Pareto-type tail: survival (1+x)^(-a).  Mean is finite only for a > 1."""
    if a <= 0:
        raise DomainError("lomax exponent must be positive")
    a = float(a)
    return DensityModel(
        family="lomax",
        params=(a,),
        param_names=("a",),
        support=HALF_LINE,
        _pdf=lambda x: a * np.power(1.0 + x, -(1.0 + a)),
        _hazard=lambda x: a / (1.0 + x),
        _cum_hazard=lambda x: a * np.log1p(x),
        _inv_cum_hazard=lambda v: np.expm1(v / a),
        tail=TailClass(POWER_LAW, index=a) if a > 1.0 else None,
        _moment=(1.0 / (a - 1.0)) if a > 1.0 else math.inf,
    )


def lognormal(sigma: float = 1.0) -> DensityModel:
    """log|X| ~ Normal(0, sigma^2).

    Survival goes through log_ndtr so hazard and cumulative hazard stay
    exact far past the point where erfc underflows.
    """
    if sigma <= 0:
        raise DomainError("lognormal sigma must be positive")
    from scipy import special
    s = float(sigma)

    @_shaped
    def cum_hazard(xs):
        out = np.zeros_like(xs)
        pos = xs > 0
        out[pos] = -special.log_ndtr(-np.log(xs[pos]) / s)
        return out

    @_shaped
    def hazard(xs):
        out = np.zeros_like(xs)
        pos = xs > 0
        z = np.log(xs[pos]) / s
        log_pdf = -0.5 * z * z - np.log(xs[pos] * s) - 0.5 * math.log(2 * math.pi)
        out[pos] = np.exp(log_pdf - special.log_ndtr(-z))
        return out

    @_shaped
    def pdf(xs):
        out = np.zeros_like(xs)
        pos = xs > 0
        z = np.log(xs[pos]) / s
        out[pos] = np.exp(-0.5 * z * z) / (xs[pos] * s * math.sqrt(2 * math.pi))
        return out

    @_shaped
    def inv_cum_hazard(vs):
        # survival = exp(-v)  =>  log x = -s * ndtri(exp(-v)), in log space
        out = np.zeros_like(vs)
        pos = vs > 0
        out[pos] = np.exp(-s * special.ndtri_exp(-vs[pos]))
        return out

    return DensityModel(
        family="lognormal",
        params=(s,),
        param_names=("sigma",),
        support=HALF_LINE,
        _pdf=pdf,
        _hazard=hazard,
        _cum_hazard=cum_hazard,
        _inv_cum_hazard=inv_cum_hazard,
        tail=TailClass(SUB_LOG),
        # hazard ~ (log x)/(s^2 x): the polynomial-law exponent vanishes
        # and the position law becomes exp of a square root
        closed_form=lambda k: math.exp(s * math.sqrt(k * math.log(k))),
        _moment=math.exp(0.5 * s * s),
    )


def gumbel_hazard(a: float = 1.0) -> DensityModel:
    """Exponentially growing hazard e^(a x): survival exp(-(e^(a x)-1)/a)."""
    if a <= 0:
        raise DomainError("gumbel hazard scale must be positive")
    a = float(a)
    return DensityModel(
        family="gumbel",
        params=(a,),
        param_names=("a",),
        support=HALF_LINE,
        _pdf=lambda x: np.exp(a * x - np.expm1(a * x) / a),
        _hazard=lambda x: np.exp(a * x),
        _cum_hazard=lambda x: np.expm1(a * x) / a,
        _inv_cum_hazard=lambda v: np.log1p(a * v) / a,
        tail=TailClass(SUPER_LOG, rapid=True),
        closed_form=lambda k: math.log(k) / a,
        _finite_mean=True,
    )


def log_boundary(c: float = 2.0) -> DensityModel:
    """Hazard c*log(e + x): the slow end of the unbounded-hazard regime."""
    if c <= 0:
        raise DomainError("log-boundary scale must be positive")
    from scipy import special
    c = float(c)
    e = math.e

    def cum_hazard(x):
        # integral of c*log(e+t) from 0 to x; the antiderivative vanishes at 0
        z = e + np.asarray(x, dtype=float)
        return c * z * (np.log(z) - 1.0)

    def inv_cum_hazard(v):
        # z = e + x solves z (log z - 1) = v/c, so log z - 1 = W(v/(c e))
        # (Corless et al. 1996); one Newton step mends the cancellation in
        # z - e near 0; W(inf) = inf leaves inf/inf at v = inf, so that
        # level maps to inf explicitly
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (v / c) / special.lambertw(v / (c * e)).real - e
        x = np.where(v > 0.0, np.maximum(x, 0.0), 0.0)
        x = x - (cum_hazard(x) - v) / (c * np.log(e + x))
        return np.where(v == np.inf, np.inf, x)

    return DensityModel(
        family="logboundary",
        params=(c,),
        param_names=("c",),
        support=HALF_LINE,
        _pdf=lambda x: c * np.log(e + x) * np.exp(-cum_hazard(x)),
        _hazard=lambda x: c * np.log(e + x),
        _cum_hazard=cum_hazard,
        _inv_cum_hazard=inv_cum_hazard,
        tail=TailClass(LOG_BOUNDARY, index=c),
        _finite_mean=True,
    )


def compact_power(c: float) -> DensityModel:
    """Survival (1-x)^c on [0, 1].  c=1 is the uniform law, c=2 triangular."""
    if c <= 0:
        raise DomainError("compact power exponent must be positive")
    c = float(c)
    return DensityModel(
        family="compactpower",
        params=(c,),
        param_names=("c",),
        support=UNIT_INTERVAL,
        _pdf=lambda x: c * np.power(1.0 - x, c - 1.0),
        _hazard=lambda x: c / (1.0 - x),
        _cum_hazard=lambda x: -c * np.log1p(-x),
        _inv_cum_hazard=lambda v: -np.expm1(-v / c),
        # at or below c = 1 the optimal plan reaches the endpoint in one pass
        tail=(TailClass(COMPACT_POWER_LAW, index=c) if c > 1.0
              else TailClass(COMPACT_TERMINATING)),
        _moment=1.0 / (1.0 + c),
        edge_hazard=(c, 0.0) if c > 1.0 else None,
    )


def uniform() -> DensityModel:
    """Density 1 on [0, 1]: compactpower:1."""
    return replace(compact_power(1.0), family="uniform", params=(), param_names=())


def triangular() -> DensityModel:
    """Density 2(1-x) on [0, 1]: survival (1-x)^2, compactpower:2."""
    return replace(compact_power(2.0), family="triangular", params=(), param_names=())


def compact_fast(a: float = 1.0, b: float = 1.0) -> DensityModel:
    """Hazard a/(1-x)^(1+b) on [0, 1]: survival dies faster than any power."""
    if a <= 0 or b <= 0:
        raise DomainError("compact-fast parameters must be positive")
    a, b = float(a), float(b)

    def cum_hazard(x):
        return (a / b) * np.expm1(-b * np.log1p(-np.asarray(x, dtype=float)))

    def inv_cum_hazard(v):
        return -np.expm1(-np.log1p(b * np.asarray(v, dtype=float) / a) / b)

    @_shaped
    def pdf(xs):
        # the density vanishes at x = 1, where the formula reads inf * 0
        out = np.zeros_like(xs)
        inner = xs < 1.0
        xi = xs[inner]
        out[inner] = a * np.power(1.0 - xi, -(1.0 + b)) * np.exp(-cum_hazard(xi))
        return out

    def closed_form(k):
        # H(x_k) - H(x_{k-1}) ~ log(2h(x_k)) becomes dv/dk ~ ((1+b)/a) log v
        # in v = (1-x)^(-b), so 1 - x_k ~ ((1+b)/a k log k)^(-1/b)
        return 1.0 - ((1.0 + b) / a * k * math.log(k)) ** (-1.0 / b)

    return DensityModel(
        family="compactfast",
        params=(a, b),
        param_names=("a", "b"),
        support=UNIT_INTERVAL,
        _pdf=pdf,
        _hazard=lambda x: a * np.power(1.0 - x, -(1.0 + b)),
        _cum_hazard=cum_hazard,
        _inv_cum_hazard=inv_cum_hazard,
        tail=TailClass(COMPACT_RV, index=1.0 + b),
        closed_form=closed_form,
        edge_hazard=(a, b),
    )


def custom(
    hazard: Callable[[float], float],
    support: str = HALF_LINE,
    tail: Optional[TailClass] = None,
    cumulative_hazard: Optional[Callable[[float], float]] = None,
    params: Sequence[float] = (),
    name: str = "custom",
) -> DensityModel:
    """Wrap a user-supplied hazard.

    Without a closed-form cumulative hazard every call integrates from 0,
    which is correct but slow inside the solver; pass one when you have it.
    The tail class must be declared explicitly for classify_tail or solve
    to work: it is never inferred from hazard samples, nor from the name,
    and must fit the support (DomainError otherwise).  A declared compact
    power-law or compact-rv class classifies but does not solve: the
    solver's log-gap forms need the edge hazard (A0, b) that only
    compactpower and compactfast declare.
    """
    if support not in (HALF_LINE, UNIT_INTERVAL):
        raise DomainError(f"unknown support kind {support!r}")
    compact_kinds = (COMPACT_RV, COMPACT_POWER_LAW, COMPACT_TERMINATING)
    if tail is not None and (tail.kind in compact_kinds) != (support == UNIT_INTERVAL):
        raise DomainError(f"tail class {tail.kind!r} does not fit support {support!r}")
    cap = 1.0 if support == UNIT_INTERVAL else math.inf

    @_shaped
    def h_arr(xs):
        return np.asarray([float(hazard(float(t))) for t in xs])

    def H_one(x):
        if cumulative_hazard is not None:
            return float(cumulative_hazard(x))
        return quad(h_arr, 0.0, x) if x > 0 else 0.0

    if cumulative_hazard is not None and abs(H_one(0.0)) > 1e-12:
        raise DomainError("cumulative hazard must vanish at 0 (it is an integral from 0)")

    @_shaped
    def H_arr(xs):
        return np.asarray([H_one(float(t)) for t in xs])

    def Hinv_one(v):
        if v <= 0:
            return 0.0
        hi = min(1.0, cap * (1.0 - 1e-15))
        while H_one(hi) < v:
            if hi >= cap * (1.0 - 1e-15):
                raise DomainError(
                    "cumulative hazard level is too deep for numeric inversion"
                )
            hi = min(hi * 2.0, cap * (1.0 - 1e-15))
        return brentq(lambda t: H_one(t) - v, 0.0, hi, xtol=1e-13, rtol=8.9e-16)

    @_shaped
    def Hinv_arr(vs):
        return np.asarray([Hinv_one(float(t)) for t in vs])

    return DensityModel(
        family=name,
        params=tuple(float(p) for p in params),
        param_names=tuple(f"p{i}" for i in range(len(params))),
        support=support,
        _pdf=lambda x: h_arr(x) * np.exp(-H_arr(x)),
        _hazard=h_arr,
        _cum_hazard=H_arr,
        _inv_cum_hazard=Hinv_arr,
        tail=tail,
    )


# ---------------------------------------------------------------------------
# Moments and classification.
# ---------------------------------------------------------------------------


def first_abs_moment(model: DensityModel) -> float:
    """E|X| via closed form when known, otherwise by integrating survival.

    Raises InfiniteMeanError when the moment diverges.
    """
    if model._moment is not None:
        if math.isinf(model._moment):
            raise InfiniteMeanError(
                f"{model.spec_string()} has an infinite mean modulus; every "
                "search plan has infinite expected time"
            )
        return model._moment
    if model.support == UNIT_INTERVAL:
        return quad(model.survival, 0.0, 1.0)
    # Half line: integrate survival in doubling blocks and require the
    # increments to settle, so a heavy tail is reported instead of trusted
    # to a single improper quadrature.
    total = 0.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        inc = quad(model.survival, lo, hi)
        total += inc
        if hi > 8.0 and inc < 1e-12 * max(total, 1.0):
            return total
        lo, hi = hi, 2.0 * hi
    raise InfiniteMeanError(
        f"survival integral for {model.spec_string()} did not converge; "
        "the first absolute moment appears infinite"
    )


def check_finite_mean(model: DensityModel) -> None:
    """The solver's guard: InfiniteMeanError unless E|X| is finite.  Only a
    half-line model that states no mean (custom) integrates its survival."""
    if model.support == HALF_LINE and not model._finite_mean:
        first_abs_moment(model)


def classify_tail(model: DensityModel) -> TailClass:
    """The model's tail class, as its constructor declared it.

    Custom densities must declare their class (guessing from hazard
    samples is not classification); their name plays no part.
    """
    if model.tail is not None:
        return model.tail
    if model._moment is not None and math.isinf(model._moment):
        raise InfiniteMeanError(
            f"{model.spec_string()} has an infinite mean; no plan has finite "
            "expected time"
        )
    raise ClassificationError(
        f"no declared tail class for {model.spec_string()}; custom densities "
        "must state their class explicitly"
    )


_FAMILY_TABLE = {
    "exponential": (exponential, 1),
    "stretchedexp": (stretched_exp, 2),
    "lomax": (lomax, 1),
    "lognormal": (lognormal, 1),
    "gumbel": (gumbel_hazard, 1),
    "logboundary": (log_boundary, 1),
    "uniform": (uniform, 0),
    "triangular": (triangular, 0),
    "compactpower": (compact_power, 1),
    "compactfast": (compact_fast, 2),
}


def parse_spec(spec: str) -> DensityModel:
    """Build a model from a spec string, the inverse of spec_string().

    Grammar: family[:param1[,param2]], e.g. "lomax:3" or "compactfast:1,1".
    """
    text = spec.strip()
    if not text:
        raise DomainError("empty density spec")
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    if family not in _FAMILY_TABLE:
        known = ", ".join(sorted(_FAMILY_TABLE))
        raise DomainError(f"unknown density family {family!r}; known: {known}")
    ctor, arity = _FAMILY_TABLE[family]
    raw = [p for p in rest.split(",") if p.strip()] if rest.strip() else []
    if len(raw) != arity:
        raise DomainError(
            f"{family} takes {arity} parameter(s), got {len(raw)} in {spec!r}"
        )
    try:
        params = [float(p) for p in raw]
    except ValueError as exc:
        raise DomainError(f"bad numeric parameter in {spec!r}") from exc
    return ctor(*params)
