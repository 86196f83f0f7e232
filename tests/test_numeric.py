"""The in-package kernels against scipy: Brent roots, tridiagonal solves, quadrature.

_numeric.brentq must give scipy.optimize.brentq's roots bit for bit,
through the same evaluation points, at every call site with its own
function and tolerances; _numeric.solve_tridiagonal must give
scipy.linalg.solve_banded((1, 1), ...)'s solution bit for bit.
_numeric.quad must meet closed forms and a tight scipy.integrate.quad to
about 1e-14, and fail with the package's own errors.
"""

import math

import numpy as np
import pytest
from scipy import integrate, linalg, optimize

import lsp_lab as L
from lsp_lab import _numeric
from lsp_lab import asymptotics as A
from lsp_lab import density_kit as D


def _traced(impl, log):
    """brentq through impl, logging the root and every point it evaluated."""

    def run(f, *args, **kwargs):
        xs = []
        root = impl(lambda x: xs.append(x) or f(x), *args, **kwargs)
        log.append((root.hex(), [x.hex() for x in xs]))
        return root

    return run


def _same_as_scipy(monkeypatch, module, call):
    """call() through the module's brentq, then through scipy's."""
    ours, theirs = [], []
    monkeypatch.setattr(module, "brentq", _traced(_numeric.brentq, ours))
    got = call()
    monkeypatch.setattr(module, "brentq", _traced(optimize.brentq, theirs))
    want = call()
    monkeypatch.undo()
    assert ours and ours == theirs
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("a", [1.05, 1.5, 2.0, 2.5, 3.0, 6.0, 40.0])
def test_brentq_pareto_rate(a, monkeypatch):
    _same_as_scipy(monkeypatch, A, lambda: A.pareto_rate(a))


@pytest.mark.parametrize(
    "spec",
    # x h(x) reaches e, and (lomax:2) stays below it: the midpoint level
    ["exponential:1", "stretchedexp:1,1", "gumbel:1", "logboundary:2", "lomax:2", "lomax:3"],
)
def test_brentq_default_x_low(spec, monkeypatch):
    _same_as_scipy(monkeypatch, A, lambda: A.default_x_low(L.parse_spec(spec)))


@pytest.mark.parametrize("spec,k", [("exponential:1", 10.0), ("gumbel:1", 37.5), ("lomax:3", 4.0)])
def test_brentq_invert_index(spec, k, monkeypatch):
    model = L.parse_spec(spec)
    x_low = A.default_x_low(model)
    _same_as_scipy(monkeypatch, A, lambda: A.invert_index(model, k, x_low=x_low))


def test_brentq_chained_index_law_far_out(monkeypatch):
    # past x ~ 1e140 the two slopes of the extrapolating step underflow to a
    # zero product; scipy's C divides to inf there and bisects
    model = L.parse_spec("lognormal:1")
    _same_as_scipy(
        monkeypatch, A,
        lambda: A.predict_sequence(model, A.LAW_INDEX_INTEGRAL, [10000, 15000]).values[15000],
    )


@pytest.mark.parametrize("closed", [True, False])
def test_brentq_custom_inverse_cumulative_hazard(closed, monkeypatch):
    model = L.custom(
        hazard=lambda x: 3.0 / (1.0 + x),
        cumulative_hazard=(lambda x: 3.0 * math.log1p(x)) if closed else None,
        tail=L.TailClass("powerlaw", index=3.0),
    )
    for v in (0.3, 2.0, 11.0):
        _same_as_scipy(monkeypatch, D, lambda: model.inverse_cumulative_hazard(v))


def _nan_inside(x):
    return math.nan if 0.3 < x < 0.7 else x - 0.5


@pytest.mark.parametrize(
    "f,kwargs,error",
    [
        (lambda x: x + 1.0, {}, ValueError),  # f(a) and f(b) share a sign
        (_nan_inside, {}, ValueError),
        (lambda x: x * x - 0.3, {"xtol": 1e-300, "maxiter": 3}, RuntimeError),
    ],
    ids=["sign", "nan", "maxiter"],
)
def test_brentq_raises_as_scipy(f, kwargs, error):
    with pytest.raises(error):
        _numeric.brentq(f, 0.0, 1.0, **kwargs)
    # scipy checks for NaN values only since it wraps f in _wrap_nan_raise
    if f is not _nan_inside or hasattr(optimize._zeros_py, "_wrap_nan_raise"):
        with pytest.raises(error):
            optimize.brentq(f, 0.0, 1.0, **kwargs)


def test_brentq_returns_an_exact_endpoint_root():
    assert _numeric.brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert _numeric.brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


def _banded(lower, diag, upper):
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


def _both(lower, diag, upper, rhs):
    got = _numeric.solve_tridiagonal(lower, diag, upper, rhs)
    want = linalg.solve_banded((1, 1), _banded(lower, diag, upper), rhs)
    return got, want


@pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 210, 1000])
@pytest.mark.parametrize("dominant", [True, False])
def test_solve_tridiagonal_matches_solve_banded(n, dominant):
    rng = np.random.default_rng(n)
    lower, upper, rhs = rng.normal(size=n - 1), rng.normal(size=n - 1), rng.normal(size=n)
    # a dominant diagonal, like the stationarity chain's, never pivots
    diag = rng.normal(size=n) + (4.0 if dominant else 0.0)
    got, want = _both(lower, diag, upper, rhs)
    assert got.tobytes() == want.tobytes()


def test_solve_tridiagonal_row_interchange():
    lower = np.array([5.0, 0.5, 7.0])  # |d_0| < |l_0| and |d_2| < |l_2|
    diag = np.array([0.1, 2.0, 1e-3, 3.0])
    upper = np.array([1.0, -1.5, 0.25])
    rhs = np.array([1.0, 2.0, -3.0, 0.5])
    got, want = _both(lower, diag, upper, rhs)
    assert got.tobytes() == want.tobytes()
    full = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    assert np.allclose(full @ got, rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "lower,diag,upper",
    [
        ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0]),  # zero first column
        ([1.0], [1.0, 1.0], [1.0]),  # equal rows: the last pivot vanishes
    ],
)
def test_solve_tridiagonal_singular(lower, diag, upper):
    bands = [np.array(b, dtype=float) for b in (lower, diag, upper)]
    rhs = np.ones(len(diag))
    assert _numeric.solve_tridiagonal(*bands, rhs) is None
    with pytest.raises(linalg.LinAlgError):
        linalg.solve_banded((1, 1), _banded(*bands), rhs)


@pytest.mark.parametrize("slot,bad", [(0, math.nan), (1, math.inf), (3, -math.inf)])
def test_solve_tridiagonal_non_finite(slot, bad):
    args = [np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3)]
    args[slot][1] = bad
    assert _numeric.solve_tridiagonal(*args) is None
    with pytest.raises(ValueError):
        linalg.solve_banded((1, 1), _banded(*args[:3]), args[3])


@pytest.mark.parametrize(
    "f,a,b,want",
    [
        (lambda x: np.exp(-0.5 * x * x), 0.0, 40.0, math.sqrt(math.pi / 2.0)),
        (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: x * np.exp(-x), 0.0, 60.0, 1.0),  # the exponential:1 mean
        (lambda x: x * x, 1.0, 0.0, -1.0 / 3.0),  # a reversed range
        (lambda x: x * x, 2.0, 2.0, 0.0),
    ],
    ids=["half-gaussian", "square", "exponential-mean", "reversed", "empty"],
)
def test_quad_meets_closed_forms(f, a, b, want):
    assert _numeric.quad(f, a, b) == pytest.approx(want, rel=2e-15, abs=0.0)


def _scipy_index_integral(model, x_low, x):
    def g(u):
        h = float(model.hazard(u))
        return h / math.log(u * h)

    val, _ = integrate.quad(g, x_low, x, epsrel=1e-13, epsabs=0.0, limit=1000)
    return val


@pytest.mark.parametrize(
    "spec", ["exponential:1", "stretchedexp:1,1", "gumbel:1", "logboundary:2", "lognormal:1"]
)
def test_quad_index_integral_meets_tight_scipy_quad(spec):
    model = L.parse_spec(spec)
    x_low = A.default_x_low(model)
    x_top = A.invert_index(model, 1000.0, x_low=x_low)
    for x in np.geomspace(x_low, x_top, 6)[1:]:
        want = _scipy_index_integral(model, x_low, x)
        assert A.index_integral(model, x, x_low=x_low) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "f,error",
    [
        (lambda x: np.where(x < 0.5, np.nan, 1.0), L.DomainError),
        (lambda x: np.where(x < 0.5, np.inf, 1.0), L.DomainError),
        (lambda x: 1.0 / x, L.ConvergenceError),  # divergent at 0
    ],
    ids=["nan", "inf", "divergent"],
)
def test_quad_raises_typed_errors(f, error):
    with pytest.raises(error):
        _numeric.quad(f, 0.0, 1.0)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.5),  # a jump
        lambda x: 0.5 / np.sqrt(x),
        lambda x: 0.25 * x**-0.75,
    ],
    ids=["jump", "x^-1/2", "x^-3/4"],
)
def test_quad_meets_a_jump_and_an_end_singularity(f):
    # here |K21 - G10| is not pessimistic, so the 1e-12 stop itself bounds the error
    assert _numeric.quad(f, 0.0, 1.0) == pytest.approx(1.0, rel=3e-12)


def test_custom_hazard_singular_at_zero():
    # Weibull with shape 1/2: H(x) = sqrt(x)
    model = L.custom(hazard=lambda x: 0.5 / math.sqrt(x))
    xs = np.array([0.01, 1.0, 4.0])
    assert np.allclose(model.cumulative_hazard(xs), np.sqrt(xs), rtol=3e-12, atol=0.0)


def test_quad_resolves_an_oscillation():
    want = (1.0 - math.cos(1e3)) / 1e3
    assert _numeric.quad(lambda x: np.sin(1e3 * x), 0.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_quad_interval_budget():
    # sin(1e6 x) on [0, 1] would need about 1e5 intervals, past the 4000 budget
    with pytest.raises(L.ConvergenceError):
        _numeric.quad(lambda x: np.sin(1e6 * x), 0.0, 1.0)


def test_index_law_overflow_is_typed():
    """A hazard that overflows inside the range stops the index law with a
    DomainError rather than a raw numpy error or a NaN position."""
    model = L.custom(hazard=lambda x: math.exp(x) if x < 700.0 else math.inf,
                     tail=L.TailClass("superlog", rapid=True))
    with pytest.raises(L.DomainError):
        A.index_integral(model, 800.0, x_low=1.0)
    with pytest.raises(L.DomainError):
        A.invert_index(model, 1e300, x_low=1.0)
