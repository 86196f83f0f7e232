"""Density construction, classification, moments, and the spec-string grammar."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import lsp_lab as L
from lsp_lab.density_kit import (
    COMPACT_POWER_LAW,
    COMPACT_RV,
    COMPACT_TERMINATING,
    LOG_BOUNDARY,
    POWER_LAW,
    SUB_LOG,
    SUPER_LOG,
)

ALL_SPECS = [
    "exponential:1",
    "stretchedexp:1,1",
    "lomax:3",
    "lognormal:0.5",
    "gumbel:1",
    "logboundary:2",
    "uniform",
    "triangular",
    "compactpower:2.5",
    "compactfast:1,1",
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_spec_roundtrip(spec):
    model = L.parse_spec(spec)
    again = L.parse_spec(model.spec_string())
    assert again.family == model.family
    assert again.params == model.params


def test_parse_errors():
    with pytest.raises(L.DomainError):
        L.parse_spec("nosuchfamily:1")
    with pytest.raises(L.DomainError):
        L.parse_spec("lomax")  # missing parameter
    with pytest.raises(L.DomainError):
        L.parse_spec("uniform:3")  # unexpected parameter
    with pytest.raises(L.DomainError):
        L.parse_spec("lomax:abc")
    with pytest.raises(L.DomainError):
        L.parse_spec("")
    for spec in ("compactpower:nan", "exponential:inf", "lomax:nan"):
        with pytest.raises(L.DomainError):
            L.parse_spec(spec)  # non-finite parameter


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_survival_pdf_hazard_consistency(spec):
    model = L.parse_spec(spec)
    hi = 0.95 if model.support == "unit-interval" else 4.0
    xs = np.linspace(0.05, hi, 9)
    g = model.survival(xs)
    p = model.pdf(xs)
    h = model.hazard(xs)
    assert np.all(g > 0) and np.all(g <= 1)
    assert np.allclose(p, h * g, rtol=1e-12, atol=1e-300)
    # cumulative hazard matches -log G
    H = model.cumulative_hazard(xs)
    assert np.allclose(H, -np.log(g), rtol=1e-10, atol=1e-12)
    if model.support == "unit-interval":
        # the density at the edge, where only the uniform one is nonzero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.pdf(1.0) == (1.0 if spec == "uniform" else 0.0)


@pytest.mark.parametrize("a,b", [(0.1, 3.0), (1.0, 5.0), (10.0, 3.0), (1.0, 1.0)])
def test_stretched_exp_pdf_past_overflow(a, b):
    # x^b overflows to inf where the survival is already 0: the density
    # is 0 there, and the unmasked formula's value wherever that is finite
    model = L.parse_spec(f"stretchedexp:{a},{b}")
    xs = np.geomspace(1e-300, 1e300, 2001)
    p = model.pdf(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = a * np.power(xs, b) * np.exp(-a * np.power(xs, 1.0 + b) / (1.0 + b))
    fin = np.isfinite(plain)
    assert np.array_equal(p[fin], plain[fin])
    assert (~fin).any() == (b >= 3.0)  # the grid reaches the overflow
    assert np.all(p[~fin] == 0.0)
    assert model.pdf(1e300) == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_inverse_cumulative_hazard(spec):
    model = L.parse_spec(spec)
    hi = 0.9 if model.support == "unit-interval" else 3.0
    xs = np.linspace(0.1, hi, 7)
    back = model.inverse_cumulative_hazard(model.cumulative_hazard(xs))
    assert np.allclose(back, xs, rtol=1e-9)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_inverse_cumulative_hazard_at_infinity(spec):
    # infinite cumulative hazard is the end of the support, never NaN
    model = L.parse_spec(spec)
    end = 1.0 if model.support == "unit-interval" else math.inf
    assert model.inverse_cumulative_hazard(math.inf) == end
    assert model.inverse_cumulative_hazard(np.array([1.0, math.inf]))[1] == end


@pytest.mark.parametrize("c", [0.5, 2.0, 5.0])
def test_log_boundary_inverse_is_exact(c):
    # the Lambert-W inverse of H, polished by one Newton step
    model = L.parse_spec(f"logboundary:{c}")
    xs = np.geomspace(1e-3, 1e6, 2001)
    vs = model.cumulative_hazard(xs)
    back = model.inverse_cumulative_hazard(vs)
    assert np.allclose(back, xs, rtol=1e-12, atol=0.0)
    assert np.allclose(model.cumulative_hazard(back), vs, rtol=1e-12, atol=0.0)
    assert model.inverse_cumulative_hazard(0.0) == 0.0
    us = np.array([0.0, 1e-300, 1e-17, 0.5, 1.0 - 2.0**-53])
    qs = model.modulus_quantile(us)
    assert np.all(np.isfinite(qs)) and np.all(np.diff(qs) > 0.0)
    qs = model.modulus_quantile(np.linspace(0.0, 1.0 - 2.0**-53, 100_001))
    assert np.all(np.isfinite(qs)) and np.all(np.diff(qs) >= 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_quantile_matches_survival(spec):
    model = L.parse_spec(spec)
    us = np.array([0.1, 0.5, 0.9])
    ys = model.modulus_quantile(us)
    assert np.allclose(1.0 - np.asarray(model.survival(ys)), us, rtol=1e-9, atol=1e-9)


def test_survival_at_origin_is_one():
    for spec in ALL_SPECS:
        assert float(L.parse_spec(spec).survival(0.0)) == pytest.approx(1.0)


def test_classification_table():
    kinds = {
        "exponential:1": SUB_LOG,
        "lognormal:0.5": SUB_LOG,
        "stretchedexp:1,1": SUPER_LOG,
        "gumbel:1": SUPER_LOG,
        "logboundary:2": LOG_BOUNDARY,
        "lomax:3": POWER_LAW,
        "uniform": COMPACT_TERMINATING,
        "triangular": COMPACT_POWER_LAW,
        "compactpower:2.5": COMPACT_POWER_LAW,
        "compactfast:1,1": COMPACT_RV,
    }
    for spec, kind in kinds.items():
        tail = L.classify_tail(L.parse_spec(spec))
        assert tail.kind == kind, spec
    assert L.classify_tail(L.parse_spec("gumbel:1")).rapid
    assert L.classify_tail(L.parse_spec("lomax:3")).index == 3.0
    assert L.classify_tail(L.parse_spec("triangular")).index == 2.0
    assert L.classify_tail(L.parse_spec("compactfast:1,1")).index == 2.0
    # a sub-unit exponent cannot force the plan to the boundary
    assert L.classify_tail(L.parse_spec("compactpower:0.8")).kind == COMPACT_TERMINATING


def test_infinite_mean_rejected():
    with pytest.raises(L.InfiniteMeanError):
        L.classify_tail(L.parse_spec("lomax:1"))
    with pytest.raises(L.InfiniteMeanError):
        L.first_abs_moment(L.parse_spec("lomax:0.5"))


def test_tail_class_validation():
    with pytest.raises(L.DomainError):
        L.TailClass(POWER_LAW, index=0.7)  # needs index > 1
    with pytest.raises(L.DomainError):
        L.TailClass(COMPACT_POWER_LAW, index=1.0)
    with pytest.raises(L.DomainError):
        L.TailClass(SUPER_LOG)  # needs an index or the rapid flag
    assert L.TailClass(SUPER_LOG, rapid=True).rapid


def test_first_abs_moment_values():
    cases = {
        "exponential:1": 1.0,
        "uniform": 0.5,
        "triangular": 1.0 / 3.0,
        "lomax:2": 1.0,
        "stretchedexp:1,1": math.sqrt(math.pi / 2.0),
        "gumbel:1": 0.5963473623,
        "logboundary:2": 0.4416421517,
    }
    for spec, want in cases.items():
        got = L.first_abs_moment(L.parse_spec(spec))
        assert got == pytest.approx(want, rel=1e-8), spec


def test_moment_matches_survival_integral():
    for spec in ("lomax:3", "lognormal:0.5", "compactfast:1,1"):
        model = L.parse_spec(spec)
        hi = 1.0 if model.support == "unit-interval" else np.inf
        q, _ = integrate.quad(lambda x: float(model.survival(x)), 0.0, hi, limit=300)
        assert L.first_abs_moment(model) == pytest.approx(q, rel=1e-6), spec


def test_custom_model_matches_builtin():
    from conftest import custom_log_boundary, custom_lomax

    model = custom_log_boundary(2.0)
    built = L.parse_spec("logboundary:2")
    xs = np.linspace(0.2, 5.0, 7)
    assert np.allclose(model.survival(xs), built.survival(xs), rtol=1e-9)
    assert L.classify_tail(model).kind == LOG_BOUNDARY
    # a custom model is classified by its declared tail, whatever its name
    built = L.parse_spec("lomax:3")
    for name in ("lomax", "exponential"):
        replica = custom_lomax(3.0, name=name)
        assert np.allclose(replica.survival(xs), built.survival(xs), rtol=1e-9)
        assert L.classify_tail(replica) == L.TailClass(POWER_LAW, index=3.0)
        with pytest.raises(L.NotApplicableError):
            L.closed_form_xk(replica, 10.0)
        us = np.array([0.1, 0.5, 0.9, 0.999])
        assert np.allclose(replica.modulus_quantile(us), built.modulus_quantile(us),
                           rtol=1e-9, atol=0.0)


def test_custom_requires_declared_tail():
    model = L.custom(hazard=lambda x: 1.0 + x, support="half-line")
    with pytest.raises(L.ClassificationError):
        L.classify_tail(model)


def test_custom_rejects_nonvanishing_cumulative_hazard():
    with pytest.raises(L.DomainError):
        L.custom(hazard=lambda x: 1.0, cumulative_hazard=lambda x: 1.0 + x)
    # nor a tail class that does not fit the support
    with pytest.raises(L.DomainError):
        L.custom(hazard=lambda x: 1.0, tail=L.TailClass(COMPACT_POWER_LAW, index=2.0))
    with pytest.raises(L.DomainError):
        L.custom(hazard=lambda x: 2.0 / (1.0 - x), support="unit-interval",
                 tail=L.TailClass(SUB_LOG))


def test_custom_quad_route_agrees_with_closed_form():
    m_quad = L.custom(hazard=lambda x: 2.0 * x)  # stretched with a=2, b=1
    built = L.stretched_exp(2.0, 1.0)
    xs = np.array([0.3, 1.0, 2.5])
    assert np.allclose(m_quad.cumulative_hazard(xs), built.cumulative_hazard(xs), rtol=1e-9)
    assert np.allclose(m_quad.inverse_cumulative_hazard([0.5, 2.0]),
                       built.inverse_cumulative_hazard([0.5, 2.0]), rtol=1e-8)


def test_domain_checks():
    model = L.parse_spec("exponential:1")
    with pytest.raises(L.DomainError):
        model.survival(-0.5)
    unit = L.parse_spec("triangular")
    with pytest.raises(L.DomainError):
        unit.hazard(1.5)
    with pytest.raises(L.DomainError):
        model.modulus_quantile(1.5)


def test_constructor_parameter_validation():
    with pytest.raises(L.DomainError):
        L.exponential(0.0)
    with pytest.raises(L.DomainError):
        L.stretched_exp(1.0, 0.0)
    with pytest.raises(L.DomainError):
        L.lomax(0.0)
    with pytest.raises(L.DomainError):
        L.compact_fast(1.0, -1.0)
    with pytest.raises(L.DomainError):
        L.stretched_exp(math.inf, 1.0)
    with pytest.raises(L.DomainError):
        L.gumbel_hazard(math.nan)
    with pytest.raises(L.DomainError):
        L.TailClass(POWER_LAW, index=math.nan)
