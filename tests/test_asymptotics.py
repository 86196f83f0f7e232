"""Leading-order laws: trichotomy, index integral, closed forms, rates."""

import math

import numpy as np
import pytest
from scipy import optimize

from lsp_lab import asymptotics as A
from lsp_lab import density_kit as dk
from lsp_lab.errors import DomainError, NotApplicableError

from conftest import custom_log_boundary, solved


# ---------------------------------------------------------------------------
# increment trichotomy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,variant",
    [
        ("exponential:1", A.INCREMENT_INFINITE),
        ("lognormal:1", A.INCREMENT_INFINITE),
        ("lomax:3", A.INCREMENT_INFINITE),
        ("stretchedexp:1,1", A.INCREMENT_ZERO),
        ("gumbel:1", A.INCREMENT_ZERO),
    ],
)
def test_trichotomy_by_family(spec, variant):
    tail = dk.classify_tail(dk.parse_spec(spec))
    lim = A.increment_trichotomy(tail)
    assert lim.variant == variant


def test_trichotomy_log_boundary_value():
    model = custom_log_boundary(0.7)
    tail = dk.classify_tail(model)
    lim = A.increment_trichotomy(tail)
    assert lim.variant == A.INCREMENT_FINITE
    assert lim.value == pytest.approx(1.0 / 0.7, rel=1e-12)


@pytest.mark.parametrize("spec", ["uniform", "triangular", "compactfast:1,1"])
def test_trichotomy_rejects_compact_targets(spec):
    tail = dk.classify_tail(dk.parse_spec(spec))
    with pytest.raises(NotApplicableError):
        A.increment_trichotomy(tail)


def test_increment_limit_validation():
    with pytest.raises(DomainError):
        A.IncrementLimit(A.INCREMENT_FINITE)
    with pytest.raises(DomainError):
        A.IncrementLimit(A.INCREMENT_FINITE, value=-2.0)


# ---------------------------------------------------------------------------
# increment formula
# ---------------------------------------------------------------------------


def test_predict_increment_values():
    exp = dk.parse_spec("exponential:1")
    # unit hazard: log(2x) on the nose
    assert A.predict_increment(exp, 10.0) == pytest.approx(math.log(20.0), rel=1e-14)
    gum = dk.parse_spec("gumbel:1")
    assert A.predict_increment(gum, 2.0) == pytest.approx(0.45828510648470483, rel=1e-12)
    stre = dk.parse_spec("stretchedexp:1,1")
    assert A.predict_increment(stre, 5.0) == pytest.approx(0.7824046010856291, rel=1e-12)


def test_predict_increment_below_regime():
    exp = dk.parse_spec("exponential:1")
    with pytest.raises(DomainError):
        A.predict_increment(exp, 0.4)  # 2*x*h = 0.8 <= 1


# ---------------------------------------------------------------------------
# index integral and its inverse
# ---------------------------------------------------------------------------


def test_default_x_low_closed_forms():
    # unit hazard solves x = e directly
    assert A.default_x_low(dk.parse_spec("exponential:1")) == pytest.approx(
        math.e, rel=1e-12
    )
    # x*h = 2x/(1+x) tops out at 2 < e; midpoint level 1.5 gives x = 3
    assert A.default_x_low(dk.parse_spec("lomax:2")) == pytest.approx(3.0, rel=1e-9)
    # x*h = 3x/(1+x) crosses e at x = e/(3-e)
    assert A.default_x_low(dk.parse_spec("lomax:3")) == pytest.approx(
        math.e / (3.0 - math.e), rel=1e-12
    )


def test_default_x_low_rejects_compact():
    with pytest.raises(NotApplicableError):
        A.default_x_low(dk.parse_spec("triangular"))


def test_index_integral_needs_room():
    exp = dk.parse_spec("exponential:1")
    with pytest.raises(DomainError):
        A.index_integral(exp, 1.0)  # below x_low = e


def test_invert_index_round_trip():
    exp = dk.parse_spec("exponential:1")
    for k in (5.0, 50.0, 500.0):
        x = A.invert_index(exp, k)
        assert A.index_integral(exp, x) == pytest.approx(k, rel=1e-9)


@pytest.mark.parametrize(
    "spec", ["exponential:1", "stretchedexp:1,1", "gumbel:1", "logboundary:2", "lognormal:1"]
)
def test_index_table_tracks_exact_inversion(spec):
    model = dk.parse_spec(spec)
    law = A.tabulate_index(model)
    x_low = A.default_x_low(model)
    for t in (0.5, 1.0, 10.0, 100.0, 210.0):
        assert law(t) == pytest.approx(A.invert_index(model, t, x_low=x_low), rel=1e-3)
    # at or below index 0 the table starts at x_low
    assert law(-3.0) == pytest.approx(x_low, rel=1e-14)


def test_invert_index_tracks_solver_exponential(seq_exp210):
    model = dk.parse_spec("exponential:1")
    ratio = A.invert_index(model, 100) / seq_exp210.points[100]
    assert ratio == pytest.approx(0.850790, rel=1e-4)
    assert abs(ratio - 1.0) < 0.20


def test_invert_index_trend_stretched(seq_str310):
    model = dk.parse_spec("stretchedexp:1,1")
    x_low = A.default_x_low(model)
    ratios = [
        A.invert_index(model, k, x_low=x_low) / seq_str310.points[k]
        for k in (30, 100, 300)
    ]
    assert ratios == pytest.approx([0.904255, 0.930616, 0.945599], rel=1e-4)
    # prediction closes in on the computed points as k grows
    assert ratios[0] < ratios[1] < ratios[2]
    assert abs(ratios[2] - 1.0) < 0.25


def test_route_agreement_at_k_1000():
    """invert_index and the closed forms approach each other slowly.

    The exponential and stretched-exponential routes sit within 25% of
    each other at k = 1000.  The gumbel routes do not: the closed form
    drops the log log k correction, which for an exp(a x) hazard is
    still ~34% at k = 1000.  The measured ratios are pinned so a drift
    in either route shows up here.
    """
    ratios = {}
    for spec in ("exponential:1", "stretchedexp:1,1", "gumbel:1"):
        m = dk.parse_spec(spec)
        ratios[spec] = A.invert_index(m, 1000) / A.closed_form_xk(m, 1000)
    assert ratios["exponential:1"] == pytest.approx(1.126265, rel=1e-4)
    assert ratios["stretchedexp:1,1"] == pytest.approx(1.115194, rel=1e-4)
    assert abs(ratios["exponential:1"] - 1.0) < 0.25
    assert abs(ratios["stretchedexp:1,1"] - 1.0) < 0.25
    assert ratios["gumbel:1"] == pytest.approx(1.335404, rel=1e-4)
    assert 1.25 < ratios["gumbel:1"] < 1.42


def test_route_agreement_exponential_k_100():
    m = dk.parse_spec("exponential:1")
    ratio = A.invert_index(m, 100) / A.closed_form_xk(m, 100)
    assert ratio == pytest.approx(1.087103, rel=1e-4)
    assert abs(ratio - 1.0) < 0.15


# ---------------------------------------------------------------------------
# closed-form position laws
# ---------------------------------------------------------------------------


def test_closed_forms_match_formulas():
    assert A.closed_form_xk(dk.parse_spec("exponential:1"), 100) == pytest.approx(
        100.0 * math.log(100.0), rel=1e-14
    )
    assert A.closed_form_xk(dk.parse_spec("stretchedexp:1,1"), 100) == pytest.approx(
        math.sqrt(2.0 * 100.0 * math.log(100.0)), rel=1e-14
    )
    assert A.closed_form_xk(dk.parse_spec("gumbel:1"), 1000) == pytest.approx(
        math.log(1000.0), rel=1e-14
    )
    # v = (1-x)^(-b) obeys dv/dk ~ ((1+b)/a) log v, so 1 - x_k ~ 1/(2 k log k)
    assert A.closed_form_xk(dk.parse_spec("compactfast:1,1"), 100) == pytest.approx(
        1.0 - 1.0 / (200.0 * math.log(100.0)), rel=1e-14
    )
    assert A.closed_form_xk(dk.parse_spec("lognormal:1"), 100) == pytest.approx(
        math.exp(math.sqrt(100.0 * math.log(100.0))), rel=1e-12
    )


def test_closed_form_rejects():
    with pytest.raises(NotApplicableError):
        A.closed_form_xk(dk.parse_spec("lomax:3"), 100)
    with pytest.raises(DomainError):
        A.closed_form_xk(dk.parse_spec("exponential:1"), 1)


# ---------------------------------------------------------------------------
# power-law growth rate
# ---------------------------------------------------------------------------


def test_pareto_rate_exact_roots():
    # a=2: r^2 - 2r - 1 = 0 -> 1 + sqrt(2); a=3: r^3 - 3r - 2 = (r-2)(r+1)^2
    assert A.pareto_rate(2.0) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    assert A.pareto_rate(3.0) == pytest.approx(2.0, rel=1e-14)


def test_pareto_rate_decreasing_in_exponent():
    grid = [1.2, 1.5, 2.0, 3.0, 5.0, 10.0]
    rates = [A.pareto_rate(a) for a in grid]
    assert all(r_hi < r_lo for r_lo, r_hi in zip(rates, rates[1:]))
    assert all(r > 1.0 for r in rates)


def test_pareto_rate_heavy_tail_limit():
    # as a -> 1+ the defining equation degenerates to x log x = x + 1,
    # whose root is ~3.5911; the rate does not collapse to 1
    root = optimize.brentq(lambda x: x * math.log(x) - x - 1.0, 2.0, 5.0, xtol=1e-13)
    assert root == pytest.approx(3.591121, rel=1e-6)
    assert A.pareto_rate(1.0001) == pytest.approx(root, abs=1e-3)
    assert A.pareto_rate(1.0001) == pytest.approx(3.5908919426944816, rel=1e-10)


def test_pareto_rate_rejects_unit_exponent():
    with pytest.raises(DomainError):
        A.pareto_rate(1.0)


# ---------------------------------------------------------------------------
# compact gap law
# ---------------------------------------------------------------------------


def test_compact_residual_law_formula():
    val = A.compact_residual_law(2.0, 3, 1.5)
    assert val == pytest.approx(4.0 * math.exp(-1.5 * 2.0**3), rel=1e-14)
    arr = A.compact_residual_law(2.0, np.array([1, 2, 3]), 1.5)
    assert arr.shape == (3,)
    assert np.all(np.diff(arr) < 0)


def test_compact_residual_law_rejects():
    with pytest.raises(NotApplicableError):
        A.compact_residual_law(1.0, 3, 1.5)
    with pytest.raises(DomainError):
        A.compact_residual_law(2.0, 3, 0.0)


def test_fit_compact_constant_triangular(seq_tri):
    a_fit, diag = A.fit_compact_constant(seq_tri.log_gaps, 2.0)
    assert a_fit == pytest.approx(1.2210496, rel=1e-5)
    assert diag["half_refit_spread"] < 1e-9


def test_fit_compact_constant_needs_points():
    with pytest.raises(DomainError):
        A.fit_compact_constant(np.array([0.1, 0.2, 0.4]), 2.0)
    with pytest.raises(NotApplicableError):
        A.fit_compact_constant(np.arange(1.0, 12.0), 0.9)


# ---------------------------------------------------------------------------
# prediction builder
# ---------------------------------------------------------------------------


def test_predict_sequence_increment(seq_exp210):
    model = dk.parse_spec("exponential:1")
    pred = A.predict_sequence(model, A.LAW_INCREMENT, [10, 50], sequence=seq_exp210)
    assert pred.values[10] == pytest.approx(
        A.predict_increment(model, float(seq_exp210.points[10])), rel=1e-14
    )
    with pytest.raises(DomainError):
        A.predict_sequence(model, A.LAW_INCREMENT, [10])
    with pytest.raises(DomainError):
        A.predict_sequence(model, A.LAW_INCREMENT, [100000], sequence=seq_exp210)


def test_predict_sequence_positions_increase():
    model = dk.parse_spec("exponential:1")
    pred = A.predict_sequence(model, A.LAW_INDEX_INTEGRAL, [10, 20, 40, 80])
    vals = [pred.values[k] for k in (10, 20, 40, 80)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert "x_low" in pred.fitted_constants


@pytest.mark.parametrize(
    "spec,ks,rel",
    [pytest.param(spec, range(2, 61), 1e-12, id=spec)
     for spec in ("exponential:1", "stretchedexp:1,1", "gumbel:1", "logboundary:2", "lognormal:1")]
    # over 300 octaves past x_low (x(5000) is about 2.4e95): the single
    # inversion must bracket as far out as the chained law steps
    + [pytest.param("lognormal:1", [1000, 3000, 5000], 1e-10, id="lognormal:1-far")],
)
def test_chained_index_law_matches_per_k_inversion(spec, ks, rel):
    model = dk.parse_spec(spec)
    pred = A.predict_sequence(model, A.LAW_INDEX_INTEGRAL, ks)
    x_low = pred.fitted_constants["x_low"]
    for k in ks:
        assert pred.values[k] == pytest.approx(A.invert_index(model, k, x_low=x_low), rel=rel)


def test_chained_index_law_ignores_order_and_repeats():
    model = dk.parse_spec("logboundary:2")
    ks = list(range(2, 31))
    want = A.predict_sequence(model, A.LAW_INDEX_INTEGRAL, ks).values
    shuffled = [ks[i] for i in np.random.default_rng(3).permutation(len(ks))]
    for order in (shuffled, ks[::-1], ks + ks[::3]):
        pred = A.predict_sequence(model, A.LAW_INDEX_INTEGRAL, order)
        assert list(pred.values) == list(dict.fromkeys(order))
        assert pred.values == want
    with pytest.raises(DomainError):
        A.predict_sequence(model, A.LAW_INDEX_INTEGRAL, [5, 0])


@pytest.mark.parametrize(
    "law", [A.LAW_INDEX_INTEGRAL, A.LAW_CLOSED_FORM, A.LAW_PARETO_RATE, A.LAW_INCREMENT]
)
def test_predict_sequence_refuses_an_empty_range(law):
    with pytest.raises(DomainError):
        A.predict_sequence(dk.parse_spec("lomax:3"), law, [])


def test_predict_sequence_closed_form_matches():
    model = dk.parse_spec("stretchedexp:1,1")
    pred = A.predict_sequence(model, A.LAW_CLOSED_FORM, [10, 100])
    assert pred.values[100] == pytest.approx(
        A.closed_form_xk(model, 100.0), rel=1e-14
    )


def test_predict_sequence_pareto():
    model = dk.parse_spec("lomax:3")
    pred = A.predict_sequence(model, A.LAW_PARETO_RATE, [5, 6, 7])
    assert set(pred.values.values()) == {2.0}
    assert pred.fitted_constants["r"] == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(NotApplicableError):
        A.predict_sequence(dk.parse_spec("exponential:1"), A.LAW_PARETO_RATE, [5])


def test_predict_sequence_compact_residual(seq_tri):
    model = dk.parse_spec("triangular")
    pred = A.predict_sequence(
        model, A.LAW_COMPACT_RESIDUAL, [20, 30], sequence=seq_tri
    )
    assert set(pred.values.values()) == {2.0}  # L-ratio c/(c-1) for c=2
    assert pred.fitted_constants["A"] == pytest.approx(1.2210496, rel=1e-5)
    with pytest.raises(DomainError):
        A.predict_sequence(model, A.LAW_COMPACT_RESIDUAL, [20])
    with pytest.raises(NotApplicableError):
        A.predict_sequence(
            dk.parse_spec("lomax:3"), A.LAW_COMPACT_RESIDUAL, [20], sequence=seq_tri
        )


def test_predict_sequence_unknown_law():
    with pytest.raises(DomainError):
        A.predict_sequence(dk.parse_spec("exponential:1"), "no-such-law", [5])


def test_prediction_serialization_round_trip():
    model = dk.parse_spec("lomax:3")
    pred = A.predict_sequence(model, A.LAW_PARETO_RATE, [5, 6])
    d = pred.to_dict()
    assert d["law"] == A.LAW_PARETO_RATE
    assert d["model"] == "lomax:3"
    assert d["values"]["5"] == pytest.approx(2.0)
