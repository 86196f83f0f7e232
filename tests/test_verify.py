"""Objective evaluation, Monte Carlo timing, and law-comparison verdicts."""

import math

import numpy as np
import pytest

from lsp_lab import asymptotics as A
from lsp_lab import density_kit as dk
from lsp_lab import solver as L
from lsp_lab import verify as V
from lsp_lab.density_kit import classify_tail
from lsp_lab.errors import DomainError, WindowError

from conftest import solved


# ---------------------------------------------------------------------------
# objective value and tail bound
# ---------------------------------------------------------------------------


def test_objective_uniform_is_exact():
    model = dk.parse_spec("uniform")
    seq = L.solve(model)
    ov = V.objective_value(model, seq)
    assert ov.value == 1.0
    assert ov.tail_bound == 0.0
    assert ov.total_upper() == 1.0
    assert V.expected_search_time_exact(model, seq) == 1.5


def test_objective_handmade_exponential_plan():
    model = dk.parse_spec("exponential:1")
    seq = L.TurningSequence(
        points=np.array([0.0, 1.0, math.e]), terminated=False, model_id="exponential:1"
    )
    ov = V.objective_value(model, seq)
    want = 1.0 * (math.exp(-1.0) + 1.0) + math.e * (math.exp(-math.e) + math.exp(-1.0))
    assert ov.value == pytest.approx(want, rel=1e-14)
    t = math.e * math.exp(-math.e) / math.exp(-1.0)
    want_tail = 2.0 * math.e * math.exp(-math.e) * t / (1.0 - t)
    assert ov.tail_bound == pytest.approx(want_tail, rel=1e-12)


def test_objective_terminated_has_no_tail(seq_tri):
    model = dk.parse_spec("triangular")
    ov = V.objective_value(model, seq_tri)
    assert ov.tail_bound == 0.0


def test_objective_tail_bound_can_be_infinite():
    # survival decays too slowly relative to the spacing ratio: the
    # geometric majorant fails and the bound honestly reports inf
    model = dk.parse_spec("lomax:0.5")
    seq = L.TurningSequence(
        points=np.array([0.0, 1.0, 1.05]), terminated=False, model_id="lomax:0.5"
    )
    ov = V.objective_value(model, seq)
    assert math.isinf(ov.tail_bound)
    assert math.isinf(ov.total_upper())


def test_perturbing_any_slot_does_not_improve(seq_exp210):
    model = dk.parse_spec("exponential:1")
    base = V.objective_value(model, seq_exp210).value
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(1, 41))
        pts = seq_exp210.points.copy()
        lo, hi = pts[k - 1], pts[k + 1]
        pts[k] = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        moved = L.TurningSequence(
            points=pts, terminated=False, model_id="exponential:1"
        )
        assert V.objective_value(model, moved).value >= base - 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------


def test_mc_uniform_matches_exact():
    model = dk.parse_spec("uniform")
    seq = L.solve(model)
    est = V.expected_search_time_mc(model, seq, 400_000, seed=20260815)
    assert est.mean == pytest.approx(1.4971518930302916, rel=1e-12)
    assert abs(est.mean - 1.5) <= 3.0 / 1.96 * est.half_width_95
    assert est.n_rejected == 0


def test_mc_exponential_matches_exact(seq_exp210):
    model = dk.parse_spec("exponential:1")
    exact = V.expected_search_time_exact(model, seq_exp210)
    assert exact == pytest.approx(3.9337519746653635, rel=1e-12)
    est = V.expected_search_time_mc(model, seq_exp210, 400_000, seed=7)
    assert est.mean == pytest.approx(3.93114600802802, rel=1e-12)
    assert abs(est.mean - exact) <= 3.0 / 1.96 * est.half_width_95


def test_mc_terminated_mirrors_boundary_leg(seq_tri):
    model = dk.parse_spec("triangular")
    exact = V.expected_search_time_exact(model, seq_tri)
    assert exact == pytest.approx(1.1835204162583877, rel=1e-12)
    est = V.expected_search_time_mc(model, seq_tri, 400_000, seed=11)
    assert est.mean == pytest.approx(1.1852499432605472, rel=1e-12)
    assert abs(est.mean - exact) <= 3.0 / 1.96 * est.half_width_95
    assert est.n_rejected == 0


def test_mc_bitwise_deterministic_across_jobs(seq_exp210):
    model = dk.parse_spec("exponential:1")
    runs = [
        V.expected_search_time_mc(model, seq_exp210, 100_000, seed=5, n_jobs=j)
        for j in (1, 1, 4, 7)
    ]
    means = {r.mean for r in runs}
    assert len(means) == 1
    assert len({r.half_width_95 for r in runs}) == 1


def test_mc_counts_rejections_on_short_plans():
    model = dk.parse_spec("exponential:1")
    seq = L.TurningSequence(
        points=np.array([0.0, 1.0, 2.0]), terminated=False, model_id="exponential:1"
    )
    est = V.expected_search_time_mc(model, seq, 100_000, seed=3)
    # one side reaches 1, the other 2: reject (e^-1 + e^-2)/2 of targets
    want = 0.5 * (math.exp(-1.0) + math.exp(-2.0))
    assert est.n_rejected > 0
    assert est.rejection_rate == pytest.approx(want, abs=5e-3)
    # accepted-sample mean is conditional, so it sits below the full
    # expectation; just check it is positive and finite
    assert 0.0 < est.mean < 10.0


def test_mc_needs_samples(seq_exp210):
    model = dk.parse_spec("exponential:1")
    with pytest.raises(DomainError):
        V.expected_search_time_mc(model, seq_exp210, 1, seed=0)


def test_mc_one_leg_plan_rejects_the_uncovered_side():
    # the plan never turns, so every negative target and the positive
    # ones past 1 are rejected: (1 + e^-1)/2 of them
    model = dk.parse_spec("exponential:1")
    seq = L.TurningSequence(
        points=np.array([0.0, 1.0]), terminated=False, model_id="exponential:1"
    )
    est = V.expected_search_time_mc(model, seq, 100_000, seed=5)
    assert est.rejection_rate == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=5e-3)
    assert 0.0 < est.mean < 1.0


@pytest.mark.parametrize(
    "points", [[0.0, 2.0, 1.0], [0.0, 1.0, math.nan, 3.0], [0.0, math.nan], [0.0, -1.0, 2.0]]
)
def test_mc_refuses_decreasing_or_nan_plans(points):
    model = dk.parse_spec("exponential:1")
    seq = L.TurningSequence(
        points=np.array(points), terminated=False, model_id="exponential:1"
    )
    with pytest.raises(DomainError, match="non-decreasing"):
        V.expected_search_time_mc(model, seq, 1000, seed=0)


# (spec, k_max, seed) -> float.hex of mean and half width, and n_rejected,
# recorded before the one-search chunk; k_max None is the plan [0, 1, 2].
# n = 100_003 leaves the last chunk partial.
MC_PINNED = {
    ("exponential:1", 210, 7): ("0x1.f795bf1d0271cp+1", "0x1.e632eefa55d9ep-6", 0),
    ("triangular", 60, 11): ("0x1.2fb117cf36f96p+0", "0x1.96e7b2ebdd248p-8", 0),
    ("compactpower:2.5", 60, 13): ("0x1.0a12e2be1fffdp+0", "0x1.7b2be142eec25p-8", 0),
    ("uniform", 200, 17): ("0x1.7f61bbc359effp+0", "0x1.a695456eea78fp-8", 0),
    ("exponential:1", None, 3): ("0x1.bacac5083b941p+0", "0x1.1ac61482eacbcp-7", 25033),
}


@pytest.mark.parametrize("spec,k_max,seed", sorted(MC_PINNED, key=str))
def test_mc_is_bitwise_pinned(spec, k_max, seed):
    model = dk.parse_spec(spec)
    if k_max is None:
        seq = L.TurningSequence(points=np.array([0.0, 1.0, 2.0]), terminated=False,
                                model_id=spec)
    else:
        seq = solved(spec, k_max)
    est = V.expected_search_time_mc(model, seq, 100_003, seed=seed)
    got = (est.mean.hex(), est.half_width_95.hex(), est.n_rejected)
    assert got == MC_PINNED[spec, k_max, seed]


# ---------------------------------------------------------------------------
# comparison verdicts
# ---------------------------------------------------------------------------


def test_compare_exponential_increments_converging(seq_exp210):
    model = dk.parse_spec("exponential:1")
    ks = range(100, 201)
    pred = A.predict_sequence(model, A.LAW_INCREMENT, ks, sequence=seq_exp210)
    rep = V.compare(seq_exp210, pred, window=(100, 200))
    assert rep.verdict == V.VERDICT_CONVERGING
    assert abs(rep.mean_ratio - 1.0) < 0.05
    assert abs(rep.log_ratio_slope) < 0.05


def test_compare_lomax_rate_converging(seq_lom3):
    model = dk.parse_spec("lomax:3")
    ks = range(45, 86)
    pred = A.predict_sequence(model, A.LAW_PARETO_RATE, ks)
    rep = V.compare(seq_lom3, pred, window=(45, 85))
    assert rep.verdict == V.VERDICT_CONVERGING
    assert abs(rep.mean_ratio - 1.0) < 0.01


def test_compare_stretched_closed_form_converging(seq_str310):
    model = dk.parse_spec("stretchedexp:1,1")
    ks = range(155, 309)
    pred = A.predict_sequence(model, A.LAW_CLOSED_FORM, ks)
    rep = V.compare(seq_str310, pred, window=(155, 308))
    assert rep.tol == V.DEFAULT_TOL[A.LAW_CLOSED_FORM]
    assert rep.verdict == V.VERDICT_CONVERGING


def test_compare_triangular_gap_ratio_converging(seq_tri):
    model = dk.parse_spec("triangular")
    ks = range(30, 55)
    pred = A.predict_sequence(model, A.LAW_COMPACT_RESIDUAL, ks, sequence=seq_tri)
    rep = V.compare(seq_tri, pred, window=(30, 54))
    assert rep.verdict == V.VERDICT_CONVERGING
    assert abs(rep.mean_ratio - 1.0) < 0.02


def _synthetic_prediction(seq, scale, drift=0.0, lo=60, hi=120):
    """Closed-form-law prediction with values scale*x_k*(k/lo)^drift."""
    vals = {
        k: scale * float(seq.points[k]) * (k / lo) ** drift for k in range(lo, hi + 1)
    }
    return A.AsymptoticPrediction(A.LAW_CLOSED_FORM, seq.model_id, vals)


def test_verdict_monotone_in_tolerance(seq_exp210):
    # numeric/predicted ratio is constant ~0.87: diverging under a tight
    # tolerance, inconclusive in between, converging once tol covers it
    pred = _synthetic_prediction(seq_exp210, scale=1.15)
    verdicts = [
        V.compare(seq_exp210, pred, window=(60, 120), tol=t).verdict
        for t in (0.01, 0.05, 0.15)
    ]
    assert verdicts == [
        V.VERDICT_DIVERGING,
        V.VERDICT_INCONCLUSIVE,
        V.VERDICT_CONVERGING,
    ]
    rank = {V.VERDICT_DIVERGING: 0, V.VERDICT_INCONCLUSIVE: 1, V.VERDICT_CONVERGING: 2}
    grid = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0]
    ranked = [
        rank[V.compare(seq_exp210, pred, window=(60, 120), tol=t).verdict]
        for t in grid
    ]
    assert ranked == sorted(ranked)


def test_drifting_ratio_is_not_converging(seq_exp210):
    # mean ratio is near 1 but the ratio trends with k: the slope guard
    # must block a converging verdict
    pred = _synthetic_prediction(seq_exp210, scale=1.0, drift=-0.3)
    rep = V.compare(seq_exp210, pred, window=(60, 120), tol=0.25)
    assert abs(rep.mean_ratio - 1.0) < 0.25
    assert abs(rep.log_ratio_slope) > 0.05
    assert rep.verdict == V.VERDICT_INCONCLUSIVE


def test_compare_diverging_when_far_off(seq_exp210):
    pred = _synthetic_prediction(seq_exp210, scale=0.01)
    rep = V.compare(seq_exp210, pred, window=(60, 120))
    assert rep.verdict == V.VERDICT_DIVERGING


def test_compare_window_errors(seq_exp210):
    model = dk.parse_spec("exponential:1")
    pred = A.predict_sequence(model, A.LAW_CLOSED_FORM, range(60, 66))
    with pytest.raises(WindowError):
        V.compare(seq_exp210, pred, window=(60, 65))  # only 6 points
    pred2 = A.AsymptoticPrediction(
        A.LAW_CLOSED_FORM, "exponential:1", {k: 1.0 for k in range(200, 251)}
    )
    with pytest.raises(WindowError):
        V.compare(seq_exp210, pred2, window=(200, 250))  # past the end
    with pytest.raises(WindowError):
        V.compare(seq_exp210, pred, window=(65, 60))


def test_compare_rejects_nonpositive_predictions(seq_exp210):
    vals = {k: 0.0 for k in range(60, 75)}
    pred = A.AsymptoticPrediction(A.LAW_CLOSED_FORM, "exponential:1", vals)
    with pytest.raises(DomainError):
        V.compare(seq_exp210, pred, window=(60, 74))


def test_report_serialization(seq_lom3):
    model = dk.parse_spec("lomax:3")
    pred = A.predict_sequence(model, A.LAW_PARETO_RATE, range(45, 86))
    rep = V.compare(seq_lom3, pred, window=(45, 85))
    d = rep.to_dict()
    assert d["verdict"] == rep.verdict
    assert d["summary"]["tol"] == rep.tol
    assert len(d["rows"]) == len(rep.rows)
    assert d["rows"][0]["k"] == 45


# ---------------------------------------------------------------------------
# growth bounds
# ---------------------------------------------------------------------------


def test_growth_bounds_exponential(seq_exp210):
    rep = V.check_growth_bounds(seq_exp210, classify_tail(dk.parse_spec("exponential:1")))
    assert rep.sup_tail_ratio == pytest.approx(1.0114514577173968, rel=1e-9)
    assert rep.tends_to_one is True


def test_growth_bounds_power_law(seq_lom3):
    rep = V.check_growth_bounds(seq_lom3, classify_tail(dk.parse_spec("lomax:3")))
    # geometric growth locks onto the rate root r(3) = 2
    assert rep.sup_tail_ratio == pytest.approx(2.0, rel=1e-9)
    assert rep.tends_to_one is None


def test_growth_bounds_compact(seq_tri):
    rep = V.check_growth_bounds(seq_tri, classify_tail(dk.parse_spec("triangular")))
    assert rep.sup_tail_ratio <= 1.0 + 1e-12
    assert rep.tends_to_one is True


def test_growth_bounds_need_points():
    model = dk.parse_spec("uniform")
    seq = L.solve(model)
    with pytest.raises(WindowError):
        V.check_growth_bounds(seq, classify_tail(model))
