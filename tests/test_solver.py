"""Solver behavior: recurrence, shooting outcomes, solve, and the oracle.

The x1 table below was frozen from converged runs cross-checked three
ways (reverse landing, bisection shooting, finite-horizon optimizer);
any drift past 1e-9 is a real regression, not noise.
"""

import math

import numpy as np
import pytest
from conftest import custom_compact_rv, custom_log_boundary, custom_lomax, solved

import lsp_lab as L
from lsp_lab import asymptotics as A
from lsp_lab import solver as S
from lsp_lab import cli
from lsp_lab.solver import (
    MONOTONICITY_VIOLATED,
    NUMERIC_UNDERFLOW,
    SURVIVED,
)

GOLDEN_X1 = {
    "exponential:1": 1.353185306670,
    "stretchedexp:1,1": 2.198380026495,
    "lomax:3": 0.456693973846,
    "lomax:2": 0.688498929736,
    "gumbel:1": 1.137170727231,
    "logboundary:2": 0.666140516985,
    "triangular": 0.656092975285,
    "compactfast:1,1": 0.777125565095,
}

# first excursions of the exponential plan, frozen from the converged orbit
EXP_PREFIX = [1.353185, 3.516547, 6.183789, 9.216406, 12.535071,
              16.088381, 19.840346, 23.764386, 27.840080]

# horizon-10 triangular optimum in L = -log(1-x), frozen from the
# finite-horizon oracle (matches the infinite plan to ~1e-13 up front)
TRI_H10_L = [0.0, 1.0674, 3.4980, 8.3821, 18.1505, 37.6873,
             76.7609, 154.9081, 311.2024, 623.7911]


@pytest.mark.parametrize("spec,want", sorted(GOLDEN_X1.items()))
def test_solve_golden_x1(spec, want):
    seq = solved(spec, 60 if spec not in ("lomax:3", "lomax:2") else 90)
    assert seq.points[0] == 0.0
    assert seq.points[1] == pytest.approx(want, rel=1e-9)


def test_exponential_prefix():
    seq = solved("exponential:1", 210)
    assert np.allclose(seq.points[1:10], EXP_PREFIX, rtol=1e-6)


def test_recurrence_step_matches_closed_form():
    model = L.parse_spec("exponential:1")
    x1 = GOLDEN_X1["exponential:1"]
    # next point solves x2 = (G(x1)+G(0))/p(x1) - x1 directly
    want = (math.exp(-x1) + 1.0) / math.exp(-x1) - x1
    got = L.recurrence_step(model, 0.0, x1)
    assert got == pytest.approx(want, rel=1e-14)


def test_recurrence_step_order_check():
    model = L.parse_spec("exponential:1")
    with pytest.raises(L.DomainError):
        L.recurrence_step(model, 2.0, 1.0)


def test_shoot_forward_outcomes():
    model = L.parse_spec("exponential:1")
    r = L.shoot_forward(model, 10.0, k_max=30)
    assert (r.outcome, r.failure_index) == (NUMERIC_UNDERFLOW, 2)
    r = L.shoot_forward(model, 1e-6, k_max=30)
    assert (r.outcome, r.failure_index) == (NUMERIC_UNDERFLOW, 5)
    r = L.shoot_forward(model, 0.5, k_max=30)
    assert (r.outcome, r.failure_index) == (MONOTONICITY_VIOLATED, 3)
    assert not r.survived
    # the violating point is kept so callers can see the bounce
    k = r.failure_index
    assert r.sequence.points[k + 1] < r.sequence.points[k]


def test_shoot_forward_survives_at_optimum():
    model = L.parse_spec("exponential:1")
    r = L.shoot_forward(model, GOLDEN_X1["exponential:1"], k_max=9)
    assert r.outcome == SURVIVED
    assert np.allclose(r.sequence.points[1:10], EXP_PREFIX, rtol=1e-4)


def test_shoot_forward_terminating_reaches_boundary():
    model = L.parse_spec("uniform")
    r = L.shoot_forward(model, 0.3, k_max=10)
    assert r.outcome == SURVIVED
    assert r.sequence.terminated
    assert r.sequence.points[-1] == 1.0


def test_find_x1_matches_goldens():
    for spec in ("exponential:1", "triangular"):
        model = L.parse_spec(spec)
        x1 = L.find_x1(model, L.SolverConfig(k_max=60))
        assert x1 == pytest.approx(GOLDEN_X1[spec], rel=1e-9), spec


def test_find_x1_terminating_is_exact():
    assert L.find_x1(L.parse_spec("uniform")) == 1.0


def test_solve_uniform_endpoints():
    seq = L.solve(L.parse_spec("uniform"))
    assert np.array_equal(seq.points, [0.0, 1.0])
    assert seq.terminated


def test_solve_rejects_infinite_mean():
    with pytest.raises(L.InfiniteMeanError):
        L.solve(L.parse_spec("lomax:1"))


def test_solve_monotone_and_lengths():
    for spec, k in (("exponential:1", 210), ("stretchedexp:1,1", 310),
                    ("lomax:3", 90), ("triangular", 60), ("compactfast:1,1", 160)):
        seq = solved(spec, k)
        assert len(seq.points) == k + 1, spec
        assert seq.is_strictly_increasing(), spec


def test_compact_solve_carries_log_gaps():
    seq = solved("triangular", 60)
    assert seq.log_gaps is not None
    # log gaps keep growing long after the x values saturate at 1.0
    assert seq.points[-1] == 1.0
    assert np.all(np.diff(seq.log_gaps) > 0)
    assert np.allclose(seq.points[1:8], -np.expm1(-seq.log_gaps[1:8]))


def test_interior_residuals_small():
    model = L.parse_spec("exponential:1")
    seq = solved("exponential:1", 210)
    res = L.recurrence_residual(model, seq)
    assert res.shape == (len(seq.points) - 2,)
    assert np.max(np.abs(res)) < 1e-10
    # in L the certificate still reads past the points' saturation at 1.0
    res = L.recurrence_residual(L.parse_spec("compactfast:0.1,0.1"),
                                solved("compactfast:0.1,0.1", 60))
    assert np.all(np.isfinite(res)) and np.max(np.abs(res)) <= 1e-10
    # and it refutes a wrong answer: the certified compactpower:50 plan with
    # L1 moved to 0.0074, the value a dial on the boundary where orbits die
    # once gave it at k_max = 60
    gaps = solved("compactpower:50", 20).log_gaps.copy()
    gaps[1] = 0.0074
    wrong = L.TurningSequence(points=-np.expm1(-gaps), terminated=False,
                              model_id="compactpower:50", log_gaps=gaps)
    res = L.recurrence_residual(L.parse_spec("compactpower:50"), wrong)
    assert np.max(np.abs(res)) > 1e-3


def test_solve_cross_check_diagnostics():
    seq = L.solve(L.parse_spec("triangular"), L.SolverConfig(k_max=40))
    d = seq.diagnostics
    assert abs(d["x1_bisection_reldev"]) < 1e-5
    assert abs(d["x1_oracle_reldev"]) < 1e-3


def test_turning_sequence_validation():
    with pytest.raises(L.DomainError):
        L.TurningSequence(points=np.array([0.1, 0.5]), terminated=False, model_id="m")
    with pytest.raises(L.DomainError):
        L.TurningSequence(points=np.array([0.0, 0.5]), terminated=False,
                          model_id="m", log_gaps=np.array([0.0]))


def test_turning_sequence_serialization():
    seq = solved("exponential:1", 210)
    d = seq.to_dict()
    assert set(d) >= {"model", "points", "terminated", "increments"}
    assert d["model"] == "exponential:1"
    assert d["points"][0] == 0.0
    assert d["increments"] == pytest.approx(np.diff(seq.points).tolist())


def test_solver_config_validation():
    with pytest.raises(L.DomainError):
        L.SolverConfig(k_max=0)
    with pytest.raises(L.DomainError):
        L.SolverConfig(cap_survival=0.5)
    assert L.SolverConfig(cap_survival=1e-20).cap_survival == 1e-20


def test_horizon_oracle_triangular_frozen():
    seq = L.finite_horizon_optimize(L.parse_spec("triangular"), 10)
    assert seq.terminated
    assert seq.points[-1] == 1.0
    assert np.allclose(seq.log_gaps[:10], TRI_H10_L, rtol=5e-5)


@pytest.mark.parametrize(
    "spec",
    ["triangular", "compactpower:3", "compactpower:4", "compactpower:5", "compactpower:10",
     "compactfast:1,1"],
)
def test_horizon_oracle_matches_solve_prefix(spec):
    sol = solved(spec, 60)
    h40 = L.finite_horizon_optimize(L.parse_spec(spec), 40)
    rel = np.abs(h40.log_gaps[1:11] - sol.log_gaps[1:11]) / sol.log_gaps[1:11]
    assert np.max(rel) < 1e-10


def test_horizon_oracle_halfline_parks_surplus_slots():
    seq = L.finite_horizon_optimize(L.parse_spec("lomax:3"), 40)
    parked = seq.diagnostics["parked_slots"]
    assert parked >= 1
    assert len(seq.points) == 41 - parked
    assert seq.is_strictly_increasing()


def test_horizon_oracle_exponential_with_cap():
    cfg = L.SolverConfig(cap_survival=1e-20)
    seq = L.finite_horizon_optimize(L.parse_spec("exponential:1"), 40, cfg)
    sol = solved("exponential:1", 210)
    assert seq.points[1] == pytest.approx(sol.points[1], rel=1e-9)
    res = L.recurrence_residual(L.parse_spec("exponential:1"), seq)
    assert np.max(np.abs(res)) < 1e-12
    # at this depth the polished chain's first slots lie far below the cap
    lom = L.parse_spec("lomax:1.5")
    seq = L.finite_horizon_optimize(lom, 40, cfg)
    assert seq.points[1] == pytest.approx(solved("lomax:1.5", 60).points[1], abs=1e-5)
    assert np.max(np.abs(L.recurrence_residual(lom, seq))) < 1e-12
    assert seq.diagnostics["parked_slots"] == 10
    gum = L.parse_spec("gumbel:1")
    seq = L.finite_horizon_optimize(gum, 40, cfg)
    assert seq.points[1] == pytest.approx(solved("gumbel:1", 60).points[1], rel=1e-9)
    assert np.max(np.abs(L.recurrence_residual(gum, seq))) < 1e-12


@pytest.mark.parametrize("spec", ["lomax:3", "stretchedexp:1,1", "lognormal:1"])
def test_horizon_oracle_halfline_is_minimal_over_live_counts(spec):
    # parked slots add nothing to the objective, so a horizon that could
    # park one more slot never ends above the horizon one slot shorter
    model = L.parse_spec(spec)
    seq = L.finite_horizon_optimize(model, 40)
    live = len(seq.points) - 1
    shorter = L.finite_horizon_optimize(model, live - 1)
    assert L.objective_value(model, seq).value <= L.objective_value(model, shorter).value


@pytest.mark.parametrize("spec", ["lomax:1.2", "lomax:1.05", "lognormal:3"])
def test_horizon_oracle_certifies_heavy_tails(spec):
    model = L.parse_spec(spec)
    seq = L.finite_horizon_optimize(model, 40)
    assert seq.is_strictly_increasing()
    assert np.max(np.abs(L.recurrence_residual(model, seq))) < 1e-12


@pytest.mark.parametrize("spec", ["triangular", "compactpower:2.5", "compactfast:1,1"])
def test_horizon_n1_is_boundary_dash(spec):
    seq = L.finite_horizon_optimize(L.parse_spec(spec), 1)
    assert np.array_equal(seq.points, [0.0, 1.0])
    assert np.array_equal(seq.log_gaps, [0.0, math.inf])
    assert seq.terminated


def test_horizon_rejects_bad_n():
    with pytest.raises(L.DomainError):
        L.finite_horizon_optimize(L.parse_spec("triangular"), 0)


def test_custom_model_solves_like_builtin():
    model = custom_log_boundary(2.0)
    seq = L.solve(model, L.SolverConfig(k_max=30, cross_check=False))
    built = solved("logboundary:2", 60)
    rel = np.abs(seq.points[1:31] - built.points[1:31]) / built.points[1:31]
    assert np.max(rel) < 1e-8
    # a custom model named like a built-in family solves by its declared tail
    config = L.SolverConfig(k_max=60, cross_check=False)
    seq = L.solve(custom_lomax(3.0, name="lomax"), config)
    built = solved("lomax:3", 60)
    rel = np.abs(seq.points[1:] - built.points[1:]) / built.points[1:]
    assert np.max(rel) < 1e-10
    # no log-gap forms for a custom compact-rv hazard: a typed refusal
    model = custom_compact_rv()
    for route in (L.solve, L.find_x1, lambda m, c: L.finite_horizon_optimize(m, 40, c)):
        with pytest.raises(L.NotApplicableError) as info:
            route(model, config)
        assert cli._exit_code(info.value) == cli.EXIT_USAGE


@pytest.mark.parametrize("spec", ["compactpower:4", "compactpower:5", "compactpower:10"])
def test_oracle_log_w_domain_exit_leaves_solve_standing(spec):
    # large compact-power indices, where a poor oracle start leaves the
    # domain of log W or lands on a higher-objective chain; the oracle
    # confirms the solve on each
    model = L.parse_spec(spec)
    config = L.SolverConfig(k_max=60)
    seq = L.solve(model, config)
    assert not [k for k in seq.diagnostics if k.endswith("_error")]
    assert seq.diagnostics["x1_oracle_reldev"] <= 1e-12
    x1 = L.find_x1(model, config)
    assert abs(seq.points[1] - x1) / x1 <= 1e-5


def test_compact_rv_seed_law_refusal_leaves_solve_standing():
    # the rv seed law has no fixed point at the oracle's first slots
    model = L.parse_spec("compactfast:2,0.5")
    seq = L.solve(model, L.SolverConfig(k_max=60))
    assert "x1_oracle_error" in seq.diagnostics
    assert seq.points[1] == pytest.approx(0.60908149073516, rel=1e-12)
    assert seq.diagnostics["x1_bisection_reldev"] < 1e-12


def test_compact_power_seed_law_overflow_is_typed():
    with pytest.raises(L.LspLabError):
        L.solve(L.parse_spec("compactpower:1.1"), L.SolverConfig(k_max=60))


@pytest.mark.parametrize("spec", ["compactpower:1.25", "compactpower:50"])
def test_death_boundary_dial_is_refused(spec):
    # every orbit below the bracket's high end dies, so no two completed
    # orbits change sign; a polish from there certified a wrong chain
    # (compactpower:50: L1 = 0.0074, both routes 2.8 off)
    with pytest.raises(L.ConvergenceError, match="orbits die at dial"):
        L.solve(L.parse_spec(spec), L.SolverConfig(k_max=60))


def test_death_boundary_refusal_leaves_genuine_brackets_standing():
    # at k_max = 20 compactpower:50 still brackets a sign change
    seq = L.solve(L.parse_spec("compactpower:50"), L.SolverConfig(k_max=20))
    assert seq.log_gaps[1] == pytest.approx(0.027412239887765, rel=1e-12)
    assert seq.diagnostics["x1_bisection_reldev"] <= 1e-12
    assert seq.diagnostics["x1_oracle_reldev"] <= 1e-12


def test_lognormal_5_is_certified_or_refused():
    # it once exited 0 with a residual of 1.3e-7
    model = L.parse_spec("lognormal:5")
    try:
        seq = L.solve(model, L.SolverConfig(k_max=60))
    except L.ConvergenceError:
        return
    assert np.max(np.abs(L.recurrence_residual(model, seq))) <= 1e-12


SOLVE_SEEDLAW = [("exponential:1", 200), ("stretchedexp:1,1", 200), ("gumbel:1", 200),
                 ("logboundary:2", 200), ("lognormal:1", 20)]
SOLVE_CROSSCHECK = [("lomax:2", 200), ("lomax:2.5", 200), ("lomax:3", 200), ("lomax:4", 200),
                    ("lomax:6", 150), ("triangular", 60), ("compactpower:1.5", 60),
                    ("compactpower:2.5", 60), ("compactpower:3", 60),
                    ("compactfast:0.5,1", 120), ("compactfast:1,1", 160),
                    ("compactfast:1,2", 100), ("compactfast:2,2", 100),
                    ("compactfast:1,0.5", 120)]


@pytest.mark.parametrize("spec,k_max", SOLVE_SEEDLAW)
def test_loose_dial_orbit_budget(spec, k_max, monkeypatch):
    # the dial lands to 1e-4 and the polish finishes: 16-22 orbits per solve
    # when brentq pinned the dial to 1e-15
    orbit, calls = S._orbit, []

    def counted(*args):
        calls.append(args)
        return orbit(*args)

    monkeypatch.setattr(S, "_orbit", counted)
    L.solve(L.parse_spec(spec), L.SolverConfig(k_max=k_max, cross_check=False))
    assert 0 < len(calls) <= 13


@pytest.mark.parametrize("spec,k_max", SOLVE_SEEDLAW + SOLVE_CROSSCHECK)
def test_solve_answer_carries_its_certificate(spec, k_max):
    # every stationarity row, the landing row k = 1 included
    model = L.parse_spec(spec)
    res = L.recurrence_residual(model, solved(spec, k_max))
    assert res.shape == (k_max - 1,)
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize(
    "spec,bracket,error",
    [
        ("exponential:1", (1e-6, 0.677), L.BracketError),
        ("exponential:1", (2.71, 50.0), L.NonMonotonePredicateError),
        ("triangular", (1e-6, 0.328), L.BracketError),
        ("triangular", (0.9, 0.999), L.NonMonotonePredicateError),
    ],
)
def test_find_x1_error_paths(spec, bracket, error):
    with pytest.raises(error):
        L.find_x1(L.parse_spec(spec), L.SolverConfig(x1_bracket=bracket))


@pytest.mark.parametrize(
    "spec", ["exponential:1", "stretchedexp:1,1", "gumbel:1", "logboundary:2", "lognormal:1"]
)
def test_halfline_solve_never_inverts_the_exact_index_law(spec, monkeypatch):
    # the seed comes from the tabulated index law; the exact inversion is
    # for predictions only
    def refuse(*args, **kwargs):
        raise AssertionError("solve called the exact index law")

    monkeypatch.setattr(A, "invert_index", refuse)
    monkeypatch.setattr(A, "index_integral", refuse)
    model = L.parse_spec(spec)
    seq = L.solve(model, L.SolverConfig(k_max=60))
    assert not [k for k in seq.diagnostics if k.endswith("_error")]
    assert seq.diagnostics["x1_bisection_reldev"] <= 1e-5
    assert seq.diagnostics["x1_oracle_reldev"] <= 1e-3
    assert np.max(np.abs(L.recurrence_residual(model, seq))) <= 1e-10


@pytest.mark.parametrize("spec", ["lognormal:1", "lognormal:3"])
def test_lognormal_solves_at_large_k(spec):
    model = L.parse_spec(spec)
    seq = L.solve(model, L.SolverConfig(k_max=200, cross_check=False))
    assert seq.is_strictly_increasing()
    assert np.max(np.abs(L.recurrence_residual(model, seq))) <= 1e-10


# find_x1 at the commit before its array passes, as float.hex; the batched
# scan and bisection must reproduce these to the last bit
FIND_X1_PINNED = {
    "lomax:3": "0x1.d3a795c7ccaaep-2",
    "exponential:1": "0x1.5a6a5a2d9311ap+0",
}


@pytest.mark.parametrize("spec,want", sorted(FIND_X1_PINNED.items()))
def test_find_x1_is_bitwise_pinned(spec, want):
    got = L.find_x1(L.parse_spec(spec), L.SolverConfig(k_max=200))
    assert got.hex() == want


@pytest.mark.parametrize("a", [0.1, 1, 10])
@pytest.mark.parametrize("b", [3, 5])
def test_stretched_exp_steep_hazards_solve_certified(a, b):
    # x^b overflows inside find_x1's shots; the pdf must read 0 there,
    # not inf * 0 (every warning is a test error)
    model = L.parse_spec(f"stretchedexp:{a},{b}")
    seq = L.solve(model)
    assert not [k for k in seq.diagnostics if k.endswith("_error")]
    assert seq.diagnostics["x1_bisection_reldev"] <= 1e-12
    assert seq.diagnostics["x1_oracle_reldev"] <= 1e-8
    assert np.max(np.abs(L.recurrence_residual(model, seq))) <= 1e-12


def test_stretched_exp_masked_pdf_leaves_answers_bitwise():
    # stretchedexp:1,1 before the pdf's masked product, as float.hex
    model = L.parse_spec("stretchedexp:1,1")
    config = L.SolverConfig(k_max=200)
    assert L.find_x1(model, config).hex() == "0x1.19648446fca63p+1"
    pts = L.solve(model, config).points
    # solve's polished chain; the tight-dial orbit gave the second pair
    assert (pts[1].hex(), pts[-1].hex()) == ("0x1.19648446fc963p+1", "0x1.b7c914979fdfap+5")
    old = (float.fromhex("0x1.19648446fcce5p+1"), float.fromhex("0x1.b7c914979fe01p+5"))
    assert (pts[1], pts[-1]) == pytest.approx(old, rel=1e-12, abs=0.0)


def _scalar_L_mode(A0, s, H, L1, k_max):
    # the per-point log-gap recurrence, one float at a time
    L_prev, L_cur = 0.0, L1
    for _ in range(1, k_max):
        t = H(L_cur) - H(L_prev) - s * L_cur
        if t > 690.0:
            return "boundary"
        eps_next = (1.0 - math.expm1(-L_cur)) - (math.exp(t) + math.exp(-s * L_cur)) / A0
        if eps_next <= 0.0:
            return "boundary"
        L_next = -math.log(eps_next)
        if L_next <= L_cur:
            return "collapse"
        L_prev, L_cur = L_cur, L_next
    return "survived"


@pytest.mark.parametrize(
    "spec", ["lomax:3", "exponential:1", "lognormal:1", "triangular", "compactfast:1,1"]
)
def test_batched_modes_match_per_point_shooting(spec):
    # find_x1's 120-point scan grid, plus 120 points within 1e-9 of x1
    # where the mode flips, labelled in one array pass and point by point
    model = L.parse_spec(spec)
    x1 = L.find_x1(model)
    zoom = x1 * (1.0 + np.linspace(-1e-9, 1e-9, 120))
    if model.support == "half-line":
        grid = np.concatenate([np.geomspace(1e-6, 50.0, 120), zoom])
        batched = S._shoot_modes(model, grid, 60)
        single = [L.shoot_forward(model, x, 60).outcome for x in grid]
    else:
        eng = S._compact_engine(model, L.classify_tail(model))
        lo, hi = -math.log1p(-1e-6), -math.log1p(-(1.0 - 1e-12))
        grid = np.concatenate([np.geomspace(lo, hi, 120), -np.log1p(-zoom)])
        batched = S._forward_L_shoot(eng.A0, eng.s, eng.H, grid, 60)
        single = [_scalar_L_mode(eng.A0, eng.s, eng.hc, L1, 60) for L1 in grid]
    assert list(batched) == single
    assert len(set(single)) >= 2


@pytest.mark.parametrize("spec", ["lomax:3", "exponential:1", "triangular", "compactfast:1,1"])
def test_halfline_oracle_runs_without_scalar_descent(spec, monkeypatch):
    # each live count starts from the previous chain and goes straight to
    # the Newton polish; no bounded scalar search is left on either support
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called minimize_scalar")

    monkeypatch.setattr(S.optimize, "minimize_scalar", refuse)
    model = L.parse_spec(spec)
    seq = L.finite_horizon_optimize(model, 40)
    assert seq.is_strictly_increasing()
    assert np.max(np.abs(L.recurrence_residual(model, seq))) < 1e-12
    x1 = solved(spec, 60).points[1]
    assert abs(seq.points[1] - x1) / x1 < 1e-6


@pytest.mark.parametrize("spec,k_max", [("lomax:3", 2000), ("lomax:2", 1200)])
def test_power_law_seed_law_overflow_is_typed(spec, k_max):
    with pytest.raises(L.ConvergenceError, match="seed law overflows at index"):
        L.solve(L.parse_spec(spec), L.SolverConfig(k_max=k_max))


def test_compact_oracle_reldev_reads_log_gaps():
    # x1 rounds to the same float on both routes here; L1 does not
    model = L.parse_spec("compactfast:0.1,0.1")
    config = L.SolverConfig(k_max=80)
    seq = L.solve(model, config)
    oracle = L.finite_horizon_optimize(model, 40, config)
    assert oracle.points[1] == seq.points[1]
    want = abs(oracle.log_gaps[1] - seq.log_gaps[1]) / seq.log_gaps[1]
    assert want > 0.0
    assert seq.diagnostics["x1_oracle_reldev"] == want
    assert seq.diagnostics["x1_oracle"] == oracle.points[1]


# finite_horizon_optimize(model, 40) at the commit before the array chain,
# as (float.hex of x1, live count) per survival cap; the array chain and
# the fail-fast polish must reproduce these to the last bit
ORACLE_PINNED = {
    ("exponential:1", None): ("0x1.5a6a5a05d4bbap+0", 8),
    ("exponential:1", 1e-20): ("0x1.5a6a5a2d93417p+0", 12),
    ("lognormal:1", None): ("0x1.e85692820e18ap+0", 10),
    ("lognormal:1", 1e-20): ("0x1.e8568ed20a3c0p+0", 19),
    ("lomax:3", None): ("0x1.d3a788a48b01cp-2", 12),
    ("lomax:3", 1e-20): ("0x1.d3a795c7cc659p-2", 23),
}


@pytest.mark.parametrize("spec,cap", sorted(ORACLE_PINNED, key=str))
def test_halfline_oracle_is_bitwise_pinned(spec, cap):
    config = L.SolverConfig() if cap is None else L.SolverConfig(cap_survival=cap)
    seq = L.finite_horizon_optimize(L.parse_spec(spec), 40, config)
    assert (seq.points[1].hex(), len(seq.points) - 1) == ORACLE_PINNED[spec, cap]


def _scalar_chain(model, xs):
    # the per-slot half-line chain: hazard and cumulative hazard one float
    # at a time, logs through math; None where log W_k is undefined
    h = lambda x: float(model._hazard(np.asarray(x, dtype=float)))
    H = lambda x: float(model._cum_hazard(np.asarray(x, dtype=float)))
    rows = []
    for k in range(1, len(xs) - 1):
        hk = h(xs[k])
        w = (xs[k] + xs[k + 1]) * hk - 1.0
        if not (w > 0.0 and xs[k] > 0.0):
            rows.append(None)
            continue
        e = 1e-6 * xs[k]
        dlog_h = (math.log(h(xs[k] + e)) - math.log(h(xs[k] - e))) / (2.0 * e)
        H_k = H(xs[k])
        rows.append((
            (H_k - H(xs[k - 1]) - math.log(w)) / max(1.0, abs(H_k)),
            -h(xs[k - 1]),
            h(xs[k]) - hk * (1.0 + (xs[k] + xs[k + 1]) * dlog_h) / w,
            -hk / w,
        ))
    return rows


@pytest.mark.parametrize(
    "spec",
    ["exponential:1", "stretchedexp:1,1", "gumbel:1", "logboundary:2",
     "lognormal:1", "lognormal:3", "lomax:3"],
)
def test_array_chain_matches_scalar_chain(spec):
    # the solved sequence, and a copy whose first slots are squeezed toward
    # the origin so that W_k <= 0 there and those rows are undefined
    model = L.parse_spec(spec)
    seq = solved(spec, 200)
    squeezed = seq.points.copy()
    squeezed[1:4] *= 1e-3
    eng = S._engine_for(model, L.classify_tail(model))
    for xs in (seq.points, squeezed):
        want = _scalar_chain(model, xs)
        got = L.recurrence_residual(model, L.TurningSequence(xs, False, spec))
        res, lo, mid, hi, scale = S._chain(eng, xs, 1)
        assert [None if r is None else r[0].hex() for r in want] == [
            None if math.isnan(r) else r.hex() for r in got
        ]
        for i, row in enumerate(want):
            if row is not None:
                assert row[1:] == (lo[i], mid[i], hi[i])
    assert any(r is None for r in _scalar_chain(model, squeezed))


@pytest.mark.parametrize("spec", ["exponential:1", "gumbel:1", "logboundary:2"])
def test_polish_stops_at_its_first_unorderable_step(spec, monkeypatch):
    # the last live count's polish has no ordered step on these tails; it
    # must give up there rather than apply an unchecked step and run on
    calls, chains = [0], []
    chain, polish = S._chain, S._polish

    def counted_chain(*args):
        calls[0] += 1
        return chain(*args)

    def recorded_polish(eng, us, first):
        polish(eng, us, first)
        chains.append(us.copy())

    monkeypatch.setattr(S, "_chain", counted_chain)
    monkeypatch.setattr(S, "_polish", recorded_polish)
    L.finite_horizon_optimize(L.parse_spec(spec), 40)
    assert calls[0] < 60
    assert chains and all(np.all(np.diff(us) > 0.0) for us in chains)
