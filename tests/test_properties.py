"""Property-based checks of the density algebra and the verdict logic."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed as fixed_seed, settings, strategies as st
from scipy import integrate

from lsp_lab import asymptotics as A
from lsp_lab import density_kit as dk
from lsp_lab import solver as L
from lsp_lab import verify as V
from lsp_lab.errors import DomainError

from conftest import solved

SLOW = settings(deadline=None, max_examples=25)
FAST = settings(deadline=None)


def half_line_specs(lomax_min=0.3):
    return st.one_of(
        st.floats(0.2, 5.0).map(lambda a: f"exponential:{a}"),
        st.floats(lomax_min, 6.0).map(lambda a: f"lomax:{a}"),
        st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 2.0)).map(
            lambda ab: f"stretchedexp:{ab[0]},{ab[1]}"
        ),
        st.floats(0.3, 2.0).map(lambda a: f"gumbel:{a}"),
        st.floats(0.5, 2.0).map(lambda s: f"lognormal:{s}"),
    )


def compact_specs():
    return st.one_of(
        st.just("uniform"),
        st.just("triangular"),
        st.floats(1.1, 4.0).map(lambda c: f"compactpower:{c}"),
        st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 2.0)).map(
            lambda ab: f"compactfast:{ab[0]},{ab[1]}"
        ),
    )


# ---------------------------------------------------------------------------
# density algebra
# ---------------------------------------------------------------------------


@FAST
@given(spec=st.one_of(half_line_specs(), compact_specs()), u=st.floats(0.01, 0.99))
def test_pdf_is_hazard_times_survival(spec, u):
    model = dk.parse_spec(spec)
    x = 50.0 * u if model.support == dk.HALF_LINE else u
    p = float(model.pdf(x))
    h = float(model.hazard(x))
    g = float(model.survival(x))
    assert p == pytest.approx(h * g, rel=1e-10, abs=1e-300)


@FAST
@given(spec=st.one_of(half_line_specs(), compact_specs()), u=st.floats(0.01, 0.99))
def test_survival_quantile_round_trip(spec, u):
    model = dk.parse_spec(spec)
    x = float(model.modulus_quantile(u))
    assert float(1.0 - model.survival(x)) == pytest.approx(u, abs=1e-9)


@SLOW
@given(spec=st.one_of(half_line_specs(), compact_specs()), u=st.floats(0.05, 0.95))
def test_survival_is_exp_of_integrated_hazard(spec, u):
    model = dk.parse_spec(spec)
    x = 20.0 * u if model.support == dk.HALF_LINE else u
    g = float(model.survival(x))
    assume(g > 1e-12)  # quad cannot resolve deeper tails at 1e-6 relative
    integral, _ = integrate.quad(
        lambda t: float(model.hazard(t)), 0.0, x, limit=200
    )
    assert g == pytest.approx(math.exp(-integral), rel=1e-6)


@FAST
@given(spec=st.one_of(half_line_specs(), compact_specs()), u=st.floats(0.01, 0.99))
def test_inverse_cum_hazard_inverts(spec, u):
    model = dk.parse_spec(spec)
    x = 30.0 * u if model.support == dk.HALF_LINE else u
    hx = float(model._cum_hazard(x))
    assume(hx < 600.0)
    back = float(model._inv_cum_hazard(hx))
    assert back == pytest.approx(x, rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# classification and the trichotomy
# ---------------------------------------------------------------------------


@FAST
@given(spec=half_line_specs(lomax_min=1.05))
def test_half_line_classes_map_to_increment_variants(spec):
    model = dk.parse_spec(spec)
    tail = dk.classify_tail(model)
    lim = A.increment_trichotomy(tail)
    expected = {
        dk.SUB_LOG: A.INCREMENT_INFINITE,
        dk.POWER_LAW: A.INCREMENT_INFINITE,
        dk.SUPER_LOG: A.INCREMENT_ZERO,
        dk.LOG_BOUNDARY: A.INCREMENT_FINITE,
    }
    assert lim.variant == expected[tail.kind]


@FAST
@given(c=st.floats(1.1, 4.0))
def test_compact_power_classification_keeps_index(c):
    tail = dk.classify_tail(dk.parse_spec(f"compactpower:{c}"))
    assert tail.kind == dk.COMPACT_POWER_LAW
    assert tail.index == pytest.approx(c, rel=1e-9)


@FAST
@given(c=st.floats(0.3, 0.9))
def test_compact_power_below_one_terminates(c):
    tail = dk.classify_tail(dk.parse_spec(f"compactpower:{c}"))
    assert tail.kind == dk.COMPACT_TERMINATING


# ---------------------------------------------------------------------------
# index integral inversion
# ---------------------------------------------------------------------------


@SLOW
@given(
    spec=st.sampled_from(["exponential:1", "stretchedexp:1,1", "gumbel:0.8"]),
    k=st.floats(3.0, 300.0),
)
def test_invert_index_is_right_inverse(spec, k):
    model = dk.parse_spec(spec)
    x = A.invert_index(model, k)
    assert A.index_integral(model, x) == pytest.approx(k, rel=1e-8)


# ---------------------------------------------------------------------------
# verdict structure
# ---------------------------------------------------------------------------

_RANK = {V.VERDICT_DIVERGING: 0, V.VERDICT_INCONCLUSIVE: 1, V.VERDICT_CONVERGING: 2}


@FAST
@given(
    t1=st.floats(1e-3, 1.0),
    t2=st.floats(1e-3, 1.0),
    scale=st.floats(0.5, 2.0),
)
def test_verdict_monotone_in_tol(t1, t2, scale):
    t1, t2 = sorted((t1, t2))
    seq = solved("exponential:1", 210)
    vals = {k: scale * float(seq.points[k]) for k in range(60, 121)}
    pred = A.AsymptoticPrediction(A.LAW_CLOSED_FORM, "exponential:1", vals)
    v1 = V.compare(seq, pred, window=(60, 120), tol=t1).verdict
    v2 = V.compare(seq, pred, window=(60, 120), tol=t2).verdict
    assert _RANK[v1] <= _RANK[v2]


@FAST
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4000))
def test_mc_is_deterministic(seed, n):
    model = dk.parse_spec("uniform")
    seq = solved("uniform", 10)
    a = V.expected_search_time_mc(model, seq, n, seed=seed)
    b = V.expected_search_time_mc(model, seq, n, seed=seed, n_jobs=2)
    assert a.mean == b.mean
    assert a.half_width_95 == b.half_width_95
    assert a.n_rejected == b.n_rejected


def _per_side_chunk(model, xs, n, key, chunk_index):
    """The Monte Carlo chunk as two per-side searches, one generator per chunk.

    A transcription of the estimator's earlier chunk, kept as the
    reference for the single search; a side with no leg rejects its
    targets (the earlier loop raised IndexError there).
    """
    g = np.random.Generator(np.random.Philox(key=key).jumped(chunk_index))
    u = g.random(n)
    neg = g.random(n) < 0.5
    y = np.asarray(model.modulus_quantile(u))
    csum = 2.0 * np.cumsum(xs)
    T = np.full(n, np.nan)
    for side in (0, 1):
        sidx = np.arange(side, len(xs), 2)
        sx = xs[sidx]
        mask = neg == bool(side)
        if sx.size == 0:
            continue
        yy = y[mask]
        j = np.searchsorted(sx, yy, side="left")
        ok = j < len(sx)
        leg = sidx[np.minimum(j, len(sx) - 1)]
        base = np.where(leg > 0, csum[np.maximum(leg - 1, 0)], 0.0)
        T[mask] = np.where(ok, base + yy, np.nan)
    good = ~np.isnan(T)
    return np.array(
        [T[good].sum(), (T[good] ** 2).sum(), float(good.sum()), float((~good).sum())]
    )


@fixed_seed(20261019)
@FAST
@given(
    spec=st.sampled_from(["exponential:1", "lomax:3", "triangular"]),
    deltas=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 3.0)), min_size=1, max_size=12),
    terminated=st.booleans(),
    key=st.integers(0, 2**40),
    chunks=st.lists(st.integers(0, 60), min_size=1, max_size=3),
    n=st.integers(1, 3000),
)
def test_mc_chunk_matches_per_side_search(spec, deltas, terminated, key, chunks, n):
    # random non-decreasing plans with ties, capped at 1.0 on the unit
    # interval as saturated compact plans are; one generator is reset
    # for each chunk in turn, as expected_search_time_mc does
    model = dk.parse_spec(spec)
    pts = np.concatenate([[0.0], np.cumsum(deltas)])
    if model.support == "unit-interval":
        pts = np.minimum(pts, 1.0)
    xs = pts[1:]
    if terminated:
        xs = np.append(xs, xs[-1])
    base = np.concatenate(([0.0], 2.0 * np.cumsum(xs)))
    gen = np.random.Generator(np.random.Philox(key=key))
    fresh = gen.bit_generator.state
    for ci in chunks:
        got = V._mc_chunk(model, xs, base, n, gen, fresh, ci)
        want = _per_side_chunk(model, xs, n, key, ci)
        assert [v.hex() for v in got] == [v.hex() for v in want]


# ---------------------------------------------------------------------------
# sequence validation
# ---------------------------------------------------------------------------


@FAST
@given(
    deltas=st.lists(st.floats(0.01, 3.0), min_size=3, max_size=12),
    bad_at=st.integers(1, 100),
)
def test_disorder_is_visible_to_the_monotonicity_query(deltas, bad_at):
    # construction tolerates ties and bounces (saturated compact tails
    # legitimately repeat 1.0); is_strictly_increasing reports them
    pts = np.concatenate([[0.0], np.cumsum(deltas)])
    k = 1 + bad_at % (len(pts) - 2)
    pts[k] = pts[k + 1] + 0.5  # break monotonicity
    seq = L.TurningSequence(points=pts, terminated=False, model_id="exponential:1")
    assert not seq.is_strictly_increasing()


@FAST
@given(deltas=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=12))
def test_increasing_sequences_construct_and_report_clean(deltas):
    pts = np.concatenate([[0.0], np.cumsum(deltas)])
    seq = L.TurningSequence(points=pts, terminated=False, model_id="exponential:1")
    assert len(seq.points) == len(pts)
    assert seq.is_strictly_increasing()


@FAST
@given(first=st.floats(0.01, 5.0))
def test_turning_sequence_must_start_at_zero(first):
    with pytest.raises(DomainError):
        L.TurningSequence(
            points=np.array([first, first + 1.0]),
            terminated=False,
            model_id="exponential:1",
        )
