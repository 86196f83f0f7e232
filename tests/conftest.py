"""Shared fixtures: session-cached solver runs and the acceptance report.

The big sequences are computed once per session; every module asserts
against the same arrays.  Acceptance criterion results are echoed into
the terminal summary so a plain pytest run shows one line per criterion.
"""

import math

import numpy as np
import pytest

import lsp_lab as L

_SOLVED = {}


def solved(spec: str, k_max: int, **cfg_kw) -> L.TurningSequence:
    key = (spec, k_max, tuple(sorted(cfg_kw.items())))
    if key not in _SOLVED:
        cfg_kw.setdefault("cross_check", False)
        model = L.parse_spec(spec)
        _SOLVED[key] = L.solve(model, L.SolverConfig(k_max=k_max, **cfg_kw))
    return _SOLVED[key]


def custom_log_boundary(c: float = 2.0) -> L.DensityModel:
    """The log-boundary hazard wrapped through the custom constructor."""
    e = math.e

    def haz(x):
        return c * np.log(e + x)

    def cumhaz(x):
        return c * (e + x) * (np.log(e + x) - 1.0)

    return L.custom(
        hazard=haz,
        support="half-line",
        tail=L.TailClass("log-boundary", index=c),
        cumulative_hazard=cumhaz,
        name="customlogb",
    )


def custom_lomax(a: float = 3.0, name: str = "custom") -> L.DensityModel:
    """The lomax hazard wrapped through the custom constructor."""
    return L.custom(
        hazard=lambda x: a / (1.0 + x),
        support="half-line",
        tail=L.TailClass("powerlaw", index=a),
        cumulative_hazard=lambda x: a * math.log1p(x),
        name=name,
    )


def custom_compact_rv() -> L.DensityModel:
    """The compactfast:1,1 hazard declared compact-rv through custom()."""
    return L.custom(
        hazard=lambda x: 1.0 / (1.0 - x) ** 2,
        support="unit-interval",
        tail=L.TailClass("compact-rv", index=2.0),
        cumulative_hazard=lambda x: x / (1.0 - x),
    )


@pytest.fixture(scope="session")
def seq_exp210():
    return solved("exponential:1", 210)


@pytest.fixture(scope="session")
def seq_str310():
    return solved("stretchedexp:1,1", 310)


@pytest.fixture(scope="session")
def seq_lom3():
    return solved("lomax:3", 90)


@pytest.fixture(scope="session")
def seq_lom2():
    return solved("lomax:2", 90)


@pytest.fixture(scope="session")
def seq_tri():
    return solved("triangular", 60)


@pytest.fixture(scope="session")
def seq_cf160():
    return solved("compactfast:1,1", 160)


@pytest.fixture(scope="session")
def seq_customlogb210():
    model = custom_log_boundary(2.0)
    return L.solve(model, L.SolverConfig(k_max=210, cross_check=False))


_ACCEPTANCE_LINES = []


def record_criterion(label: str, description: str, ok: bool) -> bool:
    line = f"{'PASS' if ok else 'FAIL'} criterion {label}: {description}"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
