"""What the package imports of scipy, seen from fresh interpreters.

`import lsp_lab` and the cli load numpy alone, and a cross-checked solve
stays scipy-free on every family whose facts are closed forms; lognormal
loads what scipy.special itself does.  The index law, the survival
moments and custom() cumulative hazards integrate in the package, so
predictions, expected times and hazard-only models load no scipy either.
Dropping the survival quadrature from solve's mean guard must not let an
infinite mean through.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsp_lab as L

_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(L.__file__).parents[1])] + sys.path))


def _scipy_modules(body: str) -> set:
    """The scipy modules loaded in a fresh interpreter after running body."""
    script = (
        "import json, sys\n" + body + "\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_ENV, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert _scipy_modules("import lsp_lab, lsp_lab.cli") == set()


@pytest.mark.parametrize(
    "spec", ["exponential:1", "stretchedexp:1,1", "gumbel:1", "lomax:3", "triangular", "compactfast:1,1"]
)
def test_cross_checked_solve_loads_no_scipy(spec):
    body = (
        "import lsp_lab as L, lsp_lab.cli\n"
        f"seq = L.solve(L.parse_spec({spec!r}), L.SolverConfig(k_max=60))\n"
        "assert {'x1_bisection_reldev', 'x1_oracle_reldev'} <= set(seq.diagnostics)"
    )
    assert _scipy_modules(body) == set()


def _cli(*argv) -> str:
    """A quiet lsp_lab.cli.main call that must exit 0, as a script line."""
    return (
        "import contextlib, io, lsp_lab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert lsp_lab.cli.main({list(argv)!r}) == 0\n"
    )


def test_index_law_prediction_loads_no_scipy():
    body = _cli("predict", "--dist", "exponential:1", "--law", "index-integral", "--k-max", "60")
    assert _scipy_modules(body) == set()


@pytest.mark.parametrize("spec", ["gumbel:1", "stretchedexp:1,1", "compactfast:1,1"])
def test_expected_time_loads_no_scipy(spec):
    # --samples reports first_abs_moment, which these families integrate
    body = _cli("solve", "--dist", spec, "--k-max", "60", "--samples", "10000")
    assert _scipy_modules(body) == set()


def test_hazard_only_custom_solve_loads_no_scipy():
    body = (
        "import lsp_lab as L\n"
        "model = L.custom(hazard=lambda x: 2.0 * x, tail=L.TailClass('superlog', index=1.0))\n"
        "L.solve(model, L.SolverConfig(k_max=20, cross_check=False))\n"
        "L.first_abs_moment(model)"
    )
    assert _scipy_modules(body) == set()


def test_lognormal_loads_only_scipy_special():
    body = "import lsp_lab as L\nL.solve(L.parse_spec('lognormal:1'), L.SolverConfig(k_max=20))"
    loaded = _scipy_modules(body)
    assert "scipy.special" in loaded
    assert loaded <= _scipy_modules("import scipy.special")


@pytest.mark.parametrize(
    "tail",
    [None, L.TailClass("sublog"), L.TailClass("superlog", rapid=True), L.TailClass("powerlaw", index=3.0)],
    ids=["none", "sublog", "superlog", "powerlaw"],
)
def test_solve_refuses_a_custom_infinite_mean_whatever_its_class(tail):
    # survival (1+x)^(-1/2): the survival integral diverges
    model = L.custom(
        hazard=lambda x: 0.5 / (1.0 + x),
        cumulative_hazard=lambda x: 0.5 * math.log1p(x),
        tail=tail,
    )
    with pytest.raises(L.InfiniteMeanError):
        L.solve(model)
    with pytest.raises(L.InfiniteMeanError):
        L.finite_horizon_optimize(model, 10)
