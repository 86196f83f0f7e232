"""End-to-end command-line behavior: output shapes, exit codes, sweep files."""

import json
import os

import pytest

from lsp_lab.cli import (
    EXIT_INFINITE_MEAN,
    EXIT_NOT_CONVERGING,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_uniform_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--dist", "uniform")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["model"] == "uniform"
    assert payload["points"] == [0.0, 1.0]
    assert payload["terminated"] is True


def test_solve_uniform_csv(capsys):
    code, out, _ = run_cli(capsys, "solve", "--dist", "uniform", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,x_k,delta_k,residual_k"
    assert lines[1].startswith("0,0.0,,")
    assert lines[2].startswith("1,1.0,1.0,")


def test_solve_exponential_csv_file(tmp_path, capsys):
    out_file = tmp_path / "exp.csv"
    code, out, _ = run_cli(
        capsys, "solve", "--dist", "exponential:1", "--k-max", "30",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert out == ""  # routed to the file
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,x_k,delta_k,residual_k"
    assert len(lines) == 32  # header + points 0..30
    # interior rows carry a residual, endpoints leave it blank
    assert lines[1].endswith(",")
    first_interior = lines[2].split(",")
    assert first_interior[3] != ""
    assert abs(float(first_interior[3])) < 1e-6


def test_solve_horizon_json(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--dist", "exponential:1", "--horizon-n", "12"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    pts = payload["points"]
    assert pts[0] == 0.0
    assert 2 <= len(pts) <= 13
    assert all(b > a for a, b in zip(pts, pts[1:]))
    assert payload["terminated"] is False


def test_solve_with_samples_attaches_estimates(capsys):
    args = (
        "solve", "--dist", "exponential:1", "--k-max", "40",
        "--samples", "50000", "--seed", "9",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mc"]["n_samples"] == 50000
    assert payload["mc"]["seed"] == 9
    assert payload["expected_time"]["first_abs_moment"] == pytest.approx(1.0)
    exact = (
        payload["expected_time"]["first_abs_moment"]
        + payload["expected_time"]["objective"]
    )
    assert payload["mc"]["mean"] == pytest.approx(exact, abs=0.05)
    # bitwise reproducible: same invocation, same bytes
    code2, out2, _ = run_cli(capsys, *args)
    assert (code2, out2) == (code, out)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_closed_form_values(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--dist", "stretchedexp:1,1",
        "--law", "closed-form", "--k-max", "100",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["law"] == "closed-form"
    assert payload["values"]["100"] == pytest.approx(30.348542587702926, rel=1e-12)


def test_predict_pareto_rate_constant(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--dist", "lomax:3", "--law", "pareto-rate",
        "--k-max", "10",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(float(v) for v in payload["values"].values()) == {2.0}


def test_predict_csv(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--dist", "exponential:1", "--law", "closed-form",
        "--k-max", "5", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,predicted"
    assert len(lines) == 5  # k = 2..5


def test_predict_law_not_applicable(capsys):
    code, _, err = run_cli(
        capsys, "predict", "--dist", "exponential:1", "--law", "pareto-rate"
    )
    assert code == EXIT_USAGE
    assert "power-law" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_lomax_converges(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dist", "lomax:3", "--k-max", "90",
        "--window", "45:85",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "converging"
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 41


def test_verify_triangular_default_law(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dist", "triangular", "--k-max", "60",
        "--window", "30:54",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["law"] == "compact-residual"
    assert payload["verdict"] == "converging"


def test_verify_not_converging_exit_code(capsys):
    # 10 early slots of the exponential plan are far from the asymptote
    code, out, _ = run_cli(
        capsys, "verify", "--dist", "exponential:1", "--k-max", "60",
        "--window", "1:11", "--law", "increment",
    )
    assert code == EXIT_NOT_CONVERGING
    payload = json.loads(out)
    assert payload["verdict"] in ("inconclusive", "diverging")


def test_verify_short_window_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--dist", "lomax:3", "--k-max", "90",
        "--window", "45:50",
    )
    assert code == EXIT_USAGE
    assert "window" in err


def test_verify_bad_window_syntax(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "--dist", "lomax:3", "--window", "45-85"
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# exit codes for bad inputs
# ---------------------------------------------------------------------------


def test_unknown_family_exits_usage(capsys):
    code, _, err = run_cli(capsys, "solve", "--dist", "nosuchfamily:1")
    assert code == EXIT_USAGE
    assert "nosuchfamily" in err


@pytest.mark.parametrize("spec", ["exponential:1,2,3", "compactpower:nan", "exponential:inf"])
def test_bad_arity_exits_usage(capsys, spec):
    code, out, _ = run_cli(capsys, "solve", "--dist", spec)
    assert code == EXIT_USAGE
    assert out == ""


def test_infinite_mean_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--dist", "lomax:1")
    assert code == EXIT_INFINITE_MEAN
    assert "infinite mean" in err


def test_missing_manifest_exits_usage(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "sweep", "--dist-list", str(tmp_path / "absent.txt"),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE


def test_empty_manifest_exits_usage(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# nothing but comments\n\n# still nothing\n")
    code, _, _ = run_cli(
        capsys, "sweep", "--dist-list", str(manifest),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


MANIFEST = """\
# one spec per line; blank lines and comments skipped
uniform

lomax:3
exponential:1
"""


def _run_sweep(capsys, tmp_path, name, *extra):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(MANIFEST)
    out_dir = tmp_path / name
    code, _, _ = run_cli(
        capsys, "sweep", "--dist-list", str(manifest), "--out", str(out_dir),
        "--k-max", "90", *extra,
    )
    return code, out_dir


def test_sweep_writes_expected_files(capsys, tmp_path):
    code, out_dir = _run_sweep(capsys, tmp_path, "out")
    assert code == EXIT_OK
    names = sorted(os.listdir(out_dir))
    # terminating target gets a solve file only; the rest get all three
    assert names == [
        "exponential-1.predict.json",
        "exponential-1.solve.json",
        "exponential-1.verify.json",
        "lomax-3.predict.json",
        "lomax-3.solve.json",
        "lomax-3.verify.json",
        "uniform.solve.json",
    ]
    verdict = json.loads((out_dir / "lomax-3.verify.json").read_text())
    assert verdict["verdict"] == "converging"


def test_sweep_reruns_are_byte_identical(capsys, tmp_path):
    _, first = _run_sweep(capsys, tmp_path, "a")
    _, second = _run_sweep(capsys, tmp_path, "b")
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_sweep_parallel_matches_serial(capsys, tmp_path):
    _, serial = _run_sweep(capsys, tmp_path, "serial")
    _, parallel = _run_sweep(capsys, tmp_path, "parallel", "--jobs", "3")
    assert sorted(os.listdir(serial)) == sorted(os.listdir(parallel))
    for name in os.listdir(serial):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_propagates_worst_code(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("uniform\nlomax:1\n")
    code, _, _ = run_cli(
        capsys, "sweep", "--dist-list", str(manifest),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_INFINITE_MEAN


# ---------------------------------------------------------------------------
# logging environment hook
# ---------------------------------------------------------------------------


def test_log_env_smoke(capsys, monkeypatch):
    monkeypatch.setenv("LSP_LAB_LOG", "DEBUG")
    code, out, _ = run_cli(capsys, "solve", "--dist", "uniform")
    assert code == EXIT_OK
    assert json.loads(out)["points"] == [0.0, 1.0]


def test_sweep_solves_each_entry_once(capsys, tmp_path, monkeypatch):
    import lsp_lab.solver

    calls = []
    solve = lsp_lab.solver.solve

    def counted(*args, **kwargs):
        calls.append(args[0].spec_string())
        return solve(*args, **kwargs)

    monkeypatch.setattr(lsp_lab.solver, "solve", counted)
    code, _ = _run_sweep(capsys, tmp_path, "out")
    assert code == EXIT_OK
    assert len(calls) == 3


def test_power_law_seed_overflow_exits_not_converging(capsys):
    code, out, err = run_cli(capsys, "solve", "--dist", "lomax:3", "--k-max", "2000")
    assert code == EXIT_NOT_CONVERGING
    assert out == ""
    assert "seed law overflows" in err


def test_death_boundary_exits_not_converging(capsys):
    code, out, err = run_cli(capsys, "solve", "--dist", "compactpower:1.25", "--k-max", "60")
    assert code == EXIT_NOT_CONVERGING
    assert out == ""
    assert "orbits die at dial" in err
    assert "Traceback" not in err
