"""Command-line front end: solve, predict, verify, and sweep.

Outputs are files (JSON or CSV); reruns with identical flags and seed
are byte-identical.  Exit codes are a CI contract: 0 success or a
converging verdict, 1 inconclusive/diverging, 2 usage or parse errors,
3 infinite-mean models that admit no finite-time plan.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import asymptotics, density_kit, solver
from . import verify as verify_mod
from .errors import (
    ConvergenceError,
    DomainError,
    InfiniteMeanError,
    LspLabError,
    NotApplicableError,
)

log = logging.getLogger("lsp_lab")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NOT_CONVERGING = 1
EXIT_USAGE = 2
EXIT_INFINITE_MEAN = 3

_LAW_CHOICES = (
    asymptotics.LAW_INCREMENT,
    asymptotics.LAW_INDEX_INTEGRAL,
    asymptotics.LAW_CLOSED_FORM,
    asymptotics.LAW_PARETO_RATE,
    asymptotics.LAW_COMPACT_RESIDUAL,
)


@dataclass
class RunConfig:
    command: str
    dist: Optional[str] = None
    k_max: int = 60
    horizon_n: Optional[int] = None
    seed: int = 0
    samples: Optional[int] = None
    law: Optional[str] = None
    window: Optional[Tuple[int, int]] = None
    out_path: Optional[str] = None
    format: str = "json"
    jobs: int = 1
    dist_list: Optional[str] = None

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise DomainError("k-max must be at least 1")
        if self.format not in ("json", "csv"):
            raise DomainError("format must be json or csv")


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _clean(obj):
    """Non-finite floats have no JSON encoding; map them to null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _render_json(payload: dict) -> str:
    return json.dumps(_clean(payload), indent=2, sort_keys=True) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return repr(v) if math.isfinite(v) else ""
    return str(v)


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _write_out(text: str, out_path: Optional[str]) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    log.info("wrote %s", out_path)


def _emit(payload: dict, header, rows, cfg: RunConfig) -> None:
    if cfg.format == "json":
        _write_out(_render_json(payload), cfg.out_path)
    else:
        _write_out(_render_csv(header, rows), cfg.out_path)


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def _sequence_csv(model, seq) -> Tuple[list, list]:
    header = ["k", "x_k", "delta_k", "residual_k"]
    pts = seq.points
    res = (
        solver.recurrence_residual(model, seq)
        if len(pts) >= 3
        else np.array([])
    )
    rows = []
    for k in range(len(pts)):
        delta = pts[k] - pts[k - 1] if k >= 1 else None
        interior = 1 <= k <= len(pts) - 2
        r = float(res[k - 1]) if interior and res.size else None
        rows.append((k, float(pts[k]), delta, r))
    return header, rows


def _cmd_solve(cfg: RunConfig) -> int:
    model = density_kit.parse_spec(cfg.dist)
    sconf = solver.SolverConfig(k_max=cfg.k_max)
    if cfg.horizon_n is not None:
        seq = solver.finite_horizon_optimize(model, cfg.horizon_n, sconf)
    else:
        seq = solver.solve(model, sconf)
    return _render_solve(model, seq, cfg)


def _render_solve(model, seq, cfg: RunConfig) -> int:
    """Write a solved sequence; cfg.samples attaches a Monte Carlo estimate."""
    payload = {"schema": SCHEMA_VERSION, **seq.to_dict()}
    if cfg.samples:
        est = verify_mod.expected_search_time_mc(
            model, seq, cfg.samples, cfg.seed, n_jobs=cfg.jobs
        )
        obj = verify_mod.objective_value(model, seq)
        payload["mc"] = {
            "mean": est.mean,
            "half_width_95": est.half_width_95,
            "n_samples": est.n_samples,
            "seed": est.seed,
            "n_rejected": est.n_rejected,
        }
        payload["expected_time"] = {
            "first_abs_moment": density_kit.first_abs_moment(model),
            "objective": obj.value,
            "objective_tail_bound": obj.tail_bound,
        }
    header, rows = _sequence_csv(model, seq)
    _emit(payload, header, rows, cfg)
    return EXIT_OK


def _increment_ks(model, seq, k_hi: int) -> list:
    pts = seq.points
    xh = 2.0 * pts * np.asarray(model.hazard(pts))
    return [
        k
        for k in range(1, min(k_hi, len(pts) - 1) + 1)
        if math.isfinite(xh[k]) and xh[k] > 1.0
    ]


def _prediction_for(model, law: str, cfg: RunConfig, seq=None):
    needs_seq = law in (asymptotics.LAW_INCREMENT, asymptotics.LAW_COMPACT_RESIDUAL)
    if needs_seq and seq is None:
        seq = solver.solve(model, solver.SolverConfig(k_max=cfg.k_max))
    if law == asymptotics.LAW_INCREMENT:
        ks = _increment_ks(model, seq, cfg.k_max)
    elif law == asymptotics.LAW_COMPACT_RESIDUAL:
        ks = list(range(1, min(cfg.k_max, len(seq.points) - 2) + 1))
    else:
        ks = list(range(2, cfg.k_max + 1))
    return asymptotics.predict_sequence(model, law, ks, sequence=seq)


def _cmd_predict(cfg: RunConfig) -> int:
    model = density_kit.parse_spec(cfg.dist)
    return _render_predict(_prediction_for(model, cfg.law, cfg), cfg)


def _render_predict(pred, cfg: RunConfig) -> int:
    payload = {"schema": SCHEMA_VERSION, **pred.to_dict()}
    header = ["k", "predicted"]
    rows = [(k, pred.values[k]) for k in sorted(pred.values)]
    _emit(payload, header, rows, cfg)
    return EXIT_OK


_DEFAULT_LAW = {
    density_kit.SUB_LOG: asymptotics.LAW_INCREMENT,
    density_kit.LOG_BOUNDARY: asymptotics.LAW_INCREMENT,
    density_kit.SUPER_LOG: asymptotics.LAW_INCREMENT,
    density_kit.POWER_LAW: asymptotics.LAW_PARETO_RATE,
    density_kit.COMPACT_POWER_LAW: asymptotics.LAW_COMPACT_RESIDUAL,
    density_kit.COMPACT_RV: asymptotics.LAW_CLOSED_FORM,
}


def _default_law(tail) -> str:
    law = _DEFAULT_LAW.get(tail.kind)
    if law is None:
        raise NotApplicableError(
            f"no asymptotic law to verify for class {tail.kind!r}"
        )
    return law


def _cmd_verify(cfg: RunConfig) -> int:
    model = density_kit.parse_spec(cfg.dist)
    seq = solver.solve(model, solver.SolverConfig(k_max=cfg.k_max))
    law = cfg.law or _default_law(density_kit.classify_tail(model))
    return _render_verify(_verify_report(model, seq, law, cfg.window), cfg)


def _verify_report(model, seq, law: str, window: Tuple[int, int]):
    lo, hi = window
    ks = list(range(lo, hi + 1))
    pred = asymptotics.predict_sequence(model, law, ks, sequence=seq)
    return verify_mod.compare(seq, pred, window)


def _render_verify(report, cfg: RunConfig) -> int:
    payload = {"schema": SCHEMA_VERSION, **report.to_dict()}
    header = ["k", "numeric", "predicted", "ratio"]
    rows = [(k, n, p, r) for (k, n, p, r) in report.rows]
    _emit(payload, header, rows, cfg)
    log.info("verdict for %s under %s: %s", report.model_id, report.law, report.verdict)
    return EXIT_OK if report.verdict == verify_mod.VERDICT_CONVERGING else EXIT_NOT_CONVERGING


def _slug(dist: str) -> str:
    return dist.strip().replace(":", "-").replace(",", "_").replace(".", "p")


def _default_window(seq, law: str) -> Tuple[int, int]:
    # ratio laws read one slot ahead, so stop one short of the end
    hi = len(seq.points) - 2
    lo = max(2, hi // 2)
    return lo, hi


def _sweep_entry(dist: str, cfg: RunConfig, out_dir: str) -> int:
    base = os.path.join(out_dir, _slug(dist))

    def to(step: str) -> RunConfig:
        return replace(cfg, out_path=f"{base}.{step}.{cfg.format}")

    try:
        model = density_kit.parse_spec(dist)
        seq = solver.solve(model, solver.SolverConfig(k_max=cfg.k_max))
        _render_solve(model, seq, to("solve"))
        try:
            law = cfg.law or _default_law(density_kit.classify_tail(model))
        except NotApplicableError:
            log.info("%s: terminating class, nothing to predict", dist)
            return EXIT_OK
        _render_predict(_prediction_for(model, law, cfg, seq=seq), to("predict"))
        window = cfg.window or _default_window(seq, law)
        return _render_verify(_verify_report(model, seq, law, window), to("verify"))
    except LspLabError as exc:
        log.error("%s: %s", dist, exc)
        return _exit_code(exc)


def _cmd_sweep(cfg: RunConfig) -> int:
    with open(cfg.dist_list, "r", encoding="utf-8") as fh:
        entries = [
            line.strip()
            for line in fh
            if line.strip() and not line.strip().startswith("#")
        ]
    if not entries:
        raise DomainError(f"manifest {cfg.dist_list!r} lists no densities")
    out_dir = cfg.out_path or "sweep-out"
    os.makedirs(out_dir, exist_ok=True)
    codes = [_sweep_entry(d, cfg, out_dir) for d in entries]
    # report the most severe per-entry status
    return max(codes)


# ---------------------------------------------------------------------------
# Argument handling.
# ---------------------------------------------------------------------------


def _window_arg(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like A:B")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("window bounds must be integers") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsp-lab",
        description="Optimal zigzag search plans and their asymptotic laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--out", dest="out_path", default=None,
                           help="output path ('-' or omitted: stdout)")
    io_parent.add_argument("--format", choices=("json", "csv"), default="json")

    dist_parent = argparse.ArgumentParser(add_help=False)
    dist_parent.add_argument("--dist", required=True,
                             help="density spec, e.g. lomax:3 or compactfast:1,1")
    dist_parent.add_argument("--k-max", type=int, default=60, dest="k_max")

    p_solve = sub.add_parser("solve", parents=[dist_parent, io_parent],
                             help="compute an optimal turning-point sequence")
    p_solve.add_argument("--horizon-n", type=int, default=None, dest="horizon_n",
                         help="use the finite-horizon direct optimizer instead")
    p_solve.add_argument("--samples", type=int, default=None,
                         help="attach a Monte-Carlo expected-time estimate")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; Monte Carlo runs serially")

    p_pred = sub.add_parser("predict", parents=[dist_parent, io_parent],
                            help="evaluate an asymptotic law")
    p_pred.add_argument("--law", required=True, choices=_LAW_CHOICES)

    p_ver = sub.add_parser("verify", parents=[dist_parent, io_parent],
                           help="compare solver output against a law")
    p_ver.add_argument("--law", default=None, choices=_LAW_CHOICES,
                       help="defaults to the natural law for the tail class")
    p_ver.add_argument("--window", required=True, type=_window_arg,
                       help="inclusive index window A:B")

    p_sweep = sub.add_parser("sweep", parents=[io_parent],
                             help="run solve/predict/verify over a manifest")
    p_sweep.add_argument("--dist-list", required=True, dest="dist_list",
                         help="file with one density spec per line, # comments")
    p_sweep.add_argument("--k-max", type=int, default=60, dest="k_max")
    p_sweep.add_argument("--law", default=None, choices=_LAW_CHOICES)
    p_sweep.add_argument("--window", default=None, type=_window_arg)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; entries run serially")
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "predict": _cmd_predict,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _exit_code(exc: Exception) -> int:
    """The documented exit code for an error that ends a command."""
    if isinstance(exc, InfiniteMeanError):
        return EXIT_INFINITE_MEAN
    if isinstance(exc, ConvergenceError):
        return EXIT_NOT_CONVERGING
    return EXIT_USAGE


def main(argv=None) -> int:
    level_name = os.environ.get("LSP_LAB_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    fields = {
        k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__
    }
    try:
        cfg = RunConfig(**fields)
        return _COMMANDS[cfg.command](cfg)
    except (LspLabError, OSError) as exc:
        print(f"lsp-lab: {exc}", file=sys.stderr)
        code = _exit_code(exc)
        if code == EXIT_USAGE:
            parser.print_usage(sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
