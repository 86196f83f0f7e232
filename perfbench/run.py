#!/usr/bin/env python3
"""lsp-lab benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --capture

Run from the root of a source tree; the package is imported from src/.
Each workload runs in fresh Python processes started one at a time (see
worker.py), and every op is gated (gate.py) in every run.  The last line
of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics:
    setup_s      median over at least SETUPS fresh processes of the time
                 from spawn to the start of the timed body
    wall_s       median wall time of one serial pass over the workload's
                 ops, over passes that add up to --seconds
    peak_rss_mb  largest ru_maxrss of the measuring processes; on cli the
                 largest over their command subprocesses

--trace 1 runs one untraced and one traced pass, each in its own fresh
process, and reports the per-layer metrics of layers.py plus
cli.import_s (a fresh `import lsp_lab` less a bare interpreter start)
and trace.overhead_frac (traced pass over untraced pass, minus 1).

--capture solves every workload's ops once at the current commit, gates
them without the identity check, and writes reference.json: the
positions later runs must reproduce to 1e-12 relative, and the CLI exit
codes and outputs they must match.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-seedlaw", "solve-crosscheck", "mc", "cli")
SETUPS = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _env():
    # the only threads a workload may start are the package's own n_jobs=2 pools
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(workload, seed, seconds, mode, workdir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} did not finish in {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited with code {proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["body_start"] - t0
    for p in res.get("problems", [])[:20]:
        print(f"FAILED {workload}: {p}", file=sys.stderr)
    return res


def _import_s(n=5):
    """Median fresh `import lsp_lab` less the median bare interpreter start."""
    bare, full = [], []
    for _ in range(n):
        for code, acc in (("pass", bare), ("import lsp_lab", full)):
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), check=True)
            acc.append(time.monotonic() - t0)
    return statistics.median(full) - statistics.median(bare)


def _measure(workload, seed, seconds, workdir):
    """Fresh processes until their passes add up to `seconds`, then set-ups.

    Solve workloads run one pass per process, since a second pass would
    repeat solve inputs; mc and cli repeat passes inside the process.
    """
    passes, setups, rss, attempted, failed = [], [], 0.0, 0, 0
    while not passes or sum(passes) < seconds:
        # each process gets its own seed: its own op order and Philox keys
        res = _spawn(workload, seed + len(setups), seconds - sum(passes), "run", workdir)
        passes += res["passes"]
        setups.append(res["setup_s"])
        rss = max(rss, res["rss_mb"])
        attempted += res["attempted"]
        failed += res["failed"]
    while len(setups) < SETUPS:
        setups.append(_spawn(workload, seed, seconds, "setup", workdir)["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return attempted, failed, metrics


def _trace(workload, seed, seconds, workdir):
    base = _spawn(workload, seed, seconds, "baseline", workdir)
    traced = _spawn(workload, seed, seconds, "traced", workdir)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["cli.import_s"] = (_import_s(), "s")
    metrics["trace.overhead_frac"] = (traced["passes"][0] / base["passes"][0] - 1.0, "1")
    return (base["attempted"] + traced["attempted"],
            base["failed"] + traced["failed"], metrics)


def _capture(workdir):
    refs = {"solve": {}, "cli": {}}
    for wl in WORKLOADS:
        res = _spawn(wl, 0, 0, "capture", workdir)
        if res["failed"]:
            raise BenchError(f"{wl}: {res['failed']} ops fail the gate; nothing captured")
        for section, entries in res["captured"].items():
            for key, val in entries.items():
                if refs[section].setdefault(key, val) != val:
                    raise BenchError(f"{key}: two workloads disagree on its positions")
    (HERE / "reference.json").write_text(
        json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'reference.json'}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture", action="store_true")
    args = ap.parse_args()
    if not args.capture and args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "lsp_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full source tree",
              file=sys.stderr)
        return 2

    # the build step: byte-compile once, so no run pays compilation in set-up
    compileall.compile_dir(str(SRC), quiet=1)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.capture:
            _capture(workdir)
            return 0
        measure = _trace if args.trace else _measure
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
