"""One workload in one fresh Python process.

Run by run.py, never directly.  Set-up (interpreter start, `import
lsp_lab`, building the models, and on mc solving the strategies) ends
where the timed body starts; the process reports that instant on the
shared monotonic clock so the parent can measure set-up from its spawn.
The last line of standard output is one JSON object.

Modes:
    setup     set up, report, exit
    run       passes until they add up to --seconds (one pass on solve
              workloads); cli commands run as fresh subprocesses
    baseline  one untraced pass; cli commands run in-process through
              lsp_lab.cli.main with the same argv
    traced    baseline under the layer wrappers
    capture   one run-mode pass gated without the identity check, then
              record its positions and exit codes as the new reference
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "baseline", "traced", "capture"))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    import lsp_lab
    import lsp_lab.cli  # noqa: F401  (cli is not imported by the package itself)

    import workloads

    in_process = args.mode in ("baseline", "traced")
    wl = workloads.Workload(args.workload, lsp_lab, args.seed, args.workdir, in_process)
    body_start = time.monotonic()
    out = {"body_start": body_start}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    from layers import Tracer

    capture = args.mode == "capture"
    refs = ({"solve": {}, "cli": {}} if capture
            else json.loads(REFERENCE.read_text(encoding="utf-8")))
    repeat = args.mode == "run" and args.workload in workloads.REPEATABLE
    rng = random.Random(args.seed)
    tracer = Tracer() if args.mode == "traced" else None
    passes, attempted, failed, problems = [], 0, 0, []

    def gate_op(op, result):
        nonlocal attempted, failed
        attempted += 1
        if isinstance(result, BaseException):
            found = [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                found = op.check(result, None if capture else refs)
                if capture and not found:
                    op.capture(result, refs)
            except Exception as exc:  # a malformed output fails the op, not the run
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        failed += bool(found)
        problems.extend(f"{op.label}: {p}" for p in found)

    while True:
        order = list(wl.ops)
        rng.shuffle(order)
        if tracer:
            tracer.install()
        results = []
        t0 = time.perf_counter()
        for op in order:
            try:
                results.append(op.run(len(passes)))
            except Exception as exc:  # counted as a failed op; the pass goes on
                results.append(exc)
        passes.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        for op, result in zip(order, results):
            gate_op(op, result)
        if not (repeat and sum(passes) < args.seconds):
            break
    for op, result in wl.checks:
        gate_op(op, result)

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.mode == "run" and args.workload == "cli"
        else resource.RUSAGE_SELF
    )
    out.update(
        passes=passes,
        attempted=attempted,
        failed=failed,
        problems=problems,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    if tracer:
        out["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
    if capture:
        out["captured"] = refs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
