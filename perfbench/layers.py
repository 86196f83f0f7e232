"""Outside-in tracing: wrap layer functions by module attribute.

Nothing under src/ changes.  Functions are replaced on their module (or,
for DensityModel methods, on the class), so only calls that look the name
up at call time are seen.  Names imported into lsp_lab/__init__.py were
bound at import and bypass the wrappers; the benchmark therefore calls
through module attributes such as lsp_lab.solver.solve.

Each wrapper records the call count, the self time (its duration minus
that of wrapped calls made inside it on the same thread) and the
inclusive time of its outermost calls, in total and inside solve.  Spans are kept per thread, so
chunks run by a thread pool are roots of their own, and the caller that
waits for them counts the wait as self time.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter

# (metric prefix, module name under lsp_lab, attribute, owning class or None)
LAYERS = (
    ("asymptotics.invert_index", "asymptotics", "invert_index", None),
    ("asymptotics.index_integral", "asymptotics", "index_integral", None),
    ("asymptotics.default_x_low", "asymptotics", "default_x_low", None),
    ("asymptotics.predict_sequence", "asymptotics", "predict_sequence", None),
    ("density_kit.hazard", "density_kit", "hazard", "DensityModel"),
    ("density_kit.survival", "density_kit", "survival", "DensityModel"),
    ("density_kit.pdf", "density_kit", "pdf", "DensityModel"),
    ("density_kit.modulus_quantile", "density_kit", "modulus_quantile", "DensityModel"),
    ("solver.solve", "solver", "solve", None),
    ("solver.find_x1", "solver", "find_x1", None),
    ("solver.finite_horizon_optimize", "solver", "finite_horizon_optimize", None),
    ("solver.shoot_forward", "solver", "shoot_forward", None),
    ("solver._orbit", "solver", "_orbit", None),
    ("verify._mc_chunk", "verify", "_mc_chunk", None),
    ("verify.expected_search_time_mc", "verify", "expected_search_time_mc", None),
    ("verify.objective_value", "verify", "objective_value", None),
    ("verify.compare", "verify", "compare", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Installs the wrappers, accumulates spans, and restores the originals."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.in_solve_s = defaultdict(float)  # inclusive time of calls made inside solve
        self.landed = 0          # _orbit passes that returned a landing residual
        self.samples = 0         # samples drawn by _mc_chunk
        self.rejected = 0        # of those, targets beyond the strategy's reach
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def install(self):
        for name, module, attr, cls in LAYERS:
            owner = importlib.import_module(f"lsp_lab.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, orig))
            self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _on_result(self, name, res):
        if name == "solver._orbit":
            if res[0] is not None:
                self.landed += 1
        elif name == "verify._mc_chunk":
            self.samples += int(res[2] + res[3])
            self.rejected += int(res[3])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            outermost = all(frame[0] != name for frame in stack)
            in_solve = any(frame[0] == "solver.solve" for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += dt - frame[1]
                    if outermost:
                        self.total_s[name] += dt
                        if in_solve:
                            self.in_solve_s[name] += dt
            with self._lock:
                self._on_result(name, res)
            return res

        return wrapper

    def metrics(self) -> dict:
        """The per-layer metrics this tracer can give, as {name: (value, unit)}."""
        out = {}
        for name, _, _, _ in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")

        def share(num, den):
            return num / den if den > 0 else 0.0

        # shares of solve time: predict also calls invert_index outside solve
        solve_s = self.total_s["solver.solve"]
        inside = self.in_solve_s
        out["solver.seed_share"] = (share(inside["asymptotics.invert_index"], solve_s), "1")
        out["solver.crosscheck_share"] = (
            share(inside["solver.find_x1"] + inside["solver.finite_horizon_optimize"], solve_s),
            "1",
        )
        out["solver._orbit.landed_frac"] = (share(self.landed, self.calls["solver._orbit"]), "1")
        out["verify.quantile_share"] = (
            share(self.total_s["density_kit.modulus_quantile"], self.total_s["verify._mc_chunk"]),
            "1",
        )
        out["verify.mc_rejected_frac"] = (share(self.rejected, self.samples), "1")
        out["verify.mc_msamples_per_s"] = (
            share(self.samples / 1e6, self.total_s["verify.expected_search_time_mc"]),
            "Msamples/s",
        )
        return out
