"""Per-op correctness gate.

Every op the benchmark times is checked here after its pass ends.  Each
check returns a list of problems; an empty list means the op passed.

The stationarity certificate is computed from each family's closed-form
log hazard and cumulative hazard written out below, not from the
package's own density callables or solver internals, so a change that
breaks those cannot also hide the breakage from the gate.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.special import log_ndtr

CERT_TOL = 1e-10        # |H(u_k) - H(u_{k-1}) - log W_k| / max(1, H(u_k))
BISECTION_TOL = 1e-5    # solve's own threshold for the find_x1 cross-check
ORACLE_TOL = 1e-3       # solve's own threshold for the oracle cross-check
IDENTITY_RTOL = 1e-12   # positions against the reference capture
MC_SIGMAS = 4.0


def _params(spec):
    family, _, rest = spec.partition(":")
    return family, [float(t) for t in rest.split(",") if t.strip()]


def _forms(spec):
    """(coordinate, log h(u), H(u)) for a built-in family.

    Half-line families work in u = x; unit-interval families in
    u = L = -log(1 - x), where h = A0 * e^(s L).
    """
    family, p = _params(spec)
    if family == "exponential":
        (lam,) = p
        return "x", lambda x: np.full_like(x, math.log(lam)), lambda x: lam * x
    if family == "stretchedexp":
        a, b = p
        return (
            "x",
            lambda x: math.log(a) + b * np.log(x),
            lambda x: a * np.power(x, 1.0 + b) / (1.0 + b),
        )
    if family == "lomax":
        (a,) = p
        return "x", lambda x: math.log(a) - np.log1p(x), lambda x: a * np.log1p(x)
    if family == "gumbel":
        (a,) = p
        return "x", lambda x: a * x, lambda x: np.expm1(a * x) / a
    if family == "logboundary":
        (c,) = p
        return (
            "x",
            lambda x: np.log(c * np.log(math.e + x)),
            lambda x: c * (math.e + x) * (np.log(math.e + x) - 1.0),
        )
    if family == "lognormal":
        (s,) = p

        def log_h(x):
            z = np.log(x) / s
            log_pdf = -0.5 * z * z - np.log(x * s) - 0.5 * math.log(2.0 * math.pi)
            return log_pdf - log_ndtr(-z)

        return "x", log_h, lambda x: -log_ndtr(-np.log(x) / s)
    if family in ("triangular", "compactpower"):
        c = 2.0 if family == "triangular" else p[0]
        return "L", lambda L: math.log(c) + L, lambda L: c * L
    if family == "compactfast":
        a, b = p
        return (
            "L",
            lambda L: math.log(a) + (1.0 + b) * L,
            lambda L: (a / b) * np.expm1(b * L),
        )
    raise ValueError(f"no closed forms for {spec!r}")


def certificate(spec, points, log_gaps=None) -> float:
    """Worst relative stationarity residual over the interior indices.

    With W_k = (x_k + x_{k+1}) h(x_k) - 1, optimality says
    H(u_k) - H(u_{k-1}) = log W_k.  log W_k is formed as
    q + log(1 - e^-q) with q = log(x_k + x_{k+1}) + log h(u_k), which
    stays exact where h itself would overflow.
    """
    coord, log_h, H = _forms(spec)
    u = np.asarray(log_gaps if coord == "L" else points, dtype=float)
    x = -np.expm1(-u) if coord == "L" else u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.log(x[1:-1] + x[2:]) + log_h(u[1:-1])
        log_w = q + np.log(-np.expm1(-q))
        H_k = H(u[1:-1])
        res = np.abs(H_k - H(u[:-2]) - log_w) / np.maximum(1.0, np.abs(H_k))
    if res.size == 0 or not np.all(np.isfinite(res)):
        return math.inf
    return float(np.max(res))


def position_mismatch(got, ref) -> list:
    """Problems if got differs from ref by more than IDENTITY_RTOL."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{got.size} positions, reference has {ref.size}"]
    same = (got == ref) | (np.abs(got - ref) <= IDENTITY_RTOL * np.abs(ref))
    if np.all(same):
        return []
    k = int(np.argmin(same))
    return [f"position {k} is {got[k]!r}, reference {ref[k]!r}"]


def identity(positions: dict, ref) -> list:
    """Problems if any captured position series differs from the reference."""
    if ref is None:
        return ["no reference capture"]
    problems = []
    for key, ref_vals in ref.items():
        if key not in positions or positions[key] is None:
            problems.append(f"{key} missing")
        else:
            problems += [f"{key}: {m}" for m in position_mismatch(positions[key], ref_vals)]
    return problems


def solve_positions(seq) -> dict:
    out = {"points": [float(t) for t in seq.points]}
    if seq.log_gaps is not None:
        out["log_gaps"] = [float(t) for t in seq.log_gaps]
    return out


def check_solve(spec, k_max, seq, cross_checked) -> list:
    """Shape, monotonicity, stationarity certificate and cross-checks."""
    problems = []
    if seq.terminated and seq.log_gaps is None:
        # terminating compact targets: the whole plan is [0, 1]
        if list(seq.points) != [0.0, 1.0]:
            problems.append("terminating plan is not [0, 1]")
    else:
        if len(seq.points) != k_max + 1:
            problems.append(f"{len(seq.points)} points, expected {k_max + 1}")
        mono = seq.points if seq.log_gaps is None else seq.log_gaps
        if not np.all(np.diff(mono) > 0.0):
            problems.append("sequence is not strictly increasing")
        cert = certificate(spec, seq.points, seq.log_gaps)
        if not cert <= CERT_TOL:
            problems.append(f"stationarity residual {cert:.3e} > {CERT_TOL:g}")
    if cross_checked:
        diag = seq.diagnostics
        errors = [k for k in diag if k.endswith("_error")]
        if errors:
            problems.append("cross-check errors: " + ", ".join(errors))
        for key, tol in (("x1_bisection_reldev", BISECTION_TOL),
                         ("x1_oracle_reldev", ORACLE_TOL)):
            if not diag.get(key, math.inf) <= tol:
                problems.append(f"{key} = {diag.get(key)} exceeds {tol:g}")
    return problems


def check_mc(est, exact, n_samples) -> list:
    problems = []
    sigma = est.half_width_95 / 1.96
    if not abs(est.mean - exact) <= MC_SIGMAS * sigma:
        problems.append(
            f"MC mean {est.mean:.9g} is {abs(est.mean - exact) / sigma:.2f} sigma "
            f"from the exact {exact:.9g}"
        )
    if est.n_rejected != 0:
        problems.append(f"{est.n_rejected} samples rejected")
    if est.n_samples != n_samples:
        problems.append(f"{est.n_samples} samples drawn, asked for {n_samples}")
    return problems


def csv_column(text, name):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("CSV has no data rows")
    return [float(r[name]) for r in rows]


def cli_positions(text, fmt) -> dict:
    """Positions a CLI solve printed, parsed from its JSON or CSV."""
    if fmt == "csv":
        return {"x_k": csv_column(text, "x_k")}
    doc = json.loads(text)
    out = {"points": doc["points"]}
    if "log_gaps" in doc:
        out["log_gaps"] = doc["log_gaps"]
    return out


def parse_output(text, fmt):
    """Parse a CLI output; raises on anything malformed."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2:
            raise ValueError("CSV has no data rows")
        return rows
    return json.loads(text)
