"""The package's three numerical kernels, so that it imports without scipy.

brentq is Brent's method (Algorithms for Minimization without
Derivatives, 1973) step for step as scipy's Zeros/brentq.c writes it;
solve_tridiagonal is LAPACK's dgtsv.  Both are bitwise scipy's answers.
quad, adaptive Gauss-Kronrod on QUADPACK's qk21 rule over arrays, serves the
index law, survival moments and custom() cumulative hazards.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

# qk21 on [-1, 1] as scipy's integrate/_quad_vec.py tabulates it, in shortest
# decimals of the same doubles: the positive nodes from 1 inwards, their Kronrod
# weights and that of 0, and the Gauss weights of the odd-numbered nodes.
_GK_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
         0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
         0.2943928627014602, 0.14887433898163122)
_GK_V = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
         0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
         0.14277593857706009, 0.14773910490133849)
_GK_W = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
         0.26926671930999635, 0.29552422471475287)
_NODES = np.array(_GK_X + (0.0,) + tuple(-t for t in reversed(_GK_X)))
_KRONROD = np.array(_GK_V + (0.1494455540029169,) + _GK_V[::-1])
_GAUSS = np.array(_GK_W + _GK_W[::-1])  # on _NODES[1::2]


def quad(f, a, b):
    """The integral of f over [a, b], f mapping a 1-D array of nodes to values.

    Each round calls f once, on the 21 nodes of every open interval.  It
    stops once the |K21 - G10| of all intervals sum to 1e-12 of I, the
    running integral of |f|; otherwise it keeps each interval within half
    that times its share (its own part of I plus its width's part) and
    halves the rest.  Raises DomainError where f is not finite, and
    ConvergenceError past 4000 evaluated intervals or 200 rounds.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    total, total_abs, total_err, spent = 0.0, 0.0, 0.0, 0
    for _ in range(200):  # deep enough for an x^-0.75 singularity at an end
        spent += lo.size
        if spent > 4000:
            break
        half = 0.5 * (hi - lo)
        mid = lo + half
        nodes = mid[:, None] + half[:, None] * _NODES
        y = np.reshape(np.asarray(f(nodes.ravel()), dtype=float), nodes.shape)
        if not np.all(np.isfinite(y)):
            raise DomainError(f"integrand is not finite on [{a:g}, {b:g}]")
        k = half * (y @ _KRONROD)
        k_abs = np.abs(half) * (np.abs(y) @ _KRONROD)
        err = np.abs(k - half * (y[:, 1::2] @ _GAUSS))
        scale = total_abs + k_abs.sum()
        if total_err + err.sum() <= 1e-12 * scale:
            return float(total + k.sum())
        done = err <= 0.5e-12 * (k_abs + scale * (hi - lo) / (b - a))
        total, total_abs = total + k[done].sum(), total_abs + k_abs[done].sum()
        total_err += err[done].sum()
        lo, hi = np.concatenate([lo[~done], mid[~done]]), np.concatenate([mid[~done], hi[~done]])
    raise ConvergenceError(f"quadrature on [{a:g}, {b:g}] exceeds 4000 intervals or 200 rounds")


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """A root of f in [a, b] to within xtol + rtol*|x|.  Like scipy's, raises
    ValueError when f(a) and f(b) share a sign or f returns NaN, and
    RuntimeError after maxiter steps."""

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero denominator (the slopes' product can underflow) is
                # an infinite step in scipy's C, which then bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def solve_tridiagonal(lower, diag, upper, rhs):
    """x with A x = rhs, where A[i+1, i], A[i, i] and A[i, i+1] are
    lower[i], diag[i] and upper[i]; None if A is singular or not finite."""
    if not all(np.isfinite(v).all() for v in (lower, diag, upper, rhs)):
        return None
    dl, d, du, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                return None
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i+1
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        return None
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)
