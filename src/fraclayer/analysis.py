"""Decay-rate fitting, envelope extraction, finite-difference oracles and a
bracketed root-finder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

import numpy as np

from .errors import NotBracketed, RootNotConverged


@dataclass
class DecayFit:
    """Least-squares power law v ~ exp(log_const) * x^(-exponent)."""

    exponent: float
    log_const: float
    residual: float          # RMS residual in log-log coordinates


def regression_line(lx: np.ndarray, lv: np.ndarray):
    """The least-squares line lv ~ log_const + slope lx, in closed form
    about the centroid, as (slope, log_const, residuals); no checks."""
    mx, mv = lx.mean(), lv.mean()
    dx, dv = lx - mx, lv - mv
    slope = float(dx @ dv) / float(dx @ dx)
    return slope, float(mv - slope * mx), dv - slope * dx


def fit_power_decay(samples: Sequence[tuple[float, float]] | np.ndarray,
                    log_values: bool = False,
                    min_decades: float = 1.0) -> DecayFit:
    """Fit (x, v) samples with v > 0, x > 0 by regression on (ln x, ln v).

    With log_values=True the second column is taken as ln v directly, which
    lets callers pass values far below the double underflow threshold.
    Requires >= 4 samples spanning at least min_decades decades in x
    (default one decade; truncated-grid tail fits pass a smaller span).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array-like")
    x, v = arr[:, 0], arr[:, 1]
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    if not log_values and np.any(v <= 0):
        raise ValueError("values must be positive")
    if len(x) < 4:
        raise ValueError("need at least 4 samples")
    lx = np.log(x)
    lv = v if log_values else np.log(v)
    if lx.max() - lx.min() < min_decades * np.log(10.0):
        raise ValueError(f"samples must span at least {min_decades} decades")
    slope, log_const, resid = regression_line(lx, lv)
    return DecayFit(exponent=-slope, log_const=log_const,
                    residual=float(np.sqrt(np.mean(resid ** 2))))


ENVELOPE_WINDOW_DECADES = 0.5   # width of the sliding extremum windows


def envelope_exponents(samples, trend: str) -> DecayFit:
    """Power-law fit of the upper or lower envelope of oscillatory decay data.

    samples holds (x, ln v) pairs: log values reach below the double
    underflow threshold. A pilot plain fit gives exponent p0; the extrema of
    v * x^p0 over sliding windows ENVELOPE_WINDOW_DECADES wide in x are
    extracted and the extremal subsequence refit. One fixed-point refinement
    of the pilot is applied (extrema locations barely move for small pilot
    error).
    """
    if trend not in ("upper", "lower"):
        raise ValueError("trend must be 'upper' or 'lower'")
    arr = np.asarray(samples, dtype=float)
    order = np.argsort(arr[:, 0])
    x = arr[order, 0]
    lv = arr[order, 1]
    if len(x) < 16:
        raise ValueError("need log-dense samples (>= 16)")
    lx = np.log(x)
    span = lx.max() - lx.min()
    if span < np.log(10.0):
        raise ValueError("samples must span at least one decade")
    density = len(x) / (span / np.log(10.0))
    if density < 8:
        raise ValueError("need >= 8 samples per decade")

    pilot = fit_power_decay(np.column_stack([x, lv]), log_values=True)
    p0 = pilot.exponent
    for _ in range(2):
        sel = _window_extrema(lx, lv + p0 * lx, trend)
        if len(sel) < 2:
            raise ValueError("fewer than 2 envelope extrema found")
        if len(sel) >= 4 and lx[sel].max() - lx[sel].min() >= np.log(10.0):
            fit = fit_power_decay(np.column_stack([x[sel], lv[sel]]),
                                  log_values=True)
        else:
            # few extrema: slope through first/last extremum
            slope = (lv[sel[-1]] - lv[sel[0]]) / (lx[sel[-1]] - lx[sel[0]])
            fit = DecayFit(exponent=-slope,
                           log_const=float(lv[sel[0]] + slope * (-lx[sel[0]])),
                           residual=0.0)
        p0 = fit.exponent
    return fit


def _window_extrema(lx, lw, trend):
    """Indices of per-window extrema of lw over sliding log-windows."""
    width = ENVELOPE_WINDOW_DECADES * np.log(10.0)
    edges = np.arange(lx.min(), lx.max() + width, width)
    picks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (lx >= lo) & (lx < hi)
        if not np.any(mask):
            continue
        idx = np.nonzero(mask)[0]
        j = idx[np.argmax(lw[idx])] if trend == "upper" else idx[np.argmin(lw[idx])]
        picks.append(j)
    picks = sorted(set(picks))
    if trend == "upper":
        keep = [j for j in picks if lw[j] >= np.max(lw) - 0.5 * np.ptp(lw)]
    else:
        keep = [j for j in picks if lw[j] <= np.min(lw) + 0.5 * np.ptp(lw)]
    return np.asarray(keep if len(keep) >= 2 else picks, dtype=int)


_STENCILS = {
    1: ({-1: -0.5, 1: 0.5}, 1),
    2: ({-1: 1.0, 0: -2.0, 1: 1.0}, 2),
    3: ({-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}, 3),
    4: ({-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}, 4),
}


def _libm_pow(h: np.ndarray, p: int) -> np.ndarray:
    """h ** p elementwise as Python floats take it, through the C library's
    pow: numpy's power rounds some of these values differently."""
    return np.reshape([v ** p for v in h.ravel().tolist()], h.shape)


def fd_derivative(f: Callable, x, order: int, h0):
    """Central-difference derivative with two-level Richardson extrapolation,
    elementwise over x.

    x and the step h0 are floats or arrays that broadcast together. f must
    be vectorized: it is called once, on an array stacking x and every
    stencil point of the three levels h0, h0/2, h0/4, and each level is
    summed in stencil order, so each element is computed exactly as a
    scalar call at that point would compute it.

    Returns (value, error_estimate), of the broadcast shape (scalars for
    scalar input). The estimate combines the difference of the two
    extrapolation levels (truncation) with the rounding floor of the finest
    stencil, so it bounds the true error on polynomials up to degree 6 up to
    rounding.
    """
    if order not in _STENCILS:
        raise ValueError("order must be 1..4")
    stencil, p = _STENCILS[order]
    x, h0 = np.broadcast_arrays(np.asarray(x, dtype=float),
                                np.asarray(h0, dtype=float))
    hs = (h0, h0 / 2.0, h0 / 4.0)
    vals = f(np.stack([x] + [x + k * h for h in hs for k in stencil]))
    fx, levels = vals[0], vals[1:].reshape((3, len(stencil)) + x.shape)
    scales = [_libm_pow(h, p) for h in hs]
    d1, d2, d3 = (sum(c * fk for c, fk in zip(stencil.values(), fv)) / sc
                  for sc, fv in zip(scales, levels))
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    r = (16.0 * r2 - r1) / 15.0
    coeff_mass = sum(abs(c) for c in stencil.values())
    eps = np.finfo(float).eps
    floor = 8.0 * eps * coeff_mass * np.abs(fx) / scales[2]
    est = np.abs(r - r2) + floor + eps * np.abs(r)
    return r[()], est[()]


BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAXITER = 100


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float = 2e-12, fa: float | None = None,
               fb: float | None = None) -> float:
    """Root of f on the sign-changing bracket [a, b] by Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4), to within xtol + 4 eps |root|.

    An iteration-for-iteration port of the C core of scipy.optimize.brentq
    at its default rtol = 4 eps and 100 iterations, in Python floats, so it
    returns the same roots bit for bit. Passing the known end values
    fa = f(a) and fb = f(b) saves those two calls. A value of exactly 0.0
    ends the search at that point, so f may signal convergence that way.
    Raises NotBracketed when f(a) and f(b) share a sign, RootNotConverged
    after 100 steps without convergence or at a NaN value of f.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise RootNotConverged(f"f is NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = call(xpre) if fa is None else float(fa)
    fcur = call(xcur) if fb is None else float(fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NotBracketed(f"f({xpre!r}) = {fpre!r} and f({xcur!r}) = "
                           f"{fcur!r} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        # [xcur, xblk] brackets the root, xcur has the smaller |f|, and
        # xpre is the previous iterate
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf      # bisect unless interpolation is taken
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic; a zero denominator (inf in C) bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise RootNotConverged(f"no convergence in {BRENT_MAXITER} iterations "
                           f"on [{a!r}, {b!r}] (last x={xcur!r})")
