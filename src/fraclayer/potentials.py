"""Degenerate, possibly oscillatory double-well potentials with wells at -1, +1.

Both modes pin the second derivative near the wells and recover W', W by
integrating twice from the well with zero data:

  pure-power    W''(t) = c1 (1+t)^(alpha-2)   near -1   (alpha = beta forced)
                W''(t) = c3 (1-t)^(gamma-2)   near +1   (gamma = delta forced)

  oscillatory   W''(t) = (1+t)^(p(t)-2),  p(t) = (a+b)/2 + (a-b)/2 sin(ln(1+t))
                and mirrored with (gamma, delta) near +1.

In oscillatory mode beta <= p(t) <= alpha, and since 0 < 1+t < 1 the two-sided
power envelope holds with unit constants. Its two integrations are tabulated
once, at construction, on panels in y = ln(gap): each panel stores the
Chebyshev series of the integral of its 16-node interpolant, so W' and W cost
one Clenshaw sum per point. Their error is that interpolation's, which grows
with the 16th power of the panel's width times the integrand's log-slope,
about alpha + (alpha - beta)/2 |y|: the exponent swings by (alpha - beta)/2 |y|
over each period. Panels are therefore at most 0.4 wide and narrow where
that slope is large. Against mpmath at 40 gaps in 1e-12..mu the error is at
most 7e-14 relative for the (4.5, 4.0) and (5.8, 5.0 | 5.5, 5.0) wells and
for spread 0.94 at base 2.2 (3.1405, 2.2 | 6.94, 6.0).

The middle region is a degree-5 bridge matching value and two derivatives at
both junctions, verified positive by dense sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebvander
from numpy.polynomial.legendre import legint, legvander

from .errors import BridgeNotPositive, DegenerateOscillation
from .jets import hermite_bridge
from .panels import gauss_rule
from .reports import SIDE_LABEL, CheckRecord

MODES = ("pure-power", "oscillatory")


@dataclass(frozen=True)
class WellParams:
    alpha: float
    beta: float
    gamma: float
    delta: float
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    mu: float = 0.5
    mode: str = "pure-power"

    def __post_init__(self):
        if not (self.alpha >= self.beta >= 2 and self.gamma >= self.delta >= 2):
            raise ValueError("need alpha >= beta >= 2 and gamma >= delta >= 2")
        if not (0 < self.c1 <= self.c2 and 0 < self.c3 <= self.c4):
            raise ValueError("need 0 < c1 <= c2 and 0 < c3 <= c4")
        if not 0 < self.mu < 1:
            raise ValueError("mu must be in (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "pure-power":
            if self.alpha != self.beta or self.gamma != self.delta:
                raise ValueError("pure-power mode forces alpha=beta, gamma=delta")
        else:
            if self.beta <= 2 or self.delta <= 2:
                raise DegenerateOscillation(
                    "oscillatory mode needs beta > 2 and delta > 2")
            if not all(c == 1.0 for c in (self.c1, self.c2, self.c3, self.c4)):
                raise ValueError("oscillatory mode realizes unit constants")

    def side(self, s: int) -> tuple[float, float, float, float]:
        """(g, d, c_lo, c_hi) of the well at s = +/-1: with v = 1 - s t,
        c_lo v^(g-2) <= W''(t) <= c_hi v^(d-2) near it. The well at -1 has
        (alpha, beta, c1, c2), the one at +1 (gamma, delta, c3, c4)."""
        if s > 0:
            return self.gamma, self.delta, self.c3, self.c4
        return self.alpha, self.beta, self.c1, self.c2


class _LogAxisCumulative:
    """Cumulative integral of f(e^y) e^y dy on a graded panel ladder, tabulated.

    The caller bounds the integrand's log-slope, |d/dy ln(f(e^y) e^y)| <=
    rate + swing |y|. Each panel is at most 0.4 wide in y, narrow enough to
    resolve the log-periodic oscillation of the well exponents, and at most
    SPAN / (rate + swing |y|) wide at its upper edge, so that the integrand
    changes by a bounded factor across it. At construction the integrand is
    sampled once at each panel's 16 Gauss-Legendre nodes; the whole-panel
    sums `cum` come from that rule, and each panel keeps the Chebyshev
    series P_j of the antiderivative of its degree-15 interpolant, zero at
    the panel's lower edge: the discrete Legendre transform gives its
    Legendre series, and one (NODES + 1)^2 matrix turns those into
    Chebyshev series for all panels. A call costs one `searchsorted` and
    one Clenshaw sum of three operations a term per point, J(y) = below +
    cum[j] + P_j(xi), and never calls f. The rule is interpolatory, so P_j
    at the upper edge is the rule's panel sum; the only error beyond
    rounding is that of interpolating f on 16 nodes over a panel, which
    grows like the 16th power of the log-slope times the panel's width.
    Below the ladder the integral is the pure-power envelope's.
    """

    NODES = 16
    WIDTH = 0.4
    SPAN = 4.0

    def __init__(self, f: Callable, y_min: float, y_max: float,
                 decay: float, rate: float, swing: float):
        self.decay = decay
        edges = [y_max]
        while edges[-1] > y_min:
            y = edges[-1]
            edges.append(y - min(self.WIDTH,
                                 self.SPAN / (rate + swing * abs(y))))
        self.edges = np.array(edges[::-1])
        n = len(self.edges) - 1
        t, w = gauss_rule(self.NODES)
        half = 0.5 * np.diff(self.edges)
        y = 0.5 * (self.edges[:-1] + self.edges[1:])[:, None] + half[:, None] * t
        vals = f(np.exp(y)) * np.exp(y)
        self.cum = np.concatenate([[0.0], np.cumsum(vals @ w * half)])
        # interpolant coefficients by the discrete Legendre transform, which
        # the rule makes exact at degree <= 15; antiderivative in y
        coef = (vals * w) @ legvander(t, self.NODES - 1) \
            * (np.arange(self.NODES) + 0.5)
        anti = legint(coef, lbnd=-1, axis=1) * half[:, None]
        # the same polynomials as Chebyshev series, whose Clenshaw step costs
        # three array operations to legval's five: one conversion matrix
        # from the two Vandermonde matrices at NODES + 1 Chebyshev points
        xc = chebpts1(self.NODES + 1)
        to_cheb = np.linalg.solve(chebvander(xc, self.NODES),
                                  legvander(xc, self.NODES))
        # a zero panel at the top edge, so that y_max lands at its xi = -1
        self.coef = np.vstack([anti @ to_cheb.T,
                               np.zeros(self.NODES + 1)]).T.copy()
        self.width = np.append(2.0 * half, 1.0)
        # P_j(-1) as the Clenshaw sum computes it, subtracted so that a point
        # on an edge returns below + cum exactly
        self.start = self._series(np.full(n + 1, -1.0), np.arange(n + 1))
        # mass below the ladder, bounded by the pure-power envelope
        self.below = math.exp(self.edges[0] * decay) / decay
        self.base = self.below + self.cum         # J at each panel's edge

    def _series(self, xi: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Panel j's Chebyshev series at xi, pointwise, by Clenshaw's
        recurrence."""
        c = self.coef[:, j]
        x2 = 2.0 * xi
        b1, b2 = c[-1], 0.0
        for ck in c[-2:0:-1]:
            b1, b2 = ck + x2 * b1 - b2, b1
        return c[0] + xi * b1 - b2

    def __call__(self, u):
        """integral of f over (0, u], vectorized (any shape)."""
        u_in = np.atleast_1d(np.asarray(u, dtype=float))
        shape = u_in.shape
        u = u_in.ravel()
        y = np.full_like(u, -np.inf)
        np.log(u, out=y, where=u > 0)
        yc = np.clip(y, self.edges[0], self.edges[-1])
        j = np.searchsorted(self.edges, yc, side="right") - 1
        xi = 2.0 * (yc - self.edges[j]) / self.width[j] - 1.0
        out = self.base[j] + (self._series(xi, j) - self.start[j])
        # below the ladder: pure-power envelope approximation (negligible mass)
        under = y < self.edges[0]
        if np.any(under):
            out[under] = np.exp(y[under] * self.decay) / self.decay
        out[u <= 0] = 0.0
        return out.reshape(shape)


def _well_side(exp_hi: float, exp_lo: float, c: float, mode: str, mu: float):
    """W, its derivative and second derivative in the distance to the well,
    as functions of that distance u in (0, mu].

    exp_hi >= exp_lo are the envelope exponents (alpha >= beta, or
    gamma >= delta); c is the pure-power constant.
    """
    if mode == "pure-power":
        a = exp_hi

        def d2(u):
            return c * u ** (a - 2.0)

        def d1(u):
            return c * u ** (a - 1.0) / (a - 1.0)

        def d0(u):
            return c * u ** a / (a * (a - 1.0))

        return d0, d1, d2

    m = 0.5 * (exp_hi + exp_lo)
    amp = 0.5 * (exp_hi - exp_lo)

    def d2(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = m + amp * np.sin(np.log(u))
            out = u ** (p - 2.0)
        return np.where(u > 0, out, 0.0)

    # both integrands have log-slope about exp_hi + amp |y|, at most
    # exp_hi + amp (1 + |y|)
    y_max = math.log(mu)
    floor = y_max + math.log(1e-12)
    J1 = _LogAxisCumulative(d2, floor - 45.0 / (exp_lo - 1.0), y_max,
                            decay=exp_lo - 1.0, rate=exp_hi + amp, swing=amp)
    J2 = _LogAxisCumulative(J1, floor - 45.0 / exp_lo, y_max, decay=exp_lo,
                            rate=exp_hi + amp, swing=amp)
    return J2, J1, d2


@dataclass
class PotentialFn:
    """Double-well potential with wells pinned at -1 and +1."""

    params: WellParams
    W: Callable
    W1: Callable
    W2: Callable

    def __call__(self, t):
        return self.W(t)

    def max_w2(self) -> float:
        """max |W''| at 4001 uniform points of [-1, 1]."""
        t = np.linspace(-1.0, 1.0, 4001)
        return float(np.max(np.abs(self.W2(t))))


def make_potential(params: WellParams) -> PotentialFn:
    """Assemble W from the well data and a positive degree-5 middle bridge."""
    p = params
    mu = p.mu
    # W, W', W'' near the well at s = +/-1 in the distance v = 1 - s t
    wells = {s: _well_side(*p.side(s)[:3], p.mode, mu) for s in (-1, 1)}

    # junction data at t = s (1 - mu): d/dt = -s d/dv
    mu_arr = np.array([mu])
    left_data, right_data = (
        tuple((-s) ** k * float(wells[s][k](mu_arr)[0]) for k in range(3))
        for s in (-1, 1))
    a, b = -1.0 + mu, 1.0 - mu
    bridge = _solve_bridge(a, b, left_data, right_data)
    polys = (bridge, bridge.deriv(), bridge.deriv().deriv())

    def evaluate(t, order: int):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        t = np.clip(t, -1.0, 1.0)
        out = np.empty_like(t)
        in_well = []
        for s, y in ((-1, -t), (1, t)):     # y = s t
            m = y >= b
            out[m] = (-s) ** order * wells[s][order](1.0 - y[m])
            in_well.append(m)
        mid = ~(in_well[0] | in_well[1])
        out[mid] = polys[order](t[mid])
        return float(out[0]) if scalar else out

    pot = PotentialFn(
        params=p,
        W=lambda t: evaluate(t, 0),
        W1=lambda t: evaluate(t, 1),
        W2=lambda t: evaluate(t, 2),
    )
    return pot


def _solve_bridge(a: float, b: float, left_data, right_data):
    """Degree-5 two-point Hermite bridge, raised once if it dips <= 0.

    The raise pins the midpoint value at the higher junction value, which
    lifts the degree to 6.
    """
    poly = hermite_bridge(a, b, left_data, right_data)
    ts = np.linspace(a, b, 10001)
    if np.min(poly(ts)) <= 0:
        poly = hermite_bridge(a, b, left_data, right_data,
                              mid=max(left_data[0], right_data[0]))
        if np.min(poly(ts)) <= 0:
            raise BridgeNotPositive("middle bridge not positive after raise")
    return poly


def well_envelope_records(pot: PotentialFn) -> list[CheckRecord]:
    """The theorem's hypothesis on W: c_lo v^(g-2) <= W''(t) <= c_hi v^(d-2)
    near each well, with v = 1 - s t, on 1000 gaps geometric in [1e-10, mu].

    Each well gives one record `well-envelope-{side}`, left before right.
    Its slack is relative: the minimum over the gaps of
    (W'' - c_lo v^(g-2)) / W'' and (c_hi v^(d-2) - W'') / W''. It passes at
    slack >= 0 and is located at the worst gap.
    """
    p = pot.params
    out = []
    for s in (-1, 1):
        g, d, c_lo, c_hi = p.side(s)
        t = s * (1.0 - np.geomspace(1e-10, p.mu, 1000))
        # the envelopes take the gap that t realizes after rounding
        v = 1.0 - s * t
        w2 = pot.W2(t)
        slack = np.minimum(w2 - c_lo * v ** (g - 2.0),
                           c_hi * v ** (d - 2.0) - w2) / w2
        i = int(np.argmin(slack))
        out.append(CheckRecord(f"well-envelope-{SIDE_LABEL[s]}",
                               bool(slack[i] >= 0.0), float(slack[i]),
                               f"gap={v[i]:.12g}"))
    return out
