"""Reconstruct the potential from the layer profile and verify its shape.

With g(t) = L u~(t) and h(r) = g(u~^{-1}(r)), the potential
V(r) = integral_{-1}^r h makes the profile an exact critical point. The table
nodes are graded dyadically toward the wells so the second-derivative
envelopes can be fit over many decades of 1 -/+ r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import brent_root, envelope_exponents, fit_power_decay
from .construction import LayerParams, LayerProfile
from .errors import OutOfRange
from .kernels import KernelSpec
from .panels import panel_integrals
from .profiles import PowerTail, ProfileFn
from .quadrature import QuadConfig, eval_lk
from .reports import SIDE_LABEL, CheckRecord, write_csv

EPS = float(np.finfo(float).eps)
LN_GAP_FLOOR = math.log(EPS / 4.0)   # a gap that rounds u~ to +/-1 is <= this
INVERT_MAX_LOG = 690.0    # invert_profile's working domain: |x| <= sinh of it
ENVELOPE_TOL = 0.3        # largest miss of a curvature envelope exponent
LIMIT_REL_TOL = 0.10      # relative error allowed of each curvature limit


def profile_as_fn(prof: LayerProfile) -> ProfileFn:
    """Wrap the assembled profile, derivatives 1-4 included, for the
    quadrature, with a fitted tail."""
    cx = prof.cx

    def fn(x):
        return prof.eval(x, 0)

    derivs = tuple((lambda m: (lambda x: prof.eval(x, m)))(m)
                   for m in range(1, 5))
    # tail model u = s (1 - c |x|^-p) on side s: straight-line fit of ln(gap)
    # against ln(x) over the window where truncated-quadrature probes live
    L_lo = math.log(cx.a0) + 2.0
    L_hi = min(150.0, 0.8 * prof._edges[-1])
    Ls = np.linspace(L_lo, max(L_hi, L_lo + 5.0), 60)
    tail = []
    for side in (-1, +1):
        lg = prof.gap_jet_log(side, Ls, 0)[0].logm
        slope, intercept = np.polyfit(Ls, lg, 1)
        tail.append(PowerTail(float(side), -side * math.exp(intercept),
                              -slope))
    return ProfileFn(
        fn=fn, derivs=derivs, tail=tuple(tail),
        features=((0.0, 2.0 * cx.a0),),
        name="layer-profile",
    )


def invert_profile(prof: LayerProfile, r: float) -> float:
    """x with u~(x) = r on the working domain |x| <= sinh(INVERT_MAX_LOG).

    A bracketed root-find split by region, reading the profile only through
    ``prof.eval`` and ``prof.cx.a0``. Both regions call
    ``analysis.brent_root`` with the bracket's end values already known, and
    signal convergence by returning exactly 0.0, so the point returned is
    always one the profile was evaluated at.

    - Bridge, r between u~(-a0) and u~(a0): solve u~(x) = r for x in
      [-a0, a0], down to |u~(x) - r| <= 2 eps, the rounding level of u~.
      The bridge is flat in the middle (u~'(0) ~ 1e-6 on the desk profile),
      so a looser residual would leave x loose by the inverse slope.
    - Tails: take the side from the sign and solve
      ln(1 -/+ u~(+/-a0 e^l)) = log1p(-/+ r) for l in [0, ln(x_max / a0)].
      The gap decays between the rates x^-A and x^-B, so its logarithm is
      nearly linear in l and a few steps cover the whole log range. The
      search stops at |u~(x) - r| <= max(1e-12 (1 - |r|), 2 eps): the gap
      to relative accuracy 1e-12, with a floor of a few ulps of u~ that keeps
      it from chasing the rounding of u~ near the wells.
    """
    if not -1.0 < r < 1.0:
        raise OutOfRange("r must be strictly inside (-1, 1)")
    out_of_range = OutOfRange(
        f"r={r} beyond values attained on the working domain")
    a0 = prof.cx.a0
    x_max = math.sinh(INVERT_MAX_LOG)

    def u(x):
        return float(prof.eval(x))

    def off(v, target=2.0 * EPS):
        # v - r, or exactly 0.0 once within the target (ends the search)
        return 0.0 if abs(v - r) <= target else v - r

    xb = min(a0, x_max)
    u_hi = u(xb)
    if off(u_hi) >= 0.0:
        u_lo = u(-xb)
        if off(u_lo) <= 0.0:
            return brent_root(lambda x: off(u(x)), -xb, xb, EPS * xb,
                              off(u_lo), off(u_hi))
        side, u_a0 = -1.0, u_lo
    else:
        side, u_a0 = 1.0, u_hi
    if x_max <= a0:
        raise out_of_range
    tail_target = max(1e-12 * (1.0 - abs(r)), 2.0 * EPS)
    ln_gap_r = math.log1p(-side * r)

    def at(l):
        return side * min(a0 * math.exp(l), x_max)

    def ln_gap_off(v):
        if off(v, tail_target) == 0.0:
            return 0.0
        w = side * v
        return (math.log1p(-w) if w < 1.0 else LN_GAP_FLOOR) - ln_gap_r

    l_max = math.log(x_max / a0)
    g_out = ln_gap_off(u(at(l_max)))
    if g_out > 0.0:
        raise out_of_range
    return at(brent_root(lambda l: ln_gap_off(u(at(l))), 0.0, l_max,
                         4.0 * EPS, ln_gap_off(u_a0), g_out))


def graded_nodes(depth_decades: float, per_decade: int = 12) -> np.ndarray:
    """r-nodes: 201 uniform in the middle plus geometric ladders toward both
    wells.

    The ladder in 1 -/+ r starts at 1/4 and shrinks by 10^(1/per_decade) per
    step, giving per_decade points per decade for the envelope fits.
    """
    j_max = int(depth_decades * per_decade)
    gaps = 0.25 * 10.0 ** (-np.arange(0, j_max + 1) / per_decade)
    mid = np.linspace(-0.75, 0.75, 201)   # abuts the ladder start exactly
    right = 1.0 - gaps[gaps > 1e-300]
    left = -right
    nodes = np.unique(np.concatenate([mid, right, left]))
    return nodes[(nodes > -1.0) & (nodes < 1.0)]


def _end_mass(r: np.ndarray, h: np.ndarray, side: int) -> float:
    """Integral of h from the node nearest the well at s = +/-1 to the well.

    It comes from the power model h ~ -s C (1 - s r)^p fitted on the nodes
    within 1e-5 of the well, so the table's ends are not truncated; 0 with
    fewer than 6 such nodes, a value of -s h that is not positive, or
    p <= -1.
    """
    m = side * r > 1.0 - 1e-5
    hv = -side * h[m]
    if np.count_nonzero(m) < 6 or not np.all(hv > 0):
        return 0.0
    fit = fit_power_decay(np.column_stack([1.0 - side * r[m], hv]),
                          min_decades=0.5)
    p = -fit.exponent
    C = math.exp(fit.log_const)
    gap = 1.0 - np.max(side * r)
    return -side * C * gap ** (1.0 + p) / (1.0 + p) if p > -1.0 else 0.0


@dataclass
class PotentialTable:
    """Graded samples of the reconstructed potential and two derivatives."""

    r: np.ndarray
    x: np.ndarray
    V: np.ndarray
    V1: np.ndarray           # h(r) = V'(r)
    V2: np.ndarray           # divided differences of V1

    def interior_min(self) -> float:
        return float(np.min(self.V))

    def closure_defect(self) -> float:
        """|V(+1) extrapolant| relative to max V (equal-depth identity)."""
        return abs(float(self.V[-1] + _end_mass(self.r, self.V1, 1))) \
            / float(np.max(self.V))

    def to_csv(self, path) -> None:
        write_csv(path, ["r", "V", "V1", "V2"],
                  zip(self.r, self.V, self.V1, self.V2))


def reconstruct_potential(prof: LayerProfile, kernel: KernelSpec,
                          depth_decades: float) -> PotentialTable:
    """Build the table: invert 12 nodes per decade, evaluate the operator,
    integrate.

    The left-end contribution to V on (-1, r_min] comes from the fitted
    power model of h (`_end_mass`) rather than truncation, keeping the
    equal-depth closure honest.
    """
    u = profile_as_fn(prof)
    cfg = QuadConfig(tol=1e-5, panels_per_decade=5, nodes_per_panel=10)
    r = graded_nodes(depth_decades)
    x = np.array([invert_profile(prof, float(ri)) for ri in r])
    h = np.empty_like(r)
    for i, xi in enumerate(x):
        h[i] = eval_lk(kernel, u, float(xi), cfg).value
    # V by trapezoid from the left end, plus the fitted model below r_min
    V = np.concatenate([[0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(r))])
    V = V + _end_mass(r, h, -1)
    # V'' = h' by centered three-point divided differences on the
    # nonuniform nodes
    V2 = np.empty_like(r)
    dm = np.diff(r)[:-1]       # r_i - r_{i-1}
    dp = np.diff(r)[1:]        # r_{i+1} - r_i
    V2[1:-1] = (h[2:] * dm ** 2 - h[:-2] * dp ** 2
                + h[1:-1] * (dp ** 2 - dm ** 2)) / (dp * dm * (dp + dm))
    V2[0] = V2[1]
    V2[-1] = V2[-2]
    return PotentialTable(r=r, x=x, V=V, V1=h, V2=V2)


def verify_potential_regularity(tab: PotentialTable) -> CheckRecord:
    """Third-derivative proxies must decay toward both wells.

    The proxy is the divided difference of V2, which carries the designed
    log-periodic wobble, so the decay is asserted through the slope of
    ln(proxy) against ln(well gap) over the last 12 nodes per side: both
    slopes must exceed 0.2, and the slack is the smaller slope minus 0.2.
    The Lipschitz-constant estimate of V2, the largest divided difference,
    must be finite; its value is stated in the location. A NaN or inf in V2
    makes it infinite, and the record then fails with slack -inf.
    """
    r, V2 = tab.r, tab.V2
    dV2 = np.abs(np.diff(V2) / np.diff(r))
    lip = float(np.max(dV2, initial=0.0)) if np.all(np.isfinite(dV2)) \
        else math.inf

    def trend(gap, proxy):
        good = proxy > 0
        if np.count_nonzero(good) < 6:
            return 0.0
        slope = np.polyfit(np.log(gap[good]), np.log(proxy[good]), 1)[0]
        return float(slope)

    mid = 0.5 * (r[:-1] + r[1:])
    slopes = []
    for s in (1, -1):
        # the 12 intervals nearest the well at s, in table order
        near = slice(-12, None) if s > 0 else slice(12)
        slopes.append(trend(1.0 - s * mid[near], dV2[near]))
    slack = min(slopes) - 0.2
    if not (math.isfinite(lip) and math.isfinite(slack)):
        slack = -math.inf
    return CheckRecord("curvature-regularity", slack > 0.0, slack,
                       f"lipschitz={lip:.6g}")


def verify_well_envelopes(tab: PotentialTable,
                          params: LayerParams) -> list[CheckRecord]:
    """Fitted envelope exponents of V'' against the well powers.

    Right well: V'' oscillates between (1-r)^(gamma-2) (lower envelope) and
    (1-r)^(delta-2) (upper); left well mirrored with (alpha, beta). Each
    side's record `curvature-envelopes-{side}` passes when both exponents
    lie within ENVELOPE_TOL of their targets; the slack is ENVELOPE_TOL
    minus the larger miss.
    """
    out = []
    for side in (1, -1):
        g, d = params.side(side)
        m = (side * tab.r > 1.0 - 0.05) & (tab.V2 > 0)
        gap = 1.0 - side * tab.r[m]
        v = tab.V2[m]
        # in the variable w = 1/gap the curvature decays like w^-(power-2)
        samples = np.column_stack([1.0 / gap, np.log(v)])
        lo_fit = envelope_exponents(samples, "lower")
        hi_fit = envelope_exponents(samples, "upper")
        miss_lo = abs(lo_fit.exponent - (g - 2.0))
        miss_hi = abs(hi_fit.exponent - (d - 2.0))
        out.append(CheckRecord(
            f"curvature-envelopes-{SIDE_LABEL[side]}",
            miss_lo <= ENVELOPE_TOL and miss_hi <= ENVELOPE_TOL,
            ENVELOPE_TOL - max(miss_lo, miss_hi),
            f"lower={lo_fit.exponent:.3f},upper={hi_fit.exponent:.3f}"))
    return out


def second_derivative_limit(prof: LayerProfile, kernel: KernelSpec,
                            xs) -> list[CheckRecord]:
    """|x|^(2+2s) L u~'' -> -/+ 2 (1 + 2s) as x -> +/- inf.

    The total slope mass is 2; the limit constant is the mass times
    (1 + 2s), with the sign opposite to the side. Each side's record
    `curvature-operator-limit-side{+1,-1}` passes when the extrapolated
    limit is within LIMIT_REL_TOL of it; the slack is LIMIT_REL_TOL minus
    the relative error.
    """
    u = profile_as_fn(prof)
    base = u.derivative_profile().derivative_profile()
    cfg = QuadConfig(tol=1e-6, panels_per_decade=6, nodes_per_panel=12)
    out = []
    for side in (+1, -1):
        pts = sorted(side * abs(np.asarray(xs, dtype=float)))
        scaled = []
        for x in pts:
            ov = eval_lk(kernel, base, float(x), cfg)
            scaled.append(abs(x) ** (2.0 + 2.0 * kernel.s) * ov.value)
        target = -side * 2.0 * (1.0 + 2.0 * kernel.s)
        # fit a + b |x|^(-e) with the rate scanned over a grid
        X = np.abs(np.asarray(pts, dtype=float))
        Y = np.asarray(scaled)
        best = None
        for e in np.linspace(0.05, 1.0, 39):
            M = np.column_stack([np.ones_like(X), X ** (-e)])
            coef, res, *_ = np.linalg.lstsq(M, Y, rcond=None)
            sse = float(np.sum((M @ coef - Y) ** 2))
            if best is None or sse < best[0]:
                best = (sse, float(coef[0]))
        est = best[1]
        rel = abs(est - target) / abs(target)
        out.append(CheckRecord(f"curvature-operator-limit-side{side:+d}",
                               rel <= LIMIT_REL_TOL, LIMIT_REL_TOL - rel,
                               f"est={est:.4f}"))
    return out


def slope_mass(prof: LayerProfile, X: float) -> float:
    """Quadrature of u~' over [-X, X] plus the exact gap tails (should be 2).

    The tails int_{|y|>X} u~' equal the gaps 1 -/+ u~(+/-X), read off the
    profile in log form; the quadrature over [-X, X] is the nontrivial part.
    """
    # on each side 1000 log panels away from the bridge plus 500 linear
    # panels inside, 12 nodes each
    a0 = prof.cx.a0
    edges_out = np.geomspace(a0, X, 1001)
    edges_in = np.linspace(0.0, a0, 501)
    total = 0.0
    for sgn in (+1.0, -1.0):
        for edges in (edges_in, edges_out):
            total += float(np.sum(panel_integrals(
                lambda y, sgn=sgn: prof.eval(sgn * y, 1),
                edges[:-1], edges[1:], 12)))
    LX = np.array([math.log(X)])
    total += math.exp(prof.gap_jet_log(+1, LX, 0)[0].logm[0])
    total += math.exp(prof.gap_jet_log(-1, LX, 0)[0].logm[0])
    return total
