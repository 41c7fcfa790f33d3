"""Machine checks for the layer construction: inequalities, sandwiches,
touchpoint identities, junction regularity, and monotonicity.

Checks come in two flavors. Reduced-variable checks treat the doubly
exponential scales through surrogates (the ramp position w in [0,1], the
touch factor T = ((xbar+1) c_k)^(-touch_exp) in (0,1), and log magnitudes),
so they run in paper mode where no scale is a float. Desk checks evaluate the
assembled profile at materialized sample points.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import fd_derivative
from .cutoffs import eta_tilde, measure_cutoff, w_weight
from .construction import (PIECE_NAMES, ConstructionConstants, LayerParams,
                           LayerProfile, SideConstants, _cell_boundaries,
                           _side_constants)
from .jets import jet_compose
from .reports import CheckRecord


def _rec(records, cid, slack, loc, tol=0.0):
    """slack >= -tol passes; slack is 'how much room the inequality had'."""
    records.append(CheckRecord(id=cid, passed=bool(slack >= -tol),
                               worst_slack=float(slack), location=loc))


# ---------------------------------------------------------------------------
# reduced-variable inequality sweep
# ---------------------------------------------------------------------------

def exponent_ordering_slack(s, g, d):
    """One side's derivative-rate ordering, for its well exponents g >= d:
    >= 0, with equality exactly when g = d or d = 2."""
    return -(-1.0 - 2 * s * (d - g + 1.0) / (d - 1.0)
             - (-1.0 - 2 * s * (1.0 - (g - 2.0) * (g - d)) / (g - 1.0)))


def inequality_sweep(tuples) -> list[CheckRecord]:
    """Run every constant-level inequality over a sweep of parameter tuples.

    Each tuple is (s, alpha, beta, gamma, delta), valid LayerParams;
    surrogate scale factors cover the k-dependence. The sweep covers:
      - the derivative-rate ordering (with equality detection),
      - A <= min{B(g-d+1), 2s-(d-2)phi}, B >= max{A(d-g+1), 2s-(g-2)phi}
        and the mirrored D/E forms, on a 257-point ramp grid,
      - x^(A-phi) <= exp(2 A ln2 / zeta) on [b, 2b] (and the outer mirror),
      - critical points xbar in (0,1), weight positivity and unique maximum,
      - C2 > 2, C_in(T) in (2, C2) for T in (0,1), and the c4-side mirror,
      - ramp endpoint values and strict monotonicity of the interpolants.
    """
    stats = measure_cutoff()
    records: list[CheckRecord] = []
    w = np.linspace(0.0, 1.0, 257)
    rhos = [128.0 * stats.ratio, 6.0, 2.5]
    t_in = np.linspace(0.0, math.log(2.0), 65)

    for (s, alpha, beta, gamma, delta) in tuples:
        tag = f"s={s:.3g},a={alpha:.4g},b={beta:.4g},g={gamma:.4g},d={delta:.4g}"
        p = LayerParams(s, alpha, beta, gamma, delta)
        sides = [_side_constants(sg, s, *p.side(sg), rhos[0])
                 for sg in (1, -1)]
        for sc in sides:
            _rec(records, f"derivative-rate-ordering-{sc.label}",
                 exponent_ordering_slack(s, sc.g, sc.d), tag, tol=1e-13)

        # ramp interpolants in the reduced position w: phi = A (B/A)^w
        for sc in sides:
            hi, lo, g_, d_, lab = sc.e_hi, sc.e_lo, sc.g, sc.d, sc.label
            phi = hi * (lo / hi) ** w
            m1 = np.min(np.minimum(lo * (g_ - d_ + 1.0) - hi,
                                   2 * s - (d_ - 2.0) * phi - hi))
            m2 = np.min(np.minimum(hi - lo * (d_ - g_ + 1.0),
                                   lo - (2 * s - (g_ - 2.0) * phi)))
            _rec(records, f"inner-rate-min-{lab}", m1, tag, tol=1e-13)
            _rec(records, f"outer-rate-max-{lab}", m2, tag, tol=1e-13)
            _rec(records, f"ramp-range-{lab}",
                 min(np.min(phi) - lo, hi - np.max(phi)), tag, tol=1e-14)
            _rec(records, f"ramp-endpoints-{lab}",
                 -max(abs(phi[0] - hi), abs(phi[-1] - lo)), tag, tol=1e-13)
            _rec(records, f"ramp-decreasing-{lab}",
                 -np.max(np.diff(phi)), tag, tol=0.0)

        # spread bounds: x^(hi - phi) <= exp(2 hi ln2 / zeta) on [b, 2b] and
        # x^(phi - lo) <= exp(2 lo ln2 / zeta) on [c/2, c], for the paper gap
        # exponent and for desk-scale ones (whenever zeta > 1); evaluated
        # through expm1/log1p so astronomically large surrogate scales do not
        # lose the cancellation
        for sc in sides:
            hi, lo, lab = sc.e_hi, sc.e_lo, sc.label
            for rho in rhos:
                zl = rho / math.log(hi / lo)
                if zl <= 1.0:
                    continue
                for lnb in (math.log(5.0), 20.0, 1e4, 1e150):
                    lnx = lnb + t_in
                    # hi - phi = -hi expm1((ln ln b - ln ln x)/zeta)
                    dphi = -hi * np.expm1(-np.log1p(t_in / lnb) / zl)
                    slack = 2 * hi * math.log(2.0) / zl - np.max(dphi * lnx)
                    _rec(records, f"inner-spread-{lab}", float(slack),
                         f"{tag},lnb={lnb:.3g},rho={rho:.3g}", tol=1e-15)
                    lnc = lnb * math.exp(rho) if rho < 700 else np.inf
                    if np.isfinite(lnc):
                        lnx2 = lnc - t_in[::-1]
                        # phi - lo = lo expm1((ln ln c - ln ln x)/zeta)
                        dphi2 = lo * np.expm1(-np.log1p(-t_in[::-1] / lnc) / zl)
                        slack2 = 2 * lo * math.log(2.0) / zl \
                            - np.max(dphi2 * lnx2)
                        _rec(records, f"outer-spread-{lab}", float(slack2),
                             f"{tag},lnb={lnb:.3g},rho={rho:.3g}", tol=1e-15)

        # critical points, weight positivity, constant ranges
        for sc in sides:
            lo, xb, wmax, lab = sc.e_lo, sc.xbar, sc.w_at_xbar, sc.label
            _rec(records, f"critical-point-in-(0,1)-{lab}",
                 min(xb, 1.0 - xb), tag)
            wv = w_weight(lo, w)
            _rec(records, f"weight-nonnegative-{lab}", float(np.min(wv)), tag,
                 tol=1e-15)
            others = wv[np.abs(w - xb) > 2e-2]
            _rec(records, f"weight-unique-max-{lab}",
                 wmax - float(np.max(others)), tag)
            _rec(records, f"weight-at-zero-{lab}",
                 -abs(float(w_weight(lo, np.array([0.0]))[0]) - lo), tag,
                 tol=1e-12)
            _rec(records, f"outer-constant-gt-2-{lab}", sc.c_out - 2.0, tag)
            for T in np.linspace(1e-6, 1.0 - 1e-6, 41):
                cin = sc.inner_constant(T)
                sl = min(cin - 2.0, sc.c_out - cin)
                _rec(records, f"inner-constant-range-{lab}", sl,
                     f"{tag},T={T:.3g}")

    return records


def equality_case_records() -> list[CheckRecord]:
    """Exact equality of the rate ordering at gamma = delta and delta = 2,
    at s = 0.5."""
    records = []
    for (g, d, lab) in ((4.0, 4.0, "gamma=delta"), (3.5, 2.0, "delta=2")):
        _rec(records, f"ordering-equality-{lab}",
             -abs(exponent_ordering_slack(0.5, g, d)), lab, tol=1e-14)
    # strictness away from the equality cases
    _rec(records, "ordering-strict-generic",
         exponent_ordering_slack(0.5, 4.0, 3.0) - 1e-12, "gamma=4,delta=3")
    return records


# ---------------------------------------------------------------------------
# ODE of the ramp
# ---------------------------------------------------------------------------

def log_power_ode_closed_form(a: float, b: float, mu: float, f0: float):
    """f(x) = (ln a / ln(x (b-a) + a))^(1/mu) * f0 on [0, 1]."""
    if not (b > a > 1.0) or mu == 0.0:
        raise ValueError("need b > a > 1 and mu != 0")

    def f(x):
        X = np.asarray(x, dtype=float) * (b - a) + a
        return (math.log(a) / np.log(X)) ** (1.0 / mu) * f0

    def rhs(x):
        X = np.asarray(x, dtype=float) * (b - a) + a
        return -f(x) * (b - a) / (mu * X * np.log(X))

    return f, rhs


def check_log_power_ode(a: float, b: float, mu: float, f0: float,
                        grid) -> CheckRecord:
    """Richardson-FD residual of the ramp ODE for the closed form."""
    f, rhs = log_power_ode_closed_form(a, b, mu, f0)
    grid = np.asarray(grid, dtype=float)
    d, _ = fd_derivative(f, grid, 1,
                         h0=np.minimum(1e-3, np.minimum(grid, 1 - grid) / 2))
    r = np.abs(d - rhs(grid))
    i = int(np.argmax(r))
    return CheckRecord(id="ramp-ode-residual", passed=bool(r[i] < 1e-8),
                       worst_slack=float(1e-8 - r[i]),
                       location=f"x={grid[i]:.4g}")


def check_ramp_ode_identity(cx: ConstructionConstants) -> CheckRecord:
    """The ramp's ODE phi = -zeta L dphi/dL on SideConstants.phi in L = ln x,
    at 11 points of [ln b_k, ln c_k] for every cell with both finite, on
    both sides; dphi/dL is fd_derivative's at h0 = 1e-3 L. The record
    passes when the worst relative residual is below 1e-6, and names its
    side and cell; with no such cell (paper mode) it raises ValueError."""
    worst, loc = 0.0, None
    for sc in (cx.right, cx.left):
        for k, (lnb_k, lnc_k) in enumerate(zip(cx.lnb, cx.lnc)):
            if not (np.isfinite(lnb_k) and np.isfinite(lnc_k)):
                continue
            L = np.linspace(lnb_k, lnc_k, 11)
            d, _ = fd_derivative(lambda l: sc.phi(lnb_k, l), L, 1,
                                 h0=1e-3 * L)
            phi = sc.phi(lnb_k, L)
            r = float(np.max(np.abs(phi + sc.zeta * L * d) / phi))
            if r >= worst:
                worst, loc = r, f"{sc.label} cell {k}"
    if loc is None:
        raise ValueError("no cell with finite ln b_k and ln c_k; use desk mode")
    return CheckRecord(id="ramp-ode-identity", passed=worst < 1e-6,
                       worst_slack=1e-6 - worst, location=loc)


# ---------------------------------------------------------------------------
# touchpoint identities
# ---------------------------------------------------------------------------

def touchpoint_reduced_records(cx: ConstructionConstants) -> list[CheckRecord]:
    """The six per-scale identities, verified in reduced variables to 1e-12.

    The k-dependence enters only through the touch factor T in (0, 1); the
    identities must cancel exactly for every admissible T, so each cell
    k = 0..k_max is checked at three surrogates T drawn from a generator
    seeded with 7, in addition to the constructed value when that is
    representable.
    """
    records: list[CheckRecord] = []
    rng = np.random.default_rng(7)

    eps = np.finfo(float).eps
    for sc in (cx.right, cx.left):
        lab = sc.label
        for k in range(cx.k_max + 1):
            t_real = sc.touch_factor(cx.lnc[k])
            Ts = [t_real] if t_real > 1e-10 else []
            Ts += list(0.01 + 0.98 * rng.random(3))
            for T in Ts:
                cin = sc.inner_constant(T)
                # derivative touchpoint: the swap-piece bracket collapses to T
                bracket = sc.e_lo * sc.c_out \
                    - (sc.c_out - cin) * sc.w_at_xbar
                # conditioning: the cancellation resolves T against the
                # leading term e_lo * c_out
                tol = max(1e-12, 64 * eps * sc.e_lo * sc.c_out / T)
                _rec(records, f"touch-derivative-bracket-{lab}",
                     -abs(bracket - T) / T, f"k={k},T={T:.3g}", tol=tol)
                # exponent algebra: -1 - e_lo - touch_exp = -1 - e_lo*(g-d+1)
                target = 1.0 + sc.e_lo * (sc.g - sc.d + 1.0)
                got = 1.0 + sc.e_lo + sc.touch_exp
                _rec(records, f"touch-exponent-algebra-{lab}",
                     -abs(got - target) / target, f"k={k}", tol=1e-14)

    # value identities at the cell anchors reduce to the cutoffs being exact
    # at their endpoints: the interpolation neighbors then take the pure
    # power value by cancellation
    from .cutoffs import eta as _eta
    _rec(records, "cutoff-endpoint-eta1", -abs(float(_eta(np.array([1.0]))[0])),
         "eta(1)", tol=1e-15)
    _rec(records, "cutoff-endpoint-eta0", -abs(float(_eta(np.array([0.0]))[0]) - 1.0),
         "eta(0)", tol=1e-15)
    _rec(records, "cutoff-endpoint-etatilde0",
         -abs(float(eta_tilde(np.array([0.0]))[0]) - 1.0), "eta~(0)", tol=1e-12)
    _rec(records, "cutoff-endpoint-etatilde1",
         -abs(float(eta_tilde(np.array([1.0]))[0])), "eta~(1)", tol=1e-15)
    return records


def touchpoint_desk_records(prof: LayerProfile) -> list[CheckRecord]:
    """Materialized touchpoint identities on every representable cell."""
    cx = prof.cx
    records: list[CheckRecord] = []
    kmat = cx.materializable_k()
    for sc in (cx.right, cx.left):
        side, lab = sc.sign, sc.label
        for k in range(kmat + 1):
            lna, lnd = _cell_boundaries(cx, k)[[0, 5]]
            # gap at a_k equals c_in[k] * a_k^(-e_hi)
            g = prof.gap_jet_log(side, np.array([lna]), order=0)[0]
            target = math.log(sc.c_in[k]) - sc.e_hi * lna
            _rec(records, f"anchor-value-inner-{lab}",
                 -abs(g.logm[0] - target) / abs(target), f"k={k}", tol=1e-12)
            # gap at d_k equals c_out * d_k^(-e_lo)
            g = prof.gap_jet_log(side, np.array([lnd]), order=0)[0]
            target = math.log(sc.c_out) - sc.e_lo * lnd
            _rec(records, f"anchor-value-outer-{lab}",
                 -abs(g.logm[0] - target) / abs(target), f"k={k}", tol=1e-12)
            # derivative touchpoint at (xbar + 1) c_k; the swap bracket
            # cancels down to T = x^(-touch_exp), so double arithmetic can
            # resolve it only while T clears the rounding of the leading term
            lt = math.log1p(sc.xbar) + cx.lnc[k]
            t_real = math.exp(-sc.touch_exp * lt)
            if t_real < 1e-10:
                continue
            d1 = prof.gap_jet_log(side, np.array([lt]), order=1)[1]
            target = -(1.0 + sc.e_lo + sc.touch_exp) * lt
            eps = np.finfo(float).eps
            tol = max(1e-11, 64 * eps * sc.e_lo * sc.c_out / t_real
                      / abs(target))
            _rec(records, f"touch-derivative-value-{lab}",
                 -abs(d1.logm[0] - target) / abs(target), f"k={k}", tol=tol)
            # finite-difference cross-check where materializable; the FD
            # resolution at the touchpoint is set by how far the swap bracket
            # cancellation (down to T) sits above gap-value rounding
            if lt < 640.0 and d1.logm[0] > -690.0:
                xt = math.exp(lt)
                got = float(d1.to_float()[0])

                def gfun(xx):
                    return prof.gap_jet_log(side, np.log(xx),
                                            order=0)[0].to_float()

                h_rel = 1e-3
                fd, _ = fd_derivative(gfun, xt, 1, h0=xt * h_rel)
                eps = np.finfo(float).eps
                noise = 8.0 * eps * lt * (sc.c_out / t_real) / (2.0 * h_rel)
                _rec(records, f"touch-derivative-fd-{lab}",
                     -abs(fd - got) / abs(got), f"k={k}",
                     tol=max(1e-8, noise))
    return records


# ---------------------------------------------------------------------------
# profile bound sandwiches
# ---------------------------------------------------------------------------

def _log_derivs_wrt_L(prof: LayerProfile, side: int, L: np.ndarray,
                      order: int) -> list[np.ndarray]:
    """Derivatives of ln(gap) with respect to L = ln y, well-conditioned."""
    base, d, _ = prof.gap_jet_L(side, L, order)
    # ln G with D^j G = G d[j] / d[0]: Faa di Bruno with the derivatives
    # (-1)^(m-1) (m-1)! / G^m of ln, whose powers of G cancel
    outer = [base + np.log(d[0]), 1.0, -1.0, 2.0, -6.0]
    return jet_compose(outer[:order + 1], d / d[0])


def _sandwich(cid, lo_logs, hi_logs, n, passed,
              one_sided=False) -> CheckRecord:
    """Empirical constants exp(min lo_logs), exp(max hi_logs) of a bound
    family; a two-sided family also needs 0 < lo <= hi (one_sided asserts
    only the upper constant)."""
    lo = float(np.exp(np.min(lo_logs)))
    hi = float(np.exp(np.max(hi_logs)))
    ok = passed and hi < np.inf and (one_sided or 0.0 < lo <= hi)
    return CheckRecord(id=cid, passed=ok, worst_slack=lo,
                       location=f"n={n},hi={hi:.4g}")


BOUND_SAMPLES = 4000        # ramp-cell samples of profile_bound_records
CURVATURE_SAMPLES = 1500    # samples of second_derivative_bound_records
FD_POINTS = 24              # most L samples of fd_agreement_records
FD_SEED = 3                 # seed of fd_agreement_records' sample draw


def profile_bound_records(prof: LayerProfile) -> list[CheckRecord]:
    """Every piecewise sandwich of the construction, with fitted constants.

    On the ramp cells the gap and slope are normalized by the interpolant
    power x^(-phi(x)); on the swap/return cells by the outer/inner powers.
    The fitted constants are the empirical extremes of the normalized
    samples; the check asserts they are positive, finite, and stable across
    every representable cell.
    """
    cx = prof.cx
    records: list[CheckRecord] = []
    two_s = 2.0 * cx.params.s
    cells = [_cell_boundaries(cx, k) for k in range(cx.materializable_k() + 1)]

    for sc in (cx.right, cx.left):
        side, lab, g_, d_ = sc.sign, sc.label, sc.g, sc.d
        ratios_gap = []
        ratios_d1_hi = []
        ratios_d1_lo = []
        for k, b in enumerate(cells):
            lnb_k, lnc_k = b[1], b[4]
            L = np.linspace(lnb_k, lnc_k, BOUND_SAMPLES // len(cells))
            jets = prof.gap_jet_log(side, L, order=1)
            phi = sc.phi(lnb_k, L)
            lg = jets[0].logm
            ratios_gap.append(lg + phi * L)
            ld1 = jets[1].logm
            # slope sandwich: max{.} <= u~' <= min{.} after normalizing
            up = np.minimum(-(1.0 + sc.e_hi * (d_ - g_ + 1.0)) * L,
                            (-(1.0 + two_s) + (g_ - 2.0) * phi) * L)
            dn = np.maximum(-(1.0 + sc.e_lo * (g_ - d_ + 1.0)) * L,
                            (-(1.0 + two_s) + (d_ - 2.0) * phi) * L)
            ratios_d1_hi.append(ld1 - up)
            ratios_d1_lo.append(ld1 - dn)
            ok_sign = bool(np.all(jets[1].sign < 0))
            _rec(records, f"slope-negative-gap-{lab}", 0.0 if ok_sign else -1.0,
                 f"k={k}")

        # swap cell [c_k, d_k]: gap ~ x^(-e_lo), slope >= x^(-1-e_lo(g-d+1))
        vals_gap, vals_d1 = [], []
        for b in cells:
            L = np.linspace(b[4], b[5], 200)
            jets = prof.gap_jet_log(side, L, order=1)
            vals_gap.append(jets[0].logm + sc.e_lo * L)
            vals_d1.append(jets[1].logm + (1.0 + sc.e_lo * (g_ - d_ + 1.0)) * L)
        for cid, parts in ((f"gap-ramp-sandwich-{lab}", ratios_gap),
                           (f"slope-upper-sandwich-{lab}", ratios_d1_hi),
                           (f"slope-lower-sandwich-{lab}", ratios_d1_lo),
                           (f"gap-swap-sandwich-{lab}", vals_gap),
                           (f"slope-swap-lower-{lab}", vals_d1)):
            v = np.concatenate(parts)
            records.append(_sandwich(cid, v, v, len(v),
                                     bool(np.all(np.isfinite(v)))))

        # return cell [d_k, a_{k+1}]: x^(-1-e_hi) <= u~' <= x^(-1-e_lo)
        vals_lo, vals_hi = [], []
        for b in cells:
            L = np.linspace(b[5], b[6], 200)
            jets = prof.gap_jet_log(side, L, order=1)
            vals_lo.append(jets[1].logm + (1.0 + sc.e_hi) * L)
            vals_hi.append(jets[1].logm + (1.0 + sc.e_lo) * L)
        records.append(_sandwich(
            f"slope-return-sandwich-{lab}", np.concatenate(vals_lo),
            np.concatenate(vals_hi), 2 * len(vals_lo[0]) * len(vals_lo),
            True))

        # inner power cell: |u~''| = (e_hi + 1) u~' / x exactly
        worst = 0.0
        for b in cells:
            L = np.linspace(b[0], b[1], 50)
            jets = prof.gap_jet_log(side, L, order=2)
            lhs = jets[2].logm
            rhs = np.log(sc.e_hi + 1.0) + jets[1].logm - L
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        _rec(records, f"curvature-identity-inner-{lab}", 1e-10 - worst,
             f"rel={worst:.2e}")

    return records


def second_derivative_bound_records(prof: LayerProfile) -> list[CheckRecord]:
    """|u~''| <= C min{x^(-2-eps), u~' x^(-1+e_lo(g-d))} and the third-
    derivative envelope |u~'''| <= C x^(-e_lo-3), fitted per side on
    CURVATURE_SAMPLES points."""
    cx = prof.cx
    n = CURVATURE_SAMPLES
    records = []
    for sc in (cx.right, cx.left):
        side, lab = sc.sign, sc.label
        L = prof.log_samples(n)
        jets = prof.gap_jet_log(side, L, order=3)
        l1, l2, l3 = jets[1].logm, jets[2].logm, jets[3].logm
        # curvature against the slope form (upper bound only: u~'' may
        # change sign inside the ramp cells)
        r1 = l2 - (l1 + (-1.0 + sc.touch_exp) * L)
        records.append(_sandwich(f"curvature-slope-bound-{lab}", r1, r1, n,
                                 True, one_sided=True))
        # curvature absolute decay x^(-2-eps): fit eps empirically
        r2 = (l2 + 2.0 * L) / L
        _rec(records, f"curvature-decay-margin-{lab}",
             float(-np.max(r2)), f"eps={-np.max(r2):.4g}")
        # third derivative envelope (upper bound only)
        r3 = l3 + (sc.e_lo + 3.0) * L
        records.append(_sandwich(f"third-derivative-envelope-{lab}", r3, r3,
                                 n, bool(np.all(r3 < np.inf)),
                                 one_sided=True))
    return records


def _fd_sample_points(prof: LayerProfile, rng) -> np.ndarray:
    """Two mid-piece L samples in every piece at least 0.3 wide below
    L = 580: FD stencils must not straddle junctions."""
    edges = prof._edges[prof._edges < 580.0]
    mids = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a >= 0.3:
            mids.extend(a + (b - a) * rng.uniform(0.35, 0.65, 2))
    return np.asarray(sorted(mids))


def fd_agreement_records(prof: LayerProfile) -> list[CheckRecord]:
    """Analytic gap derivatives against Richardson finite differences.

    It compares at most FD_POINTS mid-piece samples, drawn with seed
    FD_SEED. The comparison runs in the log-position parameterization
    G(L) = ln gap(e^L), which stays conditioned at every scale, plus a direct
    x-space check for orders 1 and 2. Each discrepancy must stay below
    max(1e-7 relative, the oracle's own resolution): rounding noise of an
    order-m stencil at step h is ~ 64 * 4^m * eps * |G| / h^m, and the
    Richardson level difference bounds the truncation part. The strict 1e-7
    branch must also be achieved on at least half the resolvable samples.
    Steps (in L, and relative in x) are at most 1/140 of the sample's piece
    width: on the ln 2-wide cutoff pieces a step of 1e-2 is pre-asymptotic,
    and the level difference then understates the truncation error. Each
    (side, order) takes one `fd_derivative` call over all the samples.
    """
    records = []
    mids = _fd_sample_points(prof, np.random.default_rng(FD_SEED))
    if len(mids) > FD_POINTS:
        mids = mids[np.linspace(0, len(mids) - 1, FD_POINTS).astype(int)]
    piece = np.searchsorted(prof._edges, mids) - 1
    hmax = (prof._edges[piece + 1] - prof._edges[piece]) / 140.0
    eps = np.finfo(float).eps
    near = mids < 250.0  # keep h**order inside double range
    x = np.exp(mids[near])
    for sc in (prof.cx.right, prof.cx.left):
        side, lab = sc.sign, sc.label

        def gfun(xx):
            return prof.gap_jet_log(side, np.log(xx), order=0)[0].to_float()

        def Gfun(l):
            return prof.gap_jet_log(side, l, order=0)[0].logm

        worst12 = 0.0
        g = [j.to_float() for j in prof.gap_jet_log(side, mids[near], 2)]
        for order, cap in ((1, 1e-3), (2, 1e-2)):
            h = np.minimum(cap, hmax[near])
            fd, est = fd_derivative(gfun, x, order, h0=x * h)
            for xi, hi, g0, got, fdi, ei in zip(*(v.tolist() for v in (
                    x, h, g[0], g[order], fd, est))):
                floor = 64 * 4 ** order * eps * g0 / (xi * hi) ** order
                excess = abs(fdi - got) - max(1e-7 * abs(got), 8 * ei, floor)
                worst12 = max(worst12, excess / max(abs(got), floor))
        _rec(records, f"fd-x-orders12-{lab}", -worst12, f"n={len(mids)}")

        worstL = 0.0
        strict_ok = 0
        strict_n = 0
        lder = _log_derivs_wrt_L(prof, side, mids, 4)
        G0 = np.abs(Gfun(mids)) + 1.0
        for order in (1, 2, 3, 4):
            h = np.minimum(2e-2 if order <= 2 else 1e-2, hmax)
            fd, est = fd_derivative(Gfun, mids, order, h0=h)
            for g0, hi, got, fdi, ei in zip(*(v.tolist() for v in (
                    G0, h, lder[order], fd, est))):
                floor = 64 * 4 ** order * eps * g0 / hi ** order
                tol = max(1e-7 * abs(got), 8 * ei, floor)
                if tol <= 1e-7 * abs(got) * (1 + 1e-9):
                    strict_n += 1
                    strict_ok += abs(fdi - got) <= 1e-7 * abs(got)
                excess = abs(fdi - got) - tol
                worstL = max(worstL, excess / max(abs(got), floor))
        _rec(records, f"fd-logpos-orders1234-{lab}", -worstL,
             f"n={len(mids)}")
        frac = strict_ok / max(strict_n, 1)
        _rec(records, f"fd-strict-fraction-{lab}", frac - 0.5,
             f"{strict_ok}/{strict_n}")
    return records


def _mp_piece_formula(cx: ConstructionConstants, sc: SideConstants, k: int,
                      piece: int):
    """Exact mpmath expression of one gap piece, as a function of l = ln y,
    for the precision oracle.

    Every power and ratio of y goes through l, so an evaluation takes no
    logarithm: y^(-e) = exp(-e l), y/b = exp(l - ln b),
    2y/c = exp(l - ln c + ln 2), y/(2c) = exp(l - ln c - ln 2),
    phi(y) = e_hi (ln b / l)^(1/zeta), and the logistic
    S(r) = 1 / (1 + exp(q/r - q/(1-r))).
    """
    import mpmath as mp

    lnb = mp.mpf(float(cx.lnb[k]))
    lnc = mp.mpf(float(cx.lnc[k]))
    zl = mp.mpf(sc.zeta)
    ehi = mp.mpf(sc.e_hi)
    elo = mp.mpf(sc.e_lo)
    cin = mp.mpf(float(sc.c_in[k]))
    cnext = mp.mpf(float(sc.c_in[k + 1]))
    cout = mp.mpf(sc.c_out)
    q = mp.mpf("0.5")

    def Smp(r):
        if r <= 0:
            return mp.mpf(0)
        if r >= 1:
            return mp.mpf(1)
        return 1 / (1 + mp.exp(q / r - q / (1 - r)))

    def eta_mp(x):
        return Smp(2 * (mp.mpf(3) / 4 - x))

    def etat_mp(x):
        y = 1 - x
        g = y ** 4 / 4 - mp.mpf(3) / 5 * y ** 5 + y ** 6 / 2 - y ** 7 / 7
        return g * 140

    def y_pow(e, l):
        return mp.exp(-e * l)

    def y_pow_phi(l):
        return mp.exp(-ehi * (lnb / l) ** (1 / zl) * l)

    # one function per piece, in PIECE_NAMES order; each evaluates its
    # cutoff once
    def inner_power(l):
        return cin * y_pow(ehi, l)

    def ramp_on(l):
        e = eta_mp(mp.exp(l - lnb) - 1)
        return cin * ((1 - e) * y_pow_phi(l) + e * y_pow(ehi, l))

    def ramp(l):
        return cin * y_pow_phi(l)

    def ramp_off(l):
        e = eta_mp(mp.exp(l - lnc + mp.ln2) - 1)
        return cin * ((1 - e) * y_pow(elo, l) + e * y_pow_phi(l))

    def outer_swap(l):
        w = etat_mp(mp.exp(l - lnc) - 1)
        return (cout * (1 - w) + cin * w) * y_pow(elo, l)

    def return_piece(l):
        e = eta_mp(mp.exp(l - lnc - mp.ln2) - 1)
        return (1 - e) * cnext * y_pow(ehi, l) + e * cout * y_pow(elo, l)

    return (inner_power, ramp_on, ramp, ramp_off, outer_swap,
            return_piece)[piece]


_STIRLING1 = {1: [1], 2: [-1, 1], 3: [2, -3, 1], 4: [-6, 11, -6, 1]}


def highprec_agreement_records(prof: LayerProfile) -> list[CheckRecord]:
    """Gap jets against 50-digit mpmath differentiation of the exact piece
    formulas, one interior point per piece per side, orders 0..4.

    The exact formulas are written in l = ln y (`_mp_piece_formula`), which
    is perfectly scaled at any magnitude, and differentiated in t at
    l = L + t: one `mp.diffs` call per point yields all five t-derivatives
    from seven evaluations, the value and six steps. The Stirling numbers of
    the first kind convert them back to y-derivatives. The relative
    tolerance rel_tol = 2e-6 allows the double-precision noise of the
    smoothstep's third and fourth derivative evaluations (~1e-7);
    structural errors would show as O(1) disagreements.

    One info record per side, `highprec-cancellation-{side}`, states the
    worst cancellation factor sum |terms| / |sum| (`gap_rounding`) over all
    the points and orders looked at, the ones the zero-crossing rule skips
    included; its slack is rel_tol minus the rounding bound there, and it
    always passes.
    """
    import mpmath as mp

    rel_tol = 2e-6
    cx = prof.cx
    records = []
    offsets = {0: 0.5, 1: 0.37, 2: 0.5, 3: 0.61, 4: 0.43, 5: 0.57}
    pts = [(lo + (hi - lo) * offsets[piece], k, piece)
           for (k, piece), lo, hi in zip(prof._refs, prof._edges[:-1],
                                        prof._edges[1:])
           if np.isfinite(hi)]
    L = np.array([p[0] for p in pts])
    with mp.workdps(50):
        for sc in (cx.right, cx.left):
            side, lab = sc.sign, sc.label
            worst = 0.0
            n = 0
            cancel = (0.0, 0.0, "")
            jets = prof.gap_jet_log(side, L, order=4)
            kappa, bound = prof.gap_rounding(side, L, 4)
            for i, (Li, k, piece) in enumerate(pts):
                f = _mp_piece_formula(cx, sc, k, piece)
                Lmp = mp.mpf(Li)
                Fd = list(mp.diffs(lambda t: f(Lmp + t), 0, 4))
                o = int(np.argmax(kappa[:, i]))
                if kappa[o, i] > cancel[0]:
                    cancel = (float(kappa[o, i]), float(bound[o, i]),
                              f"L={Li:.6g},piece={PIECE_NAMES[piece]},"
                              f"order={o}")
                for order in range(5):
                    if order == 0:
                        ref = Fd[0]       # = y^0 f
                    else:
                        ref = mp.fsum(cc * Fd[jj + 1] for jj, cc
                                      in enumerate(_STIRLING1[order]))
                    if ref == 0:
                        continue
                    # ref equals y^order * f^(order); compare in log scale
                    ref_logm = float(mp.log(abs(ref)))
                    got_logm = float(jets[order].logm[i]) + order * Li
                    # skip zero-crossing neighborhoods of high derivatives
                    nat = float(jets[0].logm[i]) + (
                        sum(math.log(sc.e_lo + j) for j in range(order)))
                    if max(ref_logm, got_logm) < nat - 23.0:
                        continue
                    if float(jets[order].sign[i]) != float(mp.sign(ref)):
                        worst = max(worst, 1.0)
                        continue
                    worst = max(worst, abs(math.expm1(got_logm - ref_logm)))
                    n += 1
            _rec(records, f"highprec-derivative-oracle-{lab}",
                 rel_tol - worst, f"n={n},worst={worst:.2e}")
            records.append(CheckRecord(
                id=f"highprec-cancellation-{lab}", passed=True,
                worst_slack=rel_tol - cancel[1],
                location=f"kappa={cancel[0]:.3g},bound={cancel[1]:.2e},"
                         f"{cancel[2]}"))
    return records


def ordering_chain_records(cx: ConstructionConstants) -> list[CheckRecord]:
    """b_k < 2 b_k < c_k/2 < c_k < d_k < a_{k+1} in log arithmetic, all k."""
    records = []
    ln2 = math.log(2.0)
    for k in range(cx.k_max + 1):
        if np.isfinite(cx.lnb[k]) and np.isfinite(cx.lnc[k]):
            chain = [cx.lnb[k], cx.lnb[k] + ln2, cx.lnc[k] - ln2, cx.lnc[k],
                     cx.lnc[k] + ln2, cx.lnc[k] + 2 * ln2]
            slack = float(np.min(np.diff(chain)))
        else:
            # double-log form: ln ln c_k - ln ln b_k = rho > ~ 0 covers the
            # whole chain once e^rho ln b > ln b + 2 ln 2, i.e. rho > small
            slack = cx.rho - math.log1p(
                2 * ln2 * math.exp(-min(cx.lnlnb[k], 700.0)))
        _rec(records, "scale-ordering-chain", slack, f"k={k}")
    return records
