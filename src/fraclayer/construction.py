"""Explicit layer profile with prescribed optimal-decay touchpoints.

The profile interpolates, scale after scale, between the two tail powers
x^-A and x^-B on the right (x^-D and x^-E on the left) through a
log-of-log exponent ramp, so that both envelope rates are attained along
diverging sequences. Scales grow doubly exponentially: the gap exponent rho
sets ln(c_k) = e^rho * ln(b_k).

Two modes:
  desk  -- rho small enough that scales fit IEEE doubles (in log coordinates
           for every k; materialized x only where ln x <= ~709), enabling
           quadrature and reconstruction;
  paper -- rho = 128 * eta_bar / eta_0 as in the source construction; scales
           exist only in double-log form and all checks are reduced-variable
           identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .cutoffs import (BETA44, CutoffStats, eta_derivs, eta_tilde,
                      measure_cutoff, w_weight, w_weight_argmax)
from .errors import (BridgeNotMonotone, LogRangeOverflow, OutOfPiece,
                     ParamOrderViolated)
from .jets import (LOG_OPS, Jet, LogArray, hermite_bridge, jet_compose,
                   jet_const, jet_exp, jet_log, jet_pow, jet_var)

LN2 = math.log(2.0)
MAX_MATERIALIZABLE_LOG = 700.0

PIECE_NAMES = ("inner-power", "ramp-on", "ramp", "ramp-off", "outer-swap",
               "return")


def sufficiency_rho(s: float, alpha: float, beta: float, gamma: float,
                    delta: float, stats: CutoffStats | None = None) -> float:
    """Smallest gap exponent for which the monotonicity margins are covered.

    zeta >= 32 (A/B) eta_bar/eta_0 and the mirrored xi condition translate to
    rho >= 32 (eta_bar/eta_0) max{(A/B) ln(A/B), (D/E) ln(D/E)}.
    """
    stats = stats or measure_cutoff()
    rab = (gamma - 1.0) / (delta - 1.0)
    rde = (alpha - 1.0) / (beta - 1.0)
    return 32.0 * stats.ratio * max(rab * math.log(rab), rde * math.log(rde))


def threshold_params(s: float, beta: float = 5.0, delta: float = 5.0,
                     rho_target: float = 2.05, k_max: int = 3) -> "LayerParams":
    """Parameters whose sufficiency threshold lands at rho_target.

    Solves r ln r = rho_target / (32 eta_bar/eta_0) for the exponent ratio r
    and applies it on both sides, so the returned params run exactly at their
    own threshold.
    """
    stats = measure_cutoff()
    c = rho_target / (32.0 * stats.ratio)
    r = brentq(lambda t: t * math.log(t) - c, 1.0 + 1e-15, 3.0)
    gamma = 1.0 + (delta - 1.0) * r
    alpha = 1.0 + (beta - 1.0) * r
    rho = sufficiency_rho(s, alpha, beta, gamma, delta, stats)
    return LayerParams(s=s, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                       rho=rho, mode="desk", k_max=k_max)


@dataclass(frozen=True)
class LayerParams:
    """Exponent data for the construction; strict oscillation on both sides."""

    s: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    rho: float | None = None     # None: desk default 3.0, paper value in paper mode
    mode: str = "desk"
    k_max: int = 3

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ParamOrderViolated("s must be in (0, 1)")
        if not (self.alpha > self.beta >= 2.0 and self.gamma > self.delta >= 2.0):
            raise ParamOrderViolated("need alpha > beta >= 2, gamma > delta >= 2")
        if not (self.alpha < self.beta + 1.0 and self.gamma < self.delta + 1.0):
            raise ParamOrderViolated("need alpha < beta + 1 and gamma < delta + 1")
        if self.mode not in ("desk", "paper"):
            raise ParamOrderViolated(f"unknown mode {self.mode!r}")
        if self.k_max < 0:
            raise ParamOrderViolated("k_max must be >= 0")


@dataclass
class SideConstants:
    """One tail side of the construction (right: A/B, left: D/E)."""

    e_hi: float                  # inner exponent (A or D)
    e_lo: float                  # outer exponent (B or E)
    zeta: float                  # log-ramp rate (zeta or xi)
    xbar: float                  # critical point of the outer-swap weight
    w_at_xbar: float
    c_out: float                 # C2 or C4
    c_in: np.ndarray             # C_{1,k} or C_{3,k}, k = 0..k_max+1
    touch_exp: float             # e_lo * (gamma - delta) or e_hi... cf below

    def phi(self, k: int, lnx, lnb: np.ndarray):
        """Exponent interpolant at ln x (array ok), stable in log-log form."""
        return self.e_hi * np.exp((np.log(lnb[k]) - np.log(lnx)) / self.zeta)


@dataclass
class ConstructionConstants:
    params: LayerParams
    stats: CutoffStats
    A: float
    B: float
    D: float
    E: float
    rho: float
    zeta: float
    xi: float
    xbar1: float
    xbar2: float
    w1_at_xbar: float
    w2_at_xbar: float
    C2: float
    C4: float
    a0: float
    lnb: np.ndarray              # ln b_k, k = 0..k_max+1 (inf in paper mode, k>=1)
    lnc: np.ndarray              # ln c_k
    lnlnb: np.ndarray            # ln ln b_k, always finite
    C1: np.ndarray               # C_{1,k}, k = 0..k_max+1
    C3: np.ndarray
    beta44: float = BETA44

    @property
    def k_max(self) -> int:
        return self.params.k_max

    def right(self) -> SideConstants:
        p = self.params
        return SideConstants(self.A, self.B, self.zeta, self.xbar1,
                             self.w1_at_xbar, self.C2, self.C1,
                             self.B * (p.gamma - p.delta))

    def left(self) -> SideConstants:
        p = self.params
        return SideConstants(self.D, self.E, self.xi, self.xbar2,
                             self.w2_at_xbar, self.C4, self.C3,
                             self.E * (p.alpha - p.beta))

    def materializable_k(self) -> int:
        """Largest k whose full cell [a_k, a_{k+1}] fits double range."""
        k = -1
        for j in range(self.k_max + 1):
            if self.lnc[j] + 2 * LN2 <= MAX_MATERIALIZABLE_LOG:
                k = j
        return k

    def sufficiency_report(self) -> dict:
        """Which monotonicity hypotheses the chosen rho satisfies."""
        r = self.stats.ratio
        slack = 1.0 - 1e-12
        return {
            "zeta_ge_32_ratio": self.zeta >= 32.0 * r * slack,
            "zeta_ge_32_AB_ratio": self.zeta >= 32.0 * (self.A / self.B) * r * slack,
            "xi_ge_32_ratio": self.xi >= 32.0 * r * slack,
            "xi_ge_32_DE_ratio": self.xi >= 32.0 * (self.D / self.E) * r * slack,
            "zeta": self.zeta, "xi": self.xi, "ratio": r,
        }


def build_constants(params: LayerParams) -> ConstructionConstants:
    """All scale constants of the construction, in log form where needed."""
    p = params
    stats = measure_cutoff()
    A = 2.0 * p.s / (p.delta - 1.0)
    B = 2.0 * p.s / (p.gamma - 1.0)
    D = 2.0 * p.s / (p.beta - 1.0)
    E = 2.0 * p.s / (p.alpha - 1.0)

    if p.mode == "paper":
        rho = 128.0 * stats.ratio
    else:
        rho = p.rho if p.rho is not None else 3.0
    zeta = rho / math.log(A / B)
    xi = rho / math.log(D / E)

    xbar1 = w_weight_argmax(B)
    xbar2 = w_weight_argmax(E)
    if not (0.0 < xbar1 < 1.0 and 0.0 < xbar2 < 1.0):
        raise ParamOrderViolated("critical points left (0,1)")
    w1x = float(w_weight(B, np.array([xbar1]))[0])
    w2x = float(w_weight(E, np.array([xbar2]))[0])
    C2 = 2.0 * max(1.0 / B, 1.0 / (1.0 - B / w1x))
    C4 = 2.0 * max(1.0 / E, 1.0 / (1.0 - E / w2x))

    a0 = max(4.0, math.exp(1.0 / B))
    # enlarge until both bridge endpoints are compatible inside (-1, 1)
    def gap(la):
        return C2 * math.exp(-A * la) + C4 * math.exp(-D * la) - 1.8

    if gap(math.log(a0)) > 0.0:
        la = brentq(gap, math.log(a0), 2000.0)
        a0 = math.exp(la)

    n = p.k_max + 2
    lnb = np.full(n, np.inf)
    lnc = np.full(n, np.inf)
    lnlnb = np.empty(n)
    lnb[0] = math.log(a0 + 1.0)
    lnlnb[0] = math.log(lnb[0])
    exp_rho = math.exp(rho) if rho < 700.0 else np.inf
    for k in range(n):
        if np.isfinite(lnb[k]):
            lnlnb[k] = math.log(lnb[k])
            lnc[k] = exp_rho * lnb[k] if np.isfinite(exp_rho) else np.inf
        else:
            # double-log recursion; the ln(4)/ln(c_k) correction underflows
            lnlnb[k] = rho + lnlnb[k - 1]
        if k + 1 < n:
            if np.isfinite(lnc[k]) and lnc[k] < 7e307:
                lna_next = lnc[k] + 2 * LN2
                lnb[k + 1] = lna_next + math.log1p(math.exp(-min(lna_next, 745.0)))
            else:
                lnb[k + 1] = np.inf

    C1 = np.empty(n)
    for k in range(n):
        t = math.exp(-B * (p.gamma - p.delta) * (math.log(1.0 + xbar1) + lnc[k])) \
            if np.isfinite(lnc[k]) else 0.0
        C1[k] = C2 - (B * C2 - t) / w1x
    C3 = np.empty(n)
    for k in range(n):
        t = math.exp(-E * (p.alpha - p.beta) * (math.log(1.0 + xbar2) + lnc[k])) \
            if np.isfinite(lnc[k]) else 0.0
        C3[k] = C4 - (E * C4 - t) / w2x

    return ConstructionConstants(
        params=p, stats=stats, A=A, B=B, D=D, E=E, rho=rho, zeta=zeta, xi=xi,
        xbar1=xbar1, xbar2=xbar2, w1_at_xbar=w1x, w2_at_xbar=w2x,
        C2=C2, C4=C4, a0=a0, lnb=lnb, lnc=lnc, lnlnb=lnlnb, C1=C1, C3=C3)


# ---------------------------------------------------------------------------
# piece jets
# ---------------------------------------------------------------------------

def _eta_jet(r: Jet, ops, tilde: bool = False, snap_tol=0.0) -> Jet:
    r0 = np.asarray(ops.to_float(r.f[0]), dtype=float)
    # junction coordinates are sums of stored logs and carry O(eps * |ln x|)
    # rounding; snapping the cutoff argument to its endpoints within that
    # tolerance makes both sides of every junction evaluate identically
    r0 = np.where(np.abs(r0) <= snap_tol, 0.0, r0)
    r0 = np.where(np.abs(r0 - 1.0) <= snap_tol, 1.0, r0)
    if tilde:
        outer = [eta_tilde(r0, i) for i in range(r.order + 1)]
    else:
        outer = eta_derivs(r0, r.order)
    if isinstance(r.f[0], LogArray):
        outer = [LogArray.from_float(v) for v in outer]
    return jet_compose(outer, r)


def _pow_jet(Lj: Jet, q: float, ops) -> Jet:
    """x^(-q) as a jet in x, given the jet of ln x."""
    return jet_exp(Lj * (-q), ops)


def _phi_jet(Lj: Jet, side: SideConstants, lnb_k: float, ops) -> Jet:
    """Exponent interpolant phi(x) = e_hi (ln b_k / ln x)^(1/zeta)."""
    coef = side.e_hi * math.exp(math.log(lnb_k) / side.zeta)
    return jet_pow(Lj, -1.0 / side.zeta, ops) * coef


def _gap_piece_jet(cx: ConstructionConstants, side: SideConstants, k: int,
                   piece: int, yj: Jet, Lj: Jet, ops) -> Jet:
    """Jet of the gap g = 1 -/+ u~ on piece `piece` of cell k (y > 0)."""
    lnb_k = cx.lnb[k]
    lnc_k = cx.lnc[k]
    if not np.isfinite(lnb_k) or (piece >= 1 and not np.isfinite(lnc_k)):
        raise LogRangeOverflow(f"cell k={k} not representable in log floats")
    cin = side.c_in[k]
    Lval = np.asarray(ops.to_float(Lj.f[0]), dtype=float)
    snap = 32.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(Lval))
    if piece == 0:
        return _pow_jet(Lj, side.e_hi, ops) * cin
    if piece == 1:
        inv_b = ops.from_log(-lnb_k)
        r = yj * inv_b - 1.0
        et = _eta_jet(r, ops, snap_tol=snap)
        phi_pow = jet_exp(-(_phi_jet(Lj, side, lnb_k, ops) * Lj), ops)
        return ((jet_const(1.0, yj.order) - et) * phi_pow
                + et * _pow_jet(Lj, side.e_hi, ops)) * cin
    if piece == 2:
        phi_pow = jet_exp(-(_phi_jet(Lj, side, lnb_k, ops) * Lj), ops)
        return phi_pow * cin
    if piece == 3:
        inv_chalf = ops.from_log(LN2 - lnc_k)
        r = yj * inv_chalf - 1.0
        et = _eta_jet(r, ops, snap_tol=snap)
        phi_pow = jet_exp(-(_phi_jet(Lj, side, lnb_k, ops) * Lj), ops)
        return ((jet_const(1.0, yj.order) - et) * _pow_jet(Lj, side.e_lo, ops)
                + et * phi_pow) * cin
    if piece == 4:
        inv_c = ops.from_log(-lnc_k)
        r = yj * inv_c - 1.0
        et = _eta_jet(r, ops, tilde=True, snap_tol=snap)
        coef = et * (cin - side.c_out) + side.c_out
        return coef * _pow_jet(Lj, side.e_lo, ops)
    if piece == 5:
        inv_d = ops.from_log(-LN2 - lnc_k)
        r = yj * inv_d - 1.0
        et = _eta_jet(r, ops, snap_tol=snap)
        cnext = side.c_in[k + 1]
        return ((jet_const(1.0, yj.order) - et) * (_pow_jet(Lj, side.e_hi, ops) * cnext)
                + et * (_pow_jet(Lj, side.e_lo, ops) * side.c_out))
    raise OutOfPiece(f"piece index {piece} out of range")


# ---------------------------------------------------------------------------
# assembled profile
# ---------------------------------------------------------------------------

def _cell_boundaries(cx: ConstructionConstants, k: int) -> np.ndarray:
    """ln-coordinates of the seven piece edges of cell k."""
    lna = cx.lnc[k - 1] + 2 * LN2 if k > 0 else math.log(cx.a0)
    return np.array([lna, cx.lnb[k], cx.lnb[k] + LN2, cx.lnc[k] - LN2,
                     cx.lnc[k], cx.lnc[k] + LN2, cx.lnc[k] + 2 * LN2])


class LayerProfile:
    """Piecewise profile: middle bridge, six pieces per cell, per side.

    Evaluation routes by L = ln |x|; the gap 1 -/+ u~ and its first four
    derivatives come from jets over either plain floats (materializable x) or
    signed-log numbers (any scale).
    """

    def __init__(self, cx: ConstructionConstants,
                 bridge_coeffs: list, bridge_knots: list):
        self.cx = cx
        self.bridge_polys = bridge_coeffs      # list of numpy Polynomial
        self.bridge_knots = bridge_knots       # breakpoints in x
        bnds = []
        refs = []
        for k in range(cx.k_max + 1):
            b = _cell_boundaries(cx, k)
            if not np.all(np.isfinite(b)):
                break
            bnds.append(b[:-1])
            refs.extend((k, p) for p in range(6))
        if not bnds:
            raise LogRangeOverflow("no cell is representable; use paper-mode "
                                   "reduced checks instead")
        self._edges = np.concatenate(bnds + [[_cell_boundaries(cx, len(bnds) - 1)[-1]]])
        self._refs = refs
        self.log_a0 = math.log(cx.a0)

    # -- routing -----------------------------------------------------------

    def route(self, L: np.ndarray):
        """(k, piece) per point; piece 5 of the last cell extends outward."""
        j = np.searchsorted(self._edges, L, side="right") - 1
        j = np.clip(j, 0, len(self._refs) - 1)
        return j

    # -- gap evaluation ------------------------------------------------------

    def gap_jet_log(self, side: int, L: np.ndarray, order: int = 4,
                    piece_override: int | None = None) -> Jet:
        """Jet (in y) of the gap on one side at L = ln y, signed-log backend."""
        L = np.atleast_1d(np.asarray(L, dtype=float))
        sc = self.cx.right() if side > 0 else self.cx.left()
        out = [LogArray(np.zeros_like(L), np.full_like(L, -np.inf))
               for _ in range(order + 1)]
        idx = self.route(L) if piece_override is None else \
            np.full(L.shape, piece_override, dtype=int)
        for j in np.unique(idx):
            k, piece = self._refs[int(j)]
            m = idx == j
            yj = jet_var(LogArray.from_log(L[m]), order)
            Lj = jet_log(yj, LOG_OPS)
            gj = _gap_piece_jet(self.cx, sc, k, piece, yj, Lj, LOG_OPS)
            for i in range(order + 1):
                out[i].sign[m] = np.broadcast_to(gj[i].sign, L[m].shape)
                out[i].logm[m] = np.broadcast_to(gj[i].logm, L[m].shape)
        return Jet(tuple(out))

    def gap_logm(self, side: int, L: np.ndarray) -> np.ndarray:
        """ln(gap) fast path (order 0)."""
        return self.gap_jet_log(side, L, order=0)[0].logm

    # -- full profile at float x ---------------------------------------------

    def eval(self, x, order: int = 0) -> np.ndarray:
        """u~ (order 0) or its m-th derivative at float points.

        The result has the shape of ``x``, 0-d included, as for every
        ``ProfileFn``: ``quadrature.eval_lk`` reads ``float(u(np.array(x)))``.
        """
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        out = np.empty_like(x)
        a0 = self.cx.a0
        mid = np.abs(x) < a0
        if np.any(mid):
            out[mid] = self._bridge_eval(x[mid], order)
        for side in (+1, -1):
            m = (~mid) & ((x >= a0) if side > 0 else (x <= -a0))
            if not np.any(m):
                continue
            L = np.log(np.abs(x[m]))
            g = self.gap_jet_log(side, L, order=order)
            comp = g[order].to_float()
            if order == 0:
                out[m] = 1.0 - comp if side > 0 else comp - 1.0
            else:
                # d/dx^m of u~: side +: -g^(m)(y); side -: (-1)^m g^(m)(y)
                out[m] = -comp if side > 0 else ((-1.0) ** order) * comp
        return out.reshape(shape)

    def _bridge_eval(self, x: np.ndarray, order: int) -> np.ndarray:
        out = np.empty_like(x)
        knots = self.bridge_knots
        for i, poly in enumerate(self.bridge_polys):
            lo = knots[i]
            hi = knots[i + 1]
            m = (x >= lo) & (x <= hi) if i == 0 else (x > lo) & (x <= hi)
            if not np.any(m):
                continue
            p = poly
            for _ in range(order):
                p = p.deriv()
            out[m] = p(x[m])
        return out

    # -- junctions ------------------------------------------------------------

    def junction_mismatches(self, orders=(0, 1, 2, 3)) -> list[dict]:
        """Relative mismatch of the gap jets across every interior junction.

        Both neighbor pieces are evaluated at the junction via the signed-log
        backend, so junctions at any k are checkable without materializing x.
        """
        out = []
        for side in (+1, -1):
            for j in range(1, len(self._refs)):
                Lj = np.array([self._edges[j]])
                left = self.gap_jet_log(side, Lj, order=max(orders),
                                        piece_override=j - 1)
                right = self.gap_jet_log(side, Lj, order=max(orders),
                                         piece_override=j)
                rec = {"side": side, "L": float(Lj[0]),
                       "cell": self._refs[j - 1][0],
                       "pieces": (PIECE_NAMES[self._refs[j - 1][1]],
                                  PIECE_NAMES[self._refs[j][1]])}
                worst = 0.0
                for m in orders:
                    a, b = left[m], right[m]
                    diff = a - b
                    ref = max(a.logm[0], b.logm[0])
                    rel = 0.0 if diff.sign[0] == 0.0 else \
                        math.exp(diff.logm[0] - ref)
                    worst = max(worst, rel)
                    rec[f"rel_order_{m}"] = rel
                rec["worst"] = worst
                out.append(rec)
        # bridge endpoints against the first cells
        for side, x0 in ((+1, self.cx.a0), (-1, -self.cx.a0)):
            rec = {"side": side, "L": self.log_a0, "cell": 0,
                   "pieces": ("bridge", PIECE_NAMES[0])}
            worst = 0.0
            for m in orders:
                pv = float(self._bridge_eval(np.array([x0]), m)[0])
                g = self.gap_jet_log(side, np.array([self.log_a0]), order=m,
                                     piece_override=0 if side > 0 else 0)
                comp = float(g[m].to_float()[0])
                if m == 0:
                    ov = 1.0 - comp if side > 0 else comp - 1.0
                else:
                    ov = -comp if side > 0 else ((-1.0) ** m) * comp
                scale = max(abs(pv), abs(ov), 1e-300)
                rel = abs(pv - ov) / scale
                worst = max(worst, rel)
                rec[f"rel_order_{m}"] = rel
            rec["worst"] = worst
            out.append(rec)
        return out

    # -- dense sampling --------------------------------------------------------

    def log_samples(self, side: int, n: int, L_hi: float | None = None):
        """n log-spaced sample L's from a0 to the last finite junction."""
        lo = self.log_a0
        hi = L_hi if L_hi is not None else self._edges[-1]
        return np.linspace(lo * (1 + 1e-9), hi * (1 - 1e-9), n)

    def monotone_report(self, n: int = 10000) -> dict:
        """Sign of u~' at n log-spaced points per side plus the bridge."""
        bad = []
        for side in (+1, -1):
            L = self.log_samples(side, n)
            d1 = self.gap_jet_log(side, L, order=1)[1]
            # u~' = -g'(y) on the right, +(-1) g'(y)... both sides need g' < 0
            ok = d1.sign < 0
            if not np.all(ok):
                bad.extend((side, float(l)) for l in L[~ok][:5])
        xb = np.linspace(-self.cx.a0, self.cx.a0, n)
        db = self._bridge_eval(xb, 1)
        if not np.all(db > 0):
            bad.extend((0, float(v)) for v in xb[db <= 0][:5])
        return {"monotone": not bad, "violations": bad,
                "sufficiency": self.cx.sufficiency_report()}

    # -- export -----------------------------------------------------------------

    def export_csv(self, path, n_per_side: int = 400) -> None:
        """CSV columns: ln_x, utilde, d1, d2, d3, piece, cell (signed side)."""
        rows = []
        xb = np.linspace(-self.cx.a0 * 0.999, self.cx.a0 * 0.999, 101)
        for xi in xb:
            vals = [float(self._bridge_eval(np.array([xi]), m)[0])
                    for m in range(4)]
            rows.append((math.asinh(xi), *vals, -1, 0))
        for side in (+1, -1):
            L = self.log_samples(side, n_per_side)
            g = self.gap_jet_log(side, L, order=3)
            idx = self.route(L)
            for i, l in enumerate(L):
                comps = []
                for m in range(4):
                    v = float(g[m].to_float()[i])
                    if m == 0:
                        comps.append(1.0 - v if side > 0 else v - 1.0)
                    else:
                        comps.append(-v if side > 0 else ((-1.0) ** m) * v)
                k, piece = self._refs[int(idx[i])]
                rows.append((side * l, *comps, piece, k))
        import csv as _csv
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["ln_x_signed", "utilde", "d1", "d2", "d3",
                        "piece", "cell"])
            for r in rows:
                w.writerow([f"{v:.17g}" if isinstance(v, float) else v
                            for v in r])


def _bridge_data(cx: ConstructionConstants):
    """Value and first three derivatives of the adjacent pieces at +/- a0."""
    a0 = cx.a0
    gr = cx.C1[0] * a0 ** (-cx.A)
    right = [1.0 - gr,
             cx.A * cx.C1[0] * a0 ** (-cx.A - 1.0),
             -cx.A * (cx.A + 1.0) * cx.C1[0] * a0 ** (-cx.A - 2.0),
             cx.A * (cx.A + 1.0) * (cx.A + 2.0) * cx.C1[0] * a0 ** (-cx.A - 3.0)]
    gl = cx.C3[0] * a0 ** (-cx.D)
    left = [-1.0 + gl,
            cx.D * cx.C3[0] * a0 ** (-cx.D - 1.0),
            cx.D * (cx.D + 1.0) * cx.C3[0] * a0 ** (-cx.D - 2.0),
            cx.D * (cx.D + 1.0) * (cx.D + 2.0) * cx.C3[0] * a0 ** (-cx.D - 3.0)]
    return left, right


def build_profile(params: LayerParams,
                  cx: ConstructionConstants | None = None) -> LayerProfile:
    """Assemble the profile; the middle bridge is a degree-7 Hermite fit.

    If the bridge derivative goes nonpositive, one interior knot at 0 is
    inserted and the two halves re-solved; a second failure raises
    BridgeNotMonotone with the offending gap exponent.
    """
    cx = cx or build_constants(params)
    left, right = _bridge_data(cx)
    a0 = cx.a0
    poly = hermite_bridge(-a0, a0, left, right)
    xs = np.linspace(-a0, a0, 10001)
    if np.all(poly.deriv()(xs) > 0.0):
        return LayerProfile(cx, [poly], [-a0, a0])
    # knot insertion: pin the midpoint value and a positive slope
    vmid = 0.5 * (left[0] + right[0])
    smid = max((right[0] - left[0]) / (2.0 * a0), min(left[1], right[1]))
    mid = [vmid, smid, 0.0, 0.0]
    p1 = hermite_bridge(-a0, 0.0, left, mid)
    p2 = hermite_bridge(0.0, a0, mid, right)
    ok = np.all(p1.deriv()(np.linspace(-a0, 0, 5001)) > 0.0) and \
        np.all(p2.deriv()(np.linspace(0, a0, 5001)) > 0.0)
    if not ok:
        raise BridgeNotMonotone(
            f"bridge not monotone at rho={cx.rho:.6g}; widen the gap exponent")
    return LayerProfile(cx, [p1, p2], [-a0, 0.0, a0])
