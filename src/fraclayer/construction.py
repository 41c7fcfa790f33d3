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

from .analysis import brent_root
from .cutoffs import (CutoffStats, eta_tilde, logistic_derivs, measure_cutoff,
                      w_weight, w_weight_argmax, z_derivs)
from .errors import (BridgeNotMonotone, LogRangeOverflow, NotBracketed,
                     OutOfPiece, ParamOrderViolated)
from .jets import LogArray, hermite_bridge, jet_compose, leibniz
from .reports import SIDE_LABEL, write_csv

LN2 = math.log(2.0)
MAX_MATERIALIZABLE_LOG = 700.0

PIECE_NAMES = ("inner-power", "ramp-on", "ramp", "ramp-off", "outer-swap",
               "return")


def sufficiency_rho(alpha: float, beta: float, gamma: float, delta: float,
                    stats: CutoffStats) -> float:
    """Smallest gap exponent for which the monotonicity margins are covered,
    with eta_bar/eta_0 = stats.ratio (from measure_cutoff).

    zeta >= 32 (A/B) eta_bar/eta_0 and the mirrored xi condition translate to
    rho >= 32 (eta_bar/eta_0) max{(A/B) ln(A/B), (D/E) ln(D/E)}.
    """
    rab = (gamma - 1.0) / (delta - 1.0)
    rde = (alpha - 1.0) / (beta - 1.0)
    return 32.0 * stats.ratio * max(rab * math.log(rab), rde * math.log(rde))


def threshold_params(s: float, rho_target: float) -> "LayerParams":
    """Desk parameters with beta = delta = 5 whose sufficiency threshold
    lands at rho_target.

    Solves r ln r = rho_target / (32 eta_bar/eta_0) for the exponent ratio r
    in (1, 3] and applies it on both sides, so the returned params run exactly
    at their own threshold. Raises ParamOrderViolated, naming the attainable
    range, when no such r exists.
    """
    stats = measure_cutoff()
    scale = 32.0 * stats.ratio
    c = rho_target / scale
    lo, hi = 1.0 + 1e-15, 3.0
    try:
        r = brent_root(lambda t: t * math.log(t) - c, lo, hi)
    except NotBracketed:
        raise ParamOrderViolated(
            f"rho_target={rho_target!r} is unattainable: r ln r = rho_target"
            f" / (32 eta_bar/eta_0) has a root r in [{lo}, {hi}] only for"
            f" rho_target in [{scale * lo * math.log(lo):.4g}, "
            f"{scale * hi * math.log(hi):.4g}]") from None
    alpha = gamma = 1.0 + 4.0 * r
    rho = sufficiency_rho(alpha, 5.0, gamma, 5.0, stats)
    return LayerParams(s=s, alpha=alpha, beta=5.0, gamma=gamma, delta=5.0,
                       rho=rho)


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

    def side(self, s: int) -> tuple[float, float]:
        """(g, d), larger well exponent first, of the side s = +/-1: the
        right tail and the well at +1 have (gamma, delta), the left tail and
        the well at -1 (alpha, beta)."""
        return (self.gamma, self.delta) if s > 0 else (self.alpha, self.beta)


@dataclass
class SideConstants:
    """One tail side of the construction: the right side comes from the
    wells (gamma, delta) with rates A > B, the left from (alpha, beta) with
    rates D > E."""

    sign: int                    # +1 right, -1 left
    g: float                     # larger well exponent (gamma or alpha)
    d: float                     # smaller well exponent (delta or beta)
    e_hi: float                  # inner exponent 2s/(d-1): A or D
    e_lo: float                  # outer exponent 2s/(g-1): B or E
    zeta: float                  # log-ramp rate (zeta or xi)
    xbar: float                  # critical point of the outer-swap weight
    w_at_xbar: float
    c_out: float                 # C2 or C4
    c_in: np.ndarray | None = None   # C_{1,k} or C_{3,k}, k = 0..k_max+1

    @property
    def label(self) -> str:
        return SIDE_LABEL[self.sign]

    @property
    def touch_exp(self) -> float:
        """T = ((xbar + 1) c_k)^(-touch_exp) is the touch factor of cell k."""
        return self.e_lo * (self.g - self.d)

    def touch_factor(self, lnc_k: float) -> float:
        """T at ln c_k; 0 where c_k is beyond double range."""
        return math.exp(-self.touch_exp * (math.log(1.0 + self.xbar) + lnc_k))

    def inner_constant(self, T: float) -> float:
        """C_in for touch factor T: the swap bracket then collapses to T."""
        return self.c_out - (self.e_lo * self.c_out - T) / self.w_at_xbar

    def phi(self, lnb_k: float, L):
        """The ramp's exponent phi = e_hi (ln b_k / L)^(1/zeta) at L = ln x
        (array ok), in log-log form."""
        return self.e_hi * np.exp((math.log(lnb_k) - np.log(L)) / self.zeta)


def _side_constants(sign: int, s: float, g: float, d: float,
                    rho: float) -> SideConstants:
    """The side's rates, ramp rate and outer constant; c_in is left unset
    until the scales c_k are known."""
    e_hi = 2.0 * s / (d - 1.0)
    e_lo = 2.0 * s / (g - 1.0)
    xbar = w_weight_argmax(e_lo)
    w_at_xbar = float(w_weight(e_lo, np.array([xbar]))[0])
    return SideConstants(
        sign=sign, g=g, d=d, e_hi=e_hi, e_lo=e_lo,
        zeta=rho / math.log(e_hi / e_lo), xbar=xbar, w_at_xbar=w_at_xbar,
        c_out=2.0 * max(1.0 / e_lo, 1.0 / (1.0 - e_lo / w_at_xbar)))


@dataclass
class ConstructionConstants:
    params: LayerParams
    stats: CutoffStats
    rho: float
    a0: float
    lnb: np.ndarray              # ln b_k, k = 0..k_max+1 (inf in paper mode, k>=1)
    lnc: np.ndarray              # ln c_k
    lnlnb: np.ndarray            # ln ln b_k, always finite
    right: SideConstants
    left: SideConstants

    @property
    def k_max(self) -> int:
        return self.params.k_max

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
        rt, lf = self.right, self.left
        return {
            "zeta_ge_32_ratio": rt.zeta >= 32.0 * r * slack,
            "zeta_ge_32_AB_ratio":
                rt.zeta >= 32.0 * (rt.e_hi / rt.e_lo) * r * slack,
            "xi_ge_32_ratio": lf.zeta >= 32.0 * r * slack,
            "xi_ge_32_DE_ratio":
                lf.zeta >= 32.0 * (lf.e_hi / lf.e_lo) * r * slack,
            "zeta": rt.zeta, "xi": lf.zeta, "ratio": r,
        }


def build_constants(params: LayerParams) -> ConstructionConstants:
    """All scale constants of the construction, in log form where needed."""
    p = params
    stats = measure_cutoff()
    if p.mode == "paper":
        rho = 128.0 * stats.ratio
    else:
        rho = p.rho if p.rho is not None else 3.0
    rt, lf = (_side_constants(sg, p.s, *p.side(sg), rho) for sg in (1, -1))
    if not (0.0 < rt.xbar < 1.0 and 0.0 < lf.xbar < 1.0):
        raise ParamOrderViolated("critical points left (0,1)")

    a0 = max(4.0, math.exp(1.0 / rt.e_lo))
    # enlarge until both bridge endpoints are compatible inside (-1, 1)
    def gap(la):
        return rt.c_out * math.exp(-rt.e_hi * la) \
            + lf.c_out * math.exp(-lf.e_hi * la) - 1.8

    if gap(math.log(a0)) > 0.0:
        la = brent_root(gap, math.log(a0), 2000.0)
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

    for sc in (rt, lf):
        sc.c_in = np.array([sc.inner_constant(sc.touch_factor(v))
                            for v in lnc])
    return ConstructionConstants(
        params=p, stats=stats, rho=rho, a0=a0, lnb=lnb, lnc=lnc, lnlnb=lnlnb,
        right=rt, left=lf)


# ---------------------------------------------------------------------------
# piece jets in L = ln y
# ---------------------------------------------------------------------------
#
# On its piece the gap is a blend of one or two terms c w(L) e^(-psi(L)):
# psi is e L or phi(L) L, and the weight w is 1, a cutoff eta(r) or 1 - eta(r),
# or the eta~ coefficient of the outer swap, with r = e^(L - ln s) - 1 for the
# piece's scale s. Each term is carried as ln of its magnitude plus its
# L-derivatives over its value. Those ratios are moderate floats wherever
# ln b_k is finite (every L-derivative of r is r + 1, in [1, 2] on the
# piece), so no y is ever materialized.

EPS = float(np.finfo(float).eps)

# signed Stirling numbers of the first kind: y^k D_y^k = sum_j s(k, j) D_L^j
_STIRLING1 = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0, 0.0, 0.0],
                       [0.0, -1.0, 1.0, 0.0, 0.0],
                       [0.0, 2.0, -3.0, 1.0, 0.0],
                       [0.0, -6.0, 11.0, -6.0, 1.0]])


def _cutoff_rel(r, order: int):
    """ln eta(r), ln(1 - eta(r)) and the L-derivatives of each over its value.

    eta(r) = sigma(z) with z = q/(1-x) - q/x and x = 2 (3/4 - r) clipped to
    [0, 1], so 1 - eta is sigma(-z), and ln sigma(z) = -ln(1 + e^(-z)) never
    rounds a tiny weight to 0. D_L^j r = r + 1 for every j >= 1.
    """
    x = np.minimum(np.maximum(2.0 * (0.75 - r), 0.0), 1.0)
    zx = z_derivs(x, order)
    ln_s, ln_sc = -np.logaddexp(0.0, -zx[0]), -np.logaddexp(0.0, zx[0])
    if order == 0:
        return ln_s, ln_sc, [1.0], [1.0]
    inner = (x > 0.0) & (x < 1.0)
    S, Sc = np.exp(ln_s), np.exp(ln_sc)
    zL = jet_compose(zx, [x] + [-2.0 * (r + 1.0)] * order)
    # sigma^(k) / sigma, and the same for sigma(-z) = 1 - sigma(z); on the
    # plateaus every derivative is 0 (and inf * 0 above)
    rel = [[1.0] + [np.where(inner, v, 0.0) for v in jet_compose(
        [1.0] + logistic_derivs(S, Sc, lead, order), zL)[1:]]
           for lead in (Sc, -S)]
    return ln_s, ln_sc, rel[0], rel[1]


def _power_rel(e: float, order: int) -> list:
    """L-derivatives of e^(-e L) over its value."""
    return [(-e) ** j for j in range(order + 1)]


def _phi_rel(sc: SideConstants, lnb_k: float, L, order: int):
    """psi = phi(L) L with the ramp exponent phi, and the L-derivatives of
    e^(-psi) over its value."""
    psi = sc.phi(lnb_k, L) * L
    if order == 0:
        return psi, [1.0]
    # psi = K L^a with a = 1 - 1/zeta: psi^(j) = psi a (a-1)...(a-j+1) / L^j
    a = 1.0 - 1.0 / sc.zeta
    dpsi, fall = [-psi], -psi
    for j in range(1, order + 1):
        fall = fall * (a - (j - 1)) / L
        dpsi.append(fall)
    return psi, jet_compose([1.0] * (order + 1), dpsi)


def _piece_terms(cx: ConstructionConstants, sc: SideConstants, k: int,
                 piece: int, L, order: int) -> list:
    """The terms of the gap on `piece` of cell k, as a list of
    (ln |term|, [D_L^j term / term for j = 0..order])."""
    lnb_k = cx.lnb[k]
    lnc_k = cx.lnc[k]
    if not math.isfinite(lnb_k) or (piece >= 1 and not math.isfinite(lnc_k)):
        raise LogRangeOverflow(f"cell k={k} not representable in log floats")
    if not 0 <= piece <= 5:
        raise OutOfPiece(f"piece index {piece} out of range")
    lcin = math.log(sc.c_in[k])
    if piece == 0:
        return [(lcin - sc.e_hi * L, _power_rel(sc.e_hi, order))]
    if piece == 2:
        psi, rel = _phi_rel(sc, lnb_k, L, order)
        return [(lcin - psi, rel)]
    ln_s = {1: lnb_k, 3: lnc_k - LN2, 4: lnc_k, 5: lnc_k + LN2}[piece]
    dr = np.exp(L - ln_s)
    r = dr - 1.0
    # junction coordinates are sums of stored logs and carry O(eps * |ln x|)
    # rounding; snapping the cutoff argument to its endpoints within that
    # tolerance makes both sides of every junction evaluate identically
    snap = 32.0 * EPS * np.maximum(1.0, np.abs(L))
    r = np.where(np.abs(r) <= snap, 0.0, r)
    r = np.where(np.abs(r - 1.0) <= snap, 1.0, r)
    if piece == 4:
        dc = sc.c_in[k] - sc.c_out
        coef = jet_compose([eta_tilde(r, m) * dc for m in range(order + 1)],
                           [r] + [dr] * order)
        c0 = coef[0] + sc.c_out
        w = [1.0] + [v / c0 for v in coef[1:]]
        terms = ((np.log(c0) - sc.e_lo * L, _power_rel(sc.e_lo, order), w),)
    else:
        # (1 - eta) off + eta on, each term as (ln |term|, jet over value)
        if piece == 5:
            off = (math.log(sc.c_in[k + 1]) - sc.e_hi * L,
                   _power_rel(sc.e_hi, order))
            on = (math.log(sc.c_out) - sc.e_lo * L, _power_rel(sc.e_lo, order))
        else:
            psi, r_phi = _phi_rel(sc, lnb_k, L, order)
            ramp = (lcin - psi, r_phi)
            if piece == 1:
                off = ramp
                on = (lcin - sc.e_hi * L, _power_rel(sc.e_hi, order))
            else:
                off = (lcin - sc.e_lo * L, _power_rel(sc.e_lo, order))
                on = ramp
        ln_eta, ln_comp, r_eta, r_comp = _cutoff_rel(r, order)
        terms = ((off[0] + ln_comp, off[1], r_comp),
                 (on[0] + ln_eta, on[1], r_eta))
    return [(lam, leibniz(w, p)) for lam, p, w in terms]


def _blend(terms: list, n: int, order: int):
    """Sum the terms over the larger one: (base, d, absd) with
    D_L^j gap = e^base d[j], and absd[j] the sum of |term_j| / e^base."""
    d = np.empty((order + 1, n))
    if len(terms) == 1:
        base, rel = terms[0]
        for j, v in enumerate(rel):
            d[j] = v
        return base, d, np.abs(d)
    (lam1, rel1), (lam2, rel2) = terms
    base = np.maximum(lam1, lam2)
    c1, c2 = np.exp(lam1 - base), np.exp(lam2 - base)
    absd = np.empty_like(d)
    for j in range(order + 1):
        p1, p2 = c1 * rel1[j], c2 * rel2[j]
        d[j] = p1 + p2
        absd[j] = np.abs(p1) + np.abs(p2)
    return base, d, absd


def _y_order(base, d, L, k: int):
    """(sign, ln |g^(k)|) of the k-th y-derivative: y^k g^(k) = e^base u."""
    u = d[0] if k == 0 else _STIRLING1[k, :len(d)] @ d
    return np.sign(u), base - k * L + np.log(np.abs(u))


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

    Evaluation routes by L = ln |x|. The gap 1 -/+ u~ and its first four
    derivatives come from the L-derivatives of each piece's terms, plain
    numpy floats scaled by one log magnitude per point, so every scale where
    ln b_k is finite evaluates without materializing x.
    """

    def __init__(self, cx: ConstructionConstants,
                 bridge_coeffs: list, bridge_knots: list):
        self.cx = cx
        # per bridge piece, its numpy Polynomial and derivatives to order 4
        self.bridge_derivs = [[p.deriv(m) for m in range(5)]
                              for p in bridge_coeffs]
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
        self._inner_edges = self._edges[1:len(refs)]
        self.log_a0 = math.log(cx.a0)
        self._sides = {True: cx.right, False: cx.left}

    # -- routing -----------------------------------------------------------

    def route(self, L: np.ndarray):
        """(k, piece) per point; piece 5 of the last cell extends outward."""
        return np.searchsorted(self._inner_edges, L, side="right")

    # -- gap evaluation ------------------------------------------------------

    def gap_jet_L(self, side: int, L, order: int,
                  piece_override: int | None = None):
        """L-derivatives of G(L) = gap(e^L) on one side, in scaled form.

        Returns (base, d, absd) for the flattened L: D_L^j G = e^base d[j],
        with d of shape (order + 1, L.size), and absd[j] the same sum taken
        over the absolute values of the blended terms.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._gap_L(side, np.asarray(L, dtype=float).ravel(),
                               order, piece_override)

    def _gap_L(self, side, L, order, piece_override=None):
        """`gap_jet_L` on flat L, under the caller's np.errstate."""
        sc = self._sides[side > 0]
        idx = self.route(L) if piece_override is None else \
            np.full(L.shape, piece_override, dtype=int)
        if L.size == 1:
            k, piece = self._refs[int(idx[0])]
            return _blend(_piece_terms(self.cx, sc, k, piece, L, order), 1,
                          order)
        base = np.empty(L.shape)
        d = np.empty((order + 1,) + L.shape)
        absd = np.empty_like(d)
        for j in np.unique(idx):
            k, piece = self._refs[int(j)]
            m = idx == j
            terms = _piece_terms(self.cx, sc, k, piece, L[m], order)
            base[m], d[:, m], absd[:, m] = _blend(
                terms, int(np.count_nonzero(m)), order)
        return base, d, absd

    def gap_jet_log(self, side: int, L: np.ndarray, order: int) -> tuple:
        """y-derivatives 0..order of the gap on one side at L = ln y, as a
        tuple of `LogArray`s of L's shape.

        The L-derivatives of `gap_jet_L` give the y-derivatives through
        y^k g^(k)(y) = sum_j s(k, j) D_L^j G with the Stirling numbers of the
        first kind s(k, j), so ln |g^(k)| = base - k L + ln |sum|.
        """
        L = np.atleast_1d(np.asarray(L, dtype=float))
        Lf = L.ravel()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            base, d, _ = self._gap_L(side, Lf, order)
            jets = [_y_order(base, d, Lf, k) for k in range(order + 1)]
        return tuple(LogArray(sg.reshape(L.shape), lm.reshape(L.shape))
                     for sg, lm in jets)

    def gap_rounding(self, side: int, L, order: int):
        """Cancellation factor and relative rounding bound of each y-order.

        Returns (kappa, bound), each of shape (order + 1, L.size). kappa[k]
        is sum |terms| / |sum| of y^k g^(k): the blended terms through the
        Stirling sum. ln |g^(k)| = base - k L + ln |sum| is rounded by about
        eps (|base| + k |L|), and every cutoff and power argument carries
        rounding eps |L| in L, which the rate R = max_j |D_L^j G / G|^(1/j)
        amplifies; kappa carries both into the sum, so
        bound = 4 eps kappa (1 + |base| + (k + R) |L|).

        It is not batch-invariant: the BLAS matmuls `np.abs(s1) @ absd` and
        `s1 @ d` round by batch shape, so kappa and bound at one L may
        differ in the last bits between a call on that point alone and a
        call on many. The `highprec-cancellation-*` records are unchanged
        either way on the desk and the threshold profiles.
        """
        L = np.asarray(L, dtype=float).ravel()
        base, d, absd = self.gap_jet_L(side, L, order)
        s1 = _STIRLING1[:order + 1, :order + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = (np.abs(s1) @ absd) / np.abs(s1 @ d)
            rate = np.max([np.abs(d[j] / d[0]) ** (1.0 / j)
                           for j in range(1, order + 1)], axis=0,
                          initial=0.0)
        ks = np.arange(order + 1)[:, None]
        bound = 4.0 * EPS * kappa * (1.0 + np.abs(base)
                                     + (ks + rate) * np.abs(L))
        return kappa, bound

    # -- full profile at float x ---------------------------------------------

    def eval(self, x, order: int = 0) -> np.ndarray:
        """u~ (order 0) or its m-th derivative at float points.

        The result has the shape of ``x``, 0-d included, as for every
        ``ProfileFn``: ``quadrature.eval_lk`` reads ``float(u(np.array(x)))``.
        """
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        a0 = self.cx.a0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if x.size == 1:
                # one point (root-finders, eval_lk probes): no masks
                v = x[0]
                if abs(v) < a0:
                    return self._bridge_eval(x, order).reshape(shape)
                return self._utilde(1 if v > 0 else -1, np.log(np.abs(x)),
                                    order).reshape(shape)
            out = np.full_like(x, np.nan)
            mid = np.abs(x) < a0
            if np.count_nonzero(mid):
                out[mid] = self._bridge_eval(x[mid], order)
            for side, m in ((+1, x >= a0), (-1, x <= -a0)):
                if np.count_nonzero(m):
                    out[m] = self._utilde(side, np.log(np.abs(x[m])), order)
        return out.reshape(shape)

    def _utilde(self, side: int, L: np.ndarray, order: int,
                piece_override: int | None = None) -> np.ndarray:
        """u~^(order) at x = side e^L, |x| >= a0, from the gap's L-jet; under
        the caller's np.errstate. The tails of `eval`, the bridge junctions
        and `export_csv` all read u~ here."""
        base, d, _ = self._gap_L(side, L, order, piece_override)
        if order == 0:
            g = np.exp(base) * d[0]
            return 1.0 - g if side > 0 else g - 1.0
        sign, logm = _y_order(base, d, L, order)
        comp = sign * np.exp(logm)
        # d/dx^m of u~: side +: -g^(m)(y); side -: (-1)^m g^(m)(y)
        return -comp if side > 0 else ((-1.0) ** order) * comp

    def _bridge_eval(self, x: np.ndarray, order: int) -> np.ndarray:
        out = np.empty_like(x)
        knots = self.bridge_knots
        for i, ders in enumerate(self.bridge_derivs):
            lo = knots[i]
            hi = knots[i + 1]
            m = (x >= lo) & (x <= hi) if i == 0 else (x > lo) & (x <= hi)
            if np.any(m):
                out[m] = ders[order](x[m])
        return out

    # -- junctions ------------------------------------------------------------

    def junction_mismatches(self) -> list[dict]:
        """Relative mismatch of the gap jets, orders 0-3, across every
        interior junction.

        Both neighbor pieces are evaluated at the junction in L-space: on
        each, y^m g^(m) = e^base (s1 @ d)[m], taken over the larger of the
        two bases, so junctions at any k are checkable without
        materializing x. The bridge ends compare u~^(m) as floats.
        """
        out = []
        orders = range(4)
        s1 = _STIRLING1[:4, :4]
        for side in (+1, -1):
            for j in range(1, len(self._refs)):
                Lj = np.array([self._edges[j]])
                (ba, da, _), (bb, db, _) = (
                    self.gap_jet_L(side, Lj, 3, piece_override=p)
                    for p in (j - 1, j))
                top = max(ba[0], bb[0])
                a = math.exp(ba[0] - top) * (s1 @ da)[:, 0]
                b = math.exp(bb[0] - top) * (s1 @ db)[:, 0]
                rec = {"side": side, "L": float(Lj[0]),
                       "cell": self._refs[j - 1][0],
                       "pieces": (PIECE_NAMES[self._refs[j - 1][1]],
                                  PIECE_NAMES[self._refs[j][1]])}
                for m in orders:
                    diff = abs(a[m] - b[m])
                    rec[f"rel_order_{m}"] = 0.0 if diff == 0.0 else \
                        float(diff / max(abs(a[m]), abs(b[m])))
                rec["worst"] = max(rec[f"rel_order_{m}"] for m in orders)
                out.append(rec)
        # bridge endpoints against the first cells
        for side in (+1, -1):
            rec = {"side": side, "L": self.log_a0, "cell": 0,
                   "pieces": ("bridge", PIECE_NAMES[0])}
            x0 = np.array([side * self.cx.a0])
            L0 = np.array([self.log_a0])
            for m in orders:
                pv = float(self._bridge_eval(x0, m)[0])
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    ov = float(self._utilde(side, L0, m, piece_override=0)[0])
                scale = max(abs(pv), abs(ov), 1e-300)
                rec[f"rel_order_{m}"] = abs(pv - ov) / scale
            rec["worst"] = max(rec[f"rel_order_{m}"] for m in orders)
            out.append(rec)
        return out

    # -- dense sampling --------------------------------------------------------

    def log_samples(self, n: int):
        """n log-spaced sample L's from a0 to the last finite junction."""
        return np.linspace(self.log_a0 * (1 + 1e-9),
                           self._edges[-1] * (1 - 1e-9), n)

    def monotone_report(self, n: int = 10000) -> dict:
        """Sign of u~' at n log-spaced points per side plus the bridge."""
        bad = []
        L = self.log_samples(n)
        for side in (+1, -1):
            d1 = self.gap_jet_log(side, L, order=1)[1]
            # u~' is -g'(y) on both sides, so u~' > 0 needs g' < 0
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

    def export_csv(self, path) -> None:
        """CSV columns: ln_x_signed, utilde, d1, d2, d3, piece, cell.

        400 tail rows per side carry side * ln|x| in the first column. Each
        route segment of positive width between a0 and the last finite
        junction gets an equal share of them, within one and at least one,
        spaced evenly inside it, so every piece has rows: spaced linearly
        in L up to the desk profile's L = 42403, only 7 of 400 had a
        materializable x. The 101 bridge rows (piece -1, cell 0) carry
        asinh(x) there instead."""
        rows = []
        xb = np.linspace(-self.cx.a0 * 0.999, self.cx.a0 * 0.999, 101)
        for xi in xb:
            vals = [float(self._bridge_eval(np.array([xi]), m)[0])
                    for m in range(4)]
            rows.append((math.asinh(xi), *vals, -1, 0))
        lo, hi = self._edges[:-1], self._edges[1:]
        lo, hi = lo[hi > lo], hi[hi > lo]
        share = np.full(len(lo), max(1, 400 // len(lo)))
        share[:max(0, 400 - share.sum())] += 1
        L = np.concatenate([a + (np.arange(m) + 0.5) / m * (b - a)
                            for a, b, m in zip(lo, hi, share)])
        for side in (+1, -1):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                comps = [self._utilde(side, L, m) for m in range(4)]
            for i, (k, piece) in enumerate(self._refs[j]
                                           for j in self.route(L)):
                rows.append((side * float(L[i]),
                             *(float(c[i]) for c in comps), piece, k))
        write_csv(path, ["ln_x_signed", "utilde", "d1", "d2", "d3", "piece",
                         "cell"], rows)


def _bridge_data(cx: ConstructionConstants):
    """Value and first three derivatives of the adjacent pieces at -a0 and
    at +a0: u~ = sign (1 - C_in a0^(-e_hi)) there."""
    a0 = cx.a0
    ends = []
    for sc in (cx.left, cx.right):
        e, c = sc.e_hi, sc.c_in[0]
        ends.append([sc.sign * (1.0 - c * a0 ** (-e)),
                     e * c * a0 ** (-e - 1.0),
                     -sc.sign * e * (e + 1.0) * c * a0 ** (-e - 2.0),
                     e * (e + 1.0) * (e + 2.0) * c * a0 ** (-e - 3.0)])
    return ends


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
