"""Principal-value evaluation of the nonlocal operator on analytic profiles.

The operator is evaluated through the second-order increment form

    L u(x) = integral_0^inf (u(x+z) + u(x-z) - 2 u(x)) K(z) dz,

which mirrors the +z and -z contributions pairwise, so odd-part cancellation
is exact. The singular cell [0, r0] uses the profile's analytic u''; a profile
without it is taken as merely Lipschitz, integrable only for 2s < 1, with the
cell's whole contribution charged to the error. The far field beyond the
truncation radius is replaced by the analytic contribution of the profile's
tail model: per side s = +1, -1, limit + c |x + s z|^(-p), with the model's
misfit at three probe radii charged to the error.

For an oscillatory tail u = mean + g under a power kernel, the far field
beyond z1 is integrated by parts once against the zero-mean antiderivative U
of g: the boundary term K(z1) (U(x - z1) - U(x + z1)) is added exactly, and
the second mean-value theorem bounds the remainder by
4 amp (T/2pi)^2 |K'(z1)|, since |K'| falls. So z1 grows like
tol^(-1/(2+2s)). A tabulated-perturbation kernel may have no K', so there
the far field is only bounded, by 4 amp Lam z1^(-1-2s) T/2pi, and z1 grows
like tol^(-1/(1+2s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (NonIntegrable, PanelBudgetExceeded, RegularityMismatch,
                     TruncationDominates)
from .kernels import KernelSpec
from .panels import panel_integrals
from .profiles import OscillatoryTail, ProfileFn
from .reports import CheckRecord

# Coarse panels per block of the streamed panel sums: a block's abscissae,
# (_BLOCK, 12) at the default node count, take about 200 KB (the refined
# block's twice that).
_BLOCK = 2048
# Most refined panels one eval_lk call may lay out.
_PANEL_BUDGET = 2 ** 22


@dataclass(frozen=True)
class QuadConfig:
    """Panel layout and truncation for the increment quadrature."""

    r0: float | None = None            # default 1e-3 * (1 + |x|), at most
                                       # 1e-2 T/2pi on an oscillatory tail
    panels_per_decade: int = 6
    nodes_per_panel: int = 12
    Z: float | None = None             # default 1e6 * (1 + |x|)
    tol: float = 1e-9

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError("need at least 2 Gauss nodes per panel")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.r0 is not None and self.Z is not None and self.r0 >= self.Z:
            raise ValueError("need r0 < Z")


@dataclass(frozen=True)
class OpValue:
    """L u(x) with its error budget by component.

    panel_err: coarse against refined panel sums; sing_err: variation of u''
    across the singular cell; tail_err: far-field remainder bound;
    n_panels: panels in the refined sum that gives the value.
    """

    value: float
    panel_err: float
    sing_err: float
    tail_err: float
    n_panels: int

    def __post_init__(self):
        if not math.isfinite(self.error) or self.error < 0:
            raise ValueError("error estimate must be finite and >= 0")

    @property
    def error(self) -> float:
        return self.panel_err + self.sing_err + self.tail_err


def _panel_edges(r0: float, z1: float, per_decade: int) -> np.ndarray:
    n = max(2, int(math.ceil(math.log10(z1 / r0) * per_decade)))
    return np.geomspace(r0, z1, n + 1)


def _insert_feature_edges(edges: np.ndarray, u: ProfileFn,
                          x: float) -> np.ndarray:
    """Refine panels where x+z or x-z crosses a profile feature.

    Around the crossing z* = |x - c| the increment sweeps the profile
    logarithmically in y - c, so besides a core window of 48 equal panels
    the edges are mirrored log ladders, 6 per decade, on both sides of z*.
    """
    lo, hi = edges[0], edges[-1]
    extra = []
    for c, w in u.features:
        zc = abs(x - c)
        if not (lo < zc < hi):
            continue
        w_eff = max(w, 1e-6 * zc)
        a = max(lo, zc - 1.5 * w_eff)
        b = min(hi, zc + 1.5 * w_eff)
        if b > a:
            extra.append(np.linspace(a, b, 49))
        if zc > 8.0 * w_eff:
            n = max(2, int(6 * math.log10(zc / (2.0 * w_eff))))
            d = np.geomspace(1.5 * w_eff, zc / 2.0, n)
            for off in (zc - d, zc + d):
                m = (off > lo) & (off < hi)
                if np.any(m):
                    extra.append(off[m])
    if not extra:
        return edges
    return np.unique(np.concatenate([edges] + extra))


def _panel_sums(kern: KernelSpec, u: ProfileFn, x: float, ux: float,
                edges: np.ndarray, nodes: int) -> tuple[float, float, int]:
    """Coarse and refined panel sums of the increment, and the refined count.

    The refined panels split each coarse panel at its geometric midpoint; a
    midpoint that rounds onto an edge would give a zero-width panel and is
    dropped. One pass walks the edges in blocks of _BLOCK coarse panels and
    builds each block's refined edges by interleaving, so memory stays
    O(_BLOCK) however many panels there are.
    """
    def increment(z):
        return (u(x + z) + u(x - z) - 2.0 * ux) * kern.k(z)

    coarse = fine = 0.0
    n_fine = 0
    for i in range(0, len(edges) - 1, _BLOCK):
        e = edges[i:i + _BLOCK + 1]
        f = np.empty(2 * len(e) - 1)
        f[0::2] = e
        f[1::2] = np.sqrt(e[:-1] * e[1:])
        keep = f[1:] != f[:-1]
        if not keep.all():
            f = np.concatenate((f[:1], f[1:][keep]))
        coarse += float(np.sum(panel_integrals(increment, e[:-1], e[1:],
                                               nodes)))
        fine += float(np.sum(panel_integrals(increment, f[:-1], f[1:],
                                             nodes)))
        n_fine += len(f) - 1
    return coarse, fine, n_fine


def eval_lk(kernel: KernelSpec, u: ProfileFn, x: float,
            cfg: QuadConfig) -> OpValue:
    """Approximate L u(x) with an a posteriori error estimate.

    The estimate combines the panel-refinement difference, the variation of
    u'' across the singular cell, and the analytic tail remainder bound.
    Raises NonIntegrable when u offers no second-derivative data at
    2s >= 1, and TruncationDominates when the tail remainder alone
    exceeds the configured tolerance; both are raised before any panel is
    laid out.

    The coarse and refined panel sums stream over the panels in fixed-size
    blocks, so memory is O(block) whatever the panel count. An oscillatory
    far field lays out about z1 / (T/2) panels, with z1 from the tail bound
    (module docstring): under a power kernel z1 / T grows like
    w^(s/(1+s)) tol^(-1/(2+2s)) in the frequency w = 2pi/T, under a
    tabulated perturbation like w^(2s/(1+2s)) tol^(-1/(1+2s)). The count is
    taken first, and PanelBudgetExceeded is raised when the refined sum would
    need more than _PANEL_BUDGET panels: s = 0.5, w = 1e8, tol = 1e-12 needs
    9.4M under the pure power kernel. Unless cfg.r0 is set, an oscillatory
    profile's singular cell is kept below T/(200 pi), so it never spans
    enough of a period to alias the variation of u''.
    """
    x = float(x)
    osc = isinstance(u.tail, OscillatoryTail)
    r0 = cfg.r0
    if r0 is None:
        r0 = 1e-3 * (1.0 + abs(x))
        if osc:
            # a cell as wide as the wave would alias its u'' variation
            r0 = min(r0, 1e-2 * u.tail.osc_scale / (2 * np.pi))
    Z = cfg.Z if cfg.Z is not None else 1e6 * (1.0 + abs(x))
    if r0 >= Z:
        raise ValueError("need r0 < Z")

    ux = float(u(np.array(x)))

    # ---- singular cell -------------------------------------------------
    mom2 = kernel.second_moment_integral(r0)
    if u.has_deriv(2):
        d2 = u.deriv(2)
        u2 = float(d2(np.array(x)))
        var = max(abs(float(d2(np.array(x + r0))) - u2),
                  abs(float(d2(np.array(x - r0))) - u2))
        sing = u2 * mom2
        sing_err = var * mom2
    elif 2.0 * kernel.s < 1.0:
        # merely Lipschitz: the increment is O(z) K(z), still integrable;
        # the quadratic-fit cell correction vanishes as r0 -> 0 but is not
        # trusted, so it is charged to the error in full
        h = r0 / 2.0
        u2 = float((u(np.array(x + h)) + u(np.array(x - h)) - 2.0 * ux)
                   / h ** 2)
        sing = u2 * mom2
        sing_err = abs(sing) + abs(u2) * mom2
    else:
        raise NonIntegrable(f"{u.name}: no C^2 data at x={x} and 2s >= 1")

    # ---- oscillatory far-field shortens the panel section ----------------
    z1 = Z
    if osc:
        T = u.tail.osc_scale
        amp = u.tail.amplitude
        target = max(cfg.tol, 1e-12) / 4.0
        dk1 = kernel.abs_dk(1.0)
        if dk1 is None:
            # first order: |int_z1^inf (osc) K| <= 4 amp Lam z1^(-1-2s) T/2pi
            coef = 4.0 * amp * kernel.Lam * T / (2 * np.pi)
            q = 1.0 + 2 * kernel.s
        else:
            # second order, past the boundary term below:
            # |R| <= 4 amp (T/2pi)^2 |K'(z1)|, |K'| = dk1 z^(-2-2s)
            coef = 4.0 * amp * (T / (2 * np.pi)) ** 2 * float(dk1)
            q = 2.0 + 2 * kernel.s
        z1 = min(Z, max((coef / target) ** (1.0 / q), 10.0 * r0))

    # ---- far field (checked before any panel is laid out) ---------------
    tail_val = 0.0
    tail_err = 0.0
    ktail = kernel.tail_integral(z1)
    if osc:
        tail_val = (2.0 * u.tail.mean - 2.0 * ux) * ktail
        tail_err = coef * z1 ** -q
        if dk1 is not None:
            # int_z1^inf (g(x+z) + g(x-z)) K dz, g = u - mean, by parts once:
            # K(z1) (U(x-z1) - U(x+z1)) + int (U(x-z) - U(x+z)) K'; the second
            # mean-value theorem bounds the remainder by tail_err, since |K'|
            # falls and U(x-z) - U(x+z) = -d/dz (V(x-z) + V(x+z))
            ends = u.tail.antiderivative(np.array([x - z1, x + z1]))
            tail_val += float(kernel.k(z1)) * float(ends[0] - ends[1])
    else:
        left, right = u.tail
        tail_val = (right.limit + left.limit - 2.0 * ux) * ktail
        # charge the measured model misfit at 3 probe radii to the error
        probes = z1 * np.array([1.0, 3.0, 10.0])
        probes = probes[x + probes < 1e306]
        misfits = []
        for s, m in ((1.0, right), (-1.0, left)):
            if z1 <= -s * x:      # |x + s z| would vanish beyond z1
                continue
            if m.c != 0.0:
                # u(x + s z) = limit + c |x + s z|^-p beyond the truncation
                tail_val += m.c * kernel.power_tail_integral(z1, x, m.p, s)
            if len(probes):
                model = m.limit + m.c * (s * x + probes) ** (-m.p)
                misfits.append(float(np.max(np.abs(u(x + s * probes)
                                                   - model))))
        tail_err = (2.0 * max(misfits, default=0.0) * ktail * kernel.Lam
                    / max(kernel.lam, 1e-300))

    if tail_err > cfg.tol:
        raise TruncationDominates(
            f"tail remainder {tail_err:.3e} exceeds tolerance {cfg.tol:.3e}")

    # ---- panel section ---------------------------------------------------
    edges = _panel_edges(r0, z1, cfg.panels_per_decade)
    if osc:
        # cap panel width at half the oscillation scale, counting first
        half = 0.5 * T
        widths = np.diff(edges)
        pieces = np.where(widths > half, np.ceil(widths / half), 1.0)
        n_refined = 2.0 * float(np.sum(pieces))
        if n_refined > _PANEL_BUDGET:
            raise PanelBudgetExceeded(
                f"{u.name} at x={x:g}, s={kernel.s:g}, tol={cfg.tol:g} needs "
                f"{n_refined:.4g} refined panels, above the budget of "
                f"{_PANEL_BUDGET}; raise the tolerance or lower the frequency")
        edges = np.concatenate([edges[:1]] + [
            np.linspace(a, b, int(k) + 1)[1:] if k > 1 else [b]
            for a, b, k in zip(edges[:-1], edges[1:], pieces)])
    edges = _insert_feature_edges(edges, u, x)

    coarse, main, n_panels = _panel_sums(kernel, u, x, ux, edges,
                                         cfg.nodes_per_panel)
    return OpValue(value=main + sing + tail_val, panel_err=abs(main - coarse),
                   sing_err=sing_err, tail_err=tail_err, n_panels=n_panels)


@dataclass
class CommutationReport:
    discrepancies: list[float]
    tolerance: float
    passed: bool


def check_derivative_commutation(kernel: KernelSpec, u: ProfileFn,
                                 xs: Sequence[float], h: float,
                                 cfg: QuadConfig) -> CommutationReport:
    """Compare d/dx [L u] (central difference, spacing h) with L u'; the
    report passes when every discrepancy is below 1e-4.

    For 2s >= 1 the identity needs one more derivative order from u, so the
    profile must supply u'' as well as u'.
    """
    if not u.has_deriv(1):
        raise RegularityMismatch(f"{u.name}: u' required")
    if 2.0 * kernel.s >= 1.0 and not u.has_deriv(2):
        raise RegularityMismatch(f"{u.name}: 2s >= 1 needs C^2 data")
    du = u.derivative_profile()
    out = []
    for x in xs:
        lhs = (eval_lk(kernel, u, x + h, cfg).value
               - eval_lk(kernel, u, x - h, cfg).value) / (2.0 * h)
        rhs = eval_lk(kernel, du, x, cfg).value
        out.append(abs(lhs - rhs))
    return CommutationReport(discrepancies=out, tolerance=1e-4,
                             passed=all(d < 1e-4 for d in out))


HOLDER_CAP_MULTIPLE = 50.0   # the Hölder-transfer cap over Lam * seminorm


def check_holder_transfer(kernel: KernelSpec, u: ProfileFn,
                          pairs: Sequence[tuple[float, float]],
                          alpha: float, seminorm: float,
                          cfg: QuadConfig) -> CheckRecord:
    """Empirical Hölder-transfer check (boundedness only, constant untracked).

    For each pair takes |L u(x1) - L u(x2)| / |x1 - x2|^(alpha - 2s); the
    record `holder-transfer-cap` passes when no ratio exceeds
    cap = HOLDER_CAP_MULTIPLE * Lam * seminorm, with slack cap - max(ratios).
    The exponent alpha - 2s must be positive (case 2s < alpha <= 1).
    """
    if alpha - 2.0 * kernel.s <= 0:
        raise ValueError("need alpha > 2s for the transfer exponent")
    if not pairs:
        raise ValueError("need at least one pair")
    cap = HOLDER_CAP_MULTIPLE * kernel.Lam * seminorm
    ratios = []
    for x1, x2 in pairs:
        if x1 == x2:
            raise ValueError("pair points must be distinct")
        d = abs(eval_lk(kernel, u, x1, cfg).value
                - eval_lk(kernel, u, x2, cfg).value)
        ratios.append(d / abs(x1 - x2) ** (alpha - 2.0 * kernel.s))
    return CheckRecord("holder-transfer-cap", all(r <= cap for r in ratios),
                       cap - max(ratios))
