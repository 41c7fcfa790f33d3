"""Barrier profiles and their operator sign/asymptotics checks.

Two families:
  StepBarrier  -- piecewise constant levels with a power approach to 1;
                  its rescaled operator value x^(2s) L phi is eventually
                  below a negative constant.
  TailBarrier  -- a C^(1,1) positive bump with power tails; |x|^(1+2s) L phi
                  converges to a bracket [lam * S, Lam * S] built from the
                  tail constants and the interior mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import eta_derivs
from .errors import (ExponentNotIntegrable, FlatnessViolated,
                     InvariantViolated, QuadratureNearJump)
from .jets import leibniz
from .kernels import KernelSpec, fractional_kernel
from .panels import panel_integrals
from .profiles import PowerTail, ProfileFn
from .quadrature import QuadConfig, eval_lk


@dataclass(frozen=True)
class StepBarrier:
    """B for x <= 0, D on (0, xbar), 1 - alpha x^(-A) beyond."""

    xbar: float
    alpha: float
    A: float
    B: float
    D: float

    def __post_init__(self):
        if self.xbar < 1.0:
            raise InvariantViolated("xbar must be >= 1")
        if self.alpha <= 0 or self.A <= 0:
            raise InvariantViolated("alpha and A must be positive")
        cap = 1.0 - self.alpha * self.xbar ** (-self.A)
        if self.B > cap + 1e-15 or self.D > cap + 1e-15:
            raise InvariantViolated("need B, D <= 1 - alpha xbar^(-A)")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where(y <= 0.0, self.B, self.D)
        tail = y >= self.xbar
        out = np.where(tail, 1.0 - self.alpha *
                       np.where(tail, y, 1.0) ** (-self.A), out)
        return out


@dataclass
class TailBarrier:
    """Positive C^(1,1) body with two-sided power tails outside [-kappa, kappa]."""

    Cbar: float
    kappa: float
    sigma: float
    tau: float
    gamma_low: float
    body: ProfileFn

    def __post_init__(self):
        if min(self.sigma, self.tau) <= 1.0:
            raise ExponentNotIntegrable("tail exponents must exceed 1")
        if self.Cbar <= 0 or self.kappa <= 0 or self.gamma_low <= 0:
            raise InvariantViolated("Cbar, kappa, gamma_low must be positive")

    def interior_mass(self) -> float:
        return float(panel_integrals(self.body, -self.kappa, self.kappa, 64))

    def bracket_base(self) -> float:
        """S = Cbar kappa^(1-sigma)/(sigma-1) + int phi + Cbar kappa^(1-tau)/(tau-1)."""
        k = self.kappa
        return (self.Cbar * k ** (1.0 - self.sigma) / (self.sigma - 1.0)
                + self.interior_mass()
                + self.Cbar * k ** (1.0 - self.tau) / (self.tau - 1.0))


# ---------------------------------------------------------------------------
# step barrier operator value
# ---------------------------------------------------------------------------

def step_barrier_operator(kernel: KernelSpec, b: StepBarrier,
                          x: float) -> float:
    """L phi(x) for x >= 2 xbar, with panels aligned to the jumps."""
    if x < 2.0 * b.xbar:
        raise ValueError("evaluation points must satisfy x >= 2 xbar")
    r0 = 1e-4 * x
    if min(abs(x - b.xbar), abs(x)) < 4.0 * r0:
        raise QuadratureNearJump(f"x={x} too close to a barrier jump")
    phx = 1.0 - b.alpha * x ** (-b.A)
    total = (b.B - phx) * kernel.tail_integral(x)
    total += (b.D - phx) * kernel.interval_integral(x - b.xbar, x)

    def panel_sum(d_max, side):
        # 8 log panels per decade of the distance d to x, 12 nodes each
        edges = np.geomspace(r0, d_max,
                             max(2, int(8 * math.log10(d_max / r0))) + 1)

        def increment(d):
            y = x + side * d
            return b.alpha * (x ** (-b.A) - y ** (-b.A)) * kernel.k(d)

        return float(np.sum(panel_integrals(increment, edges[:-1], edges[1:],
                                            12)))

    # left of x down to xbar, right of x up to the truncation radius
    total += panel_sum(x - b.xbar, -1.0)
    Z = 1e6 * x
    total += panel_sum(Z - x, +1.0)
    # singular cell: second-order increment of the smooth power piece
    total += -b.alpha * b.A * (b.A + 1.0) * x ** (-b.A - 2.0) \
        * kernel.second_moment_integral(r0)
    # beyond the truncation radius
    total += b.alpha * (x ** (-b.A) * kernel.tail_integral(Z - x)
                        - kernel.power_tail_integral(Z - x, x, b.A, 1.0))
    return total


@lru_cache(maxsize=16)
def step_constant_cap(s: float, lam: float = 1.0, Lam: float = 1.0) -> float:
    """Empirical constant for the step-barrier tail estimate.

    Twice the worst residual of the pure power kernel at xbar = 1 over a
    grid of barrier shapes and evaluation points; the barrier check is
    one-sided with this cap.
    """
    kern = fractional_kernel(s, lam, Lam)
    worst = 0.0
    for A in (0.2, 0.5, 1.0):
        for alpha in (0.05, 0.3):
            bar = StepBarrier(xbar=1.0, alpha=alpha, A=A, B=0.0,
                              D=1.0 - alpha - 1e-9)
            for x in (2.0, 5.0, 20.0, 200.0, 5e3):
                v = x ** (2.0 * s) * step_barrier_operator(kern, bar, x)
                resid = (v + lam * (1.0 - bar.B) / (2.0 * s)) * x ** A / alpha
                worst = max(worst, resid)
    return 2.0 * worst


@dataclass
class StepBarrierReport:
    values: list[float]          # x^(2s) L phi(x)
    bound: list[float]           # -lam(1-B)/(2s) + alpha C_cap x^(-A)
    passed: bool
    negative: bool


def verify_step_barrier(kernel: KernelSpec, b: StepBarrier, xs,
                        c_cap: float) -> StepBarrierReport:
    """Check x^(2s) L phi <= -lam(1-B)/(2s) + alpha C_cap x^(-A), x >= 2 xbar,
    with C_cap = c_cap (step_constant_cap gives the calibrated one)."""
    xs = [float(x) for x in xs]
    if any(x < 2.0 * b.xbar for x in xs):
        raise ValueError("evaluation points must satisfy x >= 2 xbar")
    vals, bnds = [], []
    for x in xs:
        v = x ** (2.0 * kernel.s) * step_barrier_operator(kernel, b, x)
        bound = -kernel.lam * (1.0 - b.B) / (2.0 * kernel.s) \
            + b.alpha * c_cap * x ** (-b.A)
        vals.append(v)
        bnds.append(bound)
    passed = all(v <= bnd for v, bnd in zip(vals, bnds))
    return StepBarrierReport(values=vals, bound=bnds, passed=passed,
                             negative=all(v < 0 for v in vals))


def lower_bound_barrier(s: float, exponent: float, xbar: float,
                        u_at_xbar: float, u_at_2xbar: float, lam: float,
                        c_step: float, c_tilde: float) -> StepBarrier:
    """Comparison barrier with levels taken from the profile being bounded.

    exponent is the outer well power (the slow-side one); alpha is the
    smallest of the three admissible choices, so the barrier sits above the
    profile up to 2 xbar and the invariant holds by construction.
    """
    if xbar < 2.0:
        raise ValueError("xbar must be >= 2")
    if not (0.0 < u_at_xbar < 1.0 and 0.0 < u_at_2xbar < 1.0):
        raise ValueError("profile values must lie in (0, 1)")
    A = 2.0 * s / (exponent - 1.0)
    abar = min((1.0 - u_at_2xbar) * xbar ** A,
               lam / (8.0 * c_step),
               (lam / (8.0 * c_tilde)) ** (1.0 / (exponent - 1.0)))
    bar = StepBarrier(xbar=xbar, alpha=abar, A=A, B=0.5, D=u_at_xbar)
    return bar


# ---------------------------------------------------------------------------
# tail barrier asymptotics
# ---------------------------------------------------------------------------

def flatness_proxy(tb: TailBarrier, x: float) -> float:
    """x^3 * max |phi''| at 33 points of [x/2, 3x/2] (mirrored for x < 0)."""
    d2 = tb.body.deriv(2)
    lo, hi = (x / 2, 3 * x / 2) if x > 0 else (3 * x / 2, x / 2)
    ys = np.linspace(lo, hi, 33)
    return abs(x) ** 3 * float(np.max(np.abs(d2(ys))))


@dataclass
class LimitReport:
    estimate: float
    bound: float
    passed: bool


def asymptotic_operator_limit(kernel: KernelSpec, tb: TailBarrier, xs,
                              orientation: str) -> LimitReport:
    """Extrapolated |x|^(1+2s) L phi against the tail-mass bound.

    orientation 'upper': limit <= 1.05 Lam S; 'lower': limit >= 0.95 lam S.
    L phi is evaluated to tolerance 1e-7. The extrapolation is a linear fit
    in x^(-e), e = min(sigma, tau, 1), through the last three points.
    """
    xs = sorted(float(x) for x in xs)
    if not xs:
        raise ValueError("xs must be nonempty")
    if orientation not in ("upper", "lower"):
        raise ValueError("orientation must be 'upper' or 'lower'")
    proxies = [flatness_proxy(tb, x) for x in xs]
    if any(b > a * 1.2 + 1e-12 for a, b in zip(proxies, proxies[1:])):
        raise FlatnessViolated(
            f"x^3 sup|phi''| fails to decrease: {proxies}")
    cfg = QuadConfig(tol=1e-7)
    scaled = []
    for x in xs:
        ov = eval_lk(kernel, tb.body, x, cfg)
        scaled.append(abs(x) ** (1.0 + 2.0 * kernel.s) * ov.value)
    if len(xs) >= 3:
        e = min(tb.sigma, tb.tau, 1.0)
        X = np.array(xs[-3:], dtype=float)
        Y = np.array(scaled[-3:], dtype=float)
        M = np.column_stack([np.ones_like(X), np.abs(X) ** (-e)])
        coef, *_ = np.linalg.lstsq(M, Y, rcond=None)
        est = float(coef[0])
    else:
        est = scaled[-1]
    S = tb.bracket_base()
    if orientation == "upper":
        bound = kernel.Lam * S
        passed = est <= bound * 1.05
    else:
        bound = kernel.lam * S
        passed = est >= bound * 0.95
    return LimitReport(estimate=est, bound=bound, passed=passed)


def derivative_barrier(s: float, alpha: float, beta: float, gamma: float,
                       delta: float, xbar: float) -> TailBarrier:
    """Smooth positive profile with the exact slow-side derivative tails.

    phi(x) = |x|^-(1 + 2s(beta-alpha+1)/(beta-1)) for x <= -xbar and
    |x|^-(1 + 2s(delta-gamma+1)/(delta-1)) for x >= xbar; a cutoff-based
    interior bump of height xbar^-min(sigma, tau) keeps phi positive.
    """
    if max(alpha - beta, gamma - delta) >= 1.0:
        raise ExponentNotIntegrable(
            "need max{alpha-beta, gamma-delta} < 1 for integrable tails")
    sig = 1.0 + 2.0 * s * (beta - alpha + 1.0) / (beta - 1.0)
    tau = 1.0 + 2.0 * s * (delta - gamma + 1.0) / (delta - 1.0)
    xb = float(xbar)
    c0 = xb ** (-min(sig, tau))

    def val(x, order):
        x = np.asarray(x, dtype=float)
        sgn = np.sign(x)
        # both cutoff weights vanish on [-xbar/2, xbar/2], so the power
        # factors only matter outside; clamping there avoids 0^-p noise
        ax = np.maximum(np.abs(x), xb / 8.0)

        def weight(y, chain):
            # jet of eta(y(x)) for y linear in x with slope chain
            return [v * chain ** k for k, v in enumerate(eta_derivs(y, order))]

        def power(p):
            # d^k |x|^-p = c_k |x|^(-p-k) sgn^k, c_k = -(p + k - 1) c_(k-1)
            jet, c = [], 1.0
            for k in range(order + 1):
                jet.append(c * ax ** (-p - k) * sgn ** k)
                c *= -(p + k)
            return jet

        # eta(2(x + xbar)/xbar) weights the left tail, eta(2(xbar - x)/xbar)
        # the right; the bump eta(|x|/xbar) is flat near 0, so smooth at 0
        left = leibniz(power(sig), weight((x + xb) / (xb / 2.0), 2.0 / xb))
        right = leibniz(power(tau), weight((xb - x) / (xb / 2.0), -2.0 / xb))
        bump = weight(np.abs(x) / xb, sgn / xb)
        return left[order] + right[order] + c0 * bump[order]

    body = ProfileFn(
        fn=lambda x: val(x, 0),
        derivs=(lambda x: val(x, 1), lambda x: val(x, 2)),
        tail=(PowerTail(0.0, 1.0, sig), PowerTail(0.0, 1.0, tau)),
        features=((0.0, 2.0 * xb),),
        name="derivative-barrier",
    )
    gs = np.linspace(-xb, xb, 4001)
    gamma_low = float(np.min(val(gs, 0)))
    if gamma_low <= 0:
        raise InvariantViolated("interior floor is not positive")
    return TailBarrier(Cbar=1.0, kappa=xb, sigma=sig, tau=tau,
                       gamma_low=gamma_low, body=body)


def exact_power_bump(sigma: float, kappa: float) -> TailBarrier:
    """(kappa^2/(kappa^2 + x^2))^(sigma/2) * kappa^-sigma: two-sided bracket probe.

    Outside [-kappa, kappa] this profile is squeezed between
    (1/2)^(sigma/2) |x|^-sigma and |x|^-sigma, so both bracket orientations
    apply with their respective tail constants.
    """
    from .profiles import power_tail_bump

    body = power_tail_bump(sigma, sigma, kappa)
    gs = np.linspace(-kappa, kappa, 2001)
    return TailBarrier(Cbar=float(kappa ** sigma), kappa=kappa, sigma=sigma,
                       tau=sigma, gamma_low=float(np.min(body(gs))),
                       body=body)
