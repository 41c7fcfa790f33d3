"""Smooth cutoffs used by the layer construction.

eta: C-infinity step, 1 on [0, 1/4], 0 on [3/4, 1], eta(x) = S(2 (3/4 - x)).
The smoothstep S(r) = exp(-q/r) / (exp(-q/r) + exp(-q/(1-r))), q = 1/2, is
the logistic function S = sigma(z) = 1 / (1 + e^(-z)) of
z(r) = q/(1-r) - q/r, with S = 0 for r <= 0 and S = 1 for r >= 1. The rate
q = 1/2 keeps eta' strictly inside (-4, 0): with q = 1 the midpoint slope
hits -4 exactly.

Derivatives to order 4 are closed form. With the complement
S~ = sigma(-z) = 1 - S,
  sigma' = S S~,  sigma'' = S S~ (S~ - S),  sigma''' = S S~ (1 - 6 S S~),
  sigma'''' = S S~ (S~ - S) (1 - 12 S S~),
  z^(k) = q k! [(1-r)^-(k+1) - (-1)^k r^-(k+1)],
(`logistic_derivs`, `z_derivs`), and Faa di Bruno (`jets.jet_compose`)
combines the two, here for S and in the layer profile's L-space cutoff
weights (`construction`). S~ is computed as 1 / (1 + e^z) from its own
exponential, never as 1 - S: near r -> 1 every derivative is proportional
to S~, which 1 - S would round to a multiple of eps.

eta~: the polynomial step with density x^3 (1-x)^3 / Beta(4, 4); closed form,
Beta(4, 4) = 1/140, strictly decreasing, vanishing to third order at 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jets import jet_compose

_Q = 0.5  # S = sigma(_Q / (1 - r) - _Q / r)

BETA44 = 1.0 / 140.0


def z_derivs(r, order: int) -> list:
    """[z, z', ..., z^(order)] of z(r) = q/(1-r) - q/r."""
    a, b = 1.0 / (1.0 - r), 1.0 / r
    return [_Q * (a - b)] + [_Q * math.factorial(k)
                             * (a ** (k + 1) - (-1) ** k * b ** (k + 1))
                             for k in range(1, order + 1)]


def logistic_derivs(S, Sc, lead, order: int) -> list:
    """lead sigma^(k) / (S S~) for k = 1..order, from the table above.

    lead = S S~ gives sigma^(k), lead = S~ gives sigma^(k) / sigma and
    lead = -S gives the same ratio for sigma(-z) = 1 - sigma(z).
    """
    p, d = S * Sc, Sc - S
    return [lead, lead * d, lead * (1.0 - 6.0 * p),
            lead * d * (1.0 - 12.0 * p)][:order]


def _smoothstep_upto(r, order: int) -> list:
    """[S, S', ..., S^(order)] at r, all from one pair of exponentials."""
    if not 0 <= order <= 4:
        raise ValueError("order must be 0..4")
    r = np.asarray(r, dtype=float)
    inner = (r > 0.0) & (r < 1.0)
    ri = np.where(inner, r, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        zs = z_derivs(ri, order)
        S = 1.0 / (1.0 + np.exp(-zs[0]))
        ders = [S]
        if order:
            Sc = 1.0 / (1.0 + np.exp(zs[0]))
            ders = jet_compose([S] + logistic_derivs(S, Sc, S * Sc, order),
                               zs)
    # as r -> 0, S underflows to 0 before z^(k) overflows: 0 * inf is 0 here
    out = [np.where(inner & ~np.isnan(v), v, 0.0) for v in ders]
    out[0] = np.where(r >= 1.0, 1.0, out[0])
    return out


def eta_derivs(x, order: int) -> list:
    """[eta, eta', ..., eta^{(order)}] at x in one pass, order <= 4."""
    ders = _smoothstep_upto(2.0 * (0.75 - np.asarray(x, dtype=float)), order)
    return [v * (-2.0) ** i for i, v in enumerate(ders)]


def eta(x, order: int = 0):
    """Cutoff eta on [0, 1]: 1 on [0, 1/4], 0 on [3/4, 1]; derivatives 0..4."""
    return eta_derivs(x, order)[order]


def eta_tilde(x, order: int = 0):
    """Polynomial step: eta~(x) = int_x^1 t^3 (1-t)^3 dt / Beta(4,4).

    Evaluated through the antiderivative in y = 1 - x so eta~(1) = 0 exactly;
    extended constantly outside [0, 1] (the density is supported there).
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    if order == 0:
        y = 1.0 - x
        g = y ** 4 / 4.0 - 0.6 * y ** 5 + y ** 6 / 2.0 - y ** 7 / 7.0
        return g / BETA44
    # d/dx eta~ = -x^3 (1-x)^3 / B(4,4); higher orders differentiate that
    u = x
    if order == 1:
        core = -(u ** 3) * (1 - u) ** 3
    elif order == 2:
        core = -(3 * u ** 2 * (1 - u) ** 3 - 3 * u ** 3 * (1 - u) ** 2)
    elif order == 3:
        core = -(6 * u * (1 - u) ** 3 - 18 * u ** 2 * (1 - u) ** 2
                 + 6 * u ** 3 * (1 - u))
    elif order == 4:
        core = -(6 * (1 - u) ** 3 - 54 * u * (1 - u) ** 2
                 + 54 * u ** 2 * (1 - u) - 6 * u ** 3)
    else:
        raise ValueError("order must be 0..4")
    return core / BETA44


@dataclass(frozen=True)
class CutoffStats:
    """Measured extremes of the cutoff pair used by the construction."""

    eta_bar: float          # max over orders 0..3 of sup |eta^{(i)}|
    eta_0: float            # min(eta(1/2), 1 - eta(1/2))

    @property
    def ratio(self) -> float:
        return self.eta_bar / self.eta_0


@lru_cache(maxsize=1)
def measure_cutoff() -> CutoffStats:
    """Sample eta and its derivatives to order 3 on 20001 points of [0, 1].

    Also verifies the construction constraints: eta' in (-4, 0) strictly
    inside the transition, eta(1/2) = 1/2.
    """
    x = np.linspace(0.0, 1.0, 20001)
    sups = [float(np.max(np.abs(v))) for v in eta_derivs(x, 3)]
    half = float(eta(np.array([0.5]))[0])
    eta_0 = min(half, 1.0 - half)
    d1 = eta(x[(x > 0.25) & (x < 0.75)], 1)
    # strictness below double resolution cannot be certified: near the
    # transition edges eta' underflows to 0 up to rounding noise
    if np.min(d1) <= -4.0 or np.max(d1) > 64 * np.finfo(float).eps:
        raise ValueError("eta' must stay inside (-4, 0]")
    if not math.isclose(half, 0.5, abs_tol=1e-12):
        raise ValueError("eta(1/2) must equal 1/2")
    return CutoffStats(eta_bar=max(sups), eta_0=eta_0)


def w_weight(coef: float, x):
    """w(x) = coef * eta~(x) - (x + 1) * eta~'(x); nonnegative on [0, 1]."""
    x = np.asarray(x, dtype=float)
    return coef * eta_tilde(x) - (x + 1.0) * eta_tilde(x, 1)


def w_weight_argmax(coef: float) -> float:
    """The unique critical point of w in (0, 1), in closed form."""
    B = coef
    disc = B * B - 8.0 * B + 88.0
    return (3.0 * (4.0 - B) + math.sqrt(disc)) / (2.0 * (7.0 - B)) - 1.0
