"""Evaluable profiles with derivative and far-field metadata.

A ProfileFn bundles what the nonlocal quadrature needs to know about a
function: pointwise values, analytic derivatives when available, and its far
field. That is either a (left, right) pair of PowerTail models, each side's
limit plus a signed power correction, or an OscillatoryTail. PowerTail is the
one far-field power model: the grid solver's exteriors use it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import RegularityMismatch


@dataclass(frozen=True)
class PowerTail:
    """u(y) = limit + c |y|^(-p) far out on one side (c signed, may be 0)."""

    limit: float
    c: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"a far-field exponent must be positive, "
                             f"got {self.p}")


@dataclass(frozen=True)
class OscillatoryTail:
    """Bounded non-convergent far field with known mean, amplitude and
    antiderivative.

    Used for plane-wave style test profiles: beyond the truncation radius the
    profile is treated as mean + an oscillation g = u - mean on scale
    T = osc_scale. ``antiderivative`` is the zero-mean antiderivative U of g.
    The class assumes sup|g| <= amplitude, sup|U| <= amplitude * T/2pi and
    sup|V| <= amplitude * (T/2pi)^2, with V the zero-mean antiderivative of
    U; a plane wave meets all three with equality.
    """

    mean: float
    amplitude: float
    osc_scale: float
    antiderivative: Callable[[np.ndarray], np.ndarray] = field(compare=False)


@dataclass(frozen=True)
class ProfileFn:
    """u: R -> R with its far field and optional analytic derivatives up to
    order 4.

    ``fn`` and each entry of ``derivs`` return an array of the input's shape,
    0-d included: ``quadrature.eval_lk`` reads ``float(u(np.array(x)))``.
    ``tail`` is a (left, right) pair of PowerTail models or an
    OscillatoryTail.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tail: tuple[PowerTail, PowerTail] | OscillatoryTail
    derivs: tuple = ()
    features: tuple[tuple[float, float], ...] = ()   # (center, halfwidth)
    name: str = "profile"

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def has_deriv(self, order: int) -> bool:
        return 1 <= order <= len(self.derivs)

    def deriv(self, order: int) -> Callable:
        if not self.has_deriv(order):
            raise RegularityMismatch(
                f"{self.name}: derivative of order {order} unavailable")
        return self.derivs[order - 1]

    def derivative_profile(self) -> "ProfileFn":
        """Profile for u' (drops one derivative order)."""
        if not self.has_deriv(1):
            raise RegularityMismatch(f"{self.name}: u' unavailable")
        if isinstance(self.tail, OscillatoryTail):
            # u' has mean 0, and u - mean is its zero-mean antiderivative
            t = self.tail
            tail = OscillatoryTail(mean=0.0,
                                   amplitude=t.amplitude * 2 * np.pi / t.osc_scale,
                                   osc_scale=t.osc_scale,
                                   antiderivative=lambda y: self(y) - t.mean)
        else:
            # d/dy [limit + c |y|^-p] = -s c p |y|^-(p+1) on side s = -1, +1
            tail = tuple(PowerTail(0.0, -s * m.c * m.p, m.p + 1.0)
                         for s, m in zip((-1.0, 1.0), self.tail))
        return ProfileFn(
            fn=self.derivs[0],
            derivs=self.derivs[1:],
            tail=tail,
            features=self.features,
            name=f"{self.name}-d1",
        )


def constant(c: float) -> ProfileFn:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return ProfileFn(
        fn=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        derivs=(z, z, z, z),
        tail=(PowerTail(c), PowerTail(c)),
        name=f"const({c})",
    )


def cosine(omega: float) -> ProfileFn:
    w = float(omega)
    return ProfileFn(
        fn=lambda x: np.cos(w * x),
        derivs=(
            lambda x: -w * np.sin(w * x),
            lambda x: -w ** 2 * np.cos(w * x),
            lambda x: w ** 3 * np.sin(w * x),
            lambda x: w ** 4 * np.cos(w * x),
        ),
        tail=OscillatoryTail(mean=0.0, amplitude=1.0, osc_scale=2 * np.pi / w,
                             antiderivative=lambda y: np.sin(w * y) / w),
        name=f"cos({w}x)",
    )


def tanh_profile() -> ProfileFn:
    """tanh(x) with four derivatives, named "tanh(x/1.0)"."""

    def f(x):
        return np.tanh(x)

    def d1(x):
        t = np.tanh(x)
        return 1 - t ** 2

    def d2(x):
        t = np.tanh(x)
        return -2.0 * t * (1 - t ** 2)

    def d3(x):
        t = np.tanh(x)
        return (1 - t ** 2) * (6 * t ** 2 - 2)

    def d4(x):
        t = np.tanh(x)
        return (1 - t ** 2) * (16 * t - 24 * t ** 3)

    # exponentially small tails: power model with zero coefficient
    return ProfileFn(
        fn=f, derivs=(d1, d2, d3, d4),
        tail=(PowerTail(-1.0, 0.0, 2.0), PowerTail(1.0, 0.0, 2.0)),
        features=((0.0, 4.0),),
        name="tanh(x/1.0)",
    )


GAUSSIAN_WIDTH = 1.0


def gaussian() -> ProfileFn:
    """exp(-(x/a)^2) at a = GAUSSIAN_WIDTH, with four derivatives."""
    a = float(GAUSSIAN_WIDTH)

    def f(x):
        return np.exp(-(x / a) ** 2)

    def d1(x):
        return -2 * x / a ** 2 * f(x)

    def d2(x):
        return (4 * x ** 2 / a ** 4 - 2 / a ** 2) * f(x)

    def d3(x):
        return (12 * x / a ** 4 - 8 * x ** 3 / a ** 6) * f(x)

    def d4(x):
        return (16 * x ** 4 / a ** 8 - 48 * x ** 2 / a ** 6 + 12 / a ** 4) * f(x)

    return ProfileFn(
        fn=f, derivs=(d1, d2, d3, d4),
        tail=(PowerTail(0.0, 0.0, 3.0), PowerTail(0.0, 0.0, 3.0)),
        features=((0.0, 4.0 * a),),
        name=f"gauss({a})",
    )


def lipschitz_bump() -> ProfileFn:
    """max(0, 1 - |x|): Lipschitz but not C^1; no derivative data."""
    return ProfileFn(
        fn=lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x, float))),
        tail=(PowerTail(0.0, 0.0, 2.0), PowerTail(0.0, 0.0, 2.0)),
        features=((0.0, 2.0),),
        name="lip-bump",
    )


def power_tail_bump(sigma: float, tau: float, kappa: float = 1.0) -> ProfileFn:
    """(1 + (x/kappa)^2)^(-q(x)/2) with exact-order power tails.

    For sigma == tau this is smooth everywhere; the two-sided tails are
    c*|x|^-sigma on the left and c*|x|^-tau on the right with c = kappa^sigma.
    Only equal exponents are supported (the asymmetric case is assembled
    elsewhere from cutoffs).
    """
    if sigma != tau:
        raise ValueError("power_tail_bump needs sigma == tau")
    q = float(sigma)
    k = float(kappa)

    def f(x):
        return (1.0 + (x / k) ** 2) ** (-q / 2.0)

    def d1(x):
        return -q * x / k ** 2 * (1.0 + (x / k) ** 2) ** (-q / 2.0 - 1.0)

    def d2(x):
        u = 1.0 + (x / k) ** 2
        return (-q / k ** 2) * u ** (-q / 2.0 - 2.0) * (u - (q + 2.0) * (x / k) ** 2)

    return ProfileFn(
        fn=f, derivs=(d1, d2),
        tail=(PowerTail(0.0, k ** q, q), PowerTail(0.0, k ** q, q)),
        features=((0.0, 4.0 * k),),
        name=f"power-bump({q})",
    )
