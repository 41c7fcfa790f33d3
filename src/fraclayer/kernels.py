"""Interaction kernels: symmetric, elliptically bounded perturbations of |z|^(-1-2s).

A kernel K is admissible when K(z) = K(-z) and
lam * |z|^(-1-2s) <= K(z) <= Lam * |z|^(-1-2s) for z != 0.
The slow-oscillation hypothesis on K (a limsup over dilation sequences) has no
finite certificate; it is recorded here as documentation only and never tested.
The pure power kernel satisfies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .panels import panel_integrals

FORMS = ("fractional", "scaled-fractional", "tabulated-perturbation")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel of order s with ellipticity bounds lam <= Lam.

    forms:
      fractional              K(z) = |z|^(-1-2s)
      scaled-fractional       K(z) = c * |z|^(-1-2s),  lam <= c <= Lam
      tabulated-perturbation  K(z) = m(z) * |z|^(-1-2s), measurable even
                              multiplier m with values in [lam, Lam]
    """

    s: float
    lam: float = 1.0
    Lam: float = 1.0
    form: str = "fractional"
    scale: float = 1.0
    multiplier: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must be in (0,1), got {self.s}")
        if not 0.0 < self.lam <= self.Lam:
            raise ValueError("need 0 < lam <= Lam")
        if self.form not in FORMS:
            raise ValueError(f"unknown kernel form {self.form!r}")
        if self.scale != 1.0 and self.form != "scaled-fractional":
            raise ValueError(f"scale applies only to scaled-fractional, "
                             f"not to {self.form}")
        if self.form == "fractional" and not (self.lam <= 1.0 <= self.Lam):
            raise ValueError("fractional form needs lam <= 1 <= Lam")
        if self.form == "scaled-fractional" and not (
                self.lam <= self.scale <= self.Lam):
            raise ValueError("scaled-fractional needs lam <= scale <= Lam")
        if self.form == "tabulated-perturbation" and self.multiplier is None:
            raise ValueError("tabulated-perturbation needs a multiplier")

    # -- pointwise -----------------------------------------------------------

    def _mult(self, z: np.ndarray) -> np.ndarray | float:
        """m(z); the scalar scale for the power forms, which broadcasts."""
        if self.form != "tabulated-perturbation":
            return self.scale
        m = self.multiplier(np.abs(z))
        return np.asarray(m, dtype=float)

    def k(self, z):
        """K(z), vectorized; +inf at z = 0."""
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        with np.errstate(divide="ignore"):
            base = az ** (-1.0 - 2.0 * self.s)
        return self._mult(z) * base

    def abs_dk(self, z):
        """|K'(z)| for z > 0, vectorized: scale (1+2s) z^(-2-2s) for the
        power forms. None for tabulated-perturbation, whose multiplier may be
        merely measurable, so K' need not exist."""
        if self.form == "tabulated-perturbation":
            return None
        return self.scale * (1.0 + 2.0 * self.s) * \
            np.asarray(z, dtype=float) ** (-2.0 - 2.0 * self.s)

    # -- exact/semi-exact integrals ------------------------------------------

    def interval_integral(self, a, b):
        """integral of K over [a, b] with 0 < a < b (vectorized in a, b)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(a <= 0) or np.any(b < a):
            raise ValueError("need 0 < a <= b")
        if self.form in ("fractional", "scaled-fractional"):
            p = 2.0 * self.s
            return self.scale * (a ** (-p) - b ** (-p)) / p
        # z = a e^t over [0, ln(b / a)], taken as log1p((b - a) / a): a
        # narrow cell keeps its width's digits, which ln b - ln a would
        # lose, and on a wide one the power factor stays mild
        top = np.log1p((b - a) / a)
        a = a[..., None]

        def integrand(t):
            z = a * np.exp(t)
            return self.k(z) * z

        return panel_integrals(integrand, 0.0, top, 24)

    def tail_integral(self, a):
        """integral of K over [a, +inf) for a > 0."""
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise ValueError("need a > 0")
        p = 2.0 * self.s
        if self.form in ("fractional", "scaled-fractional"):
            return self.scale * a ** (-p) / p
        # bounded multiplier: panels over the x4 rungs [a, 4a], [4a, 16a],
        # ... until the mass beyond, at most Lam lo^(-2s)/(2s), is below
        # 1e-18 (1 + total) at every a, or the next rung would pass 1e300;
        # the rest is m(lo) lo^(-2s)/(2s), exact for a constant multiplier
        total = np.zeros_like(a)
        lo = a.copy()
        while True:
            hi = lo * 4.0
            total = total + self.interval_integral(lo, hi)
            lo = hi
            if np.all(self.Lam * lo ** (-p) / p < 1e-18 * (1.0 + total)) \
                    or np.max(lo) * 4.0 > 1e300:
                break
        return total + self._mult(lo) * lo ** (-p) / p

    def second_moment_integral(self, r0):
        """integral of z^2 K(z) over [0, r0]; the singular-cell weight."""
        r0 = float(r0)
        if r0 <= 0:
            raise ValueError("need r0 > 0")
        p = 2.0 - 2.0 * self.s
        if self.form in ("fractional", "scaled-fractional"):
            return self.scale * r0 ** p / p
        # z = r0 * u^(1/p) removes the z^(1-2s) endpoint behavior
        return float(panel_integrals(
            lambda u: self._mult(r0 * u ** (1.0 / p)) * (r0 ** p / p),
            0.0, 1.0, 24))

    def power_tail_integral(self, Z, x, p: float, sign: float):
        """integral_Z^inf |x + sign z|^(-p) K(z) dz, vectorized in Z and x.

        sign is +1 or -1; the power stays off its singularity only for
        Z > -sign x. The substitution z = Z / v, v = u^(1/q), q = p + 2s,
        turns the integrand into (1/q) Z^(-2s) m(Z/v) |x v + sign Z|^(-p)
        over u in (0, 1], m the multiplier (scale for the power forms):
        bounded, with one power per point, and scale Z^(-2s)/q taken out of
        the panel sum.
        """
        Z = np.asarray(Z, dtype=float)
        Zc = Z[..., None]
        x = np.asarray(x, dtype=float)[..., None]
        q = p + 2.0 * self.s

        def integrand(u):
            v = u ** (1.0 / q)
            f = np.abs(x * v + sign * Zc) ** (-p)
            if self.form == "tabulated-perturbation":
                f *= self._mult(Zc / v)
            return f

        return self.scale * Z ** (-2.0 * self.s) / q * panel_integrals(
            integrand, 0.0, 1.0, 24)


def symbol_constant(s: float) -> float:
    """C(s) = 2 * integral_0^inf (1 - cos v) v^(-1-2s) dv.

    With this package's convention L u(x) = (1/2) int (u(x+z)+u(x-z)-2u(x))
    |z|^(-1-2s) dz, plane waves satisfy L cos(w.)(x) = -C(s) w^(2s) cos(wx).
    The integral has the closed form pi / (Gamma(1+2s) sin(pi s)).
    """
    return math.pi / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))


def fractional_kernel(s: float, lam: float = 1.0, Lam: float = 1.0) -> KernelSpec:
    """The pure power kernel |z|^(-1-2s)."""
    return KernelSpec(s=s, lam=min(lam, 1.0), Lam=max(Lam, 1.0), form="fractional")


def perturbed_kernel(s: float, lam: float, Lam: float,
                     wobble: float = 0.5) -> KernelSpec:
    """A tabulated-perturbation kernel with a smooth even multiplier.

    m(z) = mid + amp*wobble*cos(log|z|) stays inside [lam, Lam] for
    wobble in [0, 1].
    """
    if not 0.0 <= wobble <= 1.0:
        raise ValueError("wobble in [0,1]")
    mid = 0.5 * (lam + Lam)
    amp = 0.5 * (Lam - lam) * wobble

    def m(az: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return mid + amp * np.cos(np.log(az))

    return KernelSpec(s=s, lam=lam, Lam=Lam, form="tabulated-perturbation",
                      multiplier=m)
