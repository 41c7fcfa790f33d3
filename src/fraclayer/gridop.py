"""Discrete nonlocal operator on uniform grids with exterior tail models.

Node j carries the cell [x_j - h/2, x_j + h/2]; the weight of cell j seen
from node i is the exact kernel integral over the cell, which depends only on
the lag |i - j| on a uniform grid, so the interior interaction is a symmetric
Toeplitz matrix applied by circulant embedding and FFT in O(n log n) time and
O(n) memory. The diagonal cell is handled by the second-order increment with
a local quadratic fit, and the exterior of the grid contributes through
constant limits plus an optional fitted power correction.

The grid's layout stays behind GridOperator: apply, update_exterior, energy,
lyapunov, jacobian_apply, precondition and tau_bounds are all the solver
reads of it, so an operator on another grid implements those seven methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec


@dataclass(frozen=True)
class ExteriorModel:
    """u(y) = limit + c * |y|^(-p) outside the grid (c signed, may be 0)."""

    limit: float
    c: float = 0.0
    p: float = 1.0


@dataclass
class GridProfile:
    """Values on a grid plus exterior far-field models."""

    x: np.ndarray
    values: np.ndarray
    ext_left: ExteriorModel = ExteriorModel(-1.0)
    ext_right: ExteriorModel = ExteriorModel(1.0)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ValueError("x and values must be matching 1-d arrays")
        if np.any(np.abs(self.values) > 1.0 + 1e-12):
            raise ValueError("values must lie in [-1, 1]")
        if self.ext_left.p <= 0 or self.ext_right.p <= 0:
            raise ValueError("exterior exponents must be positive")

    def copy_with(self, values: np.ndarray) -> "GridProfile":
        return GridProfile(self.x, np.asarray(values, float),
                           self.ext_left, self.ext_right)


def lag_weights(kernel: KernelSpec, h: float, n: int) -> np.ndarray:
    """w[l-1] = integral of K over [l*h - h/2, l*h + h/2], l = 1..n-1."""
    l = np.arange(1, n)
    return kernel.interval_integral(l * h - h / 2, l * h + h / 2)


def _edges(x: np.ndarray) -> tuple[float, float]:
    """Outer ends of the first and last cells of a uniform grid."""
    h = float(x[1] - x[0])
    return float(x[0] - h / 2), float(x[-1] + h / 2)


def exterior_constant_weights(kernel: KernelSpec, g: GridProfile):
    """Kernel mass of each exterior half-line seen from every node."""
    lo, hi = _edges(g.x)
    return kernel.tail_integral(g.x - lo), kernel.tail_integral(hi - g.x)


def exterior_power_vector(kernel: KernelSpec, g: GridProfile) -> np.ndarray:
    """integral over both exteriors of (u_model(y) - limit) K(x_i - y) dy."""
    lo, hi = _edges(g.x)
    out = np.zeros_like(g.x)
    for m, d, sign in ((g.ext_right, hi - g.x, 1.0),
                       (g.ext_left, g.x - lo, -1.0)):
        if m.c != 0.0:
            out += m.c * kernel.power_tail_integral(d, g.x, m.p, sign)
    return out


class GridOperator:
    """L u = T u + diag u + diag_coef (interior second difference) + offset.

    T is the symmetric Toeplitz matrix of the lag weights w (zero diagonal),
    applied by FFT on a circulant embedding; only O(n) vectors are stored.
    diag folds the interior row sums of T and the exterior constant mass;
    the offset carries the exterior limits and the optional power corrections.

    The linear part of -L is c I - T - diag_coef D2 but for the edge rows of
    D2, where c = -diag, the kernel mass beyond h/2, is nearly the same at
    every node. `eig` holds the eigenvalues of its circulant on the FFT
    embedding (diagonal mean(-diag), periodic D2); precondition inverts
    that circulant plus a shift, the solver's Krylov preconditioner.
    """

    def __init__(self, kernel: KernelSpec, g: GridProfile):
        dx = np.diff(g.x)
        # linspace nodes carry rounding of order ulp(max |x|), which
        # outgrows 1e-12 h once n is about 2^14
        if len(dx) < 2 or not np.allclose(
                dx, dx[0], rtol=1e-12,
                atol=4.0 * np.spacing(np.max(np.abs(g.x)))):
            raise ValueError("grid must be uniform")
        self.kernel = kernel
        n = len(g.x)
        self.h = h = float(g.x[1] - g.x[0])
        self.w = lag_weights(kernel, h, n)
        # circulant embedding: column [0, w_1..w_{n-1}, 0.., w_{n-1}..w_1] of
        # power-of-two length >= 2n - 1. numpy.fft, not scipy.fft: importing
        # scipy.fft also loads scipy.special, ~0.1 s of every solver start.
        self._m = 1 << (2 * n - 2).bit_length()
        col = np.zeros(self._m)
        col[1:n] = self.w
        col[self._m - n + 1:] = self.w[::-1]
        self._w_hat = np.fft.rfft(col).real   # symmetric column: real
        prefix = np.concatenate([[0.0], np.cumsum(self.w)])
        self.row_sums = prefix + prefix[::-1]     # sum_{j != i} w_|i-j|
        self.wl, self.wr = exterior_constant_weights(kernel, g)
        self.diag = -(self.row_sums + self.wl + self.wr)
        # diagonal-cell quadratic fit: mom2/h^2 * (u_{i+1} + u_{i-1} - 2 u_i)
        self.diag_coef = kernel.second_moment_integral(h / 2) / h ** 2
        k = np.arange(len(self._w_hat))
        self.eig = (float(np.mean(-self.diag)) - self._w_hat + self.diag_coef
                    * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / self._m)))
        self.update_exterior(g)

    def update_exterior(self, g: GridProfile) -> None:
        """Take g's exterior models: their limits and power corrections."""
        self.limits = left, right = g.ext_left.limit, g.ext_right.limit
        self.ext_power = exterior_power_vector(self.kernel, g)
        self.offset = left * self.wl + right * self.wr + self.ext_power

    def toeplitz_apply(self, u: np.ndarray) -> np.ndarray:
        """T u: sum over j != i of w_|i-j| u_j."""
        return np.fft.irfft(np.fft.rfft(u, self._m) * self._w_hat,
                           self._m)[:len(u)]

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.toeplitz_apply(u) + self.diag * u + self.offset
        out[1:-1] += self.diag_coef * (u[2:] + u[:-2] - 2 * u[1:-1])
        return out

    def jacobian_apply(self, v: np.ndarray) -> np.ndarray:
        """The linear part of L applied to v: L v without the offset."""
        return self.apply(v) - self.offset

    def energy(self, u: np.ndarray, Wu: np.ndarray) -> float:
        """(1/4) sum_{(i,j) not both exterior} (u_i - u_j)^2 w_ij + h sum Wu.

        Interior pair weights are the exact kernel integrals over the partner
        cell times the cell width h; each interior-exterior pair appears
        twice with the constant far-field levels of the last update_exterior.
        The interior double sum equals -2 u . (T u - r u), r the row sums of
        T, so it costs one FFT matvec.
        """
        inter = -2.0 * float(np.dot(u, self.toeplitz_apply(u)
                                    - self.row_sums * u))
        left, right = self.limits
        ext = 2.0 * float(np.dot((u - left) ** 2, self.wl)
                          + np.dot((u - right) ** 2, self.wr))
        return 0.25 * self.h * (inter + ext) + self.h * float(np.sum(Wu))

    def lyapunov(self, u: np.ndarray, e: float) -> float:
        """The energy e of u plus the diagonal-cell quadratic term and the
        linear exterior power-correction term, whose gradients L carries:
        the functional the solver's descent decreases."""
        e += 0.5 * self.h * self.diag_coef * float(np.sum(np.diff(u) ** 2))
        e -= self.h * float(np.dot(self.ext_power, u))
        return e

    def precondition(self, v: np.ndarray, shift: float) -> np.ndarray:
        """(C + shift I)^-1 v on the embedding, cut to the grid: C the
        circulant of -L's linear part, one FFT pair like one apply."""
        return np.fft.irfft(np.fft.rfft(v, self._m) / (self.eig + shift),
                            self._m)[:len(v)]

    def tau_bounds(self, w2_max: float) -> tuple[float, float]:
        """(tau_0, tau_max) = (0.4 / (max outflow + w2_max), 1 / (eps min
        outflow)), a node's outflow being minus the diagonal of L's linear
        part and w2_max a bound on W''. tau_0 is the explicit descent's
        stable step. Every outflow is near the kernel mass beyond h/2, and
        `eig` is exact only to about eps times it, so a shift 1/tau below
        that is lost in its rounding, as in the diagonal of I/tau - J."""
        out = -self.diag
        out[1:-1] += 2 * self.diag_coef
        return (0.4 / (float(np.max(out)) + w2_max),
                1.0 / (np.finfo(float).eps * float(np.min(out))))
