"""Discrete nonlocal operator on uniform grids with exterior tail models.

Node j carries the cell [x_j - h/2, x_j + h/2]; the weight of cell j seen
from node i is the exact kernel integral over the cell, which depends only on
the lag |i - j| on a uniform grid, so the interior interaction is a symmetric
Toeplitz matrix applied by circulant embedding and FFT in O(n log n) time and
O(n) memory. The diagonal cell is handled by the second-order increment with
a local quadratic fit, and the exterior of the grid contributes through
constant limits plus an optional fitted power correction.
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
    """Values on a uniform grid plus exterior far-field models."""

    x: np.ndarray
    values: np.ndarray
    ext_left: ExteriorModel = ExteriorModel(-1.0)
    ext_right: ExteriorModel = ExteriorModel(1.0)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ValueError("x and values must be matching 1-d arrays")
        dx = np.diff(self.x)
        # linspace nodes carry rounding of order ulp(max |x|), which
        # outgrows 1e-12 h once n is about 2^14
        if len(dx) < 2 or not np.allclose(
                dx, dx[0], rtol=1e-12,
                atol=4.0 * np.spacing(np.max(np.abs(self.x)))):
            raise ValueError("grid must be uniform")
        if np.any(np.abs(self.values) > 1.0 + 1e-12):
            raise ValueError("values must lie in [-1, 1]")
        if self.ext_left.p <= 0 or self.ext_right.p <= 0:
            raise ValueError("exterior exponents must be positive")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def edges(self) -> tuple[float, float]:
        return float(self.x[0] - self.h / 2), float(self.x[-1] + self.h / 2)

    def copy_with(self, values: np.ndarray) -> "GridProfile":
        return GridProfile(self.x, np.asarray(values, float),
                           self.ext_left, self.ext_right)


def lag_weights(kernel: KernelSpec, h: float, n: int) -> np.ndarray:
    """w[l-1] = integral of K over [l*h - h/2, l*h + h/2], l = 1..n-1."""
    l = np.arange(1, n)
    return kernel.interval_integral(l * h - h / 2, l * h + h / 2)


def exterior_constant_weights(kernel: KernelSpec, g: GridProfile):
    """Kernel mass of each exterior half-line seen from every node."""
    lo, hi = g.edges
    return kernel.tail_integral(g.x - lo), kernel.tail_integral(hi - g.x)


def exterior_power_vector(kernel: KernelSpec, g: GridProfile) -> np.ndarray:
    """integral over both exteriors of (u_model(y) - limit) K(x_i - y) dy."""
    lo, hi = g.edges
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
    embedding (diagonal mean(-diag), periodic D2); circulant_solve
    inverts that circulant plus a shift, the solver's Krylov preconditioner.
    """

    def __init__(self, kernel: KernelSpec, g: GridProfile):
        self.kernel = kernel
        n = len(g.x)
        h = g.h
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
        self.ext_power = exterior_power_vector(self.kernel, g)
        self.offset = (g.ext_left.limit * self.wl
                       + g.ext_right.limit * self.wr
                       + self.ext_power)

    def toeplitz_apply(self, u: np.ndarray) -> np.ndarray:
        """T u: sum over j != i of w_|i-j| u_j."""
        return np.fft.irfft(np.fft.rfft(u, self._m) * self._w_hat,
                           self._m)[:len(u)]

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.toeplitz_apply(u) + self.diag * u + self.offset
        out[1:-1] += self.diag_coef * (u[2:] + u[:-2] - 2 * u[1:-1])
        return out

    def circulant_solve(self, v: np.ndarray, shift: float) -> np.ndarray:
        """(C + shift I)^-1 v on the embedding, cut to the grid: C the
        circulant of -L's linear part, one FFT pair like one apply."""
        return np.fft.irfft(np.fft.rfft(v, self._m) / (self.eig + shift),
                            self._m)[:len(v)]

    def outflow(self) -> np.ndarray:
        """Total outflow coefficient of each node: minus the diagonal of the
        operator's linear part."""
        out = -self.diag
        out[1:-1] += 2 * self.diag_coef
        return out

    def row_sum_scale(self) -> float:
        """Stability scale: max total outflow coefficient of a node."""
        return float(np.max(self.outflow()))
