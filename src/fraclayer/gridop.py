"""Discrete nonlocal operator on uniform grids with exterior tail models.

Node j carries the cell [x_j - h/2, x_j + h/2]; the weight of cell j seen
from node i is the exact kernel integral over the cell, which depends only on
the lag |i - j| on a uniform grid, so the interior interaction is a symmetric
Toeplitz matrix applied by circulant embedding and FFT in O(n log n) time and
O(n) memory. The diagonal cell is handled by the second-order increment with
a local quadratic fit, a second difference with Neumann ends, so the linear
part of the operator is symmetric; the exterior of the grid contributes
through constant limits plus an optional fitted power correction.

The power correction c |y|^(-p) beyond an edge e costs c I_p(d) at a node
at distance d from e, I_p(d) = integral_0^inf |e + side w|^(-p) K(d + w) dw.
PowerTailTable tabulates its p-free part once per grid side: the kernel at
the Chebyshev points of short pieces of ln d times the Gauss weights of a
few hundred w-nodes, which reach far enough that the rest is a small share
for a far-tail rule. A refit with a new p then costs a few hundred powers,
one small mat-vec and a Clenshaw sum of PIECE_POINTS terms at each node,
O(n) time and memory, and matches the closed form to about 3e-13 relative
at every node.

The grid's layout stays behind GridOperator: apply, update_exterior, energy,
lyapunov, jacobian_apply, precondition and tau_bounds are all the solver
reads of it, so an operator on another grid implements those seven methods.
Of these, apply (with jacobian_apply) and precondition cost an FFT pair
each; energy and lyapunov read a given L u, and update_exterior returns
how L u moves, so a caller keeps the product of its iterate across refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .panels import gauss_rule

PIECE_SPAN = math.log(4.0)   # longest piece of ln d: a factor 4 in d
PIECE_POINTS = 14            # Chebyshev points per piece: 3e-13 (12: 5e-12)
W_PANEL_NODES = 12           # Gauss nodes per w-panel
W_PANEL_RATIO = 3.0          # a panel's end over its start: with every
                             # singularity at w <= 0, its error is 3.73^-24
FAR_SHARE = 1e-10            # share of I_p the w-nodes leave to the far tail
P_FLOOR = 0.05               # least exterior p the solver's refit returns


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


def exterior_constant_weights(kernel: KernelSpec, h: float, w: np.ndarray):
    """Kernel mass of each exterior half-line seen from every node of a
    uniform grid of spacing h with lag weights w, as (left, right).

    Node i lies (i + 1/2) h from the left end, so its mass beyond that end
    is node i + 1's plus lag weight i + 1: one tail integral at the
    farthest node and a running sum of w from the far end give all n in
    O(n) time.
    """
    far = kernel.tail_integral((len(w) + 0.5) * h)
    left = np.cumsum(np.concatenate([[far], w[::-1]]))[::-1]
    return left, left[::-1]


class PowerTailTable:
    """I_p at the nodes of one side of a uniform grid, for any exponent p.

    I_p(d) = integral_0^inf |e + side w|^(-p) K(d + w) dw is the kernel mass
    that the exterior model |y|^(-p) carries, y = e + side w beyond the edge
    e, seen from the node at distance d from e (side +1: the right end, -1:
    the left). The part that does not depend on p is tabulated once:

    - the nodes' distances [h/2, (n - 1/2) h] split, in ln d, into pieces no
      longer than PIECE_SPAN, each with PIECE_POINTS Chebyshev points d_j:
      d^(2s) I_p(d) is analytic in ln d and varies by a bounded factor, so
      each piece's Chebyshev series converges geometrically (Trefethen,
      Approximation Theory and Approximation Practice, SIAM 2013);
    - Gauss nodes w_k, W_PANEL_NODES to a panel, on [0, a] and on panels
      of ratio W_PANEL_RATIO from a = min(h/2, |e|) out to a reach R,
      shared by every d_j; with the pieces' Chebyshev transforms folded
      in, d_j^(2s) K(d_j + w_k) times the Gauss weights is one matrix;
    - R leaves at most FAR_SHARE of I_p beyond it for the smallest q = p +
      2s the tables are built for, P_FLOOR + 2s. There R dwarfs |e| + d,
      so that far tail is int_R^inf w^(-p) K(w) dw to a relative
      (p + 2)(|e| + d)/R, one KernelSpec.power_tail_integral call at x = 0.

    A call then costs a few hundred powers, one mat-vec, one far-tail call
    and a Clenshaw sum of PIECE_POINTS terms at the n nodes, in a few
    n-vectors of memory and no n x PIECE_POINTS array. Against the 2F1
    closed form at 20 digits it is within 3e-13 relative at nodes 0, 1,
    10, n/2, n-2 and n-1, under both kernel forms, for s from 0.1 to 0.9,
    p from 0.06 to 9.9 and n from 41 to 2^20.
    """

    def __init__(self, kernel: KernelSpec, x: np.ndarray, side: int):
        lo, hi = _edges(x)
        e = hi if side > 0 else lo
        if side * e <= 0.0:
            raise ValueError("an exterior power model needs the origin "
                             "inside the grid")
        self.kernel = kernel
        s2 = 2.0 * kernel.s
        d = side * (e - x)
        t = np.log(d)
        ta, tb = float(np.min(t)), float(np.max(t))
        pieces = max(1, math.ceil((tb - ta) / PIECE_SPAN))
        half = 0.5 * (tb - ta) / pieces
        mids = ta + half * (2.0 * np.arange(pieces) + 1.0)
        theta = np.pi * (np.arange(PIECE_POINTS) + 0.5) / PIECE_POINTS
        dj = np.exp(mids[:, None] + half * np.cos(theta))   # pieces x points
        # Chebyshev coefficients of a piece from its values at the points
        cheb = 2.0 / PIECE_POINTS * np.cos(np.outer(np.arange(PIECE_POINTS),
                                                   theta))
        cheb[0] *= 0.5
        a = min(float(np.min(d)), abs(e))
        q_min = P_FLOOR + s2
        reach = (abs(e) + float(np.max(d))) * FAR_SHARE ** (-1.0 / q_min)
        ends = np.concatenate([[0.0], a * W_PANEL_RATIO ** np.arange(
            math.ceil(math.log(reach / a, W_PANEL_RATIO)) + 1)])
        gt, gw = gauss_rule(W_PANEL_NODES)
        halves = 0.5 * np.diff(ends)
        w = (ends[:-1, None] + halves[:, None] * (1.0 + gt)).ravel()
        self._y = abs(e) + w                     # |y| at the w-nodes
        self._reach = ends[-1]
        scaled = dj ** s2
        self._kw = np.einsum("ij,mjk->mik", cheb, scaled[..., None] * (
            kernel.k(dj[..., None] + w) * (halves[:, None] * gw).ravel())
            ).reshape(pieces * PIECE_POINTS, -1)
        self._far = scaled @ cheb.T              # d^(2s) times a constant
        self._piece = np.minimum(((t - ta) / (2.0 * half)).astype(int),
                                 pieces - 1)
        self._u2 = 2.0 * (t - mids[self._piece]) / half   # 2u, u in [-1, 1]
        self._scale = d ** -s2

    def __call__(self, p: float) -> np.ndarray:
        """I_p at every node."""
        far = self.kernel.power_tail_integral(self._reach, 0.0, p, 1.0)
        c = ((self._kw @ self._y ** -p).reshape(self._far.shape)
             + far * self._far).T                # points x pieces
        # Clenshaw's recurrence, each node taking its piece's coefficients
        b1 = b2 = 0.0
        for ck in c[:0:-1]:
            b1, b2 = ck[self._piece] + self._u2 * b1 - b2, b1
        return (c[0][self._piece] + 0.5 * self._u2 * b1 - b2) * self._scale


def _power_vector(tables: dict, kernel: KernelSpec,
                  g: GridProfile) -> np.ndarray:
    """exterior_power_vector, building each side's table into `tables`
    (keyed by side) on its first use."""
    out = np.zeros_like(g.x)
    for side, m in ((1, g.ext_right), (-1, g.ext_left)):
        if m.c != 0.0:
            if side not in tables:
                tables[side] = PowerTailTable(kernel, g.x, side)
            out += m.c * tables[side](m.p)
    return out


def exterior_power_vector(kernel: KernelSpec, g: GridProfile) -> np.ndarray:
    """integral over both exteriors of (u_model(y) - limit) K(x_i - y) dy:
    c I_p per side with a power model, from a PowerTailTable built for the
    call (a GridOperator keeps its tables across refits). It is within
    3e-13 relative of the closed form at every node; a table costs about
    1 ms to build at n = 2048, and each p then a few hundred powers and a
    PIECE_POINTS-term sum per node."""
    return _power_vector({}, kernel, g)


class GridOperator:
    """L u = T u - outflow u + diag_coef D u + offset.

    T is the symmetric Toeplitz matrix of the lag weights w (zero diagonal),
    applied by FFT on a circulant embedding; only O(n) vectors are stored.
    outflow, one scalar, is a node's interior row sum of T plus its exterior
    constant mass: the kernel mass beyond h/2 on both sides, the same at
    every node. D is the second difference with Neumann ends (u_1 - u_0 at
    node 0), the diagonal-cell term; the offset carries the exterior limits
    and the optional power corrections.

    The linear part of L is symmetric: -1/h times the Hessian of the
    quadratic part of lyapunov. `eig` holds the eigenvalues of its
    circulant on the FFT embedding (diagonal outflow, periodic D);
    precondition inverts that circulant plus a shift, the solver's Krylov
    preconditioner.
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
        self.wl, self.wr = exterior_constant_weights(kernel, h, self.w)
        self._tables = {}         # PowerTailTable per side, on first use
        self.outflow = 2.0 * float(self.wl[0])
        # diagonal-cell quadratic fit: mom2/h^2 * (u_{i+1} + u_{i-1} - 2 u_i)
        self.diag_coef = kernel.second_moment_integral(h / 2) / h ** 2
        k = np.arange(len(self._w_hat))
        self.eig = (self.outflow - self._w_hat + self.diag_coef
                    * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / self._m)))
        self.offset = 0.0
        self.update_exterior(g)

    def update_exterior(self, g: GridProfile) -> np.ndarray:
        """Take g's exterior models: their limits and power corrections,
        the latter from this operator's PowerTailTable of each side, built
        on the side's first power model. Returns the change of the offset,
        by which L u moves at every u."""
        self.limits = left, right = g.ext_left.limit, g.ext_right.limit
        self.ext_power = _power_vector(self._tables, self.kernel, g)
        offset = left * self.wl + right * self.wr + self.ext_power
        change, self.offset = offset - self.offset, offset
        return change

    def apply(self, u: np.ndarray) -> np.ndarray:
        """L u: T u by one FFT pair on the embedding, minus outflow u, plus
        the diagonal-cell second difference and the offset."""
        tu = np.fft.irfft(np.fft.rfft(u, self._m) * self._w_hat,
                          self._m)[:len(u)]
        return (tu - self.outflow * u + self.offset + self.diag_coef
                * np.diff(np.diff(u), prepend=0, append=0))

    def jacobian_apply(self, v: np.ndarray) -> np.ndarray:
        """The linear part of L applied to v: L v without the offset."""
        return self.apply(v) - self.offset

    def energy(self, u: np.ndarray, Lu: np.ndarray, Wu: np.ndarray) -> float:
        """(1/4) sum_{(i,j) not both exterior} (u_i - u_j)^2 w_ij + h sum Wu,
        given Lu = apply(u).

        Interior pair weights are the exact kernel integrals over the partner
        cell times the cell width h; each interior-exterior pair appears
        twice with the constant far-field levels of the last update_exterior.
        The interior double sum equals -2 u . (T u - r u), r the row sums of
        T. As r + wl + wr = outflow and u . D u = -sum (u_{i+1} - u_i)^2, it
        is -2 (u . (L u - offset + (wl + wr) u) + diag_coef sum (u_{i+1} -
        u_i)^2), which costs no FFT.
        """
        tu = Lu - self.offset + (self.wl + self.wr) * u
        inter = -2.0 * (float(np.dot(u, tu))
                        + self.diag_coef * float(np.sum(np.diff(u) ** 2)))
        left, right = self.limits
        ext = 2.0 * float(np.dot((u - left) ** 2, self.wl)
                          + np.dot((u - right) ** 2, self.wr))
        return 0.25 * self.h * (inter + ext) + self.h * float(np.sum(Wu))

    def lyapunov(self, u: np.ndarray, Lu: np.ndarray, Wu: np.ndarray) -> float:
        """h (sum Wu - u . (L u + offset) / 2), given Lu = apply(u), the
        functional the solver's descent decreases: the energy plus (1/2) h
        diag_coef sum (u_{i+1} - u_i)^2, minus h ext_power . u and a constant
        of the exterior limits. Its gradient is h (W'(u) - L u)."""
        return self.h * (float(np.sum(Wu))
                         - 0.5 * float(np.dot(u, Lu + self.offset)))

    def precondition(self, v: np.ndarray, shift: float) -> np.ndarray:
        """(C + shift I)^-1 v on the embedding, cut to the grid: C the
        circulant of -L's linear part, one FFT pair like one apply."""
        return np.fft.irfft(np.fft.rfft(v, self._m) / (self.eig + shift),
                            self._m)[:len(v)]

    def tau_bounds(self, w2_max: float) -> tuple[float, float]:
        """(tau_0, tau_max) = (0.4 / (outflow + 2 diag_coef + w2_max), 1 /
        (eps (outflow + diag_coef))), from the largest and the smallest
        diagonal of -L's linear part and a bound w2_max on W''. tau_0 is the
        explicit descent's stable step; `eig` is exact only to about eps
        times the outflow, so a shift 1/tau below that is lost in its
        rounding, as in the diagonal of I/tau - J."""
        return (0.4 / (self.outflow + 2.0 * self.diag_coef + w2_max),
                1.0 / (np.finfo(float).eps * (self.outflow + self.diag_coef)))
