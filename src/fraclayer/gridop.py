"""Discrete nonlocal operator on uniform grids with exterior tail models.

Node j carries the cell [x_j - h/2, x_j + h/2]; the weight of cell j seen
from node i is the exact kernel integral over the cell, which depends only on
the lag |i - j| on a uniform grid, so the interior interaction is a symmetric
Toeplitz matrix applied by circulant embedding and FFT in O(n log n) time and
O(n) memory. The diagonal cell is handled by the second-order increment with
a local quadratic fit, a second difference with Neumann ends, so the linear
part of the operator is symmetric; the exterior of the grid contributes
through one profiles.PowerTail per side, u(y) = limit + c |y|^(-p): its
constant limit plus an optional fitted power correction.

The power correction c |y|^(-p) beyond an edge e costs c I_p(d) at a node
at distance d from e, I_p(d) = integral_0^inf |e + side w|^(-p) K(d + w) dw.
The nodes lie at the distances (j + 1/2) h from either edge, and
PowerTailTable tabulates the p-free part of I_p once per grid on that
lattice: each node's Chebyshev basis in ln d, one n x PIECE_POINTS array,
and per edge distance |e| the kernel at the Chebyshev points of short
pieces of ln d times the Gauss weights of a few hundred w-nodes, which
reach far enough that the rest is a small share for a far-tail rule. A
refit with a new p then costs a few hundred powers, one small mat-vec and
one basis product per piece, in O(n) time and memory, and matches the
closed form to about 3e-13 relative at every node up to n = 2^16.

The same matrix gives dI_p/dp, the integral of -ln|y| |y|^(-p), for the
solver's Jacobian; it leaves out the far tail's share, at most FAR_SHARE of
I_p, which only the Jacobian drops.

The grid's layout stays behind GridOperator: apply, update_exterior,
exterior_sensitivity, energy, lyapunov, jacobian_apply, precondition and
tau_bounds are all the solver reads of it, so an operator on another grid
implements those eight methods. Of these, apply (with jacobian_apply) and
precondition cost an FFT pair each; energy and lyapunov read a given L u,
update_exterior returns how L u moves, so a caller keeps the product of its
iterate across refits, and exterior_sensitivity how L u moves per unit
change of each power model's ln|c| and p, in O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .panels import gauss_rule
from .profiles import PowerTail

PIECE_SPAN = math.log(4.0)   # longest piece of ln d: a factor 4 in d
PIECE_POINTS = 14            # Chebyshev points per piece: 3e-13 (12: 5e-12)
W_PANEL_NODES = 12           # Gauss nodes per w-panel
W_PANEL_RATIO = 3.0          # a panel's end over its start: with every
                             # singularity at w <= 0, its error is 3.73^-24
FAR_SHARE = 1e-10            # share of I_p the w-nodes leave to the far tail
P_FLOOR = 0.05               # least exterior p the solver's refit returns


@dataclass
class GridProfile:
    """Values on a grid plus exterior far-field models."""

    x: np.ndarray
    values: np.ndarray
    ext_left: PowerTail = PowerTail(-1.0)
    ext_right: PowerTail = PowerTail(1.0)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ValueError("x and values must be matching 1-d arrays")
        if np.any(np.abs(self.values) > 1.0 + 1e-12):
            raise ValueError("values must lie in [-1, 1]")

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
    """I_p at the nodes of a uniform grid, for either exterior and any p.

    I_p(d) = integral_0^inf |e + side w|^(-p) K(d + w) dw is the kernel mass
    that the exterior model |y|^(-p) carries, y = e + side w beyond the edge
    e, seen from the node at distance d from e (side +1: the right end, -1:
    the left). Node j lies d = (j + 1/2) h from the left edge and node
    n - 1 - j as far from the right one, so both sides share one lattice of
    distances, and the part that does not depend on p is tabulated once:

    - the lattice [h/2, (n - 1/2) h] splits, in ln d, into pieces no longer
      than PIECE_SPAN, each with PIECE_POINTS Chebyshev points d_j:
      d^(2s) I_p(d) is analytic in ln d and varies by a bounded factor, so
      each piece's Chebyshev series converges geometrically (Trefethen,
      Approximation Theory and Approximation Practice, SIAM 2013); the
      nodes of a piece are contiguous, and each keeps its piece's Chebyshev
      basis times d^(-2s), one n x PIECE_POINTS array;
    - per edge distance |e| (one on a grid symmetric about 0), Gauss nodes
      w_k, W_PANEL_NODES to a panel, on [0, a] and on panels of ratio
      W_PANEL_RATIO from a = min(h/2, |e|) out to a reach R, shared by
      every d_j; with the pieces' Chebyshev transforms folded in,
      d_j^(2s) K(d_j + w_k) times the Gauss weights is one matrix;
    - R leaves at most FAR_SHARE of I_p beyond it for the smallest q = p +
      2s the tables are built for, P_FLOOR + 2s. There R dwarfs |e| + d,
      so that far tail is int_R^inf w^(-p) K(w) dw to a relative
      (p + 2)(|e| + d)/R, one KernelSpec.power_tail_integral call at x = 0.

    A call then costs a few hundred powers, one small mat-vec, one far-tail
    call and one basis-times-coefficients product per piece, in O(n) time
    and one n-vector; the table holds the basis and arrays of a few
    thousand entries, under PIECE_POINTS + 1 n-vectors. Against the 2F1
    closed form at 20 digits and the rounded node positions it is within
    3e-13 relative at nodes 0, 1, 10, n/2, n-2 and n-1, under both kernel
    forms, for s from 0.1 to 0.9, p from 0.06 to 9.9 and n from 41 to
    2^16. At n = 2^20 over [-800, 800] it is within 2.8e-12: the lattice
    (j + 1/2) h carries the rounding of h = x_1 - x_0 into the far nodes.
    """

    def __init__(self, kernel: KernelSpec, x: np.ndarray):
        self.kernel = kernel
        self._ends = _edges(x)
        n = len(x)
        self._h = h = float(x[1] - x[0])
        self._s2 = s2 = 2.0 * kernel.s
        d = (np.arange(n) + 0.5) * h
        self._d_max = float(d[-1])
        t = np.log(d)
        ta, tb = float(t[0]), float(t[-1])
        pieces = max(1, math.ceil((tb - ta) / PIECE_SPAN))
        half = 0.5 * (tb - ta) / pieces
        mids = ta + half * (2.0 * np.arange(pieces) + 1.0)
        theta = np.pi * (np.arange(PIECE_POINTS) + 0.5) / PIECE_POINTS
        self._dj = np.exp(mids[:, None] + half * np.cos(theta))  # piece, point
        # Chebyshev coefficients of a piece from its values at the points
        self._cheb = 2.0 / PIECE_POINTS * np.cos(np.outer(
            np.arange(PIECE_POINTS), theta))
        self._cheb[0] *= 0.5
        self._far = self._dj ** s2 @ self._cheb.T   # d^(2s) times a constant
        piece = np.minimum(((t - ta) / (2.0 * half)).astype(int), pieces - 1)
        self._bounds = np.searchsorted(piece, np.arange(pieces + 1))
        u = (t - mids[piece]) / half              # in [-1, 1] on each piece
        basis = np.empty((n, PIECE_POINTS))
        basis[:, 0] = d ** -s2
        basis[:, 1] = u * basis[:, 0]
        for k in range(2, PIECE_POINTS):
            basis[:, k] = 2.0 * u * basis[:, k - 1] - basis[:, k - 2]
        self._basis = basis
        self._weights = {}        # per |e|: the p-free matrix, |y|, reach

    def _edge_weights(self, r: float):
        """The p-free matrix, |y| at the w-nodes and the reach for an edge
        at distance r from the origin, built on the first call."""
        if r not in self._weights:
            a = min(0.5 * self._h, r)
            reach = ((r + self._d_max)
                     * FAR_SHARE ** (-1.0 / (P_FLOOR + self._s2)))
            ends = np.concatenate([[0.0], a * W_PANEL_RATIO ** np.arange(
                math.ceil(math.log(reach / a, W_PANEL_RATIO)) + 1)])
            gt, gw = gauss_rule(W_PANEL_NODES)
            halves = 0.5 * np.diff(ends)
            w = (ends[:-1, None] + halves[:, None] * (1.0 + gt)).ravel()
            dj = self._dj
            kw = np.einsum("ij,mjk->mik", self._cheb, (dj ** self._s2)[
                ..., None] * (self.kernel.k(dj[..., None] + w)
                              * (halves[:, None] * gw).ravel()))
            self._weights[r] = (kw.reshape(dj.size, -1), r + w, ends[-1])
        return self._weights[r]

    def _side_weights(self, side: int):
        """_edge_weights for the edge beyond side +/-1."""
        e = self._ends[side > 0]
        if side * e <= 0.0:
            raise ValueError("an exterior power model needs the origin "
                             "inside the grid")
        return self._edge_weights(abs(e))

    def _expand(self, c: np.ndarray, side: int) -> np.ndarray:
        """Every node's basis times its piece's Chebyshev coefficients c
        (pieces x PIECE_POINTS), ordered for the exterior beyond side
        +/-1."""
        out = np.empty(len(self._basis))
        b = self._bounds
        for k in range(len(c)):
            out[b[k]:b[k + 1]] = self._basis[b[k]:b[k + 1]] @ c[k]
        return out[::-side]

    def __call__(self, p: float, side: int) -> np.ndarray:
        """I_p of the exterior beyond side +/-1 at every node."""
        kw, y, reach = self._side_weights(side)
        far = self.kernel.power_tail_integral(reach, 0.0, p, 1.0)
        return self._expand(
            (kw @ y ** -p).reshape(self._far.shape) + far * self._far, side)

    def dp(self, p: float, side: int) -> np.ndarray:
        """dI_p/dp beyond side +/-1 at every node: -ln|y| |y|^(-p) through
        the same matrix and basis products. It leaves out the far tail's
        share, at most FAR_SHARE of I_p, which __call__ keeps: only the
        solver's Jacobian reads dp."""
        kw, y, _ = self._side_weights(side)
        return self._expand((kw @ (-np.log(y) * y ** -p)).reshape(
            self._far.shape), side)


def _power_vector(table: PowerTailTable | None, kernel: KernelSpec,
                  g: GridProfile):
    """exterior_power_vector, its terms c I_p as (left, right), None for a
    bare limit, and the table it read, which is built here on g's first
    power model if `table` is None."""
    out = np.zeros_like(g.x)
    terms = {}
    for side, m in ((1, g.ext_right), (-1, g.ext_left)):
        if m.c != 0.0:
            if table is None:
                table = PowerTailTable(kernel, g.x)
            terms[side] = m.c * table(m.p, side)
            out += terms[side]
    return out, (terms.get(-1), terms.get(1)), table


def exterior_power_vector(kernel: KernelSpec, g: GridProfile) -> np.ndarray:
    """integral over both exteriors of (u_model(y) - limit) K(x_i - y) dy:
    c I_p per side with a power model, from a PowerTailTable built for the
    call (a GridOperator keeps its table across refits). It is within
    3e-13 relative of the closed form at every node up to n = 2^16; a
    table costs about 1 ms to build at n = 2048, and each p then a few
    hundred powers and one n x PIECE_POINTS product."""
    return _power_vector(None, kernel, g)[0]


class GridOperator:
    """L u = T u - outflow u + diag_coef D u + offset.

    T is the symmetric Toeplitz matrix of the lag weights w (zero diagonal).
    outflow, one scalar, is a node's interior row sum of T plus its exterior
    constant mass: the kernel mass beyond h/2 on both sides, the same at
    every node. D is the second difference with Neumann ends (u_1 - u_0 at
    node 0), the diagonal-cell term; the offset carries the exterior limits
    and the optional power corrections.

    The cell stencil sits in the FFT symbol: the circulant embedding's
    column carries diag_coef at lags +-1 beside w, so one FFT pair applies
    T plus diag_coef times the neighbour sum, and apply then subtracts
    (outflow + 2 diag_coef) u and adds diag_coef u back at the two ends.
    Only O(n) vectors are stored.

    The linear part of L is symmetric: -1/h times the Hessian of the
    quadratic part of lyapunov. `eig`, that diagonal minus the symbol,
    holds the eigenvalues of -L's circulant on the FFT embedding (diagonal
    outflow, periodic D); precondition inverts that circulant plus a
    shift, the solver's Krylov preconditioner.
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
        # diagonal-cell quadratic fit: mom2/h^2 * (u_{i+1} + u_{i-1} - 2 u_i)
        self.diag_coef = kernel.second_moment_integral(h / 2) / h ** 2
        # circulant embedding: column [0, w_1..w_{n-1}, 0.., w_{n-1}..w_1] of
        # power-of-two length >= 2n - 1, with diag_coef added at lags +-1.
        # numpy.fft, not scipy.fft: importing scipy.fft also loads
        # scipy.special, ~0.1 s of every solver start.
        self._m = 1 << (2 * n - 2).bit_length()
        col = np.zeros(self._m)
        col[1:n] = self.w
        col[self._m - n + 1:] = self.w[::-1]
        col[[1, -1]] += self.diag_coef
        self._w_hat = np.fft.rfft(col).real   # symmetric column: real
        self.wl, self.wr = exterior_constant_weights(kernel, h, self.w)
        self._table = None        # PowerTailTable, on the first power model
        self.outflow = 2.0 * float(self.wl[0])
        self._center = self.outflow + 2.0 * self.diag_coef
        self.eig = self._center - self._w_hat
        self.offset = 0.0
        self.update_exterior(g)

    def update_exterior(self, g: GridProfile) -> np.ndarray:
        """Take g's exterior models: their limits and power corrections,
        the latter from this operator's PowerTailTable, built on the first
        power model of either side. Returns the change of the offset, by
        which L u moves at every u."""
        self.limits = left, right = g.ext_left.limit, g.ext_right.limit
        self._models = g.ext_left, g.ext_right
        self.ext_power, self._terms, self._table = _power_vector(
            self._table, self.kernel, g)
        offset = left * self.wl + right * self.wr + self.ext_power
        change, self.offset = offset - self.offset, offset
        return change

    def exterior_sensitivity(self) -> list:
        """How the offset, and so L u, moves with the exterior models of
        the last update_exterior, as (left, right): per side with a power
        model, a 2 x n array of its moves per unit ln|c| and per unit p,
        c I_p and c dI_p/dp (PowerTailTable.dp, without the far tail's
        share); None for a bare limit."""
        return [None if t is None else np.stack(
                    [t, m.c * self._table.dp(m.p, side)])
                for side, m, t in zip((-1, 1), self._models, self._terms)]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """L u: the symbol's product by one FFT pair on the embedding, minus
        (outflow + 2 diag_coef) u, plus diag_coef u at the two Neumann ends,
        plus the offset."""
        lu = np.fft.irfft(np.fft.rfft(u, self._m) * self._w_hat,
                          self._m)[:len(u)]
        lu -= self._center * u
        lu[0] += self.diag_coef * u[0]
        lu[-1] += self.diag_coef * u[-1]
        lu += self.offset
        return lu

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
        return (0.4 / (self._center + w2_max),
                1.0 / (np.finfo(float).eps * (self.outflow + self.diag_coef)))
