"""Energy descent for the truncated nonlocal functional.

The energy is the quadratic interaction of grid values (exact per-cell kernel
weights, exterior folded in through the far-field models) plus the potential
term. Minimization is an explicit gradient flow on the operator residual with
values clamped to [-1, 1] and a monotone rearrangement projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import fit_power_decay
from .errors import Diverged, StalledAboveTolerance
from .gridop import ExteriorModel, GridOperator, GridProfile, lag_weights
from .kernels import KernelSpec
from .potentials import PotentialFn


REFIT_EVERY = 100           # exterior power-model refresh cadence
TAIL_FRACTION = 0.25        # share of the nodes tail_exponent fits per side
ENERGY_CHECK_EVERY = 50
DIVERGENCE_SLACK = 1e-8     # relative; the projection step is not proven
                            # monotone, only observed


@dataclass
class SolveConfig:
    max_iter: int = 20000
    tol: float = 1e-6


def make_grid(L: float, n: int, init: str = "tanh",
              values: np.ndarray | None = None,
              tail_exponent_seed: float | None = None) -> GridProfile:
    """Uniform grid over [-L, L] with a layer-shaped initial guess.

    init 'tanh' is the default seed; 'power' warms the far field with
    1 - (1 + |x|/l)^(-p) using tail_exponent_seed, which matters for heavy
    tails whose relaxation through gradient flow is slow. Explicit values
    override init; any other init raises ValueError.
    """
    x = np.linspace(-L, L, n)
    h = x[1] - x[0]
    if values is not None:
        u = np.clip(np.asarray(values, dtype=float), -1.0, 1.0)
    elif init == "tanh":
        u = np.tanh(x / (5.0 * h))
    elif init == "power":
        p = tail_exponent_seed if tail_exponent_seed is not None else 1.0
        u = np.sign(x) * (1.0 - (1.0 + np.abs(x) / (5.0 * h)) ** (-p))
    else:
        raise ValueError(f"unknown init {init!r}: use 'tanh', 'power' or "
                         "explicit values")
    return GridProfile(x, u, ExteriorModel(-1.0), ExteriorModel(1.0))


def energy(g: GridProfile, pot: PotentialFn, kernel: KernelSpec,
           op: GridOperator | None = None) -> float:
    """(1/4) sum_{(i,j) not both exterior} (u_i - u_j)^2 w_ij + h sum W(u_i).

    Interior pair weights are the exact kernel integrals over the partner
    cell times the cell width h; each interior-exterior pair appears twice
    with the constant far-field levels. The interior double sum equals
    -2 u . (T u - r u), with T the operator's Toeplitz part and r its row
    sums, so it costs one FFT matvec.
    """
    h = g.h
    u = g.values
    if op is None:
        op = GridOperator(kernel, g)
    inter = -2.0 * float(np.dot(u, op.toeplitz_apply(u) - op.row_sums * u))
    ext = 2.0 * float(np.dot((u - g.ext_left.limit) ** 2, op.wl)
                      + np.dot((u - g.ext_right.limit) ** 2, op.wr))
    return 0.25 * h * (inter + ext) + h * float(np.sum(pot.W(u)))


def _lyapunov_from_energy(e: float, g: GridProfile,
                          op: GridOperator) -> float:
    """Add the diagonal-cell and exterior power-correction terms to e."""
    u = g.values
    h = g.h
    e += 0.5 * h * op.diag_coef * float(np.sum(np.diff(u) ** 2))
    e -= h * float(np.dot(op.ext_power, u))
    return e


def lyapunov(g: GridProfile, pot: PotentialFn, kernel: KernelSpec,
             op: GridOperator) -> float:
    """Gradient-consistent functional the descent actually decreases.

    Adds to the energy the diagonal-cell quadratic term and the linear
    exterior power-correction term, whose gradients the operator carries;
    the latter is the power vector of op's last update_exterior, which must
    have seen g's exterior models.
    """
    return _lyapunov_from_energy(energy(g, pot, kernel, op), g, op)


def energy_bruteforce(g: GridProfile, pot: PotentialFn,
                      kernel: KernelSpec) -> float:
    """Naive double-loop evaluation of the same discrete functional."""
    n = len(g.x)
    h = g.h
    u = g.values
    w = lag_weights(kernel, h, n)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += (u[i] - u[j]) ** 2 * w[abs(i - j) - 1]
    op = GridOperator(kernel, g)
    for i in range(n):
        acc += 2.0 * (u[i] - g.ext_left.limit) ** 2 * op.wl[i]
        acc += 2.0 * (u[i] - g.ext_right.limit) ** 2 * op.wr[i]
    return 0.25 * h * acc + h * float(np.sum(pot.W(u)))


def el_residual(g: GridProfile, pot: PotentialFn, kernel: KernelSpec,
                op: GridOperator | None = None) -> float:
    """sup over interior nodes of |L u - W'(u)|."""
    if op is None:
        op = GridOperator(kernel, g)
    op.update_exterior(g)
    r = op.apply(g.values) - pot.W1(g.values)
    return float(np.max(np.abs(r[1:-1])))


def _outer_gap(g: GridProfile, side: int, m: int):
    """Distance y = side x and gap 1 - side u on the outer m nodes of side
    s = +/-1, nearest node first."""
    return side * g.x[::side][-m:], 1.0 - side * g.values[::side][-m:]


def _refit_exterior(g: GridProfile, side: int) -> ExteriorModel:
    """Fit the outer quarter of nodes on side s = +/-1 to s (1 - c |x|^(-p))."""
    y, gap = _outer_gap(g, side, max(8, len(g.x) // 4))
    limit = float(side)
    good = (gap > 1e-12) & (y > 0)
    if np.count_nonzero(good) < 6 or y[good].max() / y[good].min() < 1.5:
        return ExteriorModel(limit)
    try:
        fitres = fit_power_decay(np.column_stack([y[good], gap[good]]),
                                 min_decades=0.15)
    except ValueError:
        return ExteriorModel(limit)
    if not (0.05 < fitres.exponent < 10.0):
        return ExteriorModel(limit)
    return ExteriorModel(limit, -side * math.exp(fitres.log_const),
                         fitres.exponent)


@dataclass
class SolveResult:
    profile: GridProfile
    iterations: int
    residual: float
    energy_trace: list
    converged: bool
    hypothesis_tags: dict = field(default_factory=dict)


def minimize_energy(g0: GridProfile, pot: PotentialFn, kernel: KernelSpec,
                    cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Explicit descent u <- clamp(u + tau (L u - W'(u))) to a layer profile.

    The exterior power correction is refit every REFIT_EVERY iterations;
    the monotone projection (sorting the values) is recorded as a projection,
    not proven energy-decreasing. Raises Diverged if the energy increases
    beyond slack twice, StalledAboveTolerance at the iteration cap.
    """
    g = g0.copy_with(g0.values.copy())
    op = GridOperator(kernel, g)
    max_w2 = pot.max_w2()
    tau = 0.4 / (op.row_sum_scale() + max_w2)
    e_plain = energy(g, pot, kernel, op)
    trace = [e_plain]
    epoch_ref = _lyapunov_from_energy(e_plain, g, op)
    bad_energy = 0
    it = 0
    resid = np.inf
    for it in range(1, cfg.max_iter + 1):
        r = op.apply(g.values) - pot.W1(g.values)
        g.values[:] = np.sort(np.clip(g.values + tau * r, -1.0, 1.0))
        resid = float(np.max(np.abs(r[1:-1])))
        # the plain energy does not depend on the exterior power model, so
        # one evaluation serves a refit and a check in the same iteration
        e_plain = None
        if it % REFIT_EVERY == 0:
            g.ext_left, g.ext_right = (_refit_exterior(g, s) for s in (-1, 1))
            op.update_exterior(g)
            # the exterior model (hence the monitored functional) changed
            e_plain = energy(g, pot, kernel, op)
            epoch_ref = _lyapunov_from_energy(e_plain, g, op)
        if it % ENERGY_CHECK_EVERY == 0:
            if e_plain is None:
                e_plain = energy(g, pot, kernel, op)
            e = _lyapunov_from_energy(e_plain, g, op)
            if e > epoch_ref + DIVERGENCE_SLACK * (1.0 + abs(epoch_ref)):
                bad_energy += 1
                if bad_energy >= 2:
                    raise Diverged(
                        f"energy increased twice (iter {it}: {e} > {epoch_ref})")
            else:
                epoch_ref = e
            trace.append(e_plain)
        if resid < cfg.tol:
            break
    else:
        raise StalledAboveTolerance(
            f"residual {resid:.3e} after {cfg.max_iter} iterations")

    g = recenter(g)
    wells = [pot.params.side(s)[:2] for s in (-1, 1)]
    tags = {
        "strong-hypothesis": max((g - 2) * (g - d) for g, d in wells) < 1.0,
        "weak-hypothesis": max(g - d for g, d in wells) < 1.0,
    }
    return SolveResult(profile=g, iterations=it, residual=resid,
                       energy_trace=trace, converged=resid < cfg.tol,
                       hypothesis_tags=tags)


def recenter(g: GridProfile) -> GridProfile:
    """Shift so the zero crossing sits at x = 0 (resampled by interpolation)."""
    u = g.values
    x = g.x
    idx = np.nonzero(np.diff(np.sign(u)) > 0)[0]
    if len(idx) == 0:
        return g
    i = idx[len(idx) // 2]
    x0 = x[i] - u[i] * (x[i + 1] - x[i]) / (u[i + 1] - u[i])
    y = x + x0
    shifted = np.interp(y, x, u)
    # off the grid: the edge value plus the exterior model's increment from
    # the edge, continuous in x0 (the bare limit would snap the edge node)
    for m, edge, off in ((g.ext_left, x[0], y < x[0]),
                         (g.ext_right, x[-1], y > x[-1])):
        shifted[off] += m.c * (np.abs(y[off]) ** -m.p - abs(edge) ** -m.p)
    return g.copy_with(np.clip(shifted, -1.0, 1.0))


def tail_exponent(g: GridProfile, side: int = 1):
    """Power fit of the gap on side s = +/-1 over its outer TAIL_FRACTION of
    all nodes.

    That is the window [L/2, L], a factor-2 span, where the tail model
    dominates on a truncated grid.
    """
    y, gap = _outer_gap(g, side, max(8, int(len(g.x) * TAIL_FRACTION)))
    good = (gap > 1e-13) & (y > 0)
    return fit_power_decay(np.column_stack([y[good], gap[good]]),
                           min_decades=0.25)
