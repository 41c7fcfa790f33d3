"""Energy descent for the truncated nonlocal functional.

The energy is the quadratic interaction of grid values (exact per-cell kernel
weights, exterior folded in through the far-field models) plus the potential
term. Minimization is pseudo-transient continuation (Kelley & Keyes, SINUM
35, 1998): each step solves (I/tau - J) delta = F for the operator residual
F = L u - W'(u) and its Jacobian J by restarted GMRES, then clamps the values
to [-1, 1] and applies a monotone rearrangement projection (sorting). tau
starts at the explicit gradient-flow step and grows by switched evolution
relaxation, at least doubling after each step not halved, so the step moves
from descent u + tau F towards Newton within a few steps. GMRES
is preconditioned by the FFT circulant of the grid operator's linear part
(Chan & Ng, SIAM Review 38, 1996), which carries its |xi|^(2s) spectrum, so
the Krylov count per step does not grow as h shrinks.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .analysis import fit_power_decay
from .errors import Diverged, StalledAboveTolerance
from .gridop import P_FLOOR, ExteriorModel, GridOperator, GridProfile
from .kernels import KernelSpec
from .potentials import PotentialFn


REFIT_EVERY = 5             # exterior power-model refresh, in accepted steps
TAIL_FRACTION = 0.25        # share of the nodes tail_exponent fits per side
DIVERGENCE_SLACK = 1e-8     # relative; the projection step is not proven
                            # monotone, only observed
KRYLOV_RESTART = 20         # GMRES basis size per cycle
KRYLOV_CYCLES = 5           # restarts before a step takes its best delta
KRYLOV_RTOL = 1e-2          # relative GMRES residual of an inexact step
SER_CLAMP = (0.5, 10.0)     # bounds on one step's tau growth factor
TAU_GROWTH_FLOOR = 2.0      # least growth factor after a step not halved:
                            # the residual falls ~10 % per step at tau_0, so
                            # r_old / r_new alone crawls up from it


@dataclass
class SolveConfig:
    max_iter: int = 30000       # passes of minimize_energy: Newton-like
                                # steps, not single matvecs
    tol: float = 1e-6

    def __post_init__(self):
        # a tol of 0 or NaN is never met: the run would spend every pass
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"need a finite tol > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"need max_iter >= 1, got {self.max_iter}")


def make_grid(L: float, n: int, init: str = "tanh",
              values: np.ndarray | None = None,
              tail_exponent_seed: float | None = None) -> GridProfile:
    """Uniform grid over [-L, L] with a layer-shaped initial guess.

    init 'tanh' is the default seed; 'power' warms the far field with
    1 - (1 + |x|/l)^(-p) using tail_exponent_seed, which matters for heavy
    tails whose relaxation through gradient flow is slow. Explicit values
    override init; any other init raises ValueError, as do L <= 0 and
    n < 3: the grid operator needs a uniform grid of three nodes at least.
    """
    if not (L > 0 and n >= 3):
        raise ValueError(f"need L > 0 and n >= 3, got L = {L:g}, n = {n}")
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
    """The discrete energy of g (GridOperator.energy); a given op must have
    seen g's exterior models."""
    op = op if op is not None else GridOperator(kernel, g)
    return op.energy(g.values, pot.W(g.values))


def lyapunov(g: GridProfile, pot: PotentialFn, kernel: KernelSpec,
             op: GridOperator) -> float:
    """The functional the descent decreases (GridOperator.lyapunov); op
    must have seen g's exterior models."""
    return op.lyapunov(g.values, energy(g, pot, kernel, op))


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
    if not (P_FLOOR < fitres.exponent < 10.0):
        return ExteriorModel(limit)
    return ExteriorModel(limit, -side * math.exp(fitres.log_const),
                         fitres.exponent)


@dataclass
class SolveResult:
    """A relaxed profile and its run record.

    iterations counts the loop's passes: each evaluates the residual once
    and all but the last take one pseudo-transient step. residual_trace
    holds each pass's interior sup residual (under the refit exterior where
    it was refit) and refit_steps the passes that refit it. For each step
    taken, tau_trace holds the tau it was taken with and krylov_iterations
    the GMRES iterations it cost (rejected tries included); energy_trace
    holds the plain energy before the first step and after each one, and
    rejected_steps counts the tau halvings.
    """

    profile: GridProfile
    iterations: int
    residual: float
    energy_trace: list
    converged: bool
    hypothesis_tags: dict = field(default_factory=dict)
    residual_trace: list = field(default_factory=list)
    tau_trace: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)
    refit_steps: list = field(default_factory=list)
    rejected_steps: int = 0


def gmres(matvec, b: np.ndarray, precond):
    """Right-preconditioned restarted GMRES for A x = b from x = 0.

    precond(v) applies the inverse preconditioner M^-1. Only the Arnoldi
    basis V of A M^-1 is stored (KRYLOV_RESTART + 1 vectors); each cycle
    adds M^-1 V y to x. Stops when the residual norm falls to KRYLOV_RTOL |b|
    or after KRYLOV_CYCLES cycles, and returns x and the iteration count.
    """
    restart = KRYLOV_RESTART
    # an anonymous mapping, unmapped on return: a freed malloc block this
    # size (0.7 MB at n = 4096) raises glibc's mmap threshold, and later
    # bases then stay resident in the heap
    V = np.frombuffer(mmap.mmap(-1, (restart + 1) * b.nbytes)).reshape(
        restart + 1, len(b))
    x = np.zeros_like(b)
    target = KRYLOV_RTOL * np.linalg.norm(b)
    H = np.zeros((restart + 1, restart))
    cs, sn = np.zeros(restart), np.zeros(restart)
    r = b
    its = 0
    for cycle in range(KRYLOV_CYCLES):
        beta = np.linalg.norm(r)
        if beta <= target:
            break
        V[0] = r / beta
        z = np.zeros(restart + 1)
        z[0] = beta
        H[:] = 0.0
        for j in range(restart):
            w = matvec(precond(V[j]))
            its += 1
            for _ in range(2):    # classical Gram-Schmidt, reorthogonalized
                c = V[:j + 1] @ w
                w -= c @ V[:j + 1]
                H[:j + 1, j] += c
            h_next = H[j + 1, j] = np.linalg.norm(w)
            # Givens rotations keep H upper triangular and |z[j+1]| the
            # residual norm
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            d = math.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / d, H[j + 1, j] / d
            H[j, j], H[j + 1, j] = d, 0.0
            z[j], z[j + 1] = cs[j] * z[j], -sn[j] * z[j]
            if abs(z[j + 1]) <= target or h_next == 0.0:
                break
            V[j + 1] = w / h_next
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):     # back substitution
            y[i] = (z[i] - H[i, i + 1:k] @ y[i + 1:k]) / H[i, i]
        x += precond(y @ V[:k])
        if abs(z[k]) <= target or cycle == KRYLOV_CYCLES - 1:
            break
        r = b - matvec(x)
    return x, its


def _step(g: GridProfile, pot: PotentialFn, op: GridOperator,
          F: np.ndarray, tau: float, tau0: float, ref: float, it: int):
    """Take step `it` from g.values: solve (I/tau - J) delta = F by GMRES
    and set g.values to sort(clamp(u + delta, -1, 1)), halving tau, down to
    tau0, while that raises the Lyapunov functional beyond DIVERGENCE_SLACK
    over ref. The preconditioner is op.precondition, the circulant of -L's
    linear part shifted by 1/tau + mean(max(W''(u), 0)): it carries the
    operator's |xi|^(2s) spectrum, which a diagonal cannot. Returns the tau
    taken, the new plain and Lyapunov energies, the GMRES iterations and the
    halvings.
    The step's vectors are freed on return, before the exterior refit.
    """
    u = g.values
    w2 = pot.W2(u)
    w2_mean = float(np.mean(np.maximum(w2, 0.0)))
    krylov = halvings = 0
    while True:
        shift = 1.0 / tau + w2_mean
        delta, k = gmres(
            lambda v: v / tau + w2 * v - op.jacobian_apply(v), F,
            lambda v: op.precondition(v, shift))
        krylov += k
        g.values = np.sort(np.clip(u + delta, -1.0, 1.0))
        e_plain = op.energy(g.values, pot.W(g.values))
        e = op.lyapunov(g.values, e_plain)
        if e <= ref + DIVERGENCE_SLACK * (1.0 + abs(ref)):
            return tau, e_plain, e, krylov, halvings
        if tau <= tau0:
            raise Diverged(f"step {it} raises the energy at the explicit "
                           f"step size ({e} > {ref})")
        tau = max(0.5 * tau, tau0)
        halvings += 1


def minimize_energy(g0: GridProfile, pot: PotentialFn, kernel: KernelSpec,
                    cfg: SolveConfig) -> SolveResult:
    """Pseudo-transient descent to a layer profile.

    Each pass of the loop evaluates the residual F = L u - W'(u) once and,
    unless it has converged, takes one step: it solves (I/tau - J) delta = F,
    with J v = (L v - offset) - W''(u) v, by GMRES to KRYLOV_RTOL under the
    circulant preconditioner C + 1/tau + mean(max(W''(u), 0)), C the
    circulant of -L's linear part (GridOperator.precondition), and sets
    u <- sort(clamp(u + delta, -1, 1)). tau_0 is the explicit descent's
    stable step and its floor; tau grows by switched evolution relaxation,
    tau <- tau clamp(max(r_old / r_new, TAU_GROWTH_FLOOR), SER_CLAMP) after a
    step taken at its tau and tau <- tau clamp(r_old / r_new, SER_CLAMP)
    after one that halved it, r the interior sup residual, up to the cap of
    GridOperator.tau_bounds. A step that raises the Lyapunov functional
    beyond DIVERGENCE_SLACK is retried with tau halved, down to tau_0; one
    that still raises it there raises Diverged. The sort is recorded as a
    projection, not proven energy-decreasing.

    The exterior power models are refit every REFIT_EVERY steps, and
    convergence (residual < cfg.tol) is declared only right after a refit
    at the current values: a stale model would stop the run with the tail
    out of step with its exterior. `iterations` counts passes, one more
    than the steps taken (the last pass only confirms convergence), and
    StalledAboveTolerance is raised after cfg.max_iter of them.
    """
    g = g0.copy_with(g0.values.copy())
    op = GridOperator(kernel, g)
    tau0, tau_max = op.tau_bounds(pot.max_w2())
    tau = tau0
    e_plain = op.energy(g.values, pot.W(g.values))
    ref = op.lyapunov(g.values, e_plain)
    res = SolveResult(profile=g, iterations=0, residual=np.inf,
                      energy_trace=[e_plain], converged=False)
    resid = np.inf
    since_refit = 0
    for it in range(1, cfg.max_iter + 1):
        u = g.values
        w1 = pot.W1(u)
        F = op.apply(u) - w1
        r_new = float(np.max(np.abs(F[1:-1])))
        if it > 1:
            growth = resid / r_new if r_new > 0.0 else SER_CLAMP[1]
            if not halvings:
                growth = max(growth, TAU_GROWTH_FLOOR)
            tau = min(max(tau * min(max(growth, SER_CLAMP[0]), SER_CLAMP[1]),
                          tau0), tau_max)
        resid = r_new
        if since_refit == REFIT_EVERY or resid < cfg.tol:
            limits = g.ext_left.limit, g.ext_right.limit
            g.ext_left, g.ext_right = (_refit_exterior(g, s) for s in (-1, 1))
            op.update_exterior(g)
            # the plain energy reads the exterior limits (a refit sets them
            # to -1 and 1) but not the power model
            if (g.ext_left.limit, g.ext_right.limit) != limits:
                e_plain = op.energy(u, pot.W(u))
            ref = op.lyapunov(u, e_plain)
            F = op.apply(u) - w1
            resid = float(np.max(np.abs(F[1:-1])))
            res.refit_steps.append(it)
            since_refit = 0
        res.residual_trace.append(resid)
        if resid < cfg.tol:
            break
        tau, e_plain, ref, krylov, halvings = _step(
            g, pot, op, F, tau, tau0, ref, it)
        res.rejected_steps += halvings
        res.tau_trace.append(tau)
        res.krylov_iterations.append(krylov)
        res.energy_trace.append(e_plain)
        since_refit += 1
    else:
        raise StalledAboveTolerance(
            f"residual {resid:.3e} after {cfg.max_iter} passes")

    res.profile = g = recenter(g)
    res.iterations, res.residual, res.converged = it, resid, True
    wells = [pot.params.side(s)[:2] for s in (-1, 1)]
    res.hypothesis_tags = {
        "strong-hypothesis": max((g - 2) * (g - d) for g, d in wells) < 1.0,
        "weak-hypothesis": max(g - d for g, d in wells) < 1.0,
    }
    return res


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
