"""Energy descent for the truncated nonlocal functional.

The energy is the quadratic interaction of grid values (exact per-cell kernel
weights, exterior folded in through the far-field models) plus the potential
term. Minimization is pseudo-transient continuation (Kelley & Keyes, SINUM
35, 1998): each step solves (I/tau - J) delta = F for the operator residual
F = L u - W'(u) and its Jacobian J by restarted GMRES, then clamps the values
to [-1, 1]. tau starts at the explicit gradient-flow step and grows tenfold
after each step not halved, as Marquardt's damping 1/tau shrinks on success
(SIAM J. Appl. Math. 11, 1963), so the step moves from descent u + tau F
towards Newton within a few steps; after a halved step it grows by switched
evolution relaxation.
The far-field power models are refit from the values, so F depends on u
through them too, and J carries that dependence as Newton-Krylov does
(Knoll & Keyes, J. Comput. Phys. 193, 2004): the regression fit's
derivative times the offset's moves per unit ln|c| and p, a term of rank at
most 4 that costs no FFT. Without it each step holds the models fixed and
the run converges only linearly (criterion 9: 9 / 26 / 11 passes, against
7 / 9 / 6). A step is one loop of tries: the Newton try, judged under the
models refit at its values, and after its rejection tries with the models
held fixed, at the same tau and then at tau halved down to the explicit
step.
GMRES is preconditioned by the FFT circulant of the grid operator's linear part
(Chan & Ng, SIAM Review 38, 1996), which carries its |xi|^(2s) spectrum, so
the Krylov count per step does not grow as h shrinks. Every pass reads the
residual right after a refit at its values, and costs one operator product
outside GMRES.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .analysis import fit_power_decay, regression_line
from .errors import Diverged, StalledAboveTolerance
from .gridop import P_FLOOR, GridOperator, GridProfile
from .kernels import KernelSpec
from .potentials import PotentialFn
from .profiles import PowerTail


TAIL_FRACTION = 0.25        # share of the nodes tail_exponent fits per side
DIVERGENCE_SLACK = 1e-8     # relative; the clamped step is not proven
                            # monotone, only observed
KRYLOV_RESTART = 20         # GMRES basis size per cycle
KRYLOV_CYCLES = 5           # restarts before a step takes its best delta
KRYLOV_RTOL = 1e-2          # relative GMRES residual of an inexact step
SER_CLAMP = (0.5, 10.0)     # bounds on one step's tau growth factor; a
                            # step not halved takes the upper one


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
              tail_exponent_seed: float | None = None) -> GridProfile:
    """Uniform grid over [-L, L] with a layer-shaped initial guess.

    init 'tanh' is the default seed; 'power' warms the far field with
    1 - (1 + |x|/l)^(-p) using tail_exponent_seed, which matters for heavy
    tails whose relaxation through gradient flow is slow. Any other init
    raises ValueError, as do L <= 0 and n < 3: the grid operator needs a
    uniform grid of three nodes at least.
    """
    if not (L > 0 and n >= 3):
        raise ValueError(f"need L > 0 and n >= 3, got L = {L:g}, n = {n}")
    x = np.linspace(-L, L, n)
    h = x[1] - x[0]
    if init == "tanh":
        u = np.tanh(x / (5.0 * h))
    elif init == "power":
        p = tail_exponent_seed if tail_exponent_seed is not None else 1.0
        u = np.sign(x) * (1.0 - (1.0 + np.abs(x) / (5.0 * h)) ** (-p))
    else:
        raise ValueError(f"unknown init {init!r}: use 'tanh' or 'power'")
    return GridProfile(x, u, PowerTail(-1.0), PowerTail(1.0))


def energy(g: GridProfile, pot: PotentialFn, kernel: KernelSpec,
           op: GridOperator | None) -> float:
    """The discrete energy of g (GridOperator.energy), under op, or under a
    new operator on g if op is None; a given op must have seen g's exterior
    models."""
    op = op if op is not None else GridOperator(kernel, g)
    return op.energy(g.values, op.apply(g.values), pot.W(g.values))


def lyapunov(g: GridProfile, pot: PotentialFn, kernel: KernelSpec,
             op: GridOperator | None) -> float:
    """The functional the descent decreases (GridOperator.lyapunov), under
    op, or under a new operator on g if op is None; a given op must have
    seen g's exterior models."""
    op = op if op is not None else GridOperator(kernel, g)
    return op.lyapunov(g.values, op.apply(g.values), pot.W(g.values))


def _outer_gap(g: GridProfile, side: int, m: int):
    """Distance y = side x and gap 1 - side u on the outer m nodes of side
    s = +/-1, nearest node first."""
    return side * g.x[::side][-m:], 1.0 - side * g.values[::side][-m:]


def _refit_exterior(g: GridProfile, side: int):
    """Fit the outer quarter of nodes on side s = +/-1 to s (1 - c |x|^(-p)),
    by fit_power_decay's regression line; the span the guard asks for, a
    factor 1.5, exceeds the 0.15 decades that fit would require.

    Returns the model and the fit's derivative in the values, a 2 x n array
    of d ln|c| / du and dp / du, or None for the bare limit (c = 0), which
    adds nothing to the Jacobian. With X = ln y, Y = ln gap over the
    m fitted nodes and Sxx = sum (X - mean X)^2, the line gives dp/dY_i =
    -(X_i - mean X) / Sxx and d ln|c| / dY_i = 1/m - mean X (X_i - mean X)
    / Sxx, and dY_i / du_i = -s / gap_i.
    """
    m = max(8, len(g.x) // 4)
    y, gap = _outer_gap(g, side, m)
    limit = float(side)
    good = (gap > 1e-12) & (y > 0)
    y = y[good]
    if len(y) < 6 or y.max() / y.min() < 1.5:
        return PowerTail(limit), None
    X, gap = np.log(y), gap[good]
    slope, log_const, _ = regression_line(X, np.log(gap))
    if not (P_FLOOR < -slope < 10.0):
        return PowerTail(limit), None
    mx = X.mean()
    dx = X - mx
    dx /= dx @ dx
    dydu = -side / gap
    deriv = np.zeros((2, len(g.x)))
    nodes = np.arange(len(g.x))[::side][-m:][good]
    deriv[0, nodes] = (1.0 / len(X) - mx * dx) * dydu
    deriv[1, nodes] = -dx * dydu
    return PowerTail(limit, -side * math.exp(log_const), -slope), deriv


def _refit(g: GridProfile, op: GridOperator):
    """Refit both exterior models at g.values and hand them to op. Returns
    the change of L u and the fits' derivatives, (left, right)."""
    fits = [_refit_exterior(g, s) for s in (-1, 1)]
    g.ext_left, g.ext_right = (m for m, _ in fits)
    return op.update_exterior(g), [d for _, d in fits]


def _refit_term(op: GridOperator, derivs, n: int):
    """The refit's share of the Jacobian on n nodes, d offset / du = U^T V,
    as (U, V) of at most 4 rows: per side with a power model, the offset's
    moves per unit ln|c| and p (GridOperator.exterior_sensitivity) against
    the fit's derivatives (_refit_exterior); a bare-limit side adds none."""
    rows = [(m, d) for m, d in zip(op.exterior_sensitivity(), derivs)
            if d is not None]
    return (np.vstack([m for m, _ in rows] or [np.empty((0, n))]),
            np.vstack([d for _, d in rows] or [np.empty((0, n))]))


@dataclass
class SolveResult:
    """A relaxed profile and its run record.

    iterations counts the loop's passes: each refits the exterior models,
    evaluates the residual once and, all but the last, takes one
    pseudo-transient step. Per pass, exterior_trace holds the (left, right)
    models its refit chose (c = 0: the bare limit), residual_trace the
    interior sup residual under them and energy_trace the plain energy. For
    each step taken, tau_trace holds the tau it was taken with and
    krylov_iterations the GMRES iterations it cost (rejected tries
    included); rejected_steps counts the tau halvings and frozen_steps the
    steps taken with the exterior models held fixed, after a Newton try on
    the refit was rejected.
    """

    profile: GridProfile
    iterations: int
    residual: float
    energy_trace: list
    hypothesis_tags: dict = field(default_factory=dict)
    residual_trace: list = field(default_factory=list)
    tau_trace: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)
    exterior_trace: list = field(default_factory=list)
    rejected_steps: int = 0
    frozen_steps: int = 0


def gmres(matvec, b: np.ndarray, precond, basis: np.ndarray):
    """Right-preconditioned restarted GMRES for A x = b from x = 0.

    precond(v) applies the inverse preconditioner M^-1. The caller's
    (2 KRYLOV_RESTART + 1) x len(b) array `basis`, which a run of solves
    reuses, holds the Arnoldi basis V of A M^-1 in its first KRYLOV_RESTART
    + 1 rows and each z_j = M^-1 v_j in the rest, as flexible GMRES keeps
    them (Saad, SIAM J. Sci. Comput. 14, 1993); each cycle adds Z y to x,
    so M^-1 is applied once per iteration and not again at a cycle's end.
    Stops when the residual norm falls to KRYLOV_RTOL |b| or after
    KRYLOV_CYCLES cycles, and returns x and the iteration count.
    """
    restart = KRYLOV_RESTART
    V, Z = basis[:restart + 1], basis[restart + 1:]
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
            Z[j] = precond(V[j])
            w = matvec(Z[j])
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
        x += y @ Z[:k]
        if abs(z[k]) <= target or cycle == KRYLOV_CYCLES - 1:
            break
        r = b - matvec(x)
    return x, its


def _step(g: GridProfile, pot: PotentialFn, op: GridOperator,
          F: np.ndarray, tau: float, tau0: float, Lu: np.ndarray,
          Wu: np.ndarray, derivs, it: int, basis: np.ndarray):
    """Take step `it` from g.values, whose refit is in force with the fit
    derivatives `derivs`, by the loop of tries minimize_energy describes.
    Each try solves (I/tau - J - U^T V) delta = F by GMRES in the Krylov
    basis array `basis`, U^T V the refit's term (_refit_term), sets
    g.values to clamp(u + delta, -1, 1) and checks the Lyapunov functional
    there against the reference. The first try is the Newton try, its
    reference under the models refit at its values; from its rejection on,
    derivs is None, U^T V = 0 and the reference is under u's models, which
    are back in force. The preconditioner, op.precondition, is the
    circulant of -L's linear part shifted by 1/tau + mean(max(W''(u), 0)):
    it carries the operator's |xi|^(2s) spectrum, which a diagonal cannot.

    Returns the tau taken, the new values' L u and W(u) under the models in
    force, the GMRES iterations of all tries, the halvings, and the fit
    derivatives at the new values, or None after a frozen step, whose
    values the next pass refits.
    """
    u = g.values
    w2 = pot.W2(u)
    w2_mean = float(np.mean(np.maximum(w2, 0.0)))
    U, V = _refit_term(op, derivs, len(u))
    models = g.ext_left, g.ext_right
    krylov = halvings = 0
    while True:
        shift = 1.0 / tau + w2_mean
        diag = 1.0 / tau + w2
        delta, k = gmres(
            lambda v: diag * v - op.jacobian_apply(v) - (V @ v) @ U, F,
            lambda v: op.precondition(v, shift), basis)
        krylov += k
        g.values = np.clip(u + delta, -1.0, 1.0)
        if derivs is not None:          # the Newton try, under its refit
            change, derivs = _refit(g, op)
            ref = op.lyapunov(u, Lu + change, Wu)
        Lu_new, Wu_new = op.apply(g.values), pot.W(g.values)
        e = op.lyapunov(g.values, Lu_new, Wu_new)
        if e <= ref + DIVERGENCE_SLACK * (1.0 + abs(ref)):
            return tau, Lu_new, Wu_new, krylov, halvings, derivs
        if derivs is not None:          # hold u's models fixed from here
            g.ext_left, g.ext_right = models
            op.update_exterior(g)
            U = V = U[:0]
            derivs, ref = None, op.lyapunov(u, Lu, Wu)
        elif tau <= tau0:
            raise Diverged(f"step {it} raises the energy at the explicit "
                           f"step size ({e} > {ref})")
        else:
            tau = max(0.5 * tau, tau0)
            halvings += 1


def minimize_energy(g0: GridProfile, pot: PotentialFn, kernel: KernelSpec,
                    cfg: SolveConfig) -> SolveResult:
    """Pseudo-transient Newton descent to a layer profile.

    The residual is F = L u - W'(u) under the exterior power models refit
    at u, so it depends on u through the refit too. Each pass evaluates F
    once under the models refit at the current values and, unless it has
    converged (residual < cfg.tol), takes one step (_step): it solves
    (I/tau - J) delta = F, with J v = (L v - offset) + (d offset/du) v -
    W''(u) v, d offset/du the refit's derivative of rank at most 4, by
    GMRES to KRYLOV_RTOL under the circulant preconditioner C + 1/tau +
    mean(max(W''(u), 0)), C the circulant of -L's linear part
    (GridOperator.precondition), and tries u' = clamp(u + delta, -1, 1),
    in one loop of tries. A try is taken if it does not raise the Lyapunov
    functional beyond DIVERGENCE_SLACK over its reference. The first is
    the Newton try, whose reference is under the models refit at u', which
    then serve the next pass. After its rejection the models of u go back,
    J loses the refit's term, the reference is taken under those models,
    and the loop tries again at the same tau, then with tau halved on each
    further rejection, down to tau_0; a try rejected at tau_0 raises
    Diverged. The next pass refits at the values of such a frozen step;
    `frozen_steps` counts them.

    tau_0 is the explicit descent's stable step and its floor; tau grows
    tenfold, tau <- SER_CLAMP[1] tau, after a step taken at its tau, and
    by switched evolution relaxation, tau <- tau clamp(r_old / r_new,
    SER_CLAMP), after one that halved it, up to the cap of
    GridOperator.tau_bounds; r_old and r_new are the interior sup residuals
    before and after the halved step, both under the exterior models it
    was taken with.

    Convergence is thus read right after a refit at the current values: a
    stale model would stop the run with the tail out of step with its
    exterior. Each pass costs one operator product outside GMRES, and one
    more per halving or frozen step: the product L u of an accepted step
    gives its energy and that pass's residual. One Krylov basis serves the
    run. `iterations` counts passes, one more than the steps taken (the
    last pass only confirms convergence), and StalledAboveTolerance is
    raised after cfg.max_iter of them.
    """
    g = g0.copy_with(g0.values.copy())
    op = GridOperator(kernel, g)
    tau0, tau_max = op.tau_bounds(pot.max_w2())
    tau = tau0
    # one anonymous mapping for the run's Krylov basis and its preconditioned
    # rows: a freed malloc block this size (1.3 MB at n = 4096) raises glibc's
    # mmap threshold, and later arrays then stay resident in the heap; only
    # the rows GMRES touches become resident
    n, rows = len(g.x), 2 * KRYLOV_RESTART + 1
    basis = np.frombuffer(mmap.mmap(-1, rows * 8 * n)).reshape(rows, n)
    Lu, Wu = op.apply(g.values), pot.W(g.values)
    res = SolveResult(profile=g, iterations=0, residual=np.inf,
                      energy_trace=[])
    resid = np.inf
    derivs = None       # the fits' derivatives once u's refit is in force
    for it in range(1, cfg.max_iter + 1):
        u = g.values
        F = Lu - pot.W1(u)
        if it > 1:
            growth = SER_CLAMP[1]
            if halvings:
                # the step's own gain, read under the model it was taken with
                r_new = float(np.max(np.abs(F[1:-1])))
                if r_new > 0.0:
                    growth = min(max(resid / r_new, SER_CLAMP[0]),
                                 SER_CLAMP[1])
            tau = min(max(tau * growth, tau0), tau_max)
        if derivs is None:
            change, derivs = _refit(g, op)
            Lu += change
            F += change
        res.exterior_trace.append((g.ext_left, g.ext_right))
        res.energy_trace.append(op.energy(u, Lu, Wu))
        resid = float(np.max(np.abs(F[1:-1])))
        res.residual_trace.append(resid)
        if resid < cfg.tol:
            break
        tau, Lu, Wu, krylov, halvings, derivs = _step(
            g, pot, op, F, tau, tau0, Lu, Wu, derivs, it, basis)
        res.frozen_steps += derivs is None
        res.rejected_steps += halvings
        res.tau_trace.append(tau)
        res.krylov_iterations.append(krylov)
    else:
        raise StalledAboveTolerance(
            f"residual {resid:.3e} after {cfg.max_iter} passes")

    res.profile = g = recenter(g)
    res.iterations, res.residual = it, resid
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
