import math
import time
import tracemalloc

import numpy as np
import pytest

from fraclayer import solver

from fraclayer.errors import Diverged, StalledAboveTolerance
from fraclayer.gridop import GridOperator, GridProfile, lag_weights
from fraclayer.kernels import fractional_kernel, perturbed_kernel
from fraclayer.potentials import WellParams, make_potential
from fraclayer.profiles import PowerTail
from fraclayer.solver import (SolveConfig, _refit_exterior, energy, gmres,
                              make_grid, minimize_energy, recenter,
                              tail_exponent)

QUARTIC = WellParams(alpha=2, beta=2, gamma=2, delta=2, c1=2, c2=2, c3=2,
                     c4=2, mu=0.5)


def energy_bruteforce(g, pot, kernel) -> float:
    """Naive double-loop evaluation of the solver's discrete functional."""
    n = len(g.x)
    h = g.x[1] - g.x[0]
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


def el_residual(g, pot, kernel) -> float:
    """sup over interior nodes of |L u - W'(u)| under g's exterior."""
    r = GridOperator(kernel, g).apply(g.values) - pot.W1(g.values)
    return float(np.max(np.abs(r[1:-1])))


@pytest.fixture(scope="module")
def small_solution(kernel_half_mod):
    pot = make_potential(QUARTIC)
    res = minimize_energy(make_grid(100.0, 512), pot, kernel_half_mod,
                          SolveConfig(max_iter=6000, tol=1e-5))
    return pot, res


@pytest.fixture(scope="module")
def kernel_half_mod():
    return fractional_kernel(0.5)


def test_energy_zero_at_pure_state(kernel_half_mod):
    pot = make_potential(QUARTIC)
    g = GridProfile(np.linspace(-20.0, 20.0, 64), np.ones(64),
                    PowerTail(1.0), PowerTail(1.0))
    assert energy(g, pot, kernel_half_mod, None) == pytest.approx(
        0.0, abs=1e-14)


def test_make_grid_rejects_an_unknown_init():
    """A misspelled init raises instead of seeding some other guess."""
    for init in ("powr", "linear", "custom"):
        with pytest.raises(ValueError, match="init"):
            make_grid(10.0, 16, init=init)


def test_energy_matches_bruteforce(kernel_half_mod, rng):
    pot = make_potential(QUARTIC)
    n = 32
    g = make_grid(10.0, n)
    u = np.clip(np.tanh(g.x) + 0.1 * rng.standard_normal(n), -1, 1)
    g = g.copy_with(u)
    assert energy(g, pot, kernel_half_mod, None) == pytest.approx(
        energy_bruteforce(g, pot, kernel_half_mod), rel=1e-12)


def test_interface_cross_energy(kernel_half_mod):
    """+1 interior with a -1 left exterior: only the cross term remains."""
    pot = make_potential(QUARTIC)
    n = 32
    x = np.linspace(-10, 10, n)
    g = GridProfile(x, np.ones(n), PowerTail(-1.0), PowerTail(1.0))
    e = energy(g, pot, kernel_half_mod, None)
    assert e == pytest.approx(energy_bruteforce(g, pot, kernel_half_mod),
                              rel=1e-12)
    op = GridOperator(kernel_half_mod, g)
    ref = 0.25 * (x[1] - x[0]) * float(np.sum(2.0 * 4.0 * op.wl))
    assert e == pytest.approx(ref, rel=1e-12)


def test_solver_converges_and_is_monotone(small_solution, kernel_half_mod):
    pot, res = small_solution
    assert res.residual < 1e-5
    assert np.all(np.diff(res.profile.values) >= -1e-14)
    assert el_residual(res.profile, pot, kernel_half_mod) < 1e-4
    # recentring pins the interpolated zero crossing
    z = np.interp(0.0, res.profile.values, res.profile.x)
    assert abs(z) < res.profile.x[1] - res.profile.x[0]


def test_energy_descent_trace(small_solution):
    """Monotone within exterior-model epochs; refits may bump the plain
    energy by the model-change scale."""
    _, res = small_solution
    e = np.asarray(res.energy_trace)
    assert np.all(np.diff(e) <= 1e-3 * (1 + np.abs(e[:-1])))
    assert e[-1] < e[0]


def test_warm_restart_exits_fast(small_solution, kernel_half_mod):
    pot, res = small_solution
    res2 = minimize_energy(res.profile, pot, kernel_half_mod,
                           SolveConfig(max_iter=2000, tol=1e-4))
    assert res2.iterations <= 2


def test_quartic_decay_exponent(small_solution):
    _, res = small_solution
    fit = tail_exponent(res.profile)
    assert fit.exponent == pytest.approx(1.0, rel=0.15)


def test_mirrored_grid_swaps_the_tail_fits():
    """x -> -x[::-1], u -> -u[::-1] swaps the two sides' fits and their
    derivatives, bit for bit."""
    x = np.linspace(-60.0, 60.0, 301)
    u = np.sign(x) * (1.0 - (1.0 + np.abs(x)) ** np.where(x > 0, -0.8, -1.3))
    g = make_grid(60.0, 301).copy_with(u)
    m = GridProfile(-g.x[::-1], -g.values[::-1])
    for side in (1, -1):
        assert tail_exponent(m, -side) == tail_exponent(g, side)
        (a, da), (b, db) = _refit_exterior(m, -side), _refit_exterior(g, side)
        assert (a.limit, a.c, a.p) == (-b.limit, -b.c, b.p) and b.c != 0.0
        # u -> -u[::-1]: the derivative in the mirrored values is mirrored
        assert np.array_equal(da, -db[:, ::-1])
    assert tail_exponent(g).exponent != tail_exponent(g, -1).exponent


def test_comparison_of_energies(small_solution, kernel_half_mod):
    """W1 >= W2 pointwise forces E1 >= E2 on converged profiles."""
    pot, res = small_solutions = small_solution
    half = WellParams(alpha=2, beta=2, gamma=2, delta=2, c1=1, c2=1, c3=1,
                      c4=1, mu=0.5)
    pot_half = make_potential(half)
    res_half = minimize_energy(make_grid(100.0, 512), pot_half,
                               kernel_half_mod,
                               SolveConfig(max_iter=6000, tol=1e-5))
    e1 = energy(res.profile, pot, kernel_half_mod, None)
    e2 = energy(res_half.profile, pot_half, kernel_half_mod, None)
    assert e1 >= e2


def test_projection_consistency(small_solution, kernel_half_mod):
    """The converged profile stays (nearly) fixed under one unprojected step."""
    pot, res = small_solution
    op = GridOperator(kernel_half_mod, res.profile)
    r = op.apply(res.profile.values) - pot.W1(res.profile.values)
    tau = op.tau_bounds(pot.max_w2())[0]
    stepped = np.clip(res.profile.values + tau * r, -1.0, 1.0)
    assert np.max(np.abs(stepped - res.profile.values)) < 1e-5


def test_translation_shift_energy(small_solution, kernel_half_mod):
    pot, res = small_solution
    u = res.profile.values
    shifted = np.concatenate([[u[0]], u[:-1]])
    g2 = res.profile.copy_with(shifted)
    e1 = energy(res.profile, pot, kernel_half_mod, None)
    e2 = energy(g2, pot, kernel_half_mod, None)
    assert abs(e1 - e2) < 0.02 * (1 + abs(e1))


def test_hypothesis_tags(small_solution):
    _, res = small_solution
    assert res.hypothesis_tags["strong-hypothesis"]
    assert res.hypothesis_tags["weak-hypothesis"]


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  perturbed_kernel(0.4, 0.5, 2.0)],
                         ids=["fractional", "perturbed"])
@pytest.mark.parametrize("powered", [False, True])
def test_fft_energy_matches_bruteforce(kern, powered, rng):
    pot = make_potential(QUARTIC)
    n = 101
    x = np.linspace(-25.0, 25.0, n)
    u = np.clip(np.tanh(x / 3) + 0.1 * rng.standard_normal(n), -1, 1)
    if powered:
        ext = PowerTail(-1.0, 0.3, 1.3), PowerTail(1.0, -0.4, 0.8)
    else:
        ext = PowerTail(-1.0), PowerTail(1.0)
    g = GridProfile(x, u, *ext)
    assert energy(g, pot, kern, None) == pytest.approx(
        energy_bruteforce(g, pot, kern), rel=1e-12)


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  perturbed_kernel(0.4, 0.5, 2.0)],
                         ids=["fractional", "perturbed"])
def test_lyapunov_gradient_is_the_residual(kern, rng):
    """The central difference of the Lyapunov functional is h (W'(u) - L u)
    at every node, the two ends included: L's linear part is symmetric. The
    values stay inside the wells, where W is smooth: W'' jumps at +-1."""
    pot = make_potential(QUARTIC)
    n = 101
    x = np.linspace(-25.0, 25.0, n)
    u = np.clip(0.8 * np.tanh(x / 3) + 0.05 * rng.standard_normal(n),
                -0.99, 0.99)
    g = GridProfile(x, u, PowerTail(-1.0, 0.3, 1.3),
                    PowerTail(1.0, -0.4, 0.8))
    op = GridOperator(kern, g)

    def lyap(v):
        return op.lyapunov(v, op.apply(v), pot.W(v))

    d = 1e-5 * np.eye(n)
    fd = np.array([lyap(u + d[i]) - lyap(u - d[i]) for i in range(n)]) / 2e-5
    h = x[1] - x[0]
    grad = h * (pot.W1(u) - op.apply(u))
    np.testing.assert_allclose(fd, grad, rtol=0,
                               atol=1e-8 * np.max(np.abs(grad)))


def test_operator_and_energy_memory_at_n_2_16(kernel_half_mod):
    """The dense pair would need 2 x 32 GiB at this size."""
    pot = make_potential(QUARTIC)
    n = 2 ** 16
    x = (np.arange(n) - (n - 1) / 2) * 0.25    # exactly uniform
    g = GridProfile(x, np.tanh(x / 5), PowerTail(-1.0, 0.5, 1.0),
                    PowerTail(1.0, -0.5, 1.0))
    tracemalloc.start()
    try:
        op = GridOperator(kernel_half_mod, g)
        v = op.apply(g.values)
        e = energy(g, pot, kernel_half_mod, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(v)) and np.isfinite(e)
    assert peak < 100 * 2 ** 20
    assert not [k for k, a in vars(op).items()
                if isinstance(a, np.ndarray) and a.ndim >= 2]


def test_recenter_keeps_edge_node_for_subulp_shift():
    """A crossing at x0 ~ 2e-14 rounds x[-1] + x0 past x[-1] = 200; the last
    node must move by its slope times x0, not jump to the exterior limit."""
    n = 2048
    x = np.linspace(-200.0, 200.0, n)
    a = 2e-14
    for right in (PowerTail(1.0), PowerTail(1.0, -1.0, 1.0)):
        g = GridProfile(x, (x - a) / (1.0 + np.abs(x - a)),
                        PowerTail(-1.0), right)
        u = g.values
        i = np.nonzero(np.diff(np.sign(u)) > 0)[0][0]
        x0 = x[i] - u[i] * (x[i + 1] - x[i]) / (u[i + 1] - u[i])
        assert x[-1] + x0 > x[-1]          # the shift rounds off the grid
        moved = recenter(g).values - u
        assert np.max(np.abs(moved)) < 1e-10


def _dominant_systems(rng):
    """A random dense system, solved within one GMRES cycle, and an upwinded
    convection-diffusion one that needs a restart (29 iterations). Both are
    nonsymmetric and strictly diagonally dominant."""
    n = 60
    dense = np.diag(rng.uniform(4.0, 8.0, n)) \
        + rng.uniform(-1.0, 1.0, (n, n)) / np.sqrt(n)
    n = 200
    banded = (np.diag(np.full(n, 2.1)) + np.diag(np.full(n - 1, -1.3), -1)
              + np.diag(np.full(n - 1, -0.7), 1))
    return [(dense, False), (banded, True)]


@pytest.mark.parametrize("rtol", [None, 1e-10])
def test_gmres_reaches_its_rtol(rtol, rng, monkeypatch):
    """At KRYLOV_RTOL, and at 1e-10 with the cycle cap lifted, the solution
    agrees with np.linalg.solve to the condition number times the rtol."""
    default = rtol is None
    if not default:
        monkeypatch.setattr(solver, "KRYLOV_RTOL", rtol)
        monkeypatch.setattr(solver, "KRYLOV_CYCLES", 50)
    rtol = solver.KRYLOV_RTOL
    for A, restarted in _dominant_systems(rng):
        b = rng.standard_normal(len(A))
        exact = np.linalg.solve(A, b)
        x, its = gmres(lambda v: A @ v, b, lambda v: v / np.diag(A),
                       np.empty((2 * solver.KRYLOV_RESTART + 1, len(b))))
        assert np.linalg.norm(b - A @ x) <= rtol * np.linalg.norm(b)
        assert np.linalg.norm(x - exact) <= (
            np.linalg.cond(A) * rtol * np.linalg.norm(exact))
        assert 0 < its <= len(b)
        if default:
            assert (its > solver.KRYLOV_RESTART) == restarted


def test_convergence_waits_for_a_fresh_exterior_refit(kernel_half_mod):
    """Degenerate (quartic-flat) wells: the exponent read at convergence is
    the one a further refit and re-solve reads. Stopping on the first
    residual below tol under a stale exterior model reads 0.69 here, and
    0.38 after the re-solve."""
    pot = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,
                                    mu=0.5))
    cfg = SolveConfig(max_iter=5000, tol=1e-5)
    res = minimize_energy(make_grid(100.0, 512), pot, kernel_half_mod, cfg)
    g = res.profile
    # the last pass refit the models the run ends with
    assert len(res.exterior_trace) == res.iterations
    assert res.exterior_trace[-1] == (g.ext_left, g.ext_right)
    g.ext_left, g.ext_right = (_refit_exterior(g, s)[0] for s in (-1, 1))
    again = minimize_energy(g, pot, kernel_half_mod, cfg)
    assert tail_exponent(again.profile).exponent == pytest.approx(
        tail_exponent(res.profile).exponent, abs=1e-3)
    # every step grows tau tenfold, and the Newton steps on the refit
    # converge superlinearly (residual ratios 0.10, 0.024, 0.0078 over the
    # last three steps) long before tau nears its cap, where 1/tau drops
    # below the preconditioner's rounding
    tau0, cap = GridOperator(kernel_half_mod, g).tau_bounds(pot.max_w2())
    assert res.rejected_steps == res.frozen_steps == 0
    assert res.tau_trace == pytest.approx(
        [tau0 * 10.0 ** k for k in range(len(res.tau_trace))], rel=1e-12)
    assert max(res.tau_trace) < 1e-6 * cap
    r = np.asarray(res.residual_trace)
    ratios = r[-3:] / r[-4:-1]
    assert np.all(np.diff(ratios) < 0) and ratios[-1] < 0.05


def test_stall_raises_after_max_iter_passes(kernel_half_mod):
    with pytest.raises(StalledAboveTolerance, match="after 2 passes"):
        minimize_energy(make_grid(40.0, 128), make_potential(QUARTIC),
                        kernel_half_mod, SolveConfig(max_iter=2, tol=1e-12))


def test_a_step_rejected_at_tau_0_raises_diverged(monkeypatch,
                                                 kernel_half_mod):
    """With no try accepted, the first step makes the Newton try, then one
    try with the models held fixed at the same tau, which is tau_0 there,
    and raises Diverged: two GMRES solves and no halving."""
    monkeypatch.setattr(solver, "DIVERGENCE_SLACK", -math.inf)
    solves, solve = [], solver.gmres

    def counted_gmres(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(solver, "gmres", counted_gmres)
    with pytest.raises(Diverged, match="step 1 raises"):
        minimize_energy(make_grid(40.0, 128), make_potential(QUARTIC),
                        kernel_half_mod, SolveConfig(max_iter=5, tol=1e-12))
    assert len(solves) == 2


def test_solve_result_records_every_step(small_solution):
    """One residual, energy and exterior refit per pass; one tau and Krylov
    count per step, one step per pass but the last; tau starts at the
    explicit step. The tanh seed's tail is below the fit's floor, so the
    first refit keeps the bare limits; the last pass refit the models the
    profile ends with."""
    _, res = small_solution
    k = res.iterations
    assert len(res.residual_trace) == len(res.tau_trace) + 1 == k
    assert len(res.krylov_iterations) == k - 1
    assert min(res.krylov_iterations) > 0
    assert len(res.energy_trace) == len(res.exterior_trace) == k
    assert res.residual_trace[-1] == res.residual < 1e-5
    assert res.rejected_steps >= 0 and res.tau_trace[-1] > res.tau_trace[0]
    assert res.exterior_trace[0] == (PowerTail(-1.0), PowerTail(1.0))
    g = res.profile
    assert res.exterior_trace[-1] == (g.ext_left, g.ext_right)
    assert g.ext_left.c > 0 > g.ext_right.c


def test_tau_grows_tenfold_after_every_clean_step(small_solution,
                                                  kernel_half_mod):
    """No step is halved here, so tau starts at the explicit step and grows
    by SER_CLAMP's upper factor per step up to its cap: 8 passes (11 while
    it at least doubled, 13 with a refit every 5 steps), where growth by
    r_old / r_new alone crawled up from tau_0 in 23."""
    pot, res = small_solution
    tau0, tau_max = GridOperator(kernel_half_mod, make_grid(
        100.0, 512)).tau_bounds(pot.max_w2())
    assert res.rejected_steps == 0
    assert res.tau_trace[0] == tau0
    for old, new in zip(res.tau_trace, res.tau_trace[1:]):
        assert new == min(solver.SER_CLAMP[1] * old, tau_max)


def test_tau_after_a_halved_step_follows_the_residual_ratio(monkeypatch):
    """With SER_CLAMP's cap raised to 100, degenerate wells at s = 0.75
    reject a Newton try on the refit, and the frozen step that follows
    halves tau (9 times here; nothing is rejected at the cap of 10). After
    a halved step tau grows by r_old / r_new clamped to SER_CLAMP, r_old
    and r_new the interior sup residuals before and after it under the
    model it was taken with; after any other step by the cap. The run
    still reaches the profile of the run that halves none. Both run to
    1e-7: stopped at 1e-5, where this run's last residual reads 7.8e-6 and
    the other's 6.9e-8, their profiles differ by 1.7e-4, and at 1e-7 by
    2.1e-7."""
    pot = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,
                                    mu=0.5))
    kern = fractional_kernel(0.75)
    args = (make_grid(100.0, 512), pot, kern,
            SolveConfig(max_iter=5000, tol=1e-7))
    ref = minimize_energy(*args)
    monkeypatch.setattr(solver, "SER_CLAMP", (0.5, 100.0))
    steps, step = [], solver._step

    def recorded_step(g, pot, op, F, tau, *rest):
        r_old = float(np.max(np.abs(F[1:-1])))
        taken, Lu, Wu, krylov, halvings, derivs = step(g, pot, op, F, tau,
                                                       *rest)
        # only a frozen step halves; its L u is under the models it was
        # taken with, which the next pass refits
        assert derivs is None or halvings == 0
        r_new = float(np.max(np.abs((Lu - pot.W1(g.values))[1:-1])))
        steps.append((tau, taken, halvings, r_old / r_new))
        return taken, Lu, Wu, krylov, halvings, derivs

    monkeypatch.setattr(solver, "_step", recorded_step)
    res = minimize_energy(*args)
    tau0, tau_max = GridOperator(kern, make_grid(100.0, 512)).tau_bounds(
        pot.max_w2())
    assert ref.rejected_steps == ref.frozen_steps == 0
    assert 0 < res.frozen_steps and 0 < res.rejected_steps
    assert res.rejected_steps == sum(s[2] for s in steps)
    for (_, taken, halvings, ratio), (tau, *_) in zip(steps, steps[1:]):
        growth = min(max(ratio, 0.5), 100.0) if halvings else 100.0
        assert tau == pytest.approx(
            min(max(taken * growth, tau0), tau_max), rel=1e-12)
    assert res.residual < 1e-7
    assert np.max(np.abs(res.profile.values - ref.profile.values)) < 1e-5


def test_a_refit_that_moves_the_limits_renews_the_reference(kernel_half_mod):
    """A grid started with exterior limits -0.5 and 0.5: the first refit
    sets them to -1 and 1, which changes the plain energy, so the next step
    is checked against the energy under the new limits. Checked against the
    old limits' energy, that step raised Diverged. One Newton try on the
    refit is rejected here, and the step is taken with the models held
    fixed; without that fallback the run raised Diverged."""
    x = np.linspace(-60.0, 60.0, 256)
    g = GridProfile(x, 0.5 * np.tanh(x / 5.0), PowerTail(-0.5),
                    PowerTail(0.5))
    pot = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,
                                    mu=0.5))
    res = minimize_energy(g, pot, kernel_half_mod,
                          SolveConfig(max_iter=5000, tol=1e-6))
    assert res.residual < 1e-6
    assert res.frozen_steps >= 1
    assert (res.profile.ext_left.limit, res.profile.ext_right.limit) == (
        -1.0, 1.0)


def test_circulant_preconditioner_is_mesh_independent(kernel_half_mod):
    """Degenerate wells on [-100, 100]: halving h leaves the costliest
    step's GMRES count unchanged. Measured 4 at n = 512 and 3 at n = 1024
    (a Jacobi preconditioner took 25 and 34, growing with n)."""
    pot = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,
                                    mu=0.5))
    worst = [max(minimize_energy(make_grid(100.0, n), pot, kernel_half_mod,
                                 SolveConfig(max_iter=5000, tol=1e-5)
                                 ).krylov_iterations)
             for n in (512, 1024)]
    assert max(worst) <= 6


def test_each_pass_costs_one_operator_product_outside_gmres(
        kernel_half_mod, monkeypatch):
    """Toeplitz products (GridOperator.apply, jacobian_apply's included)
    over a whole solve: one per GMRES iteration and restart, and one per
    pass; circulant solves (GridOperator.precondition): one per GMRES
    iteration, none at a cycle's end. A basis of 4 vectors makes GMRES
    restart; no step is halved or frozen."""
    monkeypatch.setattr(solver, "KRYLOV_RESTART", 4)
    counts = {"apply": 0, "precondition": 0, "restarts": 0}
    apply, precondition = GridOperator.apply, GridOperator.precondition
    gmres_ = solver.gmres

    def counted_apply(self, u):
        counts["apply"] += 1
        return apply(self, u)

    def counted_precondition(self, v, shift):
        counts["precondition"] += 1
        return precondition(self, v, shift)

    def counted_gmres(matvec, b, precond, basis):
        calls = []
        x, its = gmres_(lambda v: calls.append(0) or matvec(v), b, precond,
                        basis)
        counts["restarts"] += len(calls) - its
        return x, its

    monkeypatch.setattr(GridOperator, "apply", counted_apply)
    monkeypatch.setattr(GridOperator, "precondition", counted_precondition)
    monkeypatch.setattr(solver, "gmres", counted_gmres)
    pot = make_potential(WellParams(alpha=2, beta=2, gamma=3, delta=3, c1=2,
                                    c2=2, c3=1, c4=1.5))
    res = minimize_energy(make_grid(60.0, 256), pot, kernel_half_mod,
                          SolveConfig(max_iter=1000, tol=2e-5))
    assert res.rejected_steps == res.frozen_steps == 0
    assert counts["restarts"] > 0
    assert counts["apply"] == (sum(res.krylov_iterations)
                               + counts["restarts"] + res.iterations)
    assert counts["precondition"] == sum(res.krylov_iterations)


CRITERION_9 = {     # s, wells, L, n, init, tol; measured passes and Krylov
    "9a": (0.5, dict(alpha=2, beta=2, gamma=2, delta=2, c1=2, c2=2, c3=2,
                     c4=2, mu=0.5), 200.0, 2048, "tanh", 1e-6, 7, 14),
    "9b": (0.5, dict(alpha=4, beta=4, gamma=4, delta=4, mu=0.5), 200.0,
           2048, "tanh", 1e-6, 9, 24),
    "9c": (0.75, dict(alpha=4.5, beta=4.0, gamma=4.5, delta=4.0,
                      mode="oscillatory"), 800.0, 4096, "power", 6e-4, 6,
           13),
}


def _criterion_9(case, tol=None):
    s, wells, L, n, init, case_tol, *_ = CRITERION_9[case]
    return minimize_energy(
        make_grid(L, n, init=init, tail_exponent_seed=0.5 * (
            1.5 / 3.0 + 1.5 / 3.5)),
        make_potential(WellParams(**wells)), fractional_kernel(s),
        SolveConfig(max_iter=40000, tol=tol or case_tol))


@pytest.mark.parametrize("case", sorted(CRITERION_9))
def test_criterion_9_passes_and_krylov_stay_under_their_ceilings(case):
    """Criterion 9's solves, as the acceptance test runs them, take at most
    the measured passes plus 2 and the measured Krylov total plus 10 %,
    with every step a Newton step on the refit. With the exterior models
    held fixed in each step they took 9 / 26 / 11 passes and 18 / 51 / 27
    Krylov iterations; while tau at least doubled after a clean step, 13 /
    32 / 18 and 26 / 64 / 42; with a refit every 5 steps, 15 / 48 / 18 and
    30 / 125 / 48."""
    *_, passes, krylov = CRITERION_9[case]
    res = _criterion_9(case)
    assert res.iterations <= passes + 2
    assert sum(res.krylov_iterations) <= math.ceil(1.1 * krylov)
    assert res.rejected_steps == res.frozen_steps == 0


@pytest.mark.parametrize("case, exponent", [
    ("9a", 0.999518383), ("9b", 0.291508546), ("9c", 0.396297310)])
def test_criterion_9_at_tol_1e_8_reads_the_frozen_model_exponents(
        case, exponent):
    """Relaxed to 1e-8, criterion 9's solves read within 1e-6 the exponents
    that steps holding the exterior models fixed read (listed; they took
    10 / 33 / 35 passes): both reach the same fixed point. Measured
    differences 7.8e-8, 1.6e-8 and 4.9e-8."""
    res = _criterion_9(case, tol=1e-8)
    assert res.residual < 1e-8
    assert tail_exponent(res.profile).exponent == pytest.approx(
        exponent, abs=1e-6)


@pytest.fixture(scope="module")
def relaxed_9b():
    """9b's relaxed values with the operator and fits of their refit."""
    res = _criterion_9("9b")
    g = res.profile.copy_with(res.profile.values.copy())
    op = GridOperator(fractional_kernel(0.5), g)
    _, derivs = solver._refit(g, op)
    return g, op, derivs


def test_refit_term_is_the_derivative_of_the_refit_offset(relaxed_9b, rng):
    """On 9b's relaxed grid, both sides with a power model, U^T V v matches
    the central difference of the offset of refit(u +- eps v), read from
    update_exterior's change, to 1e-6 relative for 5 seeded v."""
    g, op, derivs = relaxed_9b
    U, V = solver._refit_term(op, derivs, len(g.x))
    assert U.shape == V.shape == (4, len(g.x))
    u, eps = g.values, 1e-6
    for v in rng.standard_normal((5, len(u))):
        g.values = u + eps * v
        solver._refit(g, op)
        g.values = u - eps * v
        fd = -solver._refit(g, op)[0] / (2.0 * eps)
        term = (V @ v) @ U
        assert np.max(np.abs(term - fd)) <= 1e-6 * np.max(np.abs(fd))
    g.values = u
    solver._refit(g, op)


def test_a_bare_limit_side_adds_no_term(relaxed_9b, rng):
    """With the left side's gap below the fit's floor, its refit falls back
    to the bare limit: its derivative is None, the term keeps the right
    side's two rows only, and a v on the left half moves nothing."""
    g, op, _ = relaxed_9b
    u = g.values.copy()
    u[g.x < 0] = -1.0
    flat = g.copy_with(u)
    op = GridOperator(fractional_kernel(0.5), flat)
    _, derivs = solver._refit(flat, op)
    assert flat.ext_left == PowerTail(-1.0) and flat.ext_right.c != 0.0
    assert derivs[0] is None
    U, V = solver._refit_term(op, derivs, len(u))
    assert U.shape == V.shape == (2, len(u))
    v = np.where(g.x < 0, rng.standard_normal(len(u)), 0.0)
    assert not np.any((V @ v) @ U)


def test_perturbed_kernel_run_at_n_8192_converges_quickly():
    """Quartic-degenerate wells under a log-periodic kernel (s = 0.5,
    lambda 0.5, Lambda 2, wobble 1) on L = 800, n = 8192: converged to
    1e-6 in under 2 s, non-decreasing. While the exterior power integral
    erred at the edge nodes this run stalled at residual 9.0e-4 at node
    n - 2. It takes 22 passes and about 0.08 s on a 2-vCPU x86_64 VM, and
    with no sort after the steps its smallest increment is +4.9e-6."""
    t0 = time.perf_counter()
    res = minimize_energy(
        make_grid(800.0, 8192),
        make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,
                                  mu=0.5)),
        perturbed_kernel(0.5, 0.5, 2.0, wobble=1),
        SolveConfig(max_iter=40000, tol=1e-6))
    took = time.perf_counter() - t0
    assert res.residual < 1e-6
    assert np.all(np.diff(res.profile.values) >= -1e-14)
    assert took <= 2.0
