"""Acceptance battery: one test per criterion, one printed verdict line each.

Every tolerance is pinned here. The desk construction for criterion 6 runs at
its own monotonicity sufficiency threshold (the exponent separations are
solved from the measured cutoff stats so the threshold gap exponent keeps two
full cells inside double range); criteria 7 and 8 use the wider-separation
desk tuple whose sufficiency flags are recorded as unmet, as designed.
"""

import math
import time

import numpy as np
import pytest

from fraclayer import profiles as pr
from fraclayer import verify_construction as vc
from fraclayer.construction import (LayerParams, build_constants,
                                    build_profile, threshold_params)
from fraclayer.kernels import fractional_kernel, symbol_constant
from fraclayer.potentials import WellParams, make_potential
from fraclayer.quadrature import (QuadConfig, check_derivative_commutation,
                                  eval_lk)


def _verdict(name: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}" +
          (f"  ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_pack():
    p = LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5, delta=5.0, rho=2.1)
    return p, build_profile(p)


@pytest.fixture(scope="module")
def threshold_pack():
    p = threshold_params(0.5, rho_target=2.05)
    cx = build_constants(p)
    return p, cx, build_profile(p, cx)


def test_criterion_1_operator_oracle():
    """Plane-wave symbol match within 1e-4 relative; constants to 1e-12."""
    t0 = time.time()
    cfg = QuadConfig(tol=1e-6)
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        kern = fractional_kernel(s)
        C = symbol_constant(s)
        for om in (0.5, 1.0, 2.0):
            u = pr.cosine(om)
            for x in (0.0, 0.6):
                got = eval_lk(kern, u, x, cfg).value
                ref = -C * om ** (2 * s) * math.cos(om * x)
                if ref != 0.0:
                    worst = max(worst, abs(got - ref) / abs(ref))
    const_val = abs(eval_lk(fractional_kernel(0.5), pr.constant(0.7), 0.3,
                            cfg).value)
    elapsed = time.time() - t0
    _verdict("criterion-1 operator oracle",
             worst < 1e-4 and const_val < 1e-12 and elapsed < 10.0,
             f"worst rel {worst:.2e}, const {const_val:.1e}, {elapsed:.1f}s")


def test_criterion_2_derivative_commutation():
    """Commutation discrepancy < 1e-4 on a 3-profile corpus, 5 points each."""
    xs = [-2.0, -0.5, 0.0, 0.8, 1.7]
    cfg = QuadConfig(tol=1e-6)
    worst = 0.0
    for kern, u in ((fractional_kernel(0.25), pr.gaussian()),
                    (fractional_kernel(0.5), pr.tanh_profile()),
                    (fractional_kernel(0.75), pr.cosine(1.0))):
        rep = check_derivative_commutation(kern, u, xs, h=1e-3, cfg=cfg)
        worst = max(worst, max(rep.discrepancies))
    _verdict("criterion-2 derivative commutation", worst < 1e-4,
             f"worst {worst:.2e}")


def test_criterion_3_ramp_ode():
    """Closed form solves the ramp ODE: residual < 1e-8, 100 pts, 20 draws."""
    rng = np.random.default_rng(11)
    grid = np.linspace(0.005, 0.995, 100)
    worst = -np.inf
    for _ in range(20):
        a = 1.0 + 9.0 * rng.random()
        b = a + 0.5 + 15.0 * rng.random()
        mu = rng.choice([-1.0, 1.0]) * (0.3 + 4.0 * rng.random())
        f0 = rng.uniform(0.1, 3.0)
        rec = vc.check_log_power_ode(a, b, mu, f0, grid)
        worst = max(worst, 1e-8 - rec.worst_slack - 1e-8)
        if not rec.passed:
            _verdict("criterion-3 ramp ODE", False,
                     f"(a,b,mu,f0)=({a:.3g},{b:.3g},{mu:.3g},{f0:.3g})")
    _verdict("criterion-3 ramp ODE", True, "20 tuples, 100 grid points")


def test_criterion_4_inequality_sweep():
    """All constant-level inequalities over >= 100 seeded tuples; equality
    cases detected exactly; under 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    tuples = []
    for _ in range(100):
        s = rng.uniform(0.1, 0.9)
        beta = rng.uniform(2.0, 6.0)
        delta = rng.uniform(2.0, 6.0)
        tuples.append((s, beta + rng.uniform(1e-3, 0.999), beta,
                       delta + rng.uniform(1e-3, 0.999), delta))
    recs = vc.inequality_sweep(tuples) + vc.equality_case_records()
    fails = [r for r in recs if not r.passed]
    elapsed = time.time() - t0
    _verdict("criterion-4 inequality sweep",
             not fails and elapsed < 30.0,
             f"{len(recs)} records, {elapsed:.1f}s" +
             (f"; first fail {fails[0].id}" if fails else ""))


def test_criterion_5_touchpoint_identities_paper_mode():
    """The six per-scale identities cancel to 1e-12 in reduced variables."""
    p = LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5, delta=5.0,
                    mode="paper")
    cx = build_constants(p)
    recs = vc.touchpoint_reduced_records(cx)
    fails = [r for r in recs if not r.passed]
    _verdict("criterion-5 touchpoint identities (paper mode)", not fails,
             f"{len(recs)} identities, k=0..3" +
             (f"; first fail {fails[0].id}@{fails[0].location}" if fails
              else ""))


def test_criterion_6_desk_mode_at_threshold(threshold_pack):
    """At the sufficiency-threshold gap exponent: strict slope positivity at
    10^4 log samples, junction C^3 mismatches < 1e-10, derivative oracles
    within 1e-7 (resolvable samples), all sandwiches, envelope rates within
    0.02 of the two tail powers."""
    p, cx, prof = threshold_pack
    suff = cx.sufficiency_report()
    ok_suff = all(v for k, v in suff.items() if isinstance(v, bool))
    mono = prof.monotone_report(10000)
    jm = prof.junction_mismatches()
    worst_junction = max(r["worst"] for r in jm)
    fd = vc.fd_agreement_records(prof)
    hp = vc.highprec_agreement_records(prof)
    pb = vc.profile_bound_records(prof) + \
        vc.second_derivative_bound_records(prof)
    td = vc.touchpoint_desk_records(prof)
    env_ok = True
    env_msg = []
    # envelope fits on (ln x, ln gap) pairs via the log-native interface
    from fraclayer.analysis import envelope_exponents as env
    for side, sc in ((1, cx.right), (-1, cx.left)):
        L = prof.log_samples(6000)
        lg = prof.gap_jet_log(side, L, 0)[0].logm
        # ln x reaches ~3e4, beyond exp's range: fit on the surrogate
        # x_surr = exp(600 L / Lmax) and scale ln gap by the same factor
        # 600/Lmax, so d(ln gap)/d(ln x), the fitted exponent, is unchanged
        scale = 600.0 / np.max(L)
        x_surr = np.exp(L * scale)
        lo = env(np.column_stack([x_surr, lg * scale]), "lower")
        hi = env(np.column_stack([x_surr, lg * scale]), "upper")
        e_lo, e_hi = lo.exponent, hi.exponent
        env_ok &= abs(e_lo - sc.e_hi) <= 0.02 and abs(e_hi - sc.e_lo) <= 0.02
        env_msg.append(f"side{side:+d}: {e_lo:.4f}/{sc.e_hi:.4f}, "
                       f"{e_hi:.4f}/{sc.e_lo:.4f}")
    other = [r for r in fd + hp + pb + td if not r.passed]
    _verdict("criterion-6 desk mode at threshold",
             ok_suff and mono["monotone"] and worst_junction < 1e-10
             and env_ok and not other,
             f"junction {worst_junction:.1e}; {'; '.join(env_msg)}" +
             (f"; fails {[r.id for r in other]}" if other else ""))


def test_criterion_7_slope_operator_bracket(desk_pack):
    """x^(1+2s) L u~' positive and bounded across two decades."""
    p, prof = desk_pack
    from fraclayer.reconstruct import profile_as_fn

    kern = fractional_kernel(p.s)
    u = profile_as_fn(prof)
    du = u.derivative_profile()
    cfg = QuadConfig(tol=1e-7)
    vals = []
    for x in np.geomspace(1e6, 1e8, 9):
        ov = eval_lk(kern, du, float(x), cfg)
        vals.append(x ** (1.0 + 2.0 * p.s) * ov.value)
    vals = np.asarray(vals)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    _verdict("criterion-7 slope operator bracket",
             lo > 0.0 and np.isfinite(hi) and hi / lo < 50.0,
             f"bracket [{lo:.4f}, {hi:.4f}] over x in [1e6, 1e8]")


def test_criterion_8_reconstruction(desk_pack):
    """V > 0; closure <= 1%; curvature envelopes within 0.3; operator limit
    within 10% of the mass constant; under 3 minutes."""
    t0 = time.time()
    p, prof = desk_pack
    kern = fractional_kernel(p.s)
    from fraclayer.reconstruct import (reconstruct_potential,
                                       second_derivative_limit, slope_mass,
                                       verify_potential_regularity,
                                       verify_well_envelopes)

    tab = reconstruct_potential(prof, kern, depth_decades=8.0)
    ok_pos = tab.interior_min() > 0.0
    closure = tab.closure_defect()
    reg = verify_potential_regularity(tab)
    envs = verify_well_envelopes(tab, p)
    mass = slope_mass(prof, X=1e40)
    lims = second_derivative_limit(prof, kern,
                                   [3e6, 1e7, 3e7, 1e8, 3e8, 1e9])
    elapsed = time.time() - t0
    _verdict("criterion-8 reconstruction",
             ok_pos and closure <= 0.01 and reg.passed
             and all(e.passed for e in envs) and abs(mass - 2.0) < 1e-6
             and all(r.passed for r in lims) and elapsed < 180.0,
             f"Vmin {tab.interior_min():.1e}, closure {closure:.2e}, "
             f"mass-2 {mass - 2.0:.1e}, "
             f"limits {[r.location for r in lims]}, {elapsed:.0f}s")


def test_criterion_9_solver_decay_rates():
    """(a) quartic 2s; (b) quartic-degenerate 2s/3; (c) oscillatory inside
    the two-theorem bracket; each run under 5 minutes."""
    from fraclayer.solver import SolveConfig, make_grid, minimize_energy, \
        tail_exponent

    t0 = time.time()
    kern = fractional_kernel(0.5)
    pot = make_potential(WellParams(alpha=2, beta=2, gamma=2, delta=2,
                                    c1=2, c2=2, c3=2, c4=2, mu=0.5))
    res = minimize_energy(make_grid(200.0, 2048), pot, kern,
                          SolveConfig(max_iter=30000, tol=1e-6))
    ea = tail_exponent(res.profile).exponent
    ta = time.time() - t0
    ok_a = abs(ea - 1.0) <= 0.15 and ta < 300.0 and res.residual < 1e-6 \
        and bool(np.all(np.diff(res.profile.values) >= -1e-14))
    _verdict("criterion-9a quartic decay", ok_a,
             f"exp {ea:.4f} vs 1.0 +/- 15%, {ta:.0f}s")

    t0 = time.time()
    pot4 = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,
                                     mu=0.5))
    res4 = minimize_energy(make_grid(200.0, 2048), pot4, kern,
                           SolveConfig(max_iter=30000, tol=1e-6))
    eb = tail_exponent(res4.profile).exponent
    tb = time.time() - t0
    _verdict("criterion-9b degenerate decay",
             abs(eb - 1.0 / 3.0) <= 0.15 / 3.0 and tb < 300.0,
             f"exp {eb:.4f} vs 0.3333 +/- 15%, {tb:.0f}s")

    t0 = time.time()
    kern75 = fractional_kernel(0.75)
    poto = make_potential(WellParams(alpha=4.5, beta=4.0, gamma=4.5,
                                     delta=4.0, mode="oscillatory"))
    A = 1.5 / 3.0
    B = 1.5 / 3.5
    g0 = make_grid(800.0, 4096, init="power",
                   tail_exponent_seed=0.5 * (A + B))
    reso = minimize_energy(g0, poto, kern75,
                           SolveConfig(max_iter=40000, tol=6e-4))
    ec = tail_exponent(reso.profile).exponent
    tc = time.time() - t0
    _verdict("criterion-9c oscillatory decay bracket",
             B * 0.85 <= ec <= A * 1.15 and tc < 300.0,
             f"exp {ec:.4f} in [{B * 0.85:.4f}, {A * 1.15:.4f}], {tc:.0f}s")


def test_criterion_9c_relaxed_to_1e_6():
    """Criterion 9c's wells, grid and power-init seed relaxed to residual
    1e-6: converged, non-decreasing, exponent inside 9c's band, under 20 s."""
    from fraclayer.solver import SolveConfig, make_grid, minimize_energy, \
        tail_exponent

    t0 = time.time()
    kern75 = fractional_kernel(0.75)
    poto = make_potential(WellParams(alpha=4.5, beta=4.0, gamma=4.5,
                                     delta=4.0, mode="oscillatory"))
    A = 1.5 / 3.0
    B = 1.5 / 3.5
    g0 = make_grid(800.0, 4096, init="power",
                   tail_exponent_seed=0.5 * (A + B))
    res = minimize_energy(g0, poto, kern75,
                          SolveConfig(max_iter=40000, tol=1e-6))
    ec = tail_exponent(res.profile).exponent
    tc = time.time() - t0
    _verdict("criterion-9c relaxed to 1e-6",
             res.residual < 1e-6
             and bool(np.all(np.diff(res.profile.values) >= -1e-14))
             and B * 0.85 <= ec <= A * 1.15 and tc < 20.0,
             f"exp {ec:.4f} in [{B * 0.85:.4f}, {A * 1.15:.4f}], "
             f"{res.iterations} steps, {tc:.1f}s")


def test_criterion_10_barrier_suite():
    """Step-barrier sign at x >= 10 xbar for 10 seeded shapes; tail-bracket
    containment within 5% for exact-power profiles."""
    from fraclayer.barriers import (StepBarrier, TailBarrier,
                                    asymptotic_operator_limit,
                                    exact_power_bump, step_constant_cap,
                                    verify_step_barrier)

    kern = fractional_kernel(0.5)
    rng = np.random.default_rng(99)
    cap = step_constant_cap(0.5)
    all_neg = True
    for _ in range(10):
        xbar = rng.uniform(1.0, 4.0)
        A = rng.uniform(0.2, 1.5)
        alpha = rng.uniform(0.05, 0.5)
        lvl = 1.0 - alpha * xbar ** (-A)
        b = StepBarrier(xbar=xbar, alpha=alpha, A=A,
                        B=rng.uniform(0.0, min(0.6, lvl)),
                        D=rng.uniform(0.0, lvl - 1e-9))
        rep = verify_step_barrier(kern, b, [10 * xbar, 30 * xbar, 100 * xbar],
                                  c_cap=cap)
        all_neg &= rep.negative and rep.passed
    tb = exact_power_bump(2.0, 1.0)
    xs = [1e3, 1e4, 1e5]
    up = asymptotic_operator_limit(kern, tb, xs, "upper")
    lo_tb = TailBarrier(Cbar=0.5 * tb.Cbar, kappa=1.0, sigma=2.0, tau=2.0,
                        gamma_low=tb.gamma_low, body=tb.body)
    lo = asymptotic_operator_limit(kern, lo_tb, xs, "lower")
    _verdict("criterion-10 barrier suite",
             all_neg and up.passed and lo.passed,
             f"bracket [{lo.bound:.3f} <= {up.estimate:.3f} <= {up.bound:.3f}]")
