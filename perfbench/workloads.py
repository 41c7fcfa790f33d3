"""The three benchmark workloads: job lists, correctness checks, layer metrics.

Each workload is a closed loop with one caller: jobs run one after another in
this process, and each job is a call (or a few calls) into fraclayer's public
API followed by the benchmark's own check of the result. Inputs come from the
workload seed only.

  operator       eval_lk on plane waves and smooth profiles, derivative
                 commutation, and the verify-barriers suite
  layer-profile  inversion, batched evaluation, slope mass, monotonicity,
                 junctions and the desk-mode verification records
  solve          criterion 9's three energy-descent solves (fixed configs)

The reconstruct operator stage, second_derivative_limit and the
reconstruct-potential subcommand are left out: at the seed they raise
TypeError from eval_lk, because LayerProfile.eval returns shape (1,) for 0-d
input. Their inversion stage is measured by layer-profile.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from statistics import fmean, median
from typing import Callable, NamedTuple

import numpy as np
from fraclayer.kernels import fractional_kernel
from fraclayer.profiles import cosine
from fraclayer.quadrature import QuadConfig

from harness import (percentile, traced_layer_profile, traced_potential,
                     traced_profile)


@dataclass
class Job:
    kind: str                       # latency group; a dry run keeps one each
    run: Callable                   # run(tr) -> dict of checked values
    name: str = ""


@dataclass
class Outcome:
    kind: str
    name: str
    seconds: float
    ok: bool
    values: dict = field(default_factory=dict)
    error: str = ""


class CheckFailed(Exception):
    """A job returned, but the benchmark's check of its result failed."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

S_MIX = (0.9, 0.75, 0.5, 0.25, 0.1)
OMEGAS = (0.5, 1.0, 2.0, 4.0)
OP_TOL = 1e-6
X_MAX = 3.0
PW_POINTS = 2           # seeded points per plane-wave case
# seeded points per smooth profile and kernel: 128 smooth calls against 56
# other jobs keep the pass's median latency inside the smooth group, wherever
# the plane waves and barriers fall
SMOOTH_POINTS = 16
ORACLE_REL_TOL = 1e-4


def symbol_closed_form(s: float) -> float:
    """C(s) = pi / (Gamma(1+2s) sin(pi s)): L cos(w.) = -C w^(2s) cos(w.)."""
    return math.pi / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))


def farfield_panels(kern, u, cfg, x: float = 0.0) -> int:
    """Panel count eval_lk(kern, u, x, cfg) lays out for a profile u with an
    oscillatory tail, from eval_lk's own formula.

    The far field runs to z1 ~ (4 amp Lam T / (2 pi tol/4))^(1/(1+2s)) in log
    panels split to at most half a period T wide. Nothing of that size is
    allocated here: only the ~100 log-panel edges.
    """
    r0 = cfg.r0 if cfg.r0 is not None else 1e-3 * (1.0 + abs(x))
    Z = cfg.Z if cfg.Z is not None else 1e6 * (1.0 + abs(x))
    T, amp = u.tail.osc_scale, u.tail.amplitude
    target = max(cfg.tol, 1e-12) / 4.0
    zc = (4.0 * amp * kern.Lam * T / (2.0 * math.pi) / target) \
        ** (1.0 / (1.0 + 2.0 * kern.s))
    z1 = min(Z, max(zc, 10.0 * r0))
    n = max(2, int(math.ceil(math.log10(z1 / r0) * cfg.panels_per_decade)))
    w = np.diff(np.geomspace(r0, z1, n + 1))
    return int(np.sum(np.where(w > 0.5 * T, np.ceil(w / (0.5 * T)), 1.0)))


OP_CFG = QuadConfig(tol=OP_TOL)
# The largest far-field panel count of the seed mix (s = 0.1 under OP_CFG);
# the panel count falls as |x| grows, so x = 0 is each case's worst point.
PANEL_CAP = max(farfield_panels(fractional_kernel(s), cosine(om), OP_CFG)
                for s in S_MIX for om in OMEGAS)


class MemoryGuardError(ValueError):
    """A plane-wave case would need more far-field panels than the seed mix."""


def guard_plane_wave(kern, u, cfg, x: float = 0.0) -> None:
    n = farfield_panels(kern, u, cfg, x)
    if n > PANEL_CAP:
        raise MemoryGuardError(
            f"{u.name} at s={kern.s}, tol={cfg.tol:g} needs {n} far-field "
            f"panels, above the seed mix's {PANEL_CAP}")


class Operator:
    """eval_lk on plane waves and smooth profiles; commutation; barriers."""

    def __init__(self, seed: int, tr):
        from fraclayer import profiles as pr
        from fraclayer.barriers import step_constant_cap
        from fraclayer.cutoffs import eta
        from fraclayer.kernels import perturbed_kernel, symbol_constant

        self.pr = pr
        # operator-eval computes symbol_constant for its oracle; users pay it
        for s in S_MIX:
            with tr.span("kernels.symbol_constant", s=s):
                symbol_constant(s)
        # derivative_barrier builds on the cutoff eta, whose derivatives sympy
        # generates on first use: lazy set-up, warmed here like the rest
        with tr.span("cutoffs.eta"):
            eta(np.array([0.5]))
        self.half = fractional_kernel(0.5)
        with tr.span("barriers.step_constant_cap"):
            self.cap = step_constant_cap(0.5)
        self.cfg = OP_CFG
        rng = np.random.default_rng(seed)
        jobs = []
        for s in S_MIX:
            kern = fractional_kernel(s)
            for om in OMEGAS:
                u = pr.cosine(om)
                for x in rng.uniform(-X_MAX, X_MAX, PW_POINTS):
                    guard_plane_wave(kern, u, self.cfg, x)
                    jobs.append(self._plane_wave(kern, u, om, float(x)))
        # (profile, whether L u vanishes identically)
        smooth = ((pr.tanh_profile(), False), (pr.gaussian(), False),
                  (pr.power_tail_bump(2.0, 2.0), False),
                  (pr.constant(0.7), True))
        for kern in (self.half, perturbed_kernel(0.5, 0.5, 1.5)):
            for u, zero in smooth:
                for x in rng.uniform(-X_MAX, X_MAX, SMOOTH_POINTS):
                    jobs.append(self._smooth(kern, u, float(x), zero))
        xs = sorted(rng.uniform(-2.0, 2.0, 5))
        for s, u in ((0.25, pr.gaussian()), (0.5, pr.tanh_profile()),
                     (0.75, pr.cosine(1.0))):
            jobs.append(self._commutation(fractional_kernel(s), u, xs))
        jobs.extend(self._barrier_jobs(rng))
        self.jobs = jobs
        self.costliest = max(
            ((fractional_kernel(s), pr.cosine(om)) for s in S_MIX
             for om in OMEGAS),
            key=lambda c: farfield_panels(c[0], c[1], self.cfg))

    def _plane_wave(self, kern, u0, om, x):
        from fraclayer.quadrature import eval_lk

        s = kern.s
        amp = symbol_closed_form(s) * om ** (2.0 * s)

        def run(tr):
            u = traced_profile(tr, u0)
            group = "osc" if s <= 0.25 else "wave"
            with tr.span("quadrature.eval_lk", group=group):
                ov = eval_lk(kern, u, x, self.cfg)
            true_err = abs(ov.value + amp * math.cos(om * x))
            rel = true_err / amp
            ratio = true_err / ov.error if ov.error > 0 else (
                0.0 if true_err == 0 else math.inf)
            check(rel < ORACLE_REL_TOL, f"oracle rel err {rel:.3e}")
            check(ratio <= 1.0, f"true error {true_err:.3e} above estimate "
                                f"{ov.error:.3e}")
            return {"oracle_rel_err": rel, "err_bound_ratio": ratio}

        return Job("plane-wave-osc" if s <= 0.25 else "plane-wave", run,
                   f"cos({om}x) s={s} x={x:.4f}")

    def _smooth(self, kern, u0, x, zero):
        from fraclayer.quadrature import eval_lk

        def run(tr):
            u = traced_profile(tr, u0)
            with tr.span("quadrature.eval_lk", group="smooth"):
                ov = eval_lk(kern, u, x, self.cfg)
            check(math.isfinite(ov.value), "value not finite")
            if zero:
                check(abs(ov.value) < 1e-12, f"|L const| = {ov.value:.2e}")
            return {}

        return Job("smooth", run, f"{u0.name} {kern.form} x={x:.4f}")

    def _commutation(self, kern, u0, xs):
        from fraclayer.quadrature import check_derivative_commutation

        def run(tr):
            u = traced_profile(tr, u0)
            with tr.span("quadrature.check_derivative_commutation"):
                rep = check_derivative_commutation(kern, u, xs, h=1e-3,
                                                   cfg=self.cfg)
            check(rep.passed, f"commutation {max(rep.discrepancies):.2e}")
            return {}

        return Job("commutation", run, f"{u0.name} s={kern.s}")

    def _barrier_jobs(self, rng):
        from fraclayer.barriers import (StepBarrier, TailBarrier,
                                        asymptotic_operator_limit,
                                        derivative_barrier, exact_power_bump,
                                        verify_step_barrier)

        kern, cap = self.half, self.cap
        jobs = []
        for _ in range(10):
            xbar = rng.uniform(1.0, 4.0)
            A = rng.uniform(0.2, 1.5)
            alpha = rng.uniform(0.05, 0.5)
            lvl = 1.0 - alpha * xbar ** (-A)
            b = StepBarrier(xbar=xbar, alpha=alpha, A=A,
                            B=rng.uniform(0.0, min(0.6, lvl)),
                            D=rng.uniform(0.0, lvl - 1e-9))

            def step(tr, b=b):
                with tr.span("barriers.verify_step_barrier"):
                    rep = verify_step_barrier(
                        kern, b, [10 * b.xbar, 40 * b.xbar, 200 * b.xbar],
                        c_cap=cap)
                check(rep.negative and rep.passed, "step barrier bound")
                return {}

            jobs.append(Job("step-barrier", step))
        tb = exact_power_bump(2.0, 1.0)
        lo_tb = TailBarrier(Cbar=0.5 * tb.Cbar, kappa=tb.kappa, sigma=tb.sigma,
                            tau=tb.tau, gamma_low=tb.gamma_low, body=tb.body)
        for bar, orient in ((tb, "upper"), (lo_tb, "lower")):
            def bracket(tr, bar=bar, orient=orient):
                traced = replace(bar, body=traced_profile(tr, bar.body))
                with tr.span("barriers.asymptotic_operator_limit"):
                    rep = asymptotic_operator_limit(kern, traced,
                                                    [1e3, 1e4, 1e5], orient)
                check(rep.passed, f"tail bracket {orient}")
                return {}

            jobs.append(Job("tail-bracket", bracket, orient))

        def deriv_barrier(tr):
            with tr.span("barriers.derivative_barrier"):
                db = derivative_barrier(0.5, 5.8, 5.0, 5.5, 5.0, xbar=6.0)
            db = replace(db, body=traced_profile(tr, db.body))
            with tr.span("barriers.asymptotic_operator_limit"):
                rep = asymptotic_operator_limit(kern, db, [6e3, 6e4, 6e5],
                                                "upper")
            check(rep.passed, "derivative barrier bracket")
            return {}

        jobs.append(Job("derivative-barrier", deriv_barrier))
        return jobs

    def quality(self, outs) -> dict:
        pw = [o.values for o in outs
              if o.kind.startswith("plane-wave") and o.ok]
        return {
            "oracle_rel_err": max((v["oracle_rel_err"] for v in pw),
                                  default=0.0),
            "err_bound_ratio": max((v["err_bound_ratio"] for v in pw),
                                   default=0.0),
        }

    def layer_metrics(self, tr, outs) -> dict:
        from fraclayer.quadrature import eval_lk

        def ms(name, **attrs):
            return [1e3 * tr.duration(i) for i in tr.named(name, **attrs)]

        # peak traced allocation of the costliest call, measured on its own
        kern, u = self.costliest
        tracemalloc.start()
        try:
            eval_lk(kern, u, 0.0, self.cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        calls = tr.counts.get("profile.calls", 0)
        sym = tr.named("kernels.symbol_constant")
        q = self.quality(outs)
        return {
            "kernels.symbol_constant_s": sum(tr.duration(i) for i in sym),
            "quadrature.eval_lk_osc_ms": median(ms("quadrature.eval_lk",
                                                   group="osc")),
            "quadrature.eval_lk_smooth_ms": median(ms("quadrature.eval_lk",
                                                      group="smooth")),
            "quadrature.eval_lk_peak_mb": peak / 2 ** 20,
            "quadrature.profile_calls": calls,
            "quadrature.points_per_call":
                tr.counts.get("profile.points", 0) / max(calls, 1),
            "quadrature.commutation_ms":
                fmean(ms("quadrature.check_derivative_commutation")),
            "quadrature.oracle_rel_err": q["oracle_rel_err"],
            "quadrature.err_bound_ratio": q["err_bound_ratio"],
            "barriers.step_barrier_ms":
                fmean(ms("barriers.verify_step_barrier")),
            "barriers.tail_limit_ms":
                fmean(ms("barriers.asymptotic_operator_limit")),
        }


# ---------------------------------------------------------------------------
# layer-profile
# ---------------------------------------------------------------------------

EVAL_POINTS = 2000
SWEEP_TUPLES = 40


class LayerProfileWorkload:
    """Desk (s=0.5, rho=2.1) and threshold (rho_target=2.05) profiles."""

    def __init__(self, seed: int, tr):
        from fraclayer.construction import (LayerParams, build_constants,
                                            build_profile, threshold_params)
        from fraclayer.cutoffs import measure_cutoff
        from fraclayer.reconstruct import graded_nodes

        with tr.span("cutoffs.measure_cutoff"):   # cold: imports sympy
            measure_cutoff()
        packs = []
        for params in (LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                                   delta=5.0, rho=2.1),
                       threshold_params(0.5, rho_target=2.05)):
            with tr.span("construction.build_constants"):
                cx = build_constants(params)
            with tr.span("construction.build_profile"):
                prof = build_profile(params, cx)
            packs.append((cx, prof))
        rng = np.random.default_rng(seed)
        desk_cx, desk = packs[0]
        jobs = [self._invert(desk, float(r)) for r in graded_nodes(8.0, 12)]
        for label, (cx, prof) in zip(("desk", "threshold"), packs):
            L = rng.uniform(-2.0, 690.0, EVAL_POINTS)
            x = np.sign(rng.uniform(-1.0, 1.0, EVAL_POINTS)) * np.exp(L)
            for order in (0, 2):
                jobs.append(self._eval(prof, x, order, label))
            for side in (+1, -1):
                Lg = rng.uniform(prof.log_a0, min(prof._edges[-1], 1e4),
                                 EVAL_POINTS)
                jobs.append(self._gap_jet(prof, side, Lg, label))
            jobs.extend(self._profile_checks(prof, label))
        jobs.extend(self._desk_records(desk, desk_cx, rng))
        self.jobs = jobs

    def _invert(self, prof, r):
        from fraclayer.reconstruct import invert_profile

        def run(tr):
            p = traced_layer_profile(tr, prof)
            with tr.span("reconstruct.invert_profile"):
                x = invert_profile(p, r)
            resid = abs(float(prof.eval(np.array([x]))[0]) - r)
            check(resid <= 1e-12 * max(1.0, abs(r)),
                  f"|u(x_r) - r| = {resid:.2e}")
            return {"invert_resid": resid}

        return Job("invert", run, f"r={r:.17g}")

    def _eval(self, prof, x, order, label):
        order_idx = np.argsort(x)

        def run(tr):
            with tr.span("construction.eval_batched", order=order):
                v = prof.eval(x, order)
            check(bool(np.all(np.isfinite(v))), "non-finite values")
            if order == 0:
                vs = v[order_idx]
                check(bool(np.all(np.abs(vs) <= 1.0)), "values off [-1, 1]")
                check(bool(np.all(np.diff(vs) >= 0.0)), "not non-decreasing")
            return {}

        return Job(f"eval-o{order}", run, label)

    def _gap_jet(self, prof, side, L, label):
        def run(tr):
            with tr.span("jets.gap_jet_log"):
                g = prof.gap_jet_log(side, L, order=4)
            check(bool(np.all(g[0].sign > 0)), "gap not positive")
            return {}

        return Job("gap-jet", run, f"{label} side {side:+d}")

    def _profile_checks(self, prof, label):
        from fraclayer.reconstruct import slope_mass

        def mass(tr):
            with tr.span("reconstruct.slope_mass"):
                m = slope_mass(prof, X=1e40)
            check(abs(m - 2.0) < 1e-6, f"slope mass - 2 = {m - 2.0:.2e}")
            return {}

        def monotone(tr):
            with tr.span("construction.monotone_report"):
                rep = prof.monotone_report()
            check(rep["monotone"], f"violations {rep['violations'][:3]}")
            return {}

        def junctions(tr):
            with tr.span("construction.junction_mismatches"):
                jm = prof.junction_mismatches()
            worst = max(r["worst"] for r in jm)
            check(worst < 1e-10, f"junction mismatch {worst:.2e}")
            return {}

        return [Job("slope-mass", mass, label),
                Job("monotone", monotone, label),
                Job("junctions", junctions, label)]

    def _desk_records(self, prof, cx, rng):
        """verify-counterexample's desk-mode records, on the desk profile."""
        from fraclayer import verify_construction as vc

        tuples = []
        for _ in range(SWEEP_TUPLES):
            s = rng.uniform(0.1, 0.9)
            beta = rng.uniform(2.0, 6.0)
            delta = rng.uniform(2.0, 6.0)
            tuples.append((s, beta + rng.uniform(1e-3, 0.999), beta,
                           delta + rng.uniform(1e-3, 0.999), delta))
        ode = (2.0, 10.0, 3.0, 0.7, np.linspace(0.01, 0.99, 50))
        return [Job(fn.__name__, _records_job(fn, args)) for fn, args in (
            (vc.touchpoint_desk_records, (prof,)),
            (vc.profile_bound_records, (prof,)),
            (vc.second_derivative_bound_records, (prof,)),
            (vc.fd_agreement_records, (prof,)),
            (vc.highprec_agreement_records, (prof,)),
            (vc.inequality_sweep, (tuples,)),
            (vc.equality_case_records, ()),
            (vc.touchpoint_reduced_records, (cx,)),
            (vc.ordering_chain_records, (cx,)),
            (vc.check_log_power_ode, ode))]

    def quality(self, outs) -> dict:
        return {"invert_resid": max((o.values["invert_resid"] for o in outs
                                     if o.kind == "invert" and o.ok),
                                    default=0.0)}

    def layer_metrics(self, tr, outs) -> dict:
        def spans_ms(name, **attrs):
            return [1e3 * tr.duration(i) for i in tr.named(name, **attrs)]

        inv_ms = spans_ms("reconstruct.invert_profile")
        return {
            "cutoffs.measure_cutoff_s":
                sum(spans_ms("cutoffs.measure_cutoff")) / 1e3,
            "construction.build_constants_s":
                sum(spans_ms("construction.build_constants")) / 1e3,
            "construction.build_profile_ms":
                sum(spans_ms("construction.build_profile")),
            "construction.eval_us_per_point.o0": 1e3 * fmean(spans_ms(
                "construction.eval_batched", order=0)) / EVAL_POINTS,
            "construction.eval_us_per_point.o2": 1e3 * fmean(spans_ms(
                "construction.eval_batched", order=2)) / EVAL_POINTS,
            "construction.eval_scalar_us":
                1e3 * fmean(spans_ms("construction.eval")),
            "construction.junction_mismatches_ms":
                fmean(spans_ms("construction.junction_mismatches")),
            "construction.monotone_report_ms":
                fmean(spans_ms("construction.monotone_report")),
            "jets.gap_jet_log_us_per_point": 1e3 * fmean(
                spans_ms("jets.gap_jet_log")) / EVAL_POINTS,
            "reconstruct.invert_ms.p50": median(inv_ms),
            "reconstruct.invert_ms.p90": percentile(inv_ms, 90.0),
            "reconstruct.invert_evals":
                tr.counts.get("construction.eval.calls", 0)
                / max(len(inv_ms), 1),
            "reconstruct.invert_resid": self.quality(outs)["invert_resid"],
            "reconstruct.slope_mass_ms":
                fmean(spans_ms("reconstruct.slope_mass")),
            "verify_construction.fd_agreement_ms":
                fmean(spans_ms("verify_construction.fd_agreement_records")),
            "verify_construction.highprec_agreement_ms": fmean(
                spans_ms("verify_construction.highprec_agreement_records")),
            "verify_construction.inequality_sweep_ms":
                fmean(spans_ms("verify_construction.inequality_sweep")),
        }


def _records_job(fn, args):
    """Run a verify_construction check; every record it returns must pass."""

    def run(tr):
        with tr.span("verify_construction." + fn.__name__):
            out = fn(*args)
        recs = out if isinstance(out, list) else [out]
        bad = [r.id for r in recs if not r.passed]
        check(bool(recs) and not bad, f"failed records {bad[:3]}")
        return {}

    return run


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class SolveCase(NamedTuple):
    s: float
    well: dict              # WellParams fields
    L: float
    n: int
    tol: float
    init: str
    max_iter: int
    theory: float | None    # tail exponent the theory predicts
    band: tuple             # criterion 9's accepted exponent range


A_9C = 1.5 / 3.0
B_9C = 1.5 / 3.5
SOLVE_CASES = {
    "9a": SolveCase(0.5, dict(alpha=2, beta=2, gamma=2, delta=2, c1=2, c2=2,
                              c3=2, c4=2, mu=0.5),
                    200.0, 2048, 1e-6, "tanh", 30000, 1.0, (0.85, 1.15)),
    "9b": SolveCase(0.5, dict(alpha=4, beta=4, gamma=4, delta=4, mu=0.5),
                    200.0, 2048, 1e-6, "tanh", 30000, 1.0 / 3.0,
                    (1.0 / 3.0 - 0.05, 1.0 / 3.0 + 0.05)),
    "9c": SolveCase(0.75, dict(alpha=4.5, beta=4.0, gamma=4.5, delta=4.0,
                               mode="oscillatory"),
                    800.0, 4096, 6e-4, "power", 40000, None,
                    (0.85 * B_9C, 1.15 * A_9C)),
}


class Solve:
    """Criterion 9: quartic, degenerate and oscillatory wells; seed unused."""

    def __init__(self, seed: int, tr):
        from fraclayer.potentials import WellParams, make_potential
        from fraclayer.solver import make_grid

        self.cases = {}
        for name, c in SOLVE_CASES.items():
            with tr.span("potentials.make_potential", case=name):
                pot = make_potential(WellParams(**c.well))
            with tr.span("solver.make_grid", case=name):
                g0 = make_grid(c.L, c.n, init=c.init,
                               tail_exponent_seed=0.5 * (A_9C + B_9C))
            self.cases[name] = (fractional_kernel(c.s), pot, g0)
        self.results = {}       # last SolveResult per case
        self.jobs = [Job("solve", self._solve(name), name)
                     for name in self.cases]

    def _solve(self, name):
        from fraclayer.solver import (SolveConfig, minimize_energy,
                                      tail_exponent)

        kern, pot, g0 = self.cases[name]
        c = SOLVE_CASES[name]

        def run(tr):
            p = traced_potential(tr, pot)
            with tr.span("solver.minimize_energy", case=name):
                res = minimize_energy(g0, p, kern, SolveConfig(
                    max_iter=c.max_iter, tol=c.tol))
            with tr.span("analysis.fit_power_decay", case=name):
                e = tail_exponent(res.profile).exponent
            self.results[name] = res
            check(res.residual < c.tol, f"residual {res.residual:.2e}")
            check(bool(np.all(np.diff(res.profile.values) >= -1e-14)),
                  "profile decreases")
            check(c.band[0] <= e <= c.band[1],
                  f"exponent {e:.4f} outside {c.band}")
            if c.theory is None:
                return {}
            return {"exp_err": abs(e - c.theory) / c.theory}

        return run

    def quality(self, outs) -> dict:
        return {"exp_err": max((o.values["exp_err"] for o in outs
                                if o.ok and "exp_err" in o.values),
                               default=0.0)}

    def layer_metrics(self, tr, outs) -> dict:
        from fraclayer.gridop import GridOperator, exterior_power_vector
        from fraclayer.solver import energy, lyapunov

        def timed(fn, reps):
            ts = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                ts.append(time.perf_counter() - t0)
            return 1e3 * median(ts)

        out = {}
        for name in self.cases:
            if name not in self.results:
                continue
            it = self.results[name].iterations
            span = tr.named("solver.minimize_energy", case=name)[-1]
            out[f"solver.iterations.{name}"] = it
            out[f"solver.solve_s.{name}"] = tr.duration(span)
            out[f"solver.iter_ms.{name}"] = 1e3 * tr.duration(span) / it
            out[f"solver.self_ms.{name}"] = 1e3 * tr.self_time(span) / it
            out[f"potentials.W1_calls.{name}"] = sum(
                tr.spans[j][0] == "potentials.W1" for j in tr.children(span))
        out["potentials.W1_us"] = 1e6 * fmean(
            [tr.duration(i) for i in tr.named("potentials.W1")])
        out["analysis.fit_power_decay_ms"] = 1e3 * fmean(
            [tr.duration(i) for i in tr.named("analysis.fit_power_decay")])
        for name, n in (("9a", 2048), ("9c", 4096)):
            if name not in self.results:
                continue
            kern, pot, _ = self.cases[name]
            g = self.results[name].profile
            t0 = time.perf_counter()
            op = GridOperator(kern, g)
            out[f"gridop.build_ms.n{n}"] = 1e3 * (time.perf_counter() - t0)
            out[f"gridop.apply_ms.n{n}"] = timed(
                lambda: op.apply(g.values), 20)
            out[f"solver.energy_ms.n{n}"] = timed(
                lambda: energy(g, pot, kern, op), 3)
            out[f"solver.lyapunov_ms.n{n}"] = timed(
                lambda: lyapunov(g, pot, kern, op), 3)
            # M and the error-estimate matrix: two dense n x n float64 arrays
            out["gridop.matrix_mb"] = max(out.get("gridop.matrix_mb", 0.0),
                                          2 * n * n * 8 / 2 ** 20)
            if name == "9c":
                out["gridop.exterior_power_vector_ms"] = timed(
                    lambda: exterior_power_vector(kern, g), 5)
        out["solver.exp_err"] = self.quality(outs)["exp_err"]
        return out


WORKLOADS = {
    "operator": Operator,
    "layer-profile": LayerProfileWorkload,
    "solve": Solve,
}
