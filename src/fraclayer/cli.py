"""Batch command-line entry point.

Subcommands (exit code 0: all checks pass; 1: at least one failed, artifacts
still written; 2: usage or configuration error):

  operator-eval          nonlocal operator on a built-in profile over points
  verify-regularity      derivative commutation and Hölder-transfer checks
  verify-barriers        step-barrier sign and tail-bracket suite
  build-counterexample   construct the layer profile, export its CSV
  verify-counterexample  constant inequalities, touchpoints, sandwiches,
                         junctions, monotonicity, derivative oracles
  reconstruct-potential  potential table from the profile, shape checks
  solve                  energy minimization on a truncated grid
  fit-decay              power/envelope fits on a profile CSV

Every key a config file may set is declared once, with its type, default
and bound, in `config.KEYS`. An unknown key, a mistyped value or a value
past its bound exits 2 before any work starts.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, floats, load_config, settings, value
from .errors import FracLayerError, InputFileError
from .kernels import KernelSpec, fractional_kernel, perturbed_kernel
from .reports import SIDE_LABEL, Report, write_csv

USAGE_ERROR = 2
# the kernel key that a form reads besides s, lam and Lam
FORM_KEY = {"scaled-fractional": "scale", "tabulated-perturbation": "wobble"}


def _build(section: str, ctor, *args, **kw):
    """ctor(*args, **kw), its ValueError raised as a ConfigError that names
    the config section."""
    try:
        return ctor(*args, **kw)
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from e


def _kernel_from(cfg: dict) -> KernelSpec:
    s, form = value(cfg, "kernel.s"), value(cfg, "kernel.form")
    for name in FORM_KEY.values():
        if name in cfg["kernel"] and FORM_KEY.get(form) != name:
            raise ConfigError(f"kernel.{name} is not read by kernel.form "
                              f"= {form}")
    kw = settings(cfg, "kernel", "lam", "Lam")
    if form == "fractional":
        return _build("kernel", fractional_kernel, s, **kw)
    lam, Lam = kw.get("lam", KernelSpec.lam), kw.get("Lam", KernelSpec.Lam)
    if form == "scaled-fractional":
        return _build("kernel", KernelSpec, s=s, lam=lam, Lam=Lam, form=form,
                      scale=cfg["kernel"].get("scale", 0.5 * (lam + Lam)))
    return _build("kernel", perturbed_kernel, s, lam, Lam,
                  **settings(cfg, "kernel", "wobble"))


def _well_from(cfg: dict):
    from .potentials import WellParams

    return _build("potential", WellParams, **settings(
        cfg, "potential", "alpha", "beta", "gamma", "delta", "c1", "c2", "c3",
        "c4", "mu", "mode"))


def _layer_params_from(cfg: dict, mode: str):
    from .construction import LayerParams

    return LayerParams(mode=mode, **settings(
        cfg, "counterexample", "s", "alpha", "beta", "gamma", "delta", "rho",
        "k_max"))


def cmd_operator_eval(cfg, out, seed, mode) -> Report:
    from . import profiles as pr
    from .kernels import symbol_constant
    from .quadrature import QuadConfig, eval_lk

    kern = _kernel_from(cfg)
    pts = floats(value(cfg, "operator.points"))
    name, omega = value(cfg, "operator.profile"), value(cfg, "operator.omega")
    u = {"cosine": pr.cosine(omega), "tanh": pr.tanh_profile(),
         "gaussian": pr.gaussian(), "constant": pr.constant(0.7)}[name]
    qc = _build("operator", QuadConfig, tol=value(cfg, "operator.tol"))
    rep = Report("operator-eval", cfg)
    rows = []
    for x in pts:
        ov = eval_lk(kern, u, x, qc)
        rows.append((x, ov.value, ov.error))
        rep.add(f"operator-finite-x={x:g}", np.isfinite(ov.value), ov.error,
                f"value={ov.value:.6e}")
    if name == "cosine" and kern.form == "fractional":
        C = symbol_constant(kern.s)
        for x, v, e in rows:
            ref = -C * omega ** (2 * kern.s) * np.cos(omega * x)
            rel = abs(v - ref) / max(abs(ref), 1e-300)
            rep.add(f"plane-wave-oracle-x={x:g}", rel < 1e-4, 1e-4 - rel)
    write_csv(out / "operator_eval.csv", ["x", "value", "error"], rows)
    return rep


def cmd_verify_regularity(cfg, out, seed, mode) -> Report:
    from . import profiles as pr
    from .quadrature import (QuadConfig, check_derivative_commutation,
                             check_holder_transfer)

    kern = _kernel_from(cfg)
    rep = Report("verify-regularity", cfg)
    qc = QuadConfig(tol=1e-6)
    corpus = [pr.gaussian(), pr.tanh_profile(), pr.cosine(1.0)]
    xs = [-1.0, -0.3, 0.0, 0.7, 2.0]
    for u in corpus:
        r = check_derivative_commutation(kern, u, xs, h=1e-3, cfg=qc)
        rep.add(f"derivative-commutation-{u.name}", r.passed,
                r.tolerance - max(r.discrepancies))
    if 2.0 * kern.s < 1.0:
        rng = np.random.default_rng(seed)
        pairs = [(a, a + d) for a, d in zip(rng.uniform(-1, 1, 5),
                                            rng.uniform(0.1, 0.5, 5))]
        rep.add_records([check_holder_transfer(
            kern, pr.lipschitz_bump(), pairs, alpha=1.0, seminorm=1.0,
            cfg=qc)])
    return rep


def cmd_verify_barriers(cfg, out, seed, mode) -> Report:
    from .barriers import (StepBarrier, asymptotic_operator_limit,
                           derivative_barrier, exact_power_bump,
                           lower_bound_barrier, step_constant_cap,
                           verify_step_barrier, TailBarrier)

    kern = _kernel_from(cfg)
    rep = Report("verify-barriers", cfg)
    rng = np.random.default_rng(seed)
    cap = step_constant_cap(kern.s, kern.lam, kern.Lam)
    for i in range(value(cfg, "barriers.n_step")):
        xbar = rng.uniform(1.0, 4.0)
        A = rng.uniform(0.2, 1.5)
        alpha = rng.uniform(0.05, 0.5)
        capv = 1.0 - alpha * xbar ** (-A)
        b = StepBarrier(xbar=xbar, alpha=alpha, A=A,
                        B=rng.uniform(0.0, min(0.6, capv)),
                        D=rng.uniform(0.0, capv - 1e-9))
        r = verify_step_barrier(kern, b, [10 * xbar, 40 * xbar, 200 * xbar],
                                c_cap=cap)
        rep.add(f"step-barrier-negative-{i}", r.negative,
                -max(r.values))
        rep.add(f"step-barrier-capped-{i}", r.passed,
                min(bv - v for v, bv in zip(r.values, r.bound)))
    tb = exact_power_bump(2.0, 1.0)
    xs = [1e3, 1e4, 1e5]
    up = asymptotic_operator_limit(kern, tb, xs, "upper")
    rep.add("tail-bracket-upper", up.passed, up.bound - up.estimate)
    lo_tb = TailBarrier(Cbar=tb.Cbar * 0.5, kappa=tb.kappa, sigma=tb.sigma,
                        tau=tb.tau, gamma_low=tb.gamma_low, body=tb.body)
    lo = asymptotic_operator_limit(kern, lo_tb, xs, "lower")
    rep.add("tail-bracket-lower", lo.passed, lo.estimate - lo.bound)
    db = derivative_barrier(kern.s, 5.8, 5.0, 5.5, 5.0, xbar=6.0)
    updb = asymptotic_operator_limit(kern, db, [6e3, 6e4, 6e5], "upper")
    rep.add("derivative-barrier-upper", updb.passed,
            updb.bound - updb.estimate)
    lb = lower_bound_barrier(kern.s, 5.0, 2.0, 0.6, 0.8, kern.lam, cap, 2.0)
    rep.add("comparison-barrier-invariant", True,
            1.0 - lb.alpha * lb.xbar ** (-lb.A) - lb.D)
    return rep


def cmd_build_counterexample(cfg, out, seed, mode) -> Report:
    from .construction import build_constants, build_profile

    p = _layer_params_from(cfg, mode)
    rep = Report("build-counterexample", cfg)
    cx = build_constants(p)
    rep.add("constants-built", True, cx.rho, f"rho={cx.rho:.6g},a0={cx.a0:.6g}")
    if mode == "desk":
        prof = build_profile(p, cx)
        mono = prof.monotone_report(4000)
        rep.add("profile-monotone", mono["monotone"], 0.0 if mono["monotone"]
                else -1.0)
        jm = prof.junction_mismatches()
        worst = max(r["worst"] for r in jm)
        rep.add("junction-regularity", worst < 1e-10, 1e-10 - worst)
        prof.export_csv(out / "profile.csv")
    else:
        rep.add("paper-mode-scales-double-log", True, float(cx.lnlnb[-1]))
    return rep


def cmd_verify_counterexample(cfg, out, seed, mode) -> Report:
    from . import verify_construction as vc
    from .construction import build_constants, build_profile

    p = _layer_params_from(cfg, mode)
    rep = Report("verify-counterexample", cfg)
    cx = build_constants(p)
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(value(cfg, "counterexample.n_sweep")):
        s = rng.uniform(0.1, 0.9)
        beta = rng.uniform(2.0, 6.0)
        delta = rng.uniform(2.0, 6.0)
        tuples.append((s, beta + rng.uniform(1e-3, 0.999), beta,
                       delta + rng.uniform(1e-3, 0.999), delta))
    rep.add_records(vc.inequality_sweep(tuples))
    rep.add_records(vc.equality_case_records())
    rep.add_records(vc.touchpoint_reduced_records(cx))
    rep.add_records(vc.ordering_chain_records(cx))
    rep.add_records([vc.check_log_power_ode(2.0, 10.0, 3.0, 0.7,
                                            np.linspace(0.01, 0.99, 50))])
    if mode == "desk":
        prof = build_profile(p, cx)
        rep.add_records(vc.touchpoint_desk_records(prof))
        rep.add_records(vc.profile_bound_records(prof))
        rep.add_records(vc.second_derivative_bound_records(prof))
        rep.add_records(vc.fd_agreement_records(prof))
        rep.add_records(vc.highprec_agreement_records(prof))
        mono = prof.monotone_report()
        rep.add("profile-monotone", mono["monotone"],
                0.0 if mono["monotone"] else -1.0,
                str({k: v for k, v in mono["sufficiency"].items()
                     if isinstance(v, bool)}))
    return rep


def cmd_reconstruct_potential(cfg, out, seed, mode) -> Report:
    from .construction import build_profile
    from .reconstruct import (reconstruct_potential, second_derivative_limit,
                              slope_mass, verify_potential_regularity,
                              verify_well_envelopes)

    p = _layer_params_from(cfg, "desk")
    kern = _kernel_from(cfg)
    rep = Report("reconstruct-potential", cfg)
    prof = build_profile(p)
    tab = reconstruct_potential(
        prof, kern, depth_decades=value(cfg, "reconstruct.depth_decades"))
    tab.to_csv(out / "potential.csv")
    rep.add("potential-positive", tab.interior_min() > 0, tab.interior_min())
    rep.add("equal-depth-closure", tab.closure_defect() <= 0.01,
            0.01 - tab.closure_defect())
    rep.add_records([verify_potential_regularity(tab)])
    rep.add_records(verify_well_envelopes(tab, p))
    m = slope_mass(prof, X=1e40)
    rep.add("slope-mass-2", abs(m - 2.0) < 1e-6, 1e-6 - abs(m - 2.0))
    rep.add_records(second_derivative_limit(prof, kern,
                                            [3e6, 1e7, 3e7, 1e8, 3e8, 1e9]))
    return rep


def cmd_solve(cfg, out, seed, mode) -> Report:
    """Relax [solver] L, n to tol; max_iter caps minimize_energy's passes,
    each a pseudo-transient step of up to a hundred matvecs."""
    from .gridop import GridOperator
    from .potentials import make_potential, well_envelope_records
    from .solver import (SolveConfig, make_grid, minimize_energy,
                         tail_exponent)

    kern = _kernel_from(cfg)
    pot = make_potential(_well_from(cfg))
    g0 = _build("solver", make_grid, **settings(cfg, "solver", "L", "n"))
    sc = _build("solver", SolveConfig,
                **settings(cfg, "solver", "tol", "max_iter"))
    rep = Report("solve", cfg)
    rep.add_records(well_envelope_records(pot))
    res = minimize_energy(g0, pot, kern, sc)
    rep.add("solver-converged", res.residual < sc.tol,
            sc.tol - res.residual,
            f"iterations={res.iterations} frozen-steps={res.frozen_steps}")
    inc = bool(np.all(np.diff(res.profile.values) >= -1e-14))
    rep.add("profile-increasing", inc, 0.0 if inc else -1.0)
    for k, v in res.hypothesis_tags.items():
        rep.add(f"regime-tag-{k}", True, 1.0 if v else 0.0, str(v))
    for side in (1, -1):
        fit = tail_exponent(res.profile, side)
        rep.add(f"tail-exponent-{SIDE_LABEL[side]}", True, fit.exponent,
                f"exp={fit.exponent:.4f}")
    op = GridOperator(kern, res.profile)
    r = op.apply(res.profile.values) - pot.W1(res.profile.values)
    write_csv(out / "solution.csv", ["x", "u", "residual"],
              zip(res.profile.x, res.profile.values, r))
    import json
    with open(out / "convergence.json", "w") as fh:
        json.dump({"iterations": res.iterations,
                   "final-residual": float(res.residual),
                   "energy-trace": [float(e) for e in res.energy_trace],
                   "residual-trace": [float(r) for r in res.residual_trace],
                   "tau-trace": [float(t) for t in res.tau_trace],
                   "krylov-iterations": res.krylov_iterations,
                   # per pass, the (c, p) each side's refit chose, null
                   # for the bare limit
                   "exterior-trace": [[[m.c, m.p] if m.c else None
                                       for m in pair]
                                      for pair in res.exterior_trace],
                   "rejected-steps": res.rejected_steps,
                   "frozen-steps": res.frozen_steps},
                  fh, indent=1)
    return rep


def cmd_fit_decay(cfg, out, seed, mode) -> Report:
    """Power fit of each side's gap 1 - s u over the points with s x above
    half its largest value, in file order."""
    from .analysis import fit_power_decay

    path = value(cfg, "fit.csv")
    rep = Report("fit-decay", cfg)
    try:
        with open(path) as fh:
            rows = [(float(row["x"]), float(row["u"]))
                    for row in csv.DictReader(fh)]
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise InputFileError(f"cannot read columns x, u of {path}: {e}") \
            from e
    x, u = np.array(rows).reshape(-1, 2).T
    for side in (1, -1):
        y = side * x
        try:
            m = y > 0.5 * y.max()
            gap = 1.0 - side * u[m]
            good = gap > 1e-13
            fit = fit_power_decay(np.column_stack([y[m][good], gap[good]]),
                                  min_decades=0.25)
        except ValueError as e:
            raise InputFileError(
                f"no {SIDE_LABEL[side]} decay fit on {path}: {e}") from e
        rep.add(f"decay-fit-{SIDE_LABEL[side]}", True, fit.exponent,
                f"exp={fit.exponent:.5f},residual={fit.residual:.3g}")
    return rep


COMMANDS = {
    "operator-eval": cmd_operator_eval,
    "verify-regularity": cmd_verify_regularity,
    "verify-barriers": cmd_verify_barriers,
    "build-counterexample": cmd_build_counterexample,
    "verify-counterexample": cmd_verify_counterexample,
    "reconstruct-potential": cmd_reconstruct_potential,
    "solve": cmd_solve,
    "fit-decay": cmd_fit_decay,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fraclayer",
        description="Nonlocal layer-profile laboratory batch runner")
    ap.add_argument("subcommand", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=False, help="key = value config file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=["paper", "desk"], default="desk")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        cfg = load_config(args.config) if args.config else {}
    except (OSError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rep = COMMANDS[args.subcommand](cfg, out, args.seed, args.mode)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except FracLayerError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    rep.write(out / f"{args.subcommand.replace('-', '_')}_report.json")
    print(rep.summary_line())
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
