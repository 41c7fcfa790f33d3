"""Dump the layer profile's outputs, or compare two dumps bit for bit.

    PYTHONPATH=TREE/src python3 tools/profile_outputs.py dump OUT.npz
    python3 tools/profile_outputs.py compare A.npz B.npz

`dump` evaluates, on the desk profile (s = 0.5, alpha = 5.8, beta = 5,
gamma = 5.5, delta = 5, rho = 2.1) and on the threshold profile
(`threshold_params(0.5, rho_target=2.05)`):

- `eval` at orders 0-4 on 4000 seeded points x = +-e^L, L in [0, 80];
- order-4 `gap_jet_log` on both sides at those L (sign and log magnitude);
- every field of `junction_mismatches`;
- the bytes of `export_csv`;
- `a0`, `lnb`, `lnc`, `lnlnb`, `sufficiency_report` and the bridge
  polynomials' coefficients;
- (id, passed, worst_slack, location) of every record of the desk checks
  (touchpoints, bound sandwiches, finite-difference and mpmath agreement)
  and of the reduced ones (touchpoints, scale ordering, ramp ODE);

and once:

- `eta_derivs(linspace(0, 1, 20001), 4)`, the records of `inequality_sweep`
  on 40 seeded tuples and of `equality_case_records`, and the constants and
  reduced records of the paper-mode construction;
- a depth-6 `reconstruct_potential` table of the desk profile under the
  s = 0.5 kernel (its arrays, `closure_defect` and the regularity and
  envelope records);
- for a pure-power well pair with four different constants and for the
  oscillatory wells (5.8, 5 | 5.5, 5): W, W' and W'' on a uniform and a
  graded grid in [-1, 1], `max_w2` and the `well_envelope_records`;
- the `measure_cutoff` fields;
- under the s = 0.5 kernel: `step_constant_cap(0.5)` and
  `verify_step_barrier` on four seeded step barriers with that cap; the
  estimate, bound and verdict of `asymptotic_operator_limit` for
  `exact_power_bump(2, 1)` (both orientations) and for the
  `derivative_barrier` of the (5.8, 5 | 5.5, 5) wells at xbar = 6 (upper),
  and that barrier's body and two derivatives on [-12, 12];
- `check_derivative_commutation` on `verify-regularity`'s corpus (its
  points, h = 1e-3, tolerance 1e-6), and its `holder-transfer-cap` record
  on `lipschitz_bump()` under the s = 0.25 kernel at the pairs of seed 0;
- `tanh_profile()` and `lipschitz_bump()`: values and derivatives on
  [-3, 3], features and names;
- `minimize_energy` under the s = 0.5 kernel over [-60, 60] with 256
  nodes, tol 2e-5, on quartic wells (c = 2) and on wells with a quadratic
  left and a cubic right degeneracy: values, exterior models, iteration
  count, residual and energy trace, and the exponent, log constant and
  residual of `tail_exponent` on both sides;
- `minimize_energy` at tol 1e-6 on wells alpha = beta = gamma = delta
  in {3, 4, 6} (mu = 0.5) under the s = 0.5 and s = 0.75 kernels over
  [-200, 200] with 1024 nodes, and on the alpha = 4 wells under
  `perturbed_kernel(0.5, 0.5, 2.0, wobble=1)` over [-800, 800] with 8192
  nodes: values, iteration count and the right `tail_exponent`;
- `minimize_energy` from lim tanh(x / 5) with exteriors at -lim and lim
  over [-60, 60] with 256 nodes, s = 0.5, tol 1e-6, on the wells
  alpha = beta = gamma = delta = a (mu = 0.5) for (a, lim) = (3, 0.2) and
  (4, 0.5), two solves whose Newton tries on the refit fall back to the
  frozen models: values, iteration count and residual;
- criterion 9's three solves as `perfbench/workloads.py`'s SOLVE_CASES
  define them (9a quartic and 9b degenerate wells at n = 2048, 9c
  oscillatory wells at n = 4096, each at its own tolerance): the relaxed
  values, the right `tail_exponent`, the residual and the iteration count;
- for every solve, its step record: the Krylov count and tau of each step,
  the tau halvings and frozen steps, and the residual and refit exterior
  models of each pass;
- `exterior_power_vector` on criterion 9's three grids, one side at a time,
  at a fixed exterior model per case (9a c = 1, p = 1; 9b 1.32, 0.29; 9c
  1.05, 0.41);
- `perturbed_kernel(s, 0.5, 1.5).tail_integral` for s in {0.1, 0.25, 0.5}
  at `eval_lk`'s Z = 1e6 (1 + |x|), x on 13 points of [-3, 3], and at the
  distances of 9a's nodes to an edge;
- `eval_lk` under `perturbed_kernel(0.5, 0.5, 1.5)` at tol 1e-6 on the
  `operator` workload's smooth corpus (tanh, gaussian, the (2, 2) power-tail
  bump, the constant 0.7) at those 13 points: value, error by component
  and panel count;
- the CLI: all 8 subcommands on `tests/test_cli.py`'s `BASE` config, in
  desk and paper mode, at seeds 0 and 7, each pair in its own temporary
  working directory with `fit.csv` given relative to it (so the echoed
  path is the same for every tree): the bytes of every report, CSV and
  `convergence.json`, and each exit code.

Run it against two source trees to check that a refactor keeps every
number: `compare` exits 1 and names each array that differs in dtype,
shape or bytes (so -0.0 differs from 0.0 and NaN payloads count), with
both values when it holds at most four numbers.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np


def _records(out: dict, key: str, records) -> None:
    """One array per CheckRecord field, in record order."""
    for field in ("id", "passed", "worst_slack", "location"):
        out[f"{key}/{field}"] = np.array([getattr(r, field) for r in records])


def _constants(out: dict, name: str, cx) -> None:
    """The scale constants and the reduced records of one construction."""
    from fraclayer import verify_construction as vc

    for field in ("a0", "lnb", "lnc", "lnlnb"):
        out[f"{name}/{field}"] = np.array(getattr(cx, field))
    for key, v in cx.sufficiency_report().items():
        out[f"{name}/sufficiency/{key}"] = np.array(v)
    _records(out, f"{name}/touchpoint_reduced",
             vc.touchpoint_reduced_records(cx))
    _records(out, f"{name}/ordering_chain", vc.ordering_chain_records(cx))


def _reconstruction(out: dict, prof) -> None:
    from fraclayer.kernels import fractional_kernel
    from fraclayer.reconstruct import (reconstruct_potential,
                                       verify_potential_regularity,
                                       verify_well_envelopes)

    tab = reconstruct_potential(prof, fractional_kernel(0.5),
                                depth_decades=6.0)
    for field in ("r", "x", "V", "V1", "V2"):
        out[f"table/{field}"] = getattr(tab, field)
    out["table/closure_defect"] = np.array(tab.closure_defect())
    _records(out, "table/records", [verify_potential_regularity(tab)]
             + verify_well_envelopes(tab, prof.cx.params))


def _potentials(out: dict) -> None:
    from fraclayer.potentials import (WellParams, make_potential,
                                      well_envelope_records)

    wells = {
        "power": WellParams(alpha=3.0, beta=3.0, gamma=4.0, delta=4.0,
                            c1=1.5, c2=2.0, c3=0.5, c4=3.0, mu=0.4),
        "oscillatory": WellParams(alpha=5.8, beta=5.0, gamma=5.5, delta=5.0,
                                  mode="oscillatory")}
    ladder = 1.0 - np.geomspace(1e-12, 0.9, 500)
    t = np.concatenate([np.linspace(-1.0, 1.0, 4001), ladder, -ladder])
    for name, p in wells.items():
        pot = make_potential(p)
        for m, f in enumerate((pot.W, pot.W1, pot.W2)):
            out[f"{name}/W{m}"] = f(t)
        out[f"{name}/W0_scalar"] = np.array([pot.W(v) for v in t[::97]])
        out[f"{name}/max_w2"] = np.array(pot.max_w2())
        _records(out, f"{name}/well_envelope", well_envelope_records(pot))


def _operators(out: dict) -> None:
    """Barriers, commutation and Hölder transfer, the built-in profiles and
    the cutoff statistics."""
    from fraclayer import profiles as pr
    from fraclayer.barriers import (StepBarrier, asymptotic_operator_limit,
                                    derivative_barrier, exact_power_bump,
                                    step_constant_cap, verify_step_barrier)
    from fraclayer.cutoffs import measure_cutoff
    from fraclayer.kernels import fractional_kernel
    from fraclayer.quadrature import (QuadConfig,
                                      check_derivative_commutation,
                                      check_holder_transfer)

    stats = measure_cutoff()
    for field in ("eta_bar", "eta_0", "ratio"):
        out[f"cutoff/{field}"] = np.array(getattr(stats, field))
    kern = fractional_kernel(0.5)
    cap = step_constant_cap(0.5)
    out["step/cap"] = np.array(cap)
    rng = np.random.default_rng(11)
    for i in range(4):
        xbar, A, alpha = (rng.uniform(1.0, 4.0), rng.uniform(0.2, 1.5),
                          rng.uniform(0.05, 0.5))
        lvl = 1.0 - alpha * xbar ** (-A)
        b = StepBarrier(xbar=xbar, alpha=alpha, A=A,
                        B=rng.uniform(0.0, min(0.6, lvl)),
                        D=rng.uniform(0.0, lvl - 1e-9))
        r = verify_step_barrier(kern, b, [10 * xbar, 40 * xbar, 200 * xbar],
                                c_cap=cap)
        out[f"step/{i}"] = np.array([*r.values, *r.bound, r.passed,
                                     r.negative])
    db = derivative_barrier(0.5, 5.8, 5.0, 5.5, 5.0, xbar=6.0)
    x = np.linspace(-12.0, 12.0, 241)
    out["derivative_barrier/body"] = np.array(
        [db.body(x), db.body.deriv(1)(x), db.body.deriv(2)(x)])
    for name, tb, xs, orients in (
            ("power_bump", exact_power_bump(2.0, 1.0), [1e3, 1e4, 1e5],
             ("upper", "lower")),
            ("derivative_barrier", db, [6e3, 6e4, 6e5], ("upper",))):
        for orient in orients:
            r = asymptotic_operator_limit(kern, tb, xs, orient)
            out[f"{name}/limit_{orient}"] = np.array(
                [r.estimate, r.bound, r.passed])
    qc = QuadConfig(tol=1e-6)
    for u in (pr.gaussian(), pr.tanh_profile(), pr.cosine(1.0)):
        r = check_derivative_commutation(kern, u, [-1.0, -0.3, 0.0, 0.7, 2.0],
                                         h=1e-3, cfg=qc)
        out[f"commutation/{u.name}"] = np.array(
            [*r.discrepancies, r.tolerance, r.passed])
    rng = np.random.default_rng(0)
    pairs = [(a, a + d) for a, d in zip(rng.uniform(-1, 1, 5),
                                        rng.uniform(0.1, 0.5, 5))]
    _records(out, "holder_transfer", [check_holder_transfer(
        fractional_kernel(0.25), pr.lipschitz_bump(), pairs, alpha=1.0,
        seminorm=1.0, cfg=qc)])
    x = np.linspace(-3.0, 3.0, 601)
    for key, u in (("tanh", pr.tanh_profile()), ("lip", pr.lipschitz_bump())):
        out[f"profile/{key}/values"] = np.array(
            [u(x)] + [u.deriv(m)(x) for m in range(1, 5) if u.has_deriv(m)])
        out[f"profile/{key}/features"] = np.array(u.features)
        out[f"profile/{key}/name"] = np.array(u.name)


def _steps(out: dict, key: str, res) -> None:
    """The step record of one solve: Krylov counts, tau, halvings, frozen
    steps, residuals and each pass's exterior models, as (limit, c, p) per
    side."""
    for field in ("krylov_iterations", "tau_trace", "rejected_steps",
                  "frozen_steps", "residual_trace"):
        out[f"{key}/{field}"] = np.array(getattr(res, field))
    out[f"{key}/exterior_trace"] = np.array(
        [[(m.limit, m.c, m.p) for m in pair] for pair in res.exterior_trace])


def _solver(out: dict) -> None:
    from fraclayer.gridop import GridProfile
    from fraclayer.kernels import fractional_kernel, perturbed_kernel
    from fraclayer.potentials import WellParams, make_potential
    from fraclayer.profiles import PowerTail
    from fraclayer.solver import (SolveConfig, make_grid, minimize_energy,
                                  tail_exponent)

    wells = {
        "solve_quartic": WellParams(alpha=2, beta=2, gamma=2, delta=2, c1=2,
                                    c2=2, c3=2, c4=2),
        "solve_mixed": WellParams(alpha=2, beta=2, gamma=3, delta=3, c1=2,
                                  c2=2, c3=1, c4=1.5)}
    for name, p in wells.items():
        res = minimize_energy(make_grid(60.0, 256), make_potential(p),
                              fractional_kernel(0.5),
                              SolveConfig(max_iter=30000, tol=2e-5))
        g = res.profile
        out[f"{name}/values"] = g.values
        out[f"{name}/iterations"] = np.array(res.iterations)
        out[f"{name}/residual"] = np.array(res.residual)
        out[f"{name}/energy_trace"] = np.array(res.energy_trace)
        _steps(out, name, res)
        for side, ext in (("left", g.ext_left), ("right", g.ext_right)):
            out[f"{name}/ext_{side}"] = np.array([ext.limit, ext.c, ext.p])
        # the default side is the right one; -1 is the left
        for side, fit in (("right", tail_exponent(g)),
                          ("left", tail_exponent(g, -1))):
            out[f"{name}/tail_{side}"] = np.array(
                [fit.exponent, fit.log_const, fit.residual])
    # pure-power wells of equal exponents (mu = 0.5) across s and alpha,
    # and the same alpha = 4 wells under a log-periodic kernel on a long grid
    runs = {f"solve_s{s}_alpha{a}": (fractional_kernel(s), a, 200.0, 1024)
            for s in (0.5, 0.75) for a in (3, 4, 6)}
    runs["solve_perturbed"] = (perturbed_kernel(0.5, 0.5, 2.0, wobble=1), 4,
                               800.0, 8192)
    for name, (kern, a, L, n) in runs.items():
        res = minimize_energy(make_grid(L, n), make_potential(WellParams(
            alpha=a, beta=a, gamma=a, delta=a, mu=0.5)), kern,
            SolveConfig(max_iter=40000, tol=1e-6))
        out[f"{name}/values"] = res.profile.values
        out[f"{name}/iterations"] = np.array(res.iterations)
        out[f"{name}/exponent"] = np.array(
            tail_exponent(res.profile).exponent)
        _steps(out, name, res)
    # starts short of the wells, whose first refit moves the limits: Newton
    # tries on the refit are rejected and the step falls back to the frozen
    # models (a = 3 also halves tau there)
    x = np.linspace(-60.0, 60.0, 256)
    for a, lim in ((3, 0.2), (4, 0.5)):
        name = f"solve_fallback_alpha{a}"
        g0 = GridProfile(x, lim * np.tanh(x / 5.0), PowerTail(-lim),
                         PowerTail(lim))
        res = minimize_energy(g0, make_potential(WellParams(
            alpha=a, beta=a, gamma=a, delta=a, mu=0.5)),
            fractional_kernel(0.5), SolveConfig(max_iter=5000, tol=1e-6))
        out[f"{name}/values"] = res.profile.values
        out[f"{name}/iterations"] = np.array(res.iterations)
        out[f"{name}/residual"] = np.array(res.residual)
        _steps(out, name, res)


def _criterion9(out: dict) -> None:
    """Criterion 9's three solves, as perfbench's SOLVE_CASES define them."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import A_9C, B_9C, SOLVE_CASES

    from fraclayer.kernels import fractional_kernel
    from fraclayer.potentials import WellParams, make_potential
    from fraclayer.solver import (SolveConfig, make_grid, minimize_energy,
                                  tail_exponent)

    for name, c in SOLVE_CASES.items():
        g0 = make_grid(c.L, c.n, init=c.init,
                       tail_exponent_seed=0.5 * (A_9C + B_9C))
        res = minimize_energy(g0, make_potential(WellParams(**c.well)),
                              fractional_kernel(c.s),
                              SolveConfig(max_iter=c.max_iter, tol=c.tol))
        out[f"criterion9/{name}/exponent"] = np.array(
            tail_exponent(res.profile).exponent)
        out[f"criterion9/{name}/residual"] = np.array(res.residual)
        out[f"criterion9/{name}/steps"] = np.array(res.iterations)
        out[f"criterion9/{name}/values"] = res.profile.values
        _steps(out, f"criterion9/{name}", res)


def _tails(out: dict) -> None:
    """The exterior power integral on criterion 9's grids, the perturbed
    kernel's tail mass, and eval_lk on the operator workload's smooth
    corpus under the perturbed kernel."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import SOLVE_CASES

    from fraclayer import profiles as pr
    from fraclayer.gridop import exterior_power_vector
    from fraclayer.kernels import fractional_kernel, perturbed_kernel
    from fraclayer.profiles import PowerTail
    from fraclayer.quadrature import QuadConfig, eval_lk
    from fraclayer.solver import make_grid

    # each case's exterior model (c, p) near where its solve ends
    models = {"9a": (1.0, 1.0), "9b": (1.32, 0.29), "9c": (1.05, 0.41)}
    for name, c in SOLVE_CASES.items():
        g = make_grid(c.L, c.n)
        amp, p = models[name]
        for side, (cl, cr) in (("left", (amp, 0.0)), ("right", (0.0, -amp))):
            g.ext_left, g.ext_right = (PowerTail(-1.0, cl, p),
                                       PowerTail(1.0, cr, p))
            out[f"exterior_power/{name}/{side}"] = exterior_power_vector(
                fractional_kernel(c.s), g)
        if name == "9a":     # its nodes' distances to the left edge
            dist = g.x - g.x[0] + 0.5 * (g.x[1] - g.x[0])
    x = np.linspace(-3.0, 3.0, 13)
    for s in (0.1, 0.25, 0.5):
        kern = perturbed_kernel(s, 0.5, 1.5)
        out[f"tail_integral/s{s}/Z"] = kern.tail_integral(1e6 * (1.0 + abs(x)))
        out[f"tail_integral/s{s}/grid"] = kern.tail_integral(dist)
    kern = perturbed_kernel(0.5, 0.5, 1.5)
    for u in (pr.tanh_profile(), pr.gaussian(), pr.power_tail_bump(2.0, 2.0),
              pr.constant(0.7)):
        out[f"eval_lk_perturbed/{u.name}"] = np.array([
            (ov.value, ov.error, ov.panel_err, ov.sing_err, ov.tail_err,
             ov.n_panels) for ov in (eval_lk(kern, u, float(xi),
                                             QuadConfig(tol=1e-6))
                                     for xi in x)])


def _cli(out: dict) -> None:
    """Every subcommand on the CLI tests' base config, in process."""
    import ast
    import contextlib
    import io
    import os

    from fraclayer.cli import COMMANDS, main

    # read, not imported: the test module imports what the tree under test
    # may not define
    tests = Path(__file__).resolve().parents[1] / "tests" / "test_cli.py"
    BASE = next(ast.literal_eval(node.value)
                for node in ast.parse(tests.read_text()).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "BASE")

    # solve writes the solution.csv that fit-decay reads
    order = sorted(COMMANDS, key=lambda c: c == "fit-decay")
    cwd = os.getcwd()
    for mode in ("desk", "paper"):
        for seed in (0, 7):
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    Path("run.cfg").write_text(
                        BASE + "fit.csv = 'solution.csv'\n")
                    for cmd in order:
                        with contextlib.redirect_stdout(io.StringIO()):
                            rc = main([cmd, "--config", "run.cfg", "--out",
                                       ".", "--mode", mode, "--seed",
                                       str(seed)])
                        out[f"cli/{mode}/{seed}/{cmd}/exit"] = np.array(rc)
                finally:
                    os.chdir(cwd)
                for f in sorted(Path(tmp).iterdir()):
                    if f.suffix in (".json", ".csv"):
                        out[f"cli/{mode}/{seed}/{f.name}"] = np.frombuffer(
                            f.read_bytes(), np.uint8)


def dump(path: str) -> None:
    from fraclayer import verify_construction as vc
    from fraclayer.construction import (LayerParams, build_constants,
                                        build_profile, threshold_params)
    from fraclayer.cutoffs import eta_derivs

    out = {"eta_derivs": np.array(eta_derivs(np.linspace(0.0, 1.0, 20001),
                                             4))}
    rng = np.random.default_rng(7)
    tuples = []
    for _ in range(40):
        s = rng.uniform(0.1, 0.9)
        beta = rng.uniform(2.0, 6.0)
        delta = rng.uniform(2.0, 6.0)
        tuples.append((s, beta + rng.uniform(1e-3, 0.999), beta,
                       delta + rng.uniform(1e-3, 0.999), delta))
    _records(out, "inequality_sweep", vc.inequality_sweep(tuples))
    _records(out, "equality_cases", vc.equality_case_records())
    _constants(out, "paper", build_constants(LayerParams(
        s=0.5, alpha=5.8, beta=5.0, gamma=5.5, delta=5.0, mode="paper")))
    profiles = {
        "desk": LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                            delta=5.0, rho=2.1),
        "threshold": threshold_params(0.5, rho_target=2.05)}
    rng = np.random.default_rng(2026)
    L = rng.uniform(0.0, 80.0, 4000)
    x = np.where(rng.random(L.size) < 0.5, -1.0, 1.0) * np.exp(L)
    for name, params in profiles.items():
        prof = build_profile(params)
        _constants(out, name, prof.cx)
        _records(out, f"{name}/ramp_ode", [vc.check_ramp_ode_identity(prof.cx)])
        for fn in (vc.touchpoint_desk_records, vc.profile_bound_records,
                   vc.second_derivative_bound_records, vc.fd_agreement_records,
                   vc.highprec_agreement_records):
            _records(out, f"{name}/{fn.__name__}", fn(prof))
        for i, ders in enumerate(prof.bridge_derivs):
            out[f"{name}/bridge{i}"] = ders[0].coef
        for m in range(5):
            out[f"{name}/eval{m}"] = prof.eval(x, m)
        for side in (1, -1):
            g = prof.gap_jet_log(side, L, order=4)
            out[f"{name}/gap{side:+d}"] = np.array(
                [(gm.sign, gm.logm) for gm in (g[m] for m in range(5))])
        for i, rec in enumerate(prof.junction_mismatches()):
            for key, v in rec.items():
                out[f"{name}/junction{i}/{key}"] = np.array(v)
        with tempfile.TemporaryDirectory() as tmp:
            csv = Path(tmp) / "profile.csv"
            prof.export_csv(csv)
            out[f"{name}/csv"] = np.frombuffer(csv.read_bytes(), np.uint8)
        if name == "desk":
            _reconstruction(out, prof)
    _potentials(out)
    _operators(out)
    _solver(out)
    _criterion9(out)
    _tails(out)
    _cli(out)
    np.savez(path, **out)


def compare(a: str, b: str) -> int:
    da, db = np.load(a), np.load(b)
    bad = sorted(set(da.files) ^ set(db.files))
    for key in sorted(set(da.files) & set(db.files)):
        u, v = da[key], db[key]
        if (u.dtype, u.shape, u.tobytes()) != (v.dtype, v.shape, v.tobytes()):
            bad.append(key)
    for key in bad:
        print(f"differs: {key}", *(
            [f"{da[key].tolist()} -> {db[key].tolist()}"]
            if key in da.files and key in db.files
            and max(da[key].size, db[key].size) <= 4 else []))
    print(f"{len(da.files)} arrays, {len(bad)} differ")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
