"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the root).

They check the benchmark's own oracle, percentile rule, memory guard,
tracing wrappers and plumbing; a dry run executes every third job of each
workload, and at least one of each kind, untraced and traced.
"""

import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import (NullTracer, Tracer, percentile,  # noqa: E402
                     traced_layer_profile, traced_potential, traced_profile)
import workloads as wls  # noqa: E402
from worker import run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_closed_form_symbol_matches_program(s):
    from fraclayer.kernels import symbol_constant

    assert abs(wls.symbol_closed_form(s) / symbol_constant(s) - 1.0) < 1e-12


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(100))
    assert percentile(xs, 90.0) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(xs[:99], 90.0)
    assert percentile(range(1000), 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile(range(999), 99.0)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.spans = [["p", 0.0, 10.0, None, {}], ["c", 1.0, 3.0, 0, {}],
                ["c", 4.0, 5.0, 0, {}], ["g", 4.2, 4.5, 2, {}]]
    assert tr.self_time(0) == pytest.approx(7.0)
    assert tr.self_time(2) == pytest.approx(0.7)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def test_wrappers_return_identical_arrays():
    from fraclayer import profiles as pr
    from fraclayer.construction import LayerParams, build_profile
    from fraclayer.potentials import WellParams, make_potential

    tr = Tracer()
    xs = (np.array(0.3), np.linspace(-4.0, 4.0, 7), np.array([[0.1, 2.0]]))
    u = pr.tanh_profile()
    w = traced_profile(tr, u)
    for x in xs:
        assert _same(u(x), w(x))
        assert all(_same(u.deriv(k)(x), w.deriv(k)(x)) for k in (1, 2, 3, 4))
    prof = build_profile(LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                                     delta=5.0, rho=2.1))
    wp = traced_layer_profile(tr, prof)
    for x in (np.array(0.3), np.array([1e5]), np.geomspace(1.0, 1e300, 9)):
        for order in (0, 1, 2):
            assert _same(prof.eval(x, order), wp.eval(x, order))
    assert wp.cx is prof.cx
    pot = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4))
    wpot = traced_potential(tr, pot)
    assert wpot.W1(0.2) == pot.W1(0.2)
    assert _same(wpot.W1(np.linspace(-1, 1, 5)), pot.W1(np.linspace(-1, 1, 5)))
    assert tr.counts["profile.calls"] > 0
    assert tr.counts["construction.eval.calls"] == 9
    assert tr.counts["potentials.W1.calls"] == 2
    off = NullTracer()
    assert traced_profile(off, u) is u and traced_potential(off, pot) is pot


def test_memory_guard_refuses_without_allocating():
    from fraclayer.kernels import fractional_kernel
    from fraclayer.profiles import cosine
    from fraclayer.quadrature import QuadConfig

    kern, u, cfg = fractional_kernel(0.1), cosine(4.0), QuadConfig(tol=1e-8)
    tracemalloc.start()
    try:
        n = wls.farfield_panels(kern, u, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # z1 reaches the truncation radius 1e6: 1e6 / (T/2) = 4e6/pi panels
    assert n == pytest.approx(4e6 / math.pi, rel=1e-3)
    assert n > 3 * wls.PANEL_CAP
    with pytest.raises(wls.MemoryGuardError):
        wls.guard_plane_wave(kern, u, cfg)
    # the count follows the layout the config asks for
    assert wls.farfield_panels(kern, cosine(1.0), wls.OP_CFG) < \
        wls.farfield_panels(kern, cosine(1.0), QuadConfig(
            tol=wls.OP_TOL, panels_per_decade=12))
    for s in wls.S_MIX:
        for om in wls.OMEGAS:
            for x in (0.0, -wls.X_MAX, 0.37, wls.X_MAX):
                wls.guard_plane_wave(fractional_kernel(s), cosine(om),
                                     wls.OP_CFG, x)


@pytest.fixture(scope="module")
def dry_layers():
    """Every third job of each workload and at least one of each kind,
    untraced then traced."""
    out = {}
    for name, cls in wls.WORKLOADS.items():
        wl = cls(7, NullTracer())
        jobs = wl.jobs[::3]
        for job in wl.jobs:
            if job.kind not in {j.kind for j in jobs}:
                jobs.append(job)
        _, outs = run_pass(jobs, NullTracer())
        assert outs and not [o for o in outs if not o.ok], name
        tr = Tracer()
        _, touts = run_pass(jobs, tr)
        assert not [o for o in touts if not o.ok], name
        assert tr.spans and all(s[2] is not None for s in tr.spans)
        wl.quality(outs)
        out[name] = wl.layer_metrics(tr, touts)
    return out


def test_dry_run_covers_every_per_layer_metric(dry_layers):
    produced = set().union(*dry_layers.values())
    from run import CLI_SUBCOMMANDS

    produced |= {f"cli.{s}_s" for s in CLI_SUBCOMMANDS}
    produced |= {"reports.json_bytes.verify-counterexample", "trace.overhead"}
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert produced <= wanted
    # the dry run solves 9a only; 9b and 9c (n = 4096) share its code path
    assert all(n.endswith((".9b", ".9c", ".n4096"))
               or n == "gridop.exterior_power_vector_ms"
               for n in wanted - produced), wanted - produced
    solve = dry_layers["solve"]
    assert solve["potentials.W1_calls.9a"] == solve["solver.iterations.9a"]


def test_run_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cp = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                         "solve", "--seed", "1", "--seconds", "1", "--trace",
                         "0"], cwd=tmp_path, capture_output=True, text=True,
                        timeout=60)
    assert cp.returncode != 0 and cp.stdout == ""
