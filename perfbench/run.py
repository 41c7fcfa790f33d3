"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1, from the root of a checkout.

Runs one workload of perfbench/workloads.py against the checkout's own
src/fraclayer in fresh interpreters, one at a time, with BLAS pinned to one
thread:

  --trace 0  the work interpreter, then set-up-only interpreters (3 to 9
             set-ups in all, more while they are short); prints setup_s
             (median set-up), wall_s, op_p50_ms and peak_rss_mb
  --trace 1  a work interpreter with one untraced pass, one with a traced
             set-up and pass, then one fresh interpreter per CLI
             subcommand; prints the per-layer metrics

Metric names and units come from BENCHMARK.json. The line before the last
is a JSON report with the workload-only metrics (op_p90_ms, fail_share,
oracle and exponent errors), sample counts and the environment; the same
report is written under .perfbench/. The last line is the result object.
Exits non-zero, printing no result, when the checkout has no fraclayer
source or an interpreter fails or runs out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_SAMPLES = (3, 9)      # at least 3; more while they sum to under 5 s
SETUP_BUDGET_S = 5.0
# a run may take --seconds of passes plus one pass that overruns them, the
# set-ups and, when traced, the traced pass and the CLI runs: 170 s at 10 s
DEADLINE_BASE_S = 140.0
DEADLINE_PER_SECOND = 3.0

# CLI subcommands timed by traced runs (reconstruct-potential is left out:
# it raises TypeError at the seed); fit-decay reads solve's solution.csv
CLI_CONFIG = """\
kernel.s = 0.5
operator.points = 0.0,0.7
operator.profile = cosine
counterexample.s = 0.5
counterexample.rho = 2.1
potential.alpha = 2
potential.beta = 2
potential.gamma = 2
potential.delta = 2
potential.c1 = 2
potential.c2 = 2
potential.c3 = 2
potential.c4 = 2
"""
CLI_SUBCOMMANDS = ("operator-eval", "verify-regularity", "verify-barriers",
                   "build-counterexample", "verify-counterexample", "solve",
                   "fit-decay")


# end-to-end metrics that apply to some workloads only: reported, not gated
WORKLOAD_METRICS = {"op_p90_ms": "ms", "oracle_rel_err": "ratio",
                    "err_bound_ratio": "ratio", "invert_resid": "abs",
                    "exp_err": "ratio"}


class RunFailed(Exception):
    """A child interpreter failed or ran past the deadline."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd, deadline) -> tuple[float, subprocess.CompletedProcess]:
    """Run cmd to completion: (spawn time, completed process)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before " + " ".join(map(str, cmd[:4])))
    t0 = time.time()
    try:
        cp = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                            capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"timed out: {' '.join(map(str, cmd[:4]))}") from e
    return t0, cp


def worker(args, role, deadline, trace=0, seconds=None,
           trace_file=None) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--trace", str(trace), "--role", role]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    t0, cp = run_child(cmd, deadline)
    if cp.returncode != 0:
        sys.stderr.write(cp.stderr)
        raise RunFailed(f"{role} interpreter exited {cp.returncode}")
    res = json.loads(cp.stdout.strip().splitlines()[-1])
    return res["ready"] - t0, res


def time_cli(seed, deadline) -> tuple[dict, list[str]]:
    """Wall seconds of each subcommand in a fresh interpreter."""
    out = OUT / "cli"
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "run.cfg"
    cfg.write_text(CLI_CONFIG + f"fit.csv = '{out / 'solution.csv'}'\n")
    metrics, failures = {}, []
    for sub in CLI_SUBCOMMANDS:
        t0, cp = run_child([sys.executable, "-m", "fraclayer.cli", sub,
                            "--config", str(cfg), "--out", str(out),
                            "--seed", str(seed)], deadline)
        metrics[f"cli.{sub}_s"] = time.time() - t0
        if cp.returncode != 0:
            failures.append(f"cli {sub}: exit {cp.returncode} "
                            f"{cp.stderr.strip()[-200:]}")
    rep = out / "verify_counterexample_report.json"
    metrics["reports.json_bytes.verify-counterexample"] = \
        rep.stat().st_size if rep.exists() else 0
    return metrics, failures


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            cp = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
            sha = cp.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for p in sorted((SRC / "fraclayer").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16],
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_BASE_S \
        + DEADLINE_PER_SECOND * args.seconds
    # on SIGTERM, unwind so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fraclayer" / "__init__.py").is_file():
        print(f"no fraclayer source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            # one untraced and one traced pass, each the first pass of a
            # fresh interpreter, so that both pay the same cold costs
            _, ref = worker(args, "work", deadline, seconds=0)
            setup, res = worker(args, "work", deadline, trace=1,
                                trace_file=OUT / f"spans-{tag}.json")
            setups = [setup]
            cli, cli_fail = time_cli(args.seed, deadline)
            attempted = ref["jobs"] + res["jobs"] + len(CLI_SUBCOMMANDS)
            failed = ref["failed"] + res["failed"] + len(cli_fail)
            failures = ref["failures"] + res["failures"] + cli_fail
            values = {**res["layers"], **cli,
                      "trace.overhead": res["wall_s"] / ref["wall_s"]}
            wanted = spec["per_layer"]
        else:
            setup, res = worker(args, "work", deadline)
            setups = [setup]
            lo, hi = SETUP_SAMPLES
            while len(setups) < hi and (
                    len(setups) < lo or sum(setups) < SETUP_BUDGET_S):
                setups.append(worker(args, "setup", deadline)[0])
            attempted, failed = res["jobs"], res["failed"]
            failures = res["failures"]
            values = {"setup_s": statistics.median(setups), **res}
            wanted = spec["end_to_end"]
    except RunFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 3

    metrics = {}
    for m in wanted:
        # a per-layer metric of a layer this workload never calls reads 0
        v = values.get(m["name"], 0.0 if args.trace else None)
        if v is None:
            print(f"workload produced no {m['name']}", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    extra = {"fail_share": {"value": failed / attempted, "unit": "ratio"}}
    for name, unit in WORKLOAD_METRICS.items():
        if name in res:
            extra[name] = {"value": res[name], "unit": unit}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**environment(), **res["env"]},
        "metrics": metrics,
        "workload_metrics": extra,
        "samples": {"setup_s": setups, "wall_s": res["wall_s_passes"],
                    "jobs": res["jobs"], "passes": res["passes"]},
        "kind_p50_ms": res["kind_p50_ms"],
        "failures": failures,
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
