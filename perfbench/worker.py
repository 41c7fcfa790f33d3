"""One workload in a fresh interpreter (started by run.py, never imported).

  --role setup  build the workload's fixtures, report when ready, exit
  --role work   build them, run the job list until --seconds have passed
                (at least once); with --trace 1, build them and run the
                list once with tracing on, and derive the per-layer metrics
                from the spans

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from harness import NullTracer, Tracer, percentile
from workloads import WORKLOADS, Outcome


def run_pass(jobs, tr) -> tuple[float, list[Outcome]]:
    """Run every job once, in order; a job that raises counts as failed."""
    outs = []
    t_pass = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            vals = job.run(tr)
            ok, err = True, ""
        except Exception as e:  # raised, or CheckFailed: a failed job
            vals, ok, err = {}, False, "".join(
                traceback.format_exception_only(type(e), e)).strip()
        outs.append(Outcome(job.kind, job.name, time.perf_counter() - t0, ok,
                            vals, err))
    return time.perf_counter() - t_pass, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "work"), default="work")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    import fraclayer

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(fraclayer.__file__).resolve().parents:
        print(f"fraclayer imported from {fraclayer.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tr = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload](args.seed, tr)
    ready = time.time()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    # a seeded job order interleaves cheap and costly jobs, so that each
    # latency group is sampled across the whole pass, not in one burst
    jobs = list(wl.jobs)
    random.Random(args.seed).shuffle(jobs)
    walls, outs = [], []
    t_start = time.perf_counter()
    while True:
        wall, o = run_pass(jobs, tr)
        walls.append(wall)
        outs.extend(o)
        if args.trace or time.perf_counter() - t_start >= args.seconds:
            break
    lat_ms = [1e3 * o.seconds for o in outs]
    prefix = "traced " if args.trace else ""
    result = {
        "ready": ready,
        "passes": len(walls),
        "wall_s": median(walls),
        "wall_s_passes": walls,
        "jobs": len(outs),
        "failed": sum(not o.ok for o in outs),
        "op_p50_ms": median(lat_ms),
        "kind_p50_ms": {k: median(1e3 * o.seconds for o in outs
                                  if o.kind == k)
                        for k in sorted({o.kind for o in outs})},
        "failures": [f"{prefix}{o.kind} {o.name}: {o.error}" for o in outs
                     if not o.ok][:20],
        **wl.quality(outs),
    }
    try:
        result["op_p90_ms"] = percentile(lat_ms, 90.0)
    except ValueError:
        pass  # fewer than 100 jobs: p90 has fewer than ten samples beyond it

    if args.trace:
        result["layers"] = wl.layer_metrics(tr, outs)
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"spans": tr.dump(), "counts": tr.counts}, fh)

    import numpy
    import scipy
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
