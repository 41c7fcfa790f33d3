"""Alternating parent/change benchmark pairs, summarized in BENCH_<tag>.json.

    python3 tools/bench_pairs.py --tag 6 --seed 601 --parent REV \
        [--change HEAD] [--workdir DIR]

REV is the commit the change is measured against, the last commit before
the change's first one. The script clones this repository twice into DIR
(default: a temporary directory) and checks out the two revisions, so both
sides run their committed files. For every workload that BENCHMARK.json
declares it then runs `python3 perfbench/run.py` for the benchmark's
`run_seconds` from each checkout in turn, one run at a time, in 10 pairs:
pair i uses seed + i on both sides, and the side that runs first alternates
(parent first in pairs 0, 2, ...). It
writes BENCH_<tag>.json at the root of this repository with both SHAs, every
run's end-to-end values and correctness, each side's median and quartiles
per workload and metric, and the pairs each side won (ties, and pairs with a
failed run, count for neither; "better" comes from the change's
BENCHMARK.json).

A failed run (a nonzero exit of run.py, or `correct: false`) is printed with
its exit code and the tail of its stderr as it happens and listed again at
the end; the file is still written, and the script then exits 1.

Before every run it times a fixed calibration loop (`calibrate`, about 0.2 s
of numpy and pure Python on a 2-vCPU x86_64 VM) and writes the time beside
the run's values, with each side's median per workload, so that records
made on different days or machines can be compared by their speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(sha: str, dest: Path) -> Path:
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    git("checkout", "--quiet", sha, cwd=dest)
    return dest


def calibrate() -> float:
    """Seconds for a fixed loop: elementwise numpy, a sort, pure Python."""
    x = np.linspace(0.0, 1.0, 100_000)
    t0 = time.perf_counter()
    for _ in range(30):
        np.sort(np.exp(np.sin(7.0 * x)))
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, plus the source hash it ran."""
    cp = subprocess.run([sys.executable, "perfbench/run.py",
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds)],
                        cwd=tree, capture_output=True, text=True)
    lines = cp.stdout.strip().splitlines()
    if cp.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "correct": False, "exit": cp.returncode,
                "error": cp.stderr.strip()[-500:]}
    report = json.loads(lines[-2])["report"]
    res = json.loads(lines[-1])
    return {"seed": seed, "correct": res["correct"],
            "attempted": res["attempted"], "failed": res["failed"],
            "src_sha256": report["env"]["src_sha256"],
            "values": {k: m["value"] for k, m in res["metrics"].items()}}


def summarize(runs: dict, better: dict) -> dict:
    out = {}
    for name, lower in better.items():
        vals = {s: [r["values"][name] for r in runs[s] if "values" in r]
                for s in SIDES}
        if min(len(v) for v in vals.values()) < 2:
            continue
        row = {}
        for s in SIDES:
            q1, med, q3 = statistics.quantiles(vals[s], n=4,
                                               method="inclusive")
            row[s] = {"median": med, "q1": q1, "q3": q3}
        wins = {"change": 0, "parent": 0}
        for rp, rc in zip(runs["parent"], runs["change"]):
            if "values" in rp and "values" in rc:
                p, c = rp["values"][name], rc["values"][name]
                if p != c:
                    wins["change" if (c < p) == lower else "parent"] += 1
        row["pairs_won"] = wins
        row["median_gap"] = abs(row["change"]["median"]
                                - row["parent"]["median"])
        row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    work.mkdir(parents=True, exist_ok=True)
    trees = {s: checkout(shas[s], work / f"{s}-{shas[s][:10]}")
             for s in SIDES}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    result = {"tag": args.tag, "sha": shas, "seconds": seconds,
              "pairs": PAIRS,
              "seeds": [args.seed + i for i in range(PAIRS)],
              "host": {"machine": platform.machine(),
                       "nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
              "workloads": {}}
    out_path = ROOT / f"BENCH_{args.tag}.json"
    failed = []
    for w in (w["name"] for w in spec["workloads"]):
        runs = {s: [] for s in SIDES}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for s in order:
                cal = calibrate()
                run = run_once(trees[s], w, args.seed + i, seconds)
                runs[s].append(run | {"calibration_s": cal})
                label = f"{w} pair {i} {s}"
                if "exit" in run or not run["correct"]:
                    failed.append(label)
                    print(f"{label}: FAILED, exit {run.get('exit', 0)}, "
                          f"correct {run['correct']}\n"
                          f"{run.get('error', '')}", file=sys.stderr,
                          flush=True)
                else:
                    print(f"{label}: {run['values']}", file=sys.stderr,
                          flush=True)
        result["workloads"][w] = {
            "summary": summarize(runs, better),
            "calibration_s": {s: statistics.median(
                r["calibration_s"] for r in runs[s]) for s in SIDES},
            "runs": runs}
        # written after every workload, so a stopped run keeps what it has
        out_path.write_text(json.dumps(result, indent=1) + "\n")
    if failed:
        print(f"{len(failed)} failed runs: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
