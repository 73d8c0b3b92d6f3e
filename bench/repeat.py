#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarize each metric's spread.

Usage, from the repository root:

    python3 bench/repeat.py --seeds 1-10 [--workloads ops-wide ...]
                            [--trace 0] [--out bench/results/NAME.json]

Runs are sequential, one process at a time.  For every metric it reports
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, next to a third of the bound that
``BENCHMARK.json`` fixes for it.  ``--out`` keeps every run's values and printed lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *log, last = proc.stdout.strip().splitlines()
    return dict(json.loads(last), log=log)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                          "python": platform.python_version()},
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                             "values": values}
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
            third = "" if bound is None else f" (bound/3 {bound / 3:.3f})"
            print(f"  {name:42s} median {med:<12.6g} spread {spread:.4f}{third}{flag}")
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed": [r["failed"] for r in runs], "metrics": summary,
            "logs": {seed: r["log"] for seed, r in zip(args.seeds, runs)}}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
