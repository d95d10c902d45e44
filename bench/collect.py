"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py [--workloads corpus lcs-grid] [--seeds 1-10] \
        [--seconds S] [--trace 0] [--baseline LABEL]

Runs bench/run.py once per (workload, seed), one process at a time, and
prints for every metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
With ``--baseline LABEL`` the summary is appended, with the git SHA,
Python version and nproc of the runs, to bench/baseline.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    meta = json.loads(lines[-2][len("meta "):])
    return json.loads(lines[-1]), meta


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values),
        }
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    run_seconds = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="LABEL")
    args = parser.parse_args()

    summary, meta = {}, {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result, meta = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} jobs failed")
            results.append(result)
            print(f"{workload} seed {seed} host.ref_s {meta['host.ref_s']:.4f} "
                  + json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                  flush=True)
        summary[workload] = summarise(results)
        for name, s in summary[workload].items():
            print(f"{workload:11s} {name:30s} median {s['median']:14.6f} {s['unit']:6s}"
                  f" q1 {s['q1']:14.6f} q3 {s['q3']:14.6f} spread {s['spread']:.4f}", flush=True)

    if args.baseline:
        entries = json.loads(BASELINE.read_text()) if BASELINE.exists() else []
        entries.append({
            "label": args.baseline,
            "date": datetime.date.today().isoformat(),
            "git_sha": meta["git_sha"], "python": meta["python"], "nproc": meta["nproc"],
            "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
            "workloads": summary,
        })
        BASELINE.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
