"""braidkit benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): corpus, lcs-grid, hom-census, cli-cold.
Each is a closed loop with one client: the next job starts when the last
one returns, and passes over the job list repeat until ``--seconds`` have
passed and at least 100 job latencies are pooled.  Metric names and
units are read from BENCHMARK.json.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
fresh processes that import braidkit and build the inputs, started
between jobs throughout the run), median pass time, pooled job latency
p50 and p90, peak RSS.
``--trace 1`` spends half the time untraced and half with the outside-in
wrappers of tracer.py installed, and prints the per-layer metrics: the
cost of one traced set-up plus the median traced pass.

Every job's output is compared with bench/expected.json; a mismatch or
exception counts as failed.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it
("meta ...") records the git SHA, Python version, nproc, seed and the
host probe host.ref_s (diagnostic only, never used to rescale).  The
exit code is 0 only when every output matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, combine, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
MIN_SAMPLES = 100
SETUP_SHARE = 0.1  # share of an untraced run spent in set-up processes
MIN_SETUP = 7
PROBE_REPEATS = 5
EXTRA_UNITS = {"fail_ratio": "ratio", "job_samples": "count"}  # printed, not declared


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program() -> None:
    """Import braidkit from this checkout's src/, and nowhere else."""
    package = workloads.SRC / "braidkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(workloads.SRC))
    import braidkit

    if Path(braidkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported braidkit from {braidkit.__file__}, not {package}")


def host_ref_s() -> float:
    """Time of a fixed pure-Python loop: a probe of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_passes(jobs, expected, budget_s, min_samples, tracer=None, between=None):
    """Whole passes until budget_s has passed and min_samples job
    latencies are pooled.  between() runs after each job, outside every
    timing, so a pass's time is the sum of its job latencies.
    Returns pass times, (job id, ms) samples, per-pass layer metrics
    (traced only), and the ids that failed."""
    passes, samples, layers, failed = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        outputs, pass_s = [], 0.0
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = tracer.run("bench.job", job.run) if tracer else job.run()
            except Exception as exc:  # a failing job is counted, never fatal
                out = f"raised {type(exc).__name__}: {exc}"
            took = time.perf_counter() - t0
            pass_s += took
            samples.append((job.id, took * 1e3))
            outputs.append(out)
            if between:
                between()
        passes.append(pass_s)
        if tracer:
            layers.append(layer_metrics(tracer.spans, tracer.counts))
        for job, out in zip(jobs, outputs):
            if job.id not in expected or workloads.canonical(out) != workloads.canonical(expected[job.id]):
                failed.append(job.id)
        if time.perf_counter() - start >= budget_s and len(samples) >= min_samples:
            return passes, samples, layers, failed


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its first job can be issued."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running code."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(),
                       check=True, timeout=120)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of the harness or of any process it started (census
    workers, CLI and set-up processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def untraced(args, expected):
    # set-up is measured in fresh processes started between jobs whenever
    # they have had less than SETUP_SHARE of the run, so that they sample
    # the host's speed across the whole run
    setup, start = [], time.perf_counter()

    def probe_setup():
        if sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
            setup.append(measure_setup(args.workload, args.seed))

    jobs = workloads.prepared(args.workload, args.seed)
    passes, samples, _, failed = run_passes(
        jobs, expected, args.seconds, MIN_SAMPLES, between=probe_setup
    )
    while len(setup) < MIN_SETUP:
        setup.append(measure_setup(args.workload, args.seed))
    ms = [t for _, t in samples]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(passes),
        "job_ms.p50": statistics.median(ms),
        "job_ms.p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, len(samples), len(passes), failed, len(setup)


def traced(args, expected):
    tracer = Tracer()
    with tracer:
        jobs = workloads.prepared(args.workload, args.seed)
    setup = layer_metrics(tracer.spans, tracer.counts)
    half = args.seconds / 2
    plain, samples, _, failed = run_passes(jobs, expected, half, 0)
    with tracer:
        spanned, more, layers, failed_traced = run_passes(jobs, expected, half, 0, tracer)
    metrics = combine(setup, layers)
    job_ms = {}
    for jid, t in samples:
        job_ms.setdefault(jid, []).append(t)
    twin = workloads.SHARDED + "/workers2"
    metrics["homsearch.shard_speedup"] = (
        statistics.median(job_ms[workloads.SHARDED]) / statistics.median(job_ms[twin])
        if twin in job_ms else 0.0
    )
    metrics["cli.interpreter_ms"] = probe_ms("pass")
    metrics["cli.import_ms"] = probe_ms("import braidkit.cli")
    metrics["trace.pass_s"] = statistics.median(spanned)
    metrics["trace.overhead_ratio"] = statistics.median(spanned) / statistics.median(plain) - 1
    return metrics, len(samples) + len(more), len(plain) + len(spanned), failed + failed_traced, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.setup_only:
        workloads.prepared(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    ref = host_ref_s()
    units = declared_units(args.trace)
    expected = workloads.load_expected()[args.workload]
    measure = traced if args.trace else untraced
    metrics, attempted, passes, failed, setups = measure(args, expected)
    metrics = {name: metrics[name] for name in units}

    rates = {"fail_ratio": len(failed) / attempted, "job_samples": attempted}
    for name, value in {**metrics, **rates}.items():
        unit = units.get(name) or EXTRA_UNITS[name]
        print(f"{args.workload:11s} {name:30s} {value:>16.6f} {unit}")
    for jid in sorted(set(failed)):
        print(f"FAILED {jid}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "job_samples": attempted,
        "setup_processes": setups,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "host.ref_s": ref,
    }
    print("meta " + json.dumps(meta))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
