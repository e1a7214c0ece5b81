"""Benchmark for cspace: one closed-loop client on one thread.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload categories --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout.  The client sends
its next job only when the previous one has returned, checks each answer
between jobs (outside the timed call) and stops at the first round
boundary after ``--seconds`` once it has run at least ``MIN_JOBS`` jobs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop first, then runs its first rounds again (the shortest prefix of
whole rounds with ``MIN_JOBS`` jobs) with spans around the package's
public functions, and prints the per-layer metrics plus the tracing
overhead on that prefix.  The last line of standard output is one
JSON object; the exit code is 0 only when every job was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUPS = 5
MIN_JOBS = 100
# A run that has not reached a round boundary this long after --seconds
# stops anyway, so that it ends within its time limit on a slow machine.
OVERRUN_S = 40.0
GOLDENS = os.path.join(HERE, "goldens.json")


class Outcome:
    """Per-job timings and failures of one closed loop."""

    def __init__(self) -> None:
        self.rounds: list[int] = []
        self.seconds: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.golden_checked = 0

    def jobs_per_s(self, rounds) -> float:
        """Jobs per second of busy time over the given rounds."""
        times = [t for r, t in zip(self.rounds, self.seconds) if r in rounds]
        return len(times) / sum(times)


def closed_loop(ws, goldens: dict, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    began = time.perf_counter()
    index = 0
    while True:
        round_jobs = wl.make_round(ws.workload, ws.seed, index)
        ws.prepare_round(index, round_jobs)
        for job in round_jobs:
            call = jobs.bind(ws, job)
            if tracer is not None:
                tracer.begin_job(len(out.seconds))
            t0 = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as err:  # a failed job is counted, the loop goes on
                result, error = None, f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            out.rounds.append(index)
            out.seconds.append(elapsed)
            found = [error] if error else check(ws, job, result, goldens, out)
            out.failed += bool(found)
            out.failures += [f"{wl.job_id(job)} {job['kind']}: {f}" for f in found]
        index += 1
        wall = time.perf_counter() - began
        if (wall >= seconds and len(out.seconds) >= MIN_JOBS) or wall >= seconds + OVERRUN_S:
            return out


def check(ws, job: dict, result, goldens: dict, out: Outcome) -> list[str]:
    found = jobs.problems(ws, job, result)
    want = goldens.get(wl.job_id(job))
    if want is not None:
        out.golden_checked += 1
        if jobs.digest(jobs.canonical(ws, job, result)) != want:
            found.append("answer digest differs from the golden digest")
    return found


def setup(root: str, workload: str, seed: int, workdir: str):
    """Import, build, write documents and warm up; the last set-up is kept."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ws = jobs.Workspace(jobs.import_fresh(root), workload, seed, workdir)
        ws.build()
        ws.warm_up()
        times.append(time.perf_counter() - t0)
    return ws, times


def end_to_end(setup_times: list[float], out: Outcome) -> dict:
    times = out.seconds
    return {
        "setup_s": statistics.median(setup_times),
        # the median round resists a burst of load from outside the process
        "jobs_per_s": statistics.median(out.jobs_per_s({r}) for r in set(out.rounds)),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": out.failed / len(times),
    }


def run(args, root: str, workdir: str) -> int:
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)[args.workload]
    ws, setup_times = setup(root, args.workload, args.seed, workdir)
    out = closed_loop(ws, goldens, args.seconds)
    e2e = end_to_end(setup_times, out)
    units, names = _metric_spec()
    failures, failed = list(out.failures), out.failed
    attempted = len(out.seconds)
    beyond = attempted - int(0.9 * attempted)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs in {max(out.rounds) + 1} rounds, "
          f"{out.golden_checked} checked against golden digests; "
          f"job_p90_s over {attempted} samples ({beyond} beyond it)")
    print("  " + "  ".join(f"{k} {v:.6g} {units.get(k, 'ratio')}" for k, v in e2e.items()))

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # the shortest prefix of whole rounds that holds MIN_JOBS jobs
            traced = closed_loop(ws, goldens, 0.0, tracer=tracer)
        finally:
            tracer.uninstall()
        failures += traced.failures
        failed += traced.failed
        attempted += len(traced.seconds)
        metrics, ranking = tracer.analyse()
        prefix = set(traced.rounds)
        untraced, with_spans = out.jobs_per_s(prefix), traced.jobs_per_s(prefix)
        metrics.update({
            "trace.jobs": len(traced.seconds),
            "trace.untraced_jobs_per_s": untraced,
            "trace.traced_jobs_per_s": with_spans,
            "trace.overhead_jobs_per_s": untraced - with_spans,
            "trace.overhead_ratio": (untraced - with_spans) / untraced,
        })
        trace_dir = os.path.join(root, ".bench_work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}.spans"))
        print(f"traced rounds 0-{max(prefix)}: {len(traced.seconds)} jobs, "
              f"{metrics['trace.spans']} spans; "
              f"self time ranking:")
        for name, secs in ranking[:8]:
            print(f"  {name:36s} {secs:10.4f} s")
        values, kind = metrics, "per_layer"
    else:
        values, kind = e2e, "end_to_end"
    report = {name: {"value": values[name], "unit": units[name]} for name in names[kind]}

    for f in failures[:10]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if not failed else 1


def _metric_spec() -> tuple[dict, dict]:
    """Units by metric name, and metric names by kind, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}
    units = {m["name"]: m["unit"] for kind in names for m in spec[kind]}
    return units, names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "cspace", "__init__.py")):
        print("benchmark: no package source at src/cspace in this checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
