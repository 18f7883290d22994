"""One repetition of a workload, in a fresh interpreter.

Started by run.py with a JSON spec as its only argument.  It sets up (imports,
corpus generation, game-file writes), prints `ready`, runs its jobs one after
another in this single thread, and prints one JSON line with the per-job
latencies, the calibration kernel's time after each job, judged results, busy
time, peak RSS and, when traced, the span aggregates.

Roles:
  setup    set up and exit (a set-up time sample)
  orders   the jobs of orders-lp or orders-pure
  cli      the cli-check commands; writes game files and traces
  verify   re-checks the traces the `cli` role wrote, in another process
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import calibration
import workloads


def _setup(spec: dict):
    workload, role, workdir = spec["workload"], spec["role"], spec["workdir"]
    if role == "verify":
        return workloads.verify_jobs(workdir, workloads.n_games(workload))
    games = workloads.corpus(workload, spec["seed"])
    if workload == "cli-check":
        workloads.write_game_files(workdir, games)
        return workloads.cli_jobs(workdir, len(games))
    return workloads.orders_jobs(workload, games)


def main() -> int:
    spec = json.loads(sys.argv[1])
    jobs = _setup(spec)
    print("ready", flush=True)
    if spec["role"] == "setup":
        return 0
    selected = spec.get("jobs")
    if selected is not None:
        jobs = [jobs[k] for k in selected]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first_job = spec.get("first_job", 0)
    latencies, kernel_ms, raws, errors = [], [], [], []
    t_begin = time.perf_counter()
    for k, (run, _judge) in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(first_job + k)
        t0 = time.perf_counter()
        try:
            raws.append(run())
            errors.append(None)
        except Exception as exc:  # a failed job is counted, not fatal
            raws.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append((time.perf_counter() - t0) * 1e3)
        if tracer is not None:
            tracer.finish_job()
        kernel_ms.append(calibration.sample_ms())
    busy_s = time.perf_counter() - t_begin - sum(kernel_ms) / 1e3

    results = []
    for (_run, judge), raw, error in zip(jobs, raws, errors):
        if error is not None:
            results.append([False, ["error", error]])
            continue
        try:
            ok, out = judge(raw)
        except Exception as exc:
            ok, out = False, ["error", f"{type(exc).__name__}: {exc}"]
        results.append([ok, out])

    report = {
        "lat_ms": latencies,
        "kernel_ms": kernel_ms,
        "busy_s": busy_s,
        "results": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.aggregate()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
