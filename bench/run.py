"""Layered benchmark for domelim.

    python3 bench/run.py                          # all workloads, seed 2024
    python3 bench/run.py --workload orders-lp --seed 7 --seconds 30
    python3 bench/run.py --workload orders-pure --trace 1   # per-layer metrics
    python3 bench/run.py --write-expected         # re-record seed-2024 outputs

A closed loop in one thread: each job starts when the previous one has
finished.  Every repetition (a pass over the workload's corpus) runs in a
fresh interpreter, so the program's process-global memo never carries over
from one pass to the next, and cli-check verifies its traces in a process that
did not write them.  Passes repeat until the next one would overrun
`--seconds`; there is always at least one.  Timings are scaled to a reference
machine speed measured next to every job (see calibration.py).

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics, or with `--trace 1` the
per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected" / "seed-2024.json"

WORKLOADS = ("orders-lp", "orders-pure", "cli-check")
SETUP_PROBES = 7  # set-ups per run, so set-up time is a median
CAL_SAMPLES = 9  # kernel samples before and after each set-up probe
RUN_LIMIT_S = 170  # every child is killed past this, so a run ends within 180 s

# (name, unit, better); the end-to-end bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.self_s", "s", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.tableau_cells", "count", "lower"),
    ("lp.max_min_advantage.calls", "count", "lower"),
    ("lp.max_min_advantage.self_s", "s", "lower"),
    ("lp.max_min_advantage.positive_share", "frac", "higher"),
    ("lp.best_response_feasible.calls", "count", "lower"),
    ("lp.best_response_feasible.self_s", "s", "lower"),
    ("lp.best_response_feasible.witness_share", "frac", "higher"),
    ("lp.oracle.pure_witness_share", "frac", "higher"),
    ("dominance.dominated_set.calls", "count", "lower"),
    ("dominance.dominated_set.distinct", "count", "lower"),
    ("dominance.dominated_set.self_s", "s", "lower"),
    ("dominance.is_dominated.calls", "count", "lower"),
    ("dominance.is_dominated.self_s", "s", "lower"),
    ("dominance.is_inherently_dominated.calls", "count", "lower"),
    ("dominance.is_inherently_dominated.self_s", "s", "lower"),
    ("dominance.verify_certificate.calls", "count", "lower"),
    ("dominance.verify_certificate.self_s", "s", "lower"),
    ("game.Game.hash.calls", "count", "lower"),
    ("game.Game.hash.self_s", "s", "lower"),
    ("reduction.all_outcomes.calls", "count", "lower"),
    ("reduction.all_outcomes.self_s", "s", "lower"),
    ("reduction.restrictions_explored", "count", "lower"),
    ("reduction.normal_form.calls", "count", "lower"),
    ("reduction.normal_form.self_s", "s", "lower"),
    ("reduction.reachable_steps.steps", "count", "lower"),
    ("reduction.reachable_steps.self_s", "s", "lower"),
    ("reduction.check.calls", "count", "lower"),
    ("reduction.check.self_s", "s", "lower"),
    ("tracedoc.dump_trace.calls", "count", "lower"),
    ("tracedoc.dump_trace.self_s", "s", "lower"),
    ("tracedoc.dump_trace.bytes", "bytes", "lower"),
    ("tracedoc.verify_trace_document.calls", "count", "lower"),
    ("tracedoc.verify_trace_document.self_s", "s", "lower"),
    ("gamefile.parse_game.calls", "count", "lower"),
    ("gamefile.parse_game.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("ars.newman_experiment.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Shares: (metric, numerator counter, denominator counter or span calls).
SHARES = (
    ("lp.max_min_advantage.positive_share", "lp.max_min_advantage.positive", "lp.max_min_advantage.calls"),
    ("lp.best_response_feasible.witness_share", "lp.best_response_feasible.witness", "lp.best_response_feasible.calls"),
    ("lp.oracle.pure_witness_share", "lp.oracle.pure_witness", "lp.oracle.lp_calls"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes


def _spawn(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to `ready`, its report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {spec['role']} overran the {RUN_LIMIT_S} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {spec['role']} failed with exit code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1]) if spec["role"] != "setup" else {}
    return setup_s, report


def _merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    for t in traces:
        for name, (calls, self_s) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {
        "spans": spans,
        "counts": counts,
        "self_sum_error_s": max(t["self_sum_error_s"] for t in traces),
    }


def run_pass(workload: str, seed: int, trace: bool, tag: str, deadline: float,
             jobs: list[int] | None = None) -> dict:
    """One repetition: fresh interpreter(s), the whole corpus (or `jobs`)."""
    workdir = OUT / "work" / f"{workload}-s{seed}-{os.getpid()}-{tag}"
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    base = {"workload": workload, "seed": seed, "trace": trace, "workdir": str(workdir)}
    t0 = time.perf_counter()
    try:
        roles = ["orders"]
        if workload == "cli-check":
            roles = ["cli", "verify"]
        reports, first_setup, first_job = [], None, 0
        for role in roles:
            spec = dict(base, role=role, first_job=first_job)
            if trace:
                spec["spans_path"] = str(spans_dir / f"{workload}-s{seed}-{tag}-{role}.tsv.gz")
            if jobs is not None:
                spec["jobs"] = _verified_games(workload, jobs) if role == "verify" else jobs
            setup_s, report = _spawn(spec, deadline)
            first_setup = setup_s if first_setup is None else first_setup
            first_job += len(report["lat_ms"])
            reports.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "wall_s": time.perf_counter() - t0,
        "setup_s": first_setup,
        "busy_s": sum(r["busy_s"] for r in reports),
        "lat_ms": [x for r in reports for x in r["lat_ms"]],
        "scaled_ms": [x for r in reports for x in calibration.scale(r["lat_ms"], r["kernel_ms"])],
        "kernel_ms": [x for r in reports for x in r["kernel_ms"]],
        "results": [x for r in reports for x in r["results"]],
        "rss_mb": max(r["rss_mb"] for r in reports),
        "trace": _merge_traces([r["trace"] for r in reports]) if trace else None,
    }


def _verified_games(workload: str, jobs: list[int]) -> list[int]:
    """Games whose trace a `jobs` subset of the cli-check plan writes: the
    plan holds a reduce and a check per game, then ars."""
    import workloads  # needs src/ on the path, which main() adds

    return [k // 2 for k in jobs if k % 2 == 0 and k // 2 < workloads.n_games(workload)]


# ---------------------------------------------------------------------------
# Correctness


def load_expected(workload: str, seed: int):
    """Expected `out` per job on the default seed, else None (invariants only)."""
    import workloads

    if seed != workloads.DEFAULT_SEED:
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        doc = json.load(fh)[workload]
    if tuple(doc["corpus"]) != workloads.CORPUS[workload]:
        raise BenchError(f"{EXPECTED.name} was recorded for another {workload} corpus size")
    return doc["jobs"]


def count_failed(p: dict, expected, jobs: list[int] | None, workload: str) -> int:
    """Jobs that raised, broke an invariant or differ from the expected output."""
    import workloads

    if expected is not None and jobs is not None:
        idx = list(jobs)
        if workload == "cli-check":
            first_verify = 2 * workloads.n_games(workload) + 1  # after each reduce, check and ars
            idx += [first_verify + k for k in _verified_games(workload, jobs)]
        expected = [expected[k] for k in idx]
    failed = 0
    for k, (ok, out) in enumerate(p["results"]):
        if not ok or (expected is not None and (k >= len(expected) or out != expected[k])):
            failed += 1
    if expected is not None and len(p["results"]) != len(expected):
        failed += abs(len(expected) - len(p["results"]))
    return failed


# ---------------------------------------------------------------------------
# Metrics


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


def timings(lat_ms: list[float]) -> dict:
    """Throughput follows from the closed loop: jobs over summed latencies."""
    return {
        "jobs_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p95_ms": _p95(lat_ms),
    }


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Timings over every job of every pass, scaled to the reference speed
    (see calibration.py); `setups` are scaled set-up times."""
    return {
        "setup_s": statistics.median(setups),
        **timings([x for p in passes for x in p["scaled_ms"]]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(trace: dict) -> dict:
    """Per-layer values of one traced pass (overhead is added by the caller).

    A layer the workload never reaches reads 0; a metric whose hook the
    program no longer offers (such as `lp._pivot`) is absent.  A share with
    no calls under it reads 0.
    """
    values: dict[str, float] = {}
    for name, (calls, self_s) in trace["spans"].items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    values.update(trace["counts"])
    for metric, num, den in SHARES:
        if num in values and den in values:
            values[metric] = values[num] / values[den] if values[den] else 0.0
    return {name: values[name] for name, _, _ in PER_LAYER if name in values}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# Runs


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    expected = load_expected(workload, seed)
    spans_dir = OUT / "spans"
    for old in spans_dir.glob(f"{workload}-s{seed}-*"):
        old.unlink()

    setups: list[float] = []  # as measured
    scaled_setups: list[float] = []  # at the reference speed
    if not trace:
        for k in range(SETUP_PROBES):
            workdir = OUT / "work" / f"{workload}-s{seed}-{os.getpid()}-setup{k}"
            spec = {"workload": workload, "seed": seed, "trace": False,
                    "workdir": str(workdir), "role": "setup"}
            try:
                before = calibration.median_ms(CAL_SAMPLES)
                setups.append(_spawn(spec, deadline)[0])
                after = calibration.median_ms(CAL_SAMPLES)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            scaled_setups.append(setups[-1] * calibration.REF_MS / ((before + after) / 2))

    window_end = time.perf_counter() + seconds
    passes: list[dict] = []   # untraced
    traced: list[dict] = []
    last = 0.0
    while not passes or time.perf_counter() + last <= window_end:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, False, f"p{len(passes)}", deadline))
        if trace:
            traced.append(run_pass(workload, seed, True, f"t{len(traced)}", deadline))
        last = time.perf_counter() - t0

    every = passes + traced
    attempted = sum(len(p["results"]) for p in every)
    failed = sum(count_failed(p, expected, None, workload) for p in every)
    notes = []
    if trace:
        layers = [per_layer(p["trace"]) for p in traced]
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac" or name not in layers[0]:
                continue
            vals = [m[name] for m in layers]
            if unit == "s":
                metrics[name] = statistics.median(vals)
            else:
                metrics[name] = vals[0]
                if any(v != vals[0] for v in vals):
                    notes.append(f"{name} differs between traced passes: {vals}")
        metrics["trace.overhead_frac"] = statistics.median(
            t["busy_s"] / p["busy_s"] - 1 for p, t in zip(passes, traced)
        )
        worst = max(p["trace"]["self_sum_error_s"] for p in traced)
        if worst > 1e-6:
            notes.append(f"summed self times miss a job's wall time by {worst:.3g} s")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(passes, scaled_setups)
        units = {name: unit for name, unit, _ in END_TO_END}

    import workloads

    unscaled = timings([x for p in passes for x in p["lat_ms"]])
    if setups:
        unscaled["setup_s"] = statistics.median(setups)
    jobs_per_pass = len(passes[0]["lat_ms"])
    pooled = [x for p in passes for x in p["scaled_ms"]]
    context = {
        "workload": workload,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "corpus_seed": seed,
        "corpus_2p_per_shape_3p": list(workloads.CORPUS[workload]),
        "corpus_games": workloads.n_games(workload),
        "jobs_per_pass": jobs_per_pass,
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "p95_samples_beyond": sum(x > _p95(pooled) for x in pooled),
        "kernel_median_ms": statistics.median(x for p in passes for x in p["kernel_ms"]),
        "unscaled": unscaled,
        "src_lines": src_lines(),
        "checked_against": "expected outputs" if expected is not None else "invariants",
        "run_s": time.perf_counter() - started,
    }
    return {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "context": context,
        "notes": notes,
    }


def print_report(result: dict) -> None:
    ctx = result["context"]
    print(f"== {ctx['workload']}  seed {ctx['corpus_seed']}  {ctx['corpus_games']} games"
          f"  {ctx['jobs_per_pass']} jobs x {ctx['passes']} passes"
          f"  (checked against {ctx['checked_against']})")
    for name, m in result["metrics"].items():
        extra = ""
        if name in ("job_p50_ms", "job_p95_ms"):
            extra = f"  ({ctx['jobs_per_pass']} jobs x {ctx['passes']} passes"
            extra += f"; {ctx['p95_samples_beyond']} beyond p95)" if name == "job_p95_ms" else ")"
        elif name == "setup_s":
            extra = f"  (median of {ctx['setup_samples']} set-ups)"
        if m["unit"] in ("s", "ms", "1/s") and not name.endswith("self_s"):
            extra = "  at reference speed" + extra
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<44} {frac:>14.6g} frac  ({result['failed']}/{result['attempted']} jobs)")
    for note in result["notes"]:
        print(f"  NOTE: {note}")
    print("  context: " + json.dumps(ctx, sort_keys=True))


def write_expected() -> None:
    """Record every job's output on the default seed from one pass each."""
    import workloads

    doc = {}
    for workload in WORKLOADS:
        p = run_pass(workload, workloads.DEFAULT_SEED, False, "expected",
                     time.perf_counter() + 600)
        bad = [k for k, (ok, _) in enumerate(p["results"]) if not ok]
        if bad:
            raise BenchError(f"{workload}: jobs {bad[:5]} break an invariant; not recording")
        doc[workload] = {"corpus": list(workloads.CORPUS[workload]),
                         "jobs": [out for _, out in p["results"]]}
        print(f"{workload}: {len(p['results'])} jobs recorded")
    EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=2024, help="corpus seed (default 2024)")
    parser.add_argument("--seconds", type=float, default=30, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record the seed-2024 expected outputs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "domelim" / "__init__.py").is_file():
        print(f"error: no domelim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.write_expected:
            write_expected()
            return 0
        results = {}
        for workload in [args.workload] if args.workload else WORKLOADS:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_report(results[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    for workload, result in results.items():
        path = OUT / f"result-{workload}-s{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    final = {w: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
             for w, r in results.items()}
    print(json.dumps(final[args.workload] if args.workload else final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
