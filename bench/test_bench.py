"""Self-checks of the benchmark itself.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py

They run small job subsets of the seed-2024 corpus in fresh interpreters,
the way run.py does, and take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
# A few two-player games and the first three-player game of each corpus.
SUBSETS = {
    w: [0, 1, 2, workloads.n_games(w) - workloads.CORPUS[w][1]] for w in ("orders-lp", "orders-pure")
}
# reduce and check on games 0..9, which covers every CLI relation, then ars.
SUBSETS["cli-check"] = list(range(20)) + [2 * workloads.n_games("cli-check")]


def traced_pass(workload: str, tag: str) -> dict:
    return run.run_pass(workload, SEED, True, tag, time.perf_counter() + 120, SUBSETS[workload])


@pytest.fixture(scope="module")
def traced():
    """Two traced passes per workload, each in fresh interpreters."""
    return {w: [traced_pass(w, f"test{k}") for k in range(2)] for w in run.WORKLOADS}


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_install_replaces_every_by_name_reference():
    import domelim.cli  # noqa: F401  (imports every layer)

    modules = tracer.domelim_modules()
    targets = [(m, f) for m, f, _ in tracer.SPANS + tracer.GENERATOR_SPANS] + [("lp", "_pivot")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    originals = {(m, f): getattr(by_name[m], f) for m, f in targets}
    t = tracer.Tracer()
    replaced = t.install()
    try:
        for (m, f), original in originals.items():
            holders = [mod.__name__ for mod in modules for v in vars(mod).values() if v is original]
            assert holders == [], f"{m}.{f} still unwrapped in {holders}"
        # The by-name imports the issue names: lp oracles in dominance,
        # dominated_set/is_dominated in reduction, reduction entry points in cli.
        assert by_name["dominance"].max_min_advantage is not originals[("lp", "max_min_advantage")]
        assert replaced["dominance.is_dominated"] >= 3  # dominance, reduction, package
        assert replaced["reduction.all_outcomes"] >= 3  # reduction, cli, package
    finally:
        t.uninstall()
    for (m, f), original in originals.items():
        assert getattr(by_name[m], f) is original


def test_lp_layer_runs_only_on_orders_lp(traced):
    lp_calls = {w: run.per_layer(p[0]["trace"])["lp.solve.calls"] for w, p in traced.items()}
    assert lp_calls["orders-lp"] > 0
    assert lp_calls["orders-pure"] == 0
    assert lp_calls["cli-check"] > 0


def test_counters_repeat_exactly_across_traced_runs(traced):
    for workload, (first, second) in traced.items():
        a, b = run.per_layer(first["trace"]), run.per_layer(second["trace"])
        units = dict((name, unit) for name, unit, _ in run.PER_LAYER)
        counts = {k: v for k, v in a.items() if units[k] != "s"}
        assert counts == {k: b[k] for k in counts}, workload
        assert a["game.Game.hash.calls"] > 0


def test_self_times_account_for_each_job_wall_time(traced):
    for workload, passes in traced.items():
        for p in passes:
            assert p["trace"]["self_sum_error_s"] < 1e-6, workload


def test_outputs_match_the_recorded_seed_2024_results(traced):
    for workload, passes in traced.items():
        expected = run.load_expected(workload, SEED)
        for p in passes:
            assert all(ok for ok, _ in p["results"])
            assert run.count_failed(p, expected, SUBSETS[workload], workload) == 0


def test_scaling_cancels_a_machine_slowdown():
    lat, kernel = [10.0, 20.0, 30.0, 40.0, 50.0], [1.0, 1.0, 1.25, 1.0, 1.0]
    scaled = calibration.scale(lat, kernel, half_window=1)
    assert scaled == pytest.approx(lat)  # a lone slow sample is outvoted
    halved = calibration.scale([2 * x for x in lat], [2 * x for x in kernel], half_window=1)
    assert halved == pytest.approx(scaled)


def test_a_wrong_output_counts_as_failed(traced):
    p = traced["orders-pure"][0]
    expected = run.load_expected("orders-pure", SEED)
    tampered = dict(p, results=[[True, ["0" * 16]]] + p["results"][1:])
    assert run.count_failed(tampered, expected, SUBSETS["orders-pure"], "orders-pure") == 1


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: exit non-zero and print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orders-pure", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
