"""The three workloads: their corpus, their jobs, and what a correct result is.

A job is one game in `orders-lp` and `orders-pure`, and one command (or one
trace verification) in `cli-check`.  Every job is a pair `(run, judge)`: only
`run()` is timed, and `judge(raw)` turns its result into `(ok, out)`.  `ok`
says whether the result meets the invariants that hold on any seed, and `out`
is a short, JSON-serialisable digest of the result that is compared with the
committed expected outputs on the default seed.

Only the generated games (or the game files written from them) reach the
program.  The benchmark calls it through module attributes, never names bound
at import time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from itertools import combinations

from domelim import cli, dominance, gamefile, generate, reduction, tracedoc
from domelim.game import BeliefMode

DEFAULT_SEED = 2024

# Per workload: two-player games of each of the nine shapes (2x2 .. 4x4), and
# three-player (3x3x3) games.  A job's cost depends mostly on its game's
# shape, so a fixed count per shape keeps the mix, and with it the latency
# percentiles, the same from seed to seed; a plain `game_suite` draw lets the
# median job move by a fifth between seeds.  Within a shape the work still
# varies from game to game (a 3-player `check --property monotonic` takes from
# 0.1 s to 1.6 s), so each corpus is as large as keeps one pass well inside a
# 30-second run: `orders-lp` at about 0.1 s a game has 202 games, `cli-check`
# has 745 jobs, and `orders-pure` at a few ms a game has 992 games.
CORPUS = {
    "orders-lp": (18, 40),
    "orders-pure": (88, 200),
    "cli-check": (22, 50),
}
SHAPES_2P = [(a, b) for a in range(2, 5) for b in range(2, 5)]


# The six LP-backed relations; independent-mixed beliefs only on 2 players.
LP_RELATIONS = (
    ("strict-mixed", "pure"),
    ("global-strict-mixed", "pure"),
    ("nbr", "correlated"),
    ("global-nbr", "correlated"),
    ("nbr", "mixed"),
    ("global-nbr", "mixed"),
)

# The five LP-free relations and their ten pairwise intersections.
_PURE_BASE = ("strict-pure", "global-strict-pure", "nbr", "global-nbr", "inherent")
PURE_RELATIONS = tuple((name, "pure") for name in _PURE_BASE) + tuple(
    (f"{a},{b}", "pure") for a, b in combinations(_PURE_BASE, 2)
)

# Relations the CLI jobs cycle over.  Monotonicity holds for the global
# relations; the local ones may violate it (exit 4), which is the paper's
# counterexample and not a failure.
CLI_RELATIONS = (
    ("strict-pure", "pure"),
    ("global-strict-pure", "pure"),
    ("strict-mixed", "pure"),
    ("global-strict-mixed", "pure"),
    ("nbr", "pure"),
    ("global-nbr", "pure"),
    ("nbr", "correlated"),
    ("global-nbr", "correlated"),
    ("inherent", "pure"),
)
NON_MONOTONIC = {"strict-pure", "strict-mixed", "nbr", "inherent"}
POLICIES = ("fastest", "single-lex", "single-random")
PROPERTIES = ("hereditary", "proof-shape", "monotonic")
ARS_ARGV = ["ars", "--nodes", "12", "--edge-prob", "1/4", "--samples", "500", "--seed", "7"]


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def n_games(workload: str) -> int:
    per_shape, n3 = CORPUS[workload]
    return per_shape * len(SHAPES_2P) + n3


def corpus(workload: str, seed: int):
    """The first `per_shape` games of each two-player shape drawn by
    `game_suite(seed, ...)`, in drawn order, then its three-player games."""
    per_shape, n3 = CORPUS[workload]
    pool = generate.game_suite(seed, 40 * per_shape, n3)
    taken = {shape: 0 for shape in SHAPES_2P}
    games = []
    for g in pool[: len(pool) - n3]:
        if taken[g.sizes] < per_shape:
            taken[g.sizes] += 1
            games.append(g)
    if len(games) != per_shape * len(SHAPES_2P):
        raise RuntimeError(f"seed {seed} draws too few games of some shape: {taken}")
    return games + pool[len(pool) - n3:]


# ---------------------------------------------------------------------------
# orders-lp and orders-pure


def orders_run(game, relations):
    out = []
    for name, beliefs in relations:
        if beliefs == "mixed" and game.n != 2:
            continue
        out.append(reduction.all_outcomes(dominance.parse_relation(name, BeliefMode(beliefs)), game))
    return out


def orders_judge(searches):
    """ok iff every search is complete with exactly one outcome (order
    independence, the paper's criterion 1)."""
    ok = all(s.complete and len(s.outcomes) == 1 for s in searches)
    out = [
        digest([s.complete, sorted([list(map(list, r.kept)) for r in s.outcomes])])
        for s in searches
    ]
    return ok, out


def orders_jobs(workload: str, games):
    relations = LP_RELATIONS if workload == "orders-lp" else PURE_RELATIONS
    return [(lambda g=g: orders_run(g, relations), orders_judge) for g in games]


# ---------------------------------------------------------------------------
# cli-check


def game_path(workdir: str, k: int) -> str:
    return os.path.join(workdir, f"game-{k}.game")


def trace_path(workdir: str, k: int) -> str:
    return os.path.join(workdir, f"trace-{k}.json")


def write_game_files(workdir: str, games) -> None:
    os.makedirs(workdir, exist_ok=True)
    for k, g in enumerate(games):
        with open(game_path(workdir, k), "w", encoding="utf-8") as fh:
            fh.write(gamefile.write_game(g))


def _relation_args(k: int) -> list[str]:
    name, beliefs = CLI_RELATIONS[k % len(CLI_RELATIONS)]
    return ["--relation", name, "--beliefs", beliefs]


def cli_plan(workdir: str, n_games: int) -> list[tuple[str, list[str]]]:
    """Per game a `reduce --trace` and a `check`, then one `ars`.

    Relation, policy and property cycle with the game index so that every
    (relation, policy) and (relation, property) pair occurs.
    """
    plan = []
    for k in range(n_games):
        cycle = k // len(CLI_RELATIONS)
        policy = POLICIES[cycle % len(POLICIES)]
        prop = PROPERTIES[cycle % len(PROPERTIES)]
        path = game_path(workdir, k)
        plan.append(("reduce", ["reduce", path, *_relation_args(k), "--policy", policy,
                                "--seed", str(k), "--trace", trace_path(workdir, k)]))
        plan.append(("check", ["check", path, "--property", prop, *_relation_args(k)]))
    plan.append(("ars", list(ARS_ARGV)))
    return plan


def _allowed_exits(kind: str, argv: list[str]) -> set[int]:
    if kind == "check" and argv[argv.index("--property") + 1] == "monotonic":
        if argv[argv.index("--relation") + 1] in NON_MONOTONIC:
            return {0, 4}
    return {0}


def cli_run(argv: list[str]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def cli_judge(kind: str, argv: list[str], raw):
    code, stdout = raw
    out = [code, digest(stdout)]
    if kind == "reduce":
        with open(argv[argv.index("--trace") + 1], "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest()[:16])
    return code in _allowed_exits(kind, argv), out


def cli_jobs(workdir: str, n_games: int):
    return [
        (lambda argv=argv: cli_run(argv), lambda raw, kind=kind, argv=argv: cli_judge(kind, argv, raw))
        for kind, argv in cli_plan(workdir, n_games)
    ]


def verify_run(workdir: str, k: int) -> None:
    """Re-check trace k against its game file; raises on any defect."""
    with open(game_path(workdir, k), encoding="utf-8") as fh:
        game = gamefile.parse_game(fh.read())
    with open(trace_path(workdir, k), encoding="utf-8") as fh:
        doc = json.load(fh)
    tracedoc.verify_trace_document(doc, game)


def verify_jobs(workdir: str, n_games: int):
    return [(lambda k=k: verify_run(workdir, k), lambda _: (True, ["verified"])) for k in range(n_games)]
