"""Command-line surface: subcommands, output, and the exit-code contract."""

import functools
import json
import random

import pytest

from domelim import cli, reduction
from domelim.cli import main
from domelim.dominance import StrictPure
from domelim.errors import AssumptionViolated
from domelim.game import Restriction, restriction_leq
from domelim.gamefile import write_game
from domelim.generate import random_game
from domelim.tracedoc import verify_trace_document

from fixtures import G_BELIEF, G_MIX, G_PD, G_WEAK
from oracles import WeakPure

THREE_PLAYER = """\
players 3
labels 1: a b
labels 2: c d
labels 3: e f
payoffs
0 0 0
0 0 0
0 0 0
0 0 0
0 0 0
0 0 0
0 0 0
0 0 0
"""


@pytest.fixture
def pd_file(tmp_path):
    path = tmp_path / "g_pd.game"
    path.write_text(write_game(G_PD))
    return str(path)


@pytest.fixture
def mix_file(tmp_path):
    path = tmp_path / "g_mix.game"
    path.write_text(write_game(G_MIX))
    return str(path)


@pytest.fixture
def belief_file(tmp_path):
    path = tmp_path / "g_belief.game"
    path.write_text(write_game(G_BELIEF))
    return str(path)


class TestReduce:
    def test_pd_strict_pure(self, pd_file, capsys):
        code = main(["reduce", pd_file, "--relation", "strict-pure", "--policy", "fastest"])
        assert code == 0
        assert capsys.readouterr().out == "player 1: D\nplayer 2: D\n"

    def test_belief_nbr_correlated_keeps_everything(self, belief_file, capsys):
        code = main(["reduce", belief_file, "--relation", "nbr", "--beliefs", "correlated"])
        assert code == 0
        assert capsys.readouterr().out == "player 1: U M D\nplayer 2: L R\n"

    def test_trace_written_and_verifies(self, mix_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["reduce", mix_file, "--relation", "strict-mixed", "--trace", str(out)]
        )
        assert code == 0
        verify_trace_document(json.loads(out.read_text()), G_MIX)

    def test_trace_into_missing_directory(self, mix_file, tmp_path, capsys):
        out = tmp_path / "missing" / "trace.json"
        code = main(
            ["reduce", mix_file, "--relation", "strict-mixed", "--trace", str(out)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_three_player_mixed_beliefs_unsupported(self, tmp_path, capsys):
        path = tmp_path / "g3.game"
        path.write_text(THREE_PLAYER)
        code = main(["reduce", str(path), "--relation", "nbr", "--beliefs", "mixed"])
        assert code == 3

    def test_other_engine_error_exits_3(self, pd_file, monkeypatch, capsys):
        def violated(rel, r):
            raise AssumptionViolated("player 1 has no strict-pure-undominated strategy")

        monkeypatch.setattr(reduction, "dominated_set", violated)
        code = main(["reduce", pd_file, "--relation", "strict-pure"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: player 1 has no strict-pure-undominated strategy\n"
        assert captured.out == ""

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.game"
        path.write_text("players 2\nlabels 1: A\n")
        code = main(["reduce", str(path), "--relation", "strict-pure"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["reduce", "/nonexistent.game", "--relation", "strict-pure"]) == 2

    def test_unknown_relation(self, pd_file, capsys):
        assert main(["reduce", pd_file, "--relation", "bogus"]) == 2

    def test_usage_error(self, capsys):
        assert main(["reduce"]) == 2

    def test_byte_identical_runs(self, pd_file, capsys):
        main(["reduce", pd_file, "--relation", "strict-pure", "--policy", "single-random", "--seed", "5"])
        first = capsys.readouterr().out
        main(["reduce", pd_file, "--relation", "strict-pure", "--policy", "single-random", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestOrders:
    def test_single_outcome(self, mix_file, capsys):
        code = main(["orders", mix_file, "--relation", "strict-mixed"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "outcome 1:\nplayer 1: U D\nplayer 2: L R\n"

    def test_budget_overflow(self, pd_file, capsys):
        code = main(["orders", pd_file, "--relation", "strict-pure", "--budget", "1"])
        assert code == 5

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_a_usage_error(self, pd_file, budget, capsys):
        code = main(["orders", pd_file, "--relation", "strict-pure", "--budget", budget])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: argument --budget: must be at least 1, got {budget}\n"
        assert captured.out == ""

    def test_intersection_relation(self, pd_file, capsys):
        code = main(["orders", pd_file, "--relation", "strict-pure,inherent"])
        assert code == 0


class TestOrderDependentRelation:
    """`orders` and `check` on a relation that must fail: `cli._relation`
    is patched to return the test-only weak dominance `WeakPure`."""

    @pytest.fixture
    def weak_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_relation", lambda args: WeakPure())
        path = tmp_path / "g_weak.game"
        path.write_text(write_game(G_WEAK))
        return str(path)

    def test_orders_prints_both_outcomes(self, weak_file, capsys):
        assert main(["orders", weak_file, "--relation", "strict-pure"]) == 4
        assert capsys.readouterr().out == (
            "outcome 1:\nplayer 1: T B\nplayer 2: L\n"
            "outcome 2:\nplayer 1: B\nplayer 2: L\n"
        )

    def test_check_hereditary_finds_the_step(self, weak_file, capsys):
        code = main(["check", weak_file, "--property", "hereditary", "--relation", "strict-pure"])
        assert code == 4
        assert capsys.readouterr().out == (
            "hereditarity violation at step ((0, 1), (0, 1)) -> ((0, 1), (0,)): "
            "player 1 strategy 'T'\n"
        )


class TestCheck:
    def test_hereditary_on_file(self, pd_file, capsys):
        code = main(
            ["check", pd_file, "--property", "hereditary", "--relation", "strict-pure"]
        )
        assert code == 0

    def test_monotonic_global_random_games(self, capsys):
        code = main(
            [
                "check",
                "--random",
                "10",
                "--seed",
                "3",
                "--property",
                "monotonic",
                "--relation",
                "global-strict-pure",
            ]
        )
        assert code == 0

    def test_monotonic_strict_pure_violated(self, capsys):
        # Strict pure dominance is hereditary but not monotonic; random
        # subset pairs find a witness quickly.
        code = main(
            [
                "check",
                "--random",
                "20",
                "--seed",
                "3",
                "--property",
                "monotonic",
                "--relation",
                "strict-pure",
            ]
        )
        assert code == 4
        assert capsys.readouterr().out == (
            "monotonicity violation: player 1 strategy 's1' dominated in R but not "
            "in R' for R=((0, 1, 2), (0,), (1,)) R'=((0, 1), (0,), (1,))\n"
        )

    def test_proof_shape(self, belief_file, capsys):
        code = main(
            ["check", belief_file, "--property", "proof-shape", "--relation", "nbr"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "prop, checker",
        [("hereditary", "check_hereditary_step"), ("proof-shape", "check_proof_shape")],
    )
    def test_every_step_is_checked(self, pd_file, prop, checker, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CHECK_SAMPLES", 1)
        calls = []
        original = getattr(cli, checker)

        def counted(rel, step):
            calls.append(step)
            return original(rel, step)

        monkeypatch.setattr(cli, checker, counted)
        code = main(["check", pd_file, "--property", prop, "--relation", "strict-pure"])
        assert code == 0
        steps = len(list(reduction.reachable_steps(StrictPure(), G_PD)))
        assert steps > 1
        assert len(calls) == steps

    def test_budget_overflow_exits_5(self, pd_file, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "reachable_steps", functools.partial(reduction.reachable_steps, budget=1)
        )
        code = main(
            ["check", pd_file, "--property", "hereditary", "--relation", "strict-pure"]
        )
        assert code == 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_random_count_below_one_is_a_usage_error(self, count, capsys):
        code = main(
            ["check", "--random", count, "--property", "monotonic", "--relation", "strict-pure"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: argument --random: must be at least 1, got {count}\n"
        assert captured.out == ""

    def test_file_and_random_exclusive(self, pd_file, capsys):
        code = main(
            [
                "check",
                pd_file,
                "--random",
                "5",
                "--property",
                "hereditary",
                "--relation",
                "strict-pure",
            ]
        )
        assert code == 2


# `check --random 20 --seed 6 --property monotonic`: stdout and exit code
# per relation.  They pin the sampler's draw order and the first witness.
SEED_6_VIOLATION = (
    "monotonicity violation: player 2 strategy 's1' dominated in R but not in R' "
    "for R=((0,), (0, 1), (2,)) R'=((0,), (0,), (2,))\n"
)
SEED_6_MONOTONIC = {
    "strict-mixed": (4, SEED_6_VIOLATION),
    "nbr": (4, SEED_6_VIOLATION),
    "inherent": (4, SEED_6_VIOLATION),
    "global-strict-mixed": (0, "monotonic: no violation found\n"),
}


class TestMonotonicSampler:
    def test_draws_equal_checked_restrictions_inside_their_parents(self):
        rng = random.Random(17)
        games = [random_game(rng, 3 if k % 3 == 0 else 2) for k in range(10)]
        for k in range(1000):
            g = games[k % len(games)]
            parent = Restriction.full(g)
            if k % 2:
                parent = cli._random_sub_restriction(rng, parent)
            r = cli._random_sub_restriction(rng, parent)
            assert r is Restriction(g, r.kept)
            assert all(type(ks) is tuple for ks in r.kept)
            assert restriction_leq(r, parent)

    @pytest.mark.parametrize("relation", SEED_6_MONOTONIC)
    def test_seeded_output_pinned(self, relation, capsys):
        code = main(
            ["check", "--random", "20", "--seed", "6", "--property", "monotonic",
             "--relation", relation]
        )
        assert (code, capsys.readouterr().out) == SEED_6_MONOTONIC[relation]


class TestArs:
    def test_experiment_passes(self, capsys):
        code = main(
            ["ars", "--nodes", "10", "--edge-prob", "1/4", "--samples", "100", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "implication failures: 0" in out

    def test_bad_probability(self, capsys):
        code = main(
            ["ars", "--nodes", "5", "--edge-prob", "0.25", "--samples", "10", "--seed", "1"]
        )
        assert code == 2

    def test_too_few_nodes(self, capsys):
        code = main(
            ["ars", "--nodes", "1", "--edge-prob", "1/4", "--samples", "10", "--seed", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("prob", ["7/3", "3/2", "1/0", "1/-2"])
    def test_probability_outside_unit_interval_without_samples(self, prob, capsys):
        code = main(
            ["ars", "--nodes", "5", "--edge-prob", prob, "--samples", "0", "--seed", "1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: edge probability must be in [0, 1], got {prob}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edge", [["--edge-prob", "-1/2"], ["--edge-prob=-1/2"]], ids=["apart", "joined"]
    )
    def test_negative_probability_in_either_spelling(self, edge, capsys):
        # A value starting with "-" is the option's value, not another option.
        code = main(["ars", "--nodes", "5", *edge, "--samples", "0", "--seed", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: edge probability must be in [0, 1], got -1/2\n"
        assert captured.out == ""

    def test_negative_samples(self, capsys):
        code = main(
            ["ars", "--nodes", "5", "--edge-prob", "1/4", "--samples", "-3", "--seed", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestParserReuse:
    """One process builds the parser once; successive `main` calls must
    answer as separate calls, each with a fresh parser, would."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_successive_calls_match_separate_calls(self, pd_file, mix_file, capsys):
        # Each sequence with the exit codes its calls must give.
        sequences = [
            (
                [
                    ["reduce", pd_file, "--relation", "strict-pure"],
                    ["check", mix_file, "--property", "hereditary", "--relation", "strict-mixed"],
                    ["orders", pd_file, "--relation", "nbr"],
                ],
                [0, 0, 0],
            ),
            (
                [
                    ["orders", pd_file, "--relation", "strict-pure", "--budget", "0"],
                    ["orders", pd_file, "--relation", "strict-pure"],
                ],
                [2, 0],
            ),
            (
                [
                    ["reduce", pd_file, "--relation", "strict-pure", "--policy", "bogus"],
                    ["reduce", pd_file, "--relation", "strict-pure", "--policy", "single-lex"],
                ],
                [2, 0],
            ),
        ]
        for argvs, codes in sequences:
            separate = []
            for argv in argvs:
                cli._build_parser.cache_clear()
                separate.append(self._run(argv, capsys))
            cli._build_parser.cache_clear()
            successive = [self._run(argv, capsys) for argv in argvs]
            assert cli._build_parser.cache_info().misses == 1
            assert successive == separate
            assert [code for code, _ in successive] == codes
