"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 unsupported configuration
or any other engine error (an assumption violated, a certificate that
fails re-verification), 4 property violation or order dependence, 5
budget overflow.  Every error prints one `error:` line
on stderr; none ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import random
import re
import sys
from typing import Optional, Sequence

from .ars import newman_experiment
from .dominance import Relation, parse_relation
from .errors import BudgetExceeded, DomelimError, StructuralError
from .game import BeliefMode, Game, Restriction
from .gamefile import parse_game
from .generate import random_game
from .reduction import (
    DEFAULT_BUDGET,
    POLICY_NAMES,
    FullSpeed,
    SingleRandom,
    all_outcomes,
    check_hereditary_step,
    check_monotonic_pair,
    check_proof_shape,
    normal_form,
    reachable_steps,
)
from .tracedoc import dump_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_VIOLATION = 4
EXIT_BUDGET = 5

# Random (R, R') pairs `check --property monotonic` draws per game.
CHECK_SAMPLES = 200


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise StructuralError(message)


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged, so successive `main` calls share it."""
    parser = _Parser(prog="domelim", description="Iterated dominance elimination engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_relation(p):
        p.add_argument("--relation", required=True, help="relation name(s), comma-joined")
        p.add_argument(
            "--beliefs",
            choices=["pure", "mixed", "correlated"],
            default="pure",
            help="belief mode for nbr relations (default pure)",
        )

    p = sub.add_parser("reduce", help="reduce a game to an outcome")
    p.add_argument("file")
    add_relation(p)
    p.add_argument(
        "--policy",
        choices=list(POLICY_NAMES.values()),
        default=POLICY_NAMES[FullSpeed],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write a JSON trace document here")

    p = sub.add_parser("orders", help="enumerate all elimination outcomes")
    p.add_argument("file")
    add_relation(p)
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)

    p = sub.add_parser("check", help="check hereditarity/monotonicity/proof shape")
    p.add_argument("file", nargs="?")
    p.add_argument("--random", type=_count, dest="random_count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--property",
        required=True,
        choices=["hereditary", "monotonic", "proof-shape"],
    )
    add_relation(p)

    p = sub.add_parser("ars", help="Newman's-Lemma experiment on random DAGs")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edge-prob", required=True, help="exact probability P/Q")
    # argparse reads -1/2 as an option; an argument "-<digit>..." is a value here.
    p._negative_number_matcher = re.compile(r"^-\d")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _load_game(path: str) -> Game:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}")
    return parse_game(text)


def _relation(args) -> Relation:
    return parse_relation(args.relation, BeliefMode(args.beliefs))


def _print_kept(r: Restriction) -> None:
    for i, ks in enumerate(r.kept):
        names = " ".join(r.game.labels[i][s] for s in ks)
        print(f"player {i + 1}: {names}")


def _cmd_reduce(args) -> int:
    g = _load_game(args.file)
    rel = _relation(args)
    kind = next(k for k, name in POLICY_NAMES.items() if name == args.policy)
    policy = SingleRandom(args.seed) if kind is SingleRandom else kind()
    trace = normal_form(rel, g, policy)
    _print_kept(trace.outcome)
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(dump_trace(trace))
        except OSError as exc:
            raise StructuralError(f"cannot write {args.trace}: {exc}")
    return EXIT_OK


def _cmd_orders(args) -> int:
    g = _load_game(args.file)
    rel = _relation(args)
    search = all_outcomes(rel, g, args.budget)
    ordered = sorted(search.outcomes, key=lambda r: r.kept)
    for k, outcome in enumerate(ordered, start=1):
        print(f"outcome {k}:")
        _print_kept(outcome)
    if not search.complete:
        print(f"budget of {args.budget} restrictions exceeded; outcome set is partial")
        return EXIT_BUDGET
    return EXIT_OK if len(ordered) == 1 else EXIT_VIOLATION


def _random_sub_restriction(rng: random.Random, r: Restriction) -> Restriction:
    """A random cut of `r`: each player keeps each strategy with chance
    1/2, or one drawn uniformly when that keeps none."""
    table, mask = r.game.restrictions, 0
    for ks, bits in zip(r.kept, table.bits):
        drawn = 0
        for s in ks:
            if rng.random() < 0.5:
                drawn |= bits[s]
        mask |= drawn or bits[ks[rng.randrange(len(ks))]]
    return table[mask]


def _check_one_game(args, rel: Relation, g: Game, rng: random.Random) -> Optional[str]:
    """First violation found on this game, as a printable witness."""
    if args.property == "monotonic":
        full = Restriction.full(g)
        for _ in range(CHECK_SAMPLES):
            r = _random_sub_restriction(rng, full)
            r2 = _random_sub_restriction(rng, r)
            witness = check_monotonic_pair(rel, r, r2)
            if witness is not None:
                i, s = witness
                return (
                    f"monotonicity violation: player {i + 1} strategy "
                    f"{g.labels[i][s]!r} dominated in R but not in R' for "
                    f"R={r.kept} R'={r2.kept}"
                )
        return None
    for step in reachable_steps(rel, g):
        if args.property == "hereditary":
            witness = check_hereditary_step(rel, step)
            if witness is not None:
                i, s = witness
                return (
                    f"hereditarity violation at step {step.before.kept} -> "
                    f"{step.after.kept}: player {i + 1} strategy {g.labels[i][s]!r}"
                )
        elif not check_proof_shape(rel, step):
            return (
                f"proof-shape violation at step {step.before.kept} -> "
                f"{step.after.kept}"
            )
    return None


def _cmd_check(args) -> int:
    if (args.file is None) == (args.random_count is None):
        raise StructuralError("give exactly one of <file> or --random N")
    rel = _relation(args)
    rng = random.Random(args.seed)
    if args.file is not None:
        games = [_load_game(args.file)]
    else:
        games = [
            random_game(rng, 2 if k % 5 else 3) for k in range(args.random_count)
        ]
    # Draw every game first, so `rng` gives the same samples; drop each once checked.
    games.reverse()
    while games:
        witness = _check_one_game(args, rel, games.pop(), rng)
        if witness is not None:
            print(witness)
            return EXIT_VIOLATION
    print(f"{args.property}: no violation found")
    return EXIT_OK


def _cmd_ars(args) -> int:
    try:
        num, den = args.edge_prob.split("/")
        p_num, p_den = int(num), int(den)
    except ValueError:
        raise StructuralError(f"--edge-prob must be P/Q, got {args.edge_prob!r}")
    report = newman_experiment(args.samples, args.nodes, p_num, p_den, args.seed)
    print(f"samples: {report.samples}")
    print(f"weakly confluent: {report.weakly_confluent}")
    print(f"not weakly confluent: {report.not_weakly_confluent}")
    print(f"unique normal form: {report.unique_nf}")
    print(f"implication failures: {report.implication_failures}")
    return EXIT_OK if report.implication_failures == 0 else EXIT_VIOLATION


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        run = {"reduce": _cmd_reduce, "orders": _cmd_orders, "check": _cmd_check, "ars": _cmd_ars}
        return run[args.command](args)  # the parser admits no other command
    except StructuralError as exc:  # game file parse errors included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DomelimError as exc:  # UnsupportedConfiguration and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
