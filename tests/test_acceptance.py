"""Acceptance suite.

Every criterion runs at its stated size and tolerance (all checks are
exact; there are no numeric tolerances anywhere) and prints one PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

The random suite is fixed: seed 2024, 200 two-player games (2x2..4x4) and
50 three-player games (3x3x3), integer payoffs in [-3, 3].
"""

import json
import random
from itertools import combinations

import pytest

from domelim.ars import (
    FiniteArs,
    ars_is_weakly_confluent,
    ars_normal_forms,
    ars_unique_nf,
    newman_experiment,
)
from domelim.dominance import (
    Inherent,
    Intersection,
    NeverBestResponse,
    StrictMixed,
    StrictPure,
    certify,
    dominated_set,
)
from domelim.game import BeliefMode, Restriction
from domelim.gamefile import parse_game, write_game
from domelim.generate import game_suite, random_game
from domelim.lp import best_response_feasible, max_min_advantage
from domelim.reduction import (
    FullSpeed,
    ReductionStep,
    all_outcomes,
    check_hereditary_step,
    check_monotonic_pair,
    check_proof_shape,
    normal_form,
    reachable_steps,
)
from domelim.tracedoc import dump_trace, verify_trace_document

from fixtures import G_BELIEF, G_MIX, G_PD, reachable_restrictions
from oracles import mixed_strictly_dominates, persist_dominator

SUITE_SEED = 2024
TWO_PLAYER_GAMES = 200
THREE_PLAYER_GAMES = 50

P = BeliefMode.PURE
C = BeliefMode.CORRELATED
MI = BeliefMode.MIXED_INDEPENDENT

RELATIONS_2P = (
    StrictPure(),
    StrictPure(global_pool=True),
    StrictMixed(),
    StrictMixed(global_pool=True),
    NeverBestResponse(P),
    NeverBestResponse(C),
    NeverBestResponse(MI),
    NeverBestResponse(P, global_pool=True),
    NeverBestResponse(C, global_pool=True),
    NeverBestResponse(MI, global_pool=True),
    Inherent(),
)
RELATIONS_3P = tuple(r for r in RELATIONS_2P if getattr(r, "mode", None) is not MI)

# Base relations used for step sampling and pairwise intersections.
BASE_RELATIONS = (
    StrictPure(),
    StrictPure(global_pool=True),
    StrictMixed(),
    StrictMixed(global_pool=True),
    NeverBestResponse(P),
    NeverBestResponse(P, global_pool=True),
    Inherent(),
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def suite():
    return game_suite(SUITE_SEED, TWO_PLAYER_GAMES, THREE_PLAYER_GAMES)


@pytest.fixture(scope="module")
def visited(suite):
    """Per-game union of restrictions visited by all supported relations."""
    out = []
    for g in suite:
        rels = RELATIONS_2P if g.n == 2 else RELATIONS_3P
        seen = set()
        for rel in rels:
            seen |= reachable_restrictions(rel, g)
        out.append(seen)
    return out


def sample_steps(suite, rel, quota, per_restriction=4, seed=0):
    """Up to `quota` distinct one-step reductions across the suite."""
    rng = random.Random(seed)
    steps = []
    for g in suite:
        if getattr(rel, "mode", None) is MI and g.n != 2:
            continue
        for r in sorted(reachable_restrictions(rel, g), key=lambda x: x.kept):
            dom = dominated_set(rel, r)
            if not dom:
                continue
            masks = range(1, 1 << len(dom))
            if len(masks) > per_restriction:
                masks = rng.sample(masks, per_restriction)
            for mask in masks:
                removed = tuple(k for j, k in enumerate(dom) if mask >> j & 1)
                steps.append(ReductionStep(r, r.remove(removed), removed))
                if len(steps) >= quota:
                    return steps
    return steps


def test_criterion_1_order_independence(suite):
    """One outcome per game and relation, and criterion 7's chain on the
    real order graph: every edge hereditary and of the proof shape =>
    weakly confluent => unique normal forms, over the nodes searched."""
    failures = []
    graphs = edges = 0
    for k, g in enumerate(suite):
        rels = RELATIONS_2P if g.n == 2 else RELATIONS_3P
        for rel in rels:
            search = all_outcomes(rel, g)
            if not search.complete or len(search.outcomes) != 1:
                failures.append((k, rel.name, len(search.outcomes)))
                continue
            index = {Restriction.full(g): 0}
            arrows = set()
            for step in reachable_steps(rel, g):
                assert check_hereditary_step(rel, step) is None, (k, rel.name, step)
                assert check_proof_shape(rel, step), (k, rel.name, step)
                a = index.setdefault(step.before, len(index))
                b = index.setdefault(step.after, len(index))
                arrows.add((a, b))
            ars = FiniteArs(len(index), frozenset(arrows))
            assert ars_is_weakly_confluent(ars) == (True, None), (k, rel.name)
            assert ars_unique_nf(ars), (k, rel.name)
            assert len(index) == search.explored, (k, rel.name)
            (outcome,) = search.outcomes
            assert ars_normal_forms(ars, 0) == {index[outcome]}, (k, rel.name)
            graphs += 1
            edges += len(arrows)
    detail = f"{graphs} order graphs, {edges} edges, violations: {failures[:3]}"
    report(1, "order independence", graphs > 0 and not failures, detail)


def test_criterion_2_hereditarity(suite):
    bad = []
    checked = 0
    rels = list(BASE_RELATIONS) + [
        NeverBestResponse(C),
        NeverBestResponse(C, global_pool=True),
    ]
    rels += [Intersection(pair) for pair in combinations(BASE_RELATIONS, 2)]
    for rel in rels:
        steps = sample_steps(suite, rel, quota=1000, seed=2)
        checked += len(steps)
        for step in steps:
            witness = check_hereditary_step(rel, step)
            if witness is not None:
                bad.append((rel.name, witness))
    report(2, "hereditarity", checked > 0 and not bad, f"{checked} steps, bad: {bad[:3]}")


def test_criterion_3_monotonicity(suite):
    rng = random.Random(3)
    monotonic_rels = (
        StrictPure(global_pool=True),
        StrictMixed(global_pool=True),
        NeverBestResponse(P, global_pool=True),
        NeverBestResponse(C, global_pool=True),
    )

    def random_sub(r):
        kept = []
        for ks in r.kept:
            chosen = [s for s in ks if rng.random() < 0.5] or [
                ks[rng.randrange(len(ks))]
            ]
            kept.append(tuple(chosen))
        return Restriction(r.game, tuple(kept))

    pairs = []
    while len(pairs) < 1000:
        g = suite[rng.randrange(len(suite))]
        r = random_sub(Restriction.full(g))
        r2 = random_sub(r)
        pairs.append((r, r2))

    bad = []
    for rel in monotonic_rels:
        for r, r2 in pairs:
            witness = check_monotonic_pair(rel, r, r2)
            if witness is not None:
                bad.append((rel.name, witness))
                break

    # The paper's counterexample: strict pure dominance fails monotonicity
    # on the prisoner's dilemma once both players shrink to one strategy.
    full = Restriction.full(G_PD)
    lone = Restriction(G_PD, ((0,), (0,)))
    witness = check_monotonic_pair(StrictPure(), full, lone)
    report(
        3,
        "monotonicity split",
        not bad and witness == (0, 0),
        f"1000 pairs x {len(monotonic_rels)} relations; strict-pure witness {witness}",
    )


def test_criterion_4_persistence(suite):
    rng = random.Random(4)
    checked = 0
    bad = []
    games = list(suite)
    extra = random.Random(44)
    while checked < 200:
        if games:
            g = games.pop(0)
        else:
            g = random_game(extra, 2)
        for step in reachable_steps(StrictMixed(), g):
            dom_before = dominated_set(StrictMixed(), step.before)
            removed = set(step.removed)
            survivors = [k for k in dom_before if k not in removed]
            if not survivors:
                continue
            for i, s in survivors:
                eliminated = [
                    (t, certify(StrictMixed(), step.before, j, t).mixed)
                    for (j, t) in removed
                    if j == i
                ]
                m = certify(StrictMixed(), step.before, i, s).mixed
                try:
                    out = persist_dominator(step.before, step.after, eliminated, i, s, m)
                except Exception as exc:
                    bad.append((str(exc),))
                    continue
                ok = set(out.support) <= set(step.after.kept[i])
                ok = ok and mixed_strictly_dominates(step.before, i, out, s)
                if not ok:
                    bad.append(((i, s),))
                checked += 1
                if checked >= 200:
                    break
            if checked >= 200:
                break
    report(4, "persistence lemma", checked >= 200 and not bad, f"{checked} cases, bad: {bad[:3]}")


def test_criterion_5_lp_duality(suite):
    disagreements = 0
    checked = 0
    for g in suite:
        r = Restriction.full(g)
        for i in range(g.n):
            for s in r.kept[i]:
                pool = [t for t in r.kept[i] if t != s]
                eps, _ = max_min_advantage(r, i, s, pool)
                witness = best_response_feasible(r, i, s, C)
                checked += 1
                if (eps > 0) != (witness is None):
                    disagreements += 1
    report(5, "LP duality oracle", disagreements == 0, f"{checked} strategies")


def test_criterion_6_inclusion_chain(suite, visited):
    chains = [
        (StrictPure(), StrictMixed()),
        (StrictPure(), StrictPure(global_pool=True)),
        (StrictMixed(), StrictMixed(global_pool=True)),
        (NeverBestResponse(P), NeverBestResponse(P, global_pool=True)),
        (NeverBestResponse(C), NeverBestResponse(C, global_pool=True)),
        (StrictPure(), Inherent()),
    ]
    bad = []
    checked = 0
    for seen in visited:
        for r in seen:
            for small, big in chains:
                d_small = set(dominated_set(small, r))
                d_big = set(dominated_set(big, r))
                checked += 1
                if not d_small <= d_big:
                    bad.append((small.name, big.name, r.kept))
            # The engine decides correlated nbr from the strict-mixed entries,
            # so its other side comes from the feasibility LP, per strategy.
            d_sm = set(dominated_set(StrictMixed(), r))
            d_nbr = {
                (i, s)
                for i, s in r.strategies()
                if best_response_feasible(r, i, s, C) is None
            }
            if d_sm != d_nbr:
                bad.append(("strict-mixed", "nbr-correlated-equality", r.kept))
    report(6, "inclusion chain", not bad, f"{checked} pair checks, bad: {bad[:3]}")


def test_criterion_7_newman_harness():
    rep = newman_experiment(samples=500, max_nodes=12, p_num=1, p_den=4, seed=7)
    ok = (
        rep.implication_failures == 0
        and rep.weakly_confluent >= 50
        and rep.not_weakly_confluent >= 50
    )
    report(
        7,
        "Newman harness",
        ok,
        f"{rep.weakly_confluent} confluent / {rep.not_weakly_confluent} not, "
        f"{rep.implication_failures} failures",
    )


def test_criterion_8_proof_shape(suite):
    bad = []
    checked = 0
    rels = list(BASE_RELATIONS) + [
        NeverBestResponse(C),
        NeverBestResponse(C, global_pool=True),
    ]
    quota_per_rel = max(1, 1000 // len(rels)) + 1
    for rel in rels:
        for step in sample_steps(suite, rel, quota=quota_per_rel, seed=8):
            checked += 1
            if not check_proof_shape(rel, step):
                bad.append((rel.name, step.before.kept))
    report(8, "proof shape", checked >= 1000 and not bad, f"{checked} steps, bad: {bad[:3]}")


def test_criterion_9_fixture_endpoints():
    cases = [
        (StrictPure(), G_PD, ((1,), (1,))),
        (StrictMixed(), G_MIX, ((0, 2), (0, 1))),
        (StrictPure(), G_MIX, ((0, 1, 2), (0, 1))),
        (NeverBestResponse(P), G_BELIEF, ((0, 2), (0, 1))),
        (NeverBestResponse(C), G_BELIEF, ((0, 1, 2), (0, 1))),
        (NeverBestResponse(C, global_pool=True), G_BELIEF, ((0, 1, 2), (0, 1))),
    ]
    bad = []
    for rel, g, expected in cases:
        outcome = normal_form(rel, g, FullSpeed()).outcome
        if outcome.kept != expected:
            bad.append((rel.name, outcome.kept))
    report(9, "fixture endpoints", not bad, f"bad: {bad}")


def test_criterion_10_io_round_trip():
    rng = random.Random(10)
    bad = 0
    for k in range(500):
        g = random_game(rng, 3 if k % 5 == 0 else 2)
        if parse_game(write_game(g)) != g:
            bad += 1

    # Trace certificates re-verify after a JSON round trip, byte-identically.
    reloaded_ok = True
    deterministic = True
    rels = [StrictPure(), StrictMixed(), NeverBestResponse(P), Inherent()]
    for k in range(20):
        g = random_game(rng, 2)
        rel = rels[k % len(rels)]
        text = dump_trace(normal_form(rel, g, FullSpeed()))
        if text != dump_trace(normal_form(rel, g, FullSpeed())):
            deterministic = False
        try:
            verify_trace_document(json.loads(text), parse_game(write_game(g)))
        except Exception:
            reloaded_ok = False
    report(
        10,
        "I/O round trip",
        bad == 0 and reloaded_ok and deterministic,
        f"{bad} round-trip failures",
    )
