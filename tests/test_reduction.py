"""Reduction steps, traces, outcome search, and the step-level checkers."""

import gc
import json
import random
import sys
import weakref
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from domelim import dominance, reduction
from domelim.dominance import (
    Inherent,
    Intersection,
    NeverBestResponse,
    StrictMixed,
    StrictPure,
    dominated_set,
)
from domelim.errors import (
    AssumptionViolated,
    DomelimError,
    StructuralError,
    UnsupportedConfiguration,
)
from domelim.game import BeliefMode, Game, Restriction, _opponent_offsets, restriction_leq
from domelim.gamefile import parse_game, write_game
from domelim.generate import random_game
from domelim.lp import best_response_feasible
from domelim.reduction import (
    DEFAULT_BUDGET,
    FullSpeed,
    ReductionStep,
    SingleLex,
    SingleRandom,
    _unheld,
    _walk,
    all_outcomes,
    check_hereditary_step,
    check_monotonic_pair,
    check_proof_shape,
    normal_form,
    reachable_steps,
)
from domelim.tracedoc import dump_trace, verify_trace_document

from fixtures import G_WEAK, reachable_restrictions
from oracles import (
    WeakPure,
    all_outcomes_reference,
    decide_reference,
    mask_reference,
    newman_sweep,
    ordinal_games,
    proof_shape_reference,
    reachable_steps_reference,
    remove_reference,
    restriction_leq_reference,
    unheld_reference,
    walk_reference,
)

PURE = BeliefMode.PURE


def simple_relations(players):
    """The seven relations, with every belief mode decidable on `players`."""
    modes = [PURE, BeliefMode.CORRELATED]
    if players == 2:
        modes.append(BeliefMode.MIXED_INDEPENDENT)
    return (
        [StrictPure(), StrictPure(global_pool=True)]
        + [StrictMixed(), StrictMixed(global_pool=True), Inherent()]
        + [NeverBestResponse(m) for m in modes]
        + [NeverBestResponse(m, global_pool=True) for m in modes]
    )


def search_games():
    """Seeded 2- and 3-player games with large AllSubsets graphs.

    Uniform random payoffs rarely dominate anything on three players, so
    each payoff is twice the player's own strategy index plus noise in
    [-3, 3]: higher strategies tend to dominate lower ones.  Half of the
    games take payoffs in steps of 1/2.
    """
    rng = random.Random(61)
    games = []
    for sizes in [(4, 4), (4, 3), (3, 4), (3, 3, 3), (3, 3, 3)]:
        for den in (1, 2):
            labels = tuple(tuple(f"s{k}" for k in range(size)) for size in sizes)
            rows = [
                [F(2 * den * s + rng.randint(-3 * den, 3 * den), den) for s in joint]
                for joint in product(*map(range, sizes))
            ]
            games.append(Game.from_table(labels, rows))
    return games


class TestSuccessors:
    """The step `normal_form` takes under each policy, read off its trace."""

    def test_pd_full_speed_single_step(self, g_pd):
        steps = normal_form(StrictPure(), g_pd, FullSpeed()).steps
        assert len(steps) == 1
        assert steps[0].after.kept == ((1,), (1,))
        assert steps[0].removed == ((0, 0), (1, 0))

    def test_pd_all_subsets(self, g_pd, r_pd):
        steps = [s for s in reachable_steps(StrictPure(), g_pd) if s.before == r_pd]
        afters = {step.after.kept for step in steps}
        assert afters == {((1,), (0, 1)), ((0, 1), (1,)), ((1,), (1,))}

    def test_terminal_is_empty(self, g_mix):
        # Only a mixture beats G_MIX's middle row: strict-pure removes nothing.
        for policy in (FullSpeed(), SingleLex(), SingleRandom(0)):
            trace = normal_form(StrictPure(), g_mix, policy)
            assert trace.steps == () and trace.outcome == Restriction.full(g_mix)

    def test_single_lex_takes_first(self, g_pd):
        steps = normal_form(StrictPure(), g_pd, SingleLex()).steps
        assert len(steps) == 2
        assert steps[0].removed == ((0, 0),)

    def test_single_random_deterministic(self, g_pd):
        a = normal_form(StrictPure(), g_pd, SingleRandom(7)).steps
        b = normal_form(StrictPure(), g_pd, SingleRandom(7)).steps
        assert a == b and len(a) == 2

    def test_single_random_draws_from_one_seeded_generator(self, g_pd):
        rng = random.Random(7)
        r = Restriction.full(g_pd)
        for step in normal_form(StrictPure(), g_pd, SingleRandom(7)).steps:
            dom = dominated_set(StrictPure(), r)
            assert step.removed == (dom[rng.randrange(len(dom))],)
            r = step.after

    def test_not_a_policy_rejected_up_front(self, g_mix):
        # Nothing is dominated here, so no step would ever read the policy.
        with pytest.raises(StructuralError, match="not a policy: str"):
            normal_form(StrictPure(), g_mix, "fastest")


class TestAssumptionCheck:
    """Reducing checks that every player keeps an undominated strategy:
    a dominated set that covers a player stops the walk and the path."""

    @staticmethod
    def _cover_first_player(monkeypatch):
        def first_player(rel, r):
            return tuple(k for k in r.strategies() if k[0] == 0)

        monkeypatch.setattr(reduction, "dominated_set", first_player)

    def test_all_outcomes_raises(self, g_pd, monkeypatch):
        self._cover_first_player(monkeypatch)
        with pytest.raises(AssumptionViolated, match="player 0 has no strict-pure-"):
            all_outcomes(StrictPure(), g_pd)

    def test_normal_form_raises(self, g_pd, monkeypatch):
        self._cover_first_player(monkeypatch)
        for policy in (FullSpeed(), SingleLex(), SingleRandom(0)):
            with pytest.raises(AssumptionViolated, match="player 0 has no strict-pure-"):
                normal_form(StrictPure(), g_pd, policy)

    def test_walks_do_not_trip_it(self, g_pd):
        """Global strict-pure dominates both lone cooperations, a restriction
        that no step reaches; every reachable one keeps a strategy each."""
        rel = StrictPure(global_pool=True)
        assert dominated_set(rel, Restriction(g_pd, ((0,), (0,)))) == ((0, 0), (1, 0))
        assert {r.kept for r in all_outcomes(rel, g_pd).outcomes} == {((1,), (1,))}
        assert normal_form(rel, g_pd, SingleLex()).outcome.kept == ((1,), (1,))


class TestNormalForm:
    def test_pd_full_speed(self, g_pd):
        trace = normal_form(StrictPure(), g_pd, FullSpeed())
        assert trace.outcome.kept == ((1,), (1,))
        assert len(trace.steps) == 1

    def test_pd_single_lex_two_steps(self, g_pd):
        trace = normal_form(StrictPure(), g_pd, SingleLex())
        assert trace.outcome.kept == ((1,), (1,))
        assert len(trace.steps) == 2

    def test_belief_rationalizable_set_unchanged(self, g_belief):
        rel = NeverBestResponse(BeliefMode.CORRELATED, global_pool=True)
        trace = normal_form(rel, g_belief, FullSpeed())
        assert trace.outcome == Restriction.full(g_belief)
        assert trace.steps == ()

    def test_steps_chain(self, g_mix):
        trace = normal_form(StrictMixed(), g_mix, SingleLex())
        r = Restriction.full(g_mix)
        for step in trace.steps:
            assert step.before == r
            r = step.after
        assert r == trace.outcome

    def test_deterministic_random_policy(self, g_mix):
        rng = random.Random(50)
        for _ in range(5):
            g = random_game(rng, 2)
            t1 = normal_form(StrictPure(), g, SingleRandom(99))
            t2 = normal_form(StrictPure(), g, SingleRandom(99))
            assert t1 == t2


class TestAllOutcomes:
    def test_pd(self, g_pd):
        search = all_outcomes(StrictPure(), g_pd)
        assert search.complete
        assert {r.kept for r in search.outcomes} == {((1,), (1,))}

    def test_mix_strict_mixed(self, g_mix):
        search = all_outcomes(StrictMixed(), g_mix)
        assert {r.kept for r in search.outcomes} == {((0, 2), (0, 1))}

    def test_belief_nbr_pure(self, g_belief):
        search = all_outcomes(NeverBestResponse(PURE), g_belief)
        assert {r.kept for r in search.outcomes} == {((0, 2), (0, 1))}

    def test_budget_overflow_flagged(self, g_pd):
        search = all_outcomes(StrictPure(), g_pd, budget=1)
        assert not search.complete

    def test_matches_reference_under_every_budget(self):
        cut = 0
        for g in search_games():
            simple = simple_relations(g.n)
            rels = simple + [Intersection(pair) for pair in combinations(simple, 2)]
            for rel in rels:
                full = all_outcomes(rel, g)
                assert full == all_outcomes_reference(rel, g)
                for budget in range(1, full.explored + 1):
                    got = all_outcomes(rel, g, budget)
                    assert got == all_outcomes_reference(rel, g, budget), (rel, budget)
                    cut += not got.complete
        assert cut > 0  # budgets below the full size do cut some searches off

    def test_game_and_its_memo_are_freed_once_dropped(self):
        for rel in (
            Intersection((StrictPure(), NeverBestResponse(BeliefMode.CORRELATED))),
            StrictMixed(),
        ):
            g = random_game(random.Random(9), 2)
            search = all_outcomes(rel, g)
            assert search.complete and any(g.memo.values())
            # The memo holds keys only: no certificate, so nothing in it
            # refers back to a restriction or its game.
            for keys in g.memo.values():
                assert type(keys) is tuple
                for key in keys:
                    assert type(key) is tuple and len(key) == 2
                    assert all(type(x) is int for x in key)
            ref = weakref.ref(g)
            del g, search
            gc.collect()
            assert ref() is None

    def test_memo_holds_only_base_decisions(self):
        """An intersection filters its parts' memo entries and LP-mode nbr
        reads strict-mixed's: neither stores an entry of its own.  Every
        reachable dominated set still matches a per-strategy decision with
        no memo: `decide_reference`, and the best-response LP itself for
        LP-mode nbr."""

        def dominated(rel, r, i, s):
            if isinstance(rel, Intersection):
                return all(dominated(p, r, i, s) for p in rel.parts)
            if isinstance(rel, NeverBestResponse) and rel.mode is not PURE:
                pool = range(r.game.sizes[i]) if rel.global_pool else r.kept[i]
                return best_response_feasible(r, i, s, rel.mode, pool) is None
            return decide_reference(rel, r, i, s) is not None

        base = [StrictPure(), StrictPure(global_pool=True), Inherent()] + [
            NeverBestResponse(PURE, pool) for pool in (False, True)
        ]
        rng = random.Random(12)
        filtered = 0
        for k in range(10):
            g = random_game(rng, 3 if k % 5 == 4 else 2)
            modes = [BeliefMode.CORRELATED] + [BeliefMode.MIXED_INDEPENDENT] * (g.n == 2)
            rels = [Intersection(pair) for pair in combinations(base, 2)] + [
                NeverBestResponse(mode, pool) for mode in modes for pool in (False, True)
            ]
            for rel in rels:
                game = Game(g.labels, g.payoffs)
                search = all_outcomes(rel, game)
                assert search == all_outcomes_reference(rel, Game(g.labels, g.payoffs))
                for r in reachable_restrictions(rel, game):
                    keys = dominated_set(rel, r)
                    assert keys == tuple(
                        key for key in r.strategies() if dominated(rel, r, *key)
                    ), (rel, r.kept)
                    filtered += isinstance(rel, Intersection) and any(
                        len(dominated_set(p, r)) > len(keys) for p in rel.parts
                    )
                assert game.memo
                for base_rel, _ in game.memo:
                    assert not isinstance(base_rel, Intersection), rel
                    assert getattr(base_rel, "mode", PURE) is PURE, rel
        assert filtered > 0

    def test_walk_solves_no_mixture(self, g_pd, monkeypatch):
        """Every strategy the walk removes from the prisoner's dilemma is
        beaten by a pure rival: no LP runs, neither the decision's nor the
        max-min one, under strict-mixed or under correlated nbr, which reads
        the strict-mixed keys."""
        calls = []
        for name in ("mixture_beats", "max_min_advantage"):

            def counting(*args, _name=name, _original=getattr(dominance, name)):
                calls.append((_name, args))
                return _original(*args)

            monkeypatch.setattr(dominance, name, counting)
        for rel in (
            StrictMixed(),
            StrictMixed(global_pool=True),
            NeverBestResponse(BeliefMode.CORRELATED),
        ):
            g = Game(g_pd.labels, g_pd.payoffs)
            search = all_outcomes(rel, g)
            assert search.complete
            assert {r.kept for r in search.outcomes} == {((1,), (1,))}
            assert search == all_outcomes_reference(rel, g)
        assert calls == []

    def test_agrees_with_policy_outcomes(self):
        rng = random.Random(51)
        for _ in range(10):
            g = random_game(rng, 2)
            search = all_outcomes(StrictPure(), g)
            assert len(search.outcomes) == 1
            for policy in (FullSpeed(), SingleLex(), SingleRandom(3)):
                assert normal_form(StrictPure(), g, policy).outcome in search.outcomes


def lp_free_relations():
    """The five LP-free relations and their ten pairwise intersections."""
    pure = [
        StrictPure(), StrictPure(global_pool=True), NeverBestResponse(PURE),
        NeverBestResponse(PURE, global_pool=True), Inherent(),
    ]
    return pure + [Intersection(pair) for pair in combinations(pure, 2)]


def lp_relations(players):
    """The LP-backed relations decidable on `players`: six on two players."""
    modes = [BeliefMode.CORRELATED] + [BeliefMode.MIXED_INDEPENDENT] * (players == 2)
    return [StrictMixed(), StrictMixed(global_pool=True)] + [
        NeverBestResponse(m, global_pool=p) for m in modes for p in (False, True)
    ]


class TestWalkChildren:
    """`_walk` reads each child, and `Restriction.full` the root, from the
    game's table, which builds entries unchecked, so each must be the very
    restriction the checked constructor returns for its kept tuple: the
    table's entry at its own mask, the root at the full mask."""

    def test_children_equal_checked_restrictions(self):
        rng = random.Random(71)
        games = [random_game(rng, 3 if k % 4 == 0 else 2) for k in range(16)]
        children = 0
        for g in games + search_games()[::3]:
            rels = lp_free_relations() + lp_relations(g.n)
            built = [Restriction.full(g)] + [
                child
                for rel in rels
                for _, _, kids in _walk(rel, g, DEFAULT_BUDGET)
                for child in kids
            ]
            for child in built:
                checked = Restriction(g, child.kept)
                assert child == checked and hash(child) == hash(checked)
                assert child.game is g
                assert g.restrictions[child.mask] is child
                assert checked is child
            children += len(built) - 1
            table = g.restrictions
            assert built[0] is table[table.full] and built[0].mask == table.full
            for rel in rels:
                assert next(_walk(rel, g, DEFAULT_BUDGET))[0] is built[0]
        assert children > 0


class TestWalkOrder:
    """The bitmask walk yields the former kept-tuple walk's children in the
    same order, with None at the same positions under every budget."""

    def test_matches_reference_under_every_budget(self):
        rng = random.Random(19)
        games = [random_game(rng, 3 if k % 3 == 0 else 2) for k in range(6)]
        dropped = 0
        for g in games + search_games()[::2]:
            for rel in lp_free_relations() + lp_relations(g.n):
                explored = all_outcomes(rel, g).explored
                for budget in range(1, explored + 1):
                    got = [
                        (r.kept, dom, [c if c is None else c.kept for c in kids])
                        for r, dom, kids in _walk(rel, g, budget)
                    ]
                    assert got == list(walk_reference(rel, g, budget)), (rel, budget)
                    dropped += sum(None in kids for _, _, kids in got)
        assert dropped > 0


class TestRestrictionTable:
    """Each game keeps one `Restriction` per mask, which the walk, the memo
    and every later walk share, and which dies with the game."""

    def test_walk_memo_found_by_checked_restriction(self):
        for g in search_games()[::3]:
            for rel in lp_free_relations()[:5] + [StrictMixed()]:
                walked = [r for r, _, _ in _walk(rel, g, DEFAULT_BUDGET)]
                entries = len(g.memo)
                for r in walked:
                    checked = Restriction(g, r.kept)
                    assert checked is r and hash(checked) == hash(r)
                    assert g.memo[(rel, checked)] is g.memo[(rel, r)]
                    assert dominated_set(rel, checked) is g.memo[(rel, r)]
                # normal_form and the checked constructor return the walk's
                # table entries: they read its memo entries, store none.
                for policy in (FullSpeed(), SingleLex(), SingleRandom(5)):
                    normal_form(rel, g, policy)
                for r2 in walked:
                    check_monotonic_pair(rel, Restriction(g, walked[0].kept), Restriction(g, r2.kept))
                assert len(g.memo) == entries

    def test_each_restriction_hashes_its_game_once(self, monkeypatch):
        g = search_games()[2]  # nbr's graph holds two restrictions strict-pure's lacks
        original = Game.__hash__
        calls = []
        monkeypatch.setattr(Game, "__hash__", lambda self: calls.append(1) or original(self))
        first = all_outcomes(StrictPure(), g)
        built = len(calls)
        assert built == len(g.restrictions) == first.explored > 1
        assert all_outcomes(StrictPure(), g) == first and len(calls) == built
        for rel in lp_free_relations():
            all_outcomes(rel, g)
        assert len(calls) == len(g.restrictions) > built


def _outcome(f, *args):
    """f's result, or its StructuralError's message."""
    try:
        return f(*args)
    except StructuralError as exc:
        return str(exc)


class TestMaskGeometry:
    """A restriction is its mask: each table entry of a walked game is the
    restriction the checked constructor returns for its kept tuples, its
    opponent masks are the offsets' masks, and the bit-level
    `restriction_leq` and `remove` answer as the former kept-tuple ones in
    `oracles` do, errors included."""

    @staticmethod
    def walked_games():
        games = search_games() + [random_game(random.Random(k), 2) for k in range(4)]
        for g in games:
            all_outcomes(StrictPure(), g)
        return games

    def test_entries_are_their_masks(self):
        # The walk decides every entry for every player, so it also fills the
        # opponent table: one mask per player and kept set of the others.
        entries = shared = 0
        for g in self.walked_games():
            table = g.restrictions
            filled = dict(table.opponents)
            for mask, r in table.items():
                assert r.mask == mask == mask_reference(r)
                assert Restriction(g, r.kept) is r and r.game is g
                for i in range(g.n):
                    want = sum(1 << o for o in _opponent_offsets(g, r.kept, i))
                    assert filled[mask & ~table.spans[i]] == r.opponent_mask(i) == want
                entries += 1
            assert table.opponents == filled
            shared += len(table) * g.n - len(filled)
        assert entries > 100 and shared > 0

    def test_leq_and_remove_match_the_references(self):
        errors = []
        for g in self.walked_games():
            entries = list(g.restrictions.values())
            for r1 in entries:
                for r2 in entries:
                    assert restriction_leq(r1, r2) == restriction_leq_reference(r1, r2)
            keys = [(i, s) for i, size in enumerate(g.sizes) for s in range(size)]
            for r in entries:
                cuts = [[k] for k in keys] + list(combinations(keys, 2))
                cuts += [list(r.strategies()), [(-1, 0)], [(g.n, 0)]]
                for cut in cuts:
                    got = _outcome(r.remove, cut)
                    want = _outcome(remove_reference, r, cut)
                    assert got == want and (type(got) is str or got is want), (r, cut)
                    if type(got) is str:
                        errors.append(got)
        for error in ("not present in restriction", "kept-set is empty", "out of range"):
            assert any(error in got for got in errors), error


class TestBudgetArgument:
    """A budget is an integer of at least 1 in the library, as on the
    command line: no walk admits more restrictions than its budget."""

    @pytest.mark.parametrize("budget", [0, -3, 2.5])
    def test_rejected(self, g_one, budget):
        message = f"budget must be an integer of at least 1, got {budget}"
        with pytest.raises(StructuralError, match=message):
            all_outcomes(StrictPure(), g_one, budget)
        with pytest.raises(StructuralError, match=message):
            list(reachable_steps(StrictPure(), g_one, budget))


class TestOrderDependence:
    """A relation that must fail.  Weak dominance (the test-only `WeakPure`)
    is order dependent, and the walk, both step checkers and the order
    graph's `FiniteArs` must each show it, as Newman's chain says."""

    def test_every_two_by_two_ordinal_game(self):
        games = list(ordinal_games(2, 2))
        assert len(games) == 81
        rels = lp_free_relations()
        assert len(rels) == 15
        sweep = newman_sweep(games, [WeakPure()] + rels)
        dependent, unheld, shapeless, broken = sweep["weak-pure"]
        assert len(dependent) == 20 and unheld == shapeless == dependent and not broken
        for rel in rels:
            assert sweep[rel.name] == (set(), set(), set(), set()), rel.name

    def test_weak_fixture_has_two_outcomes(self):
        search = all_outcomes(WeakPure(), G_WEAK)
        assert search.complete
        assert sorted(r.kept for r in search.outcomes) == [((0, 1), (0,)), ((1,), (0,))]


class TestReachableRestrictions:
    def test_same_walk_as_the_search(self):
        for g in search_games():
            for rel in simple_relations(g.n):
                search = all_outcomes(rel, g)
                reachable = reachable_restrictions(rel, g, search.explored)
                assert len(reachable) == search.explored
                assert Restriction.full(g) in reachable
                assert search.outcomes <= reachable

    def test_budget_exceeded_raises(self, g_pd):
        assert all_outcomes(StrictPure(), g_pd).explored == 4
        with pytest.raises(DomelimError, match="more than 3 restrictions"):
            reachable_restrictions(StrictPure(), g_pd, budget=3)


class TestReachableSteps:
    def test_matches_reference_under_every_budget(self):
        raised = 0
        for g in search_games():
            simple = simple_relations(g.n)
            rels = simple + [Intersection(pair) for pair in combinations(simple, 2)]
            for rel in rels:
                for budget in range(1, all_outcomes(rel, g).explored + 1):
                    expected = []
                    dropped = False
                    for step, dropped in reachable_steps_reference(rel, g, budget):
                        if dropped:
                            break
                        expected.append(step)
                    got = []
                    walk = reachable_steps(rel, g, budget)
                    if dropped:
                        with pytest.raises(UnsupportedConfiguration):
                            got.extend(walk)
                        raised += 1
                    else:
                        got.extend(walk)
                    assert got == expected, (rel, budget)
        assert raised > 0

    def test_pd_budget_one_raises(self, g_pd):
        assert len(list(reachable_steps(StrictPure(), g_pd))) == 5
        with pytest.raises(UnsupportedConfiguration, match="more than 1 restrictions"):
            next(reachable_steps(StrictPure(), g_pd, budget=1))


class TestHereditaryStep:
    def test_pd_single_lex_step(self, g_pd):
        step = normal_form(StrictPure(), g_pd, SingleLex()).steps[0]
        assert check_hereditary_step(StrictPure(), step) is None

    def test_mix_steps(self, g_mix):
        for step in reachable_steps(StrictMixed(), g_mix):
            assert check_hereditary_step(StrictMixed(), step) is None

    def test_full_speed_vacuous(self, g_pd):
        step = normal_form(StrictPure(), g_pd, FullSpeed()).steps[0]
        assert check_hereditary_step(StrictPure(), step) is None


class TestMonotonicPair:
    def test_strict_pure_counterexample(self, g_pd):
        r = Restriction.full(g_pd)
        r2 = Restriction(g_pd, ((0,), (0,)))
        assert check_monotonic_pair(StrictPure(), r, r2) == (0, 0)

    def test_global_strict_pure_same_pair(self, g_pd):
        r = Restriction.full(g_pd)
        r2 = Restriction(g_pd, ((0,), (0,)))
        assert check_monotonic_pair(StrictPure(global_pool=True), r, r2) is None

    def test_identical_pair(self, r_pd, r_belief):
        for r in (r_pd, r_belief):
            assert check_monotonic_pair(StrictPure(), r, r) is None

    def test_non_subset_rejected(self, g_pd):
        r1 = Restriction(g_pd, ((0,), (0, 1)))
        r2 = Restriction(g_pd, ((1,), (1,)))
        with pytest.raises(StructuralError):
            check_monotonic_pair(StrictPure(), r1, r2)


class TestProofShape:
    def test_fixture_steps(self, g_pd, g_mix, g_belief):
        cases = [
            (StrictPure(), g_pd),
            (StrictMixed(), g_mix),
            (NeverBestResponse(PURE), g_belief),
        ]
        for rel, g in cases:
            for step in reachable_steps(rel, g):
                assert check_proof_shape(rel, step)

    def test_random_games(self):
        rng = random.Random(52)
        for _ in range(10):
            g = random_game(rng, 2)
            for step in reachable_steps(StrictPure(), g):
                assert check_proof_shape(StrictPure(), step)


class TestOneHereditarityPredicate:
    """The three checkers share one loop: on seeded steps (steps of the
    walk, and steps that remove undominated strategies too) the pair check
    returns the step check's witness, and the proof shape the former
    residue check's answer."""

    @staticmethod
    def _steps(rng, rel, g, count):
        """Up to `count` steps R -> R'.  R is reachable, or a random
        restriction where every player keeps an undominated strategy; R'
        removes a random subset of R's dominated keys or of all its
        strategies, and keeps one strategy per player."""
        reachable = sorted(reachable_restrictions(rel, g), key=lambda r: r.kept)
        for _ in range(count):
            r = rng.choice(reachable)
            if rng.random() < 0.5:
                kept = [[s for s in range(size) if rng.random() < 0.7] for size in g.sizes]
                r = Restriction(g, tuple(tuple(ks or [0]) for ks in kept))
            dom = dominated_set(rel, r)
            if any(all((i, s) in dom for s in ks) for i, ks in enumerate(r.kept)):
                continue
            pool = dom if rng.random() < 0.5 else tuple(r.strategies())
            removed = tuple(k for k in pool if rng.random() < 0.5)
            survivors = set(r.strategies()) - set(removed)
            if removed and len({i for i, _ in survivors}) == r.n:
                yield ReductionStep(r, r.remove(removed), removed)

    def test_checkers_equal_the_former_loops(self):
        rng = random.Random(71)
        games = [random_game(rng, 3 if k % 4 == 0 else 2) for k in range(12)]
        witnesses = false_shapes = true_shapes = 0
        for g in games:
            rels = simple_relations(g.n) + [
                Intersection((StrictPure(), Inherent())),
                Intersection((StrictMixed(), NeverBestResponse(PURE, global_pool=True))),
            ]
            for rel in rels:
                for step in self._steps(rng, rel, g, 100):
                    witness = check_hereditary_step(rel, step)
                    shape = proof_shape_reference(rel, step)
                    assert check_monotonic_pair(rel, step.before, step.after) == witness
                    assert check_proof_shape(rel, step) == shape
                    witnesses += witness is not None
                    false_shapes += not shape
                    true_shapes += shape
        assert witnesses > 0 and false_shapes > 0 and true_shapes > 0


class TestUnheldReadsDom:
    """`_unheld` reads the condition from dom(R) and asks R' only about
    the keys of dom(R) that R' keeps: it finds the former loop's witness,
    and decides R' only when one of those keys lies in it."""

    @staticmethod
    def _cases(seed, count):
        rng = random.Random(seed)
        for k in range(count):
            g = random_game(rng, 3 if k % 4 == 0 else 2)
            rels = simple_relations(g.n) + [
                Intersection((StrictPure(), Inherent())),
                Intersection((StrictMixed(), NeverBestResponse(PURE, global_pool=True))),
            ]
            yield rng, g, rels

    @staticmethod
    def _nested_pair(rng, g):
        """A random restriction R of g and a random R' inside it."""
        r = Restriction(
            g, tuple(tuple(s for s in range(k) if rng.random() < 0.7) or (0,) for k in g.sizes)
        )
        kept = tuple(tuple(s for s in ks if rng.random() < 0.5) or ks[:1] for ks in r.kept)
        return r, Restriction(g, kept)

    def test_equals_the_former_loop_on_every_reachable_step(self):
        """Every relation here is hereditary, so both find no witness; at
        some steps R' keeps a key of dom(R) and is asked about it."""
        kept_dominated = steps = 0
        for _, g, rels in self._cases(91, 8):
            for rel in rels:
                for step in reachable_steps(rel, g):
                    witness = _unheld(rel, step.before, step.after)
                    assert witness == unheld_reference(rel, step.before, step.after)
                    kept_dominated += any(
                        step.after.contains(i, s) for i, s in dominated_set(rel, step.before)
                    )
                    steps += 1
        assert steps > kept_dominated > 0

    def test_equals_the_former_loop_on_random_nested_pairs(self):
        witnesses = 0
        for rng, g, rels in self._cases(92, 12):
            for rel in rels:
                for _ in range(20):
                    r, r2 = self._nested_pair(rng, g)
                    witness = check_monotonic_pair(rel, r, r2)
                    assert witness == unheld_reference(rel, r, r2)
                    witnesses += witness is not None
        assert witnesses > 0

    def test_restriction_outside_dom_is_not_decided(self):
        """When R' keeps no key of dom(R), the memo holds no entry for R'
        after the check; when it keeps one, R' is decided."""
        skipped = decided = 0
        for rng, g, rels in self._cases(93, 12):
            for rel in rels:
                for _ in range(20):
                    game = Game(g.labels, g.payoffs)
                    r, r2 = self._nested_pair(rng, game)
                    dom = dominated_set(rel, r)
                    if r2 == r or not dom:
                        continue
                    check_monotonic_pair(rel, r, r2)
                    held = any(r2.contains(i, s) for i, s in dom)
                    assert any(key[1] == r2 for key in game.memo) == held, (rel, r.kept)
                    skipped += not held
                    decided += held
        assert skipped > 0 and decided > 0


class TestNoCertificateOutsideATrace:
    """Deciding, walking, checking and verifying read dominated keys only:
    with every way to build a certificate refused, they still pass."""

    @staticmethod
    def _refuse_certificates(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate was built outside a trace")

        original = dominance.certify
        for name, module in list(sys.modules.items()):
            if name == "domelim" or name.startswith("domelim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        for cls in (StrictPure, StrictMixed, NeverBestResponse, Inherent, Intersection):
            monkeypatch.setattr(cls, "certify", refuse)

    def test_walk_checkers_and_verification(self, monkeypatch):
        rng = random.Random(81)
        games = [random_game(rng, 3 if k % 4 == 0 else 2) for k in range(8)]
        cases = [
            (g, rel)
            for g in games
            for rel in simple_relations(g.n) + [Intersection((StrictMixed(), Inherent()))]
        ]
        traces = [dump_trace(normal_form(rel, g, SingleLex())) for g, rel in cases]
        assert any('"certificate"' in text for text in traces)
        self._refuse_certificates(monkeypatch)
        with pytest.raises(AssertionError, match="outside a trace"):
            dominance.certify(StrictPure(), Restriction.full(games[0]), 0, 0)
        steps = 0
        for (g, rel), text in zip(cases, traces):
            fresh = Game(g.labels, g.payoffs)
            assert all_outcomes(rel, fresh).complete
            for step in reachable_steps(rel, fresh):
                assert check_hereditary_step(rel, step) is None
                assert check_proof_shape(rel, step)
                steps += 1
            verify_trace_document(json.loads(text), parse_game(write_game(g)))
        assert steps > 0
