"""Exact simplex and the two game-theoretic decision oracles."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from domelim import lp as lp_module
from domelim.errors import StructuralError, UnsupportedConfiguration
from domelim.game import BeliefMode, CorrelatedBelief, Restriction
from domelim.generate import random_game
from domelim.lp import (
    EQ,
    GEQ,
    INFEASIBLE,
    LEQ,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    best_response_feasible,
    max_min_advantage,
    solve,
)

from oracles import (
    best_response_scan,
    check_feasible,
    expected_payoff,
    fraction_simplex,
    grid_refutes_mixed_dominance,
    maxmin_two_support,
)


def lp(obj, cons, nonneg=None):
    obj = tuple(F(x) for x in obj)
    cons = tuple((tuple(F(c) for c in row), cmp, F(rhs)) for row, cmp, rhs in cons)
    if nonneg is None:
        nonneg = tuple(True for _ in obj)
    return LinearProgram(obj, cons, tuple(nonneg))


class TestSolve:
    def test_single_upper_bound(self):
        out = solve(lp([1], [([1], LEQ, 3)]))
        assert out.status == OPTIMAL
        assert out.value == 3
        assert out.solution == (3,)

    def test_unbounded(self):
        out = solve(lp([1], []))
        assert out.status == UNBOUNDED

    def test_infeasible(self):
        out = solve(lp([0], [([1], LEQ, -1)]))
        assert out.status == INFEASIBLE

    def test_equality_and_free_variable(self):
        # maximize x + y with x + y = 2, x <= 5, y free
        out = solve(lp([1, 1], [([1, 1], EQ, 2), ([1, 0], LEQ, 5)], [True, False]))
        assert out.status == OPTIMAL
        assert out.value == 2

    def test_degenerate_no_cycling(self):
        # Classic Beale-style degeneracy; Bland must terminate.
        out = solve(
            lp(
                [F(3, 4), -150, F(1, 50), -6],
                [
                    ([F(1, 4), -60, F(-1, 25), 9], LEQ, 0),
                    ([F(1, 2), -90, F(-1, 50), 3], LEQ, 0),
                    ([0, 0, 1, 0], LEQ, 1),
                ],
            )
        )
        assert out.status == OPTIMAL
        assert out.value == F(1, 20)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            LinearProgram((F(1),), (((F(1), F(2)), LEQ, F(0)),), (True,))

    def test_optimal_solutions_substitute_exactly(self):
        rng = random.Random(11)
        for _ in range(60):
            nv = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [F(rng.randint(-3, 3)) for _ in range(nv)]
                rows.append((tuple(coeffs), rng.choice([LEQ, EQ, GEQ]), F(rng.randint(-3, 3))))
            prog = LinearProgram(
                tuple(F(rng.randint(-3, 3)) for _ in range(nv)),
                tuple(rows),
                tuple(rng.random() < 0.8 for _ in range(nv)),
            )
            out = solve(prog)
            if out.status == OPTIMAL:
                assert check_feasible(prog, out.solution)
                obj = sum((c * x for c, x in zip(prog.objective, out.solution)), F(0))
                assert obj == out.value

    def test_agrees_with_scipy(self):
        scipy = pytest.importorskip("scipy.optimize")
        rng = random.Random(7)
        for _ in range(40):
            nv = rng.randint(1, 4)
            nc = rng.randint(1, 4)
            A = [[rng.randint(-3, 3) for _ in range(nv)] for _ in range(nc)]
            b = [rng.randint(0, 4) for _ in range(nc)]
            c = [rng.randint(-3, 3) for _ in range(nv)]
            prog = lp(c, [(row, LEQ, rhs) for row, rhs in zip(A, b)])
            out = solve(prog)
            ref = scipy.linprog(
                [-x for x in c], A_ub=A, b_ub=b, bounds=[(0, None)] * nv, method="highs"
            )
            if out.status == OPTIMAL:
                assert ref.status == 0
                assert abs(float(out.value) + ref.fun) < 1e-8
            elif out.status == UNBOUNDED:
                assert ref.status == 3
            else:
                assert ref.status == 2


def _coeff(rng):
    return F(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3, 4]))


def _random_program(rng):
    """Small LP with fractional entries, any sign of rhs, all three row
    kinds, free variables and, often, an `=` row repeated up to a factor."""
    nv = rng.randint(1, 5)
    rows = [
        (tuple(_coeff(rng) for _ in range(nv)), rng.choice([LEQ, EQ, GEQ]), F(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, 5))
    ]
    if rng.random() < 0.4:
        eq_rows = [row for row in rows if row[1] == EQ]
        if not eq_rows:
            eq_rows = [(tuple(_coeff(rng) for _ in range(nv)), EQ, F(rng.randint(-4, 4)))]
            rows += eq_rows
        coeffs, _, rhs = rng.choice(eq_rows)
        k = F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        rows.insert(rng.randrange(len(rows) + 1), (tuple(k * c for c in coeffs), EQ, k * rhs))
    if rng.random() < 0.5:
        rows.append((tuple(F(1) for _ in range(nv)), LEQ, F(rng.randint(0, 6))))
    return LinearProgram(
        tuple(_coeff(rng) for _ in range(nv)),
        tuple(rows),
        tuple(rng.random() < 0.75 for _ in range(nv)),
    )


class TestIntegerTableau:
    """`solve` pivots along the same Bland path as the `Fraction` tableau."""

    def _assert_same(self, monkeypatch, programs):
        pivots = Counter()
        original = lp_module._pivot

        def counting(*args):
            pivots["calls"] += 1
            return original(*args)

        monkeypatch.setattr(lp_module, "_pivot", counting)
        seen = Counter()
        for prog in programs:
            ref, stats = fraction_simplex(prog)
            pivots.clear()
            out = solve(prog)
            assert (out.status, out.value, out.solution) == (ref.status, ref.value, ref.solution)
            assert pivots["calls"] == stats["pivots"]
            seen[ref.status] += 1
            seen["negative rhs"] += any(rhs < 0 for _, _, rhs in prog.constraints)
            seen["= row"] += any(cmp == EQ for _, cmp, _ in prog.constraints)
            seen["free variable"] += not all(prog.nonneg)
            seen["redundant row dropped"] += stats["dropped_rows"] > 0
            seen["negative pivot"] += stats["negative_pivots"] > 0
        return seen

    def test_random_programs(self, monkeypatch):
        rng = random.Random(2024)
        seen = self._assert_same(monkeypatch, [_random_program(rng) for _ in range(600)])
        for case in (OPTIMAL, INFEASIBLE, UNBOUNDED, "negative rhs", "= row",
                     "free variable", "redundant row dropped", "negative pivot"):
            assert seen[case] > 0, case

    def test_oracle_programs(self, monkeypatch):
        programs = []
        real_solve = lp_module.solve

        def recording(prog):
            programs.append(prog)
            return real_solve(prog)

        monkeypatch.setattr(lp_module, "solve", recording)
        rng = random.Random(17)
        for k in range(12):
            r = Restriction.full(random_game(rng, 3 if k % 4 == 0 else 2))
            for i, s in r.strategies():
                pool = [t for t in r.kept[i] if t != s]
                if pool:
                    max_min_advantage(r, i, s, pool)
                best_response_feasible(r, i, s, BeliefMode.CORRELATED)
        monkeypatch.undo()
        # Integer payoffs give integer programs: the oracles wrap nothing.
        for prog in programs:
            numbers = list(prog.objective)
            for coeffs, _, rhs in prog.constraints:
                numbers += [*coeffs, rhs]
            assert all(type(x) is int for x in numbers)
        seen = self._assert_same(monkeypatch, programs)
        assert seen[OPTIMAL] > 0 and seen[INFEASIBLE] > 0


class TestMaxMinAdvantage:
    def test_mix_middle_row(self, r_mix):
        eps, m = max_min_advantage(r_mix, 0, 1, [0, 2])
        assert eps == F(1, 2)
        assert m.as_dict() == {0: F(1, 2), 2: F(1, 2)}
        assert eps == maxmin_two_support(r_mix, 0, 1, 0, 2)

    def test_pd_cooperate(self, r_pd):
        eps, m = max_min_advantage(r_pd, 0, 0, [1])
        assert eps == 1
        assert m.support == (1,)

    def test_belief_middle_not_dominated(self, r_belief):
        eps, _ = max_min_advantage(r_belief, 0, 1, [0, 2])
        assert eps <= 0
        assert eps == maxmin_two_support(r_belief, 0, 1, 0, 2)
        assert grid_refutes_mixed_dominance(r_belief, 0, 1, [0, 2])

    def test_empty_pool_rejected(self, r_pd):
        with pytest.raises(StructuralError):
            max_min_advantage(r_pd, 0, 0, [])

    def test_matches_two_support_oracle_on_random_games(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_game(rng, 2)
            r = Restriction.full(g)
            i = rng.randrange(2)
            strategies = list(r.kept[i])
            if len(strategies) < 3:
                continue
            s = strategies[0]
            a, b = strategies[1], strategies[2]
            eps, _ = max_min_advantage(r, i, s, [a, b])
            assert eps == maxmin_two_support(r, i, s, a, b)


class TestBestResponseFeasible:
    def test_belief_middle_pure_none(self, r_belief):
        assert best_response_feasible(r_belief, 0, 1, BeliefMode.PURE) is None
        assert best_response_scan(r_belief, 0, 1, r_belief.kept[0]) is None

    def test_pure_witness_is_a_point_mass(self, r_belief):
        mu = best_response_feasible(r_belief, 0, 0, BeliefMode.PURE)
        assert mu == CorrelatedBelief.of(0, {(0,): F(1)})

    def test_belief_middle_correlated_witness(self, r_belief):
        mu = best_response_feasible(r_belief, 0, 1, BeliefMode.CORRELATED)
        assert isinstance(mu, CorrelatedBelief)
        mine = expected_payoff(r_belief.game, 0, 1, mu)
        for t in r_belief.kept[0]:
            assert expected_payoff(r_belief.game, 0, t, mu) <= mine

    def test_pd_cooperate_none(self, r_pd):
        assert best_response_feasible(r_pd, 0, 0, BeliefMode.CORRELATED) is None

    def test_mixed_independent_two_players(self, r_belief):
        witness = best_response_feasible(r_belief, 0, 1, BeliefMode.MIXED_INDEPENDENT)
        assert isinstance(witness, CorrelatedBelief)
        assert all(len(opp) == 1 for opp, _ in witness.probs)
        mine = expected_payoff(r_belief.game, 0, 1, witness)
        for t in r_belief.kept[0]:
            assert expected_payoff(r_belief.game, 0, t, witness) <= mine

    def test_mixed_independent_three_players_rejected(self):
        g = random_game(random.Random(0), 3)
        r = Restriction.full(g)
        with pytest.raises(UnsupportedConfiguration):
            best_response_feasible(r, 0, 0, BeliefMode.MIXED_INDEPENDENT)


class TestDualityCrossCheck:
    """Strict mixed dominance iff no correlated belief admits a best response.

    Two independently implemented LPs act as mutual oracles.
    """

    def _check(self, r):
        for i in range(r.n):
            for s in r.kept[i]:
                pool = [t for t in r.kept[i] if t != s]
                if not pool:
                    continue
                eps, _ = max_min_advantage(r, i, s, pool)
                witness = best_response_feasible(r, i, s, BeliefMode.CORRELATED)
                assert (eps > 0) == (witness is None)

    def test_fixtures(self, r_pd, r_mix, r_belief, r_one):
        for r in (r_pd, r_mix, r_belief, r_one):
            self._check(r)

    def test_random_games(self):
        rng = random.Random(13)
        for k in range(40):
            self._check(Restriction.full(random_game(rng, 3 if k % 5 == 0 else 2)))
