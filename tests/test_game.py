"""Game model: payoffs, restrictions, mixed strategies, beliefs."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from domelim.errors import StructuralError
from domelim.game import (
    CorrelatedBelief,
    Game,
    JointPureBelief,
    MixedProfileBelief,
    MixedStrategy,
    Restriction,
    expected_payoff,
    restriction_leq,
)
from domelim.generate import random_game


class TestGameConstruction:
    def test_rejects_single_player(self):
        with pytest.raises(StructuralError):
            Game.from_table([["a"]], [(0,)])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(StructuralError):
            Game.from_table([["a", "a"], ["x"]], [(0, 0), (0, 0)])

    def test_rejects_incomplete_tensor(self):
        with pytest.raises(StructuralError):
            Game.from_table([["a", "b"], ["x"]], [(0, 0)])

    def test_rejects_floats(self):
        with pytest.raises(StructuralError):
            Game.from_table([["a"], ["x"]], [(0.5, 0)])


class TestPayoffPure:
    def test_pd_cooperate(self, g_pd):
        assert g_pd.payoff(0, (0, 0)) == 2

    def test_one_by_one(self, g_one):
        assert g_one.payoff(0, (0, 0)) == 0
        assert g_one.payoff(1, (0, 0)) == 0

    def test_mix_column_all_zero(self, g_mix):
        for joint in g_mix.joints():
            assert g_mix.payoff(1, joint) == 0

    def test_out_of_bounds(self, g_pd):
        with pytest.raises(StructuralError):
            g_pd.payoff(0, (2, 0))
        with pytest.raises(StructuralError):
            g_pd.payoff(2, (0, 0))

    def test_total_on_random_games(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_game(rng, rng.choice([2, 3]))
            for joint in g.joints():
                for i in range(g.n):
                    g.payoff(i, joint)


class TestExpectedPayoff:
    def test_belief_middle_uniform(self, g_belief):
        mu = CorrelatedBelief.of(0, {(0,): F(1, 2), (1,): F(1, 2)})
        assert expected_payoff(g_belief, 0, 1, mu) == 2

    def test_belief_up_uniform(self, g_belief):
        mu = CorrelatedBelief.of(0, {(0,): F(1, 2), (1,): F(1, 2)})
        assert expected_payoff(g_belief, 0, 0, mu) == F(3, 2)

    def test_joint_pure_degenerate(self, g_pd):
        for s in range(2):
            for o in range(2):
                b = JointPureBelief(0, (o,))
                assert expected_payoff(g_pd, 0, s, b) == g_pd.payoff(0, (s, o))

    def test_point_mass_correlated_equals_pure(self):
        rng = random.Random(2)
        for _ in range(5):
            g = random_game(rng, rng.choice([2, 3]))
            r = Restriction.full(g)
            for i in range(g.n):
                for opp in r.opponent_joints(i):
                    mu = CorrelatedBelief.of(i, {opp: F(1)})
                    for s in range(g.sizes[i]):
                        assert expected_payoff(g, i, s, mu) == g.payoff(
                            i, r.full_joint(i, s, opp)
                        )

    def test_profile_of_points_equals_joint_pure(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_game(rng, 3)
            r = Restriction.full(g)
            for i in range(g.n):
                opponents = [j for j in range(g.n) if j != i]
                for opp in r.opponent_joints(i):
                    profile = MixedProfileBelief(
                        i, tuple(MixedStrategy.point(j, s) for j, s in zip(opponents, opp))
                    )
                    for s in range(g.sizes[i]):
                        assert expected_payoff(g, i, s, profile) == expected_payoff(
                            g, i, s, JointPureBelief(i, opp)
                        )

    def test_two_player_profile_matches_correlated(self):
        rng = random.Random(4)
        for _ in range(5):
            g = random_game(rng, 2)
            for i in range(2):
                j = 1 - i
                weights = {s: F(1, g.sizes[j]) for s in range(g.sizes[j])}
                profile = MixedProfileBelief(i, (MixedStrategy.of(j, weights),))
                corr = CorrelatedBelief.of(i, {(s,): w for s, w in weights.items()})
                for s in range(g.sizes[i]):
                    assert expected_payoff(g, i, s, profile) == expected_payoff(
                        g, i, s, corr
                    )

    def test_wrong_player_rejected(self, g_pd):
        with pytest.raises(StructuralError):
            expected_payoff(g_pd, 0, 0, JointPureBelief(1, (0,)))


class TestRestriction:
    def test_leq_subset(self, g_pd, r_pd):
        sub = Restriction(g_pd, ((1,), (1,)))
        assert restriction_leq(sub, r_pd)
        assert not restriction_leq(r_pd, sub)

    def test_leq_incomparable(self, g_pd):
        r1 = Restriction(g_pd, ((0,), (0, 1)))
        r2 = Restriction(g_pd, ((1,), (1,)))
        assert not restriction_leq(r2, r1)

    def test_leq_reflexive(self, r_pd, r_mix, r_one):
        for r in (r_pd, r_mix, r_one):
            assert restriction_leq(r, r)

    def test_leq_different_games(self, g_pd, g_mix):
        with pytest.raises(StructuralError):
            restriction_leq(Restriction.full(g_pd), Restriction.full(g_mix))

    def test_empty_component_rejected(self, g_pd):
        with pytest.raises(StructuralError):
            Restriction(g_pd, ((), (0, 1)))

    def test_remove_unknown_rejected(self, g_pd):
        sub = Restriction(g_pd, ((1,), (0, 1)))
        with pytest.raises(StructuralError):
            sub.remove([(0, 0)])


class TestOpponentJoints:
    def test_two_player(self, r_pd):
        assert r_pd.opponent_joints(0) == ((0,), (1,))

    def test_one_by_one(self, r_one):
        assert r_one.opponent_joints(0) == ((0,),)
        assert r_one.opponent_joints(1) == ((0,),)

    def test_three_player_odometer(self):
        g = random_game(random.Random(0), 3)
        r = Restriction(g, ((0,), (0, 1), (0, 1, 2)))
        joints = r.opponent_joints(0)
        assert len(joints) == 6
        assert joints == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


class TestMixedStrategy:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            MixedStrategy.of(0, {0: F(1, 2)})

    def test_negative_weight_rejected(self):
        with pytest.raises(StructuralError):
            MixedStrategy.of(0, {0: F(3, 2), 1: F(-1, 2)})

    def test_zero_weights_dropped(self):
        m = MixedStrategy.of(0, {0: F(1), 1: F(0)})
        assert m.support == (0,)

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=5).map(
            lambda ws: ws if any(ws) else [1] + ws[1:]
        )
    )
    def test_normalized_weights_accepted(self, raw):
        total = sum(raw)
        m = MixedStrategy.of(0, {k: F(w, total) for k, w in enumerate(raw)})
        assert sum((m.weight(k) for k in range(len(raw))), F(0)) == 1
        assert m.support == tuple(k for k, w in enumerate(raw) if w)
