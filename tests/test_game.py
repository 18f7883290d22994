"""Game model: payoffs, restrictions, mixed strategies, beliefs."""

import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from domelim import dominance, generate
from domelim.errors import StructuralError
from domelim.game import (
    CorrelatedBelief,
    Game,
    MixedStrategy,
    Restriction,
    restriction_leq,
)
from domelim.gamefile import parse_game
from domelim.generate import random_game

from oracles import expected_payoff, full_joint, joints, payoff


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

    def test_error_messages(self):
        cases = [
            ((("a",),), (F(0),), "at least 2 players required"),
            ((("a",), ()), (), "player 1 has no strategies"),
            ((("a", "a"), ("x",)), (F(0),) * 4, "player 0 has duplicate strategy labels"),
            ((("a", "b"), ("x",)), (F(0),) * 2, "payoff tensor has 2 entries, expected 4"),
            ((("a",), ("x",)), (F(0), 0), "payoffs must be Fractions"),
        ]
        for labels, payoffs, message in cases:
            with pytest.raises(StructuralError) as exc:
                Game(labels, payoffs)
            assert str(exc.value) == message

    def test_payoff_tables_built_on_first_use(self):
        g = random_game(random.Random(5), 3)
        assert "player_payoffs" not in vars(g)
        Restriction.full(g).payoff_rows(0, [0])
        assert "player_payoffs" in vars(g)

    def test_beats_table_built_on_first_decision(self):
        suite = generate.game_suite(5, 6, 2)
        assert all("beats" not in vars(g) for g in suite)
        g = random_game(random.Random(5), 3)
        assert "beats" not in vars(g)
        Restriction.full(g).payoff_rows(0, [0])
        assert "beats" not in vars(g)
        dominance.dominated_set(dominance.StrictPure(), Restriction.full(g))
        assert "beats" in vars(g)


class TestGameIdentity:
    def test_equal_games_hash_equal_and_keep_their_own_memo(self, g_pd):
        g1 = Game.from_table(g_pd.labels, [g_pd.payoffs[k : k + 2] for k in range(0, 8, 2)])
        g2 = Game.from_table(g_pd.labels, [g_pd.payoffs[k : k + 2] for k in range(0, 8, 2)])
        assert g1 is not g2
        assert g1 == g2 and hash(g1) == hash(g2)
        assert hash(g1) == hash(g1)
        rel = dominance.StrictPure()
        keys = dominance._dominated_keys(rel, Restriction.full(g1))
        assert keys
        assert g1.memo[(rel, Restriction.full(g1))] is keys
        assert (rel, Restriction.full(g2)) not in g2.memo

    def test_built_tables_leave_equality_and_hash_alone(self):
        # Memo keys and outcome sets hash restrictions, and so their game.
        built = random_game(random.Random(6), 3)
        dominance.dominated_set(dominance.Inherent(), Restriction.full(built))
        fresh = random_game(random.Random(6), 3)
        assert "beats" in vars(built) and "player_payoffs" in vars(built)
        assert "beats" not in vars(fresh) and "_hash" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        r1, r2 = Restriction.full(built), Restriction.full(fresh)
        assert r1 == r2 and hash(r1) == hash(r2)

    def test_one_payoff_apart_compares_unequal(self):
        g1 = random_game(random.Random(7), 2)
        changed = list(g1.payoffs)
        changed[-1] += 1
        g2 = Game(g1.labels, tuple(changed))
        assert g1 != g2
        assert Restriction.full(g1) != Restriction.full(g2)


class TestBeatsTable:
    def test_masks_agree_with_payoff_rows(self):
        # Bit o of a mask is the opponent joint at flat offset o, and those
        # offsets rise in odometer order, so the set bits of R's opponent
        # mask, low to high, are `opponent_joints(i)` in order.
        rng = random.Random(8)
        pairs = 0
        for k in range(40):
            g = random_game(rng, 3 if k % 3 == 0 else 2)
            if k % 2:
                g = Game(g.labels, tuple(p / 2 for p in g.payoffs))
            kept = tuple(
                tuple(s for s in range(size) if rng.random() < 0.7) or (rng.randrange(size),)
                for size in g.sizes
            )
            r = Restriction(g, kept)
            for i in range(g.n):
                m = r.opponent_mask(i)
                bits = [o for o in range(g.num_joints) if m >> o & 1]
                assert len(bits) == len(r.opponent_joints(i))
                rows = r.payoff_rows(i, range(g.sizes[i]))
                for t, row_t in enumerate(rows):
                    for s, row_s in enumerate(rows):
                        got = [g.beats[i][t][s] >> o & 1 == 1 for o in bits]
                        assert got == [x > y for x, y in zip(row_t, row_s)]
                        pairs += 1
        assert pairs > 0

    def test_opponent_mask_checks_the_player(self, r_pd):
        with pytest.raises(StructuralError):
            r_pd.opponent_mask(2)


class TestPayoffPure:
    def test_pd_cooperate(self, g_pd):
        assert payoff(g_pd, 0, (0, 0)) == 2

    def test_one_by_one(self, g_one):
        assert payoff(g_one, 0, (0, 0)) == 0
        assert payoff(g_one, 1, (0, 0)) == 0

    def test_mix_column_all_zero(self, g_mix):
        for joint in joints(g_mix):
            assert payoff(g_mix, 1, joint) == 0

    def test_out_of_bounds(self, g_pd):
        with pytest.raises(StructuralError):
            payoff(g_pd, 0, (2, 0))
        with pytest.raises(StructuralError):
            payoff(g_pd, 2, (0, 0))

    def test_total_on_random_games(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_game(rng, rng.choice([2, 3]))
            for joint in joints(g):
                for i in range(g.n):
                    payoff(g, i, joint)


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
                b = CorrelatedBelief.of(0, {(o,): F(1)})
                assert expected_payoff(g_pd, 0, s, b) == payoff(g_pd, 0, (s, o))

    def test_point_mass_correlated_equals_pure(self):
        rng = random.Random(2)
        for _ in range(5):
            g = random_game(rng, rng.choice([2, 3]))
            r = Restriction.full(g)
            for i in range(g.n):
                for opp in r.opponent_joints(i):
                    mu = CorrelatedBelief.of(i, {opp: F(1)})
                    for s in range(g.sizes[i]):
                        assert expected_payoff(g, i, s, mu) == payoff(
                            g, i, full_joint(r, i, s, opp)
                        )

    def test_wrong_player_rejected(self, g_pd):
        with pytest.raises(StructuralError):
            expected_payoff(g_pd, 0, 0, CorrelatedBelief.of(1, {(0,): F(1)}))


class TestRestrictionTable:
    """`Game.restrictions`: one `Restriction` per bitmask, per game."""

    def test_one_object_per_mask(self):
        g = random_game(random.Random(3), 3)
        table = g.restrictions
        assert table.base == (0, 3, 6, 9) and table.full == (1 << 9) - 1
        mask = 0b110_001_011  # player 0 keeps s0 and s1, 1 keeps s0, 2 keeps s1 and s2
        r = table[mask]
        assert table[mask] is r and r.kept == ((0, 1), (0,), (1, 2))
        assert r == Restriction(g, r.kept) and hash(r) == hash(Restriction(g, r.kept))
        assert Restriction.full(g) is Restriction.full(g) is table[table.full]
        assert g.restrictions is table and len(table) == 2

    def test_equal_games_keep_separate_tables(self, g_pd):
        g1 = Game(g_pd.labels, g_pd.payoffs)
        g2 = Game(g_pd.labels, g_pd.payoffs)
        assert g1 == g2 and g1.restrictions is not g2.restrictions
        r1, r2 = Restriction.full(g1), Restriction.full(g2)
        assert r1 == r2 and r1 is not r2
        assert r1.game is g1 and r2.game is g2

    def test_table_dies_with_its_game(self):
        g = random_game(random.Random(4), 2)
        dominance.dominated_set(dominance.StrictPure(), Restriction.full(g))
        entry = weakref.ref(Restriction.full(g))
        game = weakref.ref(g)
        del g
        gc.collect()
        assert entry() is None and game() is None


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

    @pytest.mark.parametrize("players", [2, 3])
    @pytest.mark.parametrize("which", ["-1", "n"])
    def test_contains_checks_the_player(self, players, which):
        r = Restriction.full(random_game(random.Random(players), players))
        i = -1 if which == "-1" else players
        with pytest.raises(StructuralError, match=f"player index {i} out of range"):
            r.contains(i, 0)
        with pytest.raises(StructuralError, match=f"player index {i} out of range"):
            r.remove([(i, 0)])

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


class TestPlayerPayoffs:
    @staticmethod
    def assert_tables_exact(g):
        for i in range(g.n):
            table = g.player_payoffs[i]
            assert table == g.payoffs[i :: g.n]
            for x, exact in zip(table, g.payoffs[i :: g.n]):
                assert type(x) is (int if exact.denominator == 1 else F)

    def test_ints_exactly_where_whole(self):
        rng = random.Random(10)
        for k in range(20):
            g = random_game(rng, 2 if k % 2 else 3)
            self.assert_tables_exact(g)
            assert {type(x) for row in g.player_payoffs for x in row} == {int}

    def test_parsed_fractional_payoffs(self):
        g = parse_game(
            "players 2\nlabels 1: U D\nlabels 2: L R\npayoffs\n"
            "1/2 3\n-4/6 0\n2 7/3\n-1 -5/2\n"
        )
        self.assert_tables_exact(g)
        assert g.player_payoffs == ((F(1, 2), F(-2, 3), 2, -1), (3, 0, F(7, 3), F(-5, 2)))
        assert {type(x) for row in g.player_payoffs for x in row} == {int, F}


class TestPayoffRows:
    def test_rows_match_payoff_on_random_restrictions(self):
        rng = random.Random(8)
        for k in range(40):
            g = random_game(rng, 2 if k % 2 else 3)
            kept = []
            for size in g.sizes:
                chosen = tuple(s for s in range(size) if rng.random() < 0.5)
                kept.append(chosen or (rng.randrange(size),))
            r = Restriction(g, tuple(kept))
            for i in range(g.n):
                strategies = list(range(g.sizes[i]))  # G_i, not only R_i
                rng.shuffle(strategies)
                rows = r.payoff_rows(i, strategies)
                assert len(rows) == len(strategies)
                for t, row in zip(strategies, rows):
                    assert row == [
                        payoff(g, i, full_joint(r, i, t, opp)) for opp in r.opponent_joints(i)
                    ]

    def test_rows_reject_bad_indices(self, r_pd):
        with pytest.raises(StructuralError):
            r_pd.payoff_rows(2, [0])
        with pytest.raises(StructuralError):
            r_pd.payoff_rows(0, [0, 2])
        with pytest.raises(StructuralError):
            r_pd.payoff_rows(0, [-1])

    def test_opponent_positions(self, g_pd):
        r = Restriction(g_pd, ((0, 1), (1,)))
        assert r.opponent_positions(0, [(1,)]) == [0]
        with pytest.raises(StructuralError):
            r.opponent_positions(0, [(0,)])
        with pytest.raises(StructuralError):
            r.opponent_positions(0, [(1, 1)])


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
