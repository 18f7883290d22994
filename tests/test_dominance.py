"""The seven relations, certificates, and the persistence construction."""

import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

from domelim import dominance, lp
from domelim.dominance import (
    Inherent,
    InherentEvidence,
    Intersection,
    IntersectionEvidence,
    MixedDominator,
    NeverBest,
    NeverBestResponse,
    StrictMixed,
    StrictPure,
    certify,
    dominated_set,
    is_dominated,
    is_inherently_dominated,
    parse_relation,
    strictly_dominates_pure,
    verify_certificate,
    weakly_dominates_pure,
)
from domelim.errors import (
    InvalidCertificate,
    StructuralError,
    UnsupportedConfiguration,
)
from domelim.game import BeliefMode, Game, MixedStrategy, Restriction
from domelim.generate import random_game
from domelim.lp import best_response_feasible, max_min_advantage

from fixtures import reachable_restrictions
from oracles import (
    DegenerateDominator,
    decide_reference,
    mixed_strictly_dominates,
    persist_dominator,
    pure_dominator_scan,
    renormalize_without,
    substitute,
    weak_dominator_scan,
)

PURE = BeliefMode.PURE
CORR = BeliefMode.CORRELATED


class TestStrictlyDominatesPure:
    def test_pd_defect_beats_cooperate(self, r_pd):
        assert strictly_dominates_pure(r_pd, 0, 1, 0)

    def test_pd_cooperate_loses(self, r_pd):
        assert not strictly_dominates_pure(r_pd, 0, 0, 1)

    def test_irreflexive(self, r_pd, r_mix, r_belief):
        for r in (r_pd, r_mix, r_belief):
            for i, s in r.strategies():
                assert not strictly_dominates_pure(r, i, s, s)

    def test_matches_scan_oracle(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_game(rng, 2)
            r = Restriction.full(g)
            for i, s in r.strategies():
                engine = is_dominated(StrictPure(), r, i, s)
                oracle = pure_dominator_scan(r, i, s, r.kept[i])
                assert engine == (oracle is not None)


class TestPlayerIndexChecked:
    """A player outside 0..n-1 is a StructuralError in every per-strategy
    test, not a bare IndexError nor an answer about player n-1."""

    @pytest.mark.parametrize("which", ["-1", "n"])
    def test_bad_player_rejected(self, r_pd, which):
        i = -1 if which == "-1" else r_pd.n
        calls = [
            lambda: is_dominated(StrictPure(), r_pd, i, 0),
            lambda: is_dominated(Intersection((StrictPure(), Inherent())), r_pd, i, 0),
            lambda: strictly_dominates_pure(r_pd, i, 1, 0),
            lambda: weakly_dominates_pure(r_pd, i, 1, 0, [(0,)]),
            lambda: is_inherently_dominated(r_pd, i, 0),
        ]
        for call in calls:
            with pytest.raises(StructuralError, match=f"player index {i} out of range"):
                call()


class TestDominatedSet:
    def test_strict_pure_pd(self, r_pd):
        assert set(dominated_set(StrictPure(), r_pd)) == {(0, 0), (1, 0)}

    def test_global_widening_on_sub_restriction(self, g_pd):
        sub = Restriction(g_pd, ((0,), (0, 1)))
        assert set(dominated_set(StrictPure(), sub)) == {(1, 0)}
        raw = dominated_set(StrictPure(global_pool=True), sub)
        assert set(raw) == {(0, 0), (1, 0)}

    def test_strict_mixed_mix(self, r_mix):
        assert set(dominated_set(StrictMixed(), r_mix)) == {(0, 1)}
        assert dominated_set(StrictPure(), r_mix) == ()

    def test_nbr_belief(self, r_belief):
        assert set(dominated_set(NeverBestResponse(PURE), r_belief)) == {(0, 1)}
        assert dominated_set(NeverBestResponse(CORR), r_belief) == ()

    def test_intersection_empty_part_wins(self, r_belief):
        rel = Intersection((StrictPure(), NeverBestResponse(PURE)))
        assert dominated_set(rel, r_belief) == ()

    def test_whole_player_dominated_returned(self, g_pd):
        # Both players' only strategy is globally dominated on this
        # restriction, which no step reaches: the set says so and does
        # not raise, since only reducing needs every player to keep one.
        sub = Restriction(g_pd, ((0,), (0,)))
        assert dominated_set(StrictPure(global_pool=True), sub) == ((0, 0), (1, 0))
        sub = Restriction(g_pd, ((0, 1), (0,)))
        assert dominated_set(StrictPure(global_pool=True), sub) == ((0, 0), (1, 0))

    def test_unsupported_mixed_beliefs_three_players(self):
        g = random_game(random.Random(0), 3)
        r = Restriction.full(g)
        with pytest.raises(UnsupportedConfiguration):
            dominated_set(NeverBestResponse(BeliefMode.MIXED_INDEPENDENT), r)

    def test_certificates_verify(self, r_pd, r_mix, r_belief):
        rels = [
            StrictPure(),
            StrictPure(global_pool=True),
            StrictMixed(),
            StrictMixed(global_pool=True),
            NeverBestResponse(PURE),
            NeverBestResponse(CORR),
            NeverBestResponse(PURE, global_pool=True),
            NeverBestResponse(CORR, global_pool=True),
            Inherent(),
            Intersection((StrictPure(), Inherent())),
        ]
        for r in (r_pd, r_mix, r_belief):
            for rel in rels:
                for i, s in dominated_set(rel, r):
                    assert verify_certificate(rel, r, i, s, certify(rel, r, i, s))


class TestNeverBestCertificates:
    def test_pool_flag_must_match_the_relation(self, r_belief):
        for global_pool in (False, True):
            rel = NeverBestResponse(PURE, global_pool=global_pool)
            cert = certify(rel, r_belief, 0, 1)
            assert verify_certificate(rel, r_belief, 0, 1, cert)
            flipped = replace(cert, global_pool=not global_pool)
            assert not verify_certificate(rel, r_belief, 0, 1, flipped)

    def test_pure_evidence_checked_by_substitution(self, r_belief):
        # M is never a best response to L or R alone: U beats it at L, D at R.
        rel = NeverBestResponse(PURE)
        cert = certify(rel, r_belief, 0, 1)
        assert cert.better == (((0,), 0), ((1,), 2))
        assert verify_certificate(rel, r_belief, 0, 1, cert)
        for better in [
            (((0,), 1),),  # M itself is not better, and R has no entry
            (((0,), 0),),  # R has no entry
            (((0,), 0), ((0,), 0)),  # L twice, R never
            (((0,), 0), ((1,), 0)),  # U is not better at R
            (((0,), 0), ((1,), 2), ((1,), 2)),  # R twice
        ]:
            assert not verify_certificate(rel, r_belief, 0, 1, replace(cert, better=better))

    def test_lp_evidence_on_forged_input(self, g_pd):
        rel = NeverBestResponse(CORR)
        cert = NeverBest(CORR, False)
        sub = Restriction(g_pd, ((1,), (0, 1)))
        with pytest.raises(StructuralError):
            verify_certificate(rel, sub, 0, 0, cert)
        # A sole strategy has no rival to be beaten by.
        assert not verify_certificate(rel, sub, 0, 1, cert)
        r = Restriction.full(g_pd)
        assert verify_certificate(rel, r, 0, 0, cert)
        assert not verify_certificate(rel, r, 0, 1, cert)
        assert not verify_certificate(rel, r, 0, 0, replace(cert, better=(((0,), 1),)))
        indep = NeverBestResponse(BeliefMode.MIXED_INDEPENDENT)
        three = Restriction.full(random_game(random.Random(0), 3))
        with pytest.raises(UnsupportedConfiguration):
            verify_certificate(indep, three, 0, 0, NeverBest(indep.mode, False))

    def test_pure_evidence_must_name_a_pool_strategy(self):
        # G_BELIEF with a row X that beats M everywhere; R leaves X out.
        g = Game.from_table(
            [["U", "M", "D", "X"], ["L", "R"]],
            [(3, 0), (0, 0), (2, 0), (2, 0), (0, 0), (3, 0), (4, 0), (4, 0)],
        )
        r = Restriction(g, ((0, 1, 2), (0, 1)))
        cert = NeverBest(PURE, False, (((0,), 3), ((1,), 3)))
        assert is_dominated(NeverBestResponse(PURE), r, 0, 1)
        assert not verify_certificate(NeverBestResponse(PURE), r, 0, 1, cert)
        glob = replace(cert, global_pool=True)
        assert verify_certificate(NeverBestResponse(PURE, global_pool=True), r, 0, 1, glob)


class TestWeaklyDominatesPure:
    def test_pd_both_columns(self, r_pd):
        assert weakly_dominates_pure(r_pd, 0, 1, 0, [(0,), (1,)])

    def test_single_point_subset(self, r_mix):
        assert weakly_dominates_pure(r_mix, 0, 0, 1, [(0,)])

    def test_self_never(self, r_pd, r_belief):
        for r in (r_pd, r_belief):
            for i, s in r.strategies():
                assert not weakly_dominates_pure(r, i, s, s, r.opponent_joints(i))

    def test_empty_subset_rejected(self, r_pd):
        with pytest.raises(StructuralError):
            weakly_dominates_pure(r_pd, 0, 1, 0, [])

    def test_matches_scan_oracle(self):
        rng = random.Random(22)
        for _ in range(15):
            g = random_game(rng, 2)
            r = Restriction.full(g)
            for i, s in r.strategies():
                subset = r.opponent_joints(i)
                engine = any(
                    weakly_dominates_pure(r, i, t, s, subset)
                    for t in r.kept[i]
                    if t != s
                )
                assert engine == (weak_dominator_scan(r, i, s, subset) is not None)


class TestInherent:
    def test_pd_cooperate(self, r_pd):
        ok, cert = is_inherently_dominated(r_pd, 0, 0)
        assert ok
        # 2 opponent joints -> 3 nonempty subsets, each certified.
        assert len(cert.dominators) == 3
        assert verify_certificate(Inherent(), r_pd, 0, 0, cert)

    def test_belief_middle_not_inherent(self, r_belief):
        ok, cert = is_inherently_dominated(r_belief, 0, 1)
        assert not ok and cert is None

    def test_one_by_one(self, r_one):
        ok, _ = is_inherently_dominated(r_one, 0, 0)
        assert not ok

    def test_cap_enforced(self):
        # Player 0 faces 5 * 4 = 20 opponent joints, past the cap of 16;
        # player 2 faces 2 * 5 = 10, within it.
        sizes = (2, 5, 4)
        labels = [tuple(f"s{k}" for k in range(size)) for size in sizes]
        r = Restriction.full(Game.from_table(labels, [(0, 0, 0)] * 40))
        with pytest.raises(UnsupportedConfiguration, match="^20 opponent joints"):
            is_inherently_dominated(r, 0, 0)
        assert is_inherently_dominated(r, 2, 0) == (False, None)
        # The dominated set raises when it reaches player 0.
        with pytest.raises(UnsupportedConfiguration, match="^20 opponent joints"):
            dominated_set(Inherent(), r)
        # So does checking a certificate there, before it builds any subset.
        forged = InherentEvidence((((r.opponent_joints(0)[0],), 1),))
        with pytest.raises(UnsupportedConfiguration, match="^20 opponent joints"):
            verify_certificate(Inherent(), r, 0, 0, forged)

    def test_strict_pure_implies_inherent(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_game(rng, 2)
            r = Restriction.full(g)
            for (i, s) in dominated_set(StrictPure(), r):
                ok, _ = is_inherently_dominated(r, i, s)
                assert ok


class TestInclusionChains:
    REL_PAIRS = [
        (StrictPure(), StrictMixed()),
        (StrictPure(), StrictPure(global_pool=True)),
        (StrictMixed(), StrictMixed(global_pool=True)),
        (NeverBestResponse(PURE), NeverBestResponse(PURE, global_pool=True)),
        (NeverBestResponse(CORR), NeverBestResponse(CORR, global_pool=True)),
        (StrictPure(), Inherent()),
    ]

    def test_subset_pairs(self, r_pd, r_mix, r_belief, r_one):
        for r in [r_pd, r_mix, r_belief, r_one] + _full_restrictions(31, 12, 4):
            for small, big in self.REL_PAIRS:
                d_small = set(dominated_set(small, r))
                d_big = set(dominated_set(big, r))
                assert d_small <= d_big, (small.name, big.name)

    def test_local_equals_global_on_full_game(self, g_pd, g_mix, g_belief):
        pairs = [
            (StrictPure(), StrictPure(global_pool=True)),
            (StrictMixed(), StrictMixed(global_pool=True)),
            (NeverBestResponse(PURE), NeverBestResponse(PURE, global_pool=True)),
            (NeverBestResponse(CORR), NeverBestResponse(CORR, global_pool=True)),
        ]
        for g in (g_pd, g_mix, g_belief):
            r = Restriction.full(g)
            for local, global_ in pairs:
                assert set(dominated_set(local, r)) == set(
                    dominated_set(global_, r)
                )

    def test_intersection_is_set_intersection(self, r_pd, r_belief):
        rel = Intersection((StrictPure(), NeverBestResponse(PURE)))
        for r in (r_pd, r_belief):
            expected = set(dominated_set(StrictPure(), r)) & set(
                dominated_set(NeverBestResponse(PURE), r)
            )
            assert set(dominated_set(rel, r)) == expected


def _full_restrictions(seed, count, three_player_every=None):
    """Full random games; every `three_player_every`-th (from the first)
    has three players, the rest two."""
    rng = random.Random(seed)
    return [
        Restriction.full(
            random_game(rng, 3 if three_player_every and k % three_player_every == 0 else 2)
        )
        for k in range(count)
    ]


def _random_restrictions(seed, count):
    """Random 2- and 3-player games, each with a random sub-restriction."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        g = random_game(rng, 3 if k % 3 == 0 else 2)
        kept = []
        for size in g.sizes:
            chosen = tuple(s for s in range(size) if rng.random() < 0.7)
            kept.append(chosen or (rng.randrange(size),))
        out.append(Restriction(g, tuple(kept)))
    return out


class TestPureWitnessPrefilter:
    """`dominated_set` skips the LP where a pure best response settles it;
    the LP oracles, always solved here, must agree with every skip."""

    def test_pure_witness_settles_both_lps(self):
        hits = 0
        for r in _random_restrictions(41, 40):
            g = r.game
            for i, s in r.strategies():
                for compare in (None, tuple(range(g.sizes[i]))):
                    pool = compare if compare is not None else r.kept[i]
                    if best_response_feasible(r, i, s, PURE, pool) is None:
                        continue
                    hits += 1
                    rivals = [t for t in pool if t != s]
                    if rivals:
                        assert max_min_advantage(r, i, s, rivals)[0] <= 0
                    assert best_response_feasible(r, i, s, CORR, compare) is not None
        assert hits > 0

    def test_dominated_sets_match_lp_oracles(self, r_pd, r_mix, r_belief, r_one):
        mixed = BeliefMode.MIXED_INDEPENDENT
        restrictions = (
            [r_pd, r_mix, r_belief, r_one]
            + _full_restrictions(31, 12, 4)
            + _full_restrictions(32, 10)
            + _random_restrictions(42, 30)
        )
        for r in restrictions:
            g = r.game
            full_pools = [tuple(range(size)) for size in g.sizes]
            for global_pool in (False, True):
                expected = {}
                for i, s in r.strategies():
                    pool = full_pools[i] if global_pool else r.kept[i]
                    rivals = [t for t in pool if t != s]
                    if rivals:
                        eps, m = max_min_advantage(r, i, s, rivals)
                        if eps > 0:
                            expected[(i, s)] = MixedDominator(m, eps)
                rel = StrictMixed(global_pool=global_pool)
                keys = dominated_set(rel, r)
                assert keys == tuple(expected)
                assert {k: certify(rel, r, *k) for k in keys} == expected
                compare = full_pools if global_pool else [None] * r.n
                for mode in (CORR, mixed) if r.n == 2 else (CORR,):
                    expected = tuple(
                        (i, s)
                        for i, s in r.strategies()
                        if best_response_feasible(r, i, s, mode, compare[i]) is None
                    )
                    rel = NeverBestResponse(mode, global_pool=global_pool)
                    assert dominated_set(rel, r) == expected


def _half_restrictions(seed, count):
    """`_random_restrictions` with every payoff halved: values k/2 for k
    in [-3, 3], so the kernel holds `int`s and non-integer `Fraction`s side
    by side, with as many ties as before."""
    return [
        Restriction(Game(r.game.labels, tuple(p / 2 for p in r.game.payoffs)), r.kept)
        for r in _random_restrictions(seed, count)
    ]


class TestPerPlayerKernel:
    """Each relation decides all of a player's strategies from the game's
    `beats` masks and the restriction's opponent mask; the sets and
    certificates must be the per-strategy reference's, which reads payoff
    rows.  The restrictions cover integer and half-integer payoffs with
    ties, and global pools that hold strategies outside R."""

    RELS = [Inherent()] + [
        rel
        for pool in (False, True)
        for rel in (StrictPure(pool), StrictMixed(pool), NeverBestResponse(PURE, pool))
    ]

    def test_dominated_sets_match_the_per_strategy_reference(
        self, r_pd, r_mix, r_belief, r_one
    ):
        restrictions = (
            [r_pd, r_mix, r_belief, r_one]
            + _full_restrictions(44, 9, 3)
            + _random_restrictions(45, 45)
            + _half_restrictions(46, 45)
        )
        dominated = {rel: 0 for rel in self.RELS}
        halves = 0
        for r in restrictions:
            for rel in self.RELS:
                expected = []
                for i, s in r.strategies():
                    cert = decide_reference(rel, r, i, s)
                    if cert is not None:
                        expected.append(((i, s), cert))
                got = dominated_set(rel, r)
                assert [(k, certify(rel, r, *k)) for k in got] == expected, (rel, r.kept)
                dominated[rel] += len(expected)
                if any(p.denominator == 2 for p in r.game.payoffs):
                    halves += len(expected)
        assert all(dominated.values()), dominated
        assert halves > 0

    def test_global_pools_reach_outside_r(self):
        # Keys a global relation holds and its local twin does not: only a
        # strategy outside R dominates them.
        outside = 0
        for r in _random_restrictions(45, 45) + _half_restrictions(46, 45):
            for local in (StrictPure(), StrictMixed(), NeverBestResponse(PURE)):
                wide = replace(local, global_pool=True)
                held = set(dominated_set(local, r))
                outside += len(set(dominated_set(wide, r)) - held)
        assert outside > 0

    def test_inherent_three_players_hinges_on_a_tie(self):
        # Player 1 (a, b, c) against four opponent joints (x,e) (x,f) (y,e)
        # (y,f); the opponents' payoffs are all 0.  a ties c on the last two
        # joints and beats it on the first two, b the other way round, so on
        # every nonempty subset one of them is >= c with > somewhere: c is
        # inherently dominated, though neither beats it strictly.
        def game(a, b, c):
            rows = [(x, 0, 0) for row in (a, b, c) for x in row]
            return Game.from_table([["a", "b", "c"], ["x", "y"], ["e", "f"]], rows)

        hi, lo = F(3, 2), F(1, 2)
        r = Restriction.full(game([hi, hi, 1, 1], [1, 1, hi, hi], [1, 1, 1, 1]))
        assert dominated_set(Inherent(), r) == ((0, 2),)
        assert dominated_set(StrictPure(), r) == ()
        cert = certify(Inherent(), r, 0, 2)
        assert len(cert.dominators) == 15
        for subset, t in cert.dominators:
            assert t == (0 if {(0, 0), (0, 1)} & set(subset) else 1)
        assert verify_certificate(Inherent(), r, 0, 2, cert)
        # Raise c to a's 3/2 on (x,e): on that singleton a only ties c and
        # b is worse, so the tie refutes it.
        r = Restriction.full(game([hi, hi, 1, 1], [1, 1, hi, hi], [hi, 1, 1, 1]))
        assert dominated_set(Inherent(), r) == ()
        # Turn the ties into losses: a rival better at each joint still
        # makes c a never best response, but on {(x,e), (y,e)} each rival
        # is also worse somewhere, which refutes inherent dominance.
        r = Restriction.full(game([hi, hi, lo, lo], [lo, lo, hi, hi], [1, 1, 1, 1]))
        assert dominated_set(NeverBestResponse(PURE), r) == ((0, 2),)
        assert dominated_set(Inherent(), r) == ()


class TestVerifiersReadRows:
    """The masks find, the rows check.  Every verifier reads payoff rows,
    never the masks that decided the key, so a wrong mask fails a
    verification instead of agreeing with itself; LP-mode `nbr` evidence is
    checked on a mixture the max-min LP finds from the rows.  Conversely,
    every certificate outside the LP is found on the masks alone."""

    @staticmethod
    def _refuse(what):
        def refuse(*args):
            raise AssertionError(what)

        return refuse

    def test_verify_reads_no_mask(self, monkeypatch):
        def rels(r):
            modes = (PURE, CORR) + ((BeliefMode.MIXED_INDEPENDENT,) if r.n == 2 else ())
            return [
                Inherent(),
                Intersection((StrictPure(), Inherent())),
                Intersection((NeverBestResponse(CORR), Inherent())),
            ] + [
                rel
                for pool in (False, True)
                for rel in (StrictPure(pool), StrictMixed(pool))
                + tuple(NeverBestResponse(mode, pool) for mode in modes)
            ]

        restrictions = _random_restrictions(47, 30) + _half_restrictions(48, 30)
        cases = [
            (rel, r, i, s, certify(rel, r, i, s))
            for r in restrictions
            for rel in rels(r)
            for i, s in dominated_set(rel, r)
        ]
        monkeypatch.setattr(Game, "beats", property(self._refuse("a verifier read the masks")))
        monkeypatch.setattr(Restriction, "opponent_mask", self._refuse("a verifier read a mask"))
        for _, r, *_ in cases:
            r.game.memo.clear()  # so that no decision is answered from it
        for rel, r, i, s, cert in cases:
            assert verify_certificate(rel, r, i, s, cert), (rel, r.kept, i, s)
        assert {rel for rel, *_ in cases} == {rel for r in restrictions for rel in rels(r)}

    def test_certify_reads_no_row(self, monkeypatch):
        simple = [Inherent()] + [
            rel for pool in (False, True) for rel in (StrictPure(pool), NeverBestResponse(PURE, pool))
        ]
        rels = simple + [Intersection(pair) for pair in combinations(simple, 2)]
        cases = [
            (rel, r, i, s, certify(rel, r, i, s))
            for r in _random_restrictions(49, 30) + _half_restrictions(50, 30)
            for rel in rels
            for i, s in dominated_set(rel, r)
        ]
        monkeypatch.setattr(Restriction, "payoff_rows", self._refuse("a certificate read rows"))
        for _, r, *_ in cases:
            r.game.memo.clear()  # so that the decisions run again too
        for rel, r, i, s, cert in cases:
            assert certify(rel, r, i, s) == cert, (rel, r.kept, i, s)
        assert {rel for rel, *_ in cases} == set(rels)


class TestNeverBestResponseFold:
    """Under correlated beliefs, and independent ones on two players, `nbr`
    is decided by the strict-mixed memo: no feasibility LP runs."""

    def test_lp_modes_read_the_strict_mixed_entries(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("best_response_feasible decided a relation")

        original = lp.best_response_feasible
        for name, module in list(sys.modules.items()):
            if name == "domelim" or name.startswith("domelim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        dominated = 0
        for r in _random_restrictions(41, 40):
            for global_pool in (False, True):
                keys = dominated_set(StrictMixed(global_pool), r)
                dominated += len(keys)
                for mode in (CORR, BeliefMode.MIXED_INDEPENDENT) if r.n == 2 else (CORR,):
                    rel = NeverBestResponse(mode, global_pool)
                    assert dominated_set(rel, r) == keys
                    for i, s in keys:
                        assert certify(rel, r, i, s) == NeverBest(mode, global_pool)
        assert dominated > 0

    def test_direct_decision_in_lp_modes(self, g_belief):
        """Asked directly, LP-mode nbr decides as strict-mixed of its pool,
        not as under pure beliefs: on G_BELIEF the uniform belief over L
        and R makes M a best response, though no pure belief does."""
        r = Restriction.full(g_belief)
        assert list(NeverBestResponse(PURE).dominated(r, 0)) == [1]
        for mode in (CORR, BeliefMode.MIXED_INDEPENDENT):
            for pool in (False, True):
                rel = NeverBestResponse(mode, pool)
                assert list(rel.dominated(r, 0)) == []
                assert dominated_set(rel, r) == ()
        dominated = 0
        for r in _random_restrictions(44, 30):
            for pool in (False, True):
                for mode in (CORR, BeliefMode.MIXED_INDEPENDENT) if r.n == 2 else (CORR,):
                    rel = NeverBestResponse(mode, pool)
                    for i in range(r.n):
                        direct = list(rel.dominated(r, i))
                        assert direct == list(StrictMixed(pool).dominated(r, i))
                        assert direct == [s for j, s in dominated_set(rel, r) if j == i]
                        dominated += len(direct)
        assert dominated > 0

    def test_direct_decision_refuses_independent_beliefs_on_three_players(self):
        r = Restriction.full(random_game(random.Random(9), 3))
        for pool in (False, True):
            with pytest.raises(UnsupportedConfiguration):
                list(NeverBestResponse(BeliefMode.MIXED_INDEPENDENT, pool).dominated(r, 0))


class TestStrictMixedLp:
    """A strategy that a pure rival beats is strict-mixed dominated without
    an LP.  One that no pure rival beats is decided by the slack-start LP
    (`mixture_beats`); its mixture is solved by the max-min LP only when it
    is certified."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"mixture_beats": [], "max_min_advantage": []}
        for name, calls_of in calls.items():
            original = getattr(lp, name)

            def counting(*args, _calls=calls_of, _original=original):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(dominance, name, counting)
        return calls

    def test_certificate_is_solved_when_certified(self, g_pd, monkeypatch):
        r = Restriction.full(Game(g_pd.labels, g_pd.payoffs))
        calls = self._counted(monkeypatch)
        assert dominated_set(StrictMixed(), r) == ((0, 0), (1, 0))
        assert calls == {"mixture_beats": [], "max_min_advantage": []}
        cert = certify(StrictMixed(), r, 0, 0)
        assert calls == {"mixture_beats": [], "max_min_advantage": [(r, 0, 0, [1])]}
        eps, mixed = max_min_advantage(r, 0, 0, [1])
        assert cert == MixedDominator(mixed, eps)
        assert StrictMixed().verify(r, 0, 0, cert)

    def test_mixture_only_dominator_is_decided_by_the_lp(self, g_mix, monkeypatch):
        r = Restriction.full(Game(g_mix.labels, g_mix.payoffs))
        calls = self._counted(monkeypatch)
        assert dominated_set(StrictMixed(), r) == ((0, 1),)
        assert calls == {"mixture_beats": [(r, 0, 1, [0, 2])], "max_min_advantage": []}
        eps, mixed = max_min_advantage(r, 0, 1, [0, 2])
        assert certify(StrictMixed(), r, 0, 1) == MixedDominator(mixed, eps)
        assert calls == {
            "mixture_beats": [(r, 0, 1, [0, 2])],
            "max_min_advantage": [(r, 0, 1, [0, 2])],
        }


class TestCertify:
    """`certify` builds the canonical certificate of a dominated key, the
    per-strategy reference's, and refuses a strategy that is not one."""

    SIMPLE = [Inherent()] + [
        rel
        for pool in (False, True)
        for rel in (StrictPure(pool), StrictMixed(pool), NeverBestResponse(PURE, pool))
    ]

    @staticmethod
    def _games():
        rng = random.Random(48)
        return [random_game(rng, 3 if k % 4 == 0 else 2) for k in range(12)]

    def test_matches_the_reference_on_every_reachable_restriction(self):
        certified = {rel: 0 for rel in self.SIMPLE}
        for g in self._games():
            for rel in self.SIMPLE:
                for r in reachable_restrictions(rel, g):
                    keys = dominated_set(rel, r)
                    for i, s in r.strategies():
                        if (i, s) in keys:
                            assert certify(rel, r, i, s) == decide_reference(rel, r, i, s)
                            certified[rel] += 1
                        else:
                            with pytest.raises(StructuralError, match="not .*-dominated"):
                                certify(rel, r, i, s)
        assert all(certified.values()), certified

    def test_intersection_certifies_part_by_part(self):
        certified = 0
        for g in self._games():
            for pair in [(StrictPure(), Inherent()), (StrictMixed(True), NeverBestResponse(PURE))]:
                rel = Intersection(pair)
                for r in reachable_restrictions(rel, g):
                    for i, s in dominated_set(rel, r):
                        assert certify(rel, r, i, s) == IntersectionEvidence(
                            tuple(decide_reference(p, r, i, s) for p in pair)
                        )
                        certified += 1
        assert certified > 0

    def test_refuses_a_strategy_outside_the_restriction(self, g_pd):
        r = Restriction(g_pd, ((1,), (0, 1)))
        for i, s in [(0, 0), (0, 2), (2, 0)]:
            with pytest.raises(StructuralError):
                certify(StrictPure(), r, i, s)


class TestIntersectionEntries:
    """An intersection's dominated set is read off its parts' sets."""

    def test_every_pair_matches_definition(self):
        partial = full = 0
        for r in _random_restrictions(43, 24):
            modes = (PURE, CORR, BeliefMode.MIXED_INDEPENDENT)[: 2 if r.n > 2 else 3]
            simple = (
                [StrictPure(), StrictPure(global_pool=True)]
                + [StrictMixed(), StrictMixed(global_pool=True), Inherent()]
                + [NeverBestResponse(m) for m in modes]
                + [NeverBestResponse(m, global_pool=True) for m in modes]
            )
            for pair in combinations(simple, 2):
                sets = [dominated_set(p, r) for p in pair]
                expected = tuple(
                    key for key in r.strategies() if all(key in d for d in sets)
                )
                rel = Intersection(pair)
                assert dominated_set(rel, r) == expected
                for i, s in expected:
                    cert = certify(rel, r, i, s)
                    assert cert == IntersectionEvidence(
                        tuple(certify(p, r, i, s) for p in pair)
                    )
                    assert is_dominated(rel, r, i, s)
                    assert verify_certificate(rel, r, i, s, cert)
                full += bool(expected)
                partial += any(len(d) > len(expected) for d in sets)
        assert full > 0 and partial > 0

    def test_later_part_evaluated_only_after_a_common_key(self):
        # Independent mixed beliefs on three players raise when evaluated.
        rel = Intersection((StrictPure(), NeverBestResponse(BeliefMode.MIXED_INDEPENDENT)))
        labels = [("a", "b")] * 3
        joints = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        flat = Restriction.full(Game.from_table(labels, [(0, 0, 0)] * 8))
        assert dominated_set(rel, flat) == ()
        graded = Restriction.full(Game.from_table(labels, [(j[0], 0, 0) for j in joints]))
        with pytest.raises(UnsupportedConfiguration):
            dominated_set(rel, graded)

    def test_independent_beliefs_raise_though_strict_mixed_is_memoized(self):
        # LP-mode nbr reads the strict-mixed entry, which the first part
        # has just filled with a dominated key: the refusal comes first.
        r = Restriction.full(random_game(random.Random(9), 3))
        for pool in (False, True):
            indep = NeverBestResponse(BeliefMode.MIXED_INDEPENDENT, pool)
            rel = Intersection((StrictMixed(pool), indep))
            with pytest.raises(UnsupportedConfiguration):
                dominated_set(rel, r)
            assert r.game.memo[(StrictMixed(pool), r)]
            for ask in (dominated_set, lambda rel, r: is_dominated(rel, r, 0, 0)):
                with pytest.raises(UnsupportedConfiguration):
                    ask(indep, r)


class TestRelationNames:
    @pytest.mark.parametrize(
        "name",
        [
            "strict-pure",
            "global-strict-pure",
            "strict-mixed",
            "global-strict-mixed",
            "nbr",
            "global-nbr",
            "inherent",
            "strict-pure,inherent",
        ],
    )
    def test_round_trip(self, name):
        assert parse_relation(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(StructuralError):
            parse_relation("weak-pure")

    def test_repeated_part_rejected(self):
        assert parse_relation("nbr,global-nbr").name == "nbr,global-nbr"
        for name in ("strict-pure,strict-pure", "nbr,inherent, nbr"):
            with pytest.raises(StructuralError, match="named twice"):
                parse_relation(name, CORR)


class TestMixedSurgery:
    def test_renormalize_interior(self):
        m = MixedStrategy.of(0, {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)})
        alpha, n = renormalize_without(m, 1)
        assert alpha == F(1, 2)
        assert n.as_dict() == {0: F(1, 2), 2: F(1, 2)}

    def test_renormalize_absent_is_noop(self):
        m = MixedStrategy.of(0, {0: F(1, 2), 2: F(1, 2)})
        alpha, n = renormalize_without(m, 1)
        assert alpha == 1
        assert n == m

    def test_renormalize_point_mass_rejected(self):
        with pytest.raises(DegenerateDominator):
            renormalize_without(MixedStrategy.point(0, 1), 1)

    def test_renormalize_identity(self):
        # m == (1 - alpha) * point(s) + alpha * n, checked weight by weight.
        m = MixedStrategy.of(0, {0: F(1, 6), 1: F(1, 3), 2: F(1, 2)})
        alpha, n = renormalize_without(m, 2)
        for t in range(3):
            point = F(1) if t == 2 else F(0)
            assert m.weight(t) == (1 - alpha) * point + alpha * n.weight(t)

    def test_substitute_full_mass(self):
        m2 = MixedStrategy.of(0, {0: F(1, 3), 2: F(2, 3)})
        assert substitute(MixedStrategy.point(0, 1), 1, m2) == m2

    def test_substitute_absent_is_noop(self):
        m = MixedStrategy.of(0, {0: F(1)})
        assert substitute(m, 1, MixedStrategy.point(0, 2)) == m

    def test_substitute_mass_merge(self):
        m = MixedStrategy.of(0, {0: F(1, 2), 1: F(1, 2)})
        assert substitute(m, 1, MixedStrategy.point(0, 0)) == MixedStrategy.point(0, 0)

    def test_substitute_player_mismatch(self):
        with pytest.raises(StructuralError):
            substitute(MixedStrategy.point(0, 0), 0, MixedStrategy.point(1, 0))


class TestPersistDominator:
    def test_empty_elimination_is_identity(self, r_mix):
        r2 = r_mix.remove([(1, 1)])  # only a column strategy leaves
        m = MixedStrategy.of(0, {0: F(1, 2), 2: F(1, 2)})
        assert persist_dominator(r_mix, r2, [], 0, 1, m) == m

    def test_supports_already_clear(self, r_mix):
        # In columns {L}, U strictly beats both M and D; removing M with
        # dominator U leaves nothing to rewrite in D's dominator U.
        sub = Restriction(r_mix.game, ((0, 1, 2), (0,)))
        sub2 = sub.remove([(0, 1)])
        out = persist_dominator(
            sub, sub2, [(1, MixedStrategy.point(0, 0))], 0, 2, MixedStrategy.point(0, 0)
        )
        assert out == MixedStrategy.point(0, 0)

    def test_mass_rerouted_through_dominator(self, r_mix):
        # m puts half its mass on the removed row; the construction reroutes
        # it through that row's own dominator and keeps strict dominance.
        g = r_mix.game
        r = Restriction.full(g)
        r2 = r.remove([(0, 1)])
        m1 = MixedStrategy.of(0, {0: F(1, 2), 2: F(1, 2)})  # dominates M
        sub = Restriction(g, ((0, 1, 2), (0,)))  # only column L
        sub2 = sub.remove([(0, 1)])
        m = MixedStrategy.of(0, {0: F(1, 2), 1: F(1, 2)})  # dominates D on L
        out = persist_dominator(sub, sub2, [(1, m1)], 0, 2, m)
        assert set(out.support) <= set(sub2.kept[0])
        assert mixed_strictly_dominates(sub, 0, out, 2)
        assert out.as_dict() == {0: F(3, 4), 2: F(1, 4)}

    def test_invalid_inputs_rejected(self, r_mix):
        r2 = r_mix.remove([(0, 1)])
        not_dominating = MixedStrategy.point(0, 0)
        with pytest.raises(InvalidCertificate):
            persist_dominator(r_mix, r2, [(1, not_dominating)], 0, 0, not_dominating)

    def test_random_steps_persist(self):
        # Remove a proper subset of one player's mixed-dominated strategies
        # and persist the dominator of each one that survived the step.
        rng = random.Random(41)
        checked = 0
        for _ in range(80):
            g = random_game(rng, 2)
            r = Restriction.full(g)
            dom = dominated_set(StrictMixed(), r)
            for i in range(2):
                mine = [(s, certify(StrictMixed(), r, i, s)) for j, s in dom if j == i]
                if len(mine) < 2:
                    continue
                cut = rng.randint(1, len(mine) - 1)
                removed, surviving = mine[:cut], mine[cut:]
                eliminated = [(s, c.mixed) for s, c in removed]
                r2 = r.remove((i, s) for s, _ in removed)
                for s, c in surviving:
                    out = persist_dominator(r, r2, eliminated, i, s, c.mixed)
                    assert set(out.support) <= set(r2.kept[i])
                    assert mixed_strictly_dominates(r, i, out, s)
                    checked += 1
        assert checked >= 5
