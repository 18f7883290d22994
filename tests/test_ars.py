"""Finite abstract reduction systems and the Newman experiment."""

import random

import pytest

from domelim.ars import (
    FiniteArs,
    ars_is_weakly_confluent,
    ars_normal_forms,
    ars_unique_nf,
    newman_experiment,
    random_dag,
)
from domelim.errors import CyclicSystem, StructuralError

from oracles import ars_normal_forms_brute

DIAMOND = FiniteArs(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
FORK = FiniteArs(3, frozenset({(0, 1), (0, 2)}))
CHAIN = FiniteArs(3, frozenset({(0, 1), (1, 2)}))


class TestNormalForms:
    def test_diamond(self):
        assert ars_normal_forms(DIAMOND, 0) == {3}

    def test_fork(self):
        assert ars_normal_forms(FORK, 0) == {1, 2}

    def test_isolated_node(self):
        ars = FiniteArs(1, frozenset())
        assert ars_normal_forms(ars, 0) == {0}

    def test_matches_brute_oracle(self):
        rng = random.Random(60)
        for _ in range(50):
            ars = random_dag(rng, rng.randint(1, 10), 1, 3)
            for a in range(ars.nodes):
                assert ars_normal_forms(ars, a) == ars_normal_forms_brute(
                    ars.nodes, ars.edges, a
                )

    def test_out_of_range(self):
        with pytest.raises(StructuralError):
            ars_normal_forms(FORK, 3)


class TestWeakConfluence:
    def test_diamond(self):
        assert ars_is_weakly_confluent(DIAMOND) == (True, None)

    def test_fork_witness(self):
        ok, witness = ars_is_weakly_confluent(FORK)
        assert not ok
        assert witness == (0, 1, 2)

    def test_edgeless_vacuous(self):
        assert ars_is_weakly_confluent(FiniteArs(5, frozenset()))[0]


class TestUniqueNf:
    def test_diamond(self):
        assert ars_unique_nf(DIAMOND)

    def test_fork(self):
        assert not ars_unique_nf(FORK)

    def test_chain(self):
        assert ars_unique_nf(CHAIN)

    def test_cycle_rejected(self):
        cyc = FiniteArs(2, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(CyclicSystem):
            ars_unique_nf(cyc)


class TestNewmanExperiment:
    def test_implication_never_fails(self):
        report = newman_experiment(300, 12, 1, 4, seed=1)
        assert report.implication_failures == 0

    def test_generator_adequacy(self):
        report = newman_experiment(300, 12, 1, 4, seed=1)
        assert report.weakly_confluent >= 30
        assert report.not_weakly_confluent >= 30

    def test_deterministic(self):
        assert newman_experiment(50, 8, 1, 4, seed=9) == newman_experiment(
            50, 8, 1, 4, seed=9
        )

    @pytest.mark.parametrize("p_num,p_den", [(7, 3), (-1, 2), (1, 0), (1, -2)])
    def test_bad_probability_rejected_without_samples(self, p_num, p_den):
        with pytest.raises(StructuralError, match="edge probability"):
            newman_experiment(0, 5, p_num, p_den, seed=1)

    def test_bad_probability_rejected(self):
        rng = random.Random(0)
        with pytest.raises(StructuralError):
            random_dag(rng, 3, 5, 4)
