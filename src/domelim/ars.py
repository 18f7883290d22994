"""Finite abstract reduction systems and the Newman's-Lemma experiment.

An ARS here is a directed graph on nodes 0..n-1.  Normal forms are sinks
reachable through the reflexive-transitive closure of the edge relation;
weak confluence asks every one-step fork to rejoin.  For terminating
(acyclic) systems, weak confluence implies the unique-normal-form
property; the experiment samples random DAGs and counts both sides of
that implication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import CyclicSystem, StructuralError


@dataclass(frozen=True)
class FiniteArs:
    nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < self.nodes and 0 <= b < self.nodes):
                raise StructuralError(f"edge ({a},{b}) out of range")

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per node, its successors in increasing order."""
        out: list[list[int]] = [[] for _ in range(self.nodes)]
        for a, b in sorted(self.edges):
            out[a].append(b)
        return tuple(map(tuple, out))

    def successors(self, a: int) -> tuple[int, ...]:
        self._check(a)
        return self._adjacency[a]

    def _check(self, a: int) -> None:
        if not 0 <= a < self.nodes:
            raise StructuralError(f"node {a} out of range")

    def reachable(self, a: int) -> set[int]:
        """Reflexive-transitive closure from a."""
        self._check(a)
        seen = {a}
        stack = [a]
        while stack:
            for y in self._adjacency[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def is_acyclic(self) -> bool:
        """No edge a -> b with a reachable from b."""
        return not any(a in self.reachable(b) for a, b in self.edges)


def ars_normal_forms(ars: FiniteArs, node: int) -> set[int]:
    """All sinks reachable from node (a sink node is its own normal form)."""
    return {x for x in ars.reachable(node) if not ars.successors(x)}


def ars_is_weakly_confluent(
    ars: FiniteArs,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Every one-step fork a -> b, a -> c rejoins at some common d."""
    for a in range(ars.nodes):
        succ = ars.successors(a)
        for bi in range(len(succ)):
            for ci in range(bi + 1, len(succ)):
                b, c = succ[bi], succ[ci]
                if not (ars.reachable(b) & ars.reachable(c)):
                    return False, (a, b, c)
    return True, None


def ars_unique_nf(ars: FiniteArs) -> bool:
    """Unique-normal-form property; requires a terminating (acyclic) system."""
    if not ars.is_acyclic():
        raise CyclicSystem("unique normal forms undefined for cyclic systems")
    return all(len(ars_normal_forms(ars, a)) == 1 for a in range(ars.nodes))


def _check_probability(p_num: int, p_den: int) -> None:
    if p_den <= 0 or not 0 <= p_num <= p_den:
        raise StructuralError(f"edge probability must be in [0, 1], got {p_num}/{p_den}")


def random_dag(rng: random.Random, nodes: int, p_num: int, p_den: int) -> FiniteArs:
    """Random DAG: edge i -> j for i < j with exact probability p_num/p_den."""
    if nodes < 1:
        raise StructuralError(f"node count must be at least 1, got {nodes}")
    _check_probability(p_num, p_den)
    edges = set()
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if rng.randrange(p_den) < p_num:
                edges.add((i, j))
    return FiniteArs(nodes, frozenset(edges))


@dataclass(frozen=True)
class NewmanReport:
    samples: int
    weakly_confluent: int
    not_weakly_confluent: int
    unique_nf: int
    implication_failures: int


def newman_experiment(
    samples: int, max_nodes: int, p_num: int, p_den: int, seed: int
) -> NewmanReport:
    """Sample DAGs and test weakly-confluent => unique-normal-form.

    Each sample draws its node count uniformly from 2..max_nodes.
    """
    if samples < 0:
        raise StructuralError(f"sample count must be non-negative, got {samples}")
    if max_nodes < 2:
        raise StructuralError(f"node count must be at least 2, got {max_nodes}")
    _check_probability(p_num, p_den)
    rng = random.Random(seed)
    wc = nwc = unf = failures = 0
    for _ in range(samples):
        nodes = rng.randint(2, max_nodes)
        ars = random_dag(rng, nodes, p_num, p_den)
        confluent, _witness = ars_is_weakly_confluent(ars)
        unique = ars_unique_nf(ars)
        wc += confluent
        nwc += not confluent
        unf += unique
        if confluent and not unique:
            failures += 1
    return NewmanReport(samples, wc, nwc, unf, failures)
