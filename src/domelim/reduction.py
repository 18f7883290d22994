"""Elimination steps, traces, outcome search, and the step-level checkers.

A step removes any nonempty set of strategies that are each dominated in
the current restriction.  Policies fix which step to take:

  FullSpeed     remove everything dominated at once
  SingleLex     remove the first dominated strategy in (player, index) order
  SingleRandom  remove one dominated strategy uniformly, seeded

The order graph takes every step: one per nonempty subset of the dominated
set.  A relation is order independent on a game exactly when one
irreducible restriction is reachable in it.  A step records only the
(player, strategy) keys it removes, in canonical order; a trace document
asks `dominance.certify` for the evidence of each.

One lazy depth-first walk, `_walk`, serves `all_outcomes` (the irreducible restrictions),
`reachable_restrictions` (all of them) and `reachable_steps` (every step).
It builds a `Restriction` only for a child whose kept tuple it has not
seen, and every step to that child reuses it.  It builds that child
unchecked (`Restriction._child`): the child is its valid parent less some
dominated strategies, and `dominated_set` has checked that every player
keeps an undominated one.  Children come in bitmask order over the
dominated keys.  A budget caps the restrictions
admitted; past it, unseen children are dropped.  `all_outcomes` then
reports `complete=False` with the partial outcome set,
`reachable_restrictions` raises `BudgetExceeded`, and `reachable_steps`
yields the steps before the first one to a dropped child and raises it
there.  Nothing is truncated silently.

The three checkers read one condition on a pair R' inside R (Apt 2010):
dom(R) & R' <= dom(R'), so every strategy dominated in R and kept in R'
is still dominated in R'.  `_unheld` finds the first strategy that breaks
it.  A step is hereditary when its two ends meet the condition, and a
relation is monotonic when every pair does.  The weak-confluence proof
shape of a step is the condition plus R_full <= R', where R_full, R less
dom(R), is the full-speed reduct.  Then the residue R' less R_full is
exactly R' & dom(R), and the condition says that R' is R_full or reaches
it in one step that removes the residue.  When every step has that
shape, any two steps from R rejoin at R_full: the order graph is weakly
confluent and, being finite and acyclic, has one outcome by Newman's
lemma (Newman 1942).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Union

from .dominance import Relation, dominated_set, is_dominated
from .errors import BudgetExceeded, StructuralError
from .game import Game, Restriction, restriction_leq

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class FullSpeed:
    pass


@dataclass(frozen=True)
class SingleLex:
    pass


@dataclass(frozen=True)
class SingleRandom:
    seed: int


OrderPolicy = Union[FullSpeed, SingleLex, SingleRandom]


POLICY_NAMES = {
    FullSpeed: "fastest",
    SingleLex: "single-lex",
    SingleRandom: "single-random",
}


def policy_name(policy: OrderPolicy) -> str:
    return POLICY_NAMES[type(policy)]


@dataclass(frozen=True)
class ReductionStep:
    before: Restriction
    after: Restriction
    removed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.after == self.before:
            raise StructuralError("step removes nothing")
        if not restriction_leq(self.after, self.before):
            raise StructuralError("step does not shrink the restriction")


@dataclass(frozen=True)
class Trace:
    relation: Relation
    initial: Game
    policy: OrderPolicy
    steps: tuple[ReductionStep, ...]
    outcome: Restriction


def _step(r: Restriction, removed: tuple[tuple[int, int], ...]) -> ReductionStep:
    return ReductionStep(r, r.remove(removed), removed)


def successors(
    rel: Relation,
    r: Restriction,
    policy: OrderPolicy,
    rng: Optional[random.Random] = None,
) -> list[ReductionStep]:
    """Steps available from r under the policy; empty iff nothing is dominated."""
    dom = dominated_set(rel, r)
    if not dom:
        return []
    if isinstance(policy, FullSpeed):
        return [_step(r, dom)]
    if isinstance(policy, SingleLex):
        return [_step(r, dom[:1])]
    if isinstance(policy, SingleRandom):
        if rng is None:
            rng = random.Random(policy.seed)
        return [_step(r, (dom[rng.randrange(len(dom))],))]
    raise StructuralError(f"not a policy: {type(policy).__name__}")


def normal_form(rel: Relation, g: Game, policy: OrderPolicy) -> Trace:
    """Iterate the policy from the full game until no step remains."""
    rng = random.Random(policy.seed) if isinstance(policy, SingleRandom) else None
    r = Restriction.full(g)
    steps = []
    while True:
        nxt = successors(rel, r, policy, rng)
        if not nxt:
            return Trace(rel, g, policy, tuple(steps), r)
        steps.append(nxt[0])
        r = nxt[0].after


@dataclass(frozen=True)
class OutcomeSearch:
    outcomes: frozenset[Restriction]
    complete: bool
    explored: int


def _child_kepts(
    r: Restriction, keys: tuple[tuple[int, int], ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Kept tuples of `r.remove(subset)` for every nonempty subset of the
    canonically ordered `keys`, in bitmask order (low bit = first key).

    Canonical keys group each player's bits together, lowest player
    lowest, so bitmask order is an odometer over per-player choices with
    player 0 varying fastest.
    """
    options = []
    for i, ks in enumerate(r.kept):
        # sub[m] is ks less player i's keys at the set bits of m.
        sub = [ks]
        for j, t in keys:
            if j == i:
                sub += [tuple(s for s in kept if s != t) for kept in sub]
        options.append(sub)
    combos = product(*reversed(options))
    next(combos)  # the empty subset: r itself
    for combo in combos:
        yield combo[::-1]


def _walk(
    rel: Relation, g: Game, budget: int
) -> Iterator[tuple[Restriction, tuple, list[Optional[Restriction]]]]:
    """Depth-first walk of the order graph from the full game.

    Yields each admitted restriction once, with its dominated keys and its
    children in bitmask order: a child's `Restriction`, or None where the
    budget dropped it.  A child is admitted while fewer than `budget`
    restrictions are.
    """
    start = Restriction.full(g)
    seen = {start.kept: start}
    stack = [start]
    while stack:
        r = stack.pop()
        dom = dominated_set(rel, r)
        children: list[Optional[Restriction]] = []
        if dom:
            for kept in _child_kepts(r, dom):
                child = seen.get(kept)
                if child is None and len(seen) < budget:
                    child = seen[kept] = Restriction._child(g, kept)
                    stack.append(child)
                children.append(child)
        yield r, dom, children


def all_outcomes(rel: Relation, g: Game, budget: int = DEFAULT_BUDGET) -> OutcomeSearch:
    """All reachable irreducible restrictions, memoized on restrictions.

    Exceeding the budget returns the partial outcome set with
    `complete=False`; it never truncates silently.
    """
    outcomes: set[Restriction] = set()
    complete = True
    explored = 0
    for r, dom, children in _walk(rel, g, budget):
        explored += 1
        if not dom:
            outcomes.add(r)
        elif None in children:
            complete = False
    return OutcomeSearch(frozenset(outcomes), complete, explored)


def _budget_exceeded(rel: Relation, budget: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"more than {budget} restrictions reachable under {rel.name}"
    )


def reachable_restrictions(
    rel: Relation, g: Game, budget: int = DEFAULT_BUDGET
) -> set[Restriction]:
    """Every restriction reachable from the full game, itself included.

    Raises BudgetExceeded when more than `budget` are reachable.
    """
    out = set()
    for r, _, children in _walk(rel, g, budget):
        if None in children:
            raise _budget_exceeded(rel, budget)
        out.add(r)
    return out


def reachable_steps(
    rel: Relation, g: Game, budget: int = DEFAULT_BUDGET
) -> Iterator[ReductionStep]:
    """Every distinct step in the order graph from the full game.

    Raises BudgetExceeded in place of the first step to a
    restriction the budget leaves out.
    """
    for r, dom, children in _walk(rel, g, budget):
        for mask, child in enumerate(children, start=1):
            if child is None:
                raise _budget_exceeded(rel, budget)
            removed = tuple(k for j, k in enumerate(dom) if mask >> j & 1)
            yield ReductionStep(r, child, removed)


def _unheld(rel: Relation, r: Restriction, r2: Restriction) -> Optional[tuple[int, int]]:
    """First strategy of r2, in canonical order, dominated in r but not in r2."""
    for i, s in r2.strategies():
        if is_dominated(rel, r, i, s) and not is_dominated(rel, r2, i, s):
            return (i, s)
    return None


def check_hereditary_step(rel: Relation, step: ReductionStep) -> Optional[tuple[int, int]]:
    """First surviving strategy dominated before the step but not after."""
    return _unheld(rel, step.before, step.after)


def check_monotonic_pair(
    rel: Relation, r: Restriction, r2: Restriction
) -> Optional[tuple[int, int]]:
    """First strategy of r2 dominated in r but not in r2; r2 must be inside r."""
    if not restriction_leq(r2, r):
        raise StructuralError("second restriction is not contained in the first")
    return _unheld(rel, r, r2)


def check_proof_shape(rel: Relation, step: ReductionStep) -> bool:
    """Weak-confluence shape: R' equals the full-speed reduct or steps to it."""
    r, r_prime = step.before, step.after
    r_full = r.remove(dominated_set(rel, r))
    return restriction_leq(r_full, r_prime) and _unheld(rel, r, r_prime) is None
