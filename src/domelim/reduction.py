"""Elimination steps, traces, outcome search, and the step-level checkers.

A step removes any nonempty set of strategies that are each dominated in
the current restriction.  `normal_form` walks one path, taking the step
its policy names from the dominated keys:

  FullSpeed     remove everything dominated at once
  SingleLex     remove the first dominated strategy in (player, index) order
  SingleRandom  remove one dominated strategy uniformly, seeded once per trace

The order graph takes every step: one per nonempty subset of the dominated
set.  A relation is order independent on a game exactly when one
irreducible restriction is reachable in it.  A step records only the
(player, strategy) keys it removes, in canonical order; a trace document
asks `dominance.certify` for the evidence of each.

One lazy depth-first walk, `_walk`, serves `all_outcomes` (the irreducible
restrictions) and `reachable_steps` (every step).  It steps on bitmasks:
a child is its parent's mask less a nonempty submask of the dominated
keys' mask, and `Game.restrictions` gives the game's one `Restriction` of
it, so all walks over a game share restrictions.  The table builds a child
unchecked (`Restriction._child`): the child is its valid parent less some
dominated strategies, and `_dominated` has checked that every player
keeps an undominated one.  That check, the paper's standing assumption,
belongs to reducing: the walk and `normal_form` make it, and
`dominance.dominated_set` does not.  Submasks come in increasing order:
a key's bit rises with its canonical position, so that is bitmask order
over the keys.  A budget caps the restrictions a walk admits; past it,
unseen children are dropped.  `all_outcomes` then reports `complete=False`
with the partial outcome set, and `reachable_steps` yields the steps before
the first one to a dropped child and raises BudgetExceeded there.  Nothing
is truncated silently.

The three checkers read one condition on a pair R' inside R (Apt 2010):
dom(R) & R' <= dom(R'), so every strategy dominated in R and kept in R'
is still dominated in R'.  `_unheld` reads it from dom(R), deciding R'
only when R' keeps one of its keys.  A step is hereditary when its two
ends meet the condition, and a relation is monotonic when every pair does.
The weak-confluence proof shape of a step is the condition plus R_full <=
R', where R_full, R less dom(R), is the full-speed reduct.  Then the
residue R' less R_full is exactly R' & dom(R), and the condition says
that R' is R_full or reaches it in one step that removes the residue.
When every step has that shape, any two steps from R rejoin at R_full:
the order graph is weakly confluent and, being finite and acyclic, has
one outcome by Newman's lemma (Newman 1942).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .dominance import Relation, dominated_set, is_dominated
from .errors import AssumptionViolated, BudgetExceeded, StructuralError
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


def _dominated(rel: Relation, r: Restriction) -> tuple[tuple[int, int], ...]:
    """rel's dominated keys of r.  Every player must keep an undominated
    strategy; a violation raises AssumptionViolated and marks a defect,
    since no restriction the order graph reaches trips it."""
    dom = dominated_set(rel, r)
    left = [len(ks) for ks in r.kept]
    for i, _ in dom:
        left[i] -= 1
        if not left[i]:
            raise AssumptionViolated(f"player {i} has no {rel.name}-undominated strategy")
    return dom


def normal_form(rel: Relation, g: Game, policy: OrderPolicy) -> Trace:
    """Iterate the policy from the full game until nothing is dominated."""
    if type(policy) not in POLICY_NAMES:
        raise StructuralError(f"not a policy: {type(policy).__name__}")
    rng = random.Random(policy.seed) if isinstance(policy, SingleRandom) else None
    r = Restriction.full(g)
    steps = []
    while dom := _dominated(rel, r):
        if isinstance(policy, SingleLex):
            dom = dom[:1]
        elif rng is not None:
            dom = (dom[rng.randrange(len(dom))],)
        steps.append(ReductionStep(r, r.remove(dom), dom))
        r = steps[-1].after
    return Trace(rel, g, policy, tuple(steps), r)


@dataclass(frozen=True)
class OutcomeSearch:
    outcomes: frozenset[Restriction]
    complete: bool
    explored: int


def _walk(
    rel: Relation, g: Game, budget: int
) -> Iterator[tuple[Restriction, tuple, list[Optional[Restriction]]]]:
    """Depth-first walk of the order graph from the full game.

    Yields each admitted restriction once, with its dominated keys and its
    children in bitmask order: a child's `Restriction`, or None where the
    budget dropped it.  A child is admitted while fewer than `budget`
    restrictions are.
    """
    table = g.restrictions
    base = table.base
    seen = {table.full}
    stack = [(table[table.full], table.full)]
    while stack:
        r, rm = stack.pop()
        dom = _dominated(rel, r)
        dm = 0
        for i, s in dom:
            dm |= 1 << (base[i] + s)
        children: list[Optional[Restriction]] = []
        sub = dm & -dm
        while sub:
            mask = rm ^ sub
            if mask not in seen and len(seen) < budget:
                seen.add(mask)
                stack.append((table[mask], mask))
            children.append(table[mask] if mask in seen else None)
            sub = (sub - dm) & dm
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
                raise BudgetExceeded(
                    f"more than {budget} restrictions reachable under {rel.name}"
                )
            removed = tuple(k for j, k in enumerate(dom) if mask >> j & 1)
            yield ReductionStep(r, child, removed)


def _unheld(rel: Relation, r: Restriction, r2: Restriction) -> Optional[tuple[int, int]]:
    """First key of dom(r), in canonical order, that r2 keeps and does not
    dominate.  r2 is decided only when it keeps some key of dom(r)."""
    for i, s in dominated_set(rel, r):
        if r2.contains(i, s) and not is_dominated(rel, r2, i, s):
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
