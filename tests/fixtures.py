"""Canonical fixture games used across the test and acceptance suites,
and `reachable_restrictions`, the restrictions of a game's order graph."""

from __future__ import annotations

from domelim.game import Game, Restriction
from domelim.reduction import DEFAULT_BUDGET, reachable_steps

# Prisoner's dilemma: defecting strictly dominates cooperating.
G_PD = Game.from_table(
    [["C", "D"], ["C", "D"]],
    [(2, 2), (0, 3), (3, 0), (1, 1)],
)

# Middle row beaten only by a mixture of the outer rows; column indifferent.
G_MIX = Game.from_table(
    [["U", "M", "D"], ["L", "R"]],
    [(3, 0), (0, 0), (1, 0), (1, 0), (0, 0), (3, 0)],
)

# Middle row is never a best response to a pure belief, but is one to the
# uniform correlated belief; column indifferent.
G_BELIEF = Game.from_table(
    [["U", "M", "D"], ["L", "R"]],
    [(3, 0), (0, 0), (2, 0), (2, 0), (0, 0), (3, 0)],
)

# Smallest legal game: one strategy each.
G_ONE = Game.from_table([["A"], ["X"]], [(0, 0)])

# Order dependent under weak dominance: B weakly dominates T and L weakly
# dominates R, and removing R first leaves T and B tied.
G_WEAK = Game.from_table(
    [["T", "B"], ["L", "R"]],
    [(0, 0), (0, 0), (0, 1), (1, 0)],
)


def reachable_restrictions(rel, g: Game, budget: int = DEFAULT_BUDGET) -> set[Restriction]:
    """Every restriction reachable from the full game, itself included:
    the ends of the order graph's steps.  Raises BudgetExceeded, as
    `reachable_steps` does, when more than `budget` are reachable."""
    out = {Restriction.full(g)}
    for step in reachable_steps(rel, g, budget):
        out.add(step.after)
    return out
