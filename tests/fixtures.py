"""Canonical fixture games used across the test and acceptance suites."""

from __future__ import annotations

from domelim.game import Game

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
