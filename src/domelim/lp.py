"""Exact rational linear programming.

Two-phase primal simplex with Bland's anti-cycling rule (first eligible
index enters; ties in the ratio test break toward the smallest basic
variable index).  Strictness of every game-theoretic inequality is decided
by the sign of an exact optimum, never by a tolerance.

The tableau is held in Python `int`s: each row, the objective row included,
is the rational row times some positive factor, and a pivot computes
`p*row - f*pivot_row` and divides out the row's gcd.  Bland's rule reads
only signs and ratios within a row, which a positive factor does not
change, so the pivot path is the one a `Fraction` tableau takes (the tests
keep that tableau as the reference).  The solution is read back as
`rhs / basic entry` per row, the value as objective . solution.

A program's coefficients are exact `int`s or `Fraction`s; `solve` clears
each row's denominators once, and an `int` row has none to clear.

On top of the solver sit the game-theoretic oracles, which all read one
advantage matrix, p_i(t, k) - p_i(s, k) for pool strategies t and
opponent joints k, built from the payoff kernel's exact values.
`mixture_beats` is the engine's one LP decision: strict-mixed dominance,
and by LP duality never-best-response under correlated (or two-player
independent) beliefs, both read it.  It decides only a strategy that no
pure pool strategy beats, from a slack-start program (one `<=` row per
pool strategy, no phase 1).  `max_min_advantage`, the best guaranteed
margin of a pool mixture over a fixed pure strategy, and the mixture
that attains it, is solved only where that mixture is written or
checked: in each strict-mixed certificate, which is built only when a
trace writes the removal (see `dominance.certify`), and in verifying an
LP-mode never-best-response certificate.
`best_response_feasible` solves the dual feasibility LP for a belief
against which a strategy is a best response; no decision calls it.  It is
the witness oracle, and the independent side of the duality cross-checks.
Under pure beliefs it needs no LP: the first column of the matrix with no
positive entry is a joint where the strategy is a best response.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import StructuralError, UnsupportedConfiguration
from .game import (
    ONE,
    ZERO,
    BeliefMode,
    CorrelatedBelief,
    MixedStrategy,
    Payoff,
    Restriction,
)

LEQ = "<="
EQ = "="
GEQ = ">="


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to rows (coeffs, cmp, rhs).

    `nonneg[j]` marks x_j >= 0; unmarked variables are free.
    """

    objective: tuple[Payoff, ...]
    constraints: tuple[tuple[tuple[Payoff, ...], str, Payoff], ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.nonneg) != nv:
            raise StructuralError("nonneg flags do not match variable count")
        for coeffs, cmp, _ in self.constraints:
            if len(coeffs) != nv:
                raise StructuralError("constraint row has wrong length")
            if cmp not in (LEQ, EQ, GEQ):
                raise StructuralError(f"bad comparator {cmp!r}")


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None


def _cleared(xs: Sequence[Payoff]) -> tuple[list[int], int]:
    """Integer numerators of `xs` over their least common denominator."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _reduced(row: list[int]) -> list[int]:
    """`row` divided by the gcd of its entries (a zero row stays as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _objective_row(base: list[int], terms: list[tuple[int, list[int], int]]) -> list[int]:
    """base + sum of k * row / row[b] over the (k, row, b) terms, where b is
    the row's basic column, times a positive factor."""
    scale = lcm(*(row[b] for _, row, b in terms))
    obj = [scale * x for x in base]
    for k, row, b in terms:
        f = k * (scale // row[b])
        obj = [x + f * y for x, y in zip(obj, row)]
    return _reduced(obj)


def _pivot(rows: list[list[int]], obj: list[int], basis: list[int], r: int, c: int) -> None:
    """Make column c basic in row r.

    Each row stays a positive multiple of its rational tableau row: the
    pivot row is negated when its entry is negative (only the phase-1
    drive-out pivots on one), and every other row becomes p*row - f*prow.
    """
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    prow = rows[r]
    p = prow[c]
    for k, row in enumerate(rows):
        if k != r and row[c] != 0:
            f = row[c]
            rows[k] = _reduced([p * x - f * y for x, y in zip(row, prow)])
    if obj[c] != 0:
        f = obj[c]
        obj[:] = _reduced([p * x - f * y for x, y in zip(obj, prow)])
    basis[r] = c


def _run(rows: list[list[int]], obj: list[int], basis: list[int]) -> str:
    """Bland simplex loop; obj holds negated reduced costs, rhs last."""
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best_num = best_den = 0
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                # ratio row[-1] / a against best_num / best_den, both dens > 0
                lhs = row[-1] * best_den
                rhs = best_num * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    best_num, best_den = row[-1], a
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, obj, basis, leave, enter)


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of `lp`; Optimal solutions satisfy every row exactly."""
    nv = len(lp.objective)

    # Column layout: free variables split into a positive and negative part.
    cols: list[tuple[int, int]] = []  # (original var, sign)
    for j in range(nv):
        cols.append((j, 1))
        if not lp.nonneg[j]:
            cols.append((j, -1))
    nstruct = len(cols)

    # Clear each row's denominators over the split columns, then force
    # rhs >= 0.  `den` is the row's factor: its slack or artificial entry.
    raw: list[tuple[list[int], str, int]] = []
    for coeffs, cmp, rhs in lp.constraints:
        ints, den = _cleared(list(coeffs) + [rhs])
        row = [ints[j] * sign for j, sign in cols] + ints[-1:]
        if row[-1] < 0:
            row = [-x for x in row]
            cmp = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[cmp]
        raw.append((row, cmp, den))

    nslack = sum(1 for _, cmp, _ in raw if cmp != EQ)
    # Artificials: every >= / = row; <= rows start basic on their slack.
    nart = sum(1 for _, cmp, _ in raw if cmp != LEQ)
    ncols = nstruct + nslack + nart

    rows: list[list[int]] = []
    basis: list[int] = []
    slack_at = 0
    art_at = 0
    for row, cmp, den in raw:
        full = row[:-1] + [0] * (nslack + nart) + row[-1:]
        if cmp != EQ:
            full[nstruct + slack_at] = den if cmp == LEQ else -den
            slack_at += 1
        if cmp == LEQ:
            basis.append(nstruct + slack_at - 1)
        else:
            full[nstruct + nslack + art_at] = den
            basis.append(nstruct + nslack + art_at)
            art_at += 1
        rows.append(full)

    if nart:
        # Phase 1: maximize -(sum of artificials).
        unit_art = [0] * (nstruct + nslack) + [1] * nart + [0]
        obj = _objective_row(
            unit_art,
            [(-1, rows[r], b) for r, b in enumerate(basis) if b >= nstruct + nslack],
        )
        status = _run(rows, obj, basis)
        assert status == OPTIMAL  # phase 1 is bounded above by 0
        if obj[-1] != 0:
            return LpOutcome(INFEASIBLE)
        # Drive leftover artificials out of the basis; drop redundant rows.
        r = 0
        while r < len(rows):
            if basis[r] >= nstruct + nslack:
                piv = next(
                    (j for j in range(nstruct + nslack) if rows[r][j] != 0), None
                )
                if piv is None:
                    rows.pop(r)
                    basis.pop(r)
                    continue
                _pivot(rows, obj, basis, r, piv)
            r += 1
        rows = [row[: nstruct + nslack] + row[-1:] for row in rows]
        ncols = nstruct + nslack

    # Phase 2 objective: negated reduced costs of the real objective.
    cost, _ = _cleared([lp.objective[j] * sign for j, sign in cols])
    cost += [0] * (ncols - nstruct + 1)
    obj = _objective_row(
        [-c for c in cost],
        [(cost[b], rows[r], b) for r, b in enumerate(basis) if cost[b] != 0],
    )
    status = _run(rows, obj, basis)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    split = [ZERO] * nstruct
    for r, b in enumerate(basis):
        if b < nstruct:
            split[b] = Fraction(rows[r][-1], rows[r][b])
    solution = [ZERO] * nv
    for k, (j, sign) in enumerate(cols):
        solution[j] += split[k] * sign
    value = sum((c * x for c, x in zip(lp.objective, solution)), ZERO)
    return LpOutcome(OPTIMAL, value, tuple(solution))


def _advantages(
    r: Restriction, i: int, s: int, pool: Sequence[int]
) -> list[list[Payoff]]:
    """p_i(t, k) - p_i(s, k), one row per t of `pool` and one column per
    opponent joint k of R, exact as the payoff kernel holds them."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    mine, *rows = r.payoff_rows(i, [s, *pool])
    return [[x - m for x, m in zip(row, mine)] for row in rows]


def mixture_beats(r: Restriction, i: int, s: int, pool: Sequence[int]) -> bool:
    """Whether some mixture of `pool` beats `s` at every opponent joint of R.

    A slack start (Dantzig 1951): with A the advantage matrix and
    c = 1 - min A, solve max sum(y) subject to (A + c) y <= 1 and y >= 0,
    one row per pool strategy and one column per opponent joint.  The
    origin is feasible, so `solve` runs no phase 1.  Every entry of A + c
    is at least 1, so the program is bounded, and by the minimax theorem
    its optimum is 1 / (V + c) for V the max-min margin of
    `max_min_advantage`.  So V > 0 exactly when optimum * c < 1, which
    also holds when c <= 0: then every pool strategy beats s everywhere.
    """
    pool = list(pool)
    if not pool:
        raise StructuralError("empty dominator pool")
    adv = _advantages(r, i, s, pool)
    c = 1 - min(min(row) for row in adv)
    nv = len(adv[0])  # one variable per opponent joint
    rows = tuple((tuple(x + c for x in row), LEQ, 1) for row in adv)
    out = solve(LinearProgram((1,) * nv, rows, (True,) * nv))
    assert out.status == OPTIMAL and out.value is not None  # feasible at 0, bounded
    return out.value * c < 1


def max_min_advantage(
    r: Restriction, i: int, s: int, pool: Sequence[int]
) -> tuple[Fraction, MixedStrategy]:
    """Best guaranteed payoff margin of a pool mixture over `s`, and the
    mixture that attains it.

    Maximizes, over mixtures m of `pool`, the minimum over opponent joints
    in R of p_i(m, s_-i) - p_i(s, s_-i).  The margin is positive exactly
    when `s` is strictly dominated by some mixture of `pool` within R.
    Every row needs an artificial, so decisions call `mixture_beats`.
    """
    pool = list(pool)
    if not pool:
        raise StructuralError("empty dominator pool")
    n = len(pool)  # weights first, then the margin variable
    constraints = [(column + (-1,), GEQ, 0) for column in zip(*_advantages(r, i, s, pool))]
    constraints.append(((1,) * n + (0,), EQ, 1))
    out = solve(LinearProgram((0,) * n + (1,), tuple(constraints), (True,) * n + (False,)))
    assert out.status == OPTIMAL and out.value is not None  # always feasible, bounded
    return out.value, MixedStrategy.of(i, dict(zip(pool, out.solution[:n])))


def best_response_feasible(
    r: Restriction,
    i: int,
    s: int,
    mode: BeliefMode,
    compare: Optional[Sequence[int]] = None,
) -> Optional[CorrelatedBelief]:
    """Find a belief in R against which `s` is a best response, if any.

    The comparison pool defaults to R_i; passing the initial game's full
    strategy set yields the global variant.  Returns None when `s` is a
    never best response for the given belief set.  Every belief is a
    distribution over opponent joints: a point mass under pure beliefs, and
    on two players an independent belief is one over the single opponent's
    strategies, which is what the correlated LP finds.
    """
    adv = _advantages(r, i, s, r.kept[i] if compare is None else compare)
    if mode is BeliefMode.MIXED_INDEPENDENT and r.n > 2:
        raise UnsupportedConfiguration(
            "independent mixed beliefs with 3+ players are not decidable here"
        )
    opps = r.opponent_joints(i)
    nv = len(opps)
    if mode is BeliefMode.PURE:
        k = next((k for k in range(nv) if all(row[k] <= 0 for row in adv)), None)
        return None if k is None else CorrelatedBelief.of(i, {opps[k]: ONE})
    constraints = [(tuple(-x for x in row), GEQ, 0) for row in adv]
    constraints.append(((1,) * nv, EQ, 1))
    out = solve(LinearProgram((0,) * nv, tuple(constraints), (True,) * nv))
    if out.status != OPTIMAL:
        return None
    return CorrelatedBelief.of(i, dict(zip(opps, out.solution)))
