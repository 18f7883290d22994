"""Independent brute-force oracles for the test suite.

These deliberately avoid the engine's decision paths: dominance is checked
by exhaustive scans, two-support max-min values by breakpoint enumeration
of the piecewise-linear objective, and mixed-dominance refutations by
dense rational grids.  They exist to compute expected values, not to be
fast.  `fraction_simplex` is the engine's former `Fraction` tableau, kept as
the reference whose pivot path the integer tableau in `lp.solve` must follow.
`all_outcomes_reference` is the engine's former order search, which built a
`Restriction` for every subset mask; the search must admit, in the same
order, the restrictions it admits under every budget.
`walk_reference` is the engine's former order walk, which stepped on kept
tuples that `child_kepts_reference` enumerated per player: the bitmask
walk must yield the same children, in the same order, under every budget.
`reachable_steps_reference` is the engine's former step walk, which went on
past its budget without saying so; it marks the steps whose target it left
out.  `decide_reference` is the engine's former per-strategy decision of
each simple relation, with its pure-best-response prefilter; the
per-player kernel must yield the same dominated sets, and `certify` the
same certificates.
`proof_shape_reference` is the engine's former proof-shape checker,
which compared R' with the full-speed reduct and tested the residue on
its own: `check_proof_shape`, now hereditarity plus R_full <= R', must
give its answers.  `unheld_reference` is the step checkers' former loop,
which asked R and R' about every strategy of R'; `_unheld`, which reads
dom(R), must find the same first key.
`payoff`, `joints` and `full_joint` read single payoffs straight
from a game's flat tensor, validating every index, `expected_payoff`
averages them under a belief, and `check_feasible` substitutes a
candidate solution into a program: reference readers for the engine's
payoff kernel and simplex.  `persist_dominator`, with
`renormalize_without`, `substitute` and `mixed_strictly_dominates`, is
the persistence construction of acceptance criterion 4: a mixed dominator
rebased onto the survivors of a step still dominates.
`restriction_leq_reference` and `remove_reference` are the former
kept-tuple subset test and cut, and `mask_reference` spells out the bit
layout: the mask-level `restriction_leq`, `remove` and `Restriction.mask`
must agree with them.  `WeakPure` is a relation that must fail, weak
dominance, which is order dependent; `ordinal_games` enumerates every
two-player game of a shape up to each player's weak orders, and
`newman_sweep` checks the paper's chain and the proof shape on each order
graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from domelim.ars import FiniteArs, ars_is_weakly_confluent, ars_unique_nf
from domelim.dominance import (
    INHERENT_JOINT_CAP,
    Inherent,
    InherentEvidence,
    MixedDominator,
    NeverBest,
    NeverBestResponse,
    PureDominator,
    Relation,
    StrictMixed,
    StrictPure,
    dominated_set,
    is_dominated,
)
from domelim.errors import (
    DomelimError,
    InvalidCertificate,
    StructuralError,
    UnsupportedConfiguration,
)
from domelim.game import (
    BeliefMode,
    CorrelatedBelief,
    Game,
    MixedStrategy,
    Restriction,
    restriction_leq,
)
from domelim.lp import (
    EQ,
    GEQ,
    INFEASIBLE,
    LEQ,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    best_response_feasible,
    max_min_advantage,
)
from domelim.reduction import (
    DEFAULT_BUDGET,
    OutcomeSearch,
    ReductionStep,
    all_outcomes,
    check_hereditary_step,
    check_proof_shape,
    reachable_steps,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _offset(g: Game, joint) -> int:
    if len(joint) != g.n:
        raise StructuralError(f"joint has arity {len(joint)}, expected {g.n}")
    off = 0
    for idx, size in zip(joint, g.sizes):
        if not 0 <= idx < size:
            raise StructuralError(f"strategy index {idx} out of range")
        off = off * size + idx
    return off


def payoff(g: Game, i: int, joint) -> Fraction:
    """Player i's payoff at a full joint, read from the flat tensor."""
    if not 0 <= i < g.n:
        raise StructuralError(f"player index {i} out of range")
    return g.payoffs[_offset(g, joint) * g.n + i]


def joints(g: Game):
    """Every full joint of g, odometer order."""
    return product(*(range(s) for s in g.sizes))


def full_joint(r: Restriction, i: int, s: int, opp) -> tuple[int, ...]:
    """Insert player `i`'s strategy into an opponent joint."""
    if len(opp) != r.n - 1:
        raise StructuralError("opponent joint has wrong arity")
    return tuple(opp[:i]) + (s,) + tuple(opp[i:])


def expected_payoff(g: Game, i: int, s_i: int, belief: CorrelatedBelief) -> Fraction:
    """Exact expected payoff of playing `s_i` against `belief`."""
    if not isinstance(belief, CorrelatedBelief):
        raise StructuralError(f"not a belief: {type(belief).__name__}")
    if belief.player != i:
        raise StructuralError("belief belongs to a different player")
    full = Restriction.full(g)
    return sum(
        (p * payoff(g, i, full_joint(full, i, s_i, opp)) for opp, p in belief.probs), ZERO
    )


def check_feasible(lp: LinearProgram, x) -> bool:
    """Exact substitution check of a candidate solution."""
    if len(x) != len(lp.objective):
        raise StructuralError("solution has wrong length")
    for j, xi in enumerate(x):
        if lp.nonneg[j] and xi < 0:
            return False
    for coeffs, cmp, rhs in lp.constraints:
        lhs = sum((c * xi for c, xi in zip(coeffs, x)), ZERO)
        if cmp == LEQ and lhs > rhs:
            return False
        if cmp == GEQ and lhs < rhs:
            return False
        if cmp == EQ and lhs != rhs:
            return False
    return True


def payoff_row(r: Restriction, i: int, s: int) -> list[Fraction]:
    g = r.game
    return [payoff(g, i, full_joint(r, i, s, opp)) for opp in r.opponent_joints(i)]


def pure_dominator_scan(r: Restriction, i: int, s: int, pool) -> int | None:
    """First pool strategy strictly beating s everywhere, by direct scan."""
    base = payoff_row(r, i, s)
    for t in pool:
        if t == s:
            continue
        if all(a > b for a, b in zip(payoff_row(r, i, t), base)):
            return t
    return None


def weak_dominator_scan(r: Restriction, i: int, s: int, opp_subset) -> int | None:
    g = r.game
    base = [payoff(g, i, full_joint(r, i, s, opp)) for opp in opp_subset]
    for t in r.kept[i]:
        if t == s:
            continue
        row = [payoff(g, i, full_joint(r, i, t, opp)) for opp in opp_subset]
        if all(a >= b for a, b in zip(row, base)) and any(
            a > b for a, b in zip(row, base)
        ):
            return t
    return None


def best_response_scan(r: Restriction, i: int, s: int, pool) -> tuple | None:
    """Opponent joint against which s is maximal over pool, if any."""
    g = r.game
    for opp in r.opponent_joints(i):
        mine = payoff(g, i, full_joint(r, i, s, opp))
        if all(payoff(g, i, full_joint(r, i, t, opp)) <= mine for t in pool):
            return opp
    return None


def maxmin_two_support(r: Restriction, i: int, s: int, a: int, b: int) -> Fraction:
    """Exact max over mixes of {a, b} of the min payoff margin over s.

    The objective min_o [t*p(a,o) + (1-t)*p(b,o) - p(s,o)] is piecewise
    linear and concave in t, so the optimum sits at 0, 1, or a crossing of
    two of the lines; enumerate all candidates.
    """
    base = payoff_row(r, i, s)
    rows_a = payoff_row(r, i, a)
    rows_b = payoff_row(r, i, b)
    lines = [(pb - ps, pa - pb) for pa, pb, ps in zip(rows_a, rows_b, base)]

    candidates = [ZERO, ONE]
    for j in range(len(lines)):
        for k in range(j + 1, len(lines)):
            c1, d1 = lines[j]
            c2, d2 = lines[k]
            if d1 != d2:
                t = (c2 - c1) / (d1 - d2)
                if 0 <= t <= 1:
                    candidates.append(t)
    return max(min(c + d * t for c, d in lines) for t in candidates)


def _compositions(total: int, k: int):
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, k - 1):
            yield (head,) + tail


def grid_mixes(k: int, denom: int):
    """All distributions over k points with weights of denominator `denom`."""
    for comp in _compositions(denom, k):
        yield tuple(Fraction(c, denom) for c in comp)


def grid_refutes_mixed_dominance(
    r: Restriction, i: int, s: int, pool, denom: int = 64
) -> bool:
    """True when no grid mixture of the pool strictly beats s everywhere."""
    pool = list(pool)
    base = payoff_row(r, i, s)
    rows = [payoff_row(r, i, t) for t in pool]
    for weights in grid_mixes(len(pool), denom):
        values = [
            sum((w * row[j] for w, row in zip(weights, rows)), ZERO)
            for j in range(len(base))
        ]
        if all(v > p for v, p in zip(values, base)):
            return False
    return True


def ars_normal_forms_brute(nodes: int, edges, start: int) -> set[int]:
    """Sinks reachable from start by path enumeration over an edge list."""
    succ = {a: set() for a in range(nodes)}
    for a, b in edges:
        succ[a].add(b)
    reach = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in succ[x]:
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return {x for x in reach if not succ[x]}


def _frac_pivot(rows, obj, basis, r, c, stats) -> None:
    piv = rows[r][c]
    stats["pivots"] += 1
    stats["negative_pivots"] += piv < 0
    rows[r] = [x / piv for x in rows[r]]
    prow = rows[r]
    for k, row in enumerate(rows):
        if k != r and row[c] != 0:
            f = row[c]
            rows[k] = [x - f * y for x, y in zip(row, prow)]
    if obj[c] != 0:
        f = obj[c]
        for j in range(len(obj)):
            obj[j] -= f * prow[j]
    basis[r] = c


def _frac_run(rows, obj, basis, stats) -> str:
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
        best = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _frac_pivot(rows, obj, basis, leave, enter, stats)


def fraction_simplex(lp: LinearProgram) -> tuple[LpOutcome, Counter]:
    """Two-phase Bland simplex over a `Fraction` tableau.

    Returns the outcome and counts of pivots, pivots on a negative entry
    (only the phase-1 drive-out makes those) and redundant rows dropped.
    """
    stats: Counter = Counter()
    nv = len(lp.objective)
    cols = []
    for j in range(nv):
        cols.append((j, 1))
        if not lp.nonneg[j]:
            cols.append((j, -1))
    nstruct = len(cols)

    # Exact `int` coefficients become `Fraction`s, so that dividing stays exact.
    raw = []
    for coeffs, cmp, rhs in lp.constraints:
        row = [Fraction(coeffs[j]) * sign for j, sign in cols]
        rhs = Fraction(rhs)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            cmp = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[cmp]
        raw.append((row, cmp, rhs))

    m = len(raw)
    nslack = sum(1 for _, cmp, _ in raw if cmp != EQ)
    nart = sum(1 for _, cmp, _ in raw if cmp != LEQ)
    ncols = nstruct + nslack + nart

    rows = []
    basis = []
    slack_at = 0
    art_at = 0
    for row, cmp, rhs in raw:
        full = row + [ZERO] * (nslack + nart) + [rhs]
        if cmp != EQ:
            full[nstruct + slack_at] = ONE if cmp == LEQ else -ONE
            slack_at += 1
        if cmp == LEQ:
            basis.append(nstruct + slack_at - 1)
        else:
            full[nstruct + nslack + art_at] = ONE
            basis.append(nstruct + nslack + art_at)
            art_at += 1
        rows.append(full)

    if nart:
        obj = [ZERO] * (ncols + 1)
        for j in range(nstruct + nslack, ncols):
            obj[j] = ONE
        for r in range(m):
            if basis[r] >= nstruct + nslack:
                for j in range(ncols + 1):
                    obj[j] -= rows[r][j]
        assert _frac_run(rows, obj, basis, stats) == OPTIMAL
        if obj[-1] != 0:
            return LpOutcome(INFEASIBLE), stats
        r = 0
        while r < len(rows):
            if basis[r] >= nstruct + nslack:
                piv = next(
                    (j for j in range(nstruct + nslack) if rows[r][j] != 0), None
                )
                if piv is None:
                    rows.pop(r)
                    basis.pop(r)
                    stats["dropped_rows"] += 1
                    continue
                _frac_pivot(rows, obj, basis, r, piv, stats)
            r += 1
        rows = [row[: nstruct + nslack] + row[-1:] for row in rows]
        ncols = nstruct + nslack

    cost = [ZERO] * (ncols + 1)
    for k, (j, sign) in enumerate(cols):
        cost[k] = Fraction(lp.objective[j]) * sign
    obj = [-c for c in cost]
    for r, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            for j in range(ncols + 1):
                obj[j] += f * rows[r][j]
    if _frac_run(rows, obj, basis, stats) == UNBOUNDED:
        return LpOutcome(UNBOUNDED), stats

    split = [ZERO] * nstruct
    for r, b in enumerate(basis):
        if b < nstruct:
            split[b] = rows[r][-1]
    solution = [ZERO] * nv
    for k, (j, sign) in enumerate(cols):
        solution[j] += split[k] * sign
    return LpOutcome(OPTIMAL, obj[-1], tuple(solution)), stats


def _weakly_above_at(a, b, ks) -> bool:
    return all(a[k] >= b[k] for k in ks) and any(a[k] > b[k] for k in ks)


def decide_reference(rel: Relation, r: Restriction, i: int, s: int):
    """The certificate of (i, s) under a simple relation (`nbr` under pure
    beliefs only), or None, decided for this one strategy as the engine
    did before its per-player kernel."""
    pool = range(r.game.sizes[i]) if getattr(rel, "global_pool", False) else r.kept[i]
    if isinstance(rel, StrictPure):
        mine, *rows = r.payoff_rows(i, [s, *pool])
        for t, row in zip(pool, rows):
            if t != s and all(x > y for x, y in zip(row, mine)):
                return PureDominator(t)
        return None
    if isinstance(rel, StrictMixed):
        rivals = [t for t in pool if t != s]
        # A pure best response, which an empty pool always admits, settles it.
        if best_response_feasible(r, i, s, BeliefMode.PURE, rivals) is not None:
            return None
        eps, mixed = max_min_advantage(r, i, s, rivals)
        return MixedDominator(mixed, eps) if eps > 0 else None
    if isinstance(rel, NeverBestResponse):
        if rel.mode is not BeliefMode.PURE:
            raise StructuralError("the reference decides nbr under pure beliefs only")
        mine, *rows = r.payoff_rows(i, [s, *pool])
        better = []
        for k, m in enumerate(mine):
            t = next((t for t, row in zip(pool, rows) if row[k] > m), None)
            if t is None:
                return None
            better.append((r.opponent_joints(i)[k], t))
        return NeverBest(rel.mode, rel.global_pool, tuple(better))
    if isinstance(rel, Inherent):
        opps = r.opponent_joints(i)
        if len(opps) > INHERENT_JOINT_CAP:
            raise UnsupportedConfiguration(f"{len(opps)} opponent joints")
        rivals = [t for t in r.kept[i] if t != s]
        mine, *rows = r.payoff_rows(i, [s] + rivals)
        if any(all(row[k] <= m for row in rows) for k, m in enumerate(mine)):
            return None
        found = []
        for mask in range(1, 1 << len(opps)):
            ks = [k for k in range(len(opps)) if mask >> k & 1]
            dom = next(
                (t for t, row in zip(rivals, rows) if _weakly_above_at(row, mine, ks)), None
            )
            if dom is None:
                return None
            found.append((tuple(opps[k] for k in ks), dom))
        return InherentEvidence(tuple(found))
    raise StructuralError(f"not a simple relation: {rel!r}")


def mixed_strictly_dominates(r: Restriction, i: int, m: MixedStrategy, s: int) -> bool:
    """Exact check that mixture `m` beats `s` on every opponent joint of R."""
    base = payoff_row(r, i, s)
    rows = [(w, payoff_row(r, i, t)) for t, w in m.weights]
    return all(sum((w * row[k] for w, row in rows), ZERO) > b for k, b in enumerate(base))


class DegenerateDominator(DomelimError):
    """A mixed strategy placing all weight on the strategy it should avoid."""


def renormalize_without(m: MixedStrategy, s: int) -> tuple[Fraction, MixedStrategy]:
    """Split m = (1-alpha) * point(s) + alpha * n with s outside support(n)."""
    ws = m.weight(s)
    if ws == 1:
        raise DegenerateDominator("mixed strategy is the point mass on the avoided strategy")
    alpha = ONE - ws
    n = MixedStrategy.of(m.player, {t: w / alpha for t, w in m.weights if t != s})
    return alpha, n


def substitute(m: MixedStrategy, s: int, m2: MixedStrategy) -> MixedStrategy:
    """Replace s inside m by the mixture m2; stays a distribution exactly."""
    if m.player != m2.player:
        raise StructuralError("substitution across players")
    ws = m.weight(s)
    if ws == 0:
        return m
    out = {t: w for t, w in m.weights if t != s}
    for t, w in m2.weights:
        out[t] = out.get(t, ZERO) + ws * w
    return MixedStrategy.of(m.player, out)


def persist_dominator(r: Restriction, r2: Restriction, eliminated, i: int, s: int, m):
    """Rebase a dominator of s in R onto the survivors of a step R -> R2.

    `eliminated` lists player i's removed strategies t^j with mixtures m^j
    dominating them in R.  Inductively rewrites each m^j to avoid all
    previously removed strategies, then substitutes through m.  The result
    is supported inside R2 and still strictly dominates s in R; both facts
    are re-verified before returning.
    """
    removed = set(r.kept[i]) - set(r2.kept[i])
    if {t for t, _ in eliminated} != removed:
        raise InvalidCertificate("eliminated list does not match the step")
    for t, mj in eliminated:
        if mj.player != i or not mixed_strictly_dominates(r, i, mj, t):
            raise InvalidCertificate(f"claimed dominator of {t} does not dominate it in R")
    if m.player != i or not mixed_strictly_dominates(r, i, m, s):
        raise InvalidCertificate("claimed dominator of s does not dominate it in R")

    ts: list[int] = []
    ns: list[MixedStrategy] = []
    for t_j, m_j in eliminated:
        rewritten = m_j
        for t_prev, n_prev in zip(ts, ns):
            rewritten = substitute(rewritten, t_prev, n_prev)
        _, n_j = renormalize_without(rewritten, t_j)
        ts.append(t_j)
        ns.append(n_j)
    result = m
    for t_j, n_j in zip(ts, ns):
        result = substitute(result, t_j, n_j)

    if not set(result.support) <= set(r2.kept[i]):
        raise InvalidCertificate("persisted dominator escapes the reduced restriction")
    if not mixed_strictly_dominates(r, i, result, s):
        raise InvalidCertificate("persisted dominator lost strict dominance")
    return result


def all_outcomes_reference(
    rel: Relation, g: Game, budget: int = DEFAULT_BUDGET
) -> OutcomeSearch:
    """All reachable irreducible restrictions, memoized on restrictions.

    Exceeding the budget returns the partial outcome set with
    `complete=False`; it never truncates silently.
    """
    start = Restriction.full(g)
    seen: set[Restriction] = {start}
    outcomes: set[Restriction] = set()
    stack = [start]
    complete = True
    while stack:
        r = stack.pop()
        dom = dominated_set(rel, r)
        if not dom:
            outcomes.add(r)
            continue
        keys = sorted(dom)
        for mask in range(1, 1 << len(keys)):
            child = r.remove(k for j, k in enumerate(keys) if mask >> j & 1)
            if child not in seen:
                if len(seen) >= budget:
                    complete = False
                    continue
                seen.add(child)
                stack.append(child)
    return OutcomeSearch(frozenset(outcomes), complete, len(seen))


def child_kepts_reference(r: Restriction, keys):
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


def walk_reference(rel: Relation, g: Game, budget: int):
    """Depth-first walk of the order graph from the full game, keyed by kept
    tuples.  Yields per admitted restriction its kept tuple, its dominated
    keys, and its children's kept tuples in bitmask order, None where the
    budget dropped one."""
    start = Restriction(g, tuple(tuple(range(k)) for k in g.sizes))
    seen = {start.kept}
    stack = [start]
    while stack:
        r = stack.pop()
        dom = dominated_set(rel, r)
        children = []
        for kept in child_kepts_reference(r, dom) if dom else ():
            if kept not in seen and len(seen) < budget:
                seen.add(kept)
                stack.append(Restriction(g, kept))
            children.append(kept if kept in seen else None)
        yield r.kept, dom, children


def reachable_steps_reference(rel: Relation, g: Game, budget: int = DEFAULT_BUDGET):
    """Every distinct step in the order graph from the full game, as pairs
    `(step, dropped)`; `dropped` marks a step to a restriction that was not
    yet seen when `budget` restrictions already were, so the walk did not
    go on from it."""
    start = Restriction.full(g)
    seen = {start}
    stack = [start]
    while stack:
        r = stack.pop()
        keys = sorted(dominated_set(rel, r))
        for mask in range(1, 1 << len(keys)):
            removed = tuple(k for j, k in enumerate(keys) if mask >> j & 1)
            step = ReductionStep(r, r.remove(removed), removed)
            dropped = step.after not in seen and len(seen) >= budget
            yield step, dropped
            if step.after not in seen and len(seen) < budget:
                seen.add(step.after)
                stack.append(step.after)


def unheld_reference(rel: Relation, r: Restriction, r2: Restriction):
    """First strategy of r2, in canonical order, dominated in r but not in r2."""
    for i, s in r2.strategies():
        if is_dominated(rel, r, i, s) and not is_dominated(rel, r2, i, s):
            return (i, s)
    return None


def proof_shape_reference(rel: Relation, step: ReductionStep) -> bool:
    """Weak-confluence shape: R' equals the full-speed reduct or steps to it."""
    r, r_prime = step.before, step.after
    dom = dominated_set(rel, r)
    r_full = r.remove(dom)
    if r_prime == r_full:
        return True
    # R'' is inside R'; the residue must be a valid single step of R'.
    if not restriction_leq(r_full, r_prime):
        return False
    residue = [
        (i, s) for i, s in r_prime.strategies() if not r_full.contains(i, s)
    ]
    return all(is_dominated(rel, r_prime, i, s) for i, s in residue)


def restriction_leq_reference(r1: Restriction, r2: Restriction) -> bool:
    """The former componentwise subset test on kept tuples."""
    if r1.game != r2.game:
        raise StructuralError("restrictions of different initial games")
    return all(set(a) <= set(b) for a, b in zip(r1.kept, r2.kept))


def remove_reference(r: Restriction, removed) -> Restriction:
    """The former `remove`: `r` less the `removed` keys, cut from the kept
    tuples and rebuilt by the checked constructor."""
    gone = set(removed)
    for i, s in gone:
        if not r.contains(i, s):
            raise StructuralError(f"({i},{s}) not present in restriction")
    kept = tuple(tuple(s for s in ks if (i, s) not in gone) for i, ks in enumerate(r.kept))
    return Restriction(r.game, kept)


def mask_reference(r: Restriction) -> int:
    """The bitmask of `r`'s kept tuples: strategy s of player i is bit s
    past the strategies of the players before i."""
    return sum(1 << (sum(r.game.sizes[:i]) + s) for i, s in r.strategies())


@dataclass(frozen=True)
class WeakPure:
    """Test-only weak dominance by a pure strategy of R_i: t is at least as
    good as s at every opponent joint of R and better at one.  It is the
    classic order-dependent relation (Gilboa, Kalai and Zemel 1990), decided
    on the masks: t beats s somewhere in R and s beats t nowhere."""

    belief_mode = None
    name = "weak-pure"

    def dominated(self, r: Restriction, i: int):
        m, beats = r.opponent_mask(i), r.game.beats[i]
        for s in r.kept[i]:
            if any(beats[t][s] & m and not beats[s][t] & m for t in r.kept[i]):
                yield s


def dense_ranks(k: int) -> list[tuple[int, ...]]:
    """Every weak order of k strategies as dense ranks: the values used are
    0..m, 0 the worst."""
    return [v for v in product(range(k), repeat=k) if set(v) == set(range(max(v) + 1))]


def ordinal_games(rows: int, cols: int):
    """Every two-player rows x cols game whose payoffs are dense ranks: at
    each opponent strategy, each player's payoffs over their own strategies
    are one of `dense_ranks`.  The LP-free decisions read only these weak
    orders, so these games stand for every game of that shape."""
    labels = ([f"r{k}" for k in range(rows)], [f"c{k}" for k in range(cols)])
    for first in product(dense_ranks(rows), repeat=cols):
        for second in product(dense_ranks(cols), repeat=rows):
            table = [(first[c][r], second[r][c]) for r in range(rows) for c in range(cols)]
            yield Game.from_table(labels, table)


def newman_sweep(games, rels) -> dict:
    """Per relation name, four sets of indices into `games`: the games it
    is order dependent on, those with a non-hereditary reachable step,
    those with a reachable step not of the proof shape, and those that
    break the paper's chain on the order graph.  The chain: if every step
    is hereditary there is one outcome, and there is one outcome exactly
    when the graph's `FiniteArs` is weakly confluent, and exactly when it
    has unique normal forms (Newman's lemma on a finite acyclic system).
    A graph the walk did not cover whole breaks it too."""
    out = {rel.name: (set(), set(), set(), set()) for rel in rels}
    for k, g in enumerate(games):
        for rel in rels:
            dependent, unheld, shapeless, broken = out[rel.name]
            search = all_outcomes(rel, g)
            index = {Restriction.full(g): 0}
            arrows = set()
            hereditary = shaped = True
            for step in reachable_steps(rel, g):
                hereditary = hereditary and check_hereditary_step(rel, step) is None
                shaped = shaped and check_proof_shape(rel, step)
                a = index.setdefault(step.before, len(index))
                arrows.add((a, index.setdefault(step.after, len(index))))
            ars = FiniteArs(len(index), frozenset(arrows))
            one = len(search.outcomes) == 1
            if not one:
                dependent.add(k)
            if not hereditary:
                unheld.add(k)
            if not shaped:
                shapeless.add(k)
            whole = search.complete and len(index) == search.explored
            chain = one == ars_is_weakly_confluent(ars)[0] == ars_unique_nf(ars)
            if not (whole and chain) or (hereditary and not one):
                broken.add(k)
    return out
