"""The dominance relations, their certificates, and mixed-strategy surgery.

Each relation maps a restriction R to the set of strategies it dominates
there, together with a certificate that re-verifies by substitution:

  StrictPure / GlobalStrictPure    pure dominator from R_i / G_i
  StrictMixed / GlobalStrictMixed  mixed dominator from R_i\\{s} / G_i\\{s}
  NeverBestResponse(mode)          no belief in R makes s a best response
  GlobalNeverBestResponse(mode)    comparison pool is G_i instead of R_i
  Inherent                         weakly dominated on every nonempty
                                   subset of opponent joints
  Intersection(parts)              dominated under every part

Relations are hashable values so dominated sets can be memoized per
(relation, restriction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .errors import (
    AssumptionViolated,
    DegenerateDominator,
    InvalidCertificate,
    StructuralError,
    UnsupportedConfiguration,
)
from .game import (
    ONE,
    ZERO,
    BeliefMode,
    MixedStrategy,
    Restriction,
)
from .lp import best_response_feasible, max_min_advantage, pure_best_response

INHERENT_JOINT_CAP = 16


# ---------------------------------------------------------------------------
# Relation tags


@dataclass(frozen=True)
class StrictPure:
    pass


@dataclass(frozen=True)
class GlobalStrictPure:
    pass


@dataclass(frozen=True)
class StrictMixed:
    pass


@dataclass(frozen=True)
class GlobalStrictMixed:
    pass


@dataclass(frozen=True)
class NeverBestResponse:
    mode: BeliefMode


@dataclass(frozen=True)
class GlobalNeverBestResponse:
    mode: BeliefMode


@dataclass(frozen=True)
class Inherent:
    pass


@dataclass(frozen=True)
class Intersection:
    parts: tuple["Relation", ...]

    def __post_init__(self):
        if not self.parts:
            raise StructuralError("intersection of zero relations")


Relation = Union[
    StrictPure,
    GlobalStrictPure,
    StrictMixed,
    GlobalStrictMixed,
    NeverBestResponse,
    GlobalNeverBestResponse,
    Inherent,
    Intersection,
]


def relation_name(rel: Relation) -> str:
    if isinstance(rel, StrictPure):
        return "strict-pure"
    if isinstance(rel, GlobalStrictPure):
        return "global-strict-pure"
    if isinstance(rel, StrictMixed):
        return "strict-mixed"
    if isinstance(rel, GlobalStrictMixed):
        return "global-strict-mixed"
    if isinstance(rel, NeverBestResponse):
        return "nbr"
    if isinstance(rel, GlobalNeverBestResponse):
        return "global-nbr"
    if isinstance(rel, Inherent):
        return "inherent"
    if isinstance(rel, Intersection):
        return ",".join(relation_name(p) for p in rel.parts)
    raise StructuralError(f"not a relation: {type(rel).__name__}")


_SIMPLE_NAMES = {
    "strict-pure": StrictPure,
    "global-strict-pure": GlobalStrictPure,
    "strict-mixed": StrictMixed,
    "global-strict-mixed": GlobalStrictMixed,
    "inherent": Inherent,
}


def parse_relation(name: str, beliefs: BeliefMode = BeliefMode.PURE) -> Relation:
    """Parse a relation name; comma-joined names form an intersection."""
    parts = []
    for token in name.split(","):
        token = token.strip()
        if token in _SIMPLE_NAMES:
            parts.append(_SIMPLE_NAMES[token]())
        elif token == "nbr":
            parts.append(NeverBestResponse(beliefs))
        elif token == "global-nbr":
            parts.append(GlobalNeverBestResponse(beliefs))
        else:
            raise StructuralError(f"unknown relation {token!r}")
    return parts[0] if len(parts) == 1 else Intersection(tuple(parts))


def relation_belief_mode(rel: Relation) -> Optional[BeliefMode]:
    """The belief mode a relation depends on, if any."""
    if isinstance(rel, (NeverBestResponse, GlobalNeverBestResponse)):
        return rel.mode
    if isinstance(rel, Intersection):
        for p in rel.parts:
            mode = relation_belief_mode(p)
            if mode is not None:
                return mode
    return None


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class PureDominator:
    strategy: int


@dataclass(frozen=True)
class MixedDominator:
    mixed: MixedStrategy
    eps: Fraction


@dataclass(frozen=True)
class NeverBest:
    """Evidence that no belief admits `s` as a best response.

    In PURE mode `better` pairs each opponent joint with a strictly better
    pool strategy; in the LP modes infeasibility of the best-response
    program is the evidence and `better` is empty.
    """

    mode: BeliefMode
    global_pool: bool
    better: tuple[tuple[tuple[int, ...], int], ...] = ()


@dataclass(frozen=True)
class InherentEvidence:
    """One weak dominator per nonempty subset of opponent joints."""

    dominators: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]


@dataclass(frozen=True)
class IntersectionEvidence:
    parts: tuple["Certificate", ...]


Certificate = Union[
    PureDominator, MixedDominator, NeverBest, InherentEvidence, IntersectionEvidence
]


# ---------------------------------------------------------------------------
# Elementary dominance tests


def strictly_dominates_pure(r: Restriction, i: int, s_dom: int, s: int) -> bool:
    """p_i(s_dom, .) > p_i(s, .) on every opponent joint of R."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    dom, mine = r.payoff_rows(i, [s_dom, s])
    return _above(dom, mine)


def weakly_dominates_pure(
    r: Restriction,
    i: int,
    s_dom: int,
    s: int,
    opp_subset: Sequence[tuple[int, ...]],
) -> bool:
    """>= on all of `opp_subset` with > somewhere in it.

    `opp_subset` is a set of opponent joints of R, not necessarily a product.
    """
    if not opp_subset:
        raise StructuralError("empty opponent subset")
    if not (r.contains(i, s) and r.contains(i, s_dom)):
        raise StructuralError("both strategies must be in the restriction")
    dom, mine = r.payoff_rows(i, [s_dom, s])
    return _weakly_above(dom, mine, r.opponent_positions(i, opp_subset))


def _above(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """a > b entrywise."""
    return all(x > y for x, y in zip(a, b))


def _weakly_above(a: Sequence[Fraction], b: Sequence[Fraction], ks: Sequence[int]) -> bool:
    """a >= b at every position in `ks`, and a > b at one of them."""
    strict = False
    for k in ks:
        if a[k] < b[k]:
            return False
        if a[k] > b[k]:
            strict = True
    return strict


def _nonempty_subsets(items: Sequence) -> list[tuple]:
    """All nonempty subsets, bitmask odometer order (low bit = first item)."""
    out = []
    for mask in range(1, 1 << len(items)):
        out.append(tuple(x for k, x in enumerate(items) if mask >> k & 1))
    return out


def is_inherently_dominated(
    r: Restriction, i: int, s: int, cap: int = INHERENT_JOINT_CAP
) -> tuple[bool, Optional[InherentEvidence]]:
    """Weakly dominated given every nonempty subset of opponent joints."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    opps = r.opponent_joints(i)
    if len(opps) > cap:
        raise UnsupportedConfiguration(
            f"{len(opps)} opponent joints exceed the inherent-dominance cap {cap}"
        )
    rivals = [t for t in r.kept[i] if t != s]
    # Quick refutation: a singleton subset needs a strictly better rival.
    if pure_best_response(r, i, s, rivals) is not None:
        return False, None
    mine, *rows = r.payoff_rows(i, [s] + rivals)
    found: list[tuple[tuple[tuple[int, ...], ...], int]] = []
    for subset, ks in zip(_nonempty_subsets(opps), _nonempty_subsets(range(len(opps)))):
        dom = next(
            (t for t, row in zip(rivals, rows) if _weakly_above(row, mine, ks)), None
        )
        if dom is None:
            return False, None
        found.append((subset, dom))
    return True, InherentEvidence(tuple(found))


# ---------------------------------------------------------------------------
# Membership and dominated sets


def is_dominated(rel: Relation, r: Restriction, i: int, s: int) -> Optional[Certificate]:
    """Certificate if (i, s) is rel-dominated in r, else None.

    Answers come from the memoized per-restriction dominated set, so
    repeated membership queries against one restriction cost one scan.
    """
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    for key, cert in _dominated_entries(rel, r):
        if key == (i, s):
            return cert
    return None


def _is_dominated_raw(
    rel: Relation, r: Restriction, i: int, s: int
) -> Optional[Certificate]:
    g = r.game
    if isinstance(rel, StrictPure) or isinstance(rel, GlobalStrictPure):
        pool = range(g.sizes[i]) if isinstance(rel, GlobalStrictPure) else r.kept[i]
        mine, *rows = r.payoff_rows(i, [s, *pool])
        for t, row in zip(pool, rows):
            if t != s and _above(row, mine):
                return PureDominator(t)
        return None
    if isinstance(rel, StrictMixed) or isinstance(rel, GlobalStrictMixed):
        if isinstance(rel, GlobalStrictMixed):
            pool = [t for t in range(g.sizes[i]) if t != s]
        else:
            pool = [t for t in r.kept[i] if t != s]
        # A pure best response of s settles it: eps <= 0 without the LP.
        if not pool or pure_best_response(r, i, s, pool) is not None:
            return None
        eps, mixed = max_min_advantage(r, i, s, pool)
        return MixedDominator(mixed, eps) if eps > 0 else None
    if isinstance(rel, (NeverBestResponse, GlobalNeverBestResponse)):
        global_pool = isinstance(rel, GlobalNeverBestResponse)
        compare = tuple(range(g.sizes[i])) if global_pool else None
        pool = compare if compare is not None else r.kept[i]
        # Where the LP decides (correlated beliefs, or independent ones on two
        # players), a pure best response is already a witness.
        solved_by_lp = rel.mode is BeliefMode.CORRELATED or (
            rel.mode is BeliefMode.MIXED_INDEPENDENT and r.n == 2
        )
        if solved_by_lp and pure_best_response(r, i, s, pool) is not None:
            return None
        witness = best_response_feasible(r, i, s, rel.mode, compare)
        if witness is not None:
            return None
        if rel.mode is BeliefMode.PURE:
            mine, *rows = r.payoff_rows(i, [s, *pool])
            better = tuple(
                (opp, next(t for t, row in zip(pool, rows) if row[k] > mine[k]))
                for k, opp in enumerate(r.opponent_joints(i))
            )
            return NeverBest(rel.mode, global_pool, better)
        return NeverBest(rel.mode, global_pool)
    if isinstance(rel, Inherent):
        ok, ev = is_inherently_dominated(r, i, s)
        return ev if ok else None
    if isinstance(rel, Intersection):
        certs = []
        for part in rel.parts:
            c = is_dominated(part, r, i, s)
            if c is None:
                return None
            certs.append(c)
        return IntersectionEvidence(tuple(certs))
    raise StructuralError(f"not a relation: {type(rel).__name__}")


@lru_cache(maxsize=None)
def _dominated_entries(
    rel: Relation, r: Restriction
) -> tuple[tuple[tuple[int, int], Certificate], ...]:
    """The memo: (strategy, certificate) pairs in canonical order.

    Pairs, not a dict: dominated sets are a few entries long, and a dict per
    memoized restriction costs about a tenth more peak memory on a full
    order search.
    """
    out = []
    for i, s in r.strategies():
        cert = _is_dominated_raw(rel, r, i, s)
        if cert is not None:
            out.append(((i, s), cert))
    return tuple(out)


def dominated_set(
    rel: Relation, r: Restriction, validate: bool = True
) -> dict[tuple[int, int], Certificate]:
    """All rel-dominated strategies of r with certificates, canonical order.

    With `validate` (the default) every player must keep at least one
    undominated strategy; a violation raises AssumptionViolated and marks
    a defect, since reachable restrictions never trip it.
    """
    entries = _dominated_entries(rel, r)
    if validate:
        dominated_count = [0] * r.n
        for (i, _), _cert in entries:
            dominated_count[i] += 1
        for i, ks in enumerate(r.kept):
            if dominated_count[i] == len(ks):
                raise AssumptionViolated(
                    f"player {i} has no {relation_name(rel)}-undominated strategy"
                )
    return dict(entries)


# ---------------------------------------------------------------------------
# Certificate re-verification


def verify_certificate(
    rel: Relation, r: Restriction, i: int, s: int, cert: Certificate
) -> bool:
    """Re-check a certificate against the defining inequalities."""
    g = r.game
    if isinstance(rel, (StrictPure, GlobalStrictPure)):
        if not isinstance(cert, PureDominator):
            return False
        if isinstance(rel, StrictPure) and not r.contains(i, cert.strategy):
            return False
        return strictly_dominates_pure(r, i, cert.strategy, s)
    if isinstance(rel, (StrictMixed, GlobalStrictMixed)):
        if not isinstance(cert, MixedDominator) or cert.eps <= 0:
            return False
        m = cert.mixed
        if s in m.support:
            return False
        if isinstance(rel, StrictMixed) and not all(
            r.contains(i, t) for t in m.support
        ):
            return False
        return mixed_strictly_dominates(r, i, m, s)
    if isinstance(rel, (NeverBestResponse, GlobalNeverBestResponse)):
        if not isinstance(cert, NeverBest) or cert.mode != rel.mode:
            return False
        # Recompute the decision; the LP-mode evidence is non-positive.
        return is_dominated(rel, r, i, s) is not None
    if isinstance(rel, Inherent):
        if not isinstance(cert, InherentEvidence):
            return False
        opps = r.opponent_joints(i)
        covered = {subset for subset, _ in cert.dominators}
        if covered != set(_nonempty_subsets(opps)):
            return False
        return all(
            weakly_dominates_pure(r, i, t, s, subset)
            for subset, t in cert.dominators
        )
    if isinstance(rel, Intersection):
        if not isinstance(cert, IntersectionEvidence):
            return False
        if len(cert.parts) != len(rel.parts):
            return False
        return all(
            verify_certificate(p, r, i, s, c)
            for p, c in zip(rel.parts, cert.parts)
        )
    raise StructuralError(f"not a relation: {type(rel).__name__}")


def mixed_strictly_dominates(r: Restriction, i: int, m: MixedStrategy, s: int) -> bool:
    """Exact check that mixture `m` beats `s` on every opponent joint of R."""
    mine, *rows = r.payoff_rows(i, [s, *m.support])
    for k, base in enumerate(mine):
        value = sum((w * row[k] for (_, w), row in zip(m.weights, rows)), ZERO)
        if value <= base:
            return False
    return True


# ---------------------------------------------------------------------------
# Mixed-strategy surgery (persistence construction)


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


def persist_dominator(
    r: Restriction,
    r2: Restriction,
    eliminated: Sequence[tuple[int, MixedStrategy]],
    i: int,
    s: int,
    m: MixedStrategy,
) -> MixedStrategy:
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
