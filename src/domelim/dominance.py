"""The dominance relations, their certificates, and mixed-strategy surgery.

Each relation maps a restriction R to the set of strategies it dominates
there, together with a certificate that re-verifies by substitution:

  StrictPure(global_pool)              a pure pool strategy beats s
  StrictMixed(global_pool)             a mixture of the pool less s beats s
  NeverBestResponse(mode, global_pool) no belief makes s a best response
                                       against the pool
  Inherent()                           weakly dominated within R_i on every
                                       nonempty subset of opponent joints
  Intersection(parts)                  dominated under every part

"Beats" means strictly, on every opponent joint of R.  The pool is R_i;
`global_pool=True` makes it G_i, the initial game's strategies, which is
the "global" variant.  `mode` is what an NBR belief ranges over: pure
opponent joints, independent mixtures (exact on two players only), or
correlated distributions.  Each class owns its `name`, its `belief_mode`,
its decision `dominated(r, i)`, which yields player i's dominated
strategies with their certificates in R_i order, and its check
`verify(r, i, s, cert)`.  Relations are hashable values so dominated sets
can be memoized per (relation, restriction), on the restriction's game.

A decision reads player i's payoff rows over the pool once, with the
pool's column maxima (one column per opponent joint of R).  A strategy of
R_i whose row meets some column maximum is a best response to that joint
(Pearce 1984), so it is dominated under none of the relations: no pure or
mixed pool strategy beats it there, a pure belief makes it a best
response, and the singleton subset of that joint refutes its inherent
dominance.  Only the strategies meeting no column maximum are examined
further, and under pure beliefs each of them is a never best response.
Certificates are canonical: the first dominator in pool order, the first
better pool strategy at each joint, the first weak dominator on each
subset of joints in odometer order, and the mixture the max-min LP finds.

`StrictMixed` runs the max-min LP only on a strategy that no pure pool
strategy beats.  One that a pure rival beats is dominated (the rival is a
mixture), so it gets a deferred `MixedDominator`, whose LP runs the first
time its mixture or margin is read and gives the certificate the eager LP
would.  The order walk and the step checkers read only which strategies
are dominated, so they solve none; a trace solves one per removal written.

Under correlated beliefs, and independent ones on two players (where an
independent belief is a distribution over the one opponent's strategies),
`s` is a never best response against a pool exactly when a mixture of the
pool less `s` beats it: the two LPs are duals (Pearce 1984, Lemma 3).  So
LP-mode NBR reads the `StrictMixed` memo entry of the same pool flag and
restriction, and one decision serves `strict-mixed` and both LP modes of
`nbr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

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
    Payoff,
    Restriction,
)
from .lp import max_min_advantage

INHERENT_JOINT_CAP = 16


# ---------------------------------------------------------------------------
# Relations


def _pool(rel, r: Restriction, i: int) -> Sequence[int]:
    """The strategies a dominator may use: G_i for a global relation, else R_i."""
    return range(r.game.sizes[i]) if rel.global_pool else r.kept[i]


@dataclass(frozen=True)
class StrictPure:
    global_pool: bool = False
    belief_mode = None

    @property
    def name(self) -> str:
        return "global-strict-pure" if self.global_pool else "strict-pure"

    def dominated(self, r: Restriction, i: int) -> Iterator[tuple[int, PureDominator]]:
        pool = _pool(self, r, i)
        rows, candidates = _candidates(r, i, pool)
        for s, mine in candidates:
            t = next((t for t, row in zip(pool, rows) if _above(row, mine)), None)
            if t is not None:
                yield s, PureDominator(t)

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, PureDominator) or cert.strategy not in _pool(self, r, i):
            return False
        return strictly_dominates_pure(r, i, cert.strategy, s)


@dataclass(frozen=True)
class StrictMixed:
    global_pool: bool = False
    belief_mode = None

    @property
    def name(self) -> str:
        return "global-strict-mixed" if self.global_pool else "strict-mixed"

    def dominated(self, r: Restriction, i: int) -> Iterator[tuple[int, MixedDominator]]:
        pool = _pool(self, r, i)
        rows, candidates = _candidates(r, i, pool)
        for s, mine in candidates:
            rivals = [t for t in pool if t != s]
            if any(_above(row, mine) for row in rows):
                # A pure rival beats s, so the margin is positive: solve on read.
                yield s, MixedDominator.deferred(r, i, s, rivals)
            else:
                eps, mixed = max_min_advantage(r, i, s, rivals)
                if eps > 0:
                    yield s, MixedDominator(mixed, eps)

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, MixedDominator) or cert.eps <= 0:
            return False
        support, pool = cert.mixed.support, _pool(self, r, i)
        if s in support or not all(t in pool for t in support):
            return False
        return _mixed_margin(r, i, cert.mixed, s) == cert.eps


@dataclass(frozen=True)
class NeverBestResponse:
    mode: BeliefMode
    global_pool: bool = False

    @property
    def name(self) -> str:
        return "global-nbr" if self.global_pool else "nbr"

    @property
    def belief_mode(self) -> BeliefMode:
        return self.mode

    def dominated(self, r: Restriction, i: int) -> Iterator[tuple[int, NeverBest]]:
        if self.mode is BeliefMode.PURE:
            # A strategy meeting no column maximum is beaten at every joint.
            pool = _pool(self, r, i)
            rows, candidates = _candidates(r, i, pool)
            opps = r.opponent_joints(i) if candidates else ()
            for s, mine in candidates:
                better = tuple(
                    (opp, next(t for t, row in zip(pool, rows) if row[k] > m))
                    for k, (opp, m) in enumerate(zip(opps, mine))
                )
                yield s, NeverBest(self.mode, self.global_pool, better)
            return
        if self.mode is BeliefMode.MIXED_INDEPENDENT and r.n > 2:
            raise UnsupportedConfiguration(
                "independent mixed beliefs with 3+ players are not decidable here"
            )
        # LP duality: never a best response iff strictly dominated by a mixture.
        mixed = _dominated_entries(StrictMixed(self.global_pool), r)
        for s in r.kept[i]:
            if (i, s) in mixed:
                yield s, NeverBest(self.mode, self.global_pool)

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, NeverBest):
            return False
        if cert.mode != self.mode or cert.global_pool != self.global_pool:
            return False
        if self.mode is not BeliefMode.PURE:
            # The LP-mode evidence is the decision itself: recompute it.
            return not cert.better and is_dominated(self, r, i, s) is not None
        # One strictly better pool strategy at each opponent joint of R.
        opps = r.opponent_joints(i)
        joints = [opp for opp, _ in cert.better]
        if len(joints) != len(opps) or set(joints) != set(opps):
            return False
        pool = _pool(self, r, i)
        better = [t for _, t in cert.better]
        if not all(t in pool for t in better):
            return False
        mine, *rows = r.payoff_rows(i, [s, *better])
        ks = r.opponent_positions(i, joints)
        return all(row[k] > mine[k] for row, k in zip(rows, ks))


@dataclass(frozen=True)
class Inherent:
    name = "inherent"
    belief_mode = None

    def dominated(self, r: Restriction, i: int) -> Iterator[tuple[int, InherentEvidence]]:
        opps = _inherent_joints(r, i)
        pool = r.kept[i]
        rows, candidates = _candidates(r, i, pool)
        for s, mine in candidates:
            ev = _inherent_evidence(opps, pool, rows, mine)
            if ev is not None:
                yield s, ev

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, InherentEvidence):
            return False
        covered = {subset for subset, _ in cert.dominators}
        if covered != set(_nonempty_subsets(_inherent_joints(r, i))):
            return False
        return all(
            weakly_dominates_pure(r, i, t, s, subset)
            for subset, t in cert.dominators
        )


@dataclass(frozen=True)
class Intersection:
    parts: tuple["Relation", ...]

    def __post_init__(self):
        if not self.parts:
            raise StructuralError("intersection of zero relations")

    @property
    def name(self) -> str:
        return ",".join(p.name for p in self.parts)

    @property
    def belief_mode(self) -> Optional[BeliefMode]:
        """The first part's belief mode that is not None, if any."""
        return next(
            (p.belief_mode for p in self.parts if p.belief_mode is not None), None
        )

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, IntersectionEvidence) or len(cert.parts) != len(self.parts):
            return False
        return all(p.verify(r, i, s, c) for p, c in zip(self.parts, cert.parts))


Relation = Union[StrictPure, StrictMixed, NeverBestResponse, Inherent, Intersection]


# Per belief mode, every simple relation by name.
_BY_NAME = {
    mode: {
        rel.name: rel
        for pool in (False, True)
        for rel in (
            StrictPure(pool), StrictMixed(pool), NeverBestResponse(mode, pool), Inherent()
        )
    }
    for mode in BeliefMode
}


def parse_relation(name: str, beliefs: BeliefMode = BeliefMode.PURE) -> Relation:
    """Parse a relation name; comma-joined names form an intersection."""
    known = _BY_NAME[beliefs]
    parts = []
    for token in name.split(","):
        token = token.strip()
        if token not in known:
            raise StructuralError(f"unknown relation {token!r}")
        parts.append(known[token])
    return parts[0] if len(parts) == 1 else Intersection(tuple(parts))


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class PureDominator:
    strategy: int


class MixedDominator:
    """A mixture of the pool less s; eps is its least advantage over s.

    `deferred(r, i, s, rivals)` stands for the certificate the max-min LP
    over `rivals` gives, for an `s` that a pure rival is known to beat.  The
    LP runs the first time `mixed` or `eps` is read (equality, hash and repr
    read them too), and the result replaces the problem, so an unread
    certificate costs no LP and a read one exactly one.
    """

    __slots__ = ("_problem", "_solution")

    def __init__(self, mixed: MixedStrategy, eps: Fraction):
        self._problem, self._solution = None, (mixed, eps)

    @classmethod
    def deferred(
        cls, r: Restriction, i: int, s: int, rivals: Sequence[int]
    ) -> MixedDominator:
        cert = cls.__new__(cls)
        cert._problem = (r, i, s, rivals)
        return cert

    def _solved(self) -> tuple[MixedStrategy, Fraction]:
        if self._problem is not None:
            eps, mixed = max_min_advantage(*self._problem)
            assert eps > 0  # a pure rival beats s
            self._problem, self._solution = None, (mixed, eps)
        return self._solution

    @property
    def mixed(self) -> MixedStrategy:
        return self._solved()[0]

    @property
    def eps(self) -> Fraction:
        return self._solved()[1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._solved() == other._solved()

    def __hash__(self):
        return hash(self._solved())

    def __repr__(self):
        mixed, eps = self._solved()
        return f"MixedDominator(mixed={mixed!r}, eps={eps!r})"


@dataclass(frozen=True)
class NeverBest:
    """Evidence that no belief admits `s` as a best response.

    In PURE mode `better` pairs each opponent joint with a strictly better
    pool strategy, and is checked by substitution.  In the LP modes
    `better` is empty: the evidence is that the best-response program is
    infeasible, which holds exactly when a mixture of the pool less `s`
    beats `s`, and the verifier recomputes that decision.
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


def _above(a: Sequence[Payoff], b: Sequence[Payoff]) -> bool:
    """a > b entrywise."""
    return all(x > y for x, y in zip(a, b))


def _weakly_above(a: Sequence[Payoff], b: Sequence[Payoff], ks: Sequence[int]) -> bool:
    """a >= b at every position in `ks`, and a > b at one of them."""
    strict = False
    for k in ks:
        if a[k] < b[k]:
            return False
        if a[k] > b[k]:
            strict = True
    return strict


def _nonempty_subsets(items: Sequence) -> Iterator[tuple]:
    """All nonempty subsets, bitmask odometer order (low bit = first item)."""
    for mask in range(1, 1 << len(items)):
        yield tuple(x for k, x in enumerate(items) if mask >> k & 1)


def _candidates(
    r: Restriction, i: int, pool: Sequence[int]
) -> tuple[list[list[Payoff]], list[tuple[int, list[Payoff]]]]:
    """Player i's payoff rows over `pool`, which holds R_i, and the
    strategies of R_i that meet no column maximum, each with its row: the
    only ones any relation can dominate (see the module docstring)."""
    rows = r.payoff_rows(i, pool)
    tops = [max(column) for column in zip(*rows)]
    row_of = dict(zip(pool, rows))
    return rows, [(s, row_of[s]) for s in r.kept[i] if _above(tops, row_of[s])]


def _inherent_joints(r: Restriction, i: int) -> tuple[tuple[int, ...], ...]:
    """Player i's opponent joints, within the cap on their subsets."""
    opps = r.opponent_joints(i)
    if len(opps) > INHERENT_JOINT_CAP:
        raise UnsupportedConfiguration(
            f"{len(opps)} opponent joints exceed the inherent-dominance cap "
            f"{INHERENT_JOINT_CAP}"
        )
    return opps


def _inherent_evidence(
    opps: Sequence[tuple[int, ...]],
    pool: Sequence[int],
    rows: Sequence[Sequence[Payoff]],
    mine: Sequence[Payoff],
) -> Optional[InherentEvidence]:
    """The first pool strategy weakly above `mine` on each nonempty subset
    of `opps` (the columns of `rows`), in odometer order; None once a
    subset has none.  A row equal to `mine` is never weakly above it."""
    found = []
    for ks in _nonempty_subsets(range(len(opps))):
        dom = next((t for t, row in zip(pool, rows) if _weakly_above(row, mine, ks)), None)
        if dom is None:
            return None
        found.append((ks, dom))
    return InherentEvidence(tuple((tuple(opps[k] for k in ks), t) for ks, t in found))


def is_inherently_dominated(
    r: Restriction, i: int, s: int
) -> tuple[bool, Optional[InherentEvidence]]:
    """Weakly dominated given every nonempty subset of opponent joints."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    opps = _inherent_joints(r, i)
    mine, *rows = r.payoff_rows(i, [s, *r.kept[i]])
    ev = _inherent_evidence(opps, r.kept[i], rows, mine)
    return ev is not None, ev


# ---------------------------------------------------------------------------
# Membership and dominated sets


def is_dominated(rel: Relation, r: Restriction, i: int, s: int) -> Optional[Certificate]:
    """Certificate if (i, s) is rel-dominated in r, else None; read from the memo."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    return _dominated_entries(rel, r).get((i, s))


def _dominated_entries(rel: Relation, r: Restriction) -> dict[tuple[int, int], Certificate]:
    """The memo: rel's dominated strategies of r with certificates, in
    canonical order, kept in `r.game.memo` for as long as the game lives.

    Callers must not mutate the dict.  An intersection keeps the keys every
    part dominates, reading each part's entries once.  Parts are read in
    order and the scan stops once no key is left, so a part is evaluated
    exactly when some strategy is dominated under every earlier part.
    """
    memo = r.game.memo
    out = memo.get((rel, r))
    if out is not None:
        return out
    if isinstance(rel, Intersection):
        parts = [_dominated_entries(rel.parts[0], r)]
        keys = list(parts[0])
        for part in rel.parts[1:]:
            if not keys:
                break
            certs = _dominated_entries(part, r)
            keys = [key for key in keys if key in certs]
            parts.append(certs)
        out = {key: IntersectionEvidence(tuple(c[key] for c in parts)) for key in keys}
    else:
        out = {(i, s): cert for i in range(r.n) for s, cert in rel.dominated(r, i)}
    memo[(rel, r)] = out
    return out


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
        for i, _ in entries:
            dominated_count[i] += 1
        for i, ks in enumerate(r.kept):
            if dominated_count[i] == len(ks):
                raise AssumptionViolated(
                    f"player {i} has no {rel.name}-undominated strategy"
                )
    return dict(entries)


# ---------------------------------------------------------------------------
# Certificate re-verification


def verify_certificate(
    rel: Relation, r: Restriction, i: int, s: int, cert: Certificate
) -> bool:
    """Re-check a certificate against the defining inequalities."""
    return rel.verify(r, i, s, cert)


def _mixed_margin(r: Restriction, i: int, m: MixedStrategy, s: int) -> Fraction:
    """The least advantage of mixture `m` over `s` across R's opponent joints."""
    mine, *rows = r.payoff_rows(i, [s, *m.support])
    return min(
        sum((w * row[k] for (_, w), row in zip(m.weights, rows)), ZERO) - base
        for k, base in enumerate(mine)
    )


def mixed_strictly_dominates(r: Restriction, i: int, m: MixedStrategy, s: int) -> bool:
    """Exact check that mixture `m` beats `s` on every opponent joint of R."""
    return _mixed_margin(r, i, m, s) > 0


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
