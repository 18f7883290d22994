"""The dominance relations and their certificates.

Each relation maps a restriction R to the set of strategies it dominates
there:

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
correlated distributions.  Relations are hashable values so the simple
relations' dominated sets, the base decisions, can be memoized per
(relation, restriction), on the restriction's game.  Each relation hashes
its fields once; `parse_relation` returns one value per (name, beliefs).

Each class answers two questions apart.  Its decision `dominated(r, i)`
yields player i's dominated strategies in R_i order, and the memo keeps
only those keys: the order walk, the step checkers, intersections and
LP-mode NBR ask nothing else.  Its `certify(r, i, s)` builds the evidence
for one dominated strategy, and `verify(r, i, s, cert)` re-checks it by
substitution.  Certificates are canonical: the first dominator in pool
order, the first better pool strategy at each joint, the first weak
dominator on each subset of joints in odometer order, the mixture the
max-min LP finds, and an intersection's certificate part by part.  Only a
trace asks for them, through the module-level `certify`.

Masks find, rows check.  Outside the LPs, decisions and certificates
read no payoff, only the game's `beats` table, where B[t][s] is the
bitmask of opponent joints at which t pays player i more than s, and R's
opponent mask m for player i (see `game`).  A strategy of R_i that
meets some column maximum over the pool is a best response to that joint
(Pearce 1984), so it is dominated under none of the relations: no pure or
mixed pool strategy beats it there, a pure belief makes it a best
response, and the singleton subset of that joint refutes its inherent
dominance.  So only the strategies s whose pool masks B[t][s] together
cover m are examined further, and under pure beliefs each of them is a
never best response.  One scan per relation serves both its decision,
which asks whether the scan finds a witness, and `certify`, which keeps
it: `_pure_dominator` (the first pool t with B[t][s] & m equal to m), the
first pool t holding each bit of m (pure NBR), and `_weak_dominators`
(per nonempty submask S of m, the first t in R_i with S & B[t][s] nonzero
and S & B[s][t] zero: better somewhere in S, worse nowhere).
`StrictMixed` runs an LP to decide only a strategy that no pure pool
strategy beats: one that a pure rival beats is dominated, since the rival
is a mixture.  That decision is the slack-start `lp.mixture_beats`, which
reads only whether a dominating mixture exists; `certify` solves the
max-min LP (`lp.max_min_advantage`) for the mixture itself.  Only the LPs
and the verifiers read payoff rows (`Restriction.payoff_rows`), so a
verifier checks a certificate by substitution, and a wrong mask fails it
instead of agreeing with itself.

Under correlated beliefs, and independent ones on two players (where an
independent belief is a distribution over the one opponent's strategies),
`s` is a never best response against a pool exactly when a mixture of the
pool less `s` beats it: the two LPs are duals (Pearce 1984, Lemma 3).  So
LP-mode NBR refuses independent beliefs on three or more players, else
decides as, and reads the memo entry of, `StrictMixed` of its pool flag.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import StructuralError, UnsupportedConfiguration
from .game import (
    ZERO,
    BeliefMode,
    MixedStrategy,
    Restriction,
)
from .lp import max_min_advantage, mixture_beats

INHERENT_JOINT_CAP = 16


# ---------------------------------------------------------------------------
# Relations


def _relation(cls):
    """`dataclass(frozen=True)`, whose values hash their fields once and
    pickle as their fields alone: an enum's hash is salted per process."""
    cls = dataclass(frozen=True)(cls)
    cls._hash = cached_property(cls.__hash__)
    cls._hash.__set_name__(cls, "_hash")
    cls.__hash__ = lambda self: self._hash
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, f.name) for f in fields(self)))
    return cls


def _pool(rel, r: Restriction, i: int) -> Sequence[int]:
    """The strategies a dominator may use: G_i for a global relation, else R_i."""
    return range(r.game.sizes[i]) if rel.global_pool else r.kept[i]


def _rivals(rel, r: Restriction, i: int, s: int) -> list[int]:
    """The pool less `s`: what a mixed dominator of `s` may use."""
    return [t for t in _pool(rel, r, i) if t != s]


@_relation
class StrictPure:
    global_pool: bool = False
    belief_mode = None

    @property
    def name(self) -> str:
        return "global-strict-pure" if self.global_pool else "strict-pure"

    def dominated(self, r: Restriction, i: int) -> Iterator[int]:
        pool = _pool(self, r, i)
        m, beats, candidates = _candidates(r, i, pool)
        for s in candidates:
            if _pure_dominator(beats, m, pool, s) is not None:
                yield s

    def certify(self, r: Restriction, i: int, s: int) -> PureDominator:
        m, beats = r.opponent_mask(i), r.game.beats[i]
        return PureDominator(_pure_dominator(beats, m, _pool(self, r, i), s))

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, PureDominator) or cert.strategy not in _pool(self, r, i):
            return False
        return strictly_dominates_pure(r, i, cert.strategy, s)


@_relation
class StrictMixed:
    global_pool: bool = False
    belief_mode = None

    @property
    def name(self) -> str:
        return "global-strict-mixed" if self.global_pool else "strict-mixed"

    def dominated(self, r: Restriction, i: int) -> Iterator[int]:
        pool = _pool(self, r, i)
        m, beats, candidates = _candidates(r, i, pool)
        for s in candidates:
            # A pure rival that beats s is a mixture that does: no LP needed.
            # Else the slack-start LP decides; certify solves for the mixture.
            if _pure_dominator(beats, m, pool, s) is not None or mixture_beats(
                r, i, s, _rivals(self, r, i, s)
            ):
                yield s

    def certify(self, r: Restriction, i: int, s: int) -> MixedDominator:
        eps, mixed = max_min_advantage(r, i, s, _rivals(self, r, i, s))
        return MixedDominator(mixed, eps)

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, MixedDominator) or cert.eps <= 0:
            return False
        support, pool = cert.mixed.support, _pool(self, r, i)
        if s in support or not all(t in pool for t in support):
            return False
        return _mixed_margin(r, i, cert.mixed, s) == cert.eps


@_relation
class NeverBestResponse:
    mode: BeliefMode
    global_pool: bool = False

    @property
    def name(self) -> str:
        return "global-nbr" if self.global_pool else "nbr"

    @property
    def belief_mode(self) -> BeliefMode:
        return self.mode

    def dominated(self, r: Restriction, i: int) -> Iterable[int]:
        if self.mode is BeliefMode.PURE:  # the strategies beaten at every joint
            return _candidates(r, i, _pool(self, r, i))[2]
        self._refuse_independent(r)  # LP duality: see the module docstring
        return StrictMixed(self.global_pool).dominated(r, i)

    def _refuse_independent(self, r: Restriction) -> None:
        if self.mode is BeliefMode.MIXED_INDEPENDENT and r.n > 2:
            raise UnsupportedConfiguration(
                "independent mixed beliefs with 3+ players are not decidable here"
            )

    def certify(self, r: Restriction, i: int, s: int) -> NeverBest:
        if self.mode is not BeliefMode.PURE:
            return NeverBest(self.mode, self.global_pool)
        # Bits low to high are the opponent joints in odometer order.
        pool, beats = _pool(self, r, i), r.game.beats[i]
        better = tuple(
            (opp, next(t for t in pool if beats[t][s] & bit))
            for opp, bit in zip(r.opponent_joints(i), _bits(r.opponent_mask(i)))
        )
        return NeverBest(self.mode, self.global_pool, better)

    def verify(self, r: Restriction, i: int, s: int, cert: Certificate) -> bool:
        if not isinstance(cert, NeverBest):
            return False
        if cert.mode != self.mode or cert.global_pool != self.global_pool:
            return False
        if self.mode is not BeliefMode.PURE:
            # By LP duality, a mixture of the pool less s that beats s: the
            # max-min LP finds it on the rows, and its margin is checked there.
            self._refuse_independent(r)
            rivals = _rivals(self, r, i, s)
            if cert.better or not rivals:
                return False
            eps, mixed = max_min_advantage(r, i, s, rivals)
            return eps > 0 and _mixed_margin(r, i, mixed, s) == eps
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


@_relation
class Inherent:
    name = "inherent"
    belief_mode = None

    def dominated(self, r: Restriction, i: int) -> Iterator[int]:
        if r.opponent_mask(i).bit_count() > INHERENT_JOINT_CAP:
            _inherent_joints(r, i)  # raises
        pool = r.kept[i]
        m, beats, candidates = _candidates(r, i, pool)
        for s in candidates:
            if all(t is not None for _, t in _weak_dominators(m, beats, pool, s)):
                yield s

    def certify(self, r: Restriction, i: int, s: int) -> InherentEvidence:
        m = r.opponent_mask(i)
        joints = list(zip(_bits(m), _inherent_joints(r, i)))
        return InherentEvidence(
            tuple(
                (tuple(opp for bit, opp in joints if subset & bit), t)
                for subset, t in _weak_dominators(m, r.game.beats[i], r.kept[i], s)
            )
        )

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


@_relation
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

    def certify(self, r: Restriction, i: int, s: int) -> IntersectionEvidence:
        return IntersectionEvidence(tuple(p.certify(r, i, s) for p in self.parts))

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


@cache
def parse_relation(name: str, beliefs: BeliefMode = BeliefMode.PURE) -> Relation:
    """Parse a relation name; distinct comma-joined names form an intersection."""
    known = _BY_NAME[beliefs]
    parts = []
    for token in name.split(","):
        token = token.strip()
        if token not in known:
            raise StructuralError(f"unknown relation {token!r}")
        if known[token] in parts:
            raise StructuralError(f"relation {token!r} named twice")
        parts.append(known[token])
    return parts[0] if len(parts) == 1 else Intersection(tuple(parts))


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class PureDominator:
    strategy: int


@dataclass(frozen=True)
class MixedDominator:
    """A mixture of the pool less s; eps is its least advantage over s."""

    mixed: MixedStrategy
    eps: Fraction


@dataclass(frozen=True)
class NeverBest:
    """Evidence that no belief admits `s` as a best response.

    In PURE mode `better` pairs each opponent joint with a strictly better
    pool strategy: `certify` finds it on the masks, and the verifier checks
    it on the payoff rows.  In the LP modes `better` is empty: the evidence
    is that the best-response program is infeasible, which holds exactly
    when a mixture of the pool less `s` beats `s`.  The verifier finds
    such a mixture with the max-min LP on the rows and checks its margin
    by substitution; it never asks the decision.
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
    return all(x > y for x, y in zip(dom, mine))


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
    ks = r.opponent_positions(i, opp_subset)
    return all(dom[k] >= mine[k] for k in ks) and any(dom[k] > mine[k] for k in ks)


def _nonempty_subsets(items: Sequence) -> Iterator[tuple]:
    """All nonempty subsets, bitmask odometer order (low bit = first item)."""
    for mask in range(1, 1 << len(items)):
        yield tuple(x for k, x in enumerate(items) if mask >> k & 1)


def _candidates(
    r: Restriction, i: int, pool: Sequence[int]
) -> tuple[int, Sequence[Sequence[int]], list[int]]:
    """R's opponent mask `m` for player i, i's `Game.beats` table, and the
    strategies s of R_i that meet no column maximum over `pool`, which
    holds R_i: the pool's masks of joints where it beats s cover m.  Only
    these can be dominated under any relation (see the module docstring)."""
    m = r.opponent_mask(i)
    beats = r.game.beats[i]
    out = []
    for s in r.kept[i]:
        cover = 0
        for t in pool:
            cover |= beats[t][s]
        if cover & m == m:
            out.append(s)
    return m, beats, out


def _pure_dominator(
    beats: Sequence[Sequence[int]], m: int, pool: Sequence[int], s: int
) -> Optional[int]:
    """The first t of `pool` that beats s on every joint of mask `m`, or None."""
    return next((t for t in pool if beats[t][s] & m == m), None)


def _weak_dominators(
    m: int, beats: Sequence[Sequence[int]], pool: Sequence[int], s: int
) -> Iterator[tuple[int, Optional[int]]]:
    """Per nonempty submask S of `m`, in increasing order (small subsets of
    low joints first), S and the first t of `pool` weakly above s there:
    better somewhere in S, worse nowhere.  None when no t is."""
    # Per rival t, where it is better than s and where it is worse.
    sides = [(t, up, beats[s][t] & m) for t in pool if (up := beats[t][s] & m)]
    subset = -m & m
    while subset:
        yield subset, next(
            (t for t, up, down in sides if subset & up and not subset & down), None
        )
        subset = (subset - m) & m


def _bits(m: int) -> list[int]:
    """The set bits of `m`, lowest first."""
    return [1 << k for k in range(m.bit_length()) if m >> k & 1]


def _inherent_joints(r: Restriction, i: int) -> tuple[tuple[int, ...], ...]:
    """Player i's opponent joints, within the cap on their subsets."""
    opps = r.opponent_joints(i)
    if len(opps) > INHERENT_JOINT_CAP:
        raise UnsupportedConfiguration(
            f"{len(opps)} opponent joints exceed the inherent-dominance cap "
            f"{INHERENT_JOINT_CAP}"
        )
    return opps


def is_inherently_dominated(
    r: Restriction, i: int, s: int
) -> tuple[bool, Optional[InherentEvidence]]:
    """Weakly dominated given every nonempty subset of opponent joints, with
    the evidence `Inherent.certify` builds.  No decision calls this
    per-strategy form; the benchmark's tracer wraps it by name."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    if s not in Inherent().dominated(r, i):
        return False, None
    return True, Inherent().certify(r, i, s)


# ---------------------------------------------------------------------------
# Membership and dominated sets


def is_dominated(rel: Relation, r: Restriction, i: int, s: int) -> bool:
    """Whether (i, s) is rel-dominated in r; read from the memo."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    return (i, s) in _dominated_keys(rel, r)


def _dominated_keys(rel: Relation, r: Restriction) -> tuple[tuple[int, int], ...]:
    """rel's dominated (player, strategy) keys of r, in canonical order.

    Only simple relations' keys are memoized, in `r.game.memo`; LP-mode NBR
    reads `StrictMixed`'s.  An intersection keeps the keys every part
    holds, reading a part only while some key survives the earlier parts.
    """
    if isinstance(rel, Intersection):
        keys = _dominated_keys(rel.parts[0], r)
        for part in rel.parts[1:]:
            if keys:
                held = _dominated_keys(part, r)
                keys = tuple(key for key in keys if key in held)
        return keys
    if isinstance(rel, NeverBestResponse) and rel.mode is not BeliefMode.PURE:
        rel._refuse_independent(r)
        rel = StrictMixed(rel.global_pool)
    memo = r.game.memo
    keys = memo.get((rel, r))
    if keys is None:
        keys = memo[(rel, r)] = tuple((i, s) for i in range(r.n) for s in rel.dominated(r, i))
    return keys


def dominated_set(rel: Relation, r: Restriction) -> tuple[tuple[int, int], ...]:
    """All rel-dominated strategies of r as keys, canonical order.

    It may hold all of a player's strategies: a global relation can
    dominate a whole R_i on a restriction no reduction reaches.  Reducing
    checks that every player keeps one (see `reduction`).
    """
    return _dominated_keys(rel, r)


# ---------------------------------------------------------------------------
# Certificates and their re-verification


def certify(rel: Relation, r: Restriction, i: int, s: int) -> Certificate:
    """The canonical certificate that (i, s) is rel-dominated in r.

    Raises StructuralError when it is not, so evidence is built only for a
    key the decision holds.
    """
    if (i, s) not in _dominated_keys(rel, r):
        raise StructuralError(f"strategy {s} of player {i} is not {rel.name}-dominated")
    return rel.certify(r, i, s)


def verify_certificate(
    rel: Relation, r: Restriction, i: int, s: int, cert: Certificate
) -> bool:
    """Re-check a certificate of (i, s) in r against the defining inequalities."""
    if not r.contains(i, s):
        raise StructuralError(f"strategy {s} not in restriction for player {i}")
    return rel.verify(r, i, s, cert)


def _mixed_margin(r: Restriction, i: int, m: MixedStrategy, s: int) -> Fraction:
    """The least advantage of mixture `m` over `s` across R's opponent joints."""
    mine, *rows = r.payoff_rows(i, [s, *m.support])
    return min(
        sum((w * row[k] for (_, w), row in zip(m.weights, rows)), ZERO) - base
        for k, base in enumerate(mine)
    )
