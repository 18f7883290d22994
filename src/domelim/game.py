"""Finite strategic games, restrictions, mixed strategies and beliefs.

All payoffs and probabilities are exact `fractions.Fraction` values; no
floating point enters any computation.  Strategies are identified
positionally: (player index, strategy index into the initial game's label
sequence).  Labels matter only for I/O.

The single canonical enumeration order everywhere is odometer order: the
last index varies fastest.

Payoffs are read through two views of one odometer order: the masks find,
the rows check.  `Game.beats` holds, per player i and pair (t, s) of G_i,
the bitmask of opponent joints where t pays i strictly more than s, and
`Restriction.opponent_mask(i)` is the mask of R's own opponent joints:
outside the max-min LP, dominance decisions and certificates read only
these.  `Restriction.payoff_rows` gives, for player i and some strategies
of G_i, each strategy's payoffs over R's opponent joints, from per-player
flat payoff tuples and odometer strides; the LP builders and every
verifier read it, so a certificate is checked on the other view.  Bit o
stands for the joint at flat offset o, and the rows, the table and the
mask all take their offsets from one helper, `_opponent_offsets`, so they
cannot disagree on joint order.  A `Game` builds the flat payoffs and the
masks on first use (not at construction, so generating a corpus stays
cheap).  A `Game` hashes its content once.  `Game.restrictions` holds its
one `Restriction` per kept set, by bitmask; only it and `cli`'s random cut,
which reads its `bits`, know the bit layout.  Each entry hashes
`(game, mask)` once, when built, so restrictions are cheap memo keys.  Per
player i it also keeps the opponent mask of each kept set of the other
players, so `opponent_mask(i)` is a table read.  `Game.memo` holds only
base decisions; all die with the game.  Pickling carries none: a game
travels as its labels and payoffs, a restriction as its game and kept sets.

The kernel's tables hold a whole payoff as its `int` and any other as its
`Fraction`.  An `int` compares, hashes and adds exactly like the equal
`Fraction`, so no decision changes, the game's hash reads these values
instead of calling `Fraction.__hash__`, and the dominance scans compare
plain integers instead of going through `Fraction`'s rich comparison.  `Game`
itself keeps `Fraction`s, and the LP builders take the kernel's values as
they are: an `int` row goes into the simplex with nothing to clear.

A belief is one type, `CorrelatedBelief`: an exact distribution over
opponent joints.  A pure belief is its point mass, and on two players an
independent mixed belief is a distribution over the single opponent's
strategies, so no other belief type is needed where beliefs are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, pairwise, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import StructuralError

ZERO = Fraction(0)
ONE = Fraction(1)

# A payoff as the kernel holds it: a whole value as its `int`.
Payoff = Union[int, Fraction]


class BeliefMode(Enum):
    PURE = "pure"
    MIXED_INDEPENDENT = "mixed"
    CORRELATED = "correlated"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise StructuralError(f"exact rational required, got {type(x).__name__}")


@dataclass(frozen=True)
class Game:
    """Immutable finite strategic game.

    `payoffs` is the flat payoff tensor: joints enumerated in odometer
    order, and within each joint one entry per player.
    """

    labels: tuple[tuple[str, ...], ...]
    payoffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise StructuralError("at least 2 players required")
        for i, names in enumerate(self.labels):
            if not names:
                raise StructuralError(f"player {i} has no strategies")
            if len(set(names)) != len(names):
                raise StructuralError(f"player {i} has duplicate strategy labels")
        total = self.num_joints * self.n
        if len(self.payoffs) != total:
            raise StructuralError(
                f"payoff tensor has {len(self.payoffs)} entries, expected {total}"
            )
        if any(not isinstance(p, Fraction) for p in self.payoffs):
            raise StructuralError("payoffs must be Fractions")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.labels, self.player_payoffs))

    def __reduce__(self):
        return Game, (self.labels, self.payoffs)  # the hash is salted per process

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(names) for names in self.labels)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Odometer strides: joint offset = sum of index * stride."""
        out = [1] * self.n
        for j in range(self.n - 1, 0, -1):
            out[j - 1] = out[j] * self.sizes[j]
        return tuple(out)

    @cached_property
    def player_payoffs(self) -> tuple[tuple[Payoff, ...], ...]:
        """Per player, the payoffs of every joint at its odometer offset;
        a whole payoff is stored as its `int`."""
        n = self.n
        return tuple(
            tuple(x.numerator if x.denominator == 1 else x for x in self.payoffs[i::n])
            for i in range(n)
        )

    @cached_property
    def beats(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """`beats[i][t][s]`: the opponent joints of G where p_i(t, .) >
        p_i(s, .), as a bitmask whose bit o is the joint at flat offset o
        (see `_opponent_offsets`)."""
        full = tuple(tuple(range(k)) for k in self.sizes)
        out = []
        for i, flat in enumerate(self.player_payoffs):
            offsets = _opponent_offsets(self, full, i)
            bits = [1 << o for o in offsets]
            step = self.strides[i]
            rows = [[flat[t * step + o] for o in offsets] for t in full[i]]
            table = [[0] * len(rows) for _ in rows]
            # One pass per unordered pair fills both directions.
            for t, a in enumerate(rows):
                for s in range(t + 1, len(rows)):
                    for bit, x, y in zip(bits, a, rows[s]):
                        if x > y:
                            table[t][s] |= bit
                        elif x < y:
                            table[s][t] |= bit
            out.append(tuple(map(tuple, table)))
        return tuple(out)

    @cached_property
    def restrictions(self) -> "_Restrictions":
        """Restriction bitmask -> its one `Restriction`, built on first ask."""
        return _Restrictions(self)

    @cached_property
    def memo(self) -> dict:
        """(simple relation, restriction) -> its dominated keys, filled by `dominance`."""
        return {}

    @property
    def num_joints(self) -> int:
        k = 1
        for s in self.sizes:
            k *= s
        return k

    @classmethod
    def from_table(
        cls,
        labels: Sequence[Sequence[str]],
        rows: Sequence[Sequence],
    ) -> "Game":
        """Build from per-joint payoff rows in odometer order."""
        flat = tuple(_as_fraction(x) for row in rows for x in row)
        return cls(tuple(tuple(names) for names in labels), flat)


@dataclass(frozen=True, init=False)
class Restriction:
    """Per-player nonempty subsets of the initial game's strategies.

    `kept` holds strictly increasing strategy indices per player; payoffs
    are inherited from `game` unchanged.  `Restriction(game, kept)` checks
    `kept`, then returns the game's one entry for it, at its `mask`.
    """

    game: Game
    kept: tuple[tuple[int, ...], ...]
    mask: int = field(compare=False, repr=False)

    def __new__(cls, game: Game, kept: Sequence[Sequence[int]]) -> "Restriction":
        if len(kept) != game.n:
            raise StructuralError("one kept-set per player required")
        for i, ks in enumerate(kept):
            if not ks:
                raise StructuralError(f"player {i} kept-set is empty")
            if not all(isinstance(s, int) for s in ks):
                raise StructuralError(f"player {i} kept-set holds a non-integer index")
            if any(ks[j] >= ks[j + 1] for j in range(len(ks) - 1)):
                raise StructuralError(f"player {i} kept-set not strictly increasing")
            if ks[0] < 0 or ks[-1] >= game.sizes[i]:
                raise StructuralError(f"player {i} kept-set out of range")
        table = game.restrictions
        return table[table.mask_of((i, s) for i, ks in enumerate(kept) for s in ks)]

    @classmethod
    def full(cls, game: Game) -> "Restriction":
        return game.restrictions[game.restrictions.full]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Restriction, (self.game, self.kept)  # loads as the game's entry

    @property
    def n(self) -> int:
        return self.game.n

    def strategies(self) -> Iterator[tuple[int, int]]:
        """All (player, strategy) pairs in canonical order."""
        return ((i, s) for i, ks in enumerate(self.kept) for s in ks)

    def contains(self, i: int, s: int) -> bool:
        if not 0 <= i < len(self.kept):
            raise StructuralError(f"player index {i} out of range")
        return isinstance(s, int) and s in self.kept[i]

    def remove(self, removed: Iterable[tuple[int, int]]) -> "Restriction":
        gone = set(removed)
        for i, s in gone:
            if not self.contains(i, s):
                raise StructuralError(f"({i},{s}) not present in restriction")
        table = self.game.restrictions
        mask = self.mask & ~table.mask_of(gone)
        if (i := table.starved(mask)) is not None:
            raise StructuralError(f"player {i} kept-set is empty")
        return table[mask]

    def opponent_joints(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Joint opponent strategies (players j != i, ascending), odometer order."""
        if not 0 <= i < self.n:
            raise StructuralError(f"player index {i} out of range")
        pools = [self.kept[j] for j in range(self.n) if j != i]
        return tuple(product(*pools))

    def payoff_rows(self, i: int, strategies: Sequence[int]) -> list[list[Payoff]]:
        """Player i's payoffs for each of `strategies` (any of G_i) over
        `opponent_joints(i)`, in that odometer order."""
        g = self.game
        if not 0 <= i < len(self.kept):
            raise StructuralError(f"player index {i} out of range")
        size = g.sizes[i]
        for t in strategies:
            if not 0 <= t < size:
                raise StructuralError(f"strategy index {t} out of range")
        offsets = _opponent_offsets(g, self.kept, i)
        flat = g.player_payoffs[i]
        step = g.strides[i]
        return [[flat[t * step + o] for o in offsets] for t in strategies]

    def opponent_mask(self, i: int) -> int:
        """The bitmask of `opponent_joints(i)` in `Game.beats`' bit order."""
        if not 0 <= i < len(self.kept):
            raise StructuralError(f"player index {i} out of range")
        return self.game.restrictions.opponent_mask(self, i)

    def opponent_positions(self, i: int, opps: Iterable[Sequence[int]]) -> list[int]:
        """Position of each opponent joint in `opponent_joints(i)`."""
        index = {opp: k for k, opp in enumerate(self.opponent_joints(i))}
        try:
            return [index[tuple(opp)] for opp in opps]
        except (KeyError, TypeError):
            raise StructuralError("opponent joint outside the restriction")


class _Restrictions(dict):
    """A game's restrictions by bitmask: `bits[i][s]`, bit `base[i] + s`, is
    strategy s of player i, so bit order is canonical key order.  Only this
    class and `cli._random_sub_restriction`, through `bits`, read that
    layout.  `__missing__` builds every `Restriction`, unchecked: a mask
    asked for must keep a strategy of every player (see `starved`)."""

    def __init__(self, game: Game):
        self.game = game
        self.base = (0, *accumulate(game.sizes))
        self.full = (1 << self.base[-1]) - 1
        self.spans = tuple((1 << e) - (1 << b) for b, e in pairwise(self.base))
        self.bits = tuple(tuple(1 << t for t in range(b, e)) for b, e in pairwise(self.base))
        self.opponents: dict[int, int] = {}

    def __missing__(self, mask: int) -> Restriction:
        kept = tuple(tuple(s for s, bit in enumerate(bits) if mask & bit) for bits in self.bits)
        r = self[mask] = object.__new__(Restriction)
        vars(r).update(game=self.game, kept=kept, mask=mask, _hash=hash((self.game, mask)))
        return r

    def opponent_mask(self, r: Restriction, i: int) -> int:
        """`r.opponent_mask(i)`, by r's bits of the other players, built once.
        Only player i's span of the key is empty, so the key names i too."""
        masks, key = self.opponents, r.mask & ~self.spans[i]
        if key not in masks:
            masks[key] = sum(1 << o for o in _opponent_offsets(self.game, r.kept, i))
        return masks[key]

    def mask_of(self, keys: Iterable[tuple[int, int]]) -> int:
        """The mask of (player, strategy) keys of the game."""
        mask = 0
        for i, s in keys:
            mask |= self.bits[i][s]
        return mask

    def starved(self, mask: int) -> Optional[int]:
        """The first player `mask` keeps no strategy of, or None."""
        for i, span in enumerate(self.spans):
            if not mask & span:
                return i
        return None


def _opponent_offsets(g: Game, kept: Sequence[Sequence[int]], i: int) -> list[int]:
    """The flat offset, without player i's term, of each opponent joint
    of `kept` (players j != i) in odometer order."""
    strides = g.strides
    offsets = [0]
    for j, ks in enumerate(kept):
        if j != i:
            step = strides[j]
            offsets = [o + s * step for o in offsets for s in ks]
    return offsets


def restriction_leq(r1: Restriction, r2: Restriction) -> bool:
    """Componentwise subset test; both restrictions must share one game."""
    if r1.game is not r2.game and r1.game != r2.game:
        raise StructuralError("restrictions of different initial games")
    return not r1.mask & ~r2.mask


@dataclass(frozen=True)
class MixedStrategy:
    """Exact probability distribution over one player's strategies in G.

    Only strictly positive weights are stored, sorted by strategy index.
    """

    player: int
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        total = ZERO
        prev = -1
        for s, w in self.weights:
            if s <= prev:
                raise StructuralError("weights not sorted by strategy index")
            if w <= 0:
                raise StructuralError("stored weights must be positive")
            prev = s
            total += w
        if total != 1:
            raise StructuralError(f"weights sum to {total}, expected 1")

    @classmethod
    def of(cls, player: int, weights: Mapping[int, Fraction]) -> "MixedStrategy":
        kept = tuple(
            sorted((s, _as_fraction(w)) for s, w in weights.items() if w != 0)
        )
        if any(w < 0 for _, w in kept):
            raise StructuralError("negative weight")
        return cls(player, kept)

    @classmethod
    def point(cls, player: int, s: int) -> "MixedStrategy":
        return cls(player, ((s, ONE),))

    def weight(self, s: int) -> Fraction:
        for t, w in self.weights:
            if t == s:
                return w
        return ZERO

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.weights)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.weights)


@dataclass(frozen=True)
class CorrelatedBelief:
    """Exact distribution over opponent joints; positive entries only."""

    player: int
    probs: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        total = ZERO
        for _, p in self.probs:
            if p <= 0:
                raise StructuralError("stored probabilities must be positive")
            total += p
        if total != 1:
            raise StructuralError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def of(
        cls, player: int, probs: Mapping[tuple[int, ...], Fraction]
    ) -> "CorrelatedBelief":
        kept = tuple(sorted((o, _as_fraction(p)) for o, p in probs.items() if p != 0))
        if any(p < 0 for _, p in kept):
            raise StructuralError("negative probability")
        return cls(player, kept)

