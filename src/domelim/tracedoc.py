"""JSON trace documents.

Rationals travel as strings ("p/q", or "p" when the denominator is 1);
players are 1-based and strategies are labels, so documents stay readable
next to the game file they came from.  A step of a `Trace` holds only the
keys it removes; writing the document builds each removal's certificate
with `dominance.certify`.  The reader re-verifies each certificate on a
freshly parsed game, builds the document again with the writer's
`_document` from the steps it replayed, and requires equal JSON: one rule
for every field, order and spelling.  Parsing keeps its type checks, since
`True == 1` in a JSON comparison.
"""

from __future__ import annotations

import json

from .dominance import (
    Certificate,
    InherentEvidence,
    IntersectionEvidence,
    MixedDominator,
    NeverBest,
    PureDominator,
    Relation,
    certify,
    dominated_set,
    parse_relation,
    verify_certificate,
)
from .errors import InvalidCertificate, StructuralError
from .game import BeliefMode, Game, MixedStrategy, Restriction
from .gamefile import format_rational, parse_rational
from .reduction import POLICY_NAMES, FullSpeed, Trace


def _label(g: Game, i: int, s: int) -> str:
    return g.labels[i][s]


def _index(g: Game, i: int, name: str) -> int:
    try:
        return g.labels[i].index(name)
    except ValueError:
        raise StructuralError(f"unknown strategy {name!r} for player {i + 1}")


def _field(doc, key: str, kind: type):
    """`doc[key]`, where `doc` must be an object whose `key` holds a `kind`."""
    if not isinstance(doc, dict) or key not in doc:
        raise StructuralError(f"missing {key!r}")
    value = doc[key]
    # JSON booleans are Python ints too; a flag is not an index.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise StructuralError(f"{key!r} must be a {kind.__name__}")
    return value


def _belief_mode(value) -> BeliefMode:
    try:
        return BeliefMode(value)
    except ValueError:
        raise StructuralError(f"unknown belief mode {value!r}")


def _opp_labels(g: Game, i: int, opp: tuple[int, ...]) -> list[str]:
    players = [j for j in range(g.n) if j != i]
    return [_label(g, j, s) for j, s in zip(players, opp)]


def _opp_indices(g: Game, i: int, names: list[str]) -> tuple[int, ...]:
    players = [j for j in range(g.n) if j != i]
    if not isinstance(names, list) or len(names) != len(players):
        raise StructuralError("opponent joint must list one label per opponent")
    return tuple(_index(g, j, name) for j, name in zip(players, names))


def certificate_to_json(g: Game, i: int, cert: Certificate) -> dict:
    if isinstance(cert, PureDominator):
        return {"type": "pure-dominator", "dominator": _label(g, i, cert.strategy)}
    if isinstance(cert, MixedDominator):
        return {
            "type": "mixed-dominator",
            "eps": format_rational(cert.eps),
            "weights": {
                _label(g, i, t): format_rational(w) for t, w in cert.mixed.weights
            },
        }
    if isinstance(cert, NeverBest):
        out = {
            "type": "never-best-response",
            "mode": cert.mode.value,
            "global": cert.global_pool,
        }
        if cert.mode is BeliefMode.PURE:
            out["evidence"] = [
                {"belief": _opp_labels(g, i, opp), "better": _label(g, i, t)}
                for opp, t in cert.better
            ]
        else:
            out["evidence"] = "lp-infeasible"
        return out
    if isinstance(cert, InherentEvidence):
        return {
            "type": "inherent",
            "evidence": [
                {
                    "subset": [_opp_labels(g, i, opp) for opp in subset],
                    "dominator": _label(g, i, t),
                }
                for subset, t in cert.dominators
            ],
        }
    if isinstance(cert, IntersectionEvidence):
        return {
            "type": "intersection",
            "parts": [certificate_to_json(g, i, c) for c in cert.parts],
        }
    raise StructuralError(f"not a certificate: {type(cert).__name__}")


def certificate_from_json(g: Game, i: int, doc: dict) -> Certificate:
    kind = _field(doc, "type", str)
    if kind == "pure-dominator":
        return PureDominator(_index(g, i, _field(doc, "dominator", str)))
    if kind == "mixed-dominator":
        weights = {
            _index(g, i, name): parse_rational(val, 0)
            for name, val in _field(doc, "weights", dict).items()
        }
        eps = parse_rational(_field(doc, "eps", str), 0)
        return MixedDominator(MixedStrategy.of(i, weights), eps)
    if kind == "never-best-response":
        mode = _belief_mode(_field(doc, "mode", str))
        better = ()
        if mode is BeliefMode.PURE:
            better = tuple(
                (
                    _opp_indices(g, i, _field(e, "belief", list)),
                    _index(g, i, _field(e, "better", str)),
                )
                for e in _field(doc, "evidence", list)
            )
        return NeverBest(mode, _field(doc, "global", bool), better)
    if kind == "inherent":
        return InherentEvidence(
            tuple(
                (
                    tuple(
                        _opp_indices(g, i, names) for names in _field(e, "subset", list)
                    ),
                    _index(g, i, _field(e, "dominator", str)),
                )
                for e in _field(doc, "evidence", list)
            )
        )
    if kind == "intersection":
        return IntersectionEvidence(
            tuple(certificate_from_json(g, i, p) for p in _field(doc, "parts", list))
        )
    raise StructuralError(f"unknown certificate type {kind!r}")


def _document(rel: Relation, g: Game, steps, kept) -> dict:
    """What the writer writes for `rel` on `g`: per step of `steps`, its
    policy name and its removals' certificates by key, in key order; then
    the outcome's kept sets `kept`.  The reader requires the same."""
    doc = {
        "relation": rel.name,
        "initial": {"labels": [list(names) for names in g.labels]},
        "steps": [
            {
                "removed": [
                    {
                        "player": i + 1,
                        "strategy": _label(g, i, s),
                        "certificate": certificate_to_json(g, i, removed[i, s]),
                    }
                    for i, s in sorted(removed)
                ],
                "policy": policy,
            }
            for policy, removed in steps
        ],
        "outcome": {
            "kept": [[_label(g, i, s) for s in ks] for i, ks in enumerate(kept)]
        },
    }
    if rel.belief_mode is not None:
        doc["belief_mode"] = rel.belief_mode.value
    return doc


def trace_to_document(trace: Trace) -> dict:
    rel, policy = trace.relation, POLICY_NAMES[type(trace.policy)]
    steps = [
        (policy, {(i, s): certify(rel, step.before, i, s) for i, s in step.removed})
        for step in trace.steps
    ]
    return _document(rel, trace.initial, steps, trace.outcome.kept)


def dump_trace(trace: Trace) -> str:
    return json.dumps(trace_to_document(trace), indent=2, sort_keys=True) + "\n"


def verify_trace_document(doc: dict, g: Game) -> None:
    """Replay a trace document against a game; raises on any defect.

    Every certificate must re-verify by substitution on the restriction
    its step starts from.  Every step names an order policy and removes
    something, one strategy under `single-*`.  The document must then be
    exactly the one the writer writes for the replayed steps and outcome,
    and that outcome must be irreducible.
    """
    labels = _field(_field(doc, "initial", dict), "labels", list)
    if labels != [list(names) for names in g.labels]:
        raise InvalidCertificate("trace labels do not match the game")
    mode = _belief_mode(doc.get("belief_mode", BeliefMode.PURE.value))
    rel = parse_relation(_field(doc, "relation", str), mode)
    r = Restriction.full(g)
    steps = []
    for step in _field(doc, "steps", list):
        policy = _field(step, "policy", str)
        if policy not in POLICY_NAMES.values():
            raise StructuralError(f"unknown order policy {policy!r}")
        removed = {}
        for entry in _field(step, "removed", list):
            player = _field(entry, "player", int)
            if not 1 <= player <= g.n:
                raise StructuralError(f"player {player} out of range")
            i = player - 1
            label = _field(entry, "strategy", str)
            s = _index(g, i, label)
            cert = certificate_from_json(g, i, _field(entry, "certificate", dict))
            if not verify_certificate(rel, r, i, s, cert):
                raise InvalidCertificate(
                    f"certificate for player {player} strategy {label!r} "
                    "fails re-verification"
                )
            removed[i, s] = cert
        if not removed:
            raise InvalidCertificate("a step removes no strategy")
        if len(removed) > 1 and policy != POLICY_NAMES[FullSpeed]:
            raise InvalidCertificate(f"a {policy} step removes {len(removed)} strategies")
        steps.append((policy, removed))
        r = r.remove(removed)
    if _document(rel, g, steps, r.kept) != doc:
        raise InvalidCertificate("trace is not the document written for its replayed steps")
    if dominated_set(rel, r):
        raise InvalidCertificate("trace outcome is not irreducible: steps are missing")
