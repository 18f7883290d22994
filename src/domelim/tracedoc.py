"""JSON trace documents.

Rationals travel as strings ("p/q", or "p" when the denominator is 1);
players are 1-based and strategies are labels, so documents stay readable
next to the game file they came from.  A step of a `Trace` holds only the
keys it removes; writing the document builds each removal's certificate
with `dominance.certify`.  Certificates round-trip and can be re-verified
against a freshly parsed game.
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


def _only(doc, *keys: str):
    """`doc`, which must hold no field outside `keys` if it is an object."""
    for key in doc if isinstance(doc, dict) else ():
        if key not in keys:
            raise StructuralError(f"unknown field {key!r}")
    return doc


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
        elif _field(doc, "evidence", str) != "lp-infeasible":
            raise StructuralError("LP-mode evidence must be 'lp-infeasible'")
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


def trace_to_document(trace: Trace) -> dict:
    g = trace.initial
    mode = trace.relation.belief_mode
    doc = {
        "relation": trace.relation.name,
        "initial": {"labels": [list(names) for names in g.labels]},
        "steps": [
            {
                "removed": [
                    {
                        "player": i + 1,
                        "strategy": _label(g, i, s),
                        "certificate": certificate_to_json(
                            g, i, certify(trace.relation, step.before, i, s)
                        ),
                    }
                    for i, s in step.removed
                ],
                "policy": POLICY_NAMES[type(trace.policy)],
            }
            for step in trace.steps
        ],
        "outcome": {
            "kept": [
                [_label(g, i, s) for s in ks]
                for i, ks in enumerate(trace.outcome.kept)
            ]
        },
    }
    if mode is not None:
        doc["belief_mode"] = mode.value
    return doc


def dump_trace(trace: Trace) -> str:
    return json.dumps(trace_to_document(trace), indent=2, sort_keys=True) + "\n"


def verify_trace_document(doc: dict, g: Game) -> None:
    """Replay a trace document against a game; raises on any defect.

    No object holds a field the writer does not write, a certificate is
    what the writer writes for it, and a `belief_mode` is given exactly
    for a relation that has one.  Every step names an order policy and
    removes something, no strategy twice and one under `single-*`.  The
    replayed outcome must be irreducible.
    """
    _only(doc, "relation", "belief_mode", "initial", "steps", "outcome")
    name = _field(doc, "relation", str)
    rel = parse_relation(name, _belief_mode(doc.get("belief_mode", BeliefMode.PURE.value)))
    if ("belief_mode" in doc) != (rel.belief_mode is not None):
        raise StructuralError(f"belief_mode does not fit relation {name!r}")
    labels = _field(_only(_field(doc, "initial", dict), "labels"), "labels", list)
    if labels != [list(names) for names in g.labels]:
        raise InvalidCertificate("trace labels do not match the game")
    r = Restriction.full(g)
    for step in _field(doc, "steps", list):
        policy = _field(_only(step, "removed", "policy"), "policy", str)
        if policy not in POLICY_NAMES.values():
            raise StructuralError(f"unknown order policy {policy!r}")
        removed = []
        for entry in _field(step, "removed", list):
            player = _field(_only(entry, "player", "strategy", "certificate"), "player", int)
            if not 1 <= player <= g.n:
                raise StructuralError(f"player {player} out of range")
            i = player - 1
            label = _field(entry, "strategy", str)
            s = _index(g, i, label)
            if (i, s) in removed:
                raise InvalidCertificate(f"a step removes strategy {label!r} twice")
            cert_json = _field(entry, "certificate", dict)
            cert = certificate_from_json(g, i, cert_json)
            if certificate_to_json(g, i, cert) != cert_json:
                raise StructuralError(f"certificate for strategy {label!r} is not canonical")
            if not verify_certificate(rel, r, i, s, cert):
                raise InvalidCertificate(
                    f"certificate for player {player} strategy {label!r} "
                    "fails re-verification"
                )
            removed.append((i, s))
        if not removed:
            raise InvalidCertificate("a step removes no strategy")
        if len(removed) > 1 and policy != POLICY_NAMES[FullSpeed]:
            raise InvalidCertificate(f"a {policy} step removes {len(removed)} strategies")
        r = r.remove(removed)
    kept = [[_label(g, i, s) for s in ks] for i, ks in enumerate(r.kept)]
    if kept != _field(_only(_field(doc, "outcome", dict), "kept"), "kept", list):
        raise InvalidCertificate("trace outcome does not match the replayed steps")
    if dominated_set(rel, r):
        raise InvalidCertificate("trace outcome is not irreducible: steps are missing")
