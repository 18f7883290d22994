"""JSON trace documents.

Rationals travel as strings ("p/q", or "p" when the denominator is 1);
players are 1-based and strategies are labels, so documents stay readable
next to the game file they came from.  Certificates round-trip and can be
re-verified against a freshly parsed game.
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
    dominated_set,
    parse_relation,
    relation_belief_mode,
    relation_name,
    verify_certificate,
)
from .errors import InvalidCertificate, StructuralError
from .game import BeliefMode, Game, MixedStrategy, Restriction
from .gamefile import format_rational, parse_rational
from .reduction import Trace, policy_name


def _label(g: Game, i: int, s: int) -> str:
    return g.labels[i][s]


def _index(g: Game, i: int, name: str) -> int:
    try:
        return g.labels[i].index(name)
    except ValueError:
        raise StructuralError(f"unknown strategy {name!r} for player {i + 1}")


def _opp_labels(g: Game, i: int, opp: tuple[int, ...]) -> list[str]:
    players = [j for j in range(g.n) if j != i]
    return [_label(g, j, s) for j, s in zip(players, opp)]


def _opp_indices(g: Game, i: int, names: list[str]) -> tuple[int, ...]:
    players = [j for j in range(g.n) if j != i]
    if len(names) != len(players):
        raise StructuralError("opponent joint has wrong arity")
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
    kind = doc.get("type")
    if kind == "pure-dominator":
        return PureDominator(_index(g, i, doc["dominator"]))
    if kind == "mixed-dominator":
        weights = {
            _index(g, i, name): parse_rational(val, 0)
            for name, val in doc["weights"].items()
        }
        return MixedDominator(MixedStrategy.of(i, weights), parse_rational(doc["eps"], 0))
    if kind == "never-best-response":
        mode = BeliefMode(doc["mode"])
        better = ()
        if mode is BeliefMode.PURE:
            better = tuple(
                (_opp_indices(g, i, e["belief"]), _index(g, i, e["better"]))
                for e in doc["evidence"]
            )
        return NeverBest(mode, bool(doc["global"]), better)
    if kind == "inherent":
        return InherentEvidence(
            tuple(
                (
                    tuple(_opp_indices(g, i, names) for names in e["subset"]),
                    _index(g, i, e["dominator"]),
                )
                for e in doc["evidence"]
            )
        )
    if kind == "intersection":
        return IntersectionEvidence(
            tuple(certificate_from_json(g, i, p) for p in doc["parts"])
        )
    raise StructuralError(f"unknown certificate type {kind!r}")


def trace_to_document(trace: Trace) -> dict:
    g = trace.initial
    mode = relation_belief_mode(trace.relation)
    doc = {
        "relation": relation_name(trace.relation),
        "initial": {"labels": [list(names) for names in g.labels]},
        "steps": [
            {
                "removed": [
                    {
                        "player": i + 1,
                        "strategy": _label(g, i, s),
                        "certificate": certificate_to_json(g, i, cert),
                    }
                    for (i, s), cert in step.removed
                ],
                "policy": policy_name(trace.policy),
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

    The replayed outcome must be irreducible, so a trace with steps cut
    off its end is rejected.
    """
    mode = BeliefMode(doc["belief_mode"]) if "belief_mode" in doc else BeliefMode.PURE
    rel: Relation = parse_relation(doc["relation"], mode)
    if doc["initial"]["labels"] != [list(names) for names in g.labels]:
        raise InvalidCertificate("trace labels do not match the game")
    r = Restriction.full(g)
    for step in doc["steps"]:
        removed = []
        for entry in step["removed"]:
            i = entry["player"] - 1
            s = _index(g, i, entry["strategy"])
            cert = certificate_from_json(g, i, entry["certificate"])
            if not verify_certificate(rel, r, i, s, cert):
                raise InvalidCertificate(
                    f"certificate for player {i + 1} strategy {entry['strategy']!r} "
                    "fails re-verification"
                )
            removed.append((i, s))
        r = r.remove(removed)
    kept = [[_label(g, i, s) for s in ks] for i, ks in enumerate(r.kept)]
    if kept != doc["outcome"]["kept"]:
        raise InvalidCertificate("trace outcome does not match the replayed steps")
    if dominated_set(rel, r, validate=False):
        raise InvalidCertificate("trace outcome is not irreducible: steps are missing")
