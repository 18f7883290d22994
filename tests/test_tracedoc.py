"""Trace document serialization and certificate re-verification."""

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from domelim.dominance import (
    Inherent,
    Intersection,
    NeverBestResponse,
    StrictMixed,
    StrictPure,
)
from domelim.errors import DomelimError, InvalidCertificate, StructuralError
from domelim.game import BeliefMode, Game
from domelim.generate import random_game
from domelim.reduction import FullSpeed, SingleLex, normal_form
from domelim.tracedoc import (
    certificate_from_json,
    dump_trace,
    trace_to_document,
    verify_trace_document,
)

from fixtures import G_BELIEF, G_MIX, G_PD

PURE = BeliefMode.PURE
CORR = BeliefMode.CORRELATED


def roundtrip(trace, game):
    doc = json.loads(dump_trace(trace))
    verify_trace_document(doc, game)
    return doc


class TestTraceDocuments:
    def test_pd_strict_pure(self):
        doc = roundtrip(normal_form(StrictPure(), G_PD, FullSpeed()), G_PD)
        assert doc["relation"] == "strict-pure"
        assert "belief_mode" not in doc
        assert doc["outcome"]["kept"] == [["D"], ["D"]]
        removed = doc["steps"][0]["removed"]
        assert {(e["player"], e["strategy"]) for e in removed} == {(1, "C"), (2, "C")}

    def test_mixed_rationals_as_strings(self):
        doc = trace_to_document(normal_form(StrictMixed(), G_MIX, FullSpeed()))
        cert = doc["steps"][0]["removed"][0]["certificate"]
        assert cert == {
            "type": "mixed-dominator",
            "eps": "1/2",
            "weights": {"U": "1/2", "D": "1/2"},
        }

    def test_nbr_modes_round_trip(self):
        for mode in (BeliefMode.PURE, BeliefMode.CORRELATED):
            trace = normal_form(NeverBestResponse(mode), G_BELIEF, SingleLex())
            doc = roundtrip(trace, G_BELIEF)
            assert doc["belief_mode"] == mode.value

    def test_global_nbr_no_steps(self):
        rel = NeverBestResponse(BeliefMode.CORRELATED, global_pool=True)
        trace = normal_form(rel, G_BELIEF, FullSpeed())
        doc = roundtrip(trace, G_BELIEF)
        assert doc["steps"] == []
        assert doc["outcome"]["kept"] == [["U", "M", "D"], ["L", "R"]]

    def test_inherent_and_intersection(self):
        for rel in (Inherent(), Intersection((StrictPure(), Inherent()))):
            roundtrip(normal_form(rel, G_PD, SingleLex()), G_PD)

    def test_random_traces_verify(self):
        rng = random.Random(80)
        for k in range(20):
            g = random_game(rng, 3 if k % 5 == 0 else 2)
            rel = [StrictPure(), StrictMixed(), NeverBestResponse(BeliefMode.PURE)][k % 3]
            roundtrip(normal_form(rel, g, SingleLex()), g)

    def test_tampered_certificate_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        doc["steps"][0]["removed"][0]["certificate"]["dominator"] = "C"
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_PD)

    def test_tampered_outcome_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        doc["outcome"]["kept"] = [["C"], ["D"]]
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_PD)

    def test_truncated_trace_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        doc["steps"] = []
        doc["outcome"]["kept"] = [["C", "D"], ["C", "D"]]
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_PD)

    def test_cut_pure_nbr_evidence_rejected(self):
        trace = normal_form(NeverBestResponse(BeliefMode.PURE), G_BELIEF, SingleLex())
        doc = trace_to_document(trace)
        entry = doc["steps"][0]["removed"][0]
        assert entry["strategy"] == "M"
        entry["certificate"]["evidence"] = [{"belief": ["L"], "better": "M"}]
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_BELIEF)

    def test_inflated_mixed_margin_rejected(self):
        doc = trace_to_document(normal_form(StrictMixed(), G_MIX, SingleLex()))
        cert = doc["steps"][0]["removed"][0]["certificate"]
        assert cert["eps"] == "1/2"
        verify_trace_document(doc, G_MIX)
        cert["eps"] = "1000"
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_MIX)

    @pytest.mark.parametrize("mode", [BeliefMode.CORRELATED, BeliefMode.MIXED_INDEPENDENT])
    def test_trace_decided_on_wrong_masks_rejected(self, mode, monkeypatch):
        # Matching pennies: no strategy is dominated under any relation.
        pennies = Game.from_table([["H", "T"], ["H", "T"]], [(1, -1), (-1, 1), (-1, 1), (1, -1)])
        rel = NeverBestResponse(mode)
        assert normal_form(rel, pennies, SingleLex()).steps == ()
        # A wrong table in which the row player's H beats T at both joints.
        wrong = (((0, 0b11), (0, 0)), pennies.beats[1])
        monkeypatch.setattr(Game, "beats", property(lambda g: wrong))
        game = Game(pennies.labels, pennies.payoffs)
        doc = trace_to_document(normal_form(rel, game, SingleLex()))
        entry = doc["steps"][0]["removed"][0]
        assert (entry["player"], entry["strategy"]) == (1, "T")
        assert entry["certificate"]["evidence"] == "lp-infeasible"
        # The wrong table is still in place: the rows catch the removal.
        with pytest.raises(InvalidCertificate, match="strategy 'T' fails"):
            verify_trace_document(doc, game)

    def test_wrong_game_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_MIX)

    def test_dump_is_deterministic(self):
        t1 = dump_trace(normal_form(StrictMixed(), G_MIX, SingleLex()))
        t2 = dump_trace(normal_form(StrictMixed(), G_MIX, SingleLex()))
        assert t1 == t2


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(*path, value):
    def mutate(doc):
        _at(doc, path[:-1])[path[-1]] = value
        return doc

    return mutate


def _drop(*path):
    def mutate(doc):
        del _at(doc, path[:-1])[path[-1]]
        return doc

    return mutate


ENTRY = ("steps", 0, "removed", 0)
MALFORMED = {
    "player out of range": _set(*ENTRY, "player", value=9),
    "player zero": _set(*ENTRY, "player", value=0),
    "player as text": _set(*ENTRY, "player", value="1"),
    "player as boolean": _set(*ENTRY, "player", value=True),
    "no steps": _drop("steps"),
    "no outcome": _drop("outcome"),
    "no dominator": _drop(*ENTRY, "certificate", "dominator"),
    "no certificate": _drop(*ENTRY, "certificate"),
    "steps not a list": _set("steps", value=5),
    "step not an object": _set("steps", 0, value="step"),
    "strategy as number": _set(*ENTRY, "strategy", value=1),
    "relation as list": _set("relation", value=["strict-pure"]),
    "unknown belief mode": _set("belief_mode", value="telepathic"),
    "labels not a list": _set("initial", "labels", value=None),
    "outcome not an object": _set("outcome", value=[["D"], ["D"]]),
    "list in place of the document": lambda doc: [doc],
    "number in place of the document": lambda doc: 5,
}

MALFORMED_CERTIFICATES = {
    "not an object": [],
    "type as number": {"type": 3},
    "no type": {"dominator": "D"},
    "global flag as text": {
        "type": "never-best-response", "mode": "pure", "global": "no", "evidence": []
    },
    "unknown mode": {"type": "never-best-response", "mode": "psychic", "global": False},
    "belief not a list": {
        "type": "never-best-response",
        "mode": "pure",
        "global": False,
        "evidence": [{"belief": "C", "better": "D"}],
    },
    "weight as number": {"type": "mixed-dominator", "eps": "1/2", "weights": {"D": 1}},
    "weights not an object": {"type": "mixed-dominator", "eps": "1/2", "weights": []},
    "eps as number": {"type": "mixed-dominator", "eps": 1, "weights": {"D": "1"}},
    "subset joint not a list": {
        "type": "inherent", "evidence": [{"subset": ["C"], "dominator": "D"}]
    },
    "parts not a list": {"type": "intersection", "parts": {}},
}


def _append(*path, source):
    def mutate(doc):
        _at(doc, path).append(copy.deepcopy(_at(doc, source)))
        return doc

    return mutate


def _repeat_first_part(doc):
    """The intersection once more with its first part, certified again."""
    doc["relation"] += "," + doc["relation"].split(",")[0]
    for step in doc["steps"]:
        for entry in step["removed"]:
            parts = entry["certificate"]["parts"]
            parts.append(copy.deepcopy(parts[0]))
    return doc


CERTIFICATE = ENTRY + ("certificate",)
EVIDENCE = CERTIFICATE + ("evidence",)

# Prisoner's-dilemma traces, each changed into a document that replays
# every removal correctly but is not what the writer writes.
NON_CANONICAL = {
    "removal listed twice": (
        StrictPure(), FullSpeed(), _append("steps", 0, "removed", source=ENTRY)
    ),
    "single step removing two": (
        StrictPure(), FullSpeed(), _set("steps", 0, "policy", value="single-lex")
    ),
    "belief mode on strict-pure": (
        StrictPure(), FullSpeed(), _set("belief_mode", value="correlated")
    ),
    "no belief mode on nbr": (NeverBestResponse(PURE), FullSpeed(), _drop("belief_mode")),
    "LP-mode evidence as text": (
        NeverBestResponse(CORR), SingleLex(), _set(*EVIDENCE, value="x")
    ),
    "LP-mode evidence as pure evidence": (
        NeverBestResponse(CORR), SingleLex(), _set(*EVIDENCE, value=[])
    ),
    "repeated intersection part": (
        Intersection((StrictPure(), Inherent())), SingleLex(), _repeat_first_part
    ),
    "zero weight in a mixture": (
        StrictMixed(), SingleLex(), _set(*CERTIFICATE, "weights", "C", value="0")
    ),
}

# One unknown field per level of the document: every object the writer
# writes, each certificate type and each kind of evidence entry.
UNKNOWN_FIELD_AT = {
    "document": (StrictPure(), FullSpeed(), ()),
    "initial": (StrictPure(), FullSpeed(), ("initial",)),
    "step": (StrictPure(), FullSpeed(), ("steps", 0)),
    "removal": (StrictPure(), FullSpeed(), ENTRY),
    "outcome": (StrictPure(), FullSpeed(), ("outcome",)),
    "pure-dominator": (StrictPure(), FullSpeed(), CERTIFICATE),
    "mixed-dominator": (StrictMixed(), SingleLex(), CERTIFICATE),
    "pure never-best-response": (NeverBestResponse(PURE), SingleLex(), CERTIFICATE),
    "LP never-best-response": (NeverBestResponse(CORR), SingleLex(), CERTIFICATE),
    "inherent": (Inherent(), SingleLex(), CERTIFICATE),
    "intersection": (Intersection((StrictPure(), Inherent())), SingleLex(), CERTIFICATE),
    "intersection part": (
        Intersection((StrictPure(), Inherent())), SingleLex(), CERTIFICATE + ("parts", 1)
    ),
    "never-best-response evidence": (NeverBestResponse(PURE), SingleLex(), EVIDENCE + (0,)),
    "inherent evidence": (Inherent(), SingleLex(), EVIDENCE + (0,)),
}
NON_CANONICAL.update(
    (f"unknown field in {level}", (rel, policy, _set(*path, "note", value="x")))
    for level, (rel, policy, path) in UNKNOWN_FIELD_AT.items()
)


class TestMalformedDocuments:
    @pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
    def test_document_ends_in_a_domain_error(self, mutate):
        doc = mutate(trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed())))
        with pytest.raises((StructuralError, InvalidCertificate)):
            verify_trace_document(doc, G_PD)

    def test_step_removing_nothing_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        doc["steps"].append({"removed": [], "policy": "fastest"})
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_PD)

    def test_unknown_policy_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        doc["steps"][0]["policy"] = "nonsense"
        with pytest.raises(StructuralError):
            verify_trace_document(doc, G_PD)

    @pytest.mark.parametrize(
        "rel, policy, mutate", NON_CANONICAL.values(), ids=NON_CANONICAL.keys()
    )
    def test_non_canonical_document_rejected(self, rel, policy, mutate):
        written = dump_trace(normal_form(rel, G_PD, policy))
        doc = json.loads(written)
        verify_trace_document(doc, G_PD)
        with pytest.raises((StructuralError, InvalidCertificate)):
            verify_trace_document(mutate(doc), G_PD)
        assert dump_trace(normal_form(rel, G_PD, policy)) == written

    @pytest.mark.parametrize(
        "doc", MALFORMED_CERTIFICATES.values(), ids=MALFORMED_CERTIFICATES.keys()
    )
    def test_certificate_ends_in_a_domain_error(self, doc):
        with pytest.raises((StructuralError, InvalidCertificate)):
            certificate_from_json(G_PD, 0, doc)


def _valid_documents():
    """One trace document per certificate type, with the game it replays on."""
    cases = [
        (StrictPure(), G_PD),
        (StrictMixed(), G_MIX),
        (NeverBestResponse(BeliefMode.PURE), G_BELIEF),
        (NeverBestResponse(BeliefMode.CORRELATED, global_pool=True), G_MIX),
        (Inherent(), G_PD),
        (Intersection((StrictPure(), Inherent())), G_PD),
    ]
    return [(trace_to_document(normal_form(rel, g, SingleLex())), g) for rel, g in cases]


VALID_DOCUMENTS = _valid_documents()
TOKENS = (
    ["C", "D", "U", "M", "L", "R", "0", "1", "-1", "1/2", "1/0", "pure", "correlated"]
    + ["mixed", "strict-pure", "nbr", "global-nbr", "inherent", "lp-infeasible"]
    + ["pure-dominator", "mixed-dominator", "never-best-response", "intersection"]
    + ["type", "dominator", "weights", "eps", "mode", "global", "evidence", "belief"]
    + ["better", "subset", "parts", "player", "strategy", "certificate", "removed"]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 10)
    | st.sampled_from(TOKENS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(TOKENS), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, path=()):
    """Every (container path, key) in a JSON tree."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], path + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_end_in_domain_errors(data):
    base, game = data.draw(st.sampled_from(VALID_DOCUMENTS))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        path, key = data.draw(st.sampled_from(list(_slots(doc))))
        container = _at(doc, path)
        if data.draw(st.booleans()):
            container[key] = data.draw(JSON_VALUES)
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    try:
        verify_trace_document(doc, game)
    except DomelimError:
        pass
