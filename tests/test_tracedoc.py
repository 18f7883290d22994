"""Trace document serialization and certificate re-verification."""

import json
import random

import pytest

from domelim.dominance import (
    GlobalNeverBestResponse,
    Inherent,
    Intersection,
    NeverBestResponse,
    StrictMixed,
    StrictPure,
)
from domelim.errors import InvalidCertificate
from domelim.fixtures import G_BELIEF, G_MIX, G_PD
from domelim.game import BeliefMode
from domelim.generate import random_game
from domelim.reduction import FullSpeed, SingleLex, normal_form
from domelim.tracedoc import dump_trace, trace_to_document, verify_trace_document


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
        trace = normal_form(
            GlobalNeverBestResponse(BeliefMode.CORRELATED), G_BELIEF, FullSpeed()
        )
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

    def test_wrong_game_rejected(self):
        doc = trace_to_document(normal_form(StrictPure(), G_PD, FullSpeed()))
        with pytest.raises(InvalidCertificate):
            verify_trace_document(doc, G_MIX)

    def test_dump_is_deterministic(self):
        t1 = dump_trace(normal_form(StrictMixed(), G_MIX, SingleLex()))
        t2 = dump_trace(normal_form(StrictMixed(), G_MIX, SingleLex()))
        assert t1 == t2
