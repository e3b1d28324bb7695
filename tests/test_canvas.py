"""Canvas interpreter conformance: DSL graphs loaded and executed by
raydoc.pipelines.canvas.

The routing tests run the in-repo reconstructions under
raydoc/pipelines/canvas_graphs/ (same file names as the reference's
test/dsl_examples/*.json and templates/*.json, written from the DSL
shape, not copied). Only ``test_every_reference_graph_executes`` runs
the reference's own 25 files; it needs the reference checkout and is
skipped where that directory is absent."""

import glob
import os

import pytest

from raydoc.pipelines.canvas import GRAPHS_DIR

SF = "/root/testdata/sf0.001"
DSL_DIR = os.path.join(GRAPHS_DIR, "dsl_examples")
TPL_DIR = os.path.join(GRAPHS_DIR, "templates")

REF_DIR = "/root/reference/agent"
REF_DSL_DIR = f"{REF_DIR}/test/dsl_examples"
REF_TPL_DIR = f"{REF_DIR}/templates"

ALL_GRAPHS = sorted(glob.glob(f"{REF_DSL_DIR}/*.json")
                    + glob.glob(f"{REF_TPL_DIR}/*.json"))


@pytest.mark.usefixtures("ray_session")
class TestCanvasInterpreter:
    @pytest.mark.skipif(not os.path.isdir(REF_DIR),
                        reason=f"reference checkout {REF_DIR} not present")
    def test_every_reference_graph_executes(self):
        from raydoc.pipelines.canvas import run_canvas

        assert len(ALL_GRAPHS) == 25  # 14 dsl_examples + 11 templates
        for p in ALL_GRAPHS:
            res = run_canvas(p, SF,
                             ["how does the hash join stream batches"])
            assert len(res) == 1 and isinstance(res[0]["answer"], str), p
            assert res[0]["path"], p

    def test_switch_routes_driven_by_llm_override(self):
        """baidu_generate_and_switch.json: script the Generate reply to
        hit each Switch branch (switch.py:53-88 condition order)."""
        from raydoc.pipelines.canvas import run_canvas

        p = f"{DSL_DIR}/baidu_generate_and_switch.json"
        for reply, expect in (("yes certainly", "YES YES"),
                              ("no not at all", "NO NO"),
                              ("i don't know really", "I DON'T KNOW")):
            res = run_canvas(p, SF, ["is ray data a dataset engine"],
                             llm_overrides={"generate:0":
                                            lambda _r, s=reply: s})
            assert res[0]["answer"].startswith(expect), (reply,
                                                         res[0]["answer"])

    def test_categorize_routes_by_description(self):
        """categorize.json: product questions -> message:0, other
        chatter -> message:1 (category_description 'to' edges)."""
        from raydoc.pipelines.canvas import run_canvas

        p = f"{DSL_DIR}/categorize.json"
        prod = run_canvas(p, SF, ["how to install it onto the wall?"])
        other = run_canvas(p, SF, ["what a nice sunny morning today"])
        assert prod[0]["answer"].startswith("Message 0")
        assert other[0]["answer"].startswith("Message 1")

    def test_relevant_gate_routes_yes_and_no(self):
        """retrieval_relevant_and_generate.json: kb-covered queries go
        through generate:0; nonsense goes to the sorry-message."""
        from raydoc.pipelines.canvas import run_canvas

        p = f"{DSL_DIR}/retrieval_relevant_and_generate.json"
        hit = run_canvas(p, SF, ["hash join stream batch table query"])
        miss = run_canvas(p, SF, ["zzzqqq vvvkkk"])
        assert "generate:0" in hit[0]["path"]
        assert "message:0" in miss[0]["path"]
        assert "Sorry" in miss[0]["answer"] or "knowledge base" in \
            miss[0]["answer"] or "contact" in miss[0]["answer"]

    def test_iteration_splits_and_joins(self):
        """research_report.json: the two Iteration nodes run their
        child sub-graphs once per delimited item and join outputs
        (iteration.py:44-60)."""
        from raydoc.pipelines.canvas import (load_canvas, run_canvas)

        p = f"{TPL_DIR}/research_report.json"
        res = run_canvas(p, SF, ["arrow shuffle strategies"])
        comps = load_canvas(p)["components"]
        iter_items = [c for c, v in comps.items()
                      if v["obj"]["component_name"] == "IterationItem"]
        # both iterations' child graphs actually ran (appear in path)
        assert all(any(ii in s for s in res[0]["path"])
                   for ii in iter_items)
        assert len(res[0]["path"]) > 20  # per-item sub-walks happened

    def test_code_component_in_canvas(self):
        """A canvas with a Code node runs the script through the
        sandboxed subprocess (code.py:58-152 contract)."""
        from raydoc.pipelines.canvas import run_canvas

        dsl = {"components": {
            "begin": {"obj": {"component_name": "Begin",
                              "params": {"prologue": "hi"}},
                      "downstream": ["answer:0"], "upstream": []},
            "answer:0": {"obj": {"component_name": "Answer", "params": {}},
                         "downstream": ["code:0"],
                         "upstream": ["begin", "code:0"]},
            "code:0": {"obj": {"component_name": "Code", "params": {
                "script": "def main(args):\n"
                          "    return args['content'].upper()"}},
                "downstream": ["answer:0"], "upstream": ["answer:0"]},
        }}
        res = run_canvas(dsl, None, ["shout this please"])
        assert res[0]["answer"] == "SHOUT THIS PLEASE"

    def test_snapshot_reload_continues_dialogue(self):
        """Whole-state snapshot parity (reference canvas.py:128-151
        __str__/load round-trip): snapshot after turn 2 of a 4-turn
        dialogue on a history-dependent graph (RewriteQuestion reads the
        dialogue history; customer_service.json), reload into a FRESH
        session, continue — every turn must match the unbroken run."""
        from raydoc.pipelines.canvas import CanvasSession, run_canvas

        p = f"{TPL_DIR}/customer_service.json"
        turns = ["how does the hash join stream batches",
                 "what about it under memory pressure",
                 "and when does it spill",
                 "thanks, summarize that"]
        unbroken = run_canvas(p, SF, turns, seed=3)

        sess = CanvasSession(p, sf_dir=SF, seed=3)
        first = [sess.run_turn(t) for t in turns[:2]]
        snap = sess.dumps()
        resumed = CanvasSession.loads(snap)
        rest = [resumed.run_turn(t) for t in turns[2:]]
        assert first + rest == unbroken
        # the snapshot carries live outputs (reference serializes
        # component outputs) and the dialogue history
        import json as _json

        d = _json.loads(snap)
        assert d["turn"] == 2 and len(d["history"]) == 4
        assert d["state"], "live component outputs missing from snapshot"

    def test_snapshot_preserves_seeded_message_choice(self):
        """A seeded Message node must pick the SAME message after
        reload as the unbroken session would on that turn (the rng is
        turn-indexed, so the restored turn counter pins it)."""
        from raydoc.pipelines.canvas import CanvasSession, run_canvas

        dsl = {"components": {
            "begin": {"obj": {"component_name": "Begin",
                              "params": {"prologue": "hi"}},
                      "downstream": ["answer:0"], "upstream": []},
            "answer:0": {"obj": {"component_name": "Answer", "params": {}},
                         "downstream": ["message:0"],
                         "upstream": ["begin"]},
            "message:0": {"obj": {"component_name": "Message",
                                  "params": {"messages":
                                             ["a", "b", "c", "d", "e"]}},
                          "downstream": ["answer:1"],
                          "upstream": ["answer:0"]},
            "answer:1": {"obj": {"component_name": "Answer", "params": {}},
                         "downstream": [], "upstream": ["message:0"]},
        }}
        turns = ["t0", "t1", "t2", "t3"]
        unbroken = run_canvas(dsl, None, turns, seed=11)
        sess = CanvasSession(dsl, seed=11)
        sess.run_turn("t0")
        resumed = CanvasSession.loads(sess.dumps())
        rest = [resumed.run_turn(t) for t in turns[1:]]
        assert rest == unbroken[1:]
