"""Canvas JSON interpreter: run graphs written in the reference's DSL.

``pipelines.spec`` is the engine's native (linear, validated) pipeline
surface; this module is the COMPATIBILITY surface — it loads graph JSON
in the reference's canvas DSL (components + upstream/downstream edges,
reference canvas.py:101-126) and executes one user turn at a time by
walking the edges, with the same deterministic doubles the conformance
pipelines use for LLM-backed nodes.

``GRAPHS_DIR`` (``canvas_graphs/{dsl_examples,templates}/`` next to this
module) holds small in-repo reconstructions of the reference graphs the
routing tests and the ``canvas_customer_service`` query run. They are
written from the DSL shape and the component contracts cited below, not
copied from the reference's files; only the whole-corpus sweep in
tests/test_canvas.py reads the reference checkout itself, and it is
skipped where that checkout is absent. Routing semantics follow the
reference:

* Categorize picks the best-scoring ``category_description`` entry
  (keyword-count argmax over name+description+examples tokens,
  categorize.py:93-107) and jumps to its ``to``.
* Switch evaluates ``conditions`` in order with the 12-operator
  predicate set over REFERENCED component outputs (switch.py:53-88,
  process_operator:90-118); no match -> ``end_cpn_id``.
* Relevant gates yes/no on retrieval evidence (relevant.py:24-79).
* Iteration splits its referenced input on ``delimiter`` and runs the
  child sub-graph (components whose ``parent_id`` is the Iteration)
  once per item, joining the item outputs (iteration.py:24-60,
  iterationitem.py) — the scalar twin of the data-parallel explode ->
  map -> reassemble in pipelines.conformance.research_report.
* A turn ends when flow re-enters an Answer node (the canvas's
  interface point); a step cap mirrors the reference's loop detection
  (canvas.py:332-360).

LLM-backed nodes (Generate) render their prompt with ``{slot}``
substitution from component outputs; tests may inject
``llm_overrides[cpn_id] = fn(rendered) -> text`` to script a model
reply (e.g. to drive a Switch), exactly where a real chat model would
plug in.

Batch note: one canvas run is ONE dialogue turn — sub-second, driver
side. To run a canvas over a CORPUS of turns, put the turns in a
Dataset and call this per row inside ``map_batches`` (the conformance
pipelines show the fully data-parallel forms of the same graphs).
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter

__all__ = ["GRAPHS_DIR", "CanvasSession", "load_canvas", "run_canvas"]

GRAPHS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "canvas_graphs")

_SLOT_RE = re.compile(r"\{([A-Za-z0-9_:@-]+)\}")
_MAX_STEPS = 24  # hard backstop on top of suffix-pattern detection


def _find_loop(path: list[str], max_loops: int = 6):
    """Suffix-pattern cycle detection, reference parity (r03;
    canvas.py:332-360): reverse the walked path, trim at the first
    answer/iterationitem (a dialogue boundary, not a cycle member),
    then test whether some prefix of the reversed path repeats more
    than ``max_loops`` times back-to-back. Returns the human-readable
    ``a => b => a => b`` pattern, or False — so the error names WHICH
    cycle looped instead of a flat step count."""
    rev = path[::-1]
    if len(rev) < 2:
        return False
    for i, p in enumerate(rev):
        low = p.lower()
        if low.startswith("answer") or low.startswith("iterationitem"):
            rev = rev[:i]
            break
    if len(rev) < 2:
        return False
    for loc in range(2, len(rev) // 2):
        pat = ",".join(rev[0:loc])
        path_str = ",".join(rev)
        if len(pat) >= len(path_str):
            return False
        loop = max_loops
        while path_str.startswith(pat) and loop >= 0:
            loop -= 1
            if len(pat) + 1 >= len(path_str):
                return False
            path_str = path_str[len(pat) + 1:]
        if loop < 0:
            names = " => ".join(p.split(":")[0] for p in rev[0:loc])
            return names + " => " + names
    return False

_SEARCH_LIKE = {"baidu", "duckduckgo", "google", "bing", "wikipedia",
                "arxiv", "googlescholar", "github"}
_CONNECTOR_LIKE = _SEARCH_LIKE | {
    "pubmed", "qweather", "wencai", "yahoofinance", "akshare", "tushare",
    "jin10", "baidufanyi", "deepl"}


def load_canvas(path_or_dict) -> dict:
    """Accepts a dsl_examples/templates path, a JSON string, or a
    parsed dict; returns the components graph (templates nest it under
    "dsl")."""
    d = path_or_dict
    if isinstance(d, str):
        if d.lstrip().startswith("{"):
            d = json.loads(d)
        else:
            with open(d) as f:
                d = json.load(f)
    if "dsl" in d:
        d = d["dsl"]
    if "components" not in d:
        raise ValueError("not a canvas JSON: missing 'components'")
    return d


def _tokens(text: str) -> list[str]:
    return (text or "").lower().split()


def _render(template: str, state: dict) -> str:
    """Two-pass render mirroring the reference Template component
    (template.py:115-139): (1) sandboxed Jinja render against the state
    — ``{% if %}`` / ``{% for %}`` conditionals work, render errors
    silently pass the content through unrendered, exactly like the
    reference's bare ``except: pass``; then (2) literal {slot}
    substitution: exact state key, or component-id prefix match
    ("baidu" -> "baidu:0"), else the slot is left in place (the
    reference leaves unknown inputs unresolved too)."""
    from raydoc.ops.template import jinja_template

    tpl, _refs = jinja_template(template)
    if tpl is not None:
        try:
            template = tpl.render(
                {k.split(":")[0] if ":" in k else k: v
                 for k, v in state.items()} | dict(state))
        except Exception:
            pass

    def _sub(m: re.Match) -> str:
        slot = m.group(1)
        if slot in state:
            return str(state[slot])
        for k, v in state.items():
            if k.split(":")[0] == slot:
                return str(v)
        return m.group(0)

    return _SLOT_RE.sub(_sub, template)


def _predicate(inp: str, op: str, value: str) -> bool:
    """The Switch operator set (switch.py:90-118), string semantics."""
    inp = (inp or "").lower()
    value = (value or "").lower()
    if op == "contains":
        return value in inp
    if op == "not contains":
        return value not in inp
    if op == "start with":
        return inp.startswith(value)
    if op == "end with":
        return inp.endswith(value)
    if op == "empty":
        return not inp
    if op == "not empty":
        return bool(inp)
    try:
        a, b = float(inp), float(value)
    except ValueError:
        a, b = inp, value  # lexical fallback
    return {"=": a == b, "≠": a != b, ">": a > b, "<": a < b,
            "≥": a >= b, "≤": a <= b}[op]


class _Runtime:
    """Per-canvas execution context: sf_dir corpus + per-node doubles
    built lazily once (the once-per-actor model slot)."""

    def __init__(self, sf_dir: str | None, llm_overrides=None,
                 seed: int = 0) -> None:
        self.sf_dir = sf_dir
        self.overrides = llm_overrides or {}
        self.seed = seed
        self._connectors: dict[str, object] = {}

    def connector(self, kind: str):
        if kind not in self._connectors:
            from raydoc.sources import connectors as C

            cls = {"pubmed": C.XmlConnector, "qweather": C.LookupJoinConnector,
                   "wencai": C.FlattenConnector,
                   "yahoofinance": C.MultiTableConnector,
                   "akshare": C.FinanceConnector, "tushare": C.FinanceConnector,
                   "jin10": C.NewsConnector,
                   "baidufanyi": C.TranslateConnector,
                   "deepl": C.TranslateConnector}.get(kind)
            if cls is None:
                self._connectors[kind] = C.SearchConnector(channel=kind)
            else:
                self._connectors[kind] = cls()
        return self._connectors[kind]

    def retrieve(self, query: str, top_n: int) -> str:
        if not self.sf_dir:
            return ""
        from raydoc.pipelines.conformance import (_attach_texts, _collect,
                                                  _evidence, _retrieve)

        top = _collect(_retrieve(self.sf_dir, query, top_n=top_n))
        if not top.num_rows:
            return ""
        return _evidence(_attach_texts(self.sf_dir, top))


class CanvasSession:
    """Stateful multi-turn canvas runtime with whole-state snapshot
    parity (reference canvas.py:128-151: ``Canvas.__str__`` serializes
    params AND live component outputs, ``load`` restores them so a
    dialogue continues mid-stream). The session equivalent here:
    ``run_turn`` executes ONE user turn; ``dumps`` serializes the graph
    plus all cross-turn live state (dialogue history, turn counter,
    the last turn's component outputs); ``CanvasSession.loads`` rebuilds
    a session that continues exactly as the unbroken one would —
    including Message-node seeded choices (turn-indexed rng) and
    RewriteQuestion (history-dependent). ``llm_overrides`` are live
    callables and so, like the reference's LLM bindings, are re-supplied
    at load time rather than serialized."""

    def __init__(self, path_or_dict, sf_dir: str | None = None,
                 llm_overrides: dict | None = None, seed: int = 0) -> None:
        self.dsl = load_canvas(path_or_dict)
        self.comps = self.dsl["components"]
        self.sf_dir = sf_dir
        self.seed = seed
        self.rt = _Runtime(sf_dir, llm_overrides, seed)
        self.history: list[str] = []
        self.turn = 0
        self.last_state: dict = {}
        begins = [c for c in self.comps if self._cname(c) == "begin"]
        if not begins:
            raise ValueError("canvas has no Begin component")
        self.entry_answer = self.comps[begins[0]]["downstream"][0]

    def dumps(self) -> str:
        """JSON snapshot of graph + live state (the ``__str__`` twin).
        Component outputs are strings in this interpreter, so the last
        turn's state dict serializes directly."""
        return json.dumps({
            "dsl": self.dsl,
            "history": self.history,
            "turn": self.turn,
            "seed": self.seed,
            "sf_dir": self.sf_dir,
            "state": self.last_state,
        })

    @classmethod
    def loads(cls, snapshot: str,
              llm_overrides: dict | None = None) -> "CanvasSession":
        """Rebuild a session from ``dumps`` output (the ``load`` twin);
        pass ``llm_overrides`` again to re-bind live model callables."""
        d = json.loads(snapshot)
        sess = cls(d["dsl"], sf_dir=d.get("sf_dir"),
                   llm_overrides=llm_overrides, seed=int(d.get("seed", 0)))
        sess.history = list(d.get("history", []))
        sess.turn = int(d.get("turn", 0))
        sess.last_state = dict(d.get("state", {}))
        return sess

    def _cname(self, cid: str) -> str:
        return self.comps[cid]["obj"]["component_name"].lower()

    def run_turn(self, user: str) -> dict:
        """Execute one user turn:
        {"turn", "input", "answer", "path": [component ids visited]}."""
        comps = self.comps
        rt = self.rt
        history = self.history
        ti = self.turn
        seed = self.seed
        _cname = self._cname

        def _resolve(nxt: str | None):
            """Downstream id -> existing id; the reference corpus contains
            dangling edges (keyword_wikipedia_and_generate.json points
            wikipedia:0 at "generate:0" while only generate:1 exists) —
            resolve by component-name prefix when unique, else None."""
            if nxt is None or nxt in comps:
                return nxt
            prefix = nxt.split(":")[0]
            cands = [c for c in comps if c.split(":")[0] == prefix]
            return cands[0] if len(cands) == 1 else None

        entry_answer = self.entry_answer
        state: dict = {"user_input": user, "begin": ""}
        path: list[str] = []

        def _eval(cur: str, upstream: str):
            """One component step -> (content | None, routed next id |
            None). Routing-only components return an explicit next."""
            name = _cname(cur)
            params = comps[cur]["obj"]["params"]
            nxt: str | None = None
            content: str | None = None
            if name == "categorize":
                cats = params.get("category_description", {})
                toks = Counter(_tokens(user))
                best, best_n, best_to = None, -1, None
                for cat, spec in cats.items():
                    kw = set(_tokens(cat) + _tokens(spec.get("description", ""))
                             + _tokens(spec.get("examples", "")))
                    n = sum(c for w, c in toks.items() if w in kw)
                    if n > best_n:
                        best, best_n, best_to = cat, n, spec.get("to")
                content = best or ""
                nxt = best_to
            elif name == "switch":
                for cond in params.get("conditions", []):
                    checks = [
                        _predicate(str(state.get(it.get("cpn_id"), "")),
                                   it.get("operator", "contains"),
                                   str(it.get("value", "")))
                        for it in cond.get("items", [])
                    ]
                    ok = any(checks) if cond.get(
                        "logical_operator") == "or" else all(checks)
                    if ok:
                        nxt = cond["to"]
                        break
                if nxt is None:
                    nxt = params.get("end_cpn_id")
                content = nxt or ""
            elif name == "relevant":
                import pyarrow as pa

                from raydoc.ops.classify import RelevantStage

                gate = RelevantStage(query=user, min_overlap=1)(
                    pa.table({"text": [upstream]}))
                verdict = gate.column("relevant")[0].as_py()
                content = verdict
                nxt = params.get("yes" if verdict == "yes" else "no")
            elif name == "generate":
                slots = dict(state)
                slots.setdefault("input", user)
                rendered = _render(params.get("prompt", "{user_input}"),
                                   slots)
                fn = rt.overrides.get(cur)
                content = fn(rendered) if fn else rendered
            elif name == "retrieval":
                content = rt.retrieve(user, int(params.get("top_n", 5)))
            elif name == "message":
                msgs = params.get("messages", [""])
                content = msgs[random.Random(
                    seed * 7919 + ti).randrange(len(msgs))] if msgs else ""
            elif name == "keywordextract":
                top = Counter(_tokens(upstream)).most_common(
                    int(params.get("top_n", 3)))
                content = " ".join(w for w, _ in top)
            elif name == "rewritequestion":
                from raydoc.pipelines.conformance import rewrite_query

                content = rewrite_query(user, history)
            elif name == "concentrator" or name == "iterationitem":
                content = upstream
            elif name == "template":
                content = _render(params.get("content", ""), dict(state))
            elif name == "begin":
                content = params.get("prologue", "")
            elif name == "exesql":
                from raydoc.ops.sql_exec import extract_sql

                content = extract_sql(upstream)
            elif name == "code":
                import pyarrow as pa

                from raydoc.ops.code_exec import SandboxCodeStage

                st = SandboxCodeStage(
                    params.get("script", "def main(a):\n    return ''"),
                    arguments=[{"name": "content", "column": "content"}],
                    out_col="result",
                )
                out = st(pa.table({"content": [upstream]}))
                content = out.column("result")[0].as_py()
            elif name == "iteration":
                content = _run_iteration(cur, params, upstream)
            elif name in _CONNECTOR_LIKE:
                hits = rt.connector(name).fetch(upstream or user, top_n=3)
                content = " | ".join(
                    (h.get("content") or "")[:80] for h in hits
                    if h.get("status") == "ok")
            elif name == "answer":
                content = upstream
            else:
                raise NotImplementedError(
                    f"canvas component {name!r} ({cur}) is outside the "
                    "supported set (the full dsl_examples + templates "
                    "corpus)")
            return content, nxt

        def _run_iteration(it_id: str, params: dict, upstream: str) -> str:
            """Split the referenced input on delimiter, run the child
            sub-graph per item, join outputs (iteration.py:44-60)."""
            refs = params.get("query", [])
            src = upstream
            for r in refs:
                cid = r.get("component_id")
                if cid in state:
                    src = str(state[cid])
                    break
            delim = params.get("delimiter", ",") or ","
            items = [s for s in src.split(delim) if s.strip()]
            starts = [c for c, v in comps.items()
                      if v.get("parent_id") == it_id
                      and _cname(c) == "iterationitem"]
            if not starts or not items:
                return src
            outs: list[str] = []
            for item in items[:_MAX_STEPS]:
                sub_cur: str | None = starts[0]
                sub_up = item
                sub_steps = 0
                last = item
                while sub_cur is not None and sub_steps < _MAX_STEPS:
                    sub_steps += 1
                    path.append(sub_cur)
                    c, nx = _eval(sub_cur, sub_up)
                    if c is not None:
                        state[sub_cur] = c
                        last = c
                        sub_up = c
                    nx = _resolve(
                        nx if nx is not None else
                        (comps[sub_cur]["downstream"][0]
                         if comps[sub_cur]["downstream"] else None))
                    # leaving the iteration scope ends this item's walk
                    if nx is None or comps[nx].get("parent_id") != it_id:
                        break
                    sub_cur = nx
                outs.append(last)
            return delim.join(outs)

        def _upstream_of(cur: str) -> str:
            """Latest computed content among the node's upstream edges
            (the get_input walk, base.py:419-465); fall back to the
            most recent content on the path, then the user turn."""
            ups = set(comps[cur].get("upstream", []))
            for p in reversed(path[:-1]):
                if p in ups and p in state:
                    return state[p]
            for p in reversed(path[:-1]):
                if p in state:
                    return state[p]
            return user

        # frontier walk: non-router components activate ALL their
        # downstream edges in order (the reference's scheduler runs
        # every downstream, canvas.py:205-239); routers (Categorize /
        # Switch / Relevant) redirect EXCLUSIVELY to their choice
        ds0 = comps[entry_answer]["downstream"]
        frontier: list[str] = [c for c in (_resolve(d) for d in ds0) if c]
        answer = ""
        steps = 0
        while frontier and steps < _MAX_STEPS:
            steps += 1
            cur = frontier.pop(0)
            path.append(cur)
            loop = _find_loop(path)
            if loop:  # reference raises OverflowError (canvas.py:262)
                raise OverflowError(f"Too much loops: {loop}")
            upstream = _upstream_of(cur)
            if _cname(cur) == "answer":
                answer = upstream
                break
            content, nxt = _eval(cur, upstream)
            if content is not None:
                state[cur] = content
            if nxt is not None:  # router: exclusive redirect
                nxt = _resolve(nxt)
                frontier = [nxt] if nxt else []
            else:
                downs = [c for c in (_resolve(d)
                                     for d in comps[cur]["downstream"]) if c]
                for d in downs:
                    if d not in frontier:
                        frontier.append(d)
            if not frontier:
                answer = state.get(cur, "")
        history.extend([user, answer])
        # live outputs of this turn ride the snapshot (reference
        # serializes component outputs too); per-turn evaluation always
        # starts from a fresh state dict, so this is snapshot payload,
        # not an input to the next turn
        self.last_state = dict(state)
        self.turn += 1
        return {"turn": ti, "input": user, "answer": answer, "path": path}


def run_canvas(path_or_dict, sf_dir: str | None = None,
               user_inputs: list[str] | None = None,
               llm_overrides: dict | None = None, seed: int = 0) -> list[dict]:
    """Execute a canvas JSON, one dict per user turn:
    {"turn", "input", "answer", "path": [component ids visited]}.
    Convenience wrapper over ``CanvasSession`` (which adds per-turn
    snapshot/reload)."""
    sess = CanvasSession(path_or_dict, sf_dir=sf_dir,
                         llm_overrides=llm_overrides, seed=seed)
    return [sess.run_turn(u) for u in (user_inputs or ["hello"])]
