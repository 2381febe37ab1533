"""EXPLAIN / EXPLAIN ANALYZE: annotated query plan trees.

``repro explain`` (and :meth:`repro.engine.QueryEngine.explain`) compile
a RegFO/RegLFP/RegTC query into a :class:`PlanNode` tree that mirrors
the formula's quantifier/connective structure, annotated with

* the language tier (:func:`repro.logic.ast.classify_language`),
* the database relations and arrangements each node needs, and
* the *predicted* cache/store outcome of every expensive artifact —
  region extension and arrangement resolved by fingerprint against the
  engine cache and the disk store, the whole-query answer against the
  engine's evaluator memo — **without perturbing any of them** (no
  counters move, no LRU entry is touched).

With ``analyze=True`` the query is executed and every node carries its
*measured* cost: wall time (inclusive and self), evaluator calls and
memo hits, and per-node deltas of the hot counters (LP solves split
filtered/exact, feasibility-cache hits, DFS nodes, faces, store
traffic).  Per-node attribution is exact for counters: the synthetic
``setup`` node carries the extension/arrangement construction, the
formula nodes carry evaluation, and a trailing ``other`` node absorbs
whatever bookkeeping remains, so the per-node ``self`` values sum to the
run's totals by construction.

Fixpoint nodes additionally carry their per-stage semi-naive deltas
(``fixpoint.stage`` journal events), and the full structured record of
the run — span tree plus journal events — is available on the returned
:class:`ExplainResult` for ``--journal`` streaming and replay.

Datalog programs get the same treatment through
:func:`explain_datalog`: one plan node per stratum and rule, per-stage
delta disjunct counts from the ``datalog.stage`` journal events.

Costs are attributed per *formula object* (``id``-keyed): the evaluator
memoises structurally, so two structurally equal but distinct subtrees
share evaluation work — the node that evaluated first pays, the second
shows memo hits.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterator

from repro.logic import ast
from repro.logic.ast import classify_language
from repro.obs.journal import JOURNAL
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER, Span

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.engine import QueryEngine

#: Counters attributed per plan node during EXPLAIN ANALYZE.  Exactly
#: the hot-path telemetry the profile command reports: LP activity,
#: arrangement DFS work, disk-store traffic and evaluator progress.
PROFILE_COUNTERS = (
    "lp.solves",
    "lp.cache_hits",
    "lp.filter_hits",
    "lp.filter_fallbacks",
    "arrangement.dfs_nodes",
    "arrangement.faces",
    "evaluator.evaluations",
    "evaluator.memo_hits",
    "evaluator.fixpoint_stages",
    "store.hits",
    "store.misses",
)


class PlanNode:
    """One node of an EXPLAIN plan tree."""

    __slots__ = ("op", "label", "detail", "children", "cost")

    def __init__(
        self,
        op: str,
        label: str,
        detail: dict[str, Any] | None = None,
    ) -> None:
        #: Node kind — the AST class name, or a synthetic ``query`` /
        #: ``setup`` / ``other`` / ``stratum`` / ``rule`` marker.
        self.op = op
        #: Short human rendering ("∃x : ℝ", "lfp M(R, Rp)", …).
        self.label = label
        #: Static annotations (relations needed, predictions, arity…).
        self.detail: dict[str, Any] = detail or {}
        self.children: list[PlanNode] = []
        #: Measured cost, attached by EXPLAIN ANALYZE (``None`` before).
        self.cost: dict[str, Any] | None = None

    def walk(self) -> Iterator["PlanNode"]:
        """This node and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        node: dict[str, Any] = {"op": self.op, "label": self.label}
        if self.detail:
            node["detail"] = dict(self.detail)
        if self.cost is not None:
            node["cost"] = self.cost
        node["children"] = [child.to_dict() for child in self.children]
        return node

    def format(self, indent: int = 0) -> str:
        """Human-readable plan rendering (the ``repro explain`` output)."""
        pad = "  " * indent
        parts = [f"{pad}{self.label}"]
        # Optimizer decisions render as their own trailing lines (see
        # below); everything else stays in the bracketed detail list.
        detail = {
            key: value
            for key, value in self.detail.items()
            if key not in ("chosen", "because")
        }
        if detail:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(detail.items())
            )
            parts.append(f"  [{rendered}]")
        if self.cost is not None:
            bits = [f"wall_ms={self.cost['wall_ms']}"]
            if self.cost.get("self_wall_ms") != self.cost.get("wall_ms"):
                bits.append(f"self_ms={self.cost['self_wall_ms']}")
            calls = self.cost.get("calls", 0)
            if calls > 1:
                bits.append(f"calls={calls}")
            memo = self.cost.get("memo_hits", 0)
            if memo:
                bits.append(f"memo_hits={memo}")
            for name, value in self.cost.get("self_counters", {}).items():
                if value:
                    bits.append(f"{name}={value}")
            stages = self.cost.get("stages")
            if stages:
                bits.append(f"stages={len(stages)}")
            parts.append("  (" + " ".join(bits) + ")")
        lines = ["".join(parts)]
        if "chosen" in self.detail:
            lines.append(f"{pad}  chosen: {self.detail['chosen']}")
        if "because" in self.detail:
            lines.append(f"{pad}  because: {self.detail['because']}")
        lines.extend(child.format(indent + 1) for child in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanNode({self.op!r}, {self.label!r})"


class NodeProfiler:
    """Attributes wall time and counter deltas to evaluator nodes.

    Installed as ``Evaluator.profiler`` during EXPLAIN ANALYZE; the
    evaluator brackets every non-memoised dispatch with :meth:`enter` /
    :meth:`exit` and reports memo hits.  Nodes are keyed by formula
    object identity (the plan tree keeps the formula alive, so ids are
    stable), which avoids double-charging structurally equal subtrees
    that share one memoised evaluation.

    ``self`` (exclusive) numbers subtract everything attributed to
    nested frames, so summing ``self`` over all nodes reproduces the
    totals of the bracketed region exactly (for counters) or up to
    clock granularity (for wall time).
    """

    def __init__(
        self,
        counters: tuple[str, ...] = PROFILE_COUNTERS,
        registry=None,
    ) -> None:
        self.counters = tuple(counters)
        self._registry = registry if registry is not None else get_registry()
        # Frame: [node_id, start, snapshot, child_wall, child_counts]
        self._stack: list[list] = []
        #: ``id(formula) -> stats dict`` accumulated across calls.
        self.stats: dict[int, dict[str, Any]] = {}

    def _snap(self) -> list[int]:
        registry = self._registry
        return [registry.get(name) for name in self.counters]

    def _node(self, formula: ast.RegFormula) -> dict[str, Any]:
        node = self.stats.get(id(formula))
        if node is None:
            zero = [0] * len(self.counters)
            node = {
                "calls": 0,
                "memo_hits": 0,
                "wall_s": 0.0,
                "self_wall_s": 0.0,
                "counters": list(zero),
                "self_counters": list(zero),
            }
            self.stats[id(formula)] = node
        return node

    def enter(self, formula: ast.RegFormula) -> None:
        self._stack.append(
            [
                id(formula),
                time.perf_counter(),
                self._snap(),
                0.0,
                [0] * len(self.counters),
            ]
        )

    def exit(self, formula: ast.RegFormula) -> None:
        frame = self._stack.pop()
        wall = time.perf_counter() - frame[1]
        after = self._snap()
        inclusive = [b - a for a, b in zip(frame[2], after)]
        node = self._node(formula)
        node["calls"] += 1
        node["wall_s"] += wall
        node["self_wall_s"] += wall - frame[3]
        node["counters"] = [
            c + d for c, d in zip(node["counters"], inclusive)
        ]
        node["self_counters"] = [
            c + d - k
            for c, d, k in zip(node["self_counters"], inclusive, frame[4])
        ]
        if self._stack:
            parent = self._stack[-1]
            parent[3] += wall
            parent[4] = [c + d for c, d in zip(parent[4], inclusive)]

    def memo_hit(self, formula: ast.RegFormula) -> None:
        self._node(formula)["memo_hits"] += 1


def _cost_block(
    wall_s: float,
    self_wall_s: float,
    counters: dict[str, int],
    self_counters: dict[str, int],
    calls: int = 1,
    memo_hits: int = 0,
) -> dict[str, Any]:
    return {
        "calls": calls,
        "memo_hits": memo_hits,
        "wall_ms": round(wall_s * 1000.0, 3),
        "self_wall_ms": round(self_wall_s * 1000.0, 3),
        "counters": {k: v for k, v in counters.items() if v},
        "self_counters": {k: v for k, v in self_counters.items() if v},
    }


def plan_cost_totals(plan: dict) -> dict[str, Any]:
    """Sum per-node *self* costs over a serialized plan tree.

    Operates on the :meth:`PlanNode.to_dict` shape — the form stored in
    slow-query log records — and returns ``{"self_wall_ms",
    "self_counters"}`` aggregates over every node.  By the attribution
    contract in the module docstring (setup node + formula nodes +
    trailing ``other`` node) the counter sums equal the run's
    ``totals`` counters *exactly*, and the wall sum matches
    ``totals["wall_ms"]`` up to per-node rounding.  The slow-query-log
    tests assert this invariant on every captured record.
    """
    wall = 0.0
    counters: dict[str, int] = {}
    pending = [plan]
    while pending:
        node = pending.pop()
        cost = node.get("cost")
        if cost:
            wall += float(cost.get("self_wall_ms", 0.0))
            for name, value in (cost.get("self_counters") or {}).items():
                counters[name] = counters.get(name, 0) + int(value)
        pending.extend(node.get("children", ()))
    return {
        "self_wall_ms": round(wall, 3),
        "self_counters": counters,
    }


# ----------------------------------------------------------------------
# Plan compilation (the static half of EXPLAIN)
# ----------------------------------------------------------------------
def _node_label(formula: ast.RegFormula) -> str:
    if isinstance(formula, ast.ExistsElem):
        return f"∃{formula.variable} : ℝ"
    if isinstance(formula, ast.ForallElem):
        return f"∀{formula.variable} : ℝ"
    if isinstance(formula, ast.ExistsRegion):
        return f"∃{formula.variable} : Reg"
    if isinstance(formula, ast.ForallRegion):
        return f"∀{formula.variable} : Reg"
    if isinstance(formula, ast.RNot):
        return "¬"
    if isinstance(formula, ast.RAnd):
        return f"∧ ({len(formula.operands)} operands)"
    if isinstance(formula, ast.ROr):
        return f"∨ ({len(formula.operands)} operands)"
    if isinstance(formula, ast.Fixpoint):
        head = f"{formula.set_var}({', '.join(formula.bound_vars)})"
        return f"{formula.kind.value} {head}"
    if isinstance(formula, ast.TC):
        return f"tc ({', '.join(formula.left_vars)}) → " \
               f"({', '.join(formula.right_vars)})"
    if isinstance(formula, ast.DTC):
        return f"dtc ({', '.join(formula.left_vars)}) → " \
               f"({', '.join(formula.right_vars)})"
    if isinstance(formula, ast.RBit):
        return f"rbit {formula.element_var}"
    return str(formula)


def _node_detail(formula: ast.RegFormula) -> dict[str, Any]:
    detail: dict[str, Any] = {}
    if isinstance(formula, ast.RelationAtom):
        detail["relation"] = formula.name
    elif isinstance(formula, ast.SubsetAtom):
        detail["relation"] = formula.relation_name
    elif isinstance(formula, ast.Fixpoint):
        detail["kind"] = formula.kind.value
        detail["arity"] = len(formula.bound_vars)
        detail["operator"] = f"{formula.kind.value} {formula.set_var}"
    elif isinstance(formula, (ast.TC, ast.DTC)):
        detail["arity"] = len(formula.left_vars)
    return detail


def _children_of(formula: ast.RegFormula) -> tuple[ast.RegFormula, ...]:
    if isinstance(formula, (ast.RAnd, ast.ROr)):
        return formula.operands
    if isinstance(formula, ast.RNot):
        return (formula.operand,)
    if isinstance(
        formula,
        (
            ast.ExistsElem,
            ast.ForallElem,
            ast.ExistsRegion,
            ast.ForallRegion,
            ast.Fixpoint,
            ast.TC,
            ast.DTC,
            ast.RBit,
        ),
    ):
        return (formula.body,)
    return ()


def _compile_formula(
    formula: ast.RegFormula,
    index: dict[int, PlanNode],
) -> PlanNode:
    node = PlanNode(
        type(formula).__name__,
        _node_label(formula),
        _node_detail(formula),
    )
    index.setdefault(id(formula), node)
    for child in _children_of(formula):
        node.children.append(_compile_formula(child, index))
    return node


def _relations_needed(formula: ast.RegFormula) -> list[str]:
    names: set[str] = set()

    def walk(node: ast.RegFormula) -> None:
        if isinstance(node, ast.RelationAtom):
            names.add(node.name)
        elif isinstance(node, ast.SubsetAtom):
            names.add(node.relation_name)
        for child in _children_of(node):
            walk(child)

    walk(formula)
    return sorted(names)


def _predict_setup(engine: "QueryEngine") -> dict[str, str]:
    """Predicted source of the region extension and its arrangement.

    Resolution mirrors the engine's own lookup order — engine memory,
    engine cache, disk store, fresh build — but uses only non-mutating
    peeks, so running the query afterwards sees exactly the state the
    prediction saw.
    """
    prediction: dict[str, str] = {}
    if engine._extension is not None:
        prediction["extension"] = "memory"
    elif engine.cache.peek_extension(
        engine.database, engine.decomposition, engine.spatial_name
    ):
        prediction["extension"] = "engine-cache"
    else:
        prediction["extension"] = "build"
    try:
        relation = engine.database.relation(engine.spatial_name)
    except Exception:
        prediction["arrangement"] = "n/a"
        return prediction
    if prediction["extension"] != "build":
        prediction["arrangement"] = prediction["extension"]
        return prediction
    if engine.cache.peek_arrangement(relation):
        prediction["arrangement"] = "engine-cache"
        return prediction
    disk = engine._store()
    if disk is not None and engine.decomposition == "arrangement":
        from repro import store as store_pkg
        from repro.arrangement.hyperplanes import hyperplanes_of_relation

        planes = hyperplanes_of_relation(relation)
        key = store_pkg.arrangement_key(planes, relation.arity, relation)
        if disk.entry_path("arrangement", key).exists():
            prediction["arrangement"] = "store"
            return prediction
    prediction["arrangement"] = "build"
    return prediction


def _predict_result(engine: "QueryEngine", formula: ast.RegFormula) -> str:
    """Predicted source of the whole-query answer relation."""
    evaluator = engine._evaluator
    if evaluator is not None and \
            evaluator._memo_key(formula, {}, {}) in evaluator._memo:
        return "memory"
    return "compute"


def compile_plan(
    engine: "QueryEngine",
    formula: ast.RegFormula,
) -> tuple[PlanNode, dict[int, PlanNode]]:
    """The static plan tree plus the ``id(formula) -> PlanNode`` index.

    The root is a synthetic ``query`` node with two children: a
    ``setup`` node standing for the Theorem-3.1 construction (region
    extension + arrangement, with predicted sources) and the formula's
    own operator tree.
    """
    language = classify_language(formula)
    index: dict[int, PlanNode] = {}
    root = PlanNode(
        "query",
        f"Query [{language}]",
        {
            "language": language,
            "relations": _relations_needed(formula),
            "result": _predict_result(engine, formula),
        },
    )
    setup = PlanNode(
        "setup",
        "Setup: region extension",
        {
            "decomposition": engine.decomposition,
            "spatial": engine.spatial_name,
            **_predict_setup(engine),
        },
    )
    root.children.append(setup)
    root.children.append(_compile_formula(formula, index))
    return root, index


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class ExplainResult:
    """Outcome of EXPLAIN (ANALYZE): the plan plus the run's record."""

    def __init__(
        self,
        query: str,
        language: str,
        plan: PlanNode,
        analyzed: bool,
        totals: dict[str, Any] | None = None,
        answer=None,
        trace: Span | None = None,
        events: list[dict] | None = None,
    ) -> None:
        #: Structural rendering of the query (or the datalog program).
        self.query = query
        self.language = language
        self.plan = plan
        self.analyzed = analyzed
        #: Run totals (``wall_ms`` + counter deltas); ``None`` unless
        #: analyzed.  The per-node ``self`` values sum to these exactly
        #: for counters (the ``other`` node absorbs any remainder).
        self.totals = totals
        #: The answer relation (or datalog outcome) of the analyzed run.
        self.answer = answer
        #: The live span tree of the analyzed run.
        self.trace = trace
        #: The journal events of the analyzed run.
        self.events = events

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "query": self.query,
            "language": self.language,
            "analyzed": self.analyzed,
            "plan": self.plan.to_dict(),
        }
        if self.totals is not None:
            payload["totals"] = self.totals
        return payload

    def format(self) -> str:
        header = [f"EXPLAIN{' ANALYZE' if self.analyzed else ''}"]
        header.append(f"query: {self.query}")
        lines = header + [self.plan.format()]
        if self.totals is not None:
            counters = ", ".join(
                f"{name}={value}"
                for name, value in self.totals["counters"].items()
                if value
            )
            lines.append(
                f"totals: wall_ms={self.totals['wall_ms']}"
                + (f" {counters}" if counters else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExplainResult({self.language}, analyzed={self.analyzed})"
        )


def _snapshot(registry) -> dict[str, int]:
    return {name: registry.get(name) for name in PROFILE_COUNTERS}


def _delta(
    before: dict[str, int], after: dict[str, int]
) -> dict[str, int]:
    return {name: after[name] - before[name] for name in before}


def _attach_profile(
    plan: PlanNode,
    index: dict[int, PlanNode],
    profiler: NodeProfiler,
    wall: float,
    total_delta: dict[str, int],
    other_label: str,
    attributed: dict[str, int] | None = None,
    attributed_wall: float = 0.0,
) -> None:
    """Attach the profiler's per-node costs, then the remainder.

    Every indexed plan node the profiler saw gets its cost block.
    Whatever the frames did not bracket, beyond ``attributed`` /
    ``attributed_wall`` already charged elsewhere, lands on a synthetic
    trailing ``other`` child of ``plan``, so per-node self values sum
    to the run totals exactly.
    """
    attributed = dict(attributed or {})
    for node_id, plan_node in index.items():
        stats = profiler.stats.get(node_id)
        if stats is None:
            continue
        plan_node.cost = _cost_block(
            stats["wall_s"],
            stats["self_wall_s"],
            dict(zip(profiler.counters, stats["counters"])),
            dict(zip(profiler.counters, stats["self_counters"])),
            calls=stats["calls"],
            memo_hits=stats["memo_hits"],
        )
        for name, value in zip(profiler.counters, stats["self_counters"]):
            attributed[name] = attributed.get(name, 0) + value
        attributed_wall += stats["self_wall_s"]
    remainder = {
        name: total_delta[name] - attributed.get(name, 0)
        for name in total_delta
    }
    other_wall = max(0.0, wall - attributed_wall)
    other = PlanNode("other", other_label)
    other.cost = _cost_block(other_wall, other_wall, remainder, remainder)
    plan.children.append(other)


def _attach_stage_events(
    index: dict[int, PlanNode], events: list[dict]
) -> None:
    """Attach ``fixpoint.stage`` journal events to their fixpoint nodes."""
    by_operator: dict[str, list[dict]] = {}
    for event in events:
        if event["type"] == "fixpoint.stage":
            by_operator.setdefault(event["operator"], []).append(
                {
                    "stage": event["stage"],
                    "size": event["size"],
                    "delta": event["delta"],
                }
            )
    if not by_operator:
        return
    for node in index.values():
        operator = node.detail.get("operator")
        if operator in by_operator:
            if node.cost is None:
                node.cost = _cost_block(0.0, 0.0, {}, {}, calls=0)
            node.cost["stages"] = by_operator[operator]


def _attach_optimizer_decisions(
    plan: PlanNode,
    index: dict[int, PlanNode],
    outcome,
) -> None:
    """Surface ``chosen``/``because`` annotations on the plan tree.

    Rewrite decisions land on the plan node of the rewritten formula
    node they produced (the root when that node was itself replaced by
    a later rewrite).
    """
    for decision in outcome.decisions:
        node = index.get(id(decision.node), plan)
        if "chosen" in node.detail:
            node.detail["chosen"] += f"; {decision.chosen}"
            node.detail["because"] += f"; {decision.because}"
        else:
            node.detail["chosen"] = decision.chosen
            node.detail["because"] = decision.because


def _resolved_knobs(engine: "QueryEngine") -> dict[str, Any]:
    """The runtime knobs the engine runs under, each resolved
    explicit > environment > default."""
    from repro.config import resolve_executor
    from repro.geometry import fastlp

    return {
        "lp_mode": engine.lp_mode or fastlp.get_lp_mode(),
        "executor": resolve_executor(engine.config.executor),
    }


def explain_query(
    engine: "QueryEngine",
    formula: ast.RegFormula,
    analyze: bool = False,
) -> ExplainResult:
    """EXPLAIN (ANALYZE) one region-logic query against an engine.

    The static half never touches engine state; the analyzed half runs
    the query with the tracer and journal recording (starting its own
    collection only when none is active) and a :class:`NodeProfiler`
    installed on the engine's evaluator.
    """
    # The engine's (memoised) cost-based rewrite: EXPLAIN must compile
    # the exact plan objects evaluation will run so profiler frames and
    # plan nodes line up; ``outcome`` carries the recorded decisions.
    planned, outcome = engine.plan(formula)
    language = classify_language(planned)
    plan, index = compile_plan(engine, planned)
    plan.detail["optimizer"] = "on" if outcome is not None else "off"
    plan.detail.update(_resolved_knobs(engine))
    if outcome is not None:
        _attach_optimizer_decisions(plan, index, outcome)
    if not analyze:
        return ExplainResult(str(formula), language, plan, False)

    registry = get_registry()
    own_journal = not JOURNAL.enabled
    if own_journal:
        JOURNAL.start()
    own_trace = not TRACER.enabled
    if own_trace:
        TRACER.start("explain")
    start = time.perf_counter()
    before = _snapshot(registry)
    profiler = NodeProfiler()
    trace_root: Span | None = None
    try:
        setup_start = time.perf_counter()
        setup_before = _snapshot(registry)
        engine.extension  # force the Theorem-3.1 construction
        setup_wall = time.perf_counter() - setup_start
        setup_delta = _delta(setup_before, _snapshot(registry))

        evaluator = engine.evaluator
        previous = evaluator.profiler
        evaluator.profiler = profiler
        try:
            answer = engine.evaluate(formula)
        finally:
            evaluator.profiler = previous
    finally:
        if own_trace:
            trace_root = TRACER.stop()
        events = JOURNAL.stop() if own_journal else JOURNAL.events()
    wall = time.perf_counter() - start
    total_delta = _delta(before, _snapshot(registry))

    # Attach measured costs: setup, then every evaluated formula node;
    # what the frames did not bracket (parsing, result post-processing)
    # goes to the trailing ``other`` node.
    plan.children[0].cost = _cost_block(
        setup_wall, setup_wall, dict(setup_delta), dict(setup_delta)
    )
    _attach_profile(
        plan, index, profiler, wall, total_delta,
        "Other: bookkeeping / answer post-processing",
        attributed=setup_delta, attributed_wall=setup_wall,
    )
    _attach_stage_events(index, events)
    plan.cost = _cost_block(wall, 0.0, dict(total_delta), {})

    totals = {
        "wall_ms": round(wall * 1000.0, 3),
        "counters": {k: v for k, v in total_delta.items() if v},
    }
    return ExplainResult(
        str(formula),
        language,
        plan,
        True,
        totals=totals,
        answer=answer,
        trace=trace_root,
        events=events,
    )


# ----------------------------------------------------------------------
# Datalog programs
# ----------------------------------------------------------------------
def _ir_plan_node(ir_node, index: dict[int, PlanNode]) -> PlanNode:
    """Mirror one IR subtree as plan nodes, indexed by IR object id.

    The profiler keys its frames by node object identity, so rendering
    the *same* node objects the executor runs lets measured costs attach
    to the exact plan lines the user sees.
    """
    plan = PlanNode(f"ir.{ir_node.op}", ir_node.describe())
    index[id(ir_node)] = plan
    for child in ir_node.children:
        plan.children.append(_ir_plan_node(child, index))
    return plan


def explain_datalog(
    program,
    database,
    analyze: bool = False,
    strategy: str = "seminaive",
    max_stages: int = 25,
    executor: str | None = None,
    optimizer: str | None = None,
) -> ExplainResult:
    """EXPLAIN (ANALYZE) a spatial datalog program.

    Under the interpreted executor the plan is one node per stratum
    with one child per rule.  Under the compiled executor (the
    semi-naive default) each stratum instead shows its relational-
    algebra IR plans — the stage-1 combiner, the delta-bound stage-≥2
    combiner and the accumulate combiner per predicate — rendered from
    :func:`repro.datalog.compile.compile_program`.  ANALYZE runs the
    program under the journal and, when compiled, installs a
    :class:`NodeProfiler` on the IR executor so every plan node carries
    measured wall time and counter deltas whose ``self`` components sum
    to the run totals exactly (the PR-5 invariant); per-stage delta
    disjunct counts (``datalog.stage`` events) attach to the strata.
    """
    from repro.config import resolve_executor, resolve_optimizer

    resolved = (
        resolve_executor(executor)
        if strategy == "seminaive"
        else "interpreted"
    )
    # Reorder rule bodies up front (idempotent — evaluate_program
    # re-applies the same deterministic rewrite) so the compiled plans
    # below mirror exactly what executes.
    optimizer_mode = resolve_optimizer(optimizer)
    if optimizer_mode == "on":
        from repro.optimizer.rewrite import order_program

        program = order_program(program)
    strata = program.strata()
    compiled_strata = None
    ir_index: dict[int, PlanNode] = {}
    root = PlanNode(
        "program",
        f"Program [{strategy}/{resolved}]",
        {
            "strategy": strategy,
            "executor": resolved,
            "optimizer": optimizer_mode,
            "strata": len(strata),
            "rules": len(program.rules),
        },
    )
    if resolved == "compiled":
        from repro.datalog.compile import compile_program

        compiled_strata = compile_program(program, database)
    stratum_nodes: list[PlanNode] = []
    for position, stratum in enumerate(strata):
        node = PlanNode(
            "stratum",
            f"Stratum {position}: {', '.join(stratum)}",
            {"predicates": list(stratum)},
        )
        if compiled_strata is not None:
            compiled = compiled_strata[position]
            for predicate in stratum:
                for role, plan_ir in (
                    ("stage 1", compiled.stage_one[predicate]),
                    ("stage ≥2", compiled.stage_next[predicate]),
                    ("accumulate", compiled.accumulate[predicate]),
                ):
                    wrapper = PlanNode(
                        "plan",
                        f"{predicate} [{role}]",
                        {"predicate": predicate, "role": role},
                    )
                    wrapper.children.append(
                        _ir_plan_node(plan_ir, ir_index)
                    )
                    node.children.append(wrapper)
        else:
            for rule in program.rules:
                if rule.head.predicate in stratum:
                    node.children.append(PlanNode("rule", str(rule)))
        stratum_nodes.append(node)
        root.children.append(node)
    if not analyze:
        return ExplainResult(str(program), "datalog", root, False)

    from repro.datalog.engine import evaluate_program

    registry = get_registry()
    own_journal = not JOURNAL.enabled
    if own_journal:
        JOURNAL.start()
    start = time.perf_counter()
    before = _snapshot(registry)
    profiler = NodeProfiler() if compiled_strata is not None else None
    try:
        if compiled_strata is not None:
            from repro.datalog.compile import evaluate_program_compiled

            outcome = evaluate_program_compiled(
                program,
                database,
                max_stages=max_stages,
                profiler=profiler,
                compiled_strata=compiled_strata,
            )
        else:
            outcome = evaluate_program(
                program,
                database,
                max_stages=max_stages,
                strategy=strategy,
                executor=resolved,
            )
    finally:
        events = JOURNAL.stop() if own_journal else JOURNAL.events()
    wall = time.perf_counter() - start
    total_delta = _delta(before, _snapshot(registry))

    if profiler is not None:
        # Stratum compilation, delta bookkeeping and convergence checks
        # go to the trailing ``other`` node.
        _attach_profile(
            root, ir_index, profiler, wall, total_delta,
            "Other: compilation / delta bookkeeping",
        )

    stage_events = [e for e in events if e["type"] == "datalog.stage"]
    for node in stratum_nodes:
        predicates = set(node.detail["predicates"])
        stages = [
            {
                "stage": event["stage"],
                "deltas": {
                    predicate: count
                    for predicate, count in event["deltas"].items()
                    if predicate in predicates
                },
            }
            for event in stage_events
            if predicates & set(event["deltas"])
        ]
        if stages:
            node.cost = _cost_block(0.0, 0.0, {}, {}, calls=0)
            node.cost["stages"] = stages
    # With a profiler the children (IR nodes + Other) carry all the
    # self costs; charging the root again would break the sums-to-
    # totals invariant.
    root_self = wall if profiler is None else 0.0
    root.cost = _cost_block(wall, root_self, dict(total_delta), {})
    totals = {
        "wall_ms": round(wall * 1000.0, 3),
        "stages": outcome.stages,
        "converged": outcome.converged,
        "counters": {k: v for k, v in total_delta.items() if v},
    }
    return ExplainResult(
        str(program),
        "datalog",
        root,
        True,
        totals=totals,
        answer=outcome,
        events=events,
    )
