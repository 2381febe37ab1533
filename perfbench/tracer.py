"""Per-layer span tracing installed from outside the program.

The benchmark never edits ``src/``: it wraps the public functions of each
layer where they are looked up.  A function imported with ``from m import
f`` is bound in the importing module too, so :meth:`Tracer.install`
replaces every binding of the original object in every loaded ``repro``
module, not only the defining one.

Spans nest through a :class:`contextvars.ContextVar`, so they follow
``asyncio.to_thread`` into worker threads.  A span's *self* time is its
duration minus the durations of its direct children; summing self time
over every span of one op gives back the op's root span duration, which
:meth:`Tracer.check_ops` asserts.  Only per-op aggregates
(``{op: {layer: [calls, self_s]}}``) are kept in memory, because the LP
layer alone opens thousands of spans per op.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager

#: (layer, module, attribute path) of every wrapped public function.  The
#: attribute path is ``name`` for a module function, ``Class.name`` for a
#: method.  ``simplex._solve_component`` and
#: ``IncrementalArrangement.to_arrangement`` are the exact sites of the
#: ``lp.solves + lp.cache_hits`` and ``arrangement.builds`` counters; they
#: are wrapped so the coverage check compares like with like.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("service", "repro.server.service", "ConstraintService.handle"),
    ("pool", "repro.server.pool", "EnginePool.checkout"),
    ("pool", "repro.server.pool", "EnginePool.checkin"),
    ("admission", "repro.server.quota", "AdmissionController.admit"),
    ("engine", "repro.engine", "QueryEngine.evaluate"),
    ("engine", "repro.engine", "EngineCache.extension"),
    ("engine", "repro.engine", "EngineCache.arrangement"),
    ("optimizer", "repro.optimizer.rewrite", "rewrite_query"),
    ("evaluator", "repro.logic.evaluator", "Evaluator.evaluate"),
    ("evaluator", "repro.logic.evaluator", "Evaluator.fixpoint_run"),
    ("tc", "repro.logic.transitive_closure", "transitive_closure"),
    ("tc", "repro.logic.transitive_closure",
     "deterministic_transitive_closure"),
    ("datalog", "repro.datalog.engine", "evaluate_program"),
    ("ir", "repro.ir.kernels", "KernelCache.feasibility"),
    ("ir", "repro.ir.kernels", "KernelCache.reduce_disjunct"),
    ("ir", "repro.ir.kernels", "KernelCache.subsumes"),
    ("ir", "repro.ir.kernels", "KernelCache.enumerate_cells"),
    ("simplify", "repro.constraints.simplify", "minimise_dnf"),
    ("simplify", "repro.constraints.simplify", "prune_disjuncts"),
    ("simplify", "repro.constraints.simplify", "to_dnf_pruned"),
    ("simplify", "repro.constraints.simplify", "negate_dnf"),
    ("simplify", "repro.constraints.simplify", "cell_complement"),
    ("fm", "repro.geometry.fourier_motzkin", "eliminate_variables"),
    ("lp", "repro.geometry.simplex", "feasible"),
    ("lp", "repro.geometry.simplex", "strict_feasible_point"),
    ("lp", "repro.geometry.simplex", "_solve_component"),
    ("lp", "repro.geometry.fastlp", "try_certified"),
    ("lp.optimize", "repro.geometry.simplex", "solve_lp"),
    ("arrangement", "repro.arrangement.builder", "build_arrangement"),
    ("regions", "repro.regions.ordering", "sort_regions"),
    ("regions", "repro.regions.arrangement_regions",
     "ArrangementDecomposition.__init__"),
    ("extension", "repro.twosorted.structure", "RegionExtension.build"),
    ("incremental", "repro.engine", "QueryEngine.apply_delta"),
    ("incremental", "repro.incremental.arrangements",
     "MaintainedArrangements.update"),
    ("incremental", "repro.incremental.lineage", "LineageLog.record"),
    ("incremental", "repro.arrangement.incremental",
     "IncrementalArrangement.to_arrangement"),
    ("store", "repro.store.disk", "DiskStore.load"),
    ("store", "repro.store.disk", "DiskStore.save"),
    ("store", "repro.store.codec", "dumps"),
    ("store", "repro.store.codec", "loads"),
)

#: Every layer a ledger reports, in request-path order.  ``http`` is
#: client latency minus ``ConstraintService.handle`` (computed, not
#: wrapped); ``other`` is op time outside every wrapped call.
LAYERS: tuple[str, ...] = (
    "http", "service", "pool", "admission", "engine", "optimizer",
    "evaluator", "tc", "datalog", "ir", "simplify", "fm", "lp",
    "lp.optimize", "arrangement", "regions", "extension", "incremental",
    "store", "other",
)


def target_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class _Span:
    __slots__ = ("layer", "op", "start", "children")

    def __init__(self, layer: str, op, start: float) -> None:
        self.layer = layer
        self.op = op
        self.start = start
        self.children = 0.0


def import_all_repro_modules() -> None:
    """Import every ``repro`` submodule so all bindings can be found."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Tracer:
    """Wraps the :data:`TARGETS` and keeps per-op layer ledgers."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        #: op id -> {layer: [calls, self_s]}
        self.ledger: dict = {}
        #: op id -> root span duration (the op's wall time)
        self.op_wall: dict = {}
        #: target name -> calls
        self.calls: dict[str, int] = {}
        #: op id -> counts observed by post-hooks (``regions.count``)
        self.op_extra: dict = {}
        #: handle calls whose op id differed from the service's request id
        self.id_mismatches = 0
        #: (owner, attribute, original raw object) of every patch
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, layer: str, op=None) -> tuple:
        parent = self._current.get()
        if op is None and parent is not None:
            op = parent.op
        span = _Span(layer, op, time.perf_counter())
        token = self._current.set(span)
        return span, parent, token

    def _exit(self, span: _Span, parent, token) -> float:
        duration = time.perf_counter() - span.start
        self._current.reset(token)
        with self._lock:
            if parent is not None:
                parent.children += duration
            layers = self.ledger.setdefault(span.op, {})
            slot = layers.get(span.layer)
            if slot is None:
                layers[span.layer] = [1, duration - span.children]
            else:
                slot[0] += 1
                slot[1] += duration - span.children
        return duration

    @contextmanager
    def op(self, op_id):
        """A root span for one op; its self time is the op's ``other``."""
        span, parent, token = self._enter("other", op_id)
        try:
            yield span
        finally:
            duration = self._exit(span, parent, token)
            with self._lock:
                self.op_wall[op_id] = duration

    def current_op(self):
        span = self._current.get()
        return None if span is None else span.op

    def _count(self, name: str) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, function):
        tracer = self

        if name.endswith("ConstraintService.handle"):
            # The request's root span: its op id is the service's own
            # request id, which it assigns synchronously on entry.
            sequence = iter(range(1, sys.maxsize))

            @functools.wraps(function)
            async def handle(*args, **kwargs):
                tracer._count(name)
                op_id = f"req-{next(sequence):08d}"
                span, parent, token = tracer._enter(layer, op_id)
                try:
                    response = await function(*args, **kwargs)
                finally:
                    duration = tracer._exit(span, parent, token)
                    with tracer._lock:
                        tracer.op_wall[op_id] = duration
                payload = getattr(response, "payload", None)
                if isinstance(payload, dict) and "request_id" in payload:
                    if payload["request_id"] != op_id:
                        with tracer._lock:
                            tracer.id_mismatches += 1
                return response

            return handle

        if name.endswith("AdmissionController.admit"):
            # An async context manager: the span covers __aenter__ only,
            # i.e. the wait until the request is admitted.
            @functools.wraps(function)
            def admit(*args, **kwargs):
                return _TimedEnter(tracer, layer, name,
                                   function(*args, **kwargs))

            return admit

        if inspect.iscoroutinefunction(function):  # pragma: no cover
            raise TypeError(f"no async wrapper for {name}")

        post = None
        if name.endswith("RegionExtension.build"):
            def post(result):
                tracer._add_extra("regions.count", len(result.regions))

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer._count(name)
            span, parent, token = tracer._enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(span, parent, token)
            if post is not None:
                post(result)
            return result

        return wrapper

    def _add_extra(self, key: str, amount: float) -> None:
        op = self.current_op()
        with self._lock:
            extra = self.op_extra.setdefault(op, {})
            extra[key] = extra.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target at every binding; a second call is a no-op."""
        if self._patches:
            return
        import_all_repro_modules()
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "repro" or key.startswith("repro.")
        ]
        for layer, module_name, path in TARGETS:
            name = target_name(module_name, path)
            module = importlib.import_module(module_name)
            owner_path, __, attribute = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                raw = owner.__dict__[attribute]
                function = (
                    raw.__func__
                    if isinstance(raw, (staticmethod, classmethod))
                    else raw
                )
                wrapped = self._wrap(layer, name, function)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patch(owner, attribute, raw, wrapped)
                self._originals[name] = raw
                continue
            raw = getattr(module, attribute)
            wrapped = self._wrap(layer, name, raw)
            self._originals[name] = raw
            for candidate in modules:
                namespace = vars(candidate)
                for key, value in list(namespace.items()):
                    if value is raw:
                        self._patch(candidate, key, raw, wrapped)

    def _patch(self, owner, attribute: str, raw, wrapped) -> None:
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Restore every original binding; a second call is a no-op."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def restored(self) -> bool:
        """Whether every target is bound to its original object again."""
        for layer, module_name, path in TARGETS:
            name = target_name(module_name, path)
            original = self._originals.get(name)
            if original is None:
                continue
            module = sys.modules[module_name]
            owner_path, __, attribute = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                if owner.__dict__[attribute] is not original:
                    return False
            elif getattr(module, attribute) is not original:
                return False
        return True

    # ------------------------------------------------------------------
    # Checks and summaries
    # ------------------------------------------------------------------
    def check_ops(self, ops=None) -> list[str]:
        """Ops whose Σ layer self time differs from their wall time."""
        bad = []
        for op_id in (self.op_wall if ops is None else ops):
            wall = self.op_wall.get(op_id)
            layers = self.ledger.get(op_id, {})
            total = sum(slot[1] for slot in layers.values())
            if wall is None or abs(total - wall) > 1e-6 + 1e-9 * wall:
                bad.append(str(op_id))
        return bad

    def layer_totals(self, ops) -> dict[str, list]:
        totals: dict[str, list] = {}
        for op_id in ops:
            for layer, (calls, self_s) in self.ledger.get(op_id, {}).items():
                slot = totals.setdefault(layer, [0, 0.0])
                slot[0] += calls
                slot[1] += self_s
        return totals

    def extra_totals(self, ops) -> dict[str, float]:
        totals: dict[str, float] = {}
        for op_id in ops:
            for key, amount in self.op_extra.get(op_id, {}).items():
                totals[key] = totals.get(key, 0) + amount
        return totals

    def calls_of(self, module: str, path: str) -> int:
        return self.calls.get(target_name(module, path), 0)


class _TimedEnter:
    """Async context manager proxy timing only the inner ``__aenter__``."""

    def __init__(self, tracer: Tracer, layer: str, name: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._inner = inner

    async def __aenter__(self):
        self._tracer._count(self._name)
        span, parent, token = self._tracer._enter(self._layer)
        try:
            return await self._inner.__aenter__()
        finally:
            self._tracer._exit(span, parent, token)

    async def __aexit__(self, *exc_info):
        return await self._inner.__aexit__(*exc_info)


def coverage_problems(tracer: Tracer, before: dict, after: dict) -> list[str]:
    """Wrapper call counts that disagree with the registry counters."""

    def delta(name: str) -> int:
        return int(after.get(name, 0)) - int(before.get(name, 0))

    checks = (
        (
            "lp: _solve_component calls == Δlp.solves + Δlp.cache_hits",
            tracer.calls_of("repro.geometry.simplex", "_solve_component"),
            delta("lp.solves") + delta("lp.cache_hits"),
        ),
        (
            "arrangement: build_arrangement + to_arrangement calls == "
            "Δarrangement.builds",
            tracer.calls_of("repro.arrangement.builder", "build_arrangement")
            + tracer.calls_of("repro.arrangement.incremental",
                              "IncrementalArrangement.to_arrangement"),
            delta("arrangement.builds"),
        ),
        (
            "store: DiskStore.save calls == Δstore.writes",
            tracer.calls_of("repro.store.disk", "DiskStore.save"),
            delta("store.writes"),
        ),
    )
    problems = [
        f"{label}: {wrapped} != {counted}"
        for label, wrapped, counted in checks
        if wrapped != counted
    ]
    if tracer.id_mismatches:
        problems.append(
            f"service request ids mismatched {tracer.id_mismatches} times"
        )
    return problems
