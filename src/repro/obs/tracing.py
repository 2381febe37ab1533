"""Hierarchical tracing spans with near-zero overhead when disabled.

A :class:`Span` is a named node in a tree with a wall-clock duration, a
call count and numeric attributes; the tree mirrors the engine's call
structure (query → extension build → arrangement DFS → LP solves …).
The process-wide :class:`Tracer` is *disabled* by default: every
instrumentation site then costs one attribute check, so the hot paths
(sign-vector DFS, feasibility solves, evaluator dispatch) stay at full
speed — the E2 scaling benchmark guards this.

Aggregate spans keep the tree small on hot paths: entering a span with
``aggregate=True`` under the same parent merges repeated visits into a
single child whose ``calls`` / ``wall_s`` accumulate, so ten thousand
LP solves become one line of profile instead of ten thousand nodes.

Spans are thread-aware: each thread keeps its own open-span stack, and
the outermost span of a secondary thread (a ``ThreadPoolExecutor``
worker, say) is adopted into the collection's root under a lock, so
concurrent spans never corrupt the tree.

A span may carry a *key* other than its name: aggregation then merges
by key, so the evaluator and the IR executor keep one span per formula
or plan node (keyed by the node's ``id``), which is what EXPLAIN ANALYZE
reads its per-node costs from.  A collection (or a span) may name
counters of the process registry to attribute: every span under it then
carries its inclusive deltas of those counters as attributes.

When the structured event journal (:mod:`repro.obs.journal`) is
recording, every span open/close — the collection's root included — is
mirrored as a typed event.  One fold, :class:`SpanFold`, builds the
tree from those open/close steps, live and in :func:`replay`; a close
is journalled and folded under one lock, so a replay re-applies the
live adoptions in their order, on any number of threads.

Usage::

    from repro.obs import span, traced, TRACER

    TRACER.start("profile")
    with span("phase", items=3):
        ...
    root = TRACER.stop()
    print(json.dumps(root.to_dict()))

    @traced("arrangement.build")
    def build_arrangement(...): ...
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Iterable

from repro.obs.journal import JOURNAL, load_events
from repro.obs.metrics import get_registry


class Span:
    """One node of the trace tree."""

    __slots__ = (
        "name", "key", "calls", "wall_s", "attrs", "children", "_index",
        "_id", "_counters",
    )

    def __init__(self, name: str, key: Any = None, **attrs: Any) -> None:
        self.name = name
        #: What aggregate siblings merge by: the name unless given.
        self.key = name if key is None else key
        self.calls = 1
        self.wall_s = 0.0
        self.attrs: dict[str, Any] = dict(attrs)
        self.children: list[Span] = []
        # Aggregate children by key for O(1) merging.
        self._index: dict[Any, Span] = {}
        # Fold/journal id within its collection.
        self._id = 0
        # Registry counters whose deltas this span records.
        self._counters: tuple[str, ...] = ()

    def add(self, key: str, amount: Any = 1) -> None:
        """Accumulate a numeric attribute on this span."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def adopt(self, child: "Span", aggregate: bool) -> None:
        """Attach a finished child, merging when it is an aggregate."""
        if aggregate:
            existing = self._index.get(child.key)
            if existing is not None:
                existing.merge(child)
                return
            self._index[child.key] = child
        self.children.append(child)

    def merge(self, other: "Span") -> None:
        """Fold another span of the same key into this one."""
        self.calls += other.calls
        self.wall_s += other.wall_s
        for key, value in other.attrs.items():
            if isinstance(value, (int, float)):
                self.attrs[key] = self.attrs.get(key, 0) + value
            else:
                self.attrs[key] = value
        for child in other.children:
            self.adopt(child, True)

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``repro profile`` output)."""
        node: dict[str, Any] = {
            "name": self.name,
            "calls": self.calls,
            "wall_ms": round(self.wall_s * 1000.0, 3),
        }
        if self.attrs:
            node["attrs"] = {
                key: value for key, value in sorted(self.attrs.items())
            }
        node["children"] = [child.to_dict() for child in self.children]
        return node

    def format(self, indent: int = 0) -> str:
        """Human-readable tree rendering (the ``--trace`` CLI output)."""
        pad = "  " * indent
        extras = ""
        if self.calls > 1:
            extras += f" ×{self.calls}"
        if self.attrs:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(self.attrs.items())
            )
            extras += f" [{rendered}]"
        lines = [f"{pad}{self.name}: {self.wall_s * 1000.0:.2f} ms{extras}"]
        lines.extend(
            child.format(indent + 1) for child in self.children
        )
        return "\n".join(lines)

    def find(self, name: str) -> "Span | None":
        """Depth-first lookup of a descendant span by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, calls={self.calls}, "
            f"wall_s={self.wall_s:.6f}, children={len(self.children)})"
        )


class _NullSpan:
    """Absorbs span mutations when tracing is disabled."""

    __slots__ = ()

    def add(self, key: str, amount: Any = 1) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


#: Shared no-op context manager returned while tracing is off.
_NULL_CONTEXT = nullcontext(NULL_SPAN)


class SpanFold:
    """Builds span trees from open/close steps — the one tree builder.

    The live tracer drives it as spans open and close, :func:`replay`
    drives it from journal events: a closed span is adopted into its
    parent (merging when aggregate), or is a finished root when its
    parent is not open.
    """

    __slots__ = ("_open", "roots")

    def __init__(self) -> None:
        self._open: dict[int, tuple[Span, int | None, bool]] = {}
        #: Closed spans whose parent was not open, in close order.
        self.roots: list[Span] = []

    def open(self, span: Span, parent_id: int | None, aggregate: bool) -> None:
        self._open[span._id] = (span, parent_id, aggregate)

    def opened(self, span_id: int) -> Span | None:
        """The open span with this id (``None`` once closed)."""
        entry = self._open.get(span_id)
        return entry[0] if entry is not None else None

    def close(self, span_id: int) -> None:
        entry = self._open.pop(span_id, None)
        if entry is None:
            return  # opened before the journal's horizon
        span, parent_id, aggregate = entry
        parent = self._open.get(parent_id) if parent_id is not None else None
        if parent is not None:
            parent[0].adopt(span, aggregate)
        else:
            self.roots.append(span)

    def open_spans(self) -> list[Span]:
        return [entry[0] for entry in self._open.values()]


def _read(counters: tuple[str, ...]) -> list[int]:
    get = get_registry().get
    return [get(name) for name in counters]


class _SpanContext:
    """Context manager recording one span under the current parent.

    The parent is the innermost open span *of the current thread*, else
    the collection's root (``None`` for the root itself).  ``__exit__``
    always closes the span and never swallows exceptions, so a raising
    body still produces a complete (and correctly timed) node.
    """

    __slots__ = (
        "_tracer", "_span", "_aggregate", "_start", "_stack", "_fold",
        "_before",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        aggregate: bool,
        key: Any,
        counters: "Iterable[str] | None",
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._span = Span(name, key, **attrs)
        if counters is not None:
            self._span._counters = tuple(counters)
        self._aggregate = aggregate
        self._start = 0.0
        self._stack: list[Span] = []
        self._fold = tracer._fold
        self._before: list[int] = []

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._thread_stack()
        self._stack = stack
        parent = stack[-1] if stack else tracer._root
        span = self._span
        span._id = next(tracer._ids)
        parent_id = parent._id if parent is not None else None
        if not span._counters and parent is not None:
            span._counters = parent._counters
        if span._counters:
            self._before = _read(span._counters)
        if self._fold is not None:
            self._fold.open(span, parent_id, self._aggregate)
        if JOURNAL.enabled:
            JOURNAL.emit(
                "span.open",
                id=span._id,
                parent=parent_id,
                name=span.name,
                key=span.key,
                aggregate=self._aggregate,
                attrs=dict(span.attrs),
            )
        stack.append(span)
        self._start = time.perf_counter()
        return span

    def __exit__(self, *exc_info: object) -> bool:
        span = self._span
        span.wall_s += time.perf_counter() - self._start
        if span._counters:
            attrs = span.attrs
            for name, old, new in zip(
                span._counters, self._before, _read(span._counters)
            ):
                if new != old:
                    attrs[name] = attrs.get(name, 0) + new - old
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - defensive
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._tracer._lock:
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "span.close",
                    id=span._id,
                    wall_s=span.wall_s,
                    calls=span.calls,
                    attrs=dict(span.attrs),
                )
            if self._fold is not None:
                self._fold.close(span._id)
        return False


class Tracer:
    """The process-wide span collector.

    ``enabled`` is a plain attribute so instrumentation sites can guard
    with a single check; :meth:`span` returns a shared no-op context
    while disabled, so un-guarded ``with`` sites cost one allocation-free
    call.  Open-span stacks are per thread (an ``_epoch`` token retires
    every thread's stack when a collection starts or stops).
    """

    __slots__ = (
        "enabled", "_root", "_top", "_fold", "_local", "_lock", "_ids",
        "_epoch",
    )

    def __init__(self) -> None:
        self.enabled = False
        self._root: Span | None = None
        self._top: _SpanContext | None = None
        self._fold: SpanFold | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._epoch: object = object()

    def _thread_stack(self) -> list[Span]:
        """This thread's open-span stack for the current collection."""
        local = self._local
        if getattr(local, "epoch", None) is not self._epoch:
            local.epoch = self._epoch
            local.stack = []
        return local.stack

    def start(
        self, name: str = "trace", counters: Iterable[str] = ()
    ) -> "Tracer":
        """Begin collecting under a fresh root span.

        ``counters`` names registry counters to attribute: every span
        of the collection records its inclusive deltas of them as
        attributes.  Returns the tracer itself so
        ``with TRACER.start("x") as root:`` scopes a collection;
        :meth:`stop` (or leaving the ``with``) ends it and returns the
        finished tree.
        """
        self._epoch = object()
        self._root = None
        self._fold = SpanFold()
        self._top = _SpanContext(self, name, False, None, counters, {})
        self._root = self._top.__enter__()
        self.enabled = True
        return self

    def stop(self) -> Span:
        """End collection and return the finished root span."""
        if not self.enabled or self._top is None:
            raise RuntimeError("tracer is not started")
        self._top.__exit__(None, None, None)
        root = self._root
        self.hard_reset()
        return root

    def hard_reset(self) -> None:
        """Discard any collection in progress (no tree is returned).

        Used by :func:`repro.obs.reset_all` so back-to-back CLI
        invocations in one process cannot leak an open trace into each
        other; a no-op when nothing is being collected.
        """
        self.enabled = False
        self._root = None
        self._top = None
        self._fold = None
        self._epoch = object()

    def __enter__(self) -> Span:
        if not self.enabled:
            self.start()
        assert self._root is not None
        return self._root

    def __exit__(self, *exc_info: object) -> bool:
        if self.enabled:
            self.stop()
        return False

    def current(self) -> Span | _NullSpan:
        """The innermost open span of this thread (no-op when disabled).

        A thread with no open span of its own reports the collection's
        root, so counters attached via ``current().add`` from worker
        threads still land in the tree.
        """
        if self.enabled:
            stack = self._thread_stack()
            if stack:
                return stack[-1]
            if self._root is not None:
                return self._root
        return NULL_SPAN

    def span(
        self,
        name: str,
        aggregate: bool = False,
        key: Any = None,
        counters: "Iterable[str] | None" = None,
        **attrs: Any,
    ) -> "_SpanContext | nullcontext[_NullSpan]":
        """Open a child span under the current one (no-op when disabled).

        ``key`` replaces the name as what aggregate siblings merge by;
        ``counters`` makes this span and its descendants attribute
        those counters (by default a span inherits its parent's).
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, aggregate, key, counters, attrs)


#: The process-wide tracer (disabled by default).
TRACER = Tracer()


#: Module-level shortcut for ``TRACER.span``.
span = TRACER.span


def tracing_enabled() -> bool:
    return TRACER.enabled


def traced(
    name: str | None = None, aggregate: bool = True
) -> Callable[[Callable], Callable]:
    """Decorator: record a span around every call of the function.

    When tracing is disabled the wrapper is a single flag check, so it
    is safe on warm paths; genuinely hot inner loops should guard on
    ``TRACER.enabled`` instead.
    """

    def decorate(function: Callable) -> Callable:
        label = name if name is not None else function.__qualname__

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not TRACER.enabled:
                return function(*args, **kwargs)
            with _SpanContext(TRACER, label, aggregate, None, None, {}):
                return function(*args, **kwargs)

        wrapper.__name__ = function.__name__
        wrapper.__qualname__ = function.__qualname__
        wrapper.__doc__ = function.__doc__
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class ReplayResult:
    """Outcome of :func:`replay`: reconstructed span trees + the rest."""

    def __init__(
        self,
        roots: list[Span],
        open_spans: list[Span],
        events: list[dict],
    ) -> None:
        #: Completed trace roots (and orphaned spans), in close order.
        self.roots = roots
        #: Spans opened but never closed in the event stream.
        self.open_spans = open_spans
        #: The full event list the replay consumed.
        self.events = events

    @property
    def root(self) -> Span | None:
        """The last completed trace root (the usual single collection)."""
        return self.roots[-1] if self.roots else None

    def events_of_type(self, type_: str) -> list[dict]:
        return [event for event in self.events if event["type"] == type_]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayResult(roots={len(self.roots)}, "
            f"events={len(self.events)})"
        )


def replay(source: "str | Iterable[dict]") -> ReplayResult:
    """Reconstruct the span tree(s) recorded in a journal.

    ``source`` is a JSONL path or an iterable of event dicts.  The
    events drive the :class:`SpanFold` the tracer built the live tree
    with, in the order it folded them, so the result's
    :attr:`~ReplayResult.root` satisfies ``root.to_dict() ==
    live_root.to_dict()`` byte-for-byte — also when spans closed on
    several threads.
    """
    events = load_events(source) if isinstance(source, str) else list(source)
    fold = SpanFold()
    for event in events:
        if event["type"] == "span.open":
            span = Span(event["name"], event["key"])
            span._id = event["id"]
            span.attrs = dict(event["attrs"])
            fold.open(span, event["parent"], event["aggregate"])
        elif event["type"] == "span.close":
            span = fold.opened(event["id"])
            if span is not None:
                span.wall_s = event["wall_s"]
                span.calls = event["calls"]
                span.attrs = dict(event["attrs"])
                fold.close(event["id"])
    return ReplayResult(fold.roots, fold.open_spans(), events)
