"""The query engine: unified entry point and cross-query caching.

The arrangement A(S) — the PTIME bottleneck of Theorem 3.1 — used to be
rebuilt from scratch for every query against the same database.  This
module adds the missing layer between the logic and the geometry:

* **fingerprints** — a canonical SHA-256 digest of a database (relation
  names, schemas and the structural rendering of their defining
  formulas).  Two databases with structurally equal content share a
  fingerprint regardless of object identity; renaming a relation or
  changing any constraint changes it.
* :class:`EngineCache` — a bounded LRU cache of arrangements and
  :meth:`RegionExtension.build <repro.twosorted.structure.\
  RegionExtension.build>` results keyed by those fingerprints, with
  hit/miss/invalidation counters in the process metrics registry.
* :class:`QueryEngine` — the façade the rest of the library (CLI,
  server, benchmarks) routes through::

      engine = QueryEngine(db)
      answer = engine.evaluate("S(x) & x < 1")
      assert engine.truth("exists x. S(x)")

All caching is safe because :class:`ConstraintDatabase`,
:class:`ConstraintRelation` and the formula AST are immutable; explicit
invalidation (:meth:`EngineCache.invalidate`) exists for long-running
processes that want to bound memory, not for correctness.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.constraints.relation import ConstraintRelation
from repro.arrangement.builder import Arrangement, build_arrangement
from repro.geometry import fastlp
from repro.geometry.hyperplane import Hyperplane
from repro.logic import ast
from repro.logic.evaluator import Evaluator
from repro.obs.journal import JOURNAL
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.telemetry import get_telemetry
from repro.obs.tracing import TRACER
from repro.twosorted.structure import RegionExtension
from repro import store as store_pkg
from repro.store.disk import DiskStore


def relation_fingerprint(relation: ConstraintRelation) -> str:
    """Canonical digest of one relation (schema + structural formula).

    Delegates to :meth:`ConstraintRelation.fingerprint`, which memoises
    the digest on the relation — engine caches and the disk store look
    relations up far more often than they build them.
    """
    return relation.fingerprint()


def database_fingerprint(database: ConstraintDatabase) -> str:
    """Canonical digest of a whole database.

    Relations are visited in their stored (sorted-by-name) order, so the
    digest is independent of construction order; it changes whenever a
    relation is renamed, added, dropped, or its defining formula differs
    structurally.  Cached on the (immutable) database object.
    """
    cached = database.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for name, relation in database:
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(relation_fingerprint(relation).encode())
        digest.update(b"\x01")
    fingerprint = digest.hexdigest()
    object.__setattr__(database, "_fingerprint", fingerprint)
    return fingerprint


#: In-memory LRU capacity of an :class:`EngineCache` (entries per map).
DEFAULT_CACHE_CAPACITY = 64


class EngineCache:
    """Bounded LRU cache of arrangements and region extensions.

    An instance may be shared by many engines — including engines on
    different threads (the server pool): all map access is serialised
    behind one lock, and misses are **single-flight** per key.  When N
    threads miss the same fingerprint concurrently, exactly one of them
    builds (one ``arrangement.builds`` increment, one disk-store probe)
    while the other N−1 wait on the in-flight build and then take a hit
    — a thundering herd computes each arrangement once.  Waits are
    counted in ``engine.cache.singleflight.coalesced``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        metrics: MetricsRegistry | None = None,
        store: DiskStore | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: Optional pinned disk store for arrangement warm-starts.  When
        #: ``None`` every miss consults :func:`repro.store.active_store`
        #: (the ``--cache-dir`` / ``REPRO_CACHE_DIR`` setting), so the
        #: process-wide shared cache honours the CLI flags without being
        #: rebuilt.
        self.store = store
        self._extensions: OrderedDict[tuple, RegionExtension] = OrderedDict()
        self._arrangements: OrderedDict[tuple, Arrangement] = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight builds, keyed by ("arrangement"|"extension", key);
        #: followers wait on the event, then re-check the map.
        self._inflight: dict[tuple, threading.Event] = {}
        registry = metrics if metrics is not None else get_registry()
        self._c_ext_hits = registry.counter("engine.cache.extension.hits")
        self._c_ext_misses = registry.counter("engine.cache.extension.misses")
        self._c_arr_hits = registry.counter("engine.cache.arrangement.hits")
        self._c_arr_misses = registry.counter(
            "engine.cache.arrangement.misses"
        )
        self._c_invalidations = registry.counter(
            "engine.cache.invalidations"
        )
        self._c_coalesced = registry.counter(
            "engine.cache.singleflight.coalesced"
        )

    # ------------------------------------------------------------------
    # Single-flight plumbing
    # ------------------------------------------------------------------
    def _get_or_build(self, family: str, table, key, hit, miss, build):
        """Look ``key`` up in ``table`` with single-flight misses.

        ``hit``/``miss`` record counters and journal events; ``build``
        produces the value (called without the lock held, by exactly
        one thread per in-flight key).
        """
        flight_key = (family, key)
        while True:
            with self._lock:
                cached = table.get(key)
                if cached is not None:
                    table.move_to_end(key)
                    event = None
                else:
                    event = self._inflight.get(flight_key)
                    if event is None:
                        self._inflight[flight_key] = threading.Event()
                        break  # this thread builds
            if cached is not None:
                hit()
                return cached
            # Another thread is building this key: wait, then re-check.
            self._c_coalesced.inc()
            event.wait()
        miss()
        try:
            started = time.perf_counter()
            value = build()
            elapsed = time.perf_counter() - started
            with self._lock:
                table[key] = value
                while len(table) > self.capacity:
                    table.popitem(last=False)
            get_telemetry().histogram(
                f"engine.{family}_build_seconds"
            ).observe(elapsed)
        finally:
            with self._lock:
                event = self._inflight.pop(flight_key)
            event.set()
        return value

    # ------------------------------------------------------------------
    # Arrangements
    # ------------------------------------------------------------------
    def arrangement(
        self,
        relation: ConstraintRelation,
        extra_hyperplanes: tuple[Hyperplane, ...] | None = None,
    ) -> Arrangement:
        """A(S) for a relation, built once per structural fingerprint.

        Misses consult the disk store (when one is pinned or active)
        before enumerating, and persist freshly built arrangements for
        later processes.
        """
        extra_key = (
            tuple(
                (plane.normal, plane.offset)
                for plane in extra_hyperplanes
            )
            if extra_hyperplanes
            else ()
        )
        key = (relation_fingerprint(relation), extra_key)

        def hit() -> None:
            self._c_arr_hits.inc()
            TRACER.current().add("arrangement_cache_hits", 1)
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "cache", layer="engine", kind="arrangement",
                    outcome="hit", key=key[0][:12],
                )

        def miss() -> None:
            self._c_arr_misses.inc()
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "cache", layer="engine", kind="arrangement",
                    outcome="miss", key=key[0][:12],
                )

        def build() -> Arrangement:
            return build_arrangement(
                relation,
                hyperplanes=extra_hyperplanes or None,
                store=self.store,
            )

        return self._get_or_build(
            "arrangement", self._arrangements, key, hit, miss, build
        )

    # ------------------------------------------------------------------
    # Region extensions (decomposition + database bundle)
    # ------------------------------------------------------------------
    def extension(
        self,
        database: ConstraintDatabase,
        decomposition: str = "arrangement",
        spatial_name: str = "S",
    ) -> RegionExtension:
        """The region extension, reused across structurally equal builds."""
        key = (
            database_fingerprint(database),
            decomposition,
            spatial_name,
        )
        def hit() -> None:
            self._c_ext_hits.inc()
            TRACER.current().add("extension_cache_hits", 1)
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "cache", layer="engine", kind="extension",
                    outcome="hit", key=key[0][:12],
                )

        def miss() -> None:
            self._c_ext_misses.inc()
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "cache", layer="engine", kind="extension",
                    outcome="miss", key=key[0][:12],
                )

        def build() -> RegionExtension:
            return RegionExtension.build(
                database,
                decomposition,
                spatial_name,
                arrangement_factory=self.arrangement,
            )

        return self._get_or_build(
            "extension", self._extensions, key, hit, miss, build
        )

    def seed_arrangement(
        self,
        relation: ConstraintRelation,
        arrangement: Arrangement,
        store: DiskStore | None = None,
    ) -> None:
        """Install a maintained arrangement under its relation's key.

        The incremental write path (:meth:`QueryEngine.apply_delta`)
        computes the new version's arrangement by delta and seeds it
        here, so the next extension build takes a counted hit instead
        of re-running the batch construction.  When a disk store is
        given the entry is persisted too — but never overwritten:
        content-addressed keys mean an existing entry is the same
        arrangement already, and leaving it untouched keeps store bytes
        stable across write/undo round trips.
        """
        from repro.arrangement.hyperplanes import hyperplanes_of_relation

        key = (relation_fingerprint(relation), ())
        with self._lock:
            self._arrangements[key] = arrangement
            self._arrangements.move_to_end(key)
            while len(self._arrangements) > self.capacity:
                self._arrangements.popitem(last=False)
        disk = store if store is not None else self.store
        if disk is not None:
            disk_key = store_pkg.arrangement_key(
                hyperplanes_of_relation(relation),
                relation.arity,
                relation,
            )
            if not disk.entry_path("arrangement", disk_key).exists():
                disk.save("arrangement", disk_key, arrangement)

    # ------------------------------------------------------------------
    # Predictions (non-mutating, for ``repro explain``)
    # ------------------------------------------------------------------
    def peek_arrangement(
        self,
        relation: ConstraintRelation,
        extra_hyperplanes: tuple[Hyperplane, ...] | None = None,
    ) -> bool:
        """Whether :meth:`arrangement` would hit, without touching state.

        No counters move and the LRU order is left alone — this is how
        ``repro explain`` predicts cache outcomes without perturbing
        the run it is predicting.
        """
        extra_key = (
            tuple(
                (plane.normal, plane.offset)
                for plane in extra_hyperplanes
            )
            if extra_hyperplanes
            else ()
        )
        key = (relation_fingerprint(relation), extra_key)
        with self._lock:
            return key in self._arrangements

    def peek_extension(
        self,
        database: ConstraintDatabase,
        decomposition: str = "arrangement",
        spatial_name: str = "S",
    ) -> bool:
        """Whether :meth:`extension` would hit (no counters, no LRU)."""
        key = (
            database_fingerprint(database),
            decomposition,
            spatial_name,
        )
        with self._lock:
            return key in self._extensions

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate(self, database: ConstraintDatabase | None = None) -> None:
        """Drop cached entries — all of them, or one database's.

        Passing a database also drops the arrangements of each of its
        relations (they may be shared with other databases holding the
        same relation; dropping is always safe, merely un-warm).
        """
        if database is None:
            with self._lock:
                dropped = len(self._extensions) + len(self._arrangements)
                self._extensions.clear()
                self._arrangements.clear()
            self._c_invalidations.inc(dropped)
            return
        fingerprint = database_fingerprint(database)
        relation_prints = {
            relation_fingerprint(relation) for __, relation in database
        }
        with self._lock:
            stale_ext = [
                key for key in self._extensions if key[0] == fingerprint
            ]
            stale_arr = [
                key
                for key in self._arrangements
                if key[0] in relation_prints
            ]
            for key in stale_ext:
                del self._extensions[key]
            for key in stale_arr:
                del self._arrangements[key]
        self._c_invalidations.inc(len(stale_ext) + len(stale_arr))

    def stats(self) -> dict[str, int]:
        """Current hit/miss/size numbers (plain dict snapshot)."""
        with self._lock:
            extensions = len(self._extensions)
            arrangements = len(self._arrangements)
        return {
            "extension_hits": self._c_ext_hits.value,
            "extension_misses": self._c_ext_misses.value,
            "arrangement_hits": self._c_arr_hits.value,
            "arrangement_misses": self._c_arr_misses.value,
            "invalidations": self._c_invalidations.value,
            "singleflight_coalesced": self._c_coalesced.value,
            "extensions_cached": extensions,
            "arrangements_cached": arrangements,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._extensions) + len(self._arrangements)


# The process-default cache: what ``QueryEngine(cache=None)`` uses, so
# independent engines keep reusing each other's work.  New code that
# wants an explicit lifetime constructs its own EngineCache (or calls
# EngineConfig.make_cache()) and passes it via ``QueryEngine(cache=...)``.
_DEFAULT_CACHE = EngineCache()


def default_cache() -> EngineCache:
    """The process-default :class:`EngineCache`.

    Prefer constructing an explicit cache and passing it through
    ``QueryEngine(cache=...)``; this accessor exists for code that
    genuinely wants the process-wide default (tests asserting on it,
    notebooks warming it deliberately).
    """
    return _DEFAULT_CACHE


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`QueryEngine.apply_delta` call did.

    ``parent``/``child`` are the database fingerprints before and after
    the write; ``lineage_seq`` is the persisted chain position (``None``
    without a disk store) and ``compacted`` reports whether the child
    was folded back into a full snapshot.
    """

    parent: str
    child: str
    operations: int
    relations_changed: tuple[str, ...]
    planes_inserted: int
    planes_retracted: int
    lineage_seq: "int | None"
    compacted: bool


class QueryEngine:
    """The unified entry point for querying one constraint database.

    Owns the region-extension backend choice (``decomposition`` /
    ``spatial_name``), resolves the extension through the cross-query
    :class:`EngineCache`, and keeps one memoising
    :class:`~repro.logic.evaluator.Evaluator` alive across queries, so::

        engine = QueryEngine(db)
        engine.truth("exists x. S(x)")     # builds (or reuses) A(S)
        engine.evaluate("S(x) & x < 1")    # reuses everything

    Queries may be :class:`~repro.logic.ast.RegFormula` values or source
    strings (parsed with :func:`repro.logic.parser.parse_query`).

    Runtime knobs arrive as one :class:`~repro.config.EngineConfig`
    (``QueryEngine(db, config=EngineConfig.resolve(lp_mode="exact"))``).
    Without one the engine builds ``EngineConfig()``, whose ``None`` fields
    consult the environment at use time.
    """

    def __init__(
        self,
        database: ConstraintDatabase,
        decomposition: str = "arrangement",
        spatial_name: str = "S",
        cache: EngineCache | None = None,
        *,
        config: EngineConfig | None = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        self.database = database
        self.decomposition = decomposition
        self.spatial_name = spatial_name
        #: The engine's (frozen) runtime configuration.
        self.config = config
        self.cache = cache if cache is not None else _DEFAULT_CACHE
        #: Disk warm-start: an explicit ``cache_dir`` (path or
        #: :class:`~repro.store.disk.DiskStore`) pins persistence for
        #: this engine; ``None`` defers to the process-wide setting
        #: (``--cache-dir`` / ``REPRO_CACHE_DIR``) at use time.
        self._pinned_store = store_pkg.resolve_store(
            config.cache_dir, size_budget=config.cache_budget
        )
        #: Rewritten plans, keyed by the original query's structural
        #: rendering.  Re-planning must return the *same* formula object
        #: so EXPLAIN's profiler frames line up with the plan tree.
        self._plans: OrderedDict[str, tuple] = OrderedDict()
        registry = get_registry()
        self._c_opt_rewrites = registry.counter("optimizer.rewrites")
        #: LP tier selection, ``"exact"`` or ``"filtered"`` (``None`` =
        #: consult ``REPRO_LP_MODE``, defaulting to ``"filtered"``).
        #: Both modes return identical statuses and exact witnesses, so
        #: the engine cache is deliberately not keyed on it.
        self.lp_mode = config.lp_mode
        self._extension: RegionExtension | None = None
        self._evaluator: Evaluator | None = None
        #: Lazily created per-engine arrangement maintenance state
        #: (:class:`repro.incremental.MaintainedArrangements`).
        self._maintained = None
        self._c_deltas = registry.counter("engine.deltas_applied")

    # ------------------------------------------------------------------
    # Lazily resolved backends
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The database's canonical fingerprint (the cache key)."""
        return database_fingerprint(self.database)

    def _store(self) -> DiskStore | None:
        """The disk store in effect for this engine right now."""
        if self._pinned_store is not None:
            return self._pinned_store
        return store_pkg.active_store()

    def _store_scope(self):
        """A context pinning this engine's store for nested builds.

        A no-op when no ``cache_dir`` was pinned, so process-wide
        ``--cache-dir`` / ``REPRO_CACHE_DIR`` settings stay in effect.
        """
        if self._pinned_store is None:
            from contextlib import nullcontext

            return nullcontext()
        return store_pkg.store_scope(self._pinned_store)

    # ------------------------------------------------------------------
    # Cost-based optimizer (plan rewrites)
    # ------------------------------------------------------------------
    def optimizer_enabled(self) -> bool:
        """Whether the cost-based optimizer applies to this engine."""
        from repro.config import resolve_optimizer

        return resolve_optimizer(self.config.optimizer) == "on"

    #: Bound on remembered rewritten plans per engine.
    _PLAN_CAPACITY = 256

    def plan(self, query: "ast.RegFormula | str"):
        """The (possibly rewritten) plan for a query.

        Returns ``(formula, outcome)`` where ``outcome`` is the
        :class:`~repro.optimizer.rewrite.RewriteOutcome` carrying the
        recorded decisions, or ``None`` with the optimizer off (the
        formula is then returned unchanged — the oracle path).  Planning
        is memoised per structural query so repeated evaluation and
        EXPLAIN see the identical rewritten objects.
        """
        formula = self._parse(query)
        if not self.optimizer_enabled():
            return formula, None
        key = str(formula)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            return cached
        from repro.optimizer.lift import RegionSort
        from repro.optimizer.rewrite import rewrite_query

        outcome = rewrite_query(
            formula,
            region_sort=RegionSort.of(
                self.database, self.decomposition, self.spatial_name
            ),
        )
        self._c_opt_rewrites.inc()
        planned = (outcome.formula, outcome)
        self._plans[key] = planned
        while len(self._plans) > self._PLAN_CAPACITY:
            self._plans.popitem(last=False)
        return planned

    @property
    def extension(self) -> RegionExtension:
        """The region extension 𝔅^Reg (cached across engines)."""
        if self._extension is None:
            with fastlp.lp_mode(self.lp_mode), \
                    self._store_scope():
                self._extension = self.cache.extension(
                    self.database,
                    self.decomposition,
                    self.spatial_name,
                )
        return self._extension

    @property
    def evaluator(self) -> Evaluator:
        """The engine's memoising evaluator (one per engine instance)."""
        if self._evaluator is None:
            self._evaluator = Evaluator(
                self.extension,
                executor=self.config.executor,
            )
        return self._evaluator

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _parse(self, query: "ast.RegFormula | str") -> ast.RegFormula:
        if isinstance(query, str):
            from repro.logic.parser import parse_query

            return parse_query(query)
        return query

    def evaluate(self, query: "ast.RegFormula | str") -> ConstraintRelation:
        """The answer relation of a query over its free element variables.

        The query must not have free region or set variables (the
        paper's notion of a RegFO/RegLFP/RegTC *query*).
        """
        formula = self._parse(query)
        if formula.free_region_vars() or formula.free_set_vars():
            raise EvaluationError(
                "queries must not have free region or set variables"
            )
        # The cost-based rewrite (identity with the optimizer off).  A
        # repeat is answered by the evaluator's memo, which is keyed on
        # the planned formula and dropped with the evaluator.
        formula, __ = self.plan(formula)
        started = time.perf_counter()
        with TRACER.span("evaluate"), \
                fastlp.lp_mode(self.lp_mode), \
                self._store_scope():
            answer = self.evaluator.evaluate(formula)
        self._observe_latency(
            "engine.evaluate_seconds", time.perf_counter() - started
        )
        return answer

    def _observe_latency(self, name: str, seconds: float) -> None:
        """Record a latency observation, labeled by executor/lp_mode.

        One histogram observe per query — negligible against evaluation
        cost (measured in docs/OBSERVABILITY.md's overhead contract).
        """
        from repro.config import resolve_executor

        labels = {
            "executor": resolve_executor(self.config.executor),
            "lp_mode": self.lp_mode or fastlp.get_lp_mode(),
        }
        get_telemetry().histogram(name, labels).observe(seconds)

    def truth(self, query: "ast.RegFormula | str") -> bool:
        """Truth of a boolean query (no free variables of any sort)."""
        formula = self._parse(query)
        if formula.free_element_vars():
            raise EvaluationError("boolean queries have no free variables")
        return not self.evaluate(formula).is_empty()

    def explain(
        self,
        query: "ast.RegFormula | str",
        analyze: bool = False,
    ):
        """EXPLAIN (or EXPLAIN ANALYZE) a query: the annotated plan tree.

        Compiles the query into a :class:`~repro.explain.PlanNode` tree
        mirroring its quantifier/connective structure, annotated with
        the relations and arrangements each node needs and the
        *predicted* cache/store outcomes (by fingerprint, without
        perturbing any cache).  With ``analyze=True`` the query is also
        executed and each node carries its measured cost: wall time, LP
        solves, DFS nodes, cache hits, per-stage fixpoint deltas.

        Returns an :class:`~repro.explain.ExplainResult`.
        """
        from repro.explain import explain_query

        return explain_query(self, self._parse(query), analyze=analyze)

    # ------------------------------------------------------------------
    # Writes (incremental view maintenance)
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> DeltaReport:
        """Apply a write to this engine's database, maintaining caches.

        ``delta`` is a :class:`repro.incremental.Delta` (or a sequence
        of ``(action, relation, formula)`` triples accepted by
        :func:`repro.incremental.make_delta`).  The engine

        * rebinds :attr:`database` to the post-delta version (built
          all-or-nothing; an invalid op raises
          :class:`~repro.errors.DeltaError` and changes nothing),
        * maintains each changed relation's cached arrangement by plane
          delta (insertion + retraction, reordered to the canonical
          plane order) and seeds the engine cache and disk store with
          the result, so the next query against the new version skips
          the batch construction,
        * records the version edge in the store's lineage log (when a
          store is active), rooting and compacting the chain as needed.

        Maintained arrangements are combinatorially identical to a
        batch rebuild; answers computed against the new version are
        byte-identical to a cold engine's — the differential suite in
        ``tests/test_ivm_differential.py`` holds this path to the
        fresh-rebuild oracle.  Maintenance covers the default
        (per-relation) arrangement keys; decompositions that refine by
        other relations' planes simply rebuild on demand, which is
        correct, merely un-warm.
        """
        from repro import incremental as inc

        if not isinstance(delta, inc.Delta):
            delta = inc.make_delta(*delta)
        parent_db = self.database
        parent_print = database_fingerprint(parent_db)
        child_db = inc.apply_delta(parent_db, delta)
        child_print = database_fingerprint(child_db)
        changed = delta.relations()
        registry = get_registry()
        inserted_before = registry.get("incremental.planes_inserted")
        retracted_before = registry.get("incremental.planes_retracted")
        disk = self._store()
        if self._maintained is None:
            self._maintained = inc.MaintainedArrangements()
        delta_started = time.perf_counter()
        with TRACER.span("apply_delta"), \
                fastlp.lp_mode(self.lp_mode), \
                self._store_scope():
            for name in changed:
                old_rel = parent_db.relation(name)
                new_rel = child_db.relation(name)
                if old_rel.formula == new_rel.formula:
                    continue
                arrangement = self._maintained.update(
                    old_rel,
                    new_rel,
                    build_old=lambda rel=old_rel: self.cache.arrangement(rel),
                )
                self.cache.seed_arrangement(
                    new_rel, arrangement, store=disk
                )
        self._observe_latency(
            "engine.apply_delta_seconds",
            time.perf_counter() - delta_started,
        )
        lineage_seq: "int | None" = None
        compacted = False
        if disk is not None:
            compactions_before = registry.get(
                "incremental.lineage_compactions"
            )
            record = inc.LineageLog(disk).record(parent_db, child_db, delta)
            lineage_seq = record.seq
            compacted = (
                registry.get("incremental.lineage_compactions")
                > compactions_before
            )
        self.database = child_db
        self._extension = None
        self._evaluator = None
        self._c_deltas.inc()
        report = DeltaReport(
            parent=parent_print,
            child=child_print,
            operations=len(delta),
            relations_changed=changed,
            planes_inserted=(
                registry.get("incremental.planes_inserted") - inserted_before
            ),
            planes_retracted=(
                registry.get("incremental.planes_retracted")
                - retracted_before
            ),
            lineage_seq=lineage_seq,
            compacted=compacted,
        )
        if JOURNAL.enabled:
            JOURNAL.emit(
                "delta.applied",
                parent=parent_print[:12],
                child=child_print[:12],
                operations=report.operations,
                relations=",".join(changed),
                planes_inserted=report.planes_inserted,
                planes_retracted=report.planes_retracted,
            )
        return report

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop this database's cached construction (engine-wide).

        Does not touch the disk store: entries there are content-
        addressed, so a changed database simply resolves different keys.
        """
        self.cache.invalidate(self.database)
        self._extension = None
        self._evaluator = None

    def stats(self) -> dict[str, object]:
        """One dict with the engine's caches and evaluator telemetry."""
        from repro.config import resolve_executor

        registry = get_registry()
        disk = self._store()
        numbers: dict[str, object] = {
            "cache": self.cache.stats(),
            "executor": resolve_executor(self.config.executor),
            "optimizer": {
                "enabled": self.optimizer_enabled(),
                "rewrites": registry.get("optimizer.rewrites"),
            },
        }
        if self._evaluator is not None:
            numbers["evaluator"] = self._evaluator.metrics.snapshot()
        if self._extension is not None:
            numbers["regions"] = self._extension.region_count()
        if disk is not None:
            numbers["store"] = disk.stats()
        return numbers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryEngine({self.spatial_name!r}, "
            f"decomposition={self.decomposition!r}, "
            f"fingerprint={self.fingerprint[:12]}…)"
        )
