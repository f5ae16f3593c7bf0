"""The per-layer ledger of the traced run.

Spans are recorded from the benchmark's own files: :class:`Ledger`
replaces each layer's public entry points with wrappers for the length of
the traced run, and puts them back afterwards. Spans nest per thread; a
layer's self time is its spans' duration minus the child spans they
contain. Work counts are deltas of the program's own ``uc_*`` counters,
summed over every registry of the estate (the cluster's and each shard
replica's service), because each service keeps a private
``Observability``.
"""

from __future__ import annotations

import _thread
import gc
import importlib
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable

#: (layer, module, class, entry points) wrapped with a span
SPANS = [
    ("cluster", "repro.core.cluster.cluster", "CatalogCluster", ("dispatch",)),
    ("rest", "repro.core.service.rest", "ServiceRouter", ("handle",)),
    ("pipeline", "repro.core.service.pipeline", "RequestPipeline", ("dispatch",)),
    ("batch", "repro.core.service.batch", "QueryResolver", ("resolve",)),
    ("authz", "repro.core.auth.authorizer", "Authorizer",
     ("authorize", "visible", "has_privilege", "fgac_rules_for")),
    ("cache", "repro.core.cache.node", "MetastoreCacheNode",
     ("view", "commit", "reconcile")),
    ("store", "repro.core.persistence.memory", "InMemoryMetadataStore",
     ("snapshot", "commit")),
    ("store", "repro.core.persistence.memory", "_MemorySnapshot",
     ("get", "multi_get", "scan_prefix")),
    ("replication", "repro.core.cluster.replication", "ReplicaGroup",
     ("replicate", "commit_through")),
    ("vending", "repro.core.vending", "CredentialVendor", ("vend",)),
    ("audit", "repro.core.audit", "AuditLog", ("record",)),
]
#: entity reads counted while an authz span is open on the thread
ENTITY_READS = [
    ("repro.core.cache.node", "CachedView"),
    ("repro.core.view", "SnapshotView"),
]
#: counters read before and after the traced window
COUNTERS = (
    "uc_shard_fanout_total",
    "uc_resolution_cache_hits_total", "uc_resolution_cache_misses_total",
    "uc_authz_cache_hits_total", "uc_authz_cache_misses_total",
    "uc_cache_hits_total", "uc_cache_misses_total", "uc_cache_reconciles_total",
    "uc_hot_cache_invalidations_total",
    "uc_store_scan_rows_total", "uc_store_multi_get_total",
    "uc_store_commits_total", "uc_store_commit_conflicts_total",
    "uc_replica_applied_entries_total", "uc_replica_reads_total",
    "uc_replica_reads_total/follower",
    # per-vendor mints: the STS mint counter is one shared issuer that
    # every shard service reports again, so summing it would over-count
    "uc_credentials_minted_total",
    "uc_credential_cache_hits_total", "uc_credential_cache_lookups_total",
)

#: name -> (unit, better); the order is the order reported
PER_LAYER = {
    "cluster.self_us_per_op": ("us", "lower"),
    "cluster.fanout_per_op": ("count", "lower"),
    "serve.queue_wait_us_per_op": ("us", "lower"),
    "serve.tasks_per_op": ("count", "lower"),
    "locks.rlock_acquires_per_op": ("count", "lower"),
    "rest.self_us_per_op": ("us", "lower"),
    "pipeline.self_us_per_op": ("us", "lower"),
    "pipeline.dispatches_per_op": ("count", "lower"),
    "batch.self_us_per_op": ("us", "lower"),
    "resolution.cache_hit_ratio": ("ratio", "higher"),
    "authz.self_us_per_op": ("us", "lower"),
    "authz.calls_per_op": ("count", "lower"),
    "authz.entity_reads_per_op": ("count", "lower"),
    "authz.cache_hit_ratio": ("ratio", "higher"),
    "cache.self_us_per_op": ("us", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.reconciles_per_write": ("count", "lower"),
    "cache.invalidations_per_write": ("count", "lower"),
    "store.self_us_per_op": ("us", "lower"),
    "store.rows_scanned_per_op": ("count", "lower"),
    "store.multi_gets_per_op": ("count", "lower"),
    "store.commits_per_write": ("count", "lower"),
    "store.commit_conflict_ratio": ("ratio", "lower"),
    "replication.self_us_per_write": ("us", "lower"),
    "replication.entries_applied_per_write": ("count", "lower"),
    "replication.follower_read_share": ("ratio", "higher"),
    "vending.self_us_per_op": ("us", "lower"),
    "vending.mints_per_op": ("count", "lower"),
    "vending.credential_cache_hit_ratio": ("ratio", "higher"),
    "audit.self_us_per_op": ("us", "lower"),
    "audit.records_per_op": ("count", "lower"),
    "gc.pause_ms_total": ("ms", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def counter_totals(registries: Iterable) -> dict[str, float]:
    """Every name in :data:`COUNTERS`, summed over ``registries``; a
    ``name/follower`` entry sums only the ``role="follower"`` samples."""
    totals = dict.fromkeys(COUNTERS, 0.0)
    for registry in registries:
        for key, value in registry.snapshot().items():
            base = key.split("{", 1)[0]
            if base in totals:
                totals[base] += value
                if 'role="follower"' in key:
                    totals[base + "/follower"] += value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _ThreadState(threading.local):
    """Per thread: the open spans' child-time accumulators, and how many
    of them are authz spans."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.authz = 0


class Ledger:
    """Spans, call counts and lock/GC counts for one traced window."""

    def __init__(self):
        self._local = _ThreadState()
        self._patched: list[tuple[type, str, Any]] = []
        self._real_rlock = None
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.entity_reads = 0
        self.rlock_acquires = 0
        self.serve_wait_s = 0.0
        self.serve_tasks = 0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    def frozen(self) -> "Ledger":
        """A copy of the counts so far, which later calls do not change."""
        copy = Ledger.__new__(Ledger)
        copy.__dict__.update(self.__dict__)
        copy.self_s = self.self_s.copy()
        copy.calls = self.calls.copy()
        return copy

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and start counting RLock acquisitions
        and GC pauses. Call before the estate is built, so its locks are
        counting locks."""
        for layer, module, cls_name, methods in SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._patch(cls, method, self._span(layer, cls.__dict__[method]))
        for module, cls_name in ENTITY_READS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, "entity_by_id", self._entity_read(cls.__dict__["entity_by_id"]))
        from repro.serve.tier import ParallelServingTier

        for method in ("run_on", "submit_on"):
            self._patch(ParallelServingTier, method,
                        self._placement(ParallelServingTier.__dict__[method]))
        self._real_rlock = threading.RLock
        threading.RLock = self._counting_rlock_type()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        threading.RLock = self._real_rlock
        for cls, name, original in reversed(self._patched):
            setattr(cls, name, original)
        self._patched.clear()

    def _patch(self, cls: type, name: str, wrapper: Callable) -> None:
        self._patched.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer: str, fn: Callable) -> Callable:
        ledger = self
        is_authz = layer == "authz"

        def traced(*args, **kwargs):
            local = ledger._local
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            if is_authz:
                local.authz += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if is_authz:
                    local.authz -= 1
                if stack:
                    stack[-1][0] += elapsed
                ledger.self_s[layer] += elapsed - frame[0]
                ledger.calls[layer] += 1

        traced.__wrapped__ = fn
        return traced

    def _entity_read(self, fn: Callable) -> Callable:
        ledger = self

        def counted(*args, **kwargs):
            if ledger._local.authz:
                ledger.entity_reads += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _placement(self, fn: Callable) -> Callable:
        """Time each unit of shard work from its submission to its start."""
        ledger = self

        def placed(tier, shard_name, work):
            submitted = perf_counter()

            def timed():
                ledger.serve_wait_s += perf_counter() - submitted
                ledger.serve_tasks += 1
                return work()

            return fn(tier, shard_name, timed)

        placed.__wrapped__ = fn
        return placed

    def _counting_rlock_type(self) -> type:
        ledger = self

        class CountingRLock(_thread.RLock):
            def acquire(self, *args, **kwargs):
                ledger.rlock_acquires += 1
                return super().acquire(*args, **kwargs)

            __enter__ = acquire

        return CountingRLock

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_pause_s += perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # -- the ledger ----------------------------------------------------------

    def metrics(self, ops: int, writes: int, before: dict, after: dict,
                overhead_pct: float, speed: float) -> dict[str, float]:
        """The per-layer metrics of :data:`PER_LAYER` for one window; times
        are multiplied by ``speed``, the window's reference seconds per
        wall second."""
        d = {name: after[name] - before[name] for name in COUNTERS}
        per_op = lambda value: _ratio(value, ops)  # noqa: E731
        per_write = lambda value: _ratio(value, writes)  # noqa: E731
        us = 1e6 * speed
        return {
            "cluster.self_us_per_op": per_op(self.self_s["cluster"] * us),
            "cluster.fanout_per_op": per_op(d["uc_shard_fanout_total"]),
            "serve.queue_wait_us_per_op": per_op(self.serve_wait_s * us),
            "serve.tasks_per_op": per_op(self.serve_tasks),
            "locks.rlock_acquires_per_op": per_op(self.rlock_acquires),
            "rest.self_us_per_op": per_op(self.self_s["rest"] * us),
            "pipeline.self_us_per_op": per_op(self.self_s["pipeline"] * us),
            "pipeline.dispatches_per_op": per_op(self.calls["pipeline"]),
            "batch.self_us_per_op": per_op(self.self_s["batch"] * us),
            "resolution.cache_hit_ratio": _ratio(
                d["uc_resolution_cache_hits_total"],
                d["uc_resolution_cache_hits_total"]
                + d["uc_resolution_cache_misses_total"]),
            "authz.self_us_per_op": per_op(self.self_s["authz"] * us),
            "authz.calls_per_op": per_op(self.calls["authz"]),
            "authz.entity_reads_per_op": per_op(self.entity_reads),
            "authz.cache_hit_ratio": _ratio(
                d["uc_authz_cache_hits_total"],
                d["uc_authz_cache_hits_total"] + d["uc_authz_cache_misses_total"]),
            "cache.self_us_per_op": per_op(self.self_s["cache"] * us),
            "cache.hit_ratio": _ratio(
                d["uc_cache_hits_total"],
                d["uc_cache_hits_total"] + d["uc_cache_misses_total"]),
            "cache.reconciles_per_write": per_write(d["uc_cache_reconciles_total"]),
            "cache.invalidations_per_write": per_write(
                d["uc_hot_cache_invalidations_total"]),
            "store.self_us_per_op": per_op(self.self_s["store"] * us),
            "store.rows_scanned_per_op": per_op(d["uc_store_scan_rows_total"]),
            "store.multi_gets_per_op": per_op(d["uc_store_multi_get_total"]),
            "store.commits_per_write": per_write(d["uc_store_commits_total"]),
            "store.commit_conflict_ratio": _ratio(
                d["uc_store_commit_conflicts_total"],
                d["uc_store_commits_total"] + d["uc_store_commit_conflicts_total"]),
            "replication.self_us_per_write": per_write(self.self_s["replication"] * us),
            "replication.entries_applied_per_write": per_write(
                d["uc_replica_applied_entries_total"]),
            "replication.follower_read_share": _ratio(
                d["uc_replica_reads_total/follower"], d["uc_replica_reads_total"]),
            "vending.self_us_per_op": per_op(self.self_s["vending"] * us),
            "vending.mints_per_op": per_op(d["uc_credentials_minted_total"]),
            "vending.credential_cache_hit_ratio": _ratio(
                d["uc_credential_cache_hits_total"],
                d["uc_credential_cache_lookups_total"]),
            "audit.self_us_per_op": per_op(self.self_s["audit"] * us),
            "audit.records_per_op": per_op(self.calls["audit"]),
            "gc.pause_ms_total": self.gc_pause_s * 1e3 * speed,
            "gc.gen2_collections": float(self.gc_gen2),
            "trace.overhead_pct": overhead_pct,
        }

    def table(self, ops: int, speed: float) -> str:
        """Calls and self time (in reference us) per layer, as a text table."""
        total = sum(self.self_s.values()) or 1.0
        lines = [f"{'layer':<12} {'calls/op':>10} {'self us/op':>11} {'share':>7}"]
        for layer in sorted(self.self_s, key=self.self_s.get, reverse=True):
            lines.append(
                f"{layer:<12} {_ratio(self.calls[layer], ops):>10.2f} "
                f"{_ratio(self.self_s[layer] * 1e6 * speed, ops):>11.1f} "
                f"{100 * self.self_s[layer] / total:>6.1f}%")
        return "\n".join(lines)
