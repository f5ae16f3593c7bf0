"""Version-pinned hot-path caches for the life-of-a-query loop.

The paper's performance story (section 4.5, Figure 10(b)) is that the
catalog serves metadata at interactive latency because the hot path —
resolve names, authorize, vend — almost never recomputes anything: the
node cache absorbs the database, and this module absorbs the *CPU* work
layered on top of it. Two caches, both stamped with the metastore
version they were computed at:

* :class:`AuthDecisionCache` — authorization outcomes keyed by
  ``(principal, securable_id, operation)``. A cached decision is the
  exact :class:`~repro.core.auth.authorizer.AccessDecision` the
  authorizer would recompute at the same metastore version and
  principal-directory generation, so serving it changes nothing
  observable (audit records still carry the same reason strings).
* :class:`ResolutionCache` — fully-qualified-name resolution keyed by
  ``(kind, full_name)``. Only successful resolutions are cached; a
  ``NotFoundError`` always re-walks, so creations are visible
  immediately.

Entries are invalidated by version bump with *selective retention*,
driven by the persistence layer's existing change log (the same feed the
node cache's ``SELECTIVE`` reconcile mode uses):

* a grant/revoke invalidates only decisions whose identity set contains
  the grant's principal **and** whose securable chain contains the
  granted securable (the touched principal × subtree), and drops the
  subtree-grantee index (below) whole;
* an entity change (rename, delete, ownership transfer, spec update)
  invalidates decisions, resolutions and memoized chains whose chain
  contains the changed entity — chain membership is exactly "the changed
  entity is the asset itself or an ancestor", which is the name-prefix
  rule expressed in ids — and drops the subtree-grantee index whole;
* policy or tag changes wipe all decisions (ABAC can reach anything in
  scope), but retain resolutions, chains and the index;
* ``commits`` / ``share_bindings`` changes invalidate nothing — they can
  never alter an authorization outcome or a name binding.

Visibility-class decisions (``read_metadata`` / ``visible``) additionally
drop on *any* entity or matching grant change, because grants anywhere in
an asset's subtree can make its containers browsable.

A bundle also memoizes, at the pinned version:

* the ancestor chain per entity, so one batched ``QueryResolver.resolve``
  call walks each chain at most once;
* the *subtree-grantee index*: securable id -> every principal holding
  any grant on it or on an active descendant, the answer to visibility's
  "grants on descendants make the container browsable" step. It is built
  lazily, at most once per version (a rename, drop or re-parent moves
  subtrees; a grant or revoke changes holders). It holds principal
  names, so group-membership changes leave it valid.

Correctness never depends on any of this: with the fast path disabled
the service recomputes everything and must produce byte-identical
results (``python -m repro.bench.hotpath`` proves it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Optional

from repro.core.model.entity import Entity, SecurableKind
from repro.core.persistence.store import ChangeRecord, Tables

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.auth.authorizer import AccessDecision
    from repro.core.view import MetastoreView

#: Caches are bounded; crossing the cap clears the cache (the warm
#: working set refills in one pass, and wholesale clears keep the
#: invalidation state trivially correct).
_MAX_ENTRIES = 65_536


@dataclass
class HotPathStats:
    """Counters exported as ``uc_authz_cache_*`` / ``uc_resolution_cache_*``."""

    authz_hits: int = 0
    authz_misses: int = 0
    resolution_hits: int = 0
    resolution_misses: int = 0
    invalidations: int = 0
    syncs: int = 0

    @property
    def authz_hit_rate(self) -> float:
        total = self.authz_hits + self.authz_misses
        return self.authz_hits / total if total else 0.0

    @property
    def resolution_hit_rate(self) -> float:
        total = self.resolution_hits + self.resolution_misses
        return self.resolution_hits / total if total else 0.0


class _DecisionEntry:
    """One cached decision plus the facts needed to invalidate it."""

    __slots__ = ("value", "identities", "chain_ids", "visibility", "version")

    def __init__(
        self,
        value: "AccessDecision",
        identities: frozenset[str],
        chain_ids: frozenset[str],
        visibility: bool,
        version: int,
    ):
        self.value = value
        self.identities = identities
        self.chain_ids = chain_ids
        self.visibility = visibility
        #: the version it was computed at; it holds from there on until
        #: a change invalidates it
        self.version = version


class AuthDecisionCache:
    """Authorization outcomes keyed ``(principal, securable_id, operation)``.

    The principal component may be a principal name (``authorize``) or an
    expanded identity frozenset (``has_privilege`` / ``visible``); either
    way the entry records the identity set the decision was computed
    with, which is what grant invalidation matches against.
    """

    def __init__(self):
        self._entries: dict[tuple[Hashable, str, str], _DecisionEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: tuple[Hashable, str, str], version: int
    ) -> Optional["AccessDecision"]:
        entry = self._entries.get(key)
        if entry is None or entry.version > version:
            return None
        return entry.value

    def put(
        self,
        key: tuple[Hashable, str, str],
        value: "AccessDecision",
        identities: frozenset[str],
        chain_ids: frozenset[str],
        visibility: bool,
        version: int,
    ) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = _DecisionEntry(
            value, identities, chain_ids, visibility, version
        )

    def clear(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def invalidate(
        self,
        entity_ids: frozenset[str],
        grant_changes: list[tuple[str, str]],
    ) -> int:
        """Selective retention: drop only entries the changes can affect."""
        if not entity_ids and not grant_changes:
            return 0
        dead = []
        for key, entry in self._entries.items():
            securable_id = key[1]
            if entity_ids and (
                securable_id in entity_ids
                or not entity_ids.isdisjoint(entry.chain_ids)
                or entry.visibility
            ):
                # visibility can hinge on grants held anywhere in the
                # subtree, whose members we do not track — drop coarsely.
                dead.append(key)
                continue
            for grant_securable, grant_principal in grant_changes:
                if grant_principal in entry.identities and (
                    entry.visibility or grant_securable in entry.chain_ids
                ):
                    dead.append(key)
                    break
        for key in dead:
            del self._entries[key]
        return len(dead)


class _ResolutionEntry:
    __slots__ = ("entity", "chain_ids", "version")

    def __init__(self, entity: Entity, chain_ids: frozenset[str], version: int):
        self.entity = entity
        self.chain_ids = chain_ids
        self.version = version


class ResolutionCache:
    """Name → entity bindings keyed ``(kind, full_name)``.

    ``chain_ids`` holds every entity id the resolving walk visited (the
    containers plus the asset itself), so renaming or deleting any
    segment of ``a.b.c`` drops every cached name under it — the
    name-prefix invalidation rule, expressed in ids.
    """

    def __init__(self):
        self._entries: dict[tuple[SecurableKind, str], _ResolutionEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: SecurableKind, full_name: str,
            version: int) -> Optional[Entity]:
        entry = self._entries.get((kind, full_name))
        if entry is None or entry.version > version:
            return None
        return entry.entity

    def put(self, kind: SecurableKind, full_name: str, entity: Entity,
            chain_ids: frozenset[str], version: int) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.clear()
        self._entries[(kind, full_name)] = _ResolutionEntry(
            entity, chain_ids, version
        )

    def clear(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def invalidate(self, entity_ids: frozenset[str]) -> int:
        if not entity_ids:
            return 0
        dead = [
            key for key, entry in self._entries.items()
            if not entity_ids.isdisjoint(entry.chain_ids)
        ]
        for key in dead:
            del self._entries[key]
        return len(dead)


class HotPathCaches:
    """The per-metastore fast-path bundle: decisions, resolutions, chains.

    ``sync`` pins the bundle to a view's metastore version before any
    lookup: equal versions serve directly, a newer view replays the
    change log through selective invalidation, an *older* (pinned
    snapshot) view opts out of the cache entirely. Decisions additionally
    depend on the principal directory, whose ``generation`` bump clears
    them (group membership changes are not metastore writes).

    Every lookup names the version of the caller's view, because another
    thread may sync the bundle forward between a caller's ``sync`` and
    its lookups. Each memo entry remembers the version it was computed
    at and is served only to views at that version or later (the
    invalidation replay keeps it true up to the bundle's version). It is
    stored only while the bundle is still at that version, so a result
    computed against a superseded view never outlives it.
    """

    def __init__(
        self,
        metastore_id: str,
        version: int,
        changes_since: Callable[[int], list[ChangeRecord]],
        directory_generation: Callable[[], int],
    ):
        self.metastore_id = metastore_id
        self.version = version
        self._changes_since = changes_since
        self._directory_generation = directory_generation
        self._generation = directory_generation()
        self.decisions = AuthDecisionCache()
        self.resolutions = ResolutionCache()
        #: entity id -> (version computed at, entity + ancestors)
        self._chains: dict[str, tuple[int, tuple[Entity, ...]]] = {}
        #: (version built at, securable id -> principals granted on it or
        #: a descendant); None until first needed at the current version
        self._subtree_grantees: Optional[
            tuple[int, dict[str, frozenset[str]]]
        ] = None
        self.stats = HotPathStats()
        self._lock = threading.RLock()

    # -- version pinning ---------------------------------------------------

    def sync(self, view_version: int) -> bool:
        """Catch up to ``view_version``; False means "do not use me"."""
        with self._lock:
            generation = self._directory_generation()
            if generation != self._generation:
                self.stats.invalidations += self.decisions.clear()
                self._generation = generation
            if view_version == self.version:
                return True
            if view_version < self.version:
                return False  # a pinned older snapshot; recompute instead
            self.stats.syncs += 1
            self._apply_changes(self._changes_since(self.version))
            self.version = view_version
            return True

    def note_commit(self, ops, new_version: int) -> None:
        """Fold a locally-committed write batch in without re-reading the
        change log (the write-through analogue of the node cache)."""
        with self._lock:
            if new_version != self.version + 1:
                return  # fell behind; the next sync() replays the log
            self._apply_changes(
                [
                    ChangeRecord(
                        version=new_version, table=op.table, key=op.key,
                        deleted=op.value is None,
                    )
                    for op in ops
                ]
            )
            self.version = new_version

    def _apply_changes(self, changes: list[ChangeRecord]) -> None:
        entity_ids: set[str] = set()
        grant_changes: list[tuple[str, str]] = []
        policies_changed = False
        for change in changes:
            if change.table == Tables.ENTITIES:
                entity_ids.add(change.key)
            elif change.table == Tables.GRANTS:
                # key layout: {securable_id}/{principal}/{privilege};
                # ids and privilege values never contain "/".
                parts = change.key.split("/")
                grant_changes.append((parts[0], "/".join(parts[1:-1])))
            elif change.table in (Tables.POLICIES, Tables.TAGS):
                policies_changed = True
            # COMMITS and SHARES rows cannot affect decisions/resolution.
        frozen_ids = frozenset(entity_ids)
        if policies_changed:
            self.stats.invalidations += self.decisions.clear()
        else:
            self.stats.invalidations += self.decisions.invalidate(
                frozen_ids, grant_changes
            )
        self.stats.invalidations += self.resolutions.invalidate(frozen_ids)
        if entity_ids or grant_changes:
            self._subtree_grantees = None
        if entity_ids:
            dead_chains = [
                key for key, (_, chain) in self._chains.items()
                if any(link.id in entity_ids for link in chain)
            ]
            for key in dead_chains:
                del self._chains[key]

    # -- decision cache front ----------------------------------------------

    def get_decision(
        self, key: tuple[Hashable, str, str], version: int
    ) -> Optional["AccessDecision"]:
        with self._lock:
            value = self.decisions.get(key, version)
            if value is not None:
                self.stats.authz_hits += 1
            else:
                self.stats.authz_misses += 1
        return value

    def put_decision(
        self,
        key: tuple[Hashable, str, str],
        value: "AccessDecision",
        identities: frozenset[str],
        chain_ids: frozenset[str],
        visibility: bool,
        version: int,
    ) -> None:
        with self._lock:
            if version == self.version:
                self.decisions.put(
                    key, value, identities, chain_ids, visibility, version
                )

    # -- resolution cache front --------------------------------------------

    def get_resolution(self, kind: SecurableKind, full_name: str,
                       version: int) -> Optional[Entity]:
        with self._lock:
            entity = self.resolutions.get(kind, full_name, version)
            if entity is not None:
                self.stats.resolution_hits += 1
            else:
                self.stats.resolution_misses += 1
        return entity

    def put_resolution(self, kind: SecurableKind, full_name: str, entity: Entity,
                       chain_ids: frozenset[str], version: int) -> None:
        with self._lock:
            if version == self.version:
                self.resolutions.put(kind, full_name, entity, chain_ids, version)

    # -- ancestor-chain memo -----------------------------------------------

    def chain(self, view: "MetastoreView", entity: Entity) -> tuple[Entity, ...]:
        """Entity followed by its ancestors, walked at most once per
        version (the memo is dropped when any chain member changes)."""
        version = view.version
        with self._lock:
            memo = self._chains.get(entity.id)
        if memo is not None and memo[0] <= version:
            return memo[1]
        chain = (entity, *view.ancestors(entity))
        with self._lock:
            if version == self.version:
                if len(self._chains) >= _MAX_ENTRIES:
                    self._chains.clear()
                self._chains[entity.id] = (version, chain)
        return chain

    # -- subtree-grantee index ---------------------------------------------

    def subtree_grantees(
        self, view: "MetastoreView"
    ) -> dict[str, frozenset[str]]:
        """Securable id -> principals holding any grant on it or on an
        active descendant, at ``view``'s version (the bundle's own).

        Built on first use with the same active-ancestor walk the
        uncached visibility scan does, and installed only if the bundle
        has not moved past ``view`` meanwhile."""
        version = view.version
        with self._lock:
            memo = self._subtree_grantees
        if memo is not None and memo[0] <= version:
            return memo[1]
        index = _build_subtree_grantees(view)
        with self._lock:
            if self._subtree_grantees is None and version == self.version:
                self._subtree_grantees = (version, index)
        return index


def _build_subtree_grantees(view: "MetastoreView") -> dict[str, frozenset[str]]:
    """Walk each granted securable up to the root once, crediting its
    grantees to every active entity on the way."""
    holders: dict[str, set[str]] = {}
    for _, row in view.rows(Tables.GRANTS):
        holders.setdefault(row["securable_id"], set()).add(row.get("principal"))
    index: dict[str, set[str]] = {}
    for securable_id, principals in holders.items():
        entity = view.entity_by_id(securable_id)
        while entity is not None:
            index.setdefault(entity.id, set()).update(principals)
            if entity.parent_id is None:
                break
            entity = view.entity_by_id(entity.parent_id)
    return {entity_id: frozenset(p) for entity_id, p in index.items()}
