"""The subtree-grantee index behind discovery authorization (section 4.4).

With a fast-path bundle, ``Authorizer.visible`` answers "a grant somewhere
below makes this container browsable" from the bundle's per-version
index; with ``cache=None`` it scans every grant row and walks each one up
through its active ancestors. The scan is the reference. Seeded random
estates go through every kind of change that can move the answer —
grants and revokes to users and nested groups, drops, renames, ownership
transfers and group-membership changes — and after each one both paths
must agree for every principal and every entity: on the trunk, on a
branch, and at a pinned past version.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.clock import SimClock
from repro.core.auth.privileges import Privilege
from repro.core.cache.decisions import HotPathCaches
from repro.core.model.entity import SecurableKind
from repro.core.persistence import branching
from repro.core.persistence.store import Tables
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.view import SnapshotView
from repro.errors import NotFoundError

USERS = [f"u{i}" for i in range(5)]
#: nested: g0 contains g1 contains g2
GROUPS = ["g0", "g1", "g2"]
PRINCIPALS = ["admin", *USERS, *GROUPS]
GRANTABLE = (SecurableKind.CATALOG, SecurableKind.SCHEMA,
             SecurableKind.TABLE, SecurableKind.VOLUME)
SEEDS = range(5)
STEPS = 30
#: grant/revoke pairs in the threaded test
FLIPS = 200


def _estate(seed: int):
    rng = random.Random(seed)
    svc = UnityCatalogService(clock=SimClock())
    directory = svc.directory
    for user in ["admin", *USERS]:
        directory.add_user(user)
    for group in GROUPS:
        directory.add_group(group)
    directory.add_member("g0", "g1")
    directory.add_member("g1", "g2")
    for user in USERS:
        if rng.random() < 0.5:
            directory.add_member(rng.choice(GROUPS), user)
    mid = svc.create_metastore("m", owner="admin").id
    for c in range(2):
        svc.create_securable(mid, "admin", SecurableKind.CATALOG, f"c{c}")
        for s in range(2):
            schema = f"c{c}.s{s}"
            svc.create_securable(mid, "admin", SecurableKind.SCHEMA, schema)
            for t in range(rng.randint(1, 3)):
                svc.create_securable(mid, "admin", SecurableKind.TABLE,
                                     f"{schema}.t{t}",
                                     spec={"table_type": "MANAGED"})
            if rng.random() < 0.7:
                svc.create_securable(mid, "admin", SecurableKind.VOLUME,
                                     f"{schema}.v0",
                                     spec={"volume_type": "MANAGED"})
    for _ in range(6):
        _grant(svc, mid, svc.view(mid), rng)
    return svc, mid, rng


def _targets(view, kinds=GRANTABLE):
    """(kind, full name) of every live securable of ``kinds``, sorted."""
    out = [(e.kind, view.full_name(e)) for e in view.entities()
           if e.kind in kinds]
    return sorted(out, key=lambda t: (t[0].value, t[1]))


def _grant(svc, mid, view, rng, prefix: str = "") -> None:
    """Grant a random privilege on a random securable — on the branch
    ``prefix`` (``c0@dev``) when given, so inside its catalog."""
    targets = _targets(view)
    if prefix:
        catalog = prefix.split("@")[0]
        targets = [t for t in targets if t[1].split(".")[0] == catalog]
    kind, name = rng.choice(targets)
    supported = sorted(svc.registry.get(kind).supported_privileges,
                       key=lambda p: p.value)
    svc.grant(mid, "admin", kind, _on(prefix, name), rng.choice(PRINCIPALS[1:]),
              rng.choice(supported))


def _on(prefix: str, name: str) -> str:
    """``name`` addressed on the branch ``prefix``, if any."""
    if not prefix:
        return name
    _, _, rest = name.partition(".")
    return prefix + ("." + rest if rest else "")


def _mutate(svc, mid, rng) -> str:
    """Apply one random change; returns what it did (for failure output)."""
    view = svc.view(mid)
    op = rng.choice(["grant", "grant", "revoke", "drop", "rename",
                     "transfer", "membership"])
    if op == "grant":
        _grant(svc, mid, view, rng)
    elif op == "revoke":
        rows = sorted(key for key, _ in view.rows(Tables.GRANTS))
        live = []
        for key in rows:
            row = view.row(Tables.GRANTS, key)
            entity = view.entity_by_id(row["securable_id"])
            if entity is not None:
                live.append((entity, row))
        if not live:
            return "revoke (nothing granted)"
        entity, row = rng.choice(live)
        svc.revoke(mid, "admin", entity.kind, view.full_name(entity),
                   row["principal"], Privilege(row["privilege"]))
    elif op == "drop":
        leaves = _targets(view, (SecurableKind.TABLE, SecurableKind.VOLUME))
        if len(leaves) <= 2:
            return "drop (too few left)"
        kind, name = rng.choice(leaves)
        svc.delete_securable(mid, "admin", kind, name)
    elif op == "rename":
        kind, name = rng.choice(_targets(view, (SecurableKind.SCHEMA,
                                                SecurableKind.TABLE)))
        svc.rename_securable(mid, "admin", kind, name,
                             f"{name.rsplit('.', 1)[-1]}_r{rng.randrange(1000)}")
    elif op == "transfer":
        kind, name = rng.choice(_targets(view))
        svc.transfer_ownership(mid, "admin", kind, name,
                               rng.choice(PRINCIPALS))
    else:
        user, group = rng.choice(USERS), rng.choice(GROUPS)
        try:
            svc.directory.remove_member(group, user)
        except NotFoundError:
            svc.directory.add_member(group, user)
    return op


def _assert_index_matches_scan(svc, view, bundle) -> None:
    """Both visibility paths agree everywhere, and the index agrees with
    the scan it replaces on its own."""
    auth = svc.authorizer
    index = bundle.subtree_grantees(view)
    for principal in PRINCIPALS:
        identities = auth.identities(principal)
        for entity in view.entities():
            scanned = auth._granted_in_subtree(view, entity, identities)
            indexed = not identities.isdisjoint(index.get(entity.id, ()))
            assert indexed == scanned, (principal, view.full_name(entity))
            assert (auth.visible(view, entity, identities, bundle)
                    == auth.visible(view, entity, identities, None)), (
                principal, view.full_name(entity))


def _branch_view(svc, mid, bkey: str):
    view = SnapshotView(branching.branch_snapshot(svc.store, mid, bkey),
                        svc.registry)
    view.branch = bkey
    return view


@pytest.mark.parametrize("seed", SEEDS)
def test_trunk_index_matches_scan_after_every_change(seed):
    svc, mid, rng = _estate(seed)
    for step in range(STEPS):
        done = _mutate(svc, mid, rng)
        view = svc.view(mid)
        bundle = svc._hot_caches_for(mid, view)
        assert bundle is not None
        try:
            _assert_index_matches_scan(svc, view, bundle)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed} step {step} ({done}): {exc}")


@pytest.mark.parametrize("seed", SEEDS)
def test_branch_index_matches_scan(seed):
    svc, mid, rng = _estate(seed)
    svc.create_branch(mid, "admin", "c0", "dev")
    bkey = "c0@dev"
    for step in range(8):
        view = _branch_view(svc, mid, bkey)
        bundle = svc._hot_caches_for(mid, view)
        assert bundle is not None and bundle is not svc.hot_caches(mid)
        _assert_index_matches_scan(svc, view, bundle)
        # change the branch, then the trunk (which the branch must not see)
        if rng.random() < 0.5:
            _grant(svc, mid, view, rng, bkey)
        else:
            kind, name = rng.choice(
                [t for t in _targets(view) if t[1].split(".")[0] == "c0"])
            svc.transfer_ownership(mid, "admin", kind, _on(bkey, name),
                                   rng.choice(PRINCIPALS))
        _mutate(svc, mid, rng)
    view = _branch_view(svc, mid, bkey)
    _assert_index_matches_scan(svc, view, svc._hot_caches_for(mid, view))


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_version_index_matches_scan(seed):
    """A view pinned behind the bundle gets no bundle (the scan answers);
    a bundle of its own, pinned at that version, must match the scan."""
    svc, mid, rng = _estate(seed)
    for _ in range(5):
        _mutate(svc, mid, rng)
    pinned = svc.store.current_version(mid)
    for _ in range(10):
        _mutate(svc, mid, rng)
    view = SnapshotView(svc.store.snapshot(mid, pinned), svc.registry)
    assert svc._hot_caches_for(mid, view) is None
    bundle = HotPathCaches(
        mid, pinned, lambda v: svc.store.changes_since(mid, v),
        lambda: svc.directory.generation,
    )
    _assert_index_matches_scan(svc, view, bundle)


def test_index_is_built_once_per_version_and_dropped_on_grant():
    svc, mid, _ = _estate(0)
    view = svc.view(mid)
    bundle = svc._hot_caches_for(mid, view)
    first = bundle.subtree_grantees(view)
    assert bundle.subtree_grantees(view) is first
    # tags touch neither entities nor grants: the index survives
    svc.set_tag(mid, "admin", SecurableKind.CATALOG, "c0", "k", "v")
    view = svc.view(mid)
    assert svc._hot_caches_for(mid, view).subtree_grantees(view) is first
    svc.grant(mid, "admin", SecurableKind.CATALOG, "c0", "u0",
              Privilege.BROWSE)
    view = svc.view(mid)
    rebuilt = svc._hot_caches_for(mid, view).subtree_grantees(view)
    assert rebuilt is not first
    c0 = next(e for e in view.entities() if e.name == "c0")
    assert "u0" in rebuilt[c0.id]


def test_readers_lose_visibility_exactly_at_the_revoke_version():
    """Real threads: each reader pins a view, asks through the bundle
    whether a catalog is visible, and must get the answer of exactly its
    view's version — the catalog is visible only through a grant on one
    table inside it, which a writer grants and revokes in turn."""
    svc = UnityCatalogService()
    for user in ("admin", "reader"):
        svc.directory.add_user(user)
    mid = svc.create_metastore("m", owner="admin").id
    svc.create_securable(mid, "admin", SecurableKind.CATALOG, "c")
    svc.create_securable(mid, "admin", SecurableKind.SCHEMA, "c.s")
    for t in range(4):
        svc.create_securable(mid, "admin", SecurableKind.TABLE, f"c.s.t{t}",
                             spec={"table_type": "MANAGED"})
    catalog = next(e for e in svc.view(mid).entities() if e.name == "c")
    identities = svc.authorizer.identities("reader")
    #: commit version -> visible from that version on
    states = {svc.store.current_version(mid): False}
    observations: list[tuple[int, bool]] = []
    done = threading.Event()
    errors: list[Exception] = []

    def reader() -> None:
        try:
            while not done.is_set():
                view = svc.view(mid)
                bundle = svc._hot_caches_for(mid, view)
                observations.append((view.version, svc.authorizer.visible(
                    view, catalog, identities, bundle)))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    # switch threads every few bytecodes so that readers land between a
    # writer's commit and the bundle catching up to it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    for thread in threads:
        thread.start()
    try:
        for flip in range(FLIPS):
            table = f"c.s.t{flip % 4}"
            svc.grant(mid, "admin", SecurableKind.TABLE, table, "reader",
                      Privilege.SELECT)
            states[svc.store.current_version(mid)] = True
            svc.revoke(mid, "admin", SecurableKind.TABLE, table, "reader",
                       Privilege.SELECT)
            states[svc.store.current_version(mid)] = False
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    versions = sorted(states)
    assert len(versions) == 2 * FLIPS + 1
    assert observations
    for version, visible in observations:
        at = max(v for v in versions if v <= version)
        assert visible == states[at], (version, visible)
