"""The benchmark's four workloads: estates, seeded op streams, answer models.

Every workload drives the real catalog code on a ``WallClock`` through the
public API only (``CatalogCluster.dispatch``, ``ServiceRouter.handle``,
``ParallelServingTier.dispatch``). A workload object is built once per
estate; ``op(i, client)`` runs op ``i`` of the seeded stream and returns
``(is_write, result)`` with the answer unchecked; ``check(i, client,
result)`` compares it with the workload's own seeded model, outside the
timed call. Op ``i`` is a pure function of the seed and ``i``, so a run's
op sequence never depends on how fast the machine is.

Op mixes are fixed per block of ops and shuffled inside each block, so
every seed has exactly the same share of each op type, and every op type
is either under 5 % or over 15 % of its workload: no type's latency
cluster sits on the p50 or p90 boundary.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Any

from repro.clock import WallClock
from repro.core.auth.abac import AbacEffect, TagCondition
from repro.core.auth.privileges import Privilege
from repro.core.cluster import CatalogCluster, ReadSession
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.rest import ServiceRouter
from repro.serve import ParallelServingTier

CATALOG, SCHEMA, TABLE = (SecurableKind.CATALOG, SecurableKind.SCHEMA,
                          SecurableKind.TABLE)
ADMIN = "admin"
READER = "alice"
TABLE_SPEC = {
    "table_type": "MANAGED",
    "format": "DELTA",
    "columns": [
        {"name": "id", "type": "BIGINT"},
        {"name": "region", "type": "STRING"},
        {"name": "amount", "type": "DOUBLE"},
    ],
}
#: ops in one cycle of a seeded stream (op i runs stream[i % CYCLE]); a
#: multiple of every mix block, so each cycle holds whole blocks
CYCLE = 10000


def _blocks(rng: random.Random, mix: list[tuple[str, int]], blocks: int) -> list[str]:
    """``blocks`` blocks of op kinds, each with ``mix``'s exact counts in
    a shuffled order."""
    block = [kind for kind, count in mix for _ in range(count)]
    out: list[str] = []
    for _ in range(blocks):
        rng.shuffle(block)
        out.extend(block)
    return out


class Unexpected(Exception):
    """An answer that disagrees with the workload's model."""


class Workload:
    """What ``bench.py`` needs of a workload besides ``op``/``check``.

    A subclass's constructor builds and warms the estate and sets
    ``services`` (every service of the estate: a cluster has one per shard
    replica) and ``cluster_registry`` (the cluster's own metrics registry,
    or nothing)."""

    name = ""
    clients = 1
    #: traced-phase op count: fixed, so its work counts repeat exactly
    TRACE_OPS = 3000
    services: list
    cluster_registry: list

    def registries(self) -> list:
        """Every metrics registry of the estate: each service keeps a
        private ``Observability``."""
        return self.cluster_registry + [s.obs.metrics for s in self.services]

    def close(self) -> None:
        """Stop whatever threads the estate started."""


def _replica_services(cluster: CatalogCluster) -> list:
    return [replica.service for shard in cluster.shards
            for replica in shard.group.replicas]


# ---------------------------------------------------------------------------
# query-hot / query-contend: engine query-time resolution on a 2-shard cluster


class QueryHot(Workload):
    """Life-of-a-query resolution of hot 8-table query sets (paper §3.4).

    The estate is the governed namespace of the hot-path benchmark: nested
    groups, 24 noise grantees on every securable, ``tier=gold`` tags on
    every fourth table, an ABAC row filter and a dynamic grant on gold
    tables, and one view per schema. Each catalog is pinned to its own
    shard. Every 50th op grants and revokes SELECT on a table to its
    client's own grantee, which invalidates cached decisions without
    changing any query's answer.
    """

    name = "query-hot"
    NOISE_USERS = 24
    CATALOGS = 2
    SCHEMAS = 2
    TABLES = 32
    QUERY_SETS = 64
    PER_QUERY = 8
    TOGGLE_EVERY = 50

    def __init__(self, seed: int):
        self.cluster = CatalogCluster(self.CATALOGS, clock=WallClock(),
                                      read_version_check=False)
        self.services = _replica_services(self.cluster)
        self.cluster_registry = [self.cluster.obs.metrics]
        self.front = self.cluster
        self._build()
        self._plan(seed)
        self._warm()

    def _build(self) -> None:
        cluster = self.cluster
        directory = cluster.directory
        noise = [f"user{i:02d}" for i in range(self.NOISE_USERS)]
        for user in [ADMIN, READER, "bob0", "bob1", *noise]:
            directory.add_user(user)
        for group in ("all-users", "data-users", "analysts"):
            directory.add_group(group)
        directory.add_member("all-users", "data-users")
        directory.add_member("data-users", "analysts")
        directory.add_member("analysts", READER)
        for user in noise:
            directory.add_member("all-users", user)
        mid = self.mid = cluster.create_metastore("hotbench", owner=ADMIN).id

        def call(api: str, **params: Any) -> Any:
            return cluster.dispatch(api, metastore_id=mid, principal=ADMIN, **params)

        def grant_all(kind, name, privilege) -> None:
            for grantee in ["analysts", *noise]:
                call("grant", kind=kind, name=name, grantee=grantee,
                     privilege=privilege)

        for c in range(self.CATALOGS):
            catalog = f"cat{c}"
            call("create_securable", kind=CATALOG, name=catalog)
            cluster.migrate_catalog(mid, catalog, f"shard-{c}").run()
            grant_all(CATALOG, catalog, Privilege.USE_CATALOG)
            for s in range(self.SCHEMAS):
                call("create_securable", kind=SCHEMA, name=f"{catalog}.s{s}")
                grant_all(SCHEMA, f"{catalog}.s{s}", Privilege.USE_SCHEMA)
        slots = self.CATALOGS * self.SCHEMAS
        self.tables: list[str] = []
        self.gold: set[str] = set()
        for i in range(self.TABLES):
            c, s = divmod(i % slots, self.SCHEMAS)
            name = f"cat{c}.s{s}.t{i}"
            call("create_securable", kind=TABLE, name=name, spec=TABLE_SPEC)
            grant_all(TABLE, name, Privilege.SELECT)
            if i % 4 == 0:
                call("set_tag", kind=TABLE, name=name, key="tier", value="gold")
                self.gold.add(name)
            self.tables.append(name)
        self.views: dict[str, tuple[str, ...]] = {}
        for c in range(self.CATALOGS):
            for s in range(self.SCHEMAS):
                schema = f"cat{c}.s{s}"
                deps = tuple([t for t in self.tables
                              if t.startswith(schema + ".")][:2])
                view = f"{schema}.v"
                call("create_securable", kind=TABLE, name=view, spec={
                    "table_type": "VIEW",
                    "view_definition": f"SELECT * FROM {' JOIN '.join(deps)}",
                    "view_dependencies": list(deps),
                    "columns": [{"name": "id", "type": "BIGINT"}],
                })
                grant_all(TABLE, view, Privilege.SELECT)
                self.views[view] = deps
        call("create_abac_policy", name="gold-row-filter",
             scope_kind=SecurableKind.METASTORE, scope_name=None,
             condition=TagCondition("tier", "gold"),
             effect=AbacEffect.FILTER_ROWS, predicate_sql="region = 'emea'")
        call("create_abac_policy", name="gold-dynamic-select",
             scope_kind=SecurableKind.METASTORE, scope_name=None,
             condition=TagCondition("tier", "gold"),
             effect=AbacEffect.GRANT, privilege=Privilege.SELECT,
             principals=("data-users",))

    def _plan(self, seed: int) -> None:
        """Seeded query sets, a Pareto-skewed choice of set per op, and the
        tables the toggles hit.

        Every query set has one shape, so that a seed changes which tables
        a query names but not how much work it is or how it splits over
        the shards: two gold tables and two other tables of ``cat0``, and
        one view (two more assets through its dependencies) and three
        other tables of ``cat1``."""
        rng = random.Random(seed)
        in_cat = {c: [t for t in self.tables if t.startswith(f"cat{c}.")]
                  for c in range(self.CATALOGS)}
        gold = sorted(self.gold)
        plain0 = [t for t in in_cat[0] if t not in self.gold]
        views1 = sorted(v for v in self.views if v.startswith("cat1."))
        self.query_sets: list[list[str]] = []
        for _ in range(self.QUERY_SETS):
            view = rng.choice(views1)
            plain1 = [t for t in in_cat[1] if t not in self.views[view]]
            self.query_sets.append(sorted([
                *rng.sample(gold, 2), *rng.sample(plain0, 2),
                view, *rng.sample(plain1, 3)]))
        self.expected = [self._expected(q) for q in self.query_sets]
        weights = list(itertools.accumulate(
            1.0 / (k + 1) ** 1.2 for k in range(self.QUERY_SETS)))
        self.stream: list[tuple[str, Any]] = []
        for i in range(CYCLE):
            if i % self.TOGGLE_EVERY == self.TOGGLE_EVERY - 1:
                self.stream.append(("toggle", rng.choice(self.tables)))
            else:
                pick = bisect.bisect(weights, rng.random() * weights[-1])
                self.stream.append(("query", min(pick, self.QUERY_SETS - 1)))

    def _expected(self, names: list[str]) -> dict[str, tuple[bool, bool]]:
        """Asset name -> (row filter expected, credential expected)."""
        out: dict[str, tuple[bool, bool]] = {}
        for name in names:
            for asset in (name, *self.views.get(name, ())):
                is_view = asset in self.views
                out[asset] = (asset in self.gold, not is_view)
        return out

    def _warm(self) -> None:
        for names in self.query_sets:
            self._resolve(names)

    def _dispatch(self, api: str, **params: Any) -> Any:
        return self.front.dispatch(api, metastore_id=self.mid, **params)

    def _resolve(self, names: list[str]):
        return self._dispatch("resolve_for_query", principal=READER,
                              table_names=names, include_credentials=True,
                              engine_trusted=True)

    def op(self, i: int, client: int) -> tuple[bool, Any]:
        kind, arg = self.stream[i % CYCLE]
        if kind == "query":
            return False, self._resolve(self.query_sets[arg])
        # a grant and its revoke in one op: every write op is the same
        # pair, so the write median never sits between a grant cluster and
        # a revoke cluster
        for api in ("grant", "revoke"):
            self._dispatch(api, principal=ADMIN, kind=TABLE, name=arg,
                           grantee=f"bob{client}", privilege=Privilege.SELECT)
        return True, None

    def check(self, i: int, client: int, result: Any) -> None:
        kind, arg = self.stream[i % CYCLE]
        if kind != "query":
            return
        expected = self.expected[arg]
        assets = result.assets
        if assets.keys() != expected.keys():
            raise Unexpected(f"asset set {sorted(assets)} != {sorted(expected)}")
        for name, (filtered, credential) in expected.items():
            asset = assets[name]
            if (not asset.fgac.is_empty) != filtered:
                raise Unexpected(f"FGAC on {name}: {asset.fgac.to_dict()}")
            if (asset.credential is not None) != credential:
                raise Unexpected(f"credential on {name}: {asset.credential}")

    def final_check(self) -> None:
        """No toggled grant outlives its op."""
        for name in self.tables:
            grants = self._dispatch("grants_on", principal=ADMIN, kind=TABLE, name=name)
            if any(g.principal.startswith("bob") for g in grants):
                raise Unexpected(f"a toggled grant on {name} survived: {grants}")


class QueryContend(QueryHot):
    """``query-hot``'s op stream split across two closed-loop clients, with
    the parallel serving tier placing shard work on its workers."""

    name = "query-contend"
    clients = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.front = ParallelServingTier(self.cluster, workers_per_shard=1,
                                         front_door_workers=self.clients)
        self._warm()

    def close(self) -> None:
        self.front.close()


# ---------------------------------------------------------------------------
# rest-browse: catalog UI and discovery traffic through the REST router


class RestBrowse(Workload):
    """Catalog UI / discovery traffic through ``ServiceRouter.handle``.

    Thousands of principals browse through one group's grants, so nearly
    every authorization decision is a first touch: the working set is
    larger than the program's decision caches. A quarter of the tables are
    not granted to the group; a GET of one must answer 403.
    """

    name = "rest-browse"
    PRINCIPALS = 3000
    CATALOGS = 2
    SCHEMAS = 4
    TABLES_PER_SCHEMA = 16
    TRACE_OPS = 300
    BASE = "/api/2.1/unity-catalog"
    #: every table is owned by one of these; an owner PATCH hands it to
    #: the other, so every PATCH does the same work
    STEWARDS = ("steward0", "steward1")
    #: per 100 ops: 72 GETs, 20 lists, 4 information-schema queries and 4
    #: writes. A GET of a granted table or of a schema is fast; a GET of an
    #: ungranted table walks every grant row before its 403. Either GET
    #: type is over 15 % of the mix, so the median op is a 403 GET and the
    #: p90 op a list, not the boundary between two clusters.
    MIX = [("get_table", 30), ("get_denied", 38), ("get_schema", 4), ("list", 20),
           ("info", 4), ("owner", 3), ("tag", 1)]

    def __init__(self, seed: int):
        self.service = UnityCatalogService(clock=WallClock())
        self.services = [self.service]
        self.cluster_registry = []
        self.router = ServiceRouter(self.service)
        self._build(random.Random(seed))
        self._plan(random.Random(seed ^ 0x5EED))
        self._warm()

    def _build(self, rng: random.Random) -> None:
        service = self.service
        directory = service.directory
        for user in (ADMIN, *self.STEWARDS):
            directory.add_user(user)
        directory.add_group("browsers")
        self.principals = [f"u{i:04d}" for i in range(self.PRINCIPALS)]
        for user in self.principals:
            directory.add_user(user)
            directory.add_member("browsers", user)
        self.mid = service.create_metastore("browsebench", owner=ADMIN).id
        self.schemas: list[str] = []
        #: schema -> tables granted to the group (the visible set)
        self.visible: dict[str, list[str]] = {}
        self.granted: set[str] = set()
        self.tables: list[str] = []
        for c in range(self.CATALOGS):
            catalog = f"cat{c}"
            self._post("catalogs", {"name": catalog})
            self._grant(CATALOG, catalog, Privilege.USE_CATALOG)
            for s in range(self.SCHEMAS):
                schema = f"{catalog}.s{s}"
                self._post("schemas", {"name": schema})
                self._grant(SCHEMA, schema, Privilege.USE_SCHEMA)
                self.schemas.append(schema)
                names = [f"{schema}.t{t:02d}" for t in range(self.TABLES_PER_SCHEMA)]
                hidden = set(rng.sample(names, len(names) // 4))
                for name in names:
                    self._post("tables", {"name": name, "spec": TABLE_SPEC})
                    if name not in hidden:
                        self._grant(TABLE, name, Privilege.SELECT)
                        self.granted.add(name)
                self.visible[schema] = sorted(n.rsplit(".", 1)[1] for n in names
                                              if n not in hidden)
                self.tables.extend(names)
        self.readable = sorted(self.granted)
        self.hidden = sorted(set(self.tables) - self.granted)
        #: table -> current owner, flipped by owner PATCHes
        self.owners = {}
        for name in self.tables:
            self._patch_owner(name, self.STEWARDS[0])

    def _post(self, resource: str, body: dict) -> Any:
        status, out = self.router.handle(
            "POST", f"{self.BASE}/{resource}", principal=ADMIN,
            body={"metastore": self.mid, **body})
        if status not in (200, 201):
            raise Unexpected(f"POST {resource} {body}: {status} {out}")
        return out

    def _patch_owner(self, table: str, owner: str) -> tuple[int, Any]:
        self.owners[table] = owner
        return self.router.handle("PATCH", f"{self.BASE}/tables/{table}", principal=ADMIN,
                                  params={"metastore": self.mid}, body={"new_owner": owner})

    def _grant(self, kind, name: str, privilege: Privilege) -> None:
        self._post("grants", {"securable_kind": kind.value, "securable_name": name,
                              "principal": "browsers", "privilege": privilege.value})

    def _plan(self, rng: random.Random) -> None:
        kinds = _blocks(rng, self.MIX, CYCLE // 100)
        self.stream: list[tuple] = []
        for kind in kinds:
            principal = rng.choice(self.principals)
            if kind == "get_table":
                self.stream.append((kind, principal, rng.choice(self.readable)))
            elif kind == "get_denied":
                self.stream.append((kind, principal, rng.choice(self.hidden)))
            elif kind in ("get_schema", "list", "info"):
                self.stream.append((kind, principal, rng.choice(self.schemas)))
            elif kind == "owner":
                self.stream.append((kind, ADMIN, rng.choice(self.tables)))
            else:
                self.stream.append((kind, ADMIN, rng.choice(self.tables),
                                    f"team{rng.randrange(8)}"))

    def _warm(self) -> None:
        """Runs the reads among the cycle's last 200 ops, which a timed
        window starting at op 0 does not reach."""
        for i in range(CYCLE - 200, CYCLE):
            if self.stream[i][0] not in ("owner", "tag"):
                self.check(i, 0, self.op(i, 0)[1])

    def op(self, i: int, client: int) -> tuple[bool, Any]:
        kind, principal, target, *rest = self.stream[i % CYCLE]
        handle, base, mid = self.router.handle, self.BASE, self.mid
        if kind in ("get_table", "get_denied"):
            return False, handle("GET", f"{base}/tables/{target}", principal=principal,
                                 params={"metastore": mid})
        if kind == "get_schema":
            return False, handle("GET", f"{base}/schemas/{target}", principal=principal,
                                 params={"metastore": mid})
        if kind == "list":
            return False, handle("GET", f"{base}/tables", principal=principal,
                                 params={"metastore": mid, "parent": target})
        if kind == "info":
            catalog, schema = target.split(".")
            return False, handle("GET", f"{base}/information-schema",
                                 principal=principal,
                                 params={"metastore": mid, "kind": "TABLE",
                                         "catalog": catalog, "schema": schema})
        if kind == "owner":
            first, second = self.STEWARDS
            return True, self._patch_owner(
                target, second if self.owners[target] == first else first)
        return True, handle("POST", f"{base}/tags", principal=principal,
                            body={"metastore": mid, "securable_kind": "TABLE",
                                  "securable_name": target, "key": "team",
                                  "value": rest[0]})

    def check(self, i: int, client: int, result: Any) -> None:
        kind, principal, target, *_ = self.stream[i % CYCLE]
        status, body = result
        if kind in ("get_table", "get_denied"):
            expected = 200 if target in self.granted else 403
            if status != expected or (
                    status == 200 and body["name"] != target.rsplit(".", 1)[1]):
                raise Unexpected(f"GET {target} as {principal}: {status} {body}")
        elif kind == "list":
            names = sorted(item["name"] for item in body.get("items", ()))
            if status != 200 or names != self.visible[target]:
                raise Unexpected(f"list {target} as {principal}: {status} {names}")
        elif kind == "info":
            names = sorted(row["name"] for row in body.get("rows", ()))
            if status != 200 or names != self.visible[target]:
                raise Unexpected(f"info {target} as {principal}: {status} {names}")
        elif kind == "owner":
            if status != 200 or body["owner"] != self.owners[target]:
                raise Unexpected(f"PATCH owner {target}: {status} {body}")
        elif status != 200:
            raise Unexpected(f"{kind} {target} as {principal}: {status} {body}")

    def final_check(self) -> None:
        """Owners flipped during the run equal the model."""
        for name in self.tables:
            status, body = self.router.handle(
                "GET", f"{self.BASE}/tables/{name}", principal=ADMIN,
                params={"metastore": self.mid})
            if status != 200 or body["owner"] != self.owners[name]:
                raise Unexpected(f"owner of {name}: {status} {body}")


# ---------------------------------------------------------------------------
# govern-write: governance and DDL writes beside read-your-writes reads


class GovernWrite(Workload):
    """Grant, tag, comment and DDL writes on a 2-shard x 3-replica cluster,
    each grant toggle followed by a follower read of the table's grants
    under a read-your-writes session."""

    name = "govern-write"
    CATALOGS = 2
    SCHEMAS = 2
    TABLES_PER_SCHEMA = 20
    GRANTEES = 20
    REPLICAS = 3
    #: per 50 ops: 19 grant/revoke toggles each followed at once by a
    #: follower read of that table's grants, 1 more toggle, 8 tag sets, 1
    #: comment update, 1 create and 1 drop of a temporary table. Every read
    #: comes right after a write to its shard, so every read pays the same
    #: follower catch-up and the read median never sits between reads that
    #: do and reads that do not.
    MIX = [("pair", 19), ("toggle", 1), ("tag", 8), ("comment", 1), ("churn", 2)]

    def __init__(self, seed: int):
        self.cluster = CatalogCluster(
            self.CATALOGS, clock=WallClock(), read_version_check=False,
            replicas_per_shard=self.REPLICAS)
        self.services = _replica_services(self.cluster)
        self.cluster_registry = [self.cluster.obs.metrics]
        self.session = ReadSession()
        self._build()
        self._plan(random.Random(seed))
        self._warm()

    def _build(self) -> None:
        cluster = self.cluster
        directory = cluster.directory
        directory.add_user(ADMIN)
        self.grantees = [f"p{i:02d}" for i in range(self.GRANTEES)]
        for user in self.grantees:
            directory.add_user(user)
        self.mid = cluster.create_metastore("governbench", owner=ADMIN).id
        self.tables: list[str] = []
        self.schemas: list[str] = []
        for c in range(self.CATALOGS):
            catalog = f"cat{c}"
            self._write("create_securable", kind=CATALOG, name=catalog)
            cluster.migrate_catalog(self.mid, catalog, f"shard-{c}").run()
            for s in range(self.SCHEMAS):
                schema = f"{catalog}.s{s}"
                self._write("create_securable", kind=SCHEMA, name=schema)
                self.schemas.append(schema)
                for t in range(self.TABLES_PER_SCHEMA):
                    name = f"{schema}.t{t:02d}"
                    self._write("create_securable", kind=TABLE, name=name,
                                spec=TABLE_SPEC)
                    self.tables.append(name)
        #: table -> grantees holding SELECT; table -> tag; table -> comment
        self.grants: dict[str, set[str]] = {name: set() for name in self.tables}
        self.tags: dict[str, str] = {}
        self.comments: dict[str, str] = {}

    def _write(self, api: str, **params: Any) -> Any:
        return self.cluster.dispatch(api, metastore_id=self.mid, principal=ADMIN,
                                     _session=self.session, **params)

    def _read(self, api: str, **params: Any) -> Any:
        return self.cluster.dispatch(api, metastore_id=self.mid, principal=ADMIN,
                                     _session=self.session,
                                     _read_preference="follower", **params)

    def _plan(self, rng: random.Random) -> None:
        self.stream: list[tuple] = []
        churned = 0
        for kind in _blocks(rng, self.MIX, CYCLE // 50):
            if kind in ("pair", "toggle"):
                table = rng.choice(self.tables)
                self.stream.append(("toggle", table, rng.choice(self.grantees)))
                if kind == "pair":
                    self.stream.append(("read", table))
            elif kind == "tag":
                self.stream.append((kind, rng.choice(self.tables),
                                    f"class{rng.randrange(4)}"))
            elif kind == "comment":
                self.stream.append((kind, rng.choice(self.tables),
                                    f"note {rng.randrange(1000)}"))
            else:
                # churn ops pair up in stream order: a create, then its drop
                if churned % 2 == 0:
                    temporary = f"{rng.choice(self.schemas)}.tmp{churned // 2}"
                self.stream.append(("create" if churned % 2 == 0 else "drop", temporary))
                churned += 1

    def _warm(self) -> None:
        for table in self.tables:
            self._read("grants_on", kind=TABLE, name=table)
            self._read("tags_of", kind=TABLE, name=table)

    def op(self, i: int, client: int) -> tuple[bool, Any]:
        kind, table, *rest = self.stream[i % CYCLE]
        if kind == "read":
            return False, self._read("grants_on", kind=TABLE, name=table)
        if kind == "toggle":
            holders = self.grants[table]
            api = "revoke" if rest[0] in holders else "grant"
            self._write(api, kind=TABLE, name=table, grantee=rest[0],
                        privilege=Privilege.SELECT)
            holders.symmetric_difference_update({rest[0]})
        elif kind == "tag":
            self._write("set_tag", kind=TABLE, name=table, key="class", value=rest[0])
            self.tags[table] = rest[0]
        elif kind == "comment":
            self._write("update_securable", kind=TABLE, name=table, comment=rest[0])
            self.comments[table] = rest[0]
        else:
            name = f"{table}x{i // CYCLE}"
            if kind == "create":
                self._write("create_securable", kind=TABLE, name=name, spec=TABLE_SPEC)
            else:
                self._write("delete_securable", kind=TABLE, name=name)
        return True, None

    def check(self, i: int, client: int, result: Any) -> None:
        kind, table, *_ = self.stream[i % CYCLE]
        if kind == "read" and {g.principal for g in result} != self.grants[table]:
            raise Unexpected(f"grants on {table}: {result}, model {self.grants[table]}")

    def final_check(self) -> None:
        """Final grants, tags and comments, read from the leaders, equal the
        model."""
        for table in self.tables:
            grants = self.cluster.dispatch("grants_on", metastore_id=self.mid,
                                           principal=ADMIN, kind=TABLE, name=table)
            tags = self.cluster.dispatch("tags_of", metastore_id=self.mid,
                                         principal=ADMIN, kind=TABLE, name=table)
            entity = self.cluster.dispatch("get_securable", metastore_id=self.mid,
                                           principal=ADMIN, kind=TABLE, name=table)
            if ({g.principal for g in grants} != self.grants[table]
                    or tags.get("class") != self.tags.get(table)
                    or entity.comment != self.comments.get(table, "")):
                raise Unexpected(f"final state of {table}: {grants} {tags} "
                                 f"{entity.comment!r}")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (QueryHot, RestBrowse, GovernWrite, QueryContend)
}
