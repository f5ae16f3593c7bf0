"""The REST API layer and the real HTTP transport."""

import pytest

from repro.core.service.http_server import (
    UnityCatalogHttpClient,
    UnityCatalogHttpServer,
)
from repro.core.service.rest import RestApi
from repro.core.model.entity import SecurableKind
from repro.errors import UnityCatalogError

from tests.conftest import grant_table_access

TABLE = "sales.q1.orders"
BASE = "/api/2.1/unity-catalog"


@pytest.fixture
def api(service, populated):
    return RestApi(service)


@pytest.fixture
def mid(populated):
    return populated["metastore_id"]


class TestRestApi:
    def test_get_securable(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 200
        assert body["name"] == "orders"
        assert body["spec"]["table_type"] == "MANAGED"

    def test_metastore_accepts_raw_id(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": mid},
        )
        assert status == 200

    def test_404_for_missing(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/sales.q1.ghost", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 404
        assert body["error_code"] == "RESOURCE_DOES_NOT_EXIST"

    def test_403_for_denied(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="bob",
            params={"metastore": "main"},
        )
        assert status == 403
        assert body["error_code"] == "PERMISSION_DENIED"

    def test_create_catalog(self, api, mid):
        status, body = api.handle(
            "POST", f"{BASE}/catalogs", principal="alice",
            body={"metastore": "main", "name": "marketing"},
        )
        assert status == 201
        assert body["kind"] == "CATALOG"

    def test_duplicate_create_is_409(self, api, mid):
        status, _ = api.handle(
            "POST", f"{BASE}/catalogs", principal="alice",
            body={"metastore": "main", "name": "sales"},
        )
        assert status == 409

    def test_list_catalogs(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/catalogs", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 200
        assert [c["name"] for c in body["items"]] == ["sales"]

    def test_patch_comment(self, api, mid):
        status, body = api.handle(
            "PATCH", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main"}, body={"comment": "orders fact"},
        )
        assert status == 200 and body["comment"] == "orders fact"

    def test_delete(self, api, mid):
        status, body = api.handle(
            "DELETE", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 200 and body["deleted"] == 1

    def test_grants_roundtrip(self, api, service, mid):
        status, _ = api.handle(
            "POST", f"{BASE}/grants", principal="alice",
            body={"metastore": "main", "securable_kind": "TABLE",
                  "securable_name": TABLE, "principal": "bob",
                  "privilege": "SELECT"},
        )
        assert status == 201
        status, body = api.handle(
            "GET", f"{BASE}/grants", principal="alice",
            params={"metastore": "main", "securable_kind": "TABLE",
                    "securable_name": TABLE},
        )
        assert [g["principal"] for g in body["grants"]] == ["bob"]
        status, _ = api.handle(
            "DELETE", f"{BASE}/grants", principal="alice",
            body={"metastore": "main", "securable_kind": "TABLE",
                  "securable_name": TABLE, "principal": "bob",
                  "privilege": "SELECT"},
        )
        assert status == 200

    def test_temporary_credentials_by_name(self, api, service, mid):
        grant_table_access(service, mid, "bob")
        status, body = api.handle(
            "POST", f"{BASE}/temporary-credentials", principal="bob",
            body={"metastore": "main", "securable_kind": "TABLE",
                  "securable_name": TABLE, "access_level": "READ"},
        )
        assert status == 200
        assert body["token"] and body["scope"].startswith("s3://")

    def test_temporary_credentials_by_path(self, api, service, mid):
        grant_table_access(service, mid, "bob")
        table = service.get_securable(mid, "alice", SecurableKind.TABLE, TABLE)
        status, body = api.handle(
            "POST", f"{BASE}/temporary-credentials", principal="bob",
            body={"metastore": "main", "path": table.storage_path + "/f",
                  "access_level": "READ"},
        )
        assert status == 200
        assert body["resolved_asset"] == "orders"

    def test_batched_resolve(self, api, service, mid):
        grant_table_access(service, mid, "bob")
        status, body = api.handle(
            "POST", f"{BASE}/resolve", principal="bob",
            body={"metastore": "main", "tables": [TABLE]},
        )
        assert status == 200
        asset = body["assets"][TABLE]
        assert asset["credential"]["token"]
        assert asset["columns"][0]["name"] == "id"

    def test_unknown_route_404(self, api):
        status, _ = api.handle("GET", "/nope", principal="alice")
        assert status == 404
        status, _ = api.handle("GET", f"{BASE}/frobnicators", principal="alice")
        assert status == 404

    def test_missing_metastore_param_400(self, api):
        status, body = api.handle("GET", f"{BASE}/catalogs", principal="alice")
        assert status == 400


class TestMalformedInput:
    """Malformed input is answered with a typed 400 and leaves an audit
    record; nothing escapes the router as a raw exception."""

    def _assert_audited_400(self, service, before, body, action, securable):
        assert body["error_code"] == "INVALID_PARAMETER_VALUE"
        assert len(service.audit) == before + 1
        record = service.audit.tail(1)[0]
        assert (record.principal, record.action, record.securable,
                record.allowed, record.details) == (
            "alice", action, securable, False,
            {"error": "INVALID_PARAMETER_VALUE"})

    @pytest.mark.parametrize("params", [
        {"timeout": "abc"},
        {"at_version": ""},
    ])
    def test_unparsable_reserved_param(self, api, service, mid, params):
        before = len(service.audit)
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main", **params},
        )
        assert status == 400
        self._assert_audited_400(service, before, body, "get_securable", TABLE)

    def test_create_metastore_without_name(self, api, service):
        before = len(service.audit)
        status, body = api.handle(
            "POST", f"{BASE}/metastores", principal="alice", body={},
        )
        assert status == 400
        assert "name" in body["message"]
        self._assert_audited_400(service, before, body, "create_metastore",
                                 "<create_metastore>")

    def test_well_formed_reserved_params_still_apply(self, api, service, mid):
        version = service.store.current_version(mid)
        status, _ = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main", "timeout": "5",
                    "at_version": str(version)},
        )
        assert status == 200


class TestDiscoveryRoutes:
    def test_information_schema_route(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/information-schema", principal="alice",
            params={"metastore": "main", "kind": "TABLE"},
        )
        assert status == 200
        assert [r["name"] for r in body["rows"]] == ["orders"]

    def test_information_schema_pushdown_via_post(self, api, mid, populated):
        populated["session"].sql(
            "CREATE VIEW sales.q1.v AS SELECT id FROM sales.q1.orders")
        status, body = api.handle(
            "POST", f"{BASE}/information-schema", principal="alice",
            body={"metastore": "main", "kind": "TABLE",
                  "where": [{"column": "table_type", "op": "=",
                             "value": "VIEW"}]},
        )
        assert [r["name"] for r in body["rows"]] == ["v"]

    def test_lineage_route(self, api, service, mid, populated):
        populated["session"].sql(
            "CREATE VIEW sales.q1.v AS SELECT id FROM sales.q1.orders")
        status, body = api.handle(
            "GET", f"{BASE}/lineage", principal="alice",
            params={"metastore": "main", "asset": TABLE,
                    "direction": "downstream"},
        )
        assert status == 200
        assert body["assets"] == ["sales.q1.v"]

    def test_lineage_bad_direction(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/lineage", principal="alice",
            params={"metastore": "main", "asset": TABLE,
                    "direction": "sideways"},
        )
        assert status == 400

    def test_search_route_requires_attachment(self, api, mid):
        status, _ = api.handle(
            "POST", f"{BASE}/search", principal="alice",
            body={"metastore": "main", "query": "orders"},
        )
        assert status == 404

    def test_search_route_with_service(self, service, mid):
        from repro.core.search import SearchService

        api = RestApi(service, search_service=SearchService(service))
        status, body = api.handle(
            "POST", f"{BASE}/search", principal="alice",
            body={"metastore": "main", "query": "orders"},
        )
        assert status == 200
        assert [h["full_name"] for h in body["hits"]] == [TABLE]


class TestHttpTransport:
    @pytest.fixture
    def server(self, service, populated):
        with UnityCatalogHttpServer(service) as running:
            yield running

    def test_full_round_trip_over_http(self, server, service, mid):
        host, port = server.address
        alice = UnityCatalogHttpClient(host, port, "alice")
        body = alice.request("GET", f"{BASE}/tables/{TABLE}",
                             params={"metastore": "main"})
        assert body["name"] == "orders"

    def test_http_enforces_authorization(self, server, mid):
        host, port = server.address
        bob = UnityCatalogHttpClient(host, port, "bob")
        with pytest.raises(UnityCatalogError):
            bob.request("GET", f"{BASE}/tables/{TABLE}",
                        params={"metastore": "main"})

    def test_http_create_and_list(self, server, mid):
        host, port = server.address
        alice = UnityCatalogHttpClient(host, port, "alice")
        alice.request("POST", f"{BASE}/schemas",
                      body={"metastore": "main", "name": "sales.q2"})
        body = alice.request("GET", f"{BASE}/schemas",
                             params={"metastore": "main", "parent": "sales"})
        assert [s["name"] for s in body["items"]] == ["q1", "q2"]

    def test_http_missing_principal_is_401(self, server):
        host, port = server.address
        anonymous = UnityCatalogHttpClient(host, port, "")
        import http.client

        connection = http.client.HTTPConnection(host, port)
        connection.request("GET", f"{BASE}/catalogs?metastore=main")
        response = connection.getresponse()
        assert response.status == 401
        connection.close()
