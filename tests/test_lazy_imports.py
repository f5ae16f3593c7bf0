"""A catalog process that never vends, hashes or opens SQLite does not
load OpenSSL or SQLite.

``secrets`` (through ``hmac``) loads ``_hashlib``, i.e. OpenSSL, and the
SQLite store loads ``_sqlite3``; together they are about 5 MB of resident
memory that a process serving metadata reads never uses. The check runs
in a fresh interpreter, because this test process has long imported
both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from repro.core.model.entity import SecurableKind
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.rest import ServiceRouter

svc = UnityCatalogService()
svc.directory.add_user("alice")
svc.create_metastore("main", owner="alice")
router = ServiceRouter(svc)
status, _ = router.handle(
    "POST", "/api/2.1/unity-catalog/catalogs", principal="alice",
    params={"metastore": "main"}, body={"name": "sales"})
assert status == 201, status
base = "/api/2.1/unity-catalog/catalogs"
get = router.handle("GET", base + "/sales", principal="alice",
                    params={"metastore": "main"})
listed = router.handle("GET", base, principal="alice",
                       params={"metastore": "main"})
print(json.dumps({
    "statuses": [get[0], listed[0]],
    "loaded": [m for m in ("_hashlib", "secrets", "_sqlite3")
               if m in sys.modules],
}))
"""


def test_rest_reads_load_neither_openssl_nor_sqlite():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"statuses": [200, 200], "loaded": []}


def test_persistence_package_still_exports_the_sqlite_store():
    from repro.core import persistence
    from repro.core.persistence.sqlite import SqliteMetadataStore

    assert persistence.SqliteMetadataStore is SqliteMetadataStore
