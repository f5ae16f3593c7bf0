"""ACID metadata persistence (paper section 4.5).

The paper's backend contract is small but strict: per-metastore snapshot
reads, serializable writes via a persistent *metastore version* that every
write transaction bumps with compare-and-swap, and a change log the cache
uses for selective invalidation. Two implementations are provided:

* :class:`~repro.core.persistence.memory.InMemoryMetadataStore` — an MVCC
  store used by tests and benchmarks,
* :class:`~repro.core.persistence.sqlite.SqliteMetadataStore` — a durable
  SQLite-backed store demonstrating that the contract maps onto a
  standard relational database, as in the production system,
* :class:`~repro.core.persistence.treecat.TreeCatMetadataStore` — a
  TreeCat-style hierarchical store with prefix-ordered keys, range
  scans, and a transactional tree index for list/resolve fast paths.
"""

from repro.core.persistence.store import (
    ChangeRecord,
    MetadataStore,
    Snapshot,
    WriteOp,
    Tables,
)
from repro.core.persistence.memory import InMemoryMetadataStore
from repro.core.persistence.treecat import TreeCatMetadataStore


def __getattr__(name):
    # lazy: importing sqlite3 costs a process that never opens a
    # database a few MB of resident memory
    if name == "SqliteMetadataStore":
        from repro.core.persistence.sqlite import SqliteMetadataStore

        return SqliteMetadataStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChangeRecord",
    "InMemoryMetadataStore",
    "MetadataStore",
    "Snapshot",
    "SqliteMetadataStore",
    "Tables",
    "TreeCatMetadataStore",
    "WriteOp",
]
