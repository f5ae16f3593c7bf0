"""Audit logging (paper section 4.2.1).

"The Unity Catalog service maintains an audit trail for API requests,
object life cycle changes, access control decisions and other important
events for all asset types."

Every service-level API call appends exactly one record, including denied
requests — auditing denials is part of what distinguishes catalog-level
governance from raw cloud-storage ACLs.

The trail is stored as columns, not as one object per record: a busy
service appends several records per request and keeps them all, so the
per-record footprint is what bounds its memory. Timestamps live in an
``array('d')`` and outcomes in a ``bytearray``; the string fields hold
shared references (interned strings), and value-equal ``details`` dicts
of string values are stored once. :class:`AuditRecord` objects are built
only when the trail is read, each with its own copy of ``details``, so no
reader can alias (or mutate) what is stored.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field
from sys import intern
from typing import Any, Callable, Iterator, Optional

#: distinct ``details`` shapes remembered before a wholesale clear
#: (records keep their dicts; only future sharing restarts)
_MAX_SHAPES = 4096


@dataclass(frozen=True)
class AuditRecord:
    """One audited event."""

    sequence: int
    timestamp: float
    metastore_id: str
    principal: str
    action: str
    securable: str
    allowed: bool
    details: dict[str, Any] = field(default_factory=dict)


def _make_record(sequence: int, timestamp: float, metastore_id: str,
                 principal: str, action: str, securable: str, allowed: bool,
                 details: Optional[dict[str, Any]]) -> AuditRecord:
    """An :class:`AuditRecord` owning a fresh copy of ``details``.

    Fills the instance dict directly: the frozen dataclass ``__init__``
    pays one ``object.__setattr__`` per field, which is more than the
    rest of an append costs. The result is an ordinary, equal record."""
    record = object.__new__(AuditRecord)
    record.__dict__.update(
        sequence=sequence, timestamp=timestamp, metastore_id=metastore_id,
        principal=principal, action=action, securable=securable,
        allowed=allowed, details=dict(details) if details else {},
    )
    return record


def _share(value: Any) -> Any:
    return intern(value) if type(value) is str else value


class AuditLog:
    """An append-only audit trail with simple filtered reads."""

    def __init__(self, max_records: Optional[int] = None):
        self._lock = threading.RLock()
        #: sequence number of the oldest retained record
        self._first = 0
        self._sequence = 0
        self._max_records = max_records
        self._timestamps = array("d")
        self._allowed = bytearray()
        self._metastores: list[str] = []
        self._principals: list[str] = []
        self._actions: list[str] = []
        self._securables: list[str] = []
        #: None for empty details, else a dict no reader ever receives
        self._details: list[Optional[dict[str, Any]]] = []
        #: ``tuple(details.items())`` -> the one stored dict of that value
        self._shapes: dict[tuple, dict[str, str]] = {}

    def _stored_details(
        self, details: Optional[dict[str, Any]]
    ) -> Optional[dict[str, Any]]:
        """The dict to keep for ``details``: one shared dict per value
        when every key and value is a plain str, else a private copy.

        Only all-str dicts are shared because only a str equals a str:
        a dict holding ``1`` would also match one holding ``True``."""
        if not details:
            return None
        shape = tuple(details.items())
        try:
            stored = self._shapes.get(shape)
        except TypeError:  # an unhashable value
            return dict(details)
        if stored is not None:
            return stored
        if not all(type(k) is str and type(v) is str for k, v in shape):
            return dict(details)
        if len(self._shapes) >= _MAX_SHAPES:
            self._shapes.clear()
        stored = self._shapes[shape] = {
            intern(k): intern(v) for k, v in shape
        }
        return stored

    def record(
        self,
        timestamp: float,
        metastore_id: str,
        principal: str,
        action: str,
        securable: str,
        allowed: bool,
        details: Optional[dict[str, Any]] = None,
    ) -> AuditRecord:
        try:
            metastore_id, principal, action, securable = (
                intern(metastore_id), intern(principal), intern(action),
                intern(securable),
            )
        except TypeError:  # not exact strs; keep them as given
            metastore_id, principal, action, securable = (
                _share(metastore_id), _share(principal), _share(action),
                _share(securable),
            )
        allowed = bool(allowed)
        with self._lock:
            stored = self._stored_details(details)
            self._timestamps.append(timestamp)
            self._allowed.append(allowed)
            self._metastores.append(metastore_id)
            self._principals.append(principal)
            self._actions.append(action)
            self._securables.append(securable)
            self._details.append(stored)
            sequence = self._sequence
            self._sequence += 1
            retained = len(self._timestamps)
            if self._max_records is not None and retained > self._max_records:
                # drop oldest; sequence numbers stay stable
                overflow = retained - self._max_records
                for column in (self._timestamps, self._allowed,
                               self._metastores, self._principals,
                               self._actions, self._securables,
                               self._details):
                    del column[:overflow]
                self._first += overflow
        return _make_record(sequence, float(timestamp), metastore_id,
                            principal, action, securable, allowed, stored)

    def _build(self, i: int) -> AuditRecord:
        """The record at retained position ``i`` (caller holds the lock)."""
        return _make_record(
            self._first + i, self._timestamps[i], self._metastores[i],
            self._principals[i], self._actions[i], self._securables[i],
            bool(self._allowed[i]), self._details[i],
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._timestamps)

    def query(
        self,
        *,
        principal: Optional[str] = None,
        action: Optional[str] = None,
        securable: Optional[str] = None,
        allowed: Optional[bool] = None,
        predicate: Optional[Callable[[AuditRecord], bool]] = None,
    ) -> list[AuditRecord]:
        """Filtered scan over the retained trail."""
        with self._lock:
            matches = [
                self._build(i) for i in range(len(self._timestamps))
                if (principal is None or self._principals[i] == principal)
                and (action is None or self._actions[i] == action)
                and (securable is None or self._securables[i] == securable)
                and (allowed is None or bool(self._allowed[i]) == allowed)
            ]
        if predicate is None:
            return matches
        return [record for record in matches if predicate(record)]

    def tail(self, n: int = 20) -> list[AuditRecord]:
        with self._lock:
            return [self._build(i) for i in range(len(self._timestamps))[-n:]]

    def __iter__(self) -> Iterator[AuditRecord]:
        with self._lock:
            return iter([self._build(i) for i in range(len(self._timestamps))])
