"""The audit trail's read contract, checked against a plain list.

``AuditLog`` stores records as columns and builds :class:`AuditRecord`
objects only when read. Every read — ``query`` with each filter,
``tail``, iteration, ``len`` — must return exactly what a list of
records appended one by one would, including after ``max_records``
truncation; no reader may reach the stored state through a returned
record; and repeated-shape records must stay small.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.core.audit import AuditLog, AuditRecord

PRINCIPALS = ["alice", "bob", "carol", "svc-etl"]
ACTIONS = ["read_metadata", "read_data", "create", "grant"]
SECURABLES = ["sales", "sales.q1", "sales.q1.orders", "hr.people.salaries"]


def _details(rng: random.Random):
    return rng.choice([
        None,
        {},
        {"reason": "metadata visible"},
        {"reason": rng.choice(["SELECT granted", "owner of securable"])},
        {"error": "PERMISSION_DENIED"},
        {"count": rng.randrange(3)},
        {"flag": True},
        {"flag": 1},
        {"tables": ["a", "b"][: rng.randrange(3)]},
        {"spec": {"k": rng.randrange(2)}},
    ])


def _stream(seed: int, n: int):
    """Seeded record arguments; strings are fresh objects every time, as
    they are when parsed from requests."""
    rng = random.Random(seed)
    for i in range(n):
        yield (
            1000.0 + i / 8,
            "".join(["m-", str(rng.randrange(2))]),
            "".join([rng.choice(PRINCIPALS)]),
            rng.choice(ACTIONS),
            ".".join(rng.choice(SECURABLES).split(".")),
            rng.random() < 0.7,
            _details(rng),
        )


def _filled(seed: int, n: int, max_records=None):
    log = AuditLog(max_records=max_records)
    reference: list[AuditRecord] = []
    for args in _stream(seed, n):
        returned = log.record(*args)
        expected = AuditRecord(len(reference), *args[:6], dict(args[6] or {}))
        assert returned == expected
        reference.append(expected)
    if max_records is not None:
        reference = reference[-max_records:]
    return log, reference


@pytest.mark.parametrize("seed,max_records", [(1, None), (2, None), (3, 50),
                                              (4, 1)])
def test_reads_match_a_plain_list(seed, max_records):
    log, ref = _filled(seed, 400, max_records)
    assert len(log) == len(ref)
    assert list(log) == ref
    for n in (0, 1, 7, 20, len(ref), len(ref) + 5):
        assert log.tail(n) == ref[-n:]
    assert log.tail() == ref[-20:]
    assert log.query() == ref
    for principal in PRINCIPALS + ["nobody"]:
        assert log.query(principal=principal) == [
            r for r in ref if r.principal == principal]
    for action in ACTIONS:
        assert log.query(action=action) == [r for r in ref if r.action == action]
    for securable in SECURABLES:
        assert log.query(securable=securable) == [
            r for r in ref if r.securable == securable]
    for allowed in (True, False):
        assert log.query(allowed=allowed) == [
            r for r in ref if r.allowed == allowed]

    def odd(record: AuditRecord) -> bool:
        return record.sequence % 2 == 1

    assert log.query(predicate=odd) == [r for r in ref if odd(r)]
    assert log.query(principal="alice", action="read_data", allowed=True,
                     predicate=odd) == [
        r for r in ref if r.principal == "alice" and r.action == "read_data"
        and r.allowed and odd(r)]


def test_truncation_keeps_sequence_numbers():
    log = AuditLog(max_records=3)
    for i in range(5):
        log.record(i, "m", "p", "a", "s", True)
    assert len(log) == 3
    assert [r.sequence for r in log] == [2, 3, 4]
    assert [r.timestamp for r in log.tail(2)] == [3.0, 4.0]
    assert log.record(5, "m", "p", "a", "s", False).sequence == 5
    assert [r.sequence for r in log.query(allowed=False)] == [5]


def test_details_values_keep_their_types():
    log = AuditLog()
    log.record(0, "m", "p", "a", "s", True, {"flag": 1})
    log.record(1, "m", "p", "a", "s", True, {"flag": True})
    log.record(2, "m", "p", "a", "s", True, {"flag": 1})
    assert [type(r.details["flag"]) for r in log] == [int, bool, int]


def test_unhashable_details_are_kept():
    log = AuditLog()
    nested = {"tables": ["a", "b"], "spec": {"k": [1]}}
    log.record(0, "m", "p", "a", "s", True, nested)
    nested["tables"] = ["changed"]
    assert log.tail(1)[0].details == {"tables": ["a", "b"], "spec": {"k": [1]}}


def test_returned_details_are_copies():
    log = AuditLog()
    shared = {"reason": "metadata visible"}
    first = log.record(0, "m", "p", "a", "s", True, shared)
    log.record(1, "m", "p", "a", "s", True, dict(shared))
    first.details["reason"] = "tampered"
    shared["reason"] = "tampered too"
    for read in (list(log), log.tail(2), log.query()):
        read[0].details["extra"] = 1
        read[1].details.clear()
    assert [r.details for r in log] == [{"reason": "metadata visible"}] * 2
    assert log.query(predicate=lambda r: r.details.pop("reason", None)) \
        == [AuditRecord(0, 0.0, "m", "p", "a", "s", True, {}),
            AuditRecord(1, 1.0, "m", "p", "a", "s", True, {})]
    assert [r.details for r in log] == [{"reason": "metadata visible"}] * 2


def test_repeated_shape_records_stay_small():
    """At most 100 B retained per record when records repeat a few
    principals, actions, securables and detail shapes (one object per
    record, with a dict of its own, took about 370 B)."""
    n = 20_000
    stream = list(_stream(7, n))
    stream = [args[:6] + ({"reason": "".join(["SELECT ", "granted"])},)
              for args in stream]
    log = AuditLog()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for args in stream:
            log.record(*args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == n
    assert retained / n <= 100, f"{retained / n:.0f} B per record"
