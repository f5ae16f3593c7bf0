"""One run of one workload: set-up, the timed closed loop, the answer checks.

``run(workload, seed, seconds, trace)`` returns the result that ``run.py``
prints. With ``trace=False`` it measures the end-to-end metrics of
:data:`END_TO_END`; with ``trace=True`` it runs a fixed number of ops
twice, untraced and then traced, and returns the per-layer ledger of
:mod:`ledger` (the two windows' throughputs give ``trace.overhead_pct``).

Reference time. On a shared machine the interpreter's speed moves by up
to 2x from one second to the next, with other tenants' load, and a
10-second average still moves by 30 %. So every ``PROBE_EVERY_S`` the
first client runs :func:`probe`, a fixed piece of interpreter work timed
in thread CPU time, and every time measured between two probes is scaled
by ``REF_PROBE_S / probe time``: a time in reference seconds is the time
the operation would have taken on a machine where the probe takes
``REF_PROBE_S``. The window lasts ``seconds`` reference seconds, so a run
does about the same number of ops however loaded the machine is. Probe
time is not part of any op or of the window.
"""

from __future__ import annotations

import bisect
import gc
import math
import resource
import statistics
import sys
import threading
import traceback
from time import perf_counter, thread_time
from typing import Any, Callable, Optional

from ledger import PER_LAYER, Ledger, counter_totals
from workloads import WORKLOADS

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "latency_p50_us": ("us", "lower"),
    "latency_p90_us": ("us", "lower"),
    "read_p50_us": ("us", "lower"),
    "write_p50_us": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}
#: estates built per run; setup_s is the median of their build times
SETUPS = 3
#: the probe's thread CPU time on the reference machine
REF_PROBE_S = 300e-6
PROBE_EVERY_S = 0.02


def probe() -> float:
    """Thread CPU seconds of a fixed piece of dict-and-loop work."""
    start = thread_time()
    table: dict[int, int] = {}
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return thread_time() - start


def _probe_scale(count: int = 3) -> float:
    return REF_PROBE_S / statistics.median(probe() for _ in range(count))


class Window:
    """What one timed window recorded."""

    def __init__(self):
        #: per op: wall latency (s), kind, wall end time
        self.latency: list[float] = []
        self.is_write: list[bool] = []
        self.end: list[float] = []
        self.failed = 0
        self.first_failure = ""
        #: probe times (wall) and the scale each measured
        self.probe_at: list[float] = []
        self.scale: list[float] = []
        #: wall and reference seconds of the window, probes excluded
        self.wall_s = 0.0
        self.ref_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency) + self.failed

    def merge(self, other: "Window") -> None:
        self.latency += other.latency
        self.is_write += other.is_write
        self.end += other.end
        self.failed += other.failed
        self.first_failure = self.first_failure or other.first_failure

    def note_failure(self) -> None:
        self.first_failure = self.first_failure or traceback.format_exc()

    def ref_latency(self) -> list[float]:
        """Each op's latency in reference seconds, scaled by the mean of
        the two probes around it."""
        last = len(self.scale) - 1
        scaled = []
        for lat, end in zip(self.latency, self.end):
            after = min(bisect.bisect_left(self.probe_at, end), last)
            scaled.append(lat * (self.scale[max(after - 1, 0)] + self.scale[after]) / 2)
        return scaled


class _Clock:
    """The first client's probe schedule and the window's reference time."""

    def __init__(self, window: Window, seconds: float):
        self.window = window
        self.seconds = seconds
        self.stop = False
        self.scale = _probe_scale()
        self.mark = perf_counter()
        self.next = self.mark + PROBE_EVERY_S
        window.probe_at.append(self.mark)
        window.scale.append(self.scale)

    def tick(self, now: float, final: bool = False) -> None:
        """Close the interval since the last probe when one is due."""
        if now < self.next and not final:
            return
        window = self.window
        scale = self.scale
        if not final:
            self.scale = REF_PROBE_S / probe()
            window.probe_at.append(now)
            window.scale.append(self.scale)
        window.wall_s += now - self.mark
        window.ref_s += (now - self.mark) * (scale + self.scale) / 2
        self.mark = perf_counter()
        self.next = self.mark + PROBE_EVERY_S
        if window.ref_s >= self.seconds:
            self.stop = True


def _client(workload, client: int, stride: int, ops: int, window: Window,
            clock: Optional[_Clock], shared: _Clock) -> None:
    """One closed-loop client: ops client, client + stride, ... until the
    window's reference time is up or the op index reaches ``ops``. Only
    the first client (the one given ``clock``) runs the probes."""
    i = client
    while i < ops and not shared.stop:
        start = perf_counter()
        try:
            is_write, result = workload.op(i, client)
            end = perf_counter()
            workload.check(i, client, result)
        except Exception:  # an unexpected raise or a wrong answer
            window.failed += 1
            window.note_failure()
        else:
            window.latency.append(end - start)
            window.is_write.append(is_write)
            window.end.append(end)
        if clock is not None:
            clock.tick(perf_counter())
        i += stride
    if clock is not None:
        clock.stop = True


def drive(workload, *, seconds: float = math.inf, ops: int = sys.maxsize,
          on_start: Callable[[], None] = lambda: None) -> Window:
    """Run the workload's clients for ``seconds`` reference seconds or
    ``ops`` ops. GC runs as usual, after one full collection up front;
    ``on_start`` runs between that collection and the window."""
    clients = workload.clients
    windows = [Window() for _ in range(clients)]
    gc.collect()
    on_start()
    clock = _Clock(windows[0], seconds)
    if clients == 1:
        _client(workload, 0, 1, ops, windows[0], clock, clock)
    else:
        threads = [threading.Thread(
            target=_client, name=f"bench-client-{c}",
            args=(workload, c, clients, ops, windows[c], clock if c == 0 else None, clock))
            for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    clock.tick(perf_counter(), final=True)
    window = windows[0]
    for other in windows[1:]:
        window.merge(other)
    return window


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _build(name: str, seed: int) -> tuple[Any, float]:
    """A fresh estate and its set-up time in reference seconds, scaled by
    probes taken just before and just after it."""
    gc.collect()
    before = _probe_scale()
    start = perf_counter()
    workload = WORKLOADS[name](seed)
    wall = perf_counter() - start
    return workload, wall * (before + _probe_scale()) / 2


def _final_check(workload, window: Window) -> bool:
    try:
        workload.final_check()
    except Exception:
        window.note_failure()
        return False
    return True


def _untraced(name: str, seed: int, seconds: int) -> dict[str, Any]:
    setups = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
        workload, setup_s = _build(name, seed)
        setups.append(setup_s)
    try:
        window = drive(workload, seconds=seconds)
        final_ok = _final_check(workload, window)
    finally:
        workload.close()
    latency = [x * 1e6 for x in window.ref_latency()]
    reads = [x for x, w in zip(latency, window.is_write) if not w]
    writes = [x for x, w in zip(latency, window.is_write) if w]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(latency) / window.ref_s,
        "latency_p50_us": statistics.median(latency),
        "latency_p90_us": _quantile(latency, 0.90),
        "read_p50_us": statistics.median(reads),
        "write_p50_us": statistics.median(writes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (window.attempted - window.failed) / window.attempted,
    }
    report = {"speed": window.ref_s / window.wall_s}
    return _result(window, final_ok, values, END_TO_END, report)


def _traced(name: str, seed: int) -> dict[str, Any]:
    ops = WORKLOADS[name].TRACE_OPS
    workload, _ = _build(name, seed)
    try:
        plain = drive(workload, ops=ops)
    finally:
        workload.close()
    del workload
    ledger = Ledger()
    ledger.install()
    try:
        workload, _ = _build(name, seed)
        try:
            before: dict[str, float] = {}

            def start() -> None:
                before.update(counter_totals(workload.registries()))
                ledger.reset()

            traced = drive(workload, ops=ops, on_start=start)
            # freeze the ledger first: reading the counters runs code too
            tally = ledger.frozen()
            after = counter_totals(workload.registries())
            final_ok = _final_check(workload, traced)
        finally:
            workload.close()
    finally:
        ledger.uninstall()
    overhead_pct = (traced.ref_s / plain.ref_s - 1.0) * 100
    writes = sum(traced.is_write)
    speed = traced.ref_s / traced.wall_s
    values = tally.metrics(traced.attempted, writes, before, after, overhead_pct, speed)
    report = {"speed": speed, "table": tally.table(traced.attempted, speed)}
    traced.merge(plain)  # attempted and failed cover both windows
    return _result(traced, final_ok, values, PER_LAYER, report)


def _result(window: Window, final_ok: bool, values: dict[str, float],
            units: dict[str, tuple[str, str]], report: dict) -> dict[str, Any]:
    return {
        "correct": window.failed == 0 and final_ok,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]}
                    for name in units},
        "report": {**report, "first_failure": window.first_failure},
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    """One run; the result's ``report`` entry is for humans, not the JSON
    line."""
    if trace:
        return _traced(name, seed)
    return _untraced(name, seed, seconds)
