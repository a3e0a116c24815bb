"""The traced run's span recorder and the layer probes it installs.

Probes wrap the public functions of each layer at class level, from
this file only; nothing under ``src/`` is traced.  Spans live in
memory (one tuple each) and are written out when the run ends.  A
span's self time is its duration minus the union of its children's
intervals, so overlapping asynchronous children are not subtracted
twice.

The benchmark traces in windows (the live phase and the middle two
backlog parts); :class:`Windows` turns the probes on and off and keeps
each window's bounds.  Shard processes of the ``fleet-tcp`` deployment
are spawned by ``ShardCluster`` with the ``spawn`` start method, which
imports the benchmark's main script in each child before the shard
starts; when :data:`SHARD_SPANS_ENV` is set, ``run.py`` calls
:func:`trace_shard_process` there.  The child then follows the
benchmark's windows through a flag file in that directory, so its
probes are off whenever the benchmark's are, and writes its raw spans
at exit.  Spans carry ``perf_counter_ns``, the system-wide monotonic
clock, so the benchmark keeps only shard spans inside its windows.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

SHARD_SPANS_ENV = "PERFBENCH_SHARD_SPANS"
TRACING_FLAG = "tracing-on"     # present while a traced window is open
WATCH_PERIOD_S = 0.002          # how often a shard looks at the flag
SWITCH_TIMEOUT_S = 10.0

# (span id, parent id, name, start ns, end ns)
Span = Tuple[int, int, str, int, int]


class SpanRecorder:
    """Per-thread nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # name -> [(monotonic ns, value)]; perf_counter_ns is the
        # system-wide monotonic clock, so shard samples line up with
        # the benchmark's own windows.
        self.samples: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._submitted: Dict[Tuple[str, float], int] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            if before is not None:
                before(start, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def patch(self, owner: type, attr: str, name: str,
              before: Optional[Callable] = None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(name, raw.__func__, before))
        else:
            wrapped = self.wrap(name, raw, before)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    def patch_async(self, owner: type, attr: str, name: str) -> None:
        """Wrap a call that returns a handle: the span ends when the
        handle's ``result()`` first returns."""
        raw = owner.__dict__[attr]
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        class Timed:
            __slots__ = ("inner", "sid", "parent", "start", "open")

            def done(self) -> bool:
                return self.inner.done()

            def result(self, timeout: Optional[float] = None) -> Any:
                try:
                    return self.inner.result(timeout)
                finally:
                    if self.open:
                        self.open = False
                        spans.append((self.sid, self.parent, name,
                                      self.start, clock()))

        def traced(*args: Any, **kwargs: Any) -> Any:
            handle = Timed()
            stack = stack_of()
            handle.parent = stack[-1] if stack else 0
            handle.sid = next(ids)
            handle.start = clock()
            handle.open = True
            handle.inner = raw(*args, **kwargs)
            return handle

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # Queue wait: a reading's submit to its insert_reading.
    def mark_submit(self, start: int, args: tuple, kwargs: dict) -> None:
        reading = args[1]
        self._submitted[(reading.object_id, reading.detection_time)] = start

    def mark_insert(self, start: int, args: tuple, kwargs: dict) -> None:
        submitted = self._submitted.pop(
            (kwargs.get("mobile_object_id"), kwargs.get("detection_time")),
            None)
        if submitted is not None:
            self.samples["pipeline.queue_wait"].append(
                (start, (start - submitted) / 1e6))

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        return summarize(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def install_layer_probes(recorder: SpanRecorder) -> None:
    """Spans around each engine layer's public entry points."""
    from repro.core import FusionEngine
    from repro.pipeline import LocationPipeline
    from repro.service import LocationService
    from repro.service.semantic_subscriptions import (
        SemanticSubscriptionManager,
    )
    from repro.spatialdb import SpatialDatabase
    from repro.storage import DurabilityManager

    recorder.patch(LocationPipeline, "submit", "pipeline.submit",
                   before=recorder.mark_submit)
    recorder.patch(SpatialDatabase, "insert_reading",
                   "spatialdb.insert_reading", before=recorder.mark_insert)
    recorder.patch(SpatialDatabase, "readings_for", "spatialdb.readings_for")
    recorder.patch(DurabilityManager, "prepare_insert",
                   "storage.prepare_insert")
    recorder.patch(DurabilityManager, "log_prepared_insert",
                   "storage.log_prepared_insert")
    recorder.patch(FusionEngine, "fuse", "core.fuse")
    recorder.patch(LocationService, "normalized_readings",
                   "service.normalized_readings")
    recorder.patch(LocationService, "apply_fusion_result",
                   "service.apply_fusion_result")
    recorder.patch(LocationService, "locate", "service.locate")
    recorder.patch(LocationService, "objects_in_region",
                   "service.objects_in_region")
    recorder.patch(SemanticSubscriptionManager, "on_update",
                   "reasoning.on_update")


def install_router_probes(recorder: SpanRecorder) -> None:
    """Spans on the router side of the fleet: the router's entry
    points, its semantic engine and every client TCP invocation."""
    from repro.orb.transport import TcpTransport
    from repro.service.semantic_subscriptions import (
        SemanticSubscriptionManager,
    )
    from repro.shard import ShardRouter

    recorder.patch(ShardRouter, "submit", "shard.router.submit")
    recorder.patch(ShardRouter, "pump_events", "shard.router.pump_events")
    recorder.patch(SemanticSubscriptionManager, "on_update",
                   "reasoning.on_update")
    recorder.patch(TcpTransport, "invoke", "orb.invoke")
    recorder.patch_async(TcpTransport, "invoke_async", "orb.invoke")


def summarize(spans: List[Span],
              windows: Optional[List[Tuple[int, int]]] = None
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self nanoseconds, over the spans
    that start inside one of ``windows`` (all of them if None)."""
    if windows is not None:
        spans = [s for s in spans
                 if any(a <= s[3] <= b for a, b in windows)]
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for sid, _, name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = out[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - covered
    return dict(out)


class Windows:
    """Turns the probes on and off, in this process and in ``shards``
    shard processes following ``shard_dir``, and keeps the bounds of
    each window they were on (monotonic ns)."""

    def __init__(self, recorder: SpanRecorder,
                 install: Callable[[SpanRecorder], None],
                 shard_dir: str = "", shards: int = 0) -> None:
        self.recorder = recorder
        self.install = install
        self.shard_dir = shard_dir
        self.shards = shards
        self.bounds: List[Tuple[int, int]] = []
        self._opened = 0

    def on(self) -> None:
        self.install(self.recorder)
        self._switch_shards(True)
        self._opened = time.perf_counter_ns()

    def off(self) -> None:
        if self._opened:
            self.bounds.append((self._opened, time.perf_counter_ns()))
            self._opened = 0
        self.recorder.unpatch()
        self._switch_shards(False)

    def _switch_shards(self, on: bool) -> None:
        """Raise or lower the flag and wait until every shard has
        acknowledged it."""
        if not self.shards:
            return
        flag = os.path.join(self.shard_dir, TRACING_FLAG)
        if on:
            open(flag, "w").close()
        elif os.path.exists(flag):
            os.remove(flag)
        want = self.shards if on else 0
        deadline = time.monotonic() + SWITCH_TIMEOUT_S
        while sum(1 for f in os.listdir(self.shard_dir)
                  if f.startswith("acked-")) != want:
            if time.monotonic() > deadline:
                raise RuntimeError(f"shard processes did not turn tracing "
                                   f"{'on' if on else 'off'}")
            time.sleep(WATCH_PERIOD_S)


def trace_shard_process(directory: str) -> None:
    """Trace this (shard) process while the benchmark's flag is up, and
    write its raw spans and samples at exit."""
    recorder = SpanRecorder()
    pid = os.getpid()
    flag = os.path.join(directory, TRACING_FLAG)
    acked = os.path.join(directory, f"acked-{pid}")

    def follow() -> None:
        on = False
        while True:
            want = os.path.exists(flag)
            if want and not on:
                install_layer_probes(recorder)
                open(acked, "w").close()
            elif on and not want:
                recorder.unpatch()
                os.remove(acked)
            on = want
            time.sleep(WATCH_PERIOD_S)

    def dump() -> None:
        recorder.write(os.path.join(directory, f"spans-shard-{pid}.jsonl"))
        with open(os.path.join(directory, f"samples-{pid}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(dict(recorder.samples), handle)

    threading.Thread(target=follow, name="perfbench-shard-tracing",
                     daemon=True).start()
    atexit.register(dump)


def read_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def merge_summaries(parts: List[Dict[str, Dict[str, float]]]
                    ) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for part in parts:
        for name, entry in part.items():
            for key in ("calls", "total_ns", "self_ns"):
                out[name][key] += entry[key]
    return dict(out)
