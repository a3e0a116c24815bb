"""Phases, measurements and the result line of one benchmark run."""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import platform
import random
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import oracles
from deploy import Fleet, InProcess
from tracing import (
    SHARD_SPANS_ENV,
    SpanRecorder,
    Windows,
    install_layer_probes,
    install_router_probes,
    merge_summaries,
    read_spans,
    summarize,
)
from workloads import PLACE_NAMES, Trace, dense_trace, floor_trace, \
    subscriptions

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = os.path.join(HERE, "runs")

RECOVERIES = 3          # WAL recoveries per run; recover_s is the median
LIVE_SHARE = 0.85       # share of --seconds spent in the live phase
BACKLOG_PARTS = 4       # ingest_rps is the median of these parts' rates
WARM_ROUNDS = 3         # rounds sent and drained before timing starts
CHECK_LOCATES = 16      # sampled locate() answers checked per check point
FLEET_BACKLOG_PUMP = 2048  # backlog readings between fleet event pumps


@dataclass(frozen=True)
class Workload:
    """Rates are per second of wall time.  The backlog is a fixed
    number of rounds per second of ``--seconds``, so every run of a
    workload sends the same input whatever the machine's speed."""

    make_trace: Callable[..., Trace]
    deployment: type
    objects: int
    group_rate: float       # live: groups sent per second
    locate_rate: float      # live: locate() calls per second
    region_rate: float      # live: objects_in_region() calls per second
    pump_rate: float        # live: router event pumps per second
    backlog_rounds_per_s: float
    setups: int             # deployments built per run; setup_s is the median


WORKLOADS: Dict[str, Workload] = {
    "floor-ingest": Workload(floor_trace, InProcess, 64, 50.0, 30.0,
                             30.0, 0.0, 16.0, 16),
    "dense-fusion": Workload(dense_trace, InProcess, 32, 7.5, 30.0,
                             30.0, 0.0, 1.5, 16),
    "fleet-tcp": Workload(floor_trace, Fleet, 64, 50.0, 30.0, 30.0,
                          50.0, 16.0, 6),
}


@dataclass(frozen=True)
class Layout:
    """Group index ranges: warm-up, live phase, the backlog's parts."""

    warm: Tuple[int, int]
    live: Tuple[int, int]
    backlog: List[Tuple[int, int]]


def layout(workload: Workload, seconds: float) -> Tuple[int, Layout]:
    n = workload.objects
    live_rounds = max(1, math.ceil(seconds * LIVE_SHARE * workload.group_rate
                                   / n))
    part_rounds = max(1, math.ceil(seconds * workload.backlog_rounds_per_s
                                   / BACKLOG_PARTS))
    warm = WARM_ROUNDS * n
    live = warm + live_rounds * n
    backlog = [(live + i * part_rounds * n, live + (i + 1) * part_rounds * n)
               for i in range(BACKLOG_PARTS)]
    rounds = WARM_ROUNDS + live_rounds + BACKLOG_PARTS * part_rounds
    return rounds, Layout((0, warm), (warm, live), backlog)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Failures:
    """Checks that did not hold; any one fails the run."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def add(self, where: str, errors: List[str]) -> None:
        self.errors.extend(f"{where}: {e}" for e in errors)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def build(workload: Workload, trace: Trace, subs, workdir: str):
    """One deployment, up to its first reading accepted."""
    deployment = workload.deployment(trace, subs, workdir)
    for reading in trace.groups[0]:
        deployment.submit(reading)
    return deployment


@dataclass
class Live:
    """What the live phase measured (milliseconds per request)."""

    due_ns: Dict[int, int]
    notify: List[float]
    lag: List[float]
    locate: List[float]
    region: List[float]
    notify_readings: int = 0
    # From the first request to the completed drain, monotonic ns.
    span: Tuple[int, int] = (0, 0)
    attempted: int = 0
    failed: int = 0


def live_phase(dep, trace: Trace, workload: Workload, first: int,
               last: int, rng: random.Random, live: Live,
               failures: List[str]) -> None:
    """Open loop over groups ``first..last``: readings, pull queries and
    (fleet) event pumps at fixed rates, each latency timed from the
    instant its request was due."""
    duration = (last - first) / workload.group_rate
    ops: List[Tuple[float, int, Any]] = [
        ((i - first) / workload.group_rate, 0, i) for i in range(first, last)]
    for j in range(round(duration * workload.locate_rate)):
        ops.append(((j + 0.33) / workload.locate_rate, 1,
                    rng.choice(trace.objects)))
    for j in range(round(duration * workload.region_rate)):
        ops.append(((j + 0.66) / workload.region_rate, 2,
                    rng.choice(PLACE_NAMES)))
    for j in range(round(duration * workload.pump_rate)):
        ops.append(((j + 0.5) / workload.pump_rate, 3, None))
    ops.sort(key=lambda op: (op[0], op[1]))

    clock = time.perf_counter_ns
    vnow = trace.groups[first - 1][-1].detection_time
    start = clock() + 2_000_000
    for offset, kind, arg in ops:
        due = start + int(offset * 1e9)
        ahead = due - clock()
        if ahead > 0:
            time.sleep(ahead / 1e9)
        live.lag.append(max(0, clock() - due) / 1e6)
        live.attempted += len(trace.groups[arg]) if kind == 0 else 1
        try:
            if kind == 0:
                live.due_ns[arg] = due
                for reading in trace.groups[arg]:
                    if not dep.submit(reading):
                        live.failed += 1
                vnow = trace.groups[arg][-1].detection_time
            elif kind == 1:
                dep.locate(arg, vnow)
                live.locate.append((clock() - due) / 1e6)
            elif kind == 2:
                dep.objects_in_region(arg, vnow)
                live.region.append((clock() - due) / 1e6)
            else:
                dep.pump()
        except Exception as exc:  # noqa: BLE001 — counted, run goes on
            live.failed += 1
            failures.append(f"{('submit', 'locate', 'region', 'pump')[kind]}"
                            f"({arg}): {exc!r}")


def backlog_part(dep, trace: Trace, first: int, last: int) -> float:
    """Submit groups ``first..last`` as fast as the deployment accepts
    them, then drain; returns the seconds from first submit to a
    completed drain (events delivered)."""
    pump_every = FLEET_BACKLOG_PUMP if isinstance(dep, Fleet) else 0
    sent = 0
    start = time.perf_counter()
    for index in range(first, last):
        for reading in trace.groups[index]:
            if not dep.submit(reading):
                raise RuntimeError(f"backlog reading refused: {reading}")
            sent += 1
            if pump_every and sent % pump_every == 0:
                dep.pump()
    if not dep.drain():
        raise RuntimeError("backlog did not drain within 60 s")
    return time.perf_counter() - start


def check_point(dep, trace: Trace, upto: int, seed: int,
                failures: Failures, where: str) -> None:
    """Quiescent checks: sampled locate() posteriors, and every place's
    region answer against the unpruned reference and ground truth."""
    now = trace.groups[upto - 1][-1].detection_time
    rng = random.Random(seed * 104729 + upto)
    for object_id in rng.sample(trace.objects, CHECK_LOCATES):
        error = oracles.check_locate(trace, upto, object_id, now,
                                     dep.locate(object_id, now))
        if error:
            failures.add(where, [error])
    answers = {p: dep.objects_in_region(p, now) for p in PLACE_NAMES}
    reference = {p: dep.objects_in_region_reference(p, now)
                 for p in PLACE_NAMES}
    failures.add(where, oracles.check_region_answers(
        answers, reference, oracles.final_places(trace, upto)))


def transitions(events, opened: int, closed: int
                ) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """(subscription, object) -> (transition, arrival ns) of the events
    delivered between ``opened`` and ``closed``, in delivery order."""
    out: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for arrived, sid, obj, transition in events:
        if opened <= arrived <= closed:
            out.setdefault((sid, obj), []).append((transition, arrived))
    return out


def notify_latencies(observed, expected, due_ns: Dict[int, int]
                     ) -> Tuple[List[float], int]:
    """Each live event against the due time of the reading that caused
    it, paired through the crossing ledger (which has matched), and the
    number of distinct readings that caused them: one crossing fans out
    to every subscription watching either place, so the events are far
    from independent samples."""
    out = []
    causes = set()
    for key, arrivals in observed.items():
        for (_, arrived), (_, group) in zip(arrivals, expected[key]):
            out.append((arrived - due_ns[group]) / 1e6)
            causes.add(group)
    return out, len(causes)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = WORKLOADS[name]
    failures = Failures()
    failures.add("posterior arithmetic", oracles.check_posterior_arithmetic())
    rounds, plan = layout(workload, seconds)
    trace = workload.make_trace(seed, rounds)
    subs = subscriptions()
    # The trace is the benchmark's own data: keep it out of the
    # collector's scans so its size does not lengthen the program's
    # garbage-collection pauses.
    gc.collect()
    gc.freeze()

    os.makedirs(RUNS_DIR, exist_ok=True)
    workroot = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
    shutil.rmtree(workroot, ignore_errors=True)
    windows: Optional[Windows] = None
    shard_spans = os.path.join(workroot, "shard-spans")
    fleet = workload.deployment is Fleet
    setup_s: List[float] = []
    last_built: List[Any] = []     # stopped in the end if a path missed it

    def timed_build(workdir: str):
        last_built.clear()
        start = time.perf_counter()
        last_built.append(build(workload, trace, subs, workdir))
        setup_s.append(time.perf_counter() - start)
        return last_built[0]

    # Half the set-ups come before the run (the last one is the
    # deployment measured) and half after it, so setup_s samples the
    # host's speed at both ends of the run.
    before = (workload.setups + 1) // 2
    try:
        for attempt in range(before - 1):
            workdir = os.path.join(workroot, f"setup-{attempt}")
            timed_build(workdir).stop()
            shutil.rmtree(workdir)
        if traced:
            if fleet:
                os.makedirs(shard_spans)
                os.environ[SHARD_SPANS_ENV] = shard_spans
                windows = Windows(SpanRecorder(), install_router_probes,
                                  shard_spans, Fleet.shards)
            else:
                windows = Windows(SpanRecorder(), install_layer_probes)
        dep = timed_build(os.path.join(workroot, "measured"))
        os.environ.pop(SHARD_SPANS_ENV, None)
        result = measure(dep, trace, plan, workload, seed, failures,
                         windows)
        if windows is not None:
            result["layers"] = layer_metrics(windows, shard_spans, result,
                                             name, failures)
        # Drop the measured deployment (it was frozen with the trace).
        del dep
        last_built.clear()
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        for attempt in range(workload.setups - before):
            workdir = os.path.join(workroot, f"setup-after-{attempt}")
            timed_build(workdir).stop()
            shutil.rmtree(workdir)
        result["setup_s"] = statistics.median(setup_s)
    finally:
        os.environ.pop(SHARD_SPANS_ENV, None)
        try:
            for deployment in last_built:
                deployment.stop()
            last_built.clear()
        finally:
            stop_children()
        if windows is not None:
            windows.recorder.unpatch()
        shutil.rmtree(workroot, ignore_errors=True)
    return report(name, seed, seconds, traced, trace, result, failures)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The shard processes are gone once their deployments stopped; any a
    failed build left behind is terminated here.  The spawn start
    method also runs multiprocessing's resource tracker beside them,
    which would outlive this process until it saw its pipe close.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure(dep, trace: Trace, plan: Layout, workload: Workload, seed: int,
            failures: Failures, windows: Optional[Windows]
            ) -> Dict[str, Any]:
    """Warm-up, the live phase, the backlog, the checks and the
    recovery."""
    # Warm-up: the first rounds fill caches and lazy structures.  Each
    # round drains before the next, so no object's sightings coalesce
    # into one batch and the crossing ledger holds from the start.
    for index in range(1, plan.warm[1]):
        for reading in trace.groups[index]:
            dep.submit(reading)
        if (index + 1) % workload.objects == 0 and not dep.drain():
            failures.add("warm-up", ["did not drain"])

    live = Live({}, [], [], [], [])
    live_failures: List[str] = []
    first, last = plan.live
    if windows is not None:
        windows.on()
    opened = time.perf_counter_ns()
    live_phase(dep, trace, workload, first, last,
               random.Random(seed * 7919 + 17), live, live_failures)
    if not dep.drain():
        failures.add("live", ["did not drain"])
    closed = time.perf_counter_ns()
    if windows is not None:
        windows.off()
    live.span = (opened, closed)
    failures.add("live", live_failures[:5])
    observed = transitions(dep.events.region, opened, closed)
    expected = oracles.expected_crossings(trace, dep.sub_ids, first, last)
    errors = oracles.check_ledger_live(
        {k: [t for t, _ in v] for k, v in observed.items()}, expected)
    failures.add("live ledger", errors)
    if not errors:
        live.notify, live.notify_readings = notify_latencies(
            observed, expected, live.due_ns)

    # The backlog goes in parts, each drained before the next;
    # ingest_rps is the median of their rates, so a part slowed by the
    # host does not move it.  A traced run leaves the first and last
    # parts untraced (shard processes included), so the tracing
    # overhead is read off the same growing database with its drift
    # cancelled.
    backlog_s: List[float] = []
    for i, (a, b) in enumerate(plan.backlog):
        traced_part = windows is not None and 0 < i < len(plan.backlog) - 1
        if traced_part:
            windows.on()
        backlog_s.append(backlog_part(dep, trace, a, b))
        if traced_part:
            windows.off()

    total = plan.backlog[-1][1]
    submitted = trace.readings
    failures.add("accounting", dep.accounting(submitted))
    final = oracles.final_places(trace, total)
    failures.add("backlog ledger", oracles.check_alternation(
        {k: [t for t, _ in v] for k, v in transitions(
            dep.events.region, 0, time.perf_counter_ns()).items()},
        dep.sub_ids, final))
    failures.add("semantic ledger",
                 oracles.check_semantic(dep.events.semantic, final))
    check_point(dep, trace, total, seed, failures, "final check")
    counts = dep.layer_counts()
    fingerprint = dep.fingerprint()
    rows_in_wal = submitted
    if isinstance(dep, Fleet):
        owned = set(dep.shard0_objects())
        rows_in_wal = sum(1 for g in trace.groups for r in g
                          if r.object_id in owned)
    dep.stop()
    peak_rss = dep.peak_rss_mib()

    from repro.storage import WAL_NAME, readings_fingerprint, recover
    recover_s = []
    for _ in range(RECOVERIES):
        # Recovery runs in a fresh process in practice: keep the
        # benchmark's heap out of the collector's scans while it runs.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        state = recover(dep.wal_dir)
        recover_s.append(time.perf_counter() - start)
        if readings_fingerprint(state.db) != fingerprint:
            failures.add("recovery", ["recovered readings_fingerprint "
                                      "differs from the live database's"])
        expected_replay = dep.logged_before_readings + rows_in_wal
        if state.replayed != expected_replay:
            failures.add("recovery", [f"replayed {state.replayed} records, "
                                      f"the generator sent {expected_replay}"])
        del state

    backlog_readings = [sum(len(g) for g in trace.groups[a:b])
                        for a, b in plan.backlog]
    live_readings = sum(len(g) for g in trace.groups[slice(*plan.live)])
    return {
        "ingest_rps": statistics.median(
            n / s for n, s in zip(backlog_readings, backlog_s)),
        "chunk_rps": [n / s for n, s in zip(backlog_readings, backlog_s)],
        "notify": live.notify, "notify_readings": live.notify_readings,
        "locate": live.locate, "region": live.region, "lag": live.lag,
        "live_span": live.span,
        "recover_s": statistics.median(recover_s), "peak_rss_mb": peak_rss,
        "attempted": live.attempted + submitted - live_readings,
        "failed": live.failed,
        "counts": counts,
        "wal_bytes": os.path.getsize(os.path.join(dep.wal_dir, WAL_NAME)),
        "replayed": dep.logged_before_readings + rows_in_wal,
        "rows_in_wal": rows_in_wal,
    }


def layer_metrics(windows: Windows, shard_spans: str,
                  result: Dict[str, Any], name: str,
                  failures: Failures) -> Dict[str, float]:
    """Per-layer figures from the spans (this process and, on the
    fleet, the shard processes' inside this process's traced windows)
    and the program's own counters."""
    recorder = windows.recorder
    main = recorder.summary()
    recorder.write(os.path.join(RUNS_DIR, f"spans-{name}.jsonl"))
    samples = dict(recorder.samples)
    engine = main
    if windows.shards:
        parts = []
        for index, spans in enumerate(sorted(
                f for f in os.listdir(shard_spans)
                if f.startswith("spans-shard-"))):
            path = os.path.join(shard_spans, spans)
            parts.append(summarize(read_spans(path), windows.bounds))
            pid = spans[len("spans-shard-"):-len(".jsonl")]
            with open(os.path.join(shard_spans, f"samples-{pid}.json"),
                      encoding="utf-8") as handle:
                for key, values in json.load(handle).items():
                    samples.setdefault(key, []).extend(values)
            shutil.move(path, os.path.join(
                RUNS_DIR, f"spans-{name}-shard-{index}.jsonl"))
        if len(parts) != windows.shards:
            failures.add("tracing", [f"{len(parts)} of {windows.shards} "
                                     f"shard processes wrote spans"])
        engine = merge_summaries(parts)

    def per_call(summary, span: str, field: str = "self_ns") -> float:
        entry = summary.get(span)
        if not entry or not entry["calls"]:
            return 0.0
        return entry[field] / entry["calls"] / 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = result["counts"]
    rates = result["chunk_rps"]
    log_calls = engine.get("storage.log_prepared_insert", {}).get("calls", 0)
    log_ns = sum(engine.get(n, {}).get("total_ns", 0)
                 for n in ("storage.prepare_insert",
                           "storage.log_prepared_insert"))
    opened, closed = result["live_span"]
    queue_wait = [wait for at, wait in samples.get("pipeline.queue_wait", [])
                  if opened <= at <= closed]
    return {
        "bench.generator_lag_p99_ms": percentile(result["lag"], 0.99),
        "bench.traced_ingest_slowdown": ratio(rates[0] + rates[3],
                                              rates[1] + rates[2]),
        "pipeline.submit_us": per_call(engine, "pipeline.submit"),
        "pipeline.queue_wait_p50_ms": (percentile(queue_wait, 0.5)
                                       if queue_wait else 0.0),
        "pipeline.readings_per_batch": ratio(c["fused"], c["batches"]),
        "spatialdb.insert_reading_us": per_call(engine,
                                                "spatialdb.insert_reading"),
        "spatialdb.readings_for_us": per_call(engine,
                                              "spatialdb.readings_for"),
        "spatialdb.rows_held": c["rows"],
        "storage.log_insert_us": ratio(log_ns / 1e3, log_calls),
        "storage.wal_bytes_per_reading": ratio(result["wal_bytes"],
                                               result["rows_in_wal"]),
        "storage.replay_us_per_record": ratio(result["recover_s"] * 1e6,
                                              result["replayed"]),
        "core.fuse_us": per_call(engine, "core.fuse"),
        "core.fuse_calls": c["incremental_reuses"] + c["full_builds"],
        "core.fusion_cache_hit_ratio": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "core.incremental_reuse_ratio": ratio(
            c["incremental_reuses"],
            c["incremental_reuses"] + c["full_builds"]),
        "service.normalized_readings_us": per_call(
            engine, "service.normalized_readings"),
        "service.apply_fusion_result_us": per_call(
            engine, "service.apply_fusion_result"),
        "service.dispatch_prune_ratio": ratio(
            c["dispatch_pruned"], c["dispatch_pruned"]
            + c["dispatch_evaluated"]),
        "service.locate_self_us": per_call(engine, "service.locate"),
        "service.objects_in_region_self_us": per_call(
            engine, "service.objects_in_region"),
        "service.region_refine_ratio": ratio(
            c["region_refined"], c["region_refined"] + c["region_pruned"]),
        "reasoning.on_update_us": per_call(main, "reasoning.on_update"),
        "reasoning.semantic_prune_ratio": ratio(
            c["semantic_pruned"], c["semantic_pruned"]
            + c["semantic_evaluated"]),
        "orb.invocations": main.get("orb.invoke", {}).get("calls", 0),
        "orb.invoke_us": per_call(main, "orb.invoke", "total_ns"),
        "shard.router.submit_us": per_call(main, "shard.router.submit"),
        "shard.router.batch_size_mean": ratio(c.get("router_forwarded", 0),
                                              c.get("router_batches", 0)),
        "shard.router.sender_queue_peak": c.get("sender_queue_peak", 0),
        "shard.router.pump_events_us": per_call(main,
                                                "shard.router.pump_events"),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "notify_p50_ms": "ms", "peak_rss_mb": "MiB",
}
# Measured, printed and recorded on every run but left out of the
# result line: on a shared host they do not hold still from run to run
# (README, Steadiness).
RECORD_ONLY_END_TO_END = {
    "ingest_rps": "readings/s", "recover_s": "s",
    "notify_p90_ms": "ms", "notify_p99_ms": "ms",
    "locate_p50_ms": "ms", "locate_p90_ms": "ms",
    "region_query_p50_ms": "ms", "region_query_p90_ms": "ms",
}
# Fewest samples per run: a percentile reported needs at least ten
# samples beyond it (p99 of notify; p90 of the pull queries, which the
# live phase sends at a rate low enough that the fleet's one generator
# thread stays clear of saturation on a slow host).
MIN_SAMPLES = {"notify": 1000, "locate": 500, "region_query": 500}
# Notify events are not independent: one crossing fans out to every
# subscription watching either place, so the distinct readings behind
# them are counted and printed too.  The gated median needs enough of
# them on either side.
MIN_NOTIFY_READINGS = 32

# Per-layer metrics; the orb and shard.router ones read 0 in-process.
LAYER_UNITS = {
    "bench.generator_lag_p99_ms": "ms",
    "bench.traced_ingest_slowdown": "ratio",
    "pipeline.submit_us": "us",
    "pipeline.queue_wait_p50_ms": "ms",
    "pipeline.readings_per_batch": "readings",
    "spatialdb.insert_reading_us": "us",
    "spatialdb.readings_for_us": "us",
    "spatialdb.rows_held": "rows",
    "storage.log_insert_us": "us",
    "storage.wal_bytes_per_reading": "bytes",
    "storage.replay_us_per_record": "us",
    "core.fuse_us": "us",
    "core.fuse_calls": "calls",
    "core.fusion_cache_hit_ratio": "ratio",
    "core.incremental_reuse_ratio": "ratio",
    "service.normalized_readings_us": "us",
    "service.apply_fusion_result_us": "us",
    "service.dispatch_prune_ratio": "ratio",
    "service.locate_self_us": "us",
    "service.objects_in_region_self_us": "us",
    "service.region_refine_ratio": "ratio",
    "reasoning.on_update_us": "us",
    "reasoning.semantic_prune_ratio": "ratio",
    "orb.invoke_us": "us",
    "orb.invocations": "calls",
    "shard.router.submit_us": "us",
    "shard.router.batch_size_mean": "readings",
    "shard.router.sender_queue_peak": "readings",
    "shard.router.pump_events_us": "us",
}


def _git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report(name: str, seed: int, seconds: float, traced: bool,
           trace: Trace, result: Dict[str, Any], failures: Failures) -> int:
    latencies = {"notify": result["notify"], "locate": result["locate"],
                 "region_query": result["region"]}
    samples = {k: len(v) for k, v in latencies.items()}
    samples["notify_readings"] = result["notify_readings"]
    figures = {
        "setup_s": result["setup_s"],
        "ingest_rps": result["ingest_rps"],
        "recover_s": result["recover_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    units = {**END_TO_END_UNITS, **RECORD_ONLY_END_TO_END}
    if result["notify_readings"] < MIN_NOTIFY_READINGS:
        failures.add("sizing", [f"notify: events from "
                                f"{result['notify_readings']} readings, fewer "
                                f"than {MIN_NOTIFY_READINGS}"])
    for key, values in latencies.items():
        if len(values) < MIN_SAMPLES[key]:
            failures.add("sizing", [f"{key}: {len(values)} samples, fewer "
                                    f"than {MIN_SAMPLES[key]}"])
        for q in (50, 90, 99):
            if f"{key}_p{q}_ms" in units:
                figures[f"{key}_p{q}_ms"] = percentile(values, q / 100)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)} readings={trace.readings}")
    for key, unit in units.items():
        line = f"  {key:<24} {figures[key]:14.4f} {unit}"
        kind = key.rsplit("_", 2)[0]
        if kind in samples:
            line += f"  (n={samples[kind]})"
        if kind == "notify":
            line = line[:-1] + f" from {samples['notify_readings']} readings)"
        print(line)
    layers = result.get("layers", {})
    for key, unit in LAYER_UNITS.items():
        if key in layers:
            print(f"  {key:<34} {layers[key]:14.4f} {unit}")
    if traced:
        rates = result["chunk_rps"]
        print(f"  tracing overhead: untraced backlog chunks {rates[0]:.0f}, "
              f"{rates[3]:.0f} readings/s; traced {rates[1]:.0f}, "
              f"{rates[2]:.0f}")
    for error in failures.errors:
        print(f"  CHECK FAILED {error}")

    if traced:
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    correct = not failures.errors
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = {
        "git_revision": _git_revision(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "workload": name,
        "seed": seed, "seconds": seconds, "trace": int(traced),
        "unix_time": time.time(), "samples": samples,
        "end_to_end": figures, "per_layer": layers,
        "counts": result["counts"], "correct": correct,
        "chunk_rps": result["chunk_rps"],
        "attempted": result["attempted"], "failed": result["failed"],
        "errors": failures.errors,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RUNS_DIR, f"{stamp}-{name}-s{seed}-t{int(traced)}"
                                  f"-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(line), flush=True)
    return 0 if correct else 1
