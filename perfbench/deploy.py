"""The two deployments the workloads drive, through public API only.

``InProcess`` is one ``LocationService`` behind a ``LocationPipeline``
with a buffered write-ahead log; ``Fleet`` is ``ShardCluster(2)``: a
``ShardRouter`` talking to two shard processes over ORB TCP, each shard
with its own log.  Both run with the program's default settings.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Dict, List, Tuple

from repro.pipeline import PipelineReading

from workloads import SEMANTIC_RULES, SUBSCRIPTION_THRESHOLD, Trace


class Events:
    """Everything the subscribers were told, stamped on arrival."""

    def __init__(self) -> None:
        # (arrival ns, subscription id, object id, transition)
        self.region: List[Tuple[int, str, str, str]] = []
        # (rule, transition, solution)
        self.semantic: List[Tuple[str, str, Tuple[str, ...]]] = []
        self.rule_of: Dict[str, str] = {}

    def on_region(self, event: Dict[str, Any]) -> None:
        self.region.append((time.perf_counter_ns(), event["subscription_id"],
                            event["object_id"], event["transition"]))

    def on_semantic(self, event: Dict[str, Any]) -> None:
        rule = self.rule_of[event["subscription_id"]]
        bindings = event["bindings"]
        solution = tuple(bindings[v] for v in sorted(bindings))
        self.semantic.append((rule, event["transition"], solution))


def _peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class InProcess:
    """LocationService + LocationPipeline + buffered WAL, one process."""

    name = "in-process"

    def __init__(self, trace: Trace, subs, workdir: str) -> None:
        from repro import LocationPipeline, LocationService, SpatialDatabase
        from repro.sim import siebel_floor
        from repro.storage import DurabilityManager, DurabilityMode

        self.trace = trace
        self.events = Events()
        self.wal_dir = os.path.join(workdir, "wal")
        self.db = SpatialDatabase(siebel_floor())
        self.durability = DurabilityManager(
            self.db, self.wal_dir, mode=DurabilityMode.BUFFERED).attach()
        self.service = LocationService(self.db)
        for sensor_id, spec in sorted(trace.sensors.items()):
            self.db.register_sensor(sensor_id, spec.sensor_type,
                                    spec.confidence_percent(),
                                    spec.time_to_live, spec)
        self.sub_ids = {}
        for sub in subs:
            sid = self.service.subscribe(
                sub.region, consumer=self.events.on_region, kind=sub.kind,
                threshold=SUBSCRIPTION_THRESHOLD)
            self.sub_ids[sid] = sub
        for rule in SEMANTIC_RULES:
            sid = self.service.subscribe_semantic(
                rule, consumer=self.events.on_semantic, now=0.0)
            self.events.rule_of[sid] = rule
        self.logged_before_readings = len(trace.sensors) + len(subs)
        self.pipeline = LocationPipeline(self.service).start()
        self.stopped = False

    # The workload's operations ---------------------------------------

    def submit(self, reading: PipelineReading) -> bool:
        return self.pipeline.submit(reading)

    def locate(self, object_id: str, now: float):
        return self.service.locate(object_id, now)

    def objects_in_region(self, place: str, now: float):
        return self.service.objects_in_region(place, now)

    def objects_in_region_reference(self, place: str, now: float):
        return self.service.objects_in_region_reference(place, now)

    def pump(self) -> int:
        return 0

    def drain(self) -> bool:
        return self.pipeline.drain(60.0)

    # Books and layer counters ------------------------------------------

    def accounting(self, submitted: int) -> List[str]:
        stats = self.pipeline.stats()
        errors = []
        if not stats.reconciles():
            errors.append(f"enqueued={stats.enqueued} != fused={stats.fused}"
                          f" + dropped={stats.dropped} + dead_lettered="
                          f"{stats.dead_lettered}")
        if stats.enqueued != submitted or stats.fused != submitted:
            errors.append(f"submitted {submitted} readings, pipeline "
                          f"enqueued {stats.enqueued}, fused {stats.fused}")
        if self.service.notification_failures:
            errors.append(f"notification failures: "
                          f"{self.service.notification_failures[:3]}")
        return errors

    def layer_counts(self) -> Dict[str, float]:
        stats = self.pipeline.stats()
        query = self.service.query_stats()
        semantic = self.service.semantic.stats()
        return {
            "fused": stats.fused, "batches": stats.batches,
            "rows": len(self.db.sensor_readings),
            **_cache_counts([self.service.cache_stats()]),
            **_query_counts([query]),
            "semantic_evaluated": semantic["evaluated"],
            "semantic_pruned": semantic["pruned"],
        }

    def fingerprint(self) -> str:
        from repro.storage import readings_fingerprint
        return readings_fingerprint(self.db)

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        self.pipeline.stop()
        self.durability.close()

    def peak_rss_mib(self) -> float:
        return _peak_rss_mib(resource.RUSAGE_SELF)


def _cache_counts(caches: List[Dict[str, int]]) -> Dict[str, float]:
    return {
        "cache_hits": sum(c["hits"] for c in caches),
        "cache_misses": sum(c["misses"] for c in caches),
        "incremental_reuses": sum(c["incremental_reuses"] for c in caches),
        "full_builds": sum(c["full_builds"] for c in caches),
    }


def _query_counts(queries: List[Dict[str, int]]) -> Dict[str, float]:
    return {
        "dispatch_evaluated": sum(q["subscriptions_evaluated"]
                                  for q in queries),
        "dispatch_pruned": sum(q["subscriptions_pruned"] for q in queries),
        "region_pruned": sum(q["region_queries_pruned"] for q in queries),
        "region_refined": sum(q["region_queries_refined"] for q in queries),
    }


class Fleet:
    """ShardCluster(2): router + two shard processes over ORB TCP."""

    name = "fleet"
    shards = 2

    def __init__(self, trace: Trace, subs, workdir: str) -> None:
        from repro import ShardCluster

        self.trace = trace
        self.events = Events()
        self.wal_root = os.path.join(workdir, "fleet")
        self.wal_dir = os.path.join(self.wal_root, "shard-0", "g0")
        self.cluster = ShardCluster(self.shards, wal_root=self.wal_root)
        self.router = self.cluster.router
        for sensor_id, spec in sorted(trace.sensors.items()):
            self.router.register_sensor(sensor_id, spec.sensor_type,
                                        spec.confidence_percent(),
                                        spec.time_to_live, spec)
        self.sub_ids = {}
        for sub in subs:
            sid = self.router.subscribe(
                sub.region, consumer=self.events.on_region, kind=sub.kind,
                threshold=SUBSCRIPTION_THRESHOLD)
            self.sub_ids[sid] = sub
        for rule in SEMANTIC_RULES:
            sid = self.router.subscribe_semantic(
                rule, consumer=self.events.on_semantic, now=0.0)
            self.events.rule_of[sid] = rule
        self.logged_before_readings = len(trace.sensors) + len(subs)
        self.stopped = False

    def submit(self, reading: PipelineReading) -> bool:
        return self.router.submit(reading)

    def locate(self, object_id: str, now: float):
        return self.router.locate(object_id, now)

    def objects_in_region(self, place: str, now: float):
        return self.router.objects_in_region(place, now)

    def objects_in_region_reference(self, place: str, now: float):
        return self.router.objects_in_region_reference(place, now)

    def pump(self) -> int:
        return self.router.pump_events()

    def drain(self) -> bool:
        drained = self.router.drain(60.0)
        self.router.pump_events()
        return drained

    def accounting(self, submitted: int) -> List[str]:
        stats = self.router.stats()
        router, fleet = stats["router"], stats["fleet"]
        errors = []
        routed = (router["forwarded"] + router["router_dead_lettered"]
                  + router["pending"])
        if router["submitted"] != routed:
            errors.append(f"router submitted={router['submitted']} != "
                          f"forwarded + dead_lettered + pending = {routed}")
        if fleet["enqueued"] != (fleet["fused"] + fleet["dropped"]
                                 + fleet["dead_lettered"]):
            errors.append(f"fleet enqueued={fleet['enqueued']} != fused + "
                          f"dropped + dead_lettered")
        if router["submitted"] != submitted or fleet["fused"] != submitted:
            errors.append(f"submitted {submitted} readings, router counted "
                          f"{router['submitted']}, shards fused "
                          f"{fleet['fused']}")
        if router["errors"]:
            errors.append(f"router errors: {router['errors'][:3]}")
        return errors

    def layer_counts(self) -> Dict[str, float]:
        stats = self.router.stats()
        shards = [s for s in stats["shards"] if s is not None]
        semantic = stats["router"]["semantic"]
        senders = stats["router"]["senders"]
        return {
            "fused": stats["fleet"]["fused"],
            "batches": stats["fleet"]["batches"],
            "rows": stats["fleet"]["readings"],
            **_cache_counts([s["cache"] for s in shards]),
            **_query_counts([s["query"] for s in shards]),
            "semantic_evaluated": semantic["evaluated"],
            "semantic_pruned": semantic["pruned"],
            "router_forwarded": stats["router"]["forwarded"],
            "router_batches": sum(s["batches"] for s in senders),
            "sender_queue_peak": max(s["queue_peak"] for s in senders),
        }

    def shard0_objects(self) -> List[str]:
        return self.router.proxy(0).tracked_objects()

    def fingerprint(self) -> str:
        return self.router.proxy(0).fingerprint()

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        self.cluster.shutdown()

    def peak_rss_mib(self) -> float:
        return max(_peak_rss_mib(resource.RUSAGE_SELF),
                   _peak_rss_mib(resource.RUSAGE_CHILDREN))
