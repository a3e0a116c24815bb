#!/usr/bin/env python3
"""Reference figure: floor-ingest's backlog inserted synchronously.

    python3 perfbench/sync_baseline.py --seed 1 --seconds 25

Builds floor-ingest's deployment and stops its pipeline (same world,
buffered WAL, sensors, 200 subscriptions and semantic rules), feeds
the whole trace through ``SpatialDatabase.insert_reading`` with
triggers on, on one thread, and prints the median readings per second
of the backlog's parts, as ``ingest_rps`` reads them: the baseline
the pipeline is read against.  Not part of the benchmark's result
line.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()

    from bench import WORKLOADS, layout
    from deploy import InProcess
    from workloads import subscriptions

    workload = WORKLOADS["floor-ingest"]
    rounds, plan = layout(workload, args.seconds)
    trace = workload.make_trace(args.seed, rounds)
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sync-baseline-",
                               dir=os.path.join(HERE, "runs"))
    try:
        # floor-ingest's deployment with its pipeline stopped: inserts
        # go straight to the database and fire the triggers in line.
        dep = InProcess(trace, subscriptions(), workdir)
        dep.pipeline.stop()
        db = dep.db

        def insert(first: int, last: int) -> float:
            start = time.perf_counter()
            for group in trace.groups[first:last]:
                for r in group:
                    db.insert_reading(
                        sensor_id=r.sensor_id, glob_prefix=r.glob_prefix,
                        sensor_type=r.sensor_type,
                        mobile_object_id=r.object_id, rect=r.rect,
                        detection_time=r.detection_time,
                        location=r.location,
                        detection_radius=r.detection_radius)
            return time.perf_counter() - start

        insert(plan.warm[0], plan.live[1])
        rates = []
        for first, last in plan.backlog:
            count = sum(len(g) for g in trace.groups[first:last])
            rates.append(count / insert(first, last))
        dep.durability.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"synchronous insert_reading, triggers on: median "
          f"{statistics.median(rates):.0f} readings/s over the backlog's "
          f"parts ({', '.join(f'{r:.0f}' for r in rates)}); "
          f"{len(dep.events.region) + len(dep.events.semantic)} events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
