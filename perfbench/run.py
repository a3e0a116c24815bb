#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload floor-ingest --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Each run builds its deployment several
times before and after the measured part (``setup_s`` is the median),
sends a seeded trace through an open-loop live phase and a backlog
phase, checks the program's answers against oracles of its own, stops
cleanly and rebuilds the database from the write-ahead log.  The last
line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Under the spawn start method ShardCluster's children import this
# script as ``__mp_main__``; a traced fleet run asks them to trace
# their own layers (see tracing.py).
if __name__ == "__mp_main__":
    from tracing import SHARD_SPANS_ENV, trace_shard_process
    if os.environ.get(SHARD_SPANS_ENV):
        trace_shard_process(os.environ[SHARD_SPANS_ENV])


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
