"""One fresh interpreter running one workload.

Started by ``run.py`` with its own kernel-cache and artifact-cache
directories; prints one JSON line with its set-up time, tallies and,
when traced, the per-layer self times and counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() just before this process was "
                             "started, so set-up includes interpreter "
                             "start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import hostspeed
    import pipeline
    from tracer import Tracer
    from workloads import WORKLOADS, Run

    run = Run(seed=args.seed, seconds=args.seconds, max_ops=args.max_ops,
              tracer=Tracer(bool(args.trace)),
              workdir=Path(args.workdir))
    workload = WORKLOADS[args.workload]()
    workload.setup(run)
    setup_s = time.time() - args.spawned
    setup_scale = hostspeed.scale()
    if args.setup_only:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0
    if run.tracer.enabled:
        pipeline.instrument(run.tracer)
    workload.measure(run)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "scales": run.scales,
        "wall_s": run.wall,
        "exhausted": run.exhausted,
        "ops": run.ops,
        "items": run.items,
        "failed": run.failed,
        "errors": run.errors,
        "samples_ms": run.samples,
        "blocks": run.blocks,
        "layers_s": run.tracer.self_seconds,
        "counts": dict(run.tracer.counts),
        "extra": run.extra,
        "peak_rss_mb": _peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
