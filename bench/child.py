"""One repetition of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
first thing it does is import the CLI module and read the monotonic clock,
so that the parent can measure set-up time as that reading minus the
moment it started this process; a burst of reference kernels right after
gives the host speed to normalise that time with (see speed.py).  It then
runs the workload (traced or not) under the speed probe, checks the
outputs and prints one JSON line on stdout.

    python3 bench/child.py --setup-only
    python3 bench/child.py --workload certify_ladder --seed 0 --trace 0
"""

import time

import cayleysrg.cli  # noqa: F401  (the import whose cost set-up time measures)

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S, SETUP_KERNELS, SpeedProbe, time_kernel  # noqa: E402

SETUP_SCALE = REFERENCE_S / time_kernel(SETUP_KERNELS)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1, write the span list to this file")
    args = parser.parse_args()
    if args.setup_only:
        import numpy
        print(json.dumps({"setup_done": SETUP_DONE, "setup_scale": SETUP_SCALE,
                          "numpy": numpy.__version__}))
        return 0

    import workloads
    from tracing import Tracer, install, layer_metrics

    spec = workloads.inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            intervals, outputs, json_bytes = workloads.RUNNERS[args.workload](spec)
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.unpatch()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_wall, wall = probe.normalise(start, end)
    units = {key: probe.normalise(*span) for key, span in intervals.items()}

    checks = workloads.CHECKS[args.workload](spec, outputs)
    result = {
        "setup_done": SETUP_DONE,
        "setup_scale": SETUP_SCALE,
        "inputs": spec,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "unit_s": {key: norm for key, (_, norm) in units.items()},
        "raw_unit_s": {key: raw for key, (raw, _) in units.items()},
        "peak_rss_mb": peak_kib / 1024,
        "probe_samples": len(probe.samples),
        "attempted": len(checks),
        "failed": [name for name, ok in checks if not ok],
    }
    if tracer is not None:
        # Spans hold raw clock readings, so the layer table adds up to the
        # raw wall time, probe kernels included.
        result["layers"] = layer_metrics(tracer, end - start, json_bytes)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
