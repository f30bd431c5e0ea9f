"""One process of one workload run: a group of inputs in a fresh interpreter.

Set-up time runs from the first line of this script, so it covers
importing finspan, generating and relabelling the documents, and
writing them out.  Wall time runs from the workload's first call to its
last verdict.  Untraced processes also report both in reference seconds
(`refclock.py`); traced ones run without the clock's probes, which would
otherwise land in the self time of whatever function they interrupt.
Prints one JSON object on one line.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --workdir DIR [--group I] [--size small] [--trace]

`--group` picks which of the workload's process groups to run (see
`workloads.groups`); the output says how many there are.
"""

import sys
import time

from refclock import RefClock

# Started before the imports, so that set-up time covers them.
CLOCK = RefClock() if __name__ == "__main__" and "--trace" not in sys.argv[1:] else None
if CLOCK is not None:
    CLOCK.start()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import finspan  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "small"], default="full")
    parser.add_argument("--group", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    rec = workloads.Recorder()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        inputs = workloads.prepare(args.workload, args.size, args.group, args.seed, Path(tmp))
        setup_end = time.perf_counter()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            workloads.WORKLOADS[args.workload](inputs, Path(tmp), rec)
        except Exception:  # a crash fails every operation not yet recorded
            rec.failures.append(traceback.format_exc())
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
    times = {"setup_s": setup_end - _START, "wall_s": end - start}
    if CLOCK is not None:
        CLOCK.stop()
        times["setup_s"], times["setup_ref_s"] = CLOCK.measure(_START, setup_end)
        times["wall_s"], times["wall_ref_s"] = CLOCK.measure(start, end)
    planned = workloads.planned_ops(args.workload, inputs)
    result = {
        "finspan": finspan.__file__,
        "groups": len(workloads.groups(args.workload, args.size)),
        **times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": planned,
        "failed": planned - rec.passed,
        "failures": rec.failures,
        "inputs": rec.per_input,
    }
    if tracer is not None:
        result["layers"] = tracer.counts()
        tracer.write_spans(args.workdir / f"spans-{args.workload}-{args.group}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
