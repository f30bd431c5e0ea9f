"""finspan benchmark: time to verdict on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every process is a fresh interpreter (`perfbench/worker.py`), because
finspan's value-keyed global caches would otherwise carry results from
one repetition into the next.  A round runs the workload once: one
process per input, or one process for the whole session workload.
Rounds repeat until `--seconds` are used up.

`wall_s` and `setup_s` are sums over processes of the median
repetition, in reference seconds (`refclock.py`): the machine's speed
swings by up to two times within seconds, and a wall-clock time would
measure the neighbours as much as finspan.  The detail line carries the
same sums in plain seconds.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` traced and untraced processes alternate, and the last line
reports the per-layer metrics of the traced ones (sums over processes of
medians) plus the tracing overhead.  The line before the last carries
per-input times next to the input sizes |X_0..X_N|, document bytes and
candidate totals.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names, per_layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ["segal-scaling", "coherence", "lift-search", "roundtrip-session"]
# A run must end within 180 s; no process starts that is expected to end later than this.
LAST_END_S = 150.0
PER_LAYER_UNITS = metric_names() + [
    ("trace_overhead", "ratio"), ("failed_share", "share"), ("ops", "count"),
]


def run_worker(root: Path, workload: str, seed: int, size: str, group: int, traced: bool,
               timeout: float) -> dict:
    workdir = root / ".perfbench_work"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--group", str(group),
           "--workdir", str(workdir)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = root / "src" / "finspan" / "__init__.py"
    if Path(result["finspan"]).resolve() != expected.resolve():
        raise RuntimeError(f"worker imported {result['finspan']}, not {expected}")
    return result


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict]:
    """Run the workload for `seconds`; return (result line, detail line).

    A round runs each of the workload's process groups once.  The first
    round always runs; after it, processes keep cycling through the groups
    while the next one is expected to end within `seconds`.
    """
    (root / ".perfbench_work").mkdir(exist_ok=True)
    modes = [False, True] if trace else [False]
    samples: dict[bool, list[list[dict]]] = {traced: [] for traced in modes}
    longest: dict[tuple[bool, int], float] = {}
    start = time.perf_counter()

    def run(traced: bool, group: int) -> dict:
        t0 = time.perf_counter()
        result = run_worker(root, workload, seed, size, group, traced,
                            timeout=170.0 - (t0 - start))
        spent = time.perf_counter() - t0
        longest[traced, group] = max(spent, longest.get((traced, group), 0.0))
        if group == len(samples[traced]):
            samples[traced].append([])
        samples[traced][group].append(result)
        return result

    groups = 1
    for traced in modes:
        group = 0
        while group < groups:
            groups = run(traced, group)["groups"]
            group += 1
    slots = [(traced, group) for traced in modes for group in range(groups)]
    for i in itertools.count():
        slot = slots[i % len(slots)]
        expected_end = time.perf_counter() - start + longest[slot]
        if expected_end > seconds or expected_end > LAST_END_S:
            break
        run(*slot)

    every = [r for traced in modes for group in samples[traced] for r in group]
    attempted = sum(r["ops"] for r in every)
    failed = sum(r["failed"] for r in every)
    for r in every:
        for failure in r["failures"]:
            print(f"failed: {failure}", file=sys.stderr)

    def per_group(traced, value, pick=statistics.median):
        return [pick(value(r) for r in group) for group in samples[traced]]

    def total(traced, key, pick=statistics.median):
        return sum(per_group(traced, lambda r: r[key], pick))

    if trace:
        counts = {key: sum(per_group(True, lambda r: r["layers"][key]))
                  for key in samples[True][0][0]["layers"]}
        metrics = per_layer_metrics(counts)
        metrics["trace_overhead"] = total(True, "wall_s", min) / total(False, "wall_s", min)
        metrics["failed_share"] = failed / attempted
        metrics["ops"] = sum(group[0]["ops"] for group in samples[True])
        units = dict(PER_LAYER_UNITS)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": total(False, "wall_ref_s"), "unit": "s"},
            "setup_s": {"value": total(False, "setup_ref_s"), "unit": "s"},
            "peak_rss_mb": {"value": max(per_group(False, lambda r: r["peak_rss_mb"])),
                            "unit": "MB"},
            "pass_share": {"value": 1 - failed / attempted, "unit": "share"},
        }

    per_input: dict[str, list[dict]] = {}
    for group in samples[False]:
        for r in group:
            for entry in r["inputs"]:
                per_input.setdefault(entry["input"], []).append(entry)
    detail = {
        "workload": workload,
        "seed": seed,
        "repetitions": {("traced" if traced else "untraced"): [len(g) for g in samples[traced]]
                        for traced in modes},
        "ops": sum(group[0]["ops"] for group in samples[False]),
        "failed_share": failed / attempted,
        "wall_s_plain": total(False, "wall_s"),
        "setup_s_plain": total(False, "setup_s"),
        **({"traced_wall_s": total(True, "wall_s")} if trace else {}),
        "inputs": [
            dict(entries[0], seconds=min(e["seconds"] for e in entries))
            for entries in per_input.values()
        ],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "finspan" / "__init__.py").is_file():
        print("error: run from the root of a finspan checkout (src/finspan not found)",
              file=sys.stderr)
        return 2
    try:
        result, detail = measure(root, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
