"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload duality-corpus --seed 3 --seconds 45 --trace 0

Each workload is a closed loop with one client: calls run back to back on
one thread of this process, with BLAS pinned to one thread.  A run makes a
fixed number of calls, ``--seconds`` times the workload's
``calls_per_second``, so it lasts about ``--seconds`` on the machine that
rate was measured on, and every run does the same work.  (Operation costs
are heavy-tailed: with a time window, whether one 3-second solve finished
inside it changed the operation count by a quarter.)  A run stops starting
calls after 3 x ``--seconds``.  Every operation is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes half as
many calls, each once untraced and once with spans around every traced
layer, and prints the per-layer metrics of the traced calls; their extra
wall time is ``trace.overhead_frac``.  Human-readable lines (environment, calls,
``failed_frac``, the tail's percentile and sample count) come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl  # pins BLAS threads and loads cranopt from the checkout

import numpy as np  # noqa: E402  (after workloads has pinned BLAS)
import scipy  # noqa: E402

from tracing import Tracer, latency_summary, layer_metrics  # noqa: E402

BENCH_DIR, OUT_DIR = wl.BENCH_DIR, wl.OUT_DIR
SETUP_REPEATS = 3
DEADLINE_FACTOR = 3  # a run stops starting calls after 3x --seconds

# a fresh interpreter that imports cranopt and generates one workload's inputs
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "w = workloads.WORKLOADS[sys.argv[2]]; w.generate(int(sys.argv[3]))"
)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in wl.BLAS_THREAD_VARS},
        "seed": seed,
        "held_out_seed": wl.HELD_OUT_SEED,
        "reference_seed": wl.REFERENCE_SEED,
        "machine_settings_changed": False,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing cranopt and generating
    the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), name, str(seed)],
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds() -> dict[str, float]:
    """Cumulative import times of cranopt and scipy.optimize from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {str(wl.SRC)!r}); import cranopt"],
        check=True, capture_output=True, text=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("cranopt", "scipy.optimize"):
            found[m.group(2)] = int(m.group(1)) / 1e6
    return {
        "setup.import_cranopt_s": found["cranopt"],
        "setup.import_scipy_optimize_s": found.get("scipy.optimize", 0.0),
    }


def check_calls(workload, inputs, calls, reference) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for call in calls:
        bad = workload.check(inputs, call, reference)
        attempted += workload.ops_per_call()
        failed += len(bad)
        messages += bad
    return attempted, failed, messages


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object plus human-readable lines."""
    workload = wl.WORKLOADS[name]
    lines = [f"env {json.dumps(environment(seed), sort_keys=True)}"]
    setup_s = None if trace else setup_seconds(name, seed)
    inputs = workload.generate(seed)
    reference = wl.load_reference(name, inputs, seed)
    work_dir = OUT_DIR / f"inputs-{os.getpid()}"
    try:
        workload.materialize(inputs, work_dir)
        deadline = DEADLINE_FACTOR * seconds
        if not trace:
            n_calls = max(1, round(seconds * workload.calls_per_second))
            calls = wl.closed_loop(workload, inputs, range(n_calls), deadline)
        else:
            # each call runs untraced, then traced, so that the machine's
            # drift falls on both sides of the overhead alike
            n_calls = max(1, round(seconds * workload.calls_per_second / 2))
            tracer = Tracer()
            calls, replay = [], []
            t_start = time.perf_counter()
            for i in range(n_calls):
                if time.perf_counter() - t_start >= deadline:
                    break
                calls += wl.closed_loop(workload, inputs, [i])
                with tracer:
                    replay += wl.closed_loop(workload, inputs, [i], around=tracer.operation)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, messages = check_calls(workload, inputs, calls, reference)
    if trace:
        a2, f2, m2 = check_calls(workload, inputs, replay, reference)
        attempted, failed, messages = attempted + a2, failed + f2, messages + m2
    for msg in messages[:20]:
        print(f"FAILED {name}: {msg}", file=sys.stderr)

    def busy(run):  # seconds spent in calls
        return sum(c.end - c.start for c in run)

    if not trace:
        lat = [ms for call in calls for ms in workload.op_latencies(call)]
        elapsed = busy(calls)
        summary = latency_summary(lat)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / elapsed, "1/s"),
            "op_ms_p50": (summary["p50"], "ms"),
            "op_ms_tail": (summary["tail"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines.append(f"{len(calls)} calls in {elapsed:.3f} s: {len(lat)} ops")
        lines.append(f"op_ms_tail percentile {summary['tail_label']} n={summary['n']}")
    else:
        untraced = busy(calls)
        layers, notes = layer_metrics(tracer)
        layers.update(import_seconds())
        layers["trace.overhead_frac"] = busy(replay) / untraced - 1.0
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        lines.append(f"{len(replay)} calls traced; untraced {untraced:.3f} s")
        lines += [f"{k} tail {v}" for k, v in notes.items()]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        tracer.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(BENCH_DIR.parent)}")

    lines.append(
        f"failed_frac {failed / attempted if attempted else 0.0:.6g} ({failed}/{attempted})"
    )
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if ".ms_" in metric:
        return "ms"
    if metric.endswith(("_frac", "_ratio", ".op_share")):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
