"""Regenerate reference.json: the frozen per-op rates of duality-corpus at
the reference seed, which later runs at that seed must not fall short of by
more than 1e-9 bits.

    python3 perfbench/make_reference.py

Takes about three minutes on one core.  Run it only when the inputs change,
never to absorb a rate regression.
"""

from __future__ import annotations

import json
import shutil

import workloads as wl

# calls covered: the whole corpus, 3.6 times what one 45 s run makes
COVER = {"duality-corpus": wl.WORKLOADS["duality-corpus"].size}


def main() -> int:
    data = {"seed": wl.REFERENCE_SEED, "command": "python3 perfbench/make_reference.py"}
    work_dir = wl.OUT_DIR / "reference-inputs"
    try:
        for name, n in COVER.items():
            workload = wl.WORKLOADS[name]
            inputs = workload.generate(wl.REFERENCE_SEED)
            workload.materialize(inputs, work_dir)
            calls = wl.closed_loop(workload, inputs, range(n))
            bad = [m for c in calls for m in workload.check(inputs, c, None)]
            if bad:
                raise SystemExit(f"error: {name} fails its checks: {bad[:5]}")
            data[name] = {
                "inputs_sha256": inputs.digest(),
                "calls": n,
                "rates": [workload.op_rates(c) for c in calls],
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
