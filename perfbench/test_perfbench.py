"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

About a minute on one core: the smoke tests run every workload for one
second with and without tracing.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import workloads as wl
from cranopt import cli, solver
from cranopt.downlink import check_downlink_feasible
from cranopt.oracle import CertificationReport
from cranopt.problem import DownlinkDesign, UplinkDesign
from cranopt.uplink import check_uplink_feasible

ROOT = wl.BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_workloads_are_the_listed_ones():
    assert list(wl.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    w = wl.WORKLOADS[name]
    a, b, c = w.generate(5), w.generate(5), w.generate(6)
    assert a.digest() == b.digest()
    assert a.texts == b.texts
    assert a.digest() != c.digest()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_run_emits_exactly_the_listed_metrics(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "certify-3x3", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _half_power(solve):
    """solve_instance returning the solved design at half its signal power."""

    def planted(inst, direction, opts=None):
        design, _, alloc = solve(inst, direction, opts)
        if direction == "uplink":
            half = UplinkDesign(S=0.5 * design.S, Q=design.Q,
                                active_basis=design.active_basis)
            return half, check_uplink_feasible(inst, half), alloc
        half = DownlinkDesign(S=0.5 * design.S, Q=0.5 * design.Q,
                              active_basis=design.active_basis)
        return half, check_downlink_feasible(inst, half), alloc

    return planted


@pytest.mark.parametrize("name, module", [("certify-3x3", cli), ("duality-corpus", solver)])
def test_planted_half_power_design_is_caught(name, module, monkeypatch):
    # certify looks solve_instance up in cli, duality_gap in solver
    monkeypatch.setattr(module, "solve_instance", _half_power(module.solve_instance))
    result = bench.run_workload(name, wl.REFERENCE_SEED, 2.0, trace=False)["result"]
    assert result["failed"] > 0
    assert not result["correct"]


def test_certification_that_evaluated_nothing_fails():
    w = wl.WORKLOADS["certify-3x3"]
    row = cli.ResultRow("x", "uplink", 1.0, 1.0, 0.5, 1.0, 1.0, 1, 0.0, 1.0, passed=True)
    vacuous = CertificationReport(
        "x", "uplink", 0.5, 0.0, 0.5, 1000, 0, True,
        diagnostics={"evaluated": 0, "projection_failures": 1000, "best_trial": -1},
    )
    call = wl.Call(0, 0.0, 1.0, {"rows": [row, row], "lines": 3, "reports": [vacuous, vacuous]})
    assert len(w.check(None, call, None)) == 2
