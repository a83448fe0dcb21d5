"""Spans around the library's public functions, recorded from outside.

A :class:`Tracer` replaces every binding of each traced function in the
``cranopt`` modules, i.e. the name each calling module looks up, with a
wrapper that records a span: name, start, end, parent span and operation id.
Spans stay in memory until the run ends.  Leaving the ``with`` block puts
the original functions back.

``majorization`` is not traced: no solve, sweep or certify path calls it.
``oracle.grid_oracle_scalar`` is not traced: only the CLI's ``oracle`` mode
and the tests call it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name -> (defining module, function)
LAYERS = {
    "kernels.svd": ("cranopt.kernels", "svd"),
    "allocation.solve_scalar_allocation": ("cranopt.allocation", "solve_scalar_allocation"),
    "uplink.assemble_uplink": ("cranopt.uplink", "assemble_uplink"),
    "uplink.check_uplink_feasible": ("cranopt.uplink", "check_uplink_feasible"),
    "uplink.uplink_rate": ("cranopt.uplink", "uplink_rate"),
    "downlink.assemble_downlink": ("cranopt.downlink", "assemble_downlink"),
    "downlink.check_downlink_feasible": ("cranopt.downlink", "check_downlink_feasible"),
    "downlink.downlink_rate": ("cranopt.downlink", "downlink_rate"),
    "problem.psd_part": ("cranopt.problem", "psd_part"),
    "oracle.feasibility_projection": ("cranopt.oracle", "feasibility_projection"),
    "oracle.perturbation_search": ("cranopt.oracle", "perturbation_search"),
    "solver.solve_instance": ("cranopt.solver", "solve_instance"),
    "cli.run": ("cranopt.cli", "run"),
    "cli.render_rows": ("cranopt.cli", "render_rows"),
}
OP = "op"  # root span the benchmark opens around each call of the closed loop

# the polish in solve_scalar_allocation tries 4 step sizes x 12 proposals
POLISH_ATTEMPTS_PER_SOLVE = 48


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.failed: list[int] = []  # indices of spans that raised
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op_id = -1
        self._bindings: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, observe=None):
        names, t0, t1, parent, ops = self.names, self.t0, self.t1, self.parent, self.op
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            ops.append(self._op_id)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed.append(idx)
                raise
            finally:
                t1[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def _observe_allocation(self, alloc):
        diag = alloc.diagnostics
        c = self.counts
        c["solves"] += 1
        c["ascent_rounds"] += diag.get("iterations", 0)
        if "polish_accepts" in diag:  # zero-budget solves return before the polish
            c["polished_solves"] += 1
            c["polish_accepts"] += diag["polish_accepts"]
        if int(np.count_nonzero(alloc.power > 0)) >= 2:
            c["spread_solves"] += 1

    def _observe_certification(self, report):
        self.counts["trials"] += report.trials
        self.counts["evaluated"] += report.diagnostics.get("evaluated", 0)

    def __enter__(self):
        observers = {
            "allocation.solve_scalar_allocation": self._observe_allocation,
            "oracle.perturbation_search": self._observe_certification,
        }
        modules = [m for k, m in sys.modules.items() if k == "cranopt" or k.startswith("cranopt.")]
        for name, (module, attr) in LAYERS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, value))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._bindings):
            setattr(mod, key, value)
        self._bindings.clear()
        return False

    @contextmanager
    def operation(self, op_id: int):
        self._op_id = op_id
        idx = len(self.names)
        self.names.append(OP)
        self.parent.append(-1)
        self.op.append(op_id)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        try:
            yield
        finally:
            self.t1[idx] = time.perf_counter()
            self._stack.pop()
            self._op_id = -1

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, op, failed."""
        failed = set(self.failed)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                rec = [name, self.t0[i], self.t1[i], self.parent[i], self.op[i], i in failed]
                fh.write(json.dumps(rec) + "\n")


def latency_summary(ms) -> dict:
    """Median and tail of a latency sample.  The tail is the sample with
    exactly ten samples above it, i.e. the highest percentile that still has
    ten samples beyond it; below eleven samples it is the maximum."""
    ms = np.sort(np.asarray(ms, dtype=float))
    n = ms.size
    above = 10 if n > 10 else 0
    return {
        "n": int(n),
        "p50": float(np.median(ms)),
        "tail": float(ms[n - 1 - above]),
        "tail_label": f"p{100.0 * (n - above) / n:.3g}" if above == 10 else "max",
    }


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], dict]:
    """Per-layer counts and times over all traced operations, plus notes
    (the solve-latency tail's percentile and sample count)."""
    names = np.array(tr.names, dtype=object)
    t0 = np.array(tr.t0)
    dur = np.array(tr.t1) - t0
    parent = np.array(tr.parent, dtype=np.int64)
    child = np.zeros(dur.size)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    selfs = dur - child
    failed = np.zeros(dur.size, dtype=bool)
    failed[tr.failed] = True

    def sel(name):
        return names == name

    roots = sel(OP)
    op_wall = float(dur[roots].sum())
    c = tr.counts
    m: dict[str, float] = {}

    def calls(name):
        return float(sel(name).sum())

    def busy(name):
        return float(dur[sel(name)].sum())

    def self_s(name):
        return float(selfs[sel(name)].sum())

    a = "allocation.solve_scalar_allocation"
    m[f"{a}.calls"] = calls(a)
    m[f"{a}.busy_s"] = busy(a)
    solve_ms = dur[sel(a)] * 1e3
    notes = {}
    if solve_ms.size:
        lat = latency_summary(solve_ms)
        m[f"{a}.ms_p50"], m[f"{a}.ms_tail"] = lat["p50"], lat["tail"]
        notes[f"{a}.ms_tail"] = f"{lat['tail_label']}, n={lat['n']}"
    else:
        m[f"{a}.ms_p50"] = m[f"{a}.ms_tail"] = 0.0
    m[f"{a}.op_share"] = busy(a) / op_wall
    m["allocation.ascent_rounds"] = c["ascent_rounds"]
    attempts = POLISH_ATTEMPTS_PER_SOLVE * c["polished_solves"]
    m["allocation.polish_attempts"] = attempts
    m["allocation.polish_accept_ratio"] = c["polish_accepts"] / attempts if attempts else 0.0
    m["allocation.spread_frac"] = c["spread_solves"] / c["solves"] if c["solves"] else 0.0

    o = "oracle.perturbation_search"
    m[f"{o}.calls"] = calls(o)
    m[f"{o}.busy_s"] = busy(o)
    m[f"{o}.op_share"] = busy(o) / op_wall
    f = "oracle.feasibility_projection"
    m[f"{f}.calls"] = calls(f)
    m[f"{f}.self_s"] = self_s(f)
    m[f"{f}.failed"] = float((sel(f) & failed).sum())
    m["oracle.trials_attempted"] = c["trials"]
    m["oracle.evaluated_ratio"] = c["evaluated"] / c["trials"] if c["trials"] else 0.0

    for name in ("problem.psd_part", "uplink.uplink_rate", "downlink.downlink_rate", "kernels.svd"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for name in (
        "uplink.assemble_uplink",
        "uplink.check_uplink_feasible",
        "downlink.assemble_downlink",
        "downlink.check_downlink_feasible",
        "cli.render_rows",
    ):
        m[f"{name}.busy_s"] = busy(name)
    m["solver.solve_instance.self_s"] = self_s("solver.solve_instance")
    m["cli.run.self_s"] = self_s("cli.run")

    m["trace.ops"] = float(roots.sum())
    m["trace.op_wall_s"] = op_wall
    m["trace.coverage_frac"] = float(child[roots].sum()) / op_wall
    return m, notes
