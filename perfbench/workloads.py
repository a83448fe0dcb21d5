"""Seeded inputs, operations and output checks of the benchmark workloads.

Importing this module pins BLAS to one thread and puts the checkout's own
``src`` first on ``sys.path`` before numpy and cranopt load, so the benchmark
always measures the library source that sits beside it.

Input design.  The scalar solver sees only a channel's singular values, and
its cost for one budget pair varies 30-fold between two Gaussian draws of the
same shape (15 ms to 4 s on one core).  With a few hundred solves per run,
fully random corpora would make throughput depend more on the seed than on
the program.  Every channel is therefore built as H = U diag(s) V^H: the
singular values s come from a fixed Gaussian design (``SPECTRUM_SEED``, one
draw per corpus position), and the run seed draws the Haar-random bases U, V.
Each H is still distributed exactly as a complex Gaussian channel, every
matrix the library touches changes with the seed, and the solver work per
corpus position stays the same from seed to seed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "cranopt" / "__init__.py").is_file():
    raise SystemExit(f"error: no cranopt source under {SRC}; run from a checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import hashlib  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import cranopt  # noqa: E402
from cranopt import cli, solver  # noqa: E402

if not Path(cranopt.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: cranopt loaded from {cranopt.__file__}, not from {SRC}")

SPECTRUM_SEED = 7  # fixes the singular-value design; the run seed draws the bases
REFERENCE_SEED = 0  # run seed of the frozen reference rates
HELD_OUT_SEED = 9001  # never used while tuning; reserved to confirm later claims

GAP_TOL = 1e-5  # duality gate, bits
RATE_TOL = 1e-9  # rate ceilings (C, water-filling), bits
REFERENCE_TOL = 1e-9  # allowed shortfall against the frozen reference, bits

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / ".out"  # run outputs: instance files while running, spans


def _haar(n: int, rng) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Qm, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Qm * (d / np.abs(d))


def _channel(n_r: int, n_u: int, design_key: tuple, rng) -> np.ndarray:
    """Channel with design singular values and seed-drawn bases."""
    srng = np.random.default_rng((SPECTRUM_SEED,) + design_key)
    G = srng.standard_normal((n_r, n_u)) + 1j * srng.standard_normal((n_r, n_u))
    s = np.linalg.svd(G / np.sqrt(2.0), compute_uv=False)
    D = s.size
    U = _haar(n_r, rng)[:, :D]
    V = _haar(n_u, rng)[:, :D]
    return (U * s) @ V.conj().T


def instance_record(label: str, H: np.ndarray, P: float, C: float) -> dict:
    """One instance in the CLI's JSON instance format."""
    return {
        "id": label,
        "n_r": int(H.shape[0]),
        "n_u": int(H.shape[1]),
        "H": [[[float(v.real), float(v.imag)] for v in row] for row in H],
        "P": float(P),
        "C": float(C),
        "sigma2": 1.0,
    }


@dataclass
class Call:
    """One turn of the closed loop: a library call yielding one or more ops."""

    index: int  # position in the loop; the input used is index % corpus size
    start: float  # time.perf_counter() readings
    end: float
    out: object = None
    error: str | None = None


@dataclass
class Inputs:
    """Generated inputs of one workload at one seed."""

    items: list
    texts: list = field(default_factory=list)  # instance JSON text, for the CLI
    paths: list = field(default_factory=list)  # set by materialize()

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.items:
            h.update(np.ascontiguousarray(item["H"]).tobytes())
            h.update(np.array([item["P"], item["C"]]).tobytes())
        return h.hexdigest()


class Workload:
    name = ""
    why = ""
    size = 0  # corpus length; the loop wraps round it only if it runs out
    # calls per second at the commit that introduced the benchmark, on 2 cores
    # of an Intel Xeon (KVM guest), BLAS on one thread; sets the fixed work
    # of a run, so that one run with --seconds S lasts about S seconds there
    calls_per_second = 1.0

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def materialize(self, inputs: Inputs, out_dir: Path) -> None:
        """Write CLI instance files; workloads calling the library directly have none."""

    def call(self, inputs: Inputs, i: int):
        raise NotImplementedError

    def ops_per_call(self) -> int:
        return 1

    def op_latencies(self, call: Call) -> list[float]:
        """Latency in ms of each op of a call."""
        raise NotImplementedError

    def check(self, inputs: Inputs, call: Call, reference) -> list[str]:
        """One message per failed op of the call; empty when all ops pass."""
        raise NotImplementedError


class DualityCorpus(Workload):
    name = "duality-corpus"
    why = (
        "the headline use: duality_gap on criterion-1-shaped instances; "
        "allocation is ~99% of the time and C=8 solves form the tail"
    )
    size = 576  # four strata cycles of 144
    calls_per_second = 3.5

    P_CYCLE = (0.5, 1.0, 4.0)
    C_CYCLE = (0.5, 2.0, 8.0)

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng((seed, 1))
        items = []
        for k in range(self.size):
            # criterion-1 strata: 16 shapes x 9 budget pairs in a 144-cycle
            n_r, n_u = 1 + k % 4, 1 + (k // 4) % 4
            P, C = self.P_CYCLE[k % 3], self.C_CYCLE[(k // 3) % 3]
            H = _channel(n_r, n_u, (1, k), rng)
            inst = cranopt.ChannelInstance(H=H, P=P, C=C, sigma2=1.0)
            items.append({"H": H, "P": P, "C": C, "inst": inst})
        return Inputs(items)

    def call(self, inputs, i):
        return solver.duality_gap(inputs.items[i % self.size]["inst"])

    def op_latencies(self, call):
        return [(call.end - call.start) * 1e3]

    def op_rates(self, call):
        """Uplink and downlink rate, as the frozen reference stores them."""
        return [call.out["uplink_rate"], call.out["downlink_rate"]]

    def check(self, inputs, call, reference):
        if call.error is not None:
            return [f"call {call.index} raised: {call.error}"]
        out = call.out
        bad = []
        if not out["gap"] <= GAP_TOL:
            bad.append(f"gap {out['gap']:.3e} > {GAP_TOL}")
        if not (out["uplink_report"].feasible and out["downlink_report"].feasible):
            bad.append("a report is infeasible")
        if reference is not None and call.index < len(reference):
            pairs = zip(("uplink", "downlink"), self.op_rates(call), reference[call.index])
            bad += [
                f"{d} rate {r!r} below reference {q!r}"
                for d, r, q in pairs
                if r < q - REFERENCE_TOL
            ]
        return [f"call {call.index}: " + "; ".join(bad)] if bad else []


class Certify3x3(Workload):
    """The CLI's certify mode on one instance file per call (both directions)."""

    name = "certify-3x3"
    why = (
        "CLI certify on 3x3 channels at criterion-2 budgets, 1000 trials per design; "
        "feasibility_projection dominates and solver changes should barely show"
    )
    size = 240
    # 45 s make 30 calls: two whole 15-instance cycles of criterion 2's budgets,
    # so the median and the tail fall inside a budget group, not between two
    calls_per_second = 2 / 3
    TRIALS = 1000

    P_CYCLE = (0.5, 1.0, 4.0)
    C_CYCLE = (0.5, 2.0, 8.0)

    def generate(self, seed):
        rng = np.random.default_rng((seed, 3))
        items, texts = [], []
        for k in range(self.size):
            P, C = self.P_CYCLE[k % 3], self.C_CYCLE[(k // 5) % 3]  # criterion 2
            H = _channel(3, 3, (3, k), rng)
            items.append({"H": H, "P": P, "C": C})
            texts.append(json.dumps(instance_record(f"cert-{k:04d}", H, P, C)))
        return Inputs(items, texts)

    def materialize(self, inputs, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        inputs.paths = []
        for k, text in enumerate(inputs.texts):
            path = out_dir / f"{self.name}-{k:04d}.json"
            path.write_text(text, encoding="utf-8")
            inputs.paths.append(str(path))

    def ops_per_call(self):
        return 2

    def call(self, inputs, i):
        # capture the certification reports the CSV rows do not carry
        reports = []
        search = cli.perturbation_search

        def capture(*args, **kwargs):
            rep = search(*args, **kwargs)
            reports.append(rep)
            return rep

        config = cli.ExperimentConfig(
            mode="certify", instances_path=inputs.paths[i % self.size], trials=self.TRIALS
        )
        cli.perturbation_search = capture
        try:
            rows, _ = cli.run(config)
        finally:
            cli.perturbation_search = search
        text = cli.render_rows(rows, "csv")
        return {"rows": rows, "lines": text.count("\n"), "reports": reports}

    def op_latencies(self, call):
        # the CLI times each row itself; run() returns them all at once
        return [] if call.out is None else [r.wall_ms for r in call.out["rows"]]

    def check(self, inputs, call, reference):
        if call.error is not None:
            return [f"call {call.index} raised: {call.error}"] * 2
        rows = call.out["rows"]
        if len(rows) != 2 or len(call.out["reports"]) != 2:
            return [f"call {call.index}: {len(rows)} rows"] * 2
        if call.out["lines"] != 3:
            return [f"call {call.index}: rendered {call.out['lines']} lines"] * 2
        bad = []
        for k, (row, rep) in enumerate(zip(rows, call.out["reports"])):
            why = []
            if not row.passed:
                why.append(f"verdict or feasibility failed, margin {row.margin_bits!r}")
            if rep.diagnostics.get("evaluated", 0) == 0:
                # a certification that evaluated nothing passes vacuously
                why.append("no trial evaluated")
            if why:
                bad.append(f"call {call.index} row {k}: " + "; ".join(why))
        return bad


WORKLOADS = {w.name: w for w in (DualityCorpus(), Certify3x3())}
REFERENCE_WORKLOADS = ("duality-corpus",)


def closed_loop(workload, inputs, indices, deadline: float | None = None,
                around=None) -> list[Call]:
    """Run the calls ``indices`` back to back, stopping early once
    ``deadline`` seconds have passed (the call in flight is finished).

    ``around(i)`` optionally returns a context manager entered around call i.
    """
    out = []
    t_start = time.perf_counter()
    for i in indices:
        if deadline is not None and time.perf_counter() - t_start >= deadline:
            break
        t0 = time.perf_counter()
        result, error = None, None
        try:
            if around is None:
                result = workload.call(inputs, i)
            else:
                with around(i):
                    result = workload.call(inputs, i)
        except Exception:  # one failing call must not end the run
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        out.append(Call(i, t0, time.perf_counter(), result, error))
    return out


def load_reference(name: str, inputs: Inputs, seed: int):
    """Frozen per-op rates for this workload at the reference seed, else None."""
    if seed != REFERENCE_SEED or name not in REFERENCE_WORKLOADS:
        return None
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]
    if data["inputs_sha256"] != inputs.digest():
        raise SystemExit(
            f"error: {REFERENCE_PATH.name} was made from other {name} inputs; "
            "regenerate it with perfbench/make_reference.py"
        )
    return data["rates"]
