"""sppfetd benchmark: fixed workloads timed from outside the program.

    python3 bench/run.py --workload reduced-bifurcated --seed 0 --seconds 45 --trace 0

With --trace 0 it times the entry call (`harness.run` or
`run_convergence_study`) and the same call with zero steps, and prints the
end-to-end metrics.  With --trace 1 it alternates untraced and traced entry
calls and prints the per-layer metrics from the spans.  Every call's
outputs are checked; a call that raises or fails a check counts as a
failed operation.  The last line of standard output is one JSON object.
See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

# Dipole shift in whole cells along the feed line, indexed by seed % 5.
OFFSETS = (0, 1, -1, 2, -2)
REL_TOL = 1e-6           # fingerprint agreement with the reference
MIN_WALLS = 2            # untraced entry calls per run, for the bitwise check
SETUP_SHARE = 0.25       # set-up calls repeat until they take this share of wall time
PROBE_REFERENCE_S = 0.075 # probe time the end-to-end times are scaled to
MMS_H = (1 / 10, 1 / 20, 1 / 40, 1 / 80)
MMS_FINAL_TIME = 0.01
MMS_TAU_RATIO = 200.0
MMS_RATES = {"e": 1.0, "h": 0.995}   # acceptance criterion 1, last row


def _cap_threads() -> int:
    """Run every layer single-threaded; returns the usable core count.

    A 2-thread BLAS pool made the coupled study slower and noisier on a
    2-core machine (6.0-9.1 s against 5.7-5.9 s, with twice the CPU time),
    so BLAS gets one thread and the program's own pool stays off.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SPPFETD_THREADS", None)
    return len(os.sched_getaffinity(0))


# -- workloads ------------------------------------------------------------------

class ScenarioWorkload:
    """A published scenario with the dipole pair shifted by the seed."""

    def __init__(self, scenario: str, steps: int, snapshot_every: int, seed: int):
        from sppfetd import harness
        self.harness = harness
        cfg = harness.scenario(scenario)
        self.offset = OFFSETS[seed % len(OFFSETS)]
        shift = self.offset * (cfg.bounds[1] - cfg.bounds[0]) / cfg.nx
        points = tuple((x + shift, y, s) for x, y, s in cfg.source.points)
        self.config = replace(cfg, n_steps=steps, snapshot_every=snapshot_every,
                              source=replace(cfg.source, points=points))
        self.steps = steps
        self.key = f"{scenario}/steps={steps}/offset={self.offset}"

    def call(self, out_dir: str, setup: bool):
        cfg = replace(self.config, n_steps=0, snapshot_every=0) if setup else self.config
        return self.harness.run(cfg, out_dir=out_dir)

    def fingerprint(self, result) -> dict:
        import numpy as np
        state = result.state
        digest = hashlib.sha256()
        for arr in (state.e_curr, state.hzx, state.hzy):
            digest.update(np.ascontiguousarray(arr).tobytes())
        last = result.energy[-1] if result.energy else None
        return {
            "e_norm": float(np.linalg.norm(state.e_curr)),
            "hz_norm": float(np.linalg.norm(state.hz)),
            "energy": None if last is None else [
                last.kinetic, last.curl, last.magnetic, last.interface,
                last.curl_extra],
            "digest": digest.hexdigest(),
        }

    def check(self, result, out_dir: str, setup: bool) -> list:
        import numpy as np
        state = result.state
        problems = []
        for name in ("e_curr", "hzx", "hzy"):
            if not np.all(np.isfinite(getattr(state, name))):
                problems.append(f"non-finite {name}")
        for rep in result.energy:
            terms = (rep.kinetic, rep.curl, rep.magnetic, rep.interface, rep.curl_extra)
            if min(terms) < 0.0:
                problems.append(f"negative energy term at step {rep.step}")
                break
        if state.step != (0 if setup else self.steps):
            problems.append(f"stopped at step {state.step}")
        with open(os.path.join(out_dir, "energy.csv")) as f:
            rows = sum(1 for _ in f) - 1
        if rows != len(result.energy):
            problems.append(f"energy.csv has {rows} rows for {len(result.energy)} reports")
        every = 0 if setup else self.config.snapshot_every
        expected = [] if every == 0 else list(range(0, self.steps + 1, every))
        for step in expected:
            path = os.path.join(out_dir, f"snap_{step:06d}.vtk")
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                problems.append(f"snapshot {step} missing")
        return problems

    @staticmethod
    def compare(fp: dict, ref: dict) -> list:
        problems = []
        for name in ("e_norm", "hz_norm"):
            if abs(fp[name] - ref[name]) > REL_TOL * abs(ref[name]):
                problems.append(f"{name} {fp[name]!r} differs from reference {ref[name]!r}")
        if (fp["energy"] is None) != (ref["energy"] is None):
            problems.append("energy log differs from reference")
        elif ref["energy"] is not None:
            scale = REL_TOL * sum(ref["energy"])
            for got, want in zip(fp["energy"], ref["energy"]):
                if abs(got - want) > scale:
                    problems.append(f"energy terms {fp['energy']} differ from "
                                    f"reference {ref['energy']}")
                    break
        return problems


class ConvergenceWorkload:
    """The coupled manufactured-solution study; fully determined, ignores the seed."""

    def __init__(self, steps: int | None):
        from sppfetd import harness
        self.harness = harness
        self.final_time = MMS_FINAL_TIME if steps is None else MMS_FINAL_TIME * steps / 300
        self.steps = sum(round(self.final_time / (h / MMS_TAU_RATIO)) for h in MMS_H)
        self.offset = 0
        self.key = f"convergence-coupled/steps={self.steps}"

    def call(self, out_dir: str, setup: bool):
        return self.harness.run_convergence_study(
            "coupled", MMS_H, final_time=0.0 if setup else self.final_time,
            tau_ratio=MMS_TAU_RATIO)

    def fingerprint(self, table) -> dict:
        errors = [float(v) for v in table.e_errors + table.h_errors]
        return {"e_errors": errors[:len(MMS_H)], "h_errors": errors[len(MMS_H):],
                "digest": hashlib.sha256(repr(errors).encode()).hexdigest()}

    def check(self, table, out_dir: str, setup: bool) -> list:
        import numpy as np
        problems = []
        if not np.all(np.isfinite(table.e_errors + table.h_errors)):
            problems.append("non-finite L2 error")
        if not setup and self.final_time == MMS_FINAL_TIME:
            for field, rates in (("e", table.e_rates), ("h", table.h_rates)):
                got = float(f"{rates[-1]:.3g}")
                if got != MMS_RATES[field]:
                    problems.append(f"{field} rate {rates[-1]:.6f} is not "
                                    f"{MMS_RATES[field]} to 3 significant digits")
        return problems

    @staticmethod
    def compare(fp: dict, ref: dict) -> list:
        problems = []
        for name in ("e_errors", "h_errors"):
            for got, want in zip(fp[name], ref[name]):
                if abs(got - want) > REL_TOL * abs(want):
                    problems.append(f"{name} {fp[name]} differ from reference {ref[name]}")
                    break
        return problems


WORKLOADS = {
    "reduced-bifurcated": lambda seed, steps: ScenarioWorkload(
        "bifurcated-straight", steps or 300, steps or 300, seed),
    "paper-ring": lambda seed, steps: ScenarioWorkload(
        "ring-resonator", steps or 30, 0, seed),
    "mms-coupled": lambda seed, steps: ConvergenceWorkload(steps),
}


# -- operations -----------------------------------------------------------------

class Runner:
    """Times entry calls, checks their outputs and counts failures."""

    def __init__(self, workload, reference: dict, out_dir: str):
        from sppfetd.dynamics import BlowUpError
        from sppfetd.sparse_solve import SolverError
        self.expected_errors = (BlowUpError, SolverError)
        self.workload = workload
        self.reference = reference
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.last_fingerprint = None

    def op(self, setup: bool, tracer=None) -> float:
        """One entry call; returns its wall time in seconds."""
        self.attempted += 1
        call_dir = os.path.join(self.out_dir, "setup" if setup else "wall")
        shutil.rmtree(call_dir, ignore_errors=True)
        os.makedirs(call_dir)
        gc.collect()
        result, problems = None, []
        root = None
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.enabled = True
                root = tracer.open("trace.root")
            try:
                result = self.workload.call(call_dir, setup)
            finally:
                if tracer is not None:
                    tracer.close(root)
                    tracer.enabled = False
        except self.expected_errors as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        except Exception:
            problems.append("unexpected error:\n" + traceback.format_exc())
        elapsed = time.perf_counter() - start
        if tracer is not None:
            span = tracer.spans[root]
            elapsed = span[2] - span[1]
        if result is not None:
            problems += self.verify(result, call_dir, setup)
        kind = "setup" if setup else "wall"
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"  {kind:5s} call {elapsed:9.4f} s  {status}", flush=True)
        if problems:
            self.failed += 1
        return elapsed

    def verify(self, result, call_dir: str, setup: bool) -> list:
        problems = self.workload.check(result, call_dir, setup)
        if setup:
            return problems
        fp = self.workload.fingerprint(result)
        self.last_fingerprint = fp
        if self.digest is None:
            self.digest = fp["digest"]
        elif fp["digest"] != self.digest:
            problems.append("final state differs bitwise from the first call of this run")
        ref = self.reference.get(self.workload.key)
        if ref is not None:
            problems += self.workload.compare(fp, ref)
        return problems


def probe() -> float:
    """Seconds for a fixed kernel that does not use sppfetd.

    The machine is shared and its speed drifts by 20-30% over minutes.  The
    probe runs between entry calls and tracks that drift.  It mixes what the
    program spends its time on: sparse products, small numpy temporaries
    and Python containers.
    """
    import numpy as np
    import scipy.sparse as sp
    n = 200
    ones = np.ones(n * n)
    lap = sp.diags([-ones[n:], -ones[1:], 4.0 * ones, -ones[1:], -ones[n:]],
                   [-n, -1, 0, 1, n], format="csr")
    x = np.linspace(0.0, 1.0, n * n)
    w = np.linspace(0.0, 1.0, 4000)
    start = time.perf_counter()
    for _ in range(100):
        x = lap @ x
        x = x / np.linalg.norm(x)
    for _ in range(1000):
        w = np.sin(w) * 0.5 + w[::-1] * 0.25
    adjacency = {}
    for e in range(60_000):
        adjacency.setdefault(e % 7919, []).append((e, e + 1))
    return time.perf_counter() - start


def measure_end_to_end(runner, seconds: float) -> dict:
    """Medians of entry-call times, each scaled to the probe's reference speed."""
    setups, walls = [], []
    probe()                        # warm-up
    speed = [probe()]

    def timed(setup: bool) -> float:
        raw = runner.op(setup)
        speed.append(probe())
        scaled = raw * PROBE_REFERENCE_S / (0.5 * (speed[-2] + speed[-1]))
        print(f"        scaled {scaled:9.4f} s  (probe {speed[-1]:.4f} s)")
        return scaled

    start = time.perf_counter()
    timed(setup=True)              # warm-up: first-call costs are not timed
    while True:
        walls.append(timed(setup=False))
        # Set-up calls are cheap on small meshes; repeat them for a steadier median.
        setups.append(timed(setup=True))
        while sum(setups) < SETUP_SHARE * sum(walls):
            setups.append(timed(setup=True))
        if len(walls) >= MIN_WALLS and time.perf_counter() - start >= seconds:
            break
    wall = statistics.median(walls)
    setup = statistics.median(setups)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"  {len(walls)} wall and {len(setups)} setup calls timed; medians reported")
    print(f"  machine-speed probe median {statistics.median(speed):.4f} s "
          f"(reference {PROBE_REFERENCE_S} s)")
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "step_ms": (1e3 * (wall - setup) / runner.workload.steps, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def measure_per_layer(runner, seconds: float, spans_path: str):
    """Per-layer metrics and the names of those the program gave no span for."""
    from tracing import TARGETS, Tracer
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    runner.op(setup=True)          # warm-up, so neither side pays first-call costs
    while True:
        untraced.append(runner.op(setup=False))
        tracer.install()
        try:
            traced.append(runner.op(setup=False, tracer=tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(spans_path)
    print(f"  {len(traced)} traced and {len(untraced)} untraced wall calls; "
          f"spans written to {os.path.relpath(spans_path, ROOT)}")
    metrics = layer_metrics(tracer, traced, untraced)
    missing = {name for dotted, name, _ in TARGETS if dotted in tracer.missing}
    return metrics, {m for m in metrics if _span_of(m) in missing}


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    total, calls = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima
    n = len(traced)
    wall = sum(traced)
    accounted = sum(total.values())
    if abs(accounted - wall) > 1e-9 * max(wall, 1.0):
        raise RuntimeError(f"self times sum to {accounted} s, traced wall is {wall} s")

    def per_run_s(span):
        return total[span] / n

    def per_call_ms(span):
        return 1e3 * total[span] / calls[span] if calls[span] else 0.0

    solve_s = total["sparse_solve.solve"]
    solves = calls["sparse_solve.solve"]
    snapshots = calls["harness.snapshot"]
    return {
        "mesh.generate_s": (per_run_s("mesh.generate"), "s"),
        "mesh.snap_s": (per_run_s("mesh.snap"), "s"),
        "mesh.cells": (maxima["mesh.cells"], "count"),
        "mesh.edges": (maxima["mesh.edges"], "count"),
        "mesh.interface_edges": (maxima["mesh.interface_edges"], "count"),
        "physics.collar_s": (per_run_s("physics.collar"), "s"),
        "physics.locate_s": (per_run_s("physics.locate"), "s"),
        "physics.source_ms": (per_call_ms("physics.source"), "ms"),
        "assembly.build_s": (per_run_s("assembly.build"), "s"),
        "assembly.nnz": (counts["assembly.nnz"] / n, "count"),
        "assembly.mb": (counts["assembly.bytes"] / n / 1e6, "MB"),
        "dynamics.stepper_init_s": (per_run_s("dynamics.stepper_init"), "s"),
        "dynamics.init_state_s": (per_run_s("dynamics.init_state"), "s"),
        "dynamics.loop_s": (per_run_s("dynamics.loop"), "s"),
        "dynamics.step_h_ms": (per_call_ms("dynamics.step_h"), "ms"),
        "dynamics.rhs_ms": (per_call_ms("dynamics.rhs"), "ms"),
        "dynamics.energy_ms": (per_call_ms("dynamics.energy"), "ms"),
        "dynamics.energy_calls": (calls["dynamics.energy"] / n, "count"),
        "sparse_solve.solve_ms": (per_call_ms("sparse_solve.solve"), "ms"),
        "sparse_solve.matvecs_per_solve": (
            counts["sparse_solve.matvecs"] / solves if solves else 0.0, "count"),
        "sparse_solve.rel_residual_max": (maxima["sparse_solve.rel_residual_max"], "ratio"),
        "sparse_solve.matrix_mb": (maxima["sparse_solve.matrix_bytes"] / 1e6, "MB"),
        "sparse_solve.gbps_computed": (
            counts["sparse_solve.bytes_moved"] / solve_s / 1e9 if solve_s else 0.0, "GB/s"),
        "harness.mms_setup_s": (per_run_s("harness.mms_setup"), "s"),
        "harness.mms_load_ms": (per_call_ms("harness.mms_load"), "ms"),
        "harness.mms_source_ms": (per_call_ms("harness.mms_source"), "ms"),
        "harness.mms_bc_ms": (per_call_ms("harness.mms_bc"), "ms"),
        "harness.l2_errors_s": (per_run_s("harness.l2_errors"), "s"),
        "harness.l2_err_e": (counts["harness.l2_err_e"], "norm"),
        "harness.l2_err_h": (counts["harness.l2_err_h"], "norm"),
        "harness.snapshot_s": (per_run_s("harness.snapshot"), "s"),
        "harness.snapshot_mb": (
            counts["harness.snapshot_bytes"] / snapshots / 1e6 if snapshots else 0.0, "MB"),
        "harness.energy_log_s": (per_run_s("harness.energy_log"), "s"),
        "elements.eval_edge_field_ms": (per_call_ms("elements.eval_edge_field"), "ms"),
        "trace.wall_s": (wall / n, "s"),
        "trace.overhead": (statistics.median(traced) / statistics.median(untraced), "ratio"),
        "trace.unattributed_s": (per_run_s("trace.root"), "s"),
        "trace.check_s": (per_run_s("trace.check"), "s"),
    }


# Span each per-layer metric is read from, where the name does not say it.
METRIC_SPANS = {
    "mesh.cells": "mesh.generate", "mesh.edges": "mesh.generate",
    "mesh.interface_edges": "mesh.snap",
    "assembly.nnz": "assembly.build", "assembly.mb": "assembly.build",
    "dynamics.energy_calls": "dynamics.energy",
    "sparse_solve.matvecs_per_solve": "sparse_solve.solve",
    "sparse_solve.rel_residual_max": "sparse_solve.solve",
    "sparse_solve.matrix_mb": "sparse_solve.solve",
    "sparse_solve.gbps_computed": "sparse_solve.solve",
    "harness.snapshot_mb": "harness.snapshot",
    "harness.l2_err_e": "harness.l2_errors", "harness.l2_err_h": "harness.l2_errors",
}


def _span_of(metric: str) -> str:
    return METRIC_SPANS.get(metric, metric.rsplit("_", 1)[0])


# -- reference ----------------------------------------------------------------

def load_reference(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def write_reference(args, path) -> int:
    """Record the fingerprints of every seed offset of one workload."""
    ref = load_reference(path)
    seeds = range(len(OFFSETS)) if args.workload != "mms-coupled" else [0]
    for seed in seeds:
        workload = WORKLOADS[args.workload](seed, args.steps)
        out_dir = OUT_DIR / f"reference-{os.getpid()}"
        runner = Runner(workload, {}, str(out_dir))
        runner.op(setup=False)
        shutil.rmtree(out_dir, ignore_errors=True)
        if runner.failed:
            print(f"{workload.key}: failed, reference not written", file=sys.stderr)
            return 1
        fp = dict(runner.last_fingerprint)
        fp.pop("digest")
        ref[workload.key] = fp
        print(f"{workload.key}: {fp}")
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


# -- entry point ----------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="override the step count (smoke tests only)")
    p.add_argument("--reference", default=str(REFERENCE),
                   help="fingerprint file to compare against")
    p.add_argument("--write-reference", action="store_true",
                   help="record fingerprints for every seed offset instead of timing")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = _cap_threads()
    if not (SRC / "sppfetd" / "__init__.py").is_file():
        print(f"sppfetd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    if args.write_reference:
        return write_reference(args, args.reference)

    workload = WORKLOADS[args.workload](args.seed, args.steps)
    print(f"workload {args.workload} seed {args.seed} (dipole offset {workload.offset} "
          f"cells, {workload.steps} steps); nproc {nproc}, python "
          f"{platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")
    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(workload, load_reference(args.reference), str(out_dir))
    if workload.key not in runner.reference:
        print(f"  no reference fingerprint for {workload.key}")
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, unmeasured = measure_per_layer(runner, args.seconds,
                                                    str(spans_path))
        else:
            metrics = measure_end_to_end(runner, args.seconds)
            unmeasured = set()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        shown = "not measured" if name in unmeasured else f"{value:.6g}"
        print(f"  {name:34s} {shown} {unit}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
