"""Spans around calls into sppfetd, recorded from outside the program.

`Tracer.install` replaces each public function listed in `TARGETS` by a
wrapper that records a span (name, start, end, parent) while tracing is
on.  A function is replaced both where it is defined and in every sppfetd
module that rebound it with `from .x import f`, because callers look the
name up in their own module.  `uninstall` restores the originals, so an
untraced call runs the unmodified program.

A target the program no longer has is skipped and its metrics are
reported as not measured.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.enabled = False
        self.missing = []        # dotted names of targets not found
        self._patches = []       # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"unbalanced span {self.spans[idx][0]}")

    def self_times(self):
        """(total self seconds, call count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += (end - start) - child[i]
            calls[name] += 1
        return total, calls

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")

    # -- patching -------------------------------------------------------------

    def wrap(self, fn, name, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        for dotted, name, after in TARGETS:
            module_name, _, attr = dotted.rpartition(".")
            owner = _resolve(module_name)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(dotted)
                continue
            original = getattr(owner, attr)
            if hasattr(original, "__wrapped__"):
                continue
            if name in CUSTOM:
                wrapped = CUSTOM[name](self, original)
            else:
                wrapped = self.wrap(original, name, after)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("sppfetd"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))


def _resolve(dotted: str):
    """Module or class for a dotted path such as sppfetd.dynamics.LeapfrogStepper."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


# -- counters read after a call returns -----------------------------------------

def _matrix_bytes(a) -> int:
    return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


def _after_mesh(tracer, args, kwargs, mesh):
    tracer.maxima["mesh.cells"] = max(tracer.maxima["mesh.cells"], mesh.n_triangles)
    tracer.maxima["mesh.edges"] = max(tracer.maxima["mesh.edges"], mesh.n_edges)


def _after_snap(tracer, args, kwargs, out):
    mesh = args[0] if args else kwargs["mesh"]
    n = len(mesh.interface_edges())
    tracer.maxima["mesh.interface_edges"] = max(tracer.maxima["mesh.interface_edges"], n)


def _after_assembly(tracer, args, kwargs, ops):
    mats = [v for v in vars(ops).values() if hasattr(v, "nnz")]
    tracer.counts["assembly.nnz"] += sum(int(m.nnz) for m in mats)
    tracer.counts["assembly.bytes"] += sum(_matrix_bytes(m) for m in mats)


def _after_l2(tracer, args, kwargs, errors):
    # The convergence study evaluates the finest mesh last.
    tracer.counts["harness.l2_err_e"], tracer.counts["harness.l2_err_h"] = errors


def _after_snapshot(tracer, args, kwargs, out):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.counts["harness.snapshot_bytes"] += os.path.getsize(path)


class CountingMatrix:
    """Thin proxy that counts products with the wrapped sparse matrix."""

    def __init__(self, a):
        self.a = a
        self.matvecs = 0

    @property
    def shape(self):
        return self.a.shape

    def __matmul__(self, x):
        self.matvecs += 1
        return self.a @ x

    def __getattr__(self, name):
        return getattr(self.a, name)


def _traced_solve(tracer, solve):
    """Wrapper for solve_spd: counts matvecs and checks the residual outside."""

    def traced(a, b, *args, **kwargs):
        if not tracer.enabled:
            return solve(a, b, *args, **kwargs)
        proxy = CountingMatrix(a)
        idx = tracer.open("sparse_solve.solve")
        try:
            x = solve(proxy, b, *args, **kwargs)
        finally:
            tracer.close(idx)
        check = tracer.open("trace.check")
        b_norm = float(np.linalg.norm(b))
        if b_norm > 0.0:
            rel = float(np.linalg.norm(b - a @ x)) / b_norm
            tracer.maxima["sparse_solve.rel_residual_max"] = max(
                tracer.maxima["sparse_solve.rel_residual_max"], rel)
        tracer.close(check)
        nbytes = _matrix_bytes(a)
        tracer.counts["sparse_solve.matvecs"] += proxy.matvecs
        tracer.counts["sparse_solve.bytes_moved"] += proxy.matvecs * nbytes
        tracer.maxima["sparse_solve.matrix_bytes"] = max(
            tracer.maxima["sparse_solve.matrix_bytes"], nbytes)
        return x

    traced.__wrapped__ = solve
    return traced


CUSTOM = {"sparse_solve.solve": _traced_solve}

# (dotted target, span name, hook run after the call).  Methods are patched
# on their class; functions in every sppfetd module that holds them.
TARGETS = [
    ("sppfetd.mesh.generate_rect_mesh", "mesh.generate", _after_mesh),
    ("sppfetd.mesh.snap_interface", "mesh.snap", _after_snap),
    ("sppfetd.physics.damping_at_centroids", "physics.collar", None),
    ("sppfetd.physics.dipole_source_cells", "physics.locate", None),
    ("sppfetd.physics.eval_source", "physics.source", None),
    ("sppfetd.assembly.build_operator_set", "assembly.build", _after_assembly),
    ("sppfetd.dynamics.LeapfrogStepper.__init__", "dynamics.stepper_init", None),
    ("sppfetd.dynamics.init_state", "dynamics.init_state", None),
    ("sppfetd.dynamics.run_simulation", "dynamics.loop", None),
    ("sppfetd.dynamics.LeapfrogStepper.step_h", "dynamics.step_h", None),
    ("sppfetd.dynamics.LeapfrogStepper.step_e", "dynamics.rhs", None),
    ("sppfetd.dynamics.discrete_energy", "dynamics.energy", None),
    ("sppfetd.sparse_solve.solve_spd", "sparse_solve.solve", None),
    ("sppfetd.harness.build_manufactured_problem", "harness.mms_setup", None),
    ("sppfetd.harness.ManufacturedDrivers.__init__", "harness.mms_setup", None),
    ("sppfetd.harness.ManufacturedDrivers.extra_load", "harness.mms_load", None),
    ("sppfetd.harness.ManufacturedDrivers.source", "harness.mms_source", None),
    ("sppfetd.harness.ManufacturedDrivers.bc_values", "harness.mms_bc", None),
    ("sppfetd.harness.l2_errors", "harness.l2_errors", _after_l2),
    ("sppfetd.harness.write_snapshot", "harness.snapshot", _after_snapshot),
    ("sppfetd.harness.write_energy_log", "harness.energy_log", None),
    ("sppfetd.elements.eval_edge_field", "elements.eval_edge_field", None),
]
