"""Span tracing of dtcsim's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in every dtcsim module that
binds it, so calls made through a module-global name (``floquet_map`` calling
``interaction_propagator``) are seen as well as calls from the benchmark.  A
span records name, start, end and its parent span; self time is the span's
duration minus the time covered by its child spans.  Spans are kept in memory
and written out by :meth:`Tracer.write` when the run ends.

A few computed counts are taken from the arguments and results of traced
calls.  The time spent computing them is charged to no span, so it shows up
as tracing overhead rather than as self time of a layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

import numpy as np

#: Functions wrapped in the traced run, by module (the package's layers).
TRACED = {
    "operators": ("hamiltonian_interaction", "hamiltonian_kick"),
    "superop": ("lindblad_rhs", "validate_density_matrix"),
    "floquet": ("floquet_map", "interaction_propagator", "matrix_exp",
                "floquet_2T_sector_blocks", "floquet_map_2T"),
    "spectra": ("sector_eigenvalues", "eigendecompose", "liouvillian_gap",
                "steady_states"),
    "observables": ("all_magnetizations", "negativity", "purity",
                    "total_excitations"),
    "experiments": ("disorder_gap_sweep", "ode_oracle_evolve", "run_stroboscopic"),
    "twosite": ("two_site_gap_curve", "two_site_numeric_coupling",
                "analytic_effective_coupling", "coupling_gamma_crossings"),
    "cli": ("run",),
}

#: Counts computed from traced calls (unit, description).
COMPUTED = {
    "floquet.dense_map_bytes": ("B", "bytes of dense maps returned by floquet_map and floquet_map_2T"),
    "floquet.map_nnz_frac": ("ratio", "mean share of entries of a returned Phi_T above 1e-12 of its largest"),
    "floquet.expm_max_dim": ("count", "largest matrix passed to matrix_exp"),
    "spectra.eig_max_dim": ("count", "largest matrix eigendecomposed by eigendecompose or sector_eigenvalues"),
    "spectra.sector_eigenvalues.blocks": ("count", "sector blocks passed to sector_eigenvalues"),
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.task = 0
        self.spans: list[tuple] = []   # (id, parent, name, start, end, self_s, task)
        self.counts = {name: 0.0 for name in COMPUTED}
        self._nnz_fracs: list[float] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a dtcsim module binds it."""
        modules = [importlib.import_module("dtcsim")] + [
            importlib.import_module(f"dtcsim.{mod}") for mod in TRACED]
        for (mod, fns), module_of_fn in zip(TRACED.items(), modules[1:]):
            for fn_name in fns:
                original = getattr(module_of_fn, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        count = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]  # span id, time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((frame[0], None if parent is None else parent[0], name,
                                     start, end, end - start - frame[1], tracer.task))
            if count is not None:
                hook_start = time.perf_counter()
                count(tracer, args, result)
                if parent is not None:  # keep counting time out of the parent's self time
                    parent[1] += time.perf_counter() - hook_start
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def self_time_by_task(self) -> dict[int, float]:
        totals: dict[int, float] = {}
        for span in self.spans:
            totals[span[6]] = totals.get(span[6], 0.0) + span[5]
        return totals

    def metrics(self, n_tasks: int) -> dict[str, tuple[float, str]]:
        """Per-task calls and self time of every traced function, and the counts."""
        calls = {name: 0 for name in traced_names()}
        self_s = {name: 0.0 for name in traced_names()}
        for span in self.spans:
            calls[span[2]] += 1
            self_s[span[2]] += span[5]
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = (calls[name] / n_tasks, "count")
            out[f"{name}.self_s"] = (self_s[name] / n_tasks, "s")
        counts = dict(self.counts)
        counts["floquet.dense_map_bytes"] /= n_tasks
        counts["spectra.sector_eigenvalues.blocks"] /= n_tasks
        counts["floquet.map_nnz_frac"] = (
            float(np.mean(self._nnz_fracs)) if self._nnz_fracs else 0.0)
        for name, (unit, _) in COMPUTED.items():
            out[name] = (counts[name], unit)
        return out

    def write(self, path) -> None:
        """Write the spans kept in memory, one CSV row per span."""
        t0 = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s,self_s,workload,task\n")
            for sid, parent, name, start, end, self_s, task in sorted(self.spans):
                fh.write(f"{sid},{'' if parent is None else parent},{name},"
                         f"{start - t0:.9f},{end - t0:.9f},{self_s:.9f},"
                         f"{self.workload},{task}\n")


def _dim(operator) -> int:
    return int(np.asarray(getattr(operator, "matrix", operator)).shape[0])


def _count_map(tracer: Tracer, args, result) -> None:
    tracer.counts["floquet.dense_map_bytes"] += result.matrix.nbytes


def _count_map_nnz(tracer: Tracer, args, result) -> None:
    _count_map(tracer, args, result)
    mag = np.abs(result.matrix)
    tracer._nnz_fracs.append(float(np.count_nonzero(mag > 1e-12 * mag.max())) / mag.size)


def _count_expm(tracer: Tracer, args, result) -> None:
    key = "floquet.expm_max_dim"
    tracer.counts[key] = max(tracer.counts[key], _dim(args[0]))


def _count_eig(tracer: Tracer, args, result) -> None:
    key = "spectra.eig_max_dim"
    tracer.counts[key] = max(tracer.counts[key], _dim(args[0]))


def _count_blocks(tracer: Tracer, args, result) -> None:
    blocks = args[0]
    tracer.counts["spectra.sector_eigenvalues.blocks"] += len(blocks)
    key = "spectra.eig_max_dim"
    tracer.counts[key] = max([tracer.counts[key]] + [b.shape[0] for b in blocks.values()])


_COUNT_HOOKS = {
    "floquet.floquet_map": _count_map_nnz,
    "floquet.floquet_map_2T": _count_map,
    "floquet.matrix_exp": _count_expm,
    "spectra.eigendecompose": _count_eig,
    "spectra.sector_eigenvalues": _count_blocks,
}
