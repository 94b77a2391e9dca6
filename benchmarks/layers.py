"""Per-layer tracing of graphqec from outside the package.

Each traced name is replaced by a wrapper that counts calls and raised
exceptions and measures self time: the wrapper's inclusive time minus the
inclusive time of wrapped calls made inside it. Module-level functions are
rebound in every ``graphqec.*`` namespace that holds them, so calls through
``from .kernel import apply_unitary`` and through ``kernel.apply_unitary``
are both seen. Class attributes are rebound on the class. The package source
is never modified; ``uninstall`` restores every original binding.

The layers are the package's modules. ``cli`` and ``__main__`` are thin
front ends and are not traced.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, attribute path). ``DensityOperator.__post_init__`` runs the
# Hermitian, trace and eigvalsh checks of every density-matrix construction
# and is reported as ``kernel.DensityOperator``.
TARGETS = (
    ("kernel", "embed_operator"),
    ("kernel", "apply_unitary"),
    ("kernel", "expectation"),
    ("kernel", "partial_trace"),
    ("kernel", "projective_measure"),
    ("kernel", "DensityOperator.__post_init__"),
    ("pauli", "PauliString.dense"),
    ("pauli", "pauli_commutes"),
    ("graphs", "build_resource"),
    ("code", "encode"),
    ("code", "inject_pauli_error"),
    ("code", "measure_syndromes"),
    ("code", "lose_qubit"),
    ("code", "recovery_recipe"),
    ("code", "recover"),
    ("code", "recover_average"),
    ("witnesses", "evaluate_witness"),
    ("tomography", "state_fidelity"),
    ("tomography", "logical_tomography"),
    ("tomography", "reconstruct_chi"),
    ("sampling", "apply_noise"),
    ("sampling", "sample_setting_counts"),
    ("sampling", "estimate_expectation"),
    ("sampling", "witness_value_from_counts"),
    ("sampling", "resample_counts"),
    ("sampling", "monte_carlo_uncertainty"),
    ("runner", "encoded_state"),
    ("runner", "run_experiment"),
    ("runner", "ReportBundle.write"),
)

MODULES = ("kernel", "pauli", "graphs", "code", "witnesses", "tomography",
           "sampling", "runner")


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__post_init__')}"


class _Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Wraps every name in TARGETS; ``stats`` maps metric name -> _Stat."""

    def __init__(self):
        self.stats = {metric_name(m, a): _Stat() for m, a in TARGETS}
        self.absent: list[str] = []
        self.mc_cells_resampled = 0
        self.fill_sum = 0.0
        self.fill_n = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- counters observed at layer boundaries ------------------------------

    def _count_resampled(self, args, kwargs, result):
        records = args[0] if args else kwargs["records"]  # cells drawn this trial
        self.mc_cells_resampled += sum(len(r.counts) for r in records)

    def _count_fill(self, args, kwargs, result):
        self.fill_sum += len(result.counts) / 2 ** len(result.setting)
        self.fill_n += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, stat: _Stat, observe=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - t0
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        observers = {"sampling.resample_counts": self._count_resampled,
                     "sampling.sample_setting_counts": self._count_fill}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "graphqec" or name.startswith("graphqec.")]
        for module, attr in TARGETS:
            name = metric_name(module, attr)
            mod = sys.modules.get(f"graphqec.{module}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = None if owner is None else vars(owner).get(leaf)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, self.stats[name], observers.get(name))
            if owner_name:  # method: one binding on the class
                self._rebind(owner, leaf, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- report -------------------------------------------------------------

    def metrics(self, ops: int, busy_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics normalised per attempted op.

        ``<module>.self_share`` is that module's traced self time as a
        percentage of the ops' total time; ``other.self_share`` is the rest
        (harness glue and untraced callers at the top of an op).
        """
        out: dict[str, tuple[float, str]] = {}
        module_s = dict.fromkeys(MODULES, 0.0)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls / ops, "calls/op")
            out[f"{name}.self_ms"] = (1e3 * st.self_s / ops, "ms/op")
            out[f"{name}.errors"] = (st.errors / ops, "errors/op")
            module_s[name.split(".")[0]] += st.self_s
        for module, s in module_s.items():
            out[f"{module}.self_share"] = (100.0 * s / busy_s, "%")
        out["other.self_share"] = (100.0 * (busy_s - sum(module_s.values())) / busy_s, "%")
        out["sampling.mc_cells_resampled"] = (self.mc_cells_resampled / ops, "cells/op")
        out["sampling.histogram_fill"] = (self.fill_sum / self.fill_n if self.fill_n else 0.0,
                                          "ratio")
        out["trace.absent_names"] = (float(len(self.absent)), "count")
        return out
