"""Spans and counters recorded around the package's layer functions.

The tracer wraps the public functions of each layer from outside: nothing
under `src/` changes.  A span holds a name, start, end, parent and job id;
spans stay in memory and are aggregated, and optionally saved, once a pass
ends.  A span's self time is its duration minus the part of its interval
that its child spans cover, so the self times of a job's spans add up to
the job's wall time.

Several modules bind layer functions with `from .x import name`, so a
wrapper is installed in every `mirrorchain` module that holds the original
object, not only where it is defined.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Sequence


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_s = run_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


class Tracer:
    """In-memory span and counter store for one pass at a time."""

    def __init__(self) -> None:
        self.job = -1
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """`fn` recorded as span `name`; `after(tracer, args, result)` adds counters."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                self.counters[name + ".failed"] += 1
                raise
            self.close(idx)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, float]:
        """Per-name calls and self_s, the counters, and the pass's span totals."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, selfs):
            out[name + ".self_s"] += s
        out.update((name + ".calls", n) for name, n in Counter(self.names).items())
        out.update(self.counters)
        for name, keys in self.distinct.items():
            out[name + ".distinct"] = len(keys)
        out["trace.self_sum_s"] = sum(selfs)
        out["trace.root_sum_s"] = sum(
            e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0
        )
        out["trace.min_self_s"] = min(selfs, default=0.0)
        out["trace.spans"] = len(selfs)
        return dict(out)

    def save(self, path: str) -> None:
        """Write the spans as columns of an .npz file; names are indexed."""
        import numpy as np

        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            job=np.array(self.jobs, dtype=np.int32),
        )


def _d3(name: str) -> Callable:
    def hook(t: Tracer, args: tuple, result) -> None:
        shape = getattr(args[0], "shape", ())
        if len(shape) >= 2:
            t.counters[name + ".d3_sum"] += math.prod(shape[:-2]) * shape[-1] ** 3

    return hook


def _support_kept(t: Tracer, args: tuple, result) -> None:
    t.counters["pauli.support_group.kept"] += len(result)
    t.counters["pauli.support_group.scanned"] += args[0].shape[0] ** 2


def _factors(t: Tracer, args: tuple, result) -> None:
    t.counters["decompose.factors"] += len(result[0].factors)


def _distinct_propagator(t: Tracer, args: tuple, result) -> None:
    spec, tau = args[0], float(args[1])
    t.distinct["chain.chain_propagator"].add((spec.couplings, spec.fields, tau))


def _iterations(t: Tracer, args: tuple, result) -> None:
    t.counters["grape.iterations"] += result.iterations


#: (module, attribute, span name, counter hook) for each layer function.
FUNCTIONS = (
    ("pauli", "support_group", "pauli.support_group", _support_kept),
    ("pauli", "word_trace", "pauli.word_trace", None),
    ("pauli", "pauli_matrix", "pauli.pauli_matrix", None),
    ("pauli", "maximal_subgroup", "pauli.maximal_subgroup", None),
    ("decompose", "decompose", "decompose.decompose", _factors),
    ("decompose", "peel_level", "decompose.peel_level", None),
    ("decompose", "expand", "decompose.expand", None),
    ("decompose", "reconstruct", "decompose.reconstruct", None),
    ("decompose", "closed_form", "decompose.closed_form", None),
    ("decompose", "gate_fidelity", "decompose.gate_fidelity", None),
    ("chain", "build_hamiltonian", "chain.build_hamiltonian", None),
    ("chain", "propagator", "chain.propagator", None),
    ("chain", "chain_propagator", "chain.chain_propagator", _distinct_propagator),
    ("chain", "check_mirror_condition", "chain.check_mirror_condition", None),
    ("states", "partial_trace", "states.partial_trace", None),
    ("states", "embed_operator", "states.embed_operator", None),
    ("states", "embed_at", "states.embed_at", None),
    ("transfer", "transfer_single", "transfer.transfer_single", None),
    ("transfer", "transfer_entangled", "transfer.transfer_entangled", None),
    ("transfer", "sector_phases", "transfer.sector_phases", None),
    ("transfer", "fidelity_metric", "transfer.fidelity_metric", None),
    ("grape", "grape_optimize", "grape.grape_optimize", _iterations),
    # The objective/gradient function the optimizer calls for every trial.
    ("grape", "_phi_and_grad", "grape.objective", None),
    ("grape", "propagate", "grape.propagate", None),
)

#: (module, class, method, span name): constructing a state validates it.
METHODS = (
    ("states", "QuantumState", "__init__", "states.QuantumState"),
    ("states", "QuantumState", "evolved", "states.QuantumState.evolved"),
)

#: The numpy kernels every layer calls; d3_sum is the computed sum of d^3.
NUMPY = (
    ("numpy.linalg", "eigh", "numpy.eigh", _d3("numpy.eigh")),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", _d3("numpy.eigvalsh")),
    ("numpy", "kron", "numpy.kron", None),
)
SPANS = tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS) + tuple(
    n[2] for n in NUMPY) + ("cli.main", "bench.job")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function; return a function that restores them all."""
    for module in {m for m, *_ in FUNCTIONS + METHODS}:
        importlib.import_module("mirrorchain." + module)
    package = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "mirrorchain" or name.startswith("mirrorchain."))]
    undo: list[tuple[object, str, object]] = []

    def replace(holder: object, attr: str, wrapper: object) -> None:
        undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    for module, attr, name, hook in FUNCTIONS:
        original = getattr(sys.modules["mirrorchain." + module], attr)
        wrapper = tracer.wrap(name, original, hook)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, key, wrapper)
    for module, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules["mirrorchain." + module], cls_name)
        replace(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    for module, attr, name, hook in NUMPY:
        holder = importlib.import_module(module)
        replace(holder, attr, tracer.wrap(name, getattr(holder, attr), hook))

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


def layer_metrics(summary: dict[str, float]) -> dict[str, float | None]:
    """The per-layer metrics of one traced pass; a ratio with no base is None."""
    out: dict[str, float | None] = {}
    for name in SPANS:
        out[name + ".calls"] = summary.get(name + ".calls", 0)
        out[name + ".self_s"] = summary.get(name + ".self_s", 0.0)
    for name in ("numpy.eigh", "numpy.eigvalsh"):
        out[name + ".d3_sum"] = summary.get(name + ".d3_sum", 0)

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    out["decompose.peel_level.failed"] = summary.get("decompose.peel_level.failed", 0)
    out["decompose.factors"] = summary.get("decompose.factors", 0)
    out["pauli.support_group.kept_ratio"] = ratio(
        summary.get("pauli.support_group.kept", 0), summary.get("pauli.support_group.scanned", 0)
    )
    out["chain.chain_propagator.distinct_ratio"] = ratio(
        summary.get("chain.chain_propagator.distinct", 0), out["chain.chain_propagator.calls"]
    )
    out["grape.iterations"] = summary.get("grape.iterations", 0)
    out["grape.accepted_ratio"] = ratio(out["grape.iterations"], out["grape.objective.calls"])
    return out
