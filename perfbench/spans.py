"""Span tracing installed from outside the program, and self-time arithmetic.

``Tracer.install`` wraps the public functions of each ``cvsqueeze`` layer
module: the module attribute, and every name another layer module (or the
package namespace) has bound to the same object, such as
``model.wave_function``. The evaluator closure that
``phase_space.wigner_gaussian`` returns is wrapped as
``phase_space.wigner_eval``. Each span records name, start, end, parent and
whether it raised; spans stay in memory and are written out by ``save``.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so the children of one span run one after
another and cover the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("hermite", "basis", "states", "phase_space", "model", "quadrature", "verify", "cli")

# routines whose own calls and self time are reported (ROADMAP item 1)
ROUTINES = (
    "hermite.hermite_holo_sequence",
    "basis.basis_function_2v_table",
    "basis.basis_gram",
    "states.wave_function",
    "states.series_expansion",
    "states.inverse_segal_bargmann",
    "phase_space.wigner_numeric",
    "phase_space.symplectic_spectrum",
    "phase_space.wigner_eval",
    "model.hamiltonian_fock",
    "model.ground_state_energy_check",
)

# work counters computed from call arguments (or, for cli, from the job)
COUNTERS = (
    "basis.basis_gram.nodes",
    "states.inverse_segal_bargmann.nodes",
    "states.inverse_segal_bargmann.points",
    "model.hamiltonian_fock.dense_bytes",
    "model.ground_state_energy_check.cells",
    "cli.rows_out",
    "cli.bytes_out",
)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    """
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


class Tracer:
    """In-memory span recorder with per-name work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, raised: bool) -> None:
        self.end[index] = time.perf_counter()
        self.raised[index] = raised
        self._stack.pop()

    def span(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` wrapped so that each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, True)
                raise
            self._close(index, False)
            return result if on_result is None else on_result(result)

        return wrapper

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span (one per benchmark job)."""
        return self.span(name, fn)(*args, **kwargs)

    def _hooks(self, modules: dict) -> dict:
        """Work counters computed from call arguments, keyed by span name."""
        args_of = {
            name: _bound(getattr(modules[name.split(".")[0]], name.split(".")[1]))
            for name in ("basis.basis_gram", "states.inverse_segal_bargmann",
                         "model.hamiltonian_fock", "model.ground_state_energy_check")
        }

        def gram(args, kwargs):
            a = args_of["basis.basis_gram"](args, kwargs)
            self.count("basis.basis_gram.nodes", a["order"] ** 4)

        def isb(args, kwargs):
            a = args_of["states.inverse_segal_bargmann"](args, kwargs)
            nodes = a["order"] ** 4 + ((2 * a["order"]) ** 4 if a["check"] else 0)
            self.count("states.inverse_segal_bargmann.nodes", nodes)
            self.count("states.inverse_segal_bargmann.points", np.broadcast(a["x1"], a["x2"]).size)

        def fock(args, kwargs):
            a = args_of["model.hamiltonian_fock"](args, kwargs)
            self.count("model.hamiltonian_fock.dense_bytes", (a["n_trunc"] ** 2) ** 2 * 16)

        def ground(args, kwargs):
            a = args_of["model.ground_state_energy_check"](args, kwargs)
            self.count("model.ground_state_energy_check.cells", a["grid_points"] ** 2)

        def wigner_eval_call(args, kwargs):
            self.count("phase_space.wigner_eval.points", np.broadcast(*args, *kwargs.values()).size)

        def wigner_gaussian_result(result):
            cov, evaluator = result
            return cov, self.span("phase_space.wigner_eval", evaluator, on_call=wigner_eval_call)

        return {
            "basis.basis_gram": {"on_call": gram},
            "states.inverse_segal_bargmann": {"on_call": isb},
            "model.hamiltonian_fock": {"on_call": fock},
            "model.ground_state_energy_check": {"on_call": ground},
            "phase_space.wigner_gaussian": {"on_result": wigner_gaussian_result},
        }

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        package = importlib.import_module("cvsqueeze")
        modules = {layer: importlib.import_module(f"cvsqueeze.{layer}") for layer in LAYERS}
        hooks = self._hooks(modules)
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                public = not attr.startswith("_") and callable(value) and not inspect.isclass(value)
                if public and getattr(value, "__module__", None) == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = self.span(name, value, **hooks.get(name, {}))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrapped:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    # registries such as verify.SUITES hold the functions too
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._restore.append((value, key, item))
                            value[key] = wrapped[id(item)]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "self_s": self_times(start, end, parent),
        }

    def summary(self) -> dict[str, float]:
        """Per-layer and per-routine calls, self time and errors, plus counters."""
        spans = self.arrays()
        size = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=size)
        self_s = np.bincount(spans["name_id"], weights=spans["self_s"], minlength=size)
        errors = np.bincount(spans["name_id"], weights=spans["raised"], minlength=size)
        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, name in enumerate(self.names) if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = int(calls[ids].sum())
            out[f"{layer}.self_s"] = float(self_s[ids].sum())
            out[f"{layer}.errors"] = int(errors[ids].sum())
        for routine in ROUTINES:
            ids = [i for i, name in enumerate(self.names) if name == routine]
            out[f"{routine}.calls"] = int(calls[ids].sum())
            out[f"{routine}.self_s"] = float(self_s[ids].sum())
        points = self.counts.get("phase_space.wigner_eval.points", 0)
        evals = out["phase_space.wigner_eval.calls"]
        out["phase_space.wigner_eval.points_per_call"] = points / evals if evals else 0.0
        out.update((name, self.counts.get(name, 0)) for name in COUNTERS)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())
