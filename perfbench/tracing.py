"""Spans around the public functions of every wernerkit module.

The program is not instrumented: `Tracer.installed()` replaces each public
function, wherever a wernerkit module holds a reference to it, with a wrapper
that records one span `<module>.<function>` per call, and puts the originals
back on exit.  Spans live in flat integer arrays while the run lasts and are
written out by `Tracer.save`.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

from spec import LAYERS

# Counts taken where the work happens: span name -> (counter, amount(args, result)).
_COUNTS = {
    "hiddenvar.estimate_correlation": ("hiddenvar.draws", lambda args, r: r.n_samples),
    "hiddenvar.estimate_local": ("hiddenvar.draws", lambda args, r: r.n_samples),
    "decomposition.spherical_decomposition": ("decomposition.nodes_built", lambda args, r: len(r.nodes)),
    "decomposition.reconstruct": (
        "decomposition.nodes_reconstructed", lambda args, r: len(getattr(args[0], "nodes", ())),
    ),
    "cli.render": ("cli.output_bytes", lambda args, r: len(r.encode())),
}


def public_functions() -> dict[str, object]:
    """`<module>.<function>` -> function, for every function a library module
    lists in `__all__`, plus `cli.main`."""
    found = {}
    for layer in LAYERS[:-1]:
        module = importlib.import_module(f"wernerkit.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    found["cli.main"] = importlib.import_module("wernerkit.cli").main
    return found


def self_times(name_id, start, end, parent, n_names: int) -> np.ndarray:
    """Per span name: the summed span durations minus the time covered by
    each span's direct children.  parent is -1 for a root span."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return np.bincount(np.asarray(name_id, dtype=np.int64), weights=dur - child, minlength=n_names)


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> name id
        self._swaps = None  # wrappers, built on the first install
        self.name_id = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        layer = name.split(".", 1)[0]
        count = _COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every reference a wernerkit module holds to a public function
        (and the renderers `cli.main` dispatches to) for its wrapper."""
        cli = sys.modules["wernerkit.cli"]
        if self._swaps is None:
            self._swaps = (
                {id(fn): self.wrap(name, fn) for name, fn in public_functions().items()},
                {fmt: self.wrap("cli.render", fn) for fmt, fn in cli._RENDERERS.items()},
            )
        wrappers, render = self._swaps
        renderers = dict(cli._RENDERERS)
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "wernerkit" and not module_name.startswith("wernerkit."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        cli._RENDERERS.update(render)
        try:
            yield self
        finally:
            cli._RENDERERS.update(renderers)
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over all spans."""
        ns = self_times(self.name_id, self.start, self.end, self.parent, len(self._ids))
        return {name: float(t) * 1e-9 for name, t in zip(self._ids, ns)}

    def calls(self) -> Counter:
        n = np.bincount(np.asarray(self.name_id, dtype=np.int64), minlength=len(self._ids))
        return Counter({name: int(c) for name, c in zip(self._ids, n)})

    def save(self, path) -> None:
        """Write every span: name, start and end (ns), parent span index
        (-1 at a root) and op id."""
        np.savez(
            path,
            names=np.array(list(self._ids)),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
