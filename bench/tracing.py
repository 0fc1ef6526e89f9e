"""Layer spans recorded from outside the package.

``LAYERS`` is the one table of layer name -> the module attributes its calls
go through. ``Tracer.install`` swaps each attribute for a timing wrapper and
``Tracer.restore`` puts the originals back. Every call records a span
(id, layer, start, end, parent span, run id) in memory; ``per_op_metrics``
turns them into per-layer counts, busy and self times, and ``save`` writes
them out when the run ends.

Aliases matter: ``experiments`` binds ``_tau_derivative`` and ``capacity``
at import, so wrapping only the defining module would miss the batch path.
A layer whose attributes all fail to resolve is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter

import numpy as np


def _size(args, kwargs, result):
    return getattr(result, "size", 1)


def _rows(args, kwargs, result):
    shape = getattr(result, "shape", ())
    return shape[0] if shape else 1


def _iterations(args, kwargs, result):
    return getattr(result, "iterations", 0)


def _file_bytes(args, kwargs, result):
    dest = args[1] if len(args) > 1 else kwargs.get("destination")
    return os.path.getsize(dest)


# layer -> (attributes "module:name" its calls go through, {counter: fn}).
LAYERS = {
    "cli.run": (["ehjam.cli:run"], {}),
    "experiments.sweep": (["ehjam.cli:sir_sweep"], {}),
    "experiments.sample": (["ehjam.experiments:_gain_block"], {"draws": _rows}),
    "experiments.ne_batch": (["ehjam.experiments:_solve_ne_batch"], {}),
    "experiments.nj_batch": (["ehjam.experiments:_solve_nj_batch"], {}),
    "experiments.aggregate": (["ehjam.experiments:_make_record"], {}),
    "experiments.write_csv": (["ehjam.cli:write_csv"], {"bytes": _file_bytes}),
    "solvers.solve_ne": (["ehjam.solvers:solve_ne", "ehjam.experiments:solve_ne",
                          "ehjam.cli:solve_ne"], {}),
    "solvers.solve_nj": (["ehjam.solvers:solve_nj", "ehjam.experiments:solve_nj",
                          "ehjam.cli:solve_nj"], {}),
    # one maximized tau-profile per element: the denominator of elements_per_root
    "solvers.optimize_tau": (["ehjam.experiments:_optimal_tau",
                              "ehjam.solvers:_maximize_profile"], {"roots": _size}),
    "solvers.find_root": (["ehjam.solvers:find_root_bracketed"],
                          {"iterations": _iterations}),
    "solvers.tau_derivative": (["ehjam.solvers:_tau_derivative",
                                "ehjam.experiments:_tau_derivative"],
                               {"elements": _size}),
    "model.capacity": (["ehjam.model:capacity", "ehjam.solvers:capacity",
                        "ehjam.experiments:capacity"], {"elements": _size}),
}


def resolve():
    """(found, missing): found maps layer -> [(module, attr, original)]."""
    found, missing = {}, []
    for layer, (targets, _) in LAYERS.items():
        for target in targets:
            mod_name, attr = target.split(":")
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                missing.append(target)
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                found.setdefault(layer, []).append((module, attr, fn))
            else:
                missing.append(target)
    return found, missing


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.spans = []  # (id, layer index, start, end, parent id, run id)
        self.counts = {layer: dict.fromkeys(LAYERS[layer][1], 0)
                       for layer in self.layers}
        self.run_id = -1
        self._stack = [-1]
        self._next = 0
        self._saved = []
        self.found, self.missing = resolve()

    @property
    def absent(self):
        return [layer for layer in self.layers if layer not in self.found]

    def _wrap(self, layer, fn):
        index = self.layers.index(layer)
        counters = list(LAYERS[layer][1].items())
        counts = self.counts[layer]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, index, start, end, parent, self.run_id))
            for name, count in counters:
                counts[name] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for layer, entries in self.found.items():
            for module, attr, fn in entries:
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(layer, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _arrays(self):
        spans = sorted(self.spans)
        arr = np.array(spans, dtype=float).reshape(-1, 6)
        layer = arr[:, 1].astype(int)
        dur = arr[:, 3] - arr[:, 2]
        parent = arr[:, 4].astype(int)
        # ids are dense and sorted, so a parent id is its row index
        child = np.zeros(len(spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return layer, dur, dur - child

    def layer_totals(self):
        """layer -> {calls, busy_s, self_s, and the layer's counters}."""
        layer, dur, self_time = self._arrays()
        out = {}
        for i, name in enumerate(self.layers):
            mask = layer == i
            out[name] = {"calls": int(np.count_nonzero(mask)),
                         "busy_s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum()),
                         **self.counts[name]}
        return out

    def save(self, path):
        """Write the spans as one JSON object: layer names and span rows."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"columns": ["id", "layer", "start", "end", "parent", "run"],
                       "layers": self.layers,
                       "spans": sorted(self.spans)}, fh, separators=(",", ":"))
