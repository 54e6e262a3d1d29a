"""Spans around gdneg's public functions, installed from outside the package.

`install` wraps every public function defined in a layer module, and the
constructor of every public class defined there, then rebinds each module
attribute of the package that refers to a wrapped function, so a call made
through `io_cli.bounds_check` or `gdneg.bounds_check` is recorded just as
one through `measures.bounds_check`. scipy's `minimize` is wrapped the same
way, to count the function evaluations of gdneg's Nelder-Mead searches.
Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, at the end of a run.

A span's self time is its duration minus the time its child spans cover.
The process is single-threaded, so children never overlap.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("io_cli", "states", "matrixcore", "su_generators", "bloch", "measures", "families")
NFEV_COUNTER = "measures.gd_bruteforce_2xn.nelder_mead_nfev"


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]

    def wrap(self, span_name, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def count_nfev(self, minimize):
        """Wrap scipy's minimize to add up the evaluations its results report."""
        self.counters.setdefault(NFEV_COUNTER, 0)

        @functools.wraps(minimize)
        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.counters[NFEV_COUNTER] += int(result.nfev)
            return result

        return counted

    def arrays(self):
        """The spans recorded so far, as numpy arrays."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }


def install(tracer):
    """Wrap gdneg's layer modules in place, recording into `tracer`.

    Returns what `uninstall` needs to put the original attributes back.
    """
    undo = []

    def rebind(target, attr, value):
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    # The nfev counter sits on scipy's minimize itself, so that a call is
    # counted however gdneg reaches it: through a module attribute bound at
    # import (rebound below) or a function-local import.
    import scipy.optimize

    minimize = scipy.optimize.minimize
    counted = tracer.count_nfev(minimize)
    rebind(scipy.optimize, "minimize", counted)
    wrapped = {minimize: counted}
    for layer in LAYERS:
        mod = importlib.import_module(f"gdneg.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                rebind(obj, "__init__", tracer.wrap(f"{layer}.{attr}", obj.__init__))
            elif callable(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, mod in list(sys.modules.items()):
        if name != "gdneg" and not name.startswith("gdneg."):
            continue
        for attr, obj in list(vars(mod).items()):
            try:
                replacement = wrapped.get(obj)
            except TypeError:  # unhashable attribute values
                continue
            if replacement is not None:
                rebind(mod, attr, replacement)
    return undo


def uninstall(undo):
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


def save(path, spans, names, counters):
    nfev = np.array([counters.get(NFEV_COUNTER, 0)])
    np.savez_compressed(path, names=np.array(names), nfev=nfev, **spans)


def load(path):
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "parent", "start", "end")}
        return spans, [str(s) for s in data["names"]], {NFEV_COUNTER: int(data["nfev"][0])}


def merge(parts):
    """Concatenate span sets of several processes into one, renumbering parents."""
    index = {}
    out = {k: [] for k in ("name", "parent", "start", "end")}
    offset = 0
    nfev = 0
    for spans, part_names, counters in parts:
        ids = np.array([index.setdefault(n, len(index)) for n in part_names], dtype=np.int32)
        out["name"].append(ids[spans["name"]])
        out["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + offset, -1))
        out["start"].append(spans["start"])
        out["end"].append(spans["end"])
        offset += len(spans["start"])
        nfev += counters.get(NFEV_COUNTER, 0)
    names = sorted(index, key=index.get)
    return {k: np.concatenate(v) for k, v in out.items()}, names, {NFEV_COUNTER: nfev}


def layer_metrics(spans, names, counters, states, per_layer):
    """Reduce spans to the per-layer metrics; a layer not exercised reads 0."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    total = np.bincount(spans["name"], weights=dur, minlength=k)
    total_self = np.bincount(spans["name"], weights=self_time, minlength=k)
    by_name = {n: i for i, n in enumerate(names)}

    out = {}
    for metric, unit, span, kind in per_layer:
        i = by_name.get(span)
        n_calls = int(calls[i]) if i is not None else 0
        if n_calls == 0:
            value = 0.0
        elif kind == "self_us_per_state":
            value = total_self[i] * 1e6 / states
        elif kind == "calls_per_state":
            value = n_calls / states
        elif kind == "ms_per_call":
            value = total[i] * 1e3 / n_calls
        elif kind == "us_per_call":
            value = total[i] * 1e6 / n_calls
        elif kind == "self_us_per_call":
            value = total_self[i] * 1e6 / n_calls
        elif kind == "self_ms_per_call":
            value = total_self[i] * 1e3 / n_calls
        elif kind == "nfev_per_call":
            value = counters.get(NFEV_COUNTER, 0) / n_calls
        else:
            raise ValueError(f"unknown per-layer kind {kind!r}")
        out[metric] = {"value": float(value), "unit": unit}
    return out
