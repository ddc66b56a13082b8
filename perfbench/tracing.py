"""Outside-in span tracing of floqlab's layers.

The tracer replaces every public function of the layer modules, under each
name it is bound to in any floqlab module, with a wrapper that records a
span.  Because callers look those names up at call time, calls between
layers (topology -> model -> spinalg, quench -> model, ...) are recorded
too, without any change to the program.  The cli layer is traced at its
entry point only, so its self time is argument parsing plus command glue.

A span is [name, start, end, parent index, op id, error type, size]; size
is the number of momenta for axis_field, the file size for the serialize
writers and the subcommand for cli.main.  Spans stay in memory until the
run writes them out.
"""

import collections
import functools
import gzip
import importlib
import json
import os
import sys
import time
import types

import numpy as np

LAYERS = ("spinalg", "model", "topology", "quench", "lattice", "pulsegen", "serialize", "cli")
ENTRY_ONLY = {"cli": {"main"}}

NAME, START, END, PARENT, OP, ERROR, SIZE = range(7)

WRITERS = ("serialize.write_csv", "serialize.write_json")


def _size_of(name, args, kwargs):
    if name == "model.axis_field":
        return int(np.size(args[0] if args else kwargs["k"]))
    if name in WRITERS:
        path = args[0] if args else kwargs["path"]
        return os.path.getsize(path)
    if name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else None
    return None


class Tracer:
    """Installs span-recording wrappers into the floqlab layer modules."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.present = set()
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sized_before = name in ("model.axis_field", "cli.main")
        sized_after = name in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            if sized_before:
                span[SIZE] = _size_of(name, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                stack.pop()
                span[ERROR] = type(exc).__name__
                raise
            span[END] = time.perf_counter()
            stack.pop()
            if sized_after:
                span[SIZE] = _size_of(name, args, kwargs)
            return result

        return traced

    def install(self):
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"floqlab.{layer}")
            except ImportError:  # a layer this version of floqlab lacks is absent
                continue
            for attr, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == module.__name__
                        and attr in ENTRY_ONLY.get(layer, {attr})):
                    originals[fn] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        self.present = set(originals.values())
        modules = [m for key, m in sys.modules.items()
                   if (key == "floqlab" or key.startswith("floqlab.")) and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _zero_stats():
    return {"calls": 0, "self_s": 0.0, "errors": 0, "accepted": 0, "points": 0,
            "bytes": 0, "max_resolution": 0, "doublings": 0, "axis_field_calls": 0}


def function_stats(spans):
    """Per-function totals keyed "layer.function"; unseen names read as zero.

    self_s is a span's duration minus the time its child spans cover.
    max_resolution and doublings describe the axis_field calls made
    directly by winding_number (one per resolution tried); axis_field_calls
    counts the scalar axis_field calls made directly by find_bis.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats = collections.defaultdict(_zero_stats)
    grids = collections.defaultdict(list)
    for i, span in enumerate(spans):
        entry = stats[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += (span[END] - span[START]) - child_time[i]
        if span[ERROR] is None:
            entry["accepted"] += 1
        else:
            entry["errors"] += 1
        if span[NAME] == "model.axis_field":
            entry["points"] += span[SIZE]
            if span[PARENT] >= 0:
                grids[span[PARENT]].append(span[SIZE])
        elif span[NAME] in WRITERS and span[SIZE] is not None:
            entry["bytes"] += span[SIZE]
    for parent, sizes in grids.items():
        name = spans[parent][NAME]
        if name == "topology.winding_number":
            entry = stats[name]
            entry["max_resolution"] = max(entry["max_resolution"], max(sizes))
            entry["doublings"] += len(sizes) - 1
        elif name == "quench.find_bis":
            stats[name]["axis_field_calls"] += sum(1 for size in sizes if size == 1)
    return stats
