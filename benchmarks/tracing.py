"""Spans around smfrft's public functions, patched in from outside the library.

A traced run replaces each public function listed in ``TARGETS`` at every
module attribute that holds it (``theorems.smfrft_quadrature``,
``cli.smfrft_fast``, ``io_csv.read_signal_csv`` and so on), so calls made
inside the library are caught at their call sites without editing it.
``SampledSignal`` and ``Spectrum`` construction is caught through their
``__post_init__``, and ``threading.Thread.start`` is counted to see the
worker threads ``_chunked`` starts.

Spans are kept in memory and written out when the run ends. They assume
the wrapped functions are called from one thread: the library's own
worker threads run only inside ``_chunked`` blocks, which are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind of work computed from the arguments)
TARGETS = (
    ("transform", "smfrft_quadrature", "transform.quadrature", "quadrature"),
    ("transform", "smfrft_fast", "transform.fast", None),
    ("transform", "ismfrft_fast", "transform.ifast", None),
    ("operators", "frac_convolve", "operators.convolve", "weighted"),
    ("operators", "frac_correlate", "operators.correlate", "weighted"),
    ("operators", "frac_product", "operators.product", None),
    ("operators", "shift_op", "operators.shift_modulate", None),
    ("operators", "modulate_op", "operators.shift_modulate", None),
    ("corpus", "default_pairs", "corpus.default_pairs", None),
    ("theorems", "run_suite", "theorems.run_suite", None),
    ("io_csv", "read_signal_csv", "io_csv.read", "bytes"),
    ("io_csv", "read_spectrum_csv", "io_csv.read", "bytes"),
    ("io_csv", "write_signal_csv", "io_csv.write", "bytes"),
    ("io_csv", "write_spectrum_csv", "io_csv.write", "bytes"),
)
VALUE_TYPES = ("SampledSignal", "Spectrum")  # in smfrft.grid

# per-layer metric names and units, in output order
LAYER_METRICS = (
    ("transform.quadrature.calls", "count"),
    ("transform.quadrature.self_s", "s"),
    ("transform.quadrature.phase_evals", "count"),
    ("transform.fast.calls", "count"),
    ("transform.fast.self_s", "s"),
    ("transform.ifast.self_s", "s"),
    ("operators.convolve.calls", "count"),
    ("operators.convolve.self_s", "s"),
    ("operators.correlate.calls", "count"),
    ("operators.correlate.self_s", "s"),
    ("operators.product.self_s", "s"),
    ("operators.shift_modulate.self_s", "s"),
    ("operators.phase_evals", "count"),
    ("theorems.run_suite_s", "s"),
    ("theorems.self_s", "s"),
    ("theorems.records", "count"),
    ("theorems.quadrature_per_record", "ratio"),
    ("theorems.worst_ratio", "ratio"),
    ("chunked.threads_started", "count"),
    ("grid.signal_new.calls", "count"),
    ("grid.signal_new.self_s", "s"),
    ("corpus.default_pairs_s", "s"),
    ("io_csv.read.self_s", "s"),
    ("io_csv.write.self_s", "s"),
    ("io_csv.bytes_read", "B"),
    ("io_csv.bytes_written", "B"),
    ("io_csv.read_mb_per_s", "MB/s"),
    ("io_csv.write_mb_per_s", "MB/s"),
    ("cli.startup_s", "s"),
    ("cli.generate_s", "s"),
    ("cli.transform_s", "s"),
    ("cli.filter_s", "s"),
    ("cli.invert_s", "s"),
    ("cli.self_s", "s"),
    ("cli.roundtrip_err", "ratio"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


def _work(kind: str, args) -> int:
    """Work done by one call, computed from its positional arguments."""
    if kind == "bytes":
        # every io_csv entry point takes the path first, and the file
        # exists once the call returns, whichever way the data went
        return os.path.getsize(args[0])
    if kind == "quadrature":
        # smfrft_quadrature(x, u_points, angle): one phase per (t, u) pair
        return args[0].grid.count * np.atleast_1d(args[1]).shape[0]
    # frac_convolve / frac_correlate(f, g, angle): N^2 weighted terms
    return args[0].grid.count ** 2


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patch."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.threads_started = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: dict) -> None:
        record["end"] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def _wrapper(self, fn, name: str, work: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record["work"] = _work(work, args)
            return out
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "smfrft" or key.startswith("smfrft."))]
        for module_name, attr, name, work in TARGETS:
            original = getattr(importlib.import_module(f"smfrft.{module_name}"), attr)
            wrapper = self._wrapper(original, name, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        grid = importlib.import_module("smfrft.grid")
        for type_name in VALUE_TYPES:
            cls = getattr(grid, type_name)
            self._patch(cls, "__post_init__",
                        self._wrapper(cls.__post_init__, "grid.signal_new", None))
        start = threading.Thread.start

        def counting_start(thread, *args, **kwargs):
            self.threads_started += 1
            return start(thread, *args, **kwargs)

        self._patch(threading.Thread, "start", counting_start)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.spans, handle)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed work.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, because every span
        opens and closes on the same thread.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for index, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            entry = out[span["name"]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
            entry["work"] += span.get("work", 0)
        return dict(out)

    def root_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span["name"] != name:
                continue
            parent = span["parent"]
            while parent is not None and self.spans[parent]["name"] != ancestor:
                parent = self.spans[parent]["parent"]
            count += parent is not None
        return count


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  diagnostics: dict) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``; 0 where the
    workload never reaches the layer."""
    spans = tracer.summary()

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    values = dict(diagnostics)
    for name in ("transform.quadrature", "transform.fast", "operators.convolve",
                 "operators.correlate", "grid.signal_new"):
        values[f"{name}.calls"] = get(name, "calls")
    for name in ("transform.quadrature", "transform.fast", "transform.ifast",
                 "operators.convolve", "operators.correlate", "operators.product",
                 "operators.shift_modulate", "io_csv.read", "io_csv.write",
                 "grid.signal_new"):
        values[f"{name}.self_s"] = get(name, "self_s")
    values["transform.quadrature.phase_evals"] = get("transform.quadrature", "work")
    values["operators.phase_evals"] = (get("operators.convolve", "work")
                                       + get("operators.correlate", "work"))
    values["theorems.run_suite_s"] = get("theorems.run_suite", "total_s")
    values["theorems.self_s"] = get("theorems.run_suite", "self_s")
    records = values.get("theorems.records", 0)
    if records:
        values["theorems.quadrature_per_record"] = tracer.count_under(
            "transform.quadrature", "theorems.run_suite") / records
    values["chunked.threads_started"] = tracer.threads_started
    values["corpus.default_pairs_s"] = get("corpus.default_pairs", "total_s")
    for io, direction in (("read", "bytes_read"), ("write", "bytes_written")):
        moved = get(f"io_csv.{io}", "work")
        values[f"io_csv.{direction}"] = moved
        busy = get(f"io_csv.{io}", "self_s")
        values[f"io_csv.{io}_mb_per_s"] = moved / 1e6 / busy if busy else 0.0
    for command in ("generate", "transform", "filter", "invert"):
        values[f"cli.{command}_s"] = get(f"cli.{command}", "total_s")
    values["cli.self_s"] = sum(entry["self_s"] for name, entry in spans.items()
                               if name.startswith("cli."))
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.unaccounted_s"] = traced_s - tracer.root_seconds()
    return {name: (values.get(name, 0), unit) for name, unit in LAYER_METRICS}
