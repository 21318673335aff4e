"""Spans around the calls between the package's modules.

The tracer records one span per call into a public function of a package
module, taken from outside the program: :func:`install` replaces every
public function that one package module imports from another (the names
``cli``, ``experiments`` and ``protocol`` look up at call time) with a
wrapper, and the returned callable puts the originals back. The benchmark
wraps ``cli.main`` itself with :meth:`Tracer.span`.

Spans are kept in memory and written out when the run ends. A span is
``(span_id, parent_id, op_id, name, start, end, thread, counts)``; the
parent of a span opened on a worker thread with no open span of its own is
the innermost span open on the thread that started the op, so the
``run_session`` calls a threaded scan makes hang under its ``delay_scan``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import itertools
import os
import threading
import time
import tracemalloc
from typing import Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    span_id: int
    parent_id: int
    op_id: int
    name: str
    start: float
    end: float
    thread: str
    counts: Optional[dict]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_records(args, kwargs, result) -> dict:
    return {"bits": len(args[0]), "sifted": len(result)}


def _count_export(args, kwargs, result) -> dict:
    dest = args[1] if len(args) > 1 else kwargs.get("destination")
    counts = {"rows": len(args[0])}
    if isinstance(dest, (str, os.PathLike)):
        counts["bytes"] = os.path.getsize(dest)
    return counts


# Work counted at each boundary, read from the call's arguments or result.
COUNTERS: dict[str, Callable[..., dict]] = {
    "protocol.run_session": lambda a, k, r: {"bits": a[0].n_bits},
    "protocol.sift": _count_records,
    "protocol.export_records_csv": _count_export,
    "experiments.delay_scan": lambda a, k, r: {"points": len(r)},
    "experiments.uniformity_chisq": lambda a, k, r: {"samples": int(np.size(a[0]))},
    "randomizer.generate_pattern": lambda a, k, r: {"codes": len(r)},
    "randomizer.code_to_phase": lambda a, k, r: {"codes": int(np.size(a[0]))},
}

# Span whose allocation peak is recorded while allocation tracking is on.
ALLOC_SPAN = "protocol.run_session"


class Tracer:
    """In-memory span recorder shared by every thread of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_kind: dict[int, str] = {}
        self.alloc_peaks: list[tuple[int, int]] = []  # (peak bytes, bits)
        self.track_alloc = False
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()
        self._op_id = 0
        self._op_stack: list[int] = []
        self.origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, kind: str):
        """Scope of one benchmark op; spans opened inside share its id."""
        self._op_id = next(self._op_ids)
        self.op_kind[self._op_id] = kind
        self._op_stack = self._stack()
        try:
            yield self._op_id
        finally:
            self._op_id = 0

    @contextlib.contextmanager
    def span(self, name: str, count: Optional[Callable[..., dict]] = None, call=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else 0
        span_id = next(self._ids)
        box: dict = {}
        alloc = self.track_alloc and name == ALLOC_SPAN
        if alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = None
            if count is not None and "result" in box:
                args, kwargs = call
                counts = count(args, kwargs, box["result"])
            if alloc and counts is not None:
                self.alloc_peaks.append((tracemalloc.get_traced_memory()[1] - base, counts["bits"]))
            self.spans.append(
                Span(span_id, parent, self._op_id, name, start - self.origin, end - self.origin,
                     threading.current_thread().name, counts)
            )

    def wrap(self, fn: Callable, name: str) -> Callable:
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, count, (args, kwargs)) as box:
                box["result"] = result = fn(*args, **kwargs)
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "parent_id", "op_id", "op_kind", "name",
                          "start_s", "end_s", "thread", "counts"])
            for s in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in (s.counts or {}).items())
                out.writerow([s.span_id, s.parent_id, s.op_id, self.op_kind.get(s.op_id, ""),
                              s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.thread, counts])


def install(tracer: Tracer, modules) -> Callable[[], None]:
    """Wrap every public package function a module imported from a sibling.

    Returns a callable that restores the original bindings.
    """
    saved = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = obj.__module__
            if owner == mod.__name__ or not owner.startswith("plugplay_qkd."):
                continue
            layer = owner.rsplit(".", 1)[1]
            saved.append((mod, attr, obj))
            setattr(mod, attr, tracer.wrap(obj, f"{layer}.{obj.__name__}"))

    def restore() -> None:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)

    return restore


def self_seconds(parent: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval its children cover."""
    covered = 0.0
    cursor = parent.start
    for child in sorted(children, key=lambda s: s.start):
        lo = max(child.start, cursor)
        hi = min(child.end, parent.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return parent.seconds - covered


class SpanGuardError(RuntimeError):
    """A workload's traced run recorded no call for a span it must show."""
