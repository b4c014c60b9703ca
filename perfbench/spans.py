"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces every public module-level function of the nine
package modules with a wrapper that records one span per call: name,
start, end, parent span and thread.  The replacement is made in every
package namespace that holds the function, so calls between modules and
through `heterobaker.__init__` are traced too.  `uninstall` restores the
originals.  Untraced runs never create a Tracer, so they patch nothing.

Spans are kept in memory in flat per-thread arrays and written out once,
at the end, by `save`.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("baker", "pcfun", "haar", "transfer", "ruin", "observables",
          "correlation", "verify", "cli")


class _ThreadSpans:
    """Spans of one thread; `stack` holds the indices of the open spans."""

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # values taken from returned objects by the hooks, by counter name
        self.notes: dict[str, list] = defaultdict(list)

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, name: str, fn, hook=None):
        """`fn` with a span per call; `hook(self, result)` runs after it."""
        with self._lock:
            name_id = self._name_ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            stack = spans.stack
            idx = len(spans.start)
            spans.name.append(name_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0.0)
            stack.append(idx)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self, package, hooks: dict | None = None) -> None:
        """Wrap the public functions of `package`'s LAYERS modules."""
        hooks = hooks or {}
        modules = [importlib.import_module(f"{package.__name__}.{m}")
                   for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; `parent` indexes into the same arrays."""
        parts = {k: [] for k in ("name", "parent", "start", "end", "thread")}
        offset = 0
        for t in list(self._threads):
            n = len(t.end)
            parent = np.frombuffer(t.parent, dtype=np.int64)[:n].copy()
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(t.name, dtype=np.int32)[:n])
            parts["start"].append(np.frombuffer(t.start, dtype=np.float64)[:n])
            parts["end"].append(np.frombuffer(t.end, dtype=np.float64)[:n])
            parts["thread"].append(np.full(n, t.thread, dtype=np.int64))
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in parts.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent, thread) -> np.ndarray:
    """Duration of each span minus the durations of its child spans that ran
    on the same thread (a child on another thread overlaps, not nests)."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent, thread = np.asarray(parent, np.int64), np.asarray(thread)
    dur = end - start
    own = np.zeros_like(dur)
    nested = parent >= 0
    nested[nested] = thread[parent[nested]] == thread[nested]
    np.add.at(own, parent[nested], dur[nested])
    return dur - own


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    spans = tracer.arrays()
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in tracer.names}
    if not spans["end"].size:
        return out
    own = self_times(spans["start"], spans["end"], spans["parent"], spans["thread"])
    dur = spans["end"] - spans["start"]
    ids = spans["name"]
    k = len(tracer.names)
    calls = np.bincount(ids, minlength=k)
    total = np.bincount(ids, weights=dur, minlength=k)
    self_s = np.bincount(ids, weights=own, minlength=k)
    for i, name in enumerate(tracer.names):
        out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                     "self_s": float(self_s[i])}
    return out
