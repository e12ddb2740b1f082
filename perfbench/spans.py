"""In-memory span recorder that wraps advforge's public functions.

Every public function of every advforge module except ``cli`` is
replaced, at each module attribute that refers to it, by a wrapper that
records a span.  Patching every attribute, not only the defining one,
matters because callers look names up where they imported them:
``poisonlab.train`` is ``gbdt.train`` imported by name, and
``analytics.score_file`` is ``scoring.score``.  The ``cli`` layer is
spanned by the benchmark around each ``dispatch`` call instead, one span
per subcommand.  A few methods that carry per-layer cost are wrapped on
their class.  ``install`` undoes every patch on exit, so an untraced pass
runs the unmodified program.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict

LAYERS = ("pe", "mutator", "features", "gbdt", "scoring", "harness",
          "selector", "analytics", "poisonlab", "synth", "cli")

# (module, class, method) wrapped on the class; classmethods stay classmethods
METHODS = (
    ("gbdt", "TrainedModel", "predict_proba"),
    ("gbdt", "TrainedModel", "load"),
    ("scoring", "QuotaState", "save"),
    ("scoring", "QuotaState", "load"),
)


def _rows(args, _result) -> int:
    shape = getattr(args[1], "shape", (1,))
    return 1 if len(shape) == 1 else int(shape[0])


def _model_trees(_args, model) -> int:
    return len(model.trees)


# span name -> size of the work one call did, stored as the span's ``n``
SIZES = {
    "gbdt.TrainedModel.predict_proba": _rows,
    "gbdt.train": _model_trees,
    "features.extract": lambda args, _result: len(args[0]),
    "scoring.QuotaState.save": lambda args, _result: os.path.getsize(args[1]),
    "scoring.classify_dir": lambda _args, result: sum(map(len, result)),
}


class Tracer:
    """Spans as (name, start, end, parent, n, phase) tuples, kept in memory.

    ``parent`` is the index of the enclosing span on the same thread, or
    -1; ``phase`` is the label that :meth:`phase` had set when the span
    ended.  ``train_leaves`` holds the leaf count of each trained model.
    """

    def __init__(self):
        self.spans: list = []
        self.train_leaves: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._phase = ""

    def _open(self) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        return stack, index, parent, time.perf_counter()

    def _close(self, opened: tuple, name: str, n: int, end: float) -> None:
        stack, index, parent, start = opened
        stack.pop()
        self.spans[index] = (name, start, end, parent, n, self._phase)

    @contextlib.contextmanager
    def phase(self, label: str):
        previous, self._phase = self._phase, label
        try:
            yield
        finally:
            self._phase = previous

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name, 0, time.perf_counter())

    def _wrap(self, name: str, func):
        size = SIZES.get(name)

        def wrapper(*args, **kwargs):
            opened = self._open()
            done = False
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                n = size(args, result) if done and size else 0
                self._close(opened, name, n, end)
                if done and name == "gbdt.train":
                    self.train_leaves.append(result.total_leaves)

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Patch the program for the duration of the block."""
        modules = {layer: importlib.import_module(f"advforge.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            if layer == "cli":
                continue
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        undo = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[method]
            name = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            undo.append((cls, method, raw))
            setattr(cls, method, patched)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write(self, path, header: dict) -> None:
        payload = dict(header)
        payload["spans"] = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "n": s[4], "phase": s[5]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)


class Summary:
    """Per-name call counts, total and self time, and work done, over the
    spans of the chosen phases.  Self time is a span's duration minus the
    durations of its direct children."""

    def __init__(self, spans, phases):
        chosen = [i for i, s in enumerate(spans) if s[5] in phases]
        child_time = defaultdict(float)
        for i in chosen:
            _name, start, end, parent, _n, _phase = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(int)
        self.by_call = defaultdict(list)
        for i in chosen:
            name, start, end, _parent, n, _phase = spans[i]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.work[name] += n
            self.by_call[name].append((n, end - start))

    def per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.total[name] / calls if calls else 0.0

    def self_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.self_time[name] / calls if calls else 0.0

    def per_work(self, name: str) -> float:
        """Seconds per unit of work (row, byte, file) over every call."""
        work = self.work[name]
        return self.total[name] / work if work else 0.0

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += value
        return out

    def top_self(self, count: int) -> list:
        ranked = sorted(self.self_time.items(), key=lambda kv: -kv[1])
        return ranked[:count]
