"""Span tracing of biomm's public functions, installed from outside the package.

Each traced function is wrapped at its module attribute, and at every other
biomm module attribute bound to the same function object (``lda`` imports
``pca.project`` by name, for instance), so calls made inside the package are
seen as well. One span is kept per call, with the index of the span that
was open when it started. The benchmark drives biomm from one thread, so
spans nest strictly and a span's children are exactly the spans opened
while it was on the stack.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Public functions on the fit and serving paths, named <module>.<function>.
TRACED = (
    "linalg.sym_eig",
    "linalg.gen_eig",
    "pca.fit_pca",
    "pca.project",
    "lda.scatter",
    "lda.fit_lda",
    "svm.kernel_matrix",
    "svm.train_binary",
    "svm.train_multiclass",
    "svm.predict_binary",
    "svm.predict_multiclass",
    "mfcc.filter_weights",
    "mfcc.extract",
    "knn.classify",
    "pipeline.fit_system",
    "pipeline.identify",
    "pipeline.verify",
    "pipeline.save_model",
    "pipeline.load_model",
)

ROOT = "op"  # one root span per benchmark operation


class Tracer:
    """Records spans in memory; biomm is patched only inside `with tracer:`."""

    def __init__(self):
        self.span_name: list[str] = []
        self.span_parent: list[int] = []
        self.span_time: list[float] = []
        self.span_child_time: list[float] = []
        self._stack: list[int] = []
        self._patches = self._find_patches()

    def _open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(name)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_time.append(0.0)
        self.span_child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, elapsed: float) -> None:
        self._stack.pop()
        self.span_time[idx] = elapsed
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child_time[parent] += elapsed

    def span(self, fn, name: str = ROOT):
        """Call fn() inside a span; returns fn's result."""
        idx = self._open(name)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, perf_counter() - t0)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, perf_counter() - t0)

        traced.__wrapped__ = fn
        return traced

    def _find_patches(self) -> list:
        """(module, attribute, original, wrapper) for every binding to patch."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "biomm" or key.startswith("biomm."))
        ]
        patches = []
        for name in TRACED:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"biomm.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        return patches

    def __enter__(self) -> "Tracer":
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def summary(self) -> dict:
        """{name: {"calls", "s", "self_s"}} over every recorded span.

        "s" is inclusive time; "self_s" subtracts the time covered by the
        span's direct children, so self times over all spans sum to the
        root spans' total.
        """
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, total, child in zip(self.span_name, self.span_time, self.span_child_time):
            row = out[name]
            row["calls"] += 1
            row["s"] += total
            row["self_s"] += total - child
        return dict(out)
