"""In-memory span recorder that times calls into pickgen from outside.

pickgen modules import their collaborators by name
(``from .model import decode_forward``), so a call is intercepted by
replacing the binding in the *calling* module, for example
``pickgen.decoding.decode_forward``. Nothing in the package is edited, and
every replaced binding is put back by ``Tracer.close``.

A span is ``[name, start, end, parent, root]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``root`` the index of the
top-level span it belongs to, which identifies the operation.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.context: dict = {}  # state shared by on_call hooks
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- patching -----------------------------------------------------------

    def patch(self, module, attr: str, name: str, on_call=None) -> None:
        """Time every call made through module.attr as a span called name.

        on_call(tracer, arguments) gets the call's arguments by parameter
        name, defaults filled in, before the span opens, so tracer.current()
        is then the caller's span. A binding that no longer exists is
        recorded in self.absent instead of failing the run.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self
        signature = inspect.signature(original) if on_call is not None else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(tracer, bound.arguments)
            idx = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def count_instances(self, cls, key: str) -> None:
        """Count every object of cls constructed while patched."""
        original = cls.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts[key] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counting_init
        self._patches.append((cls, "__init__", original))

    def close(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name. Self time is a span's
        duration minus that of its direct children, which nest inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child[i]
        return out

    def top_level_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write(self, path: str) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent, "root": root,
                }))
                fh.write("\n")
