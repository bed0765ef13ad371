"""In-memory spans around the benchmark's calls into the program's layers.

A span records its name, start, end, parent span and the operation it
belongs to.  ``Tracer.patch`` replaces a function in one of the program's
module namespaces with a wrapper that opens a span around each call, so the
program itself is unchanged; ``restore`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        rec = Span(len(self.spans), name, self._stack[-1].id if self._stack else None,
                   self.op, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name, on_result=None):
        """Trace every call of ``module.attr``.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``on_result(span, args, kwargs, result)`` may add attributes to
        the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name) as rec:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(rec, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def durations_ms(self, name):
        return [s.seconds * 1e3 for s in self.spans if s.name == name]

    def self_ms(self, name):
        """Self times of the spans called ``name``: duration minus children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return [(s.seconds - child[s.id]) * 1e3 for s in self.spans if s.name == name]

    def attrs(self, name, key):
        return [s.attrs[key] for s in self.spans if s.name == name and key in s.attrs]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)
