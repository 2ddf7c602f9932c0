"""In-memory spans for the traced benchmark run.

A span covers one call into a layer: its name (``layer.what``), start,
end, the span that was open when it began (its parent) and the id of the
program it serves.  Spans are kept in memory and written out once, as
JSON lines, when the run ends.

Calls made on every tick (the SV phase, the invariant checker,
instruction decode) would make tens of thousands of spans per program.
Those go through ``wrap``, which folds all calls of one name under one
parent into a single aggregate span: ``busy`` is the summed duration of
the calls and ``calls`` their number.  A plain span is the case
``calls == 1`` and ``busy == end - start``.

The benchmark runs one program at a time on one thread, so the children
of a span never overlap each other, and the part of a span that its
children cover is the sum of their ``busy`` times.  That gives a layer's
self time: its busy time minus that of its direct children.
"""

import contextlib
import json
import time


class Span:
    __slots__ = ("id", "parent", "prog", "name", "start", "end", "busy",
                 "calls")

    def __init__(self, span_id, parent, prog, name, start):
        self.id = span_id
        self.parent = parent
        self.prog = prog
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 0

    def close(self, start, end):
        self.end = end
        self.busy += end - start
        self.calls += 1

    def as_dict(self):
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Collects spans; ``clock`` is replaceable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans = []
        self._stack = []          # open spans, innermost last
        self._aggregates = {}     # (parent id, name) -> Span

    def _now(self):
        return self.clock() - self.origin

    def _new(self, name, prog, start):
        parent = self._stack[-1] if self._stack else None
        if prog is None and parent is not None:
            prog = parent.prog
        span = Span(len(self.spans), parent.id if parent else None, prog,
                    name, start)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name, prog=None):
        """One plain span around the body of the ``with`` block."""
        start = self._now()
        span = self._new(name, prog, start)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.close(start, self._now())

    def wrap(self, fn, name):
        """``fn`` with every call folded into one aggregate span per parent."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            key = (parent.id if parent else None, name)
            span = self._aggregates.get(key)
            start = self._now()
            if span is None:
                span = self._aggregates[key] = self._new(name, None, start)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.close(start, self._now())
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans):
    """Span id -> busy time minus the busy time of its direct children."""
    own = {span.id: span.busy for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.busy
    return own


def totals_by_name(spans):
    """Name -> [busy, self, calls], summed over all spans of that name."""
    own = self_times(spans)
    out = {}
    for span in spans:
        row = out.setdefault(span.name, [0.0, 0.0, 0])
        row[0] += span.busy
        row[1] += own[span.id]
        row[2] += span.calls
    return out
