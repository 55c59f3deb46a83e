"""In-memory spans and counters for the benchmark's traced run.

A span is recorded around each call the benchmark makes into a layer's
public function.  Spans and counters stay in memory while ops run and are
written out once, at the end of the run.
"""

import contextlib
import json
import time


class Tracer:
    """Records spans as [name, start, end, parent, op_id] and named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op_id = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def self_times(self):
        """Total self time per span name: duration minus the time children cover.

        Spans nest and never overlap within one thread, so the children of a
        span cover exactly the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {}
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time
        return totals

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path):
        fields = ("name", "start", "end", "parent", "op_id")
        payload = {
            "spans": [dict(zip(fields, record)) for record in self.spans],
            "counters": self.counters,
        }
        path.write_text(json.dumps(payload))


class NullTracer:
    """Stands in for Tracer when tracing is off: records nothing."""

    op_id = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def add(self, name, value):
        pass
