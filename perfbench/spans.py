"""Spans and counters recorded by the traced run.

The benchmark wraps its own calls into loopkit's public functions in
spans; nothing inside `src/` is edited or patched.  A span has a name,
start and end (perf_counter seconds), the id of the span that was open
when it started, and the op it belongs to.  Spans stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def count(self, name: str, by: int = 1):
        self.counts[name] += by

    def totals(self, duration=lambda start, end: end - start):
        """Per span name: (inclusive seconds, self seconds), each span
        lasting duration(start, end).

        Self time is a span's duration minus the time covered by its
        direct children (children never overlap: one op runs at a time).
        """
        lengths = [duration(start, end) for _, _, start, end, _, _ in self.spans]
        child_time = defaultdict(float)
        for sid, _, _, _, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += lengths[sid]
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for sid, name, _, _, _, _ in self.spans:
            inclusive[name] += lengths[sid]
            self_time[name] += lengths[sid] - child_time[sid]
        return inclusive, self_time

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")

