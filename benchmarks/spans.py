"""Spans recorded in memory around the benchmark's calls into sftoric.

Each span is ``[name, op, start_ns, end_ns, parent]``: ``op`` is the id of
the op that caused it (every call made for one op shares it) and ``parent``
the index of the enclosing span.  Counts are ``(name, op, value)``.  Nothing
is written until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[list] = []
        self.counts: list[tuple] = []
        self.op = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """fn(*args), inside a span named ``name`` when enabled."""
        if not self.enabled:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        record = [name, self.op, time.perf_counter_ns(), None, parent]
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            return fn(*args)
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts.append((name, self.op, value))

    def closed(self):
        return (r for r in self.records if r[3] is not None)

    def mean_ms(self, name: str):
        values = [(r[3] - r[2]) / 1e6 for r in self.closed() if r[0] == name]
        return statistics.fmean(values) if values else None

    def per_op_ms(self, name: str) -> dict:
        """Total milliseconds in spans named ``name``, by op id."""
        out: dict = defaultdict(float)
        for r in self.closed():
            if r[0] == name:
                out[r[1]] += (r[3] - r[2]) / 1e6
        return dict(out)

    def mean_count(self, name: str):
        values = [v for n, _, v in self.counts if n == name]
        return statistics.fmean(values) if values else None

    def total_count(self, name: str):
        return sum(v for n, _, v in self.counts if n == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, op, start, end, parent) in enumerate(self.records):
                fh.write(json.dumps({
                    "span": index, "name": name, "op": op, "start_ns": start,
                    "end_ns": end, "parent": parent,
                }) + "\n")
            for name, op, value in self.counts:
                fh.write(json.dumps({"count": name, "op": op, "value": value}) + "\n")
