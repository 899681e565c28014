"""Spans around the benchmark's calls into the package.

Untraced passes call straight through.  Traced passes record one span per
call: the layer name, the id of the operation (document, diagram, orbit
or CLI call) that its spans share, and start and end in nanoseconds.
Spans stay in flat arrays in memory and are written out when the run
ends.  The harness never nests its calls, so a span's duration is the
layer's self time.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter_ns


class Untraced:
    traced = False

    def call(self, name, op, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def reject(self, name):
        pass

    def count(self, key, n=1):
        pass


class Tracer:
    traced = True

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._name = array("H")
        self._op = array("q")
        self._start = array("q")
        self._end = array("q")
        # Calls that raised, and validator calls that returned errors.
        self.raised: Counter = Counter()
        # Layer counters recorded at the same boundaries as the spans.
        self.counters: Counter = Counter()

    def call(self, name, op, fn, *args, **kwargs):
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.raised[name] += 1
            raise
        finally:
            end = perf_counter_ns()
            self._record(name, op, start, end)

    def span(self, name, op, start, end):
        """Record a span timed by the caller (a child process, say)."""
        self._record(name, op, start, end)

    def _record(self, name, op, start, end):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        self._name.append(i)
        self._op.append(op)
        self._start.append(start)
        self._end.append(end)

    def reject(self, name):
        self.raised[name] += 1

    def count(self, key, n=1):
        self.counters[key] += n

    def durations_ns(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {name: [] for name in self.names}
        for i, start, end in zip(self._name, self._start, self._end):
            out[self.names[i]].append(end - start)
        return out

    def __len__(self):
        return len(self._name)

    def write(self, path, header: dict) -> None:
        """Write the header as a JSON comment line, then one CSV line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("name,op,start_ns,end_ns\n")
            names = self.names
            for i, op, start, end in zip(self._name, self._op, self._start, self._end):
                fh.write(f"{names[i]},{op},{start},{end}\n")
