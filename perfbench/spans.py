"""Spans around the benchmark's calls into the library.

A span is (name, start, end, parent, instance).  Names are
``<layer>.<function>``, so a layer's busy time is the self time of its spans.
Spans stay in memory in flat arrays and are written out once, at the end.
The untraced variant keeps the same interface and records nothing.
"""
from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import defaultdict
from time import perf_counter


class LayerError(Exception):
    """A library call raised; carries the span name of the failing call."""

    def __init__(self, name: str, err: Exception) -> None:
        super().__init__(f"{name}: {type(err).__name__}: {err}")
        self.name = name


class Untraced:
    on = False

    def call(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            raise LayerError(name, err) from err

    def begin(self, name, instance):
        return -1

    def end(self, sid):
        pass

    def count(self, key, value):
        pass


class Tracer:
    on = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end_ = array("d")
        self.parent = array("q")
        self.inst = array("q")
        self._next = 0
        self._root: tuple[int, int, float] | None = None
        self.instance = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _record(self, sid, nid, start, end, parent, instance) -> None:
        self.sid.append(sid)
        self.name.append(nid)
        self.start.append(start)
        self.end_.append(end)
        self.parent.append(parent)
        self.inst.append(instance)

    def begin(self, name: str, instance: int) -> int:
        """Open the root span of one instance: a generated input, the demos,
        a pipeline instance or an online run.  Roots do not nest."""
        sid = self._next
        self._next += 1
        self.instance = instance
        self._root = (sid, self._name_id(name), perf_counter())
        return sid

    def end(self, sid: int) -> None:
        _, nid, start = self._root
        self._root = None
        self._record(sid, nid, start, perf_counter(), -1, self.instance)

    def call(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        nid = self._name_id(name)
        parent = self._root[0] if self._root else -1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            raise LayerError(name, err) from err
        finally:
            self._record(sid, nid, start, perf_counter(), parent, self.instance)

    def count(self, key: str, value: float) -> None:
        self.counts[self.instance][key] += value

    # -------------------------------------------------------------- derive

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per instance: self seconds summed by span name.  A span's self
        time is its duration minus the time its child spans cover; children
        of one parent run one after another, so their durations add up."""
        covered: dict[int, float] = defaultdict(float)
        for k in range(len(self.sid)):
            if self.parent[k] >= 0:
                covered[self.parent[k]] += self.end_[k] - self.start[k]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for k in range(len(self.sid)):
            dur = self.end_[k] - self.start[k]
            out[self.inst[k]][self.names[self.name[k]]] += dur - covered.get(self.sid[k], 0.0)
        return out

    def durations(self, name: str) -> dict[int, float]:
        """Per instance: total wall seconds of the spans called ``name``."""
        nid = self._ids.get(name)
        out: dict[int, float] = defaultdict(float)
        for k in range(len(self.sid)):
            if self.name[k] == nid:
                out[self.inst[k]] += self.end_[k] - self.start[k]
        return out

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "columns": ["sid", "name", "start", "end", "parent", "instance"],
            "spans": [list(self.sid), list(self.name), list(self.start),
                      list(self.end_), list(self.parent), list(self.inst)],
            "counts": {str(i): dict(c) for i, c in self.counts.items()},
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
