"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: the public functions of each
module are replaced by timing wrappers for the duration of one run. A name
is patched in every module that looks it up, because ``campaign``, ``faults``
and ``cli`` import ``simulator_for``, ``apply_set`` and friends by name.
Spans stay in memory as (name, start, end, parent, run id) and are written
once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run_id = array("H")
        self._stack: list[int] = []
        self._run = 0

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_id.append(self._run)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run_id: int = 0) -> Iterator[None]:
        """Open a top-level span; ``run_id`` tags it and everything under it."""
        self._run = run_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> Iterable[tuple[str, float, float, int, int]]:
        for i in range(len(self.start)):
            yield (self.names[self.name_id[i]], self.start[i], self.end[i],
                   self.parent[i], self.run_id[i])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


@contextmanager
def patched(tracer: Tracer, table: Iterable[tuple[object, str, str]]) -> Iterator[None]:
    """Replace ``owner.attr`` by a traced wrapper for each (owner, attr, span)."""
    saved = []
    try:
        for owner, attr, name in table:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(tracer: Tracer, root: str, keep: tuple[str, ...] = ()) -> dict[str, dict]:
    """Calls, total and self time per span name, under spans named ``root``.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap because the run is single-threaded. Span
    names in ``keep`` also list every duration.
    """
    n = len(tracer)
    root_id = tracer.names.index(root)
    child_time = [0.0] * n
    inside = [False] * n
    for i in range(n):
        p = tracer.parent[i]
        inside[i] = tracer.name_id[i] == root_id or (p >= 0 and inside[p])
        if p >= 0:
            child_time[p] += tracer.end[i] - tracer.start[i]
    out: dict[str, dict] = {}
    for i in range(n):
        if not inside[i]:
            continue
        dur = tracer.end[i] - tracer.start[i]
        name = tracer.names[tracer.name_id[i]]
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child_time[i]
        if name in keep:
            s.setdefault("durations", []).append(dur)
    return out
