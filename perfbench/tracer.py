"""Spans around the calls into each layer, recorded from the benchmark's side.

`Tracer.installed()` replaces public functions of the library, as class or
module attributes, with wrappers that record one span per call (name,
start, end, parent span) and restores the originals on exit.  Collector
pauses, observed through ``gc.callbacks``, become spans of their own, so
their time is not charged to the layer they interrupted.  Spans are kept in
flat arrays and written out by `write`.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from contextlib import contextmanager

GC_SPAN = "gc.collect"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.paused = False
        self.gc_collections = 0
        self.gc_gen2 = 0
        self._gc_open = None
        self._saved = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self.stack[-1])
        self.stack.append(sid)
        return sid

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack = self.stack
        start = self.start
        end = self.end
        open_span = self._open

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = open_span(nid)
            start[sid] = clock()  # after the bookkeeping, which is not the callee's time
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if self.paused:
            return
        if phase == "start":
            self._gc_open = self._open(self._intern(GC_SPAN))
            self.start[self._gc_open] = time.perf_counter_ns()
        elif self._gc_open is not None:
            self.end[self._gc_open] = time.perf_counter_ns()
            self.stack.pop()
            self._gc_open = None
            self.gc_collections += 1
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    @contextmanager
    def installed(self, targets):
        """Trace ``targets``: (owner, attribute, span name) triples.

        An attribute the owner does not have is skipped, so a function a
        later version removes reads as zero calls instead of failing.
        """
        try:
            for owner, attr, name in targets:
                fn = getattr(owner, "__dict__", {}).get(attr)
                if fn is None or not callable(fn):
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)

    @contextmanager
    def pause(self):
        """Run bookkeeping calls untraced while the wrappers stay installed."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, roots=("tree.slide", "tree.append", "tree.delete_front")) -> dict:
        """Per-name call counts and total / self ns, and per-layer self ns.

        A span's self time is its duration minus the durations of its
        direct children.  ``under_update`` counts the calls made inside a
        span named in ``roots``, the tree-upkeep part of the work.
        """
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child_ns = array("q", bytes(8 * n))
        root_ids = {self._ids[r] for r in roots if r in self._ids}
        in_update = bytearray(n)
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child_ns[p] += end[sid] - start[sid]
                if in_update[p]:
                    in_update[sid] = 1
            if name_id[sid] in root_ids:
                in_update[sid] = 1
        per_name = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "under_update": 0}
                    for name in self.names}
        for sid in range(n):
            rec = per_name[self.names[name_id[sid]]]
            dur = end[sid] - start[sid]
            rec["calls"] += 1
            rec["total_ns"] += dur
            rec["self_ns"] += dur - child_ns[sid]
            rec["under_update"] += in_update[sid]
        layers = {}
        for name, rec in per_name.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0) + rec["self_ns"]
        top_ns = sum(end[s] - start[s] for s in range(n) if parent[s] < 0)
        return {"per_name": per_name, "layer_self_ns": layers, "top_level_ns": top_ns}

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        name_id, parent = self.name_id, self.parent
        return sum(1 for s in range(len(self.start))
                   if name_id[s] == cid and parent[s] >= 0 and name_id[parent[s]] == pid)

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name_id", "H"], ["start_ns", "q"], ["end_ns", "q"],
                             ["parent", "l"]]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(f)
