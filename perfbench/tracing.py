"""In-memory span tracer that wraps netloom's public functions.

The tracer replaces functions at the places the pipeline looks them
up (module globals of the importing module, and methods on the
``Workspace`` and ``SnapshotWatcher`` classes), so the program itself
is not edited. Each call becomes a span (name, start, end, parent);
self time is a span's duration minus the time of the wrapped calls it
made. Counts are taken from arguments and return values after the
span has ended, and the time spent counting is kept out of every self
time. Only the traced run installs the wrappers; timed runs never
carry them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# (module the pipeline looks the name up in, attribute, span name)
FUNCTION_SITES = (
    ("netloom.workspace", "load_snapshot", "ingest.load_snapshot"),
    ("netloom.workspace", "commit", "ingest.commit"),
    ("netloom.workspace", "store_from_json", "model.store_from_json"),
    ("netloom.workspace", "store_to_json", "model.store_to_json"),
    ("netloom.workspace", "reconstruct", "reconstruct.reconstruct"),
    ("netloom.workspace", "emit", "network.emit"),
    ("netloom.workspace", "export_json", "network.export_json"),
    ("netloom.ingest", "check_batch", "conformance.check_batch"),
    ("netloom.ingest", "build_entities", "ingest.build_entities"),
    # ``import netloom.reconstruct`` would give the re-exported function;
    # importlib returns the submodule itself.
    ("netloom.reconstruct", "to_facts", "model.to_facts"),
    ("netloom.reconstruct", "evaluate", "datalog.evaluate"),
    # What the one-shot CLI queries and exports call.
    ("netloom.network", "parse_network", "network.parse_network"),
    ("netloom.network", "export_graph", "network.export_graph"),
    ("netloom.query", "build_index", "query.build_index"),
    ("netloom.query", "search", "query.search"),
    ("netloom.query", "traverse", "query.traverse"),
)

METHOD_SITES = (
    ("netloom.workspace", "Workspace", "ingest", "workspace.ingest"),
    ("netloom.workspace", "Workspace", "infer", "workspace.infer"),
    ("netloom.workspace", "Workspace", "publish_network", "workspace.publish_network"),
    ("netloom.workspace", "Workspace", "load_store", "workspace.load_store"),
    ("netloom.workspace", "Workspace", "save_store", "workspace.save_store"),
    ("netloom.workspace", "SnapshotWatcher", "poll_once", "workspace.poll_once"),
)

EQUIV_PREDICATES = ("equiv_sys", "equiv_host")


def _size(value) -> int:
    """Number of facts in a fact collection, whether a flat set of
    atoms or a mapping of predicate to rows."""
    if isinstance(value, Mapping):
        return sum(len(rows) for rows in value.values())
    return len(value)


def _rows_by_predicate(facts) -> dict[str, list[tuple]]:
    if isinstance(facts, Mapping):
        return {pred: list(rows) for pred, rows in facts.items()}
    out: dict[str, list[tuple]] = {}
    for f in facts:
        out.setdefault(f.predicate, []).append(f.args)
    return out


def _count_load_snapshot(c, args, ret):
    c["ingest.records"] += len(ret.records)
    c["workspace.snapshot_bytes"] += os.path.getsize(args[0])


def _count_check_batch(c, args, ret):
    c["conformance.records_checked"] += len(args[1])
    c["conformance.findings"] += len(ret.findings)


def _count_evaluate(c, args, ret):
    for pred, rows in _rows_by_predicate(ret).items():
        c[f"datalog.derived.{pred}"] += len(rows)
        if pred in EQUIV_PREDICATES:
            c["reconstruct.equiv_pairs"] += sum(1 for row in rows if row[0] != row[1])


def _count_reconstruct(c, args, ret):
    for classes in (ret.classes.systems, ret.classes.hosts):
        for members in classes.values():
            if len(members) > 1:
                c["reconstruct.classes_nontrivial"] += 1
                c["reconstruct.unions"] += len(members) - 1


def _count_to_facts(c, args, ret):
    c["model.facts"] += _size(ret)


def _count_store_to_json(c, args, ret):
    # save_store writes exactly these bytes to store.json.
    c["workspace.store_bytes_written"] += len(ret)


def _count_export_json(c, args, ret):
    c["network.export_bytes"] += len(ret)


def _count_search(c, args, ret):
    c["query.hits"] += len(ret)


def _count_traverse(c, args, ret):
    c["query.hits"] += sum(len(s.participants) for s in ret.spaces)


COUNTERS = {
    "ingest.load_snapshot": _count_load_snapshot,
    "conformance.check_batch": _count_check_batch,
    "model.to_facts": _count_to_facts,
    "model.store_to_json": _count_store_to_json,
    "datalog.evaluate": _count_evaluate,
    "reconstruct.reconstruct": _count_reconstruct,
    "network.export_json": _count_export_json,
    "query.search": _count_search,
    "query.traverse": _count_traverse,
}


@dataclass
class _Open:
    index: int
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)  # name, start, end, parent
    stats: dict[str, list[float]] = field(default_factory=dict)  # name -> [calls, s, self_s]
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    _stack: list[_Open] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        """Record one span; usable around the benchmark's own steps."""
        parent = self._stack[-1].index if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = _Open(index, time.perf_counter())
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, frame.start, end, parent)
            duration = end - frame.start
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child_s
            if self._stack:
                self._stack[-1].child_s += duration

    def _count(self, name, args, ret) -> None:
        counter = COUNTERS.get(name)
        if counter is None:
            return
        started = time.perf_counter()
        counter(self.counts, args, ret)
        if self._stack:
            # Counting is the tracer's work, not the caller's.
            self._stack[-1].child_s += time.perf_counter() - started

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                ret = fn(*args, **kwargs)
            self._count(name, args, ret)
            return ret

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in FUNCTION_SITES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            for module_name, cls_name, attr, name in METHOD_SITES:
                cls = getattr(importlib.import_module(module_name), cls_name)
                saved.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self.wrap(cls.__dict__[attr], name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def time_under(self, names: tuple[str, ...], ancestor: str) -> float:
        """Total duration of spans named in ``names`` that ran inside a
        span named ``ancestor``."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def write(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
