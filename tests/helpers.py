"""Shared helpers for building stores and workspaces in tests."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
from typing import Any, Callable, Iterable, Mapping

from netloom.conformance import default_schema_doc, parse_schema
from netloom.datalog import parse_program
from netloom.ingest import RawRecord, Snapshot, commit
from netloom.model import Origin, RawStore, store_to_json

CHECKER = parse_schema(default_schema_doc())

#: A user rule (the text of a ``rules.dl``) that merges every system of
#: a space into one participant.
MERGE_SPACE_RULES = (
    'equiv_sys(A, B) :- system(A, _, _), system(B, _, _), '
    'prop(A, "space", SP), prop(B, "space", SP).\n'
)


def snapshot_of(records: list[dict], src: str) -> Snapshot:
    out = []
    for i, r in enumerate(records):
        r = dict(r)
        kind = r.pop("kind", None)
        obj = str(r.get("id", f"anon{i}"))
        r["id"] = obj
        out.append(RawRecord(kind, r, Origin(src, obj, "test", 0)))
    return Snapshot(src, tuple(out))


def commit_records(store: RawStore, records: list[dict], src: str) -> RawStore:
    result = commit(snapshot_of(records, src), store, CHECKER)
    if not isinstance(result, RawStore):
        raise AssertionError(
            f"snapshot for {src} rejected: {[f.message for f in result.findings]}"
        )
    return result


def store_from_sources(
    source_records: dict[str, list[dict]], order: list[str] | None = None
) -> RawStore:
    store = RawStore.empty()
    for src in order or sorted(source_records):
        store = commit_records(store, source_records[src], src)
    return store


def content_digest(store: RawStore) -> str:
    """A digest of the store's entities, not of its version: stores with
    equal content have equal digests, whatever commits made them."""
    return hashlib.sha256(store_to_json(dataclasses.replace(store, version=0))).hexdigest()


def cyclic_garbage(step: Callable[[], Any]) -> tuple[Any, int]:
    """What ``step()`` returns, run with the cyclic garbage collector off,
    and the number of unreachable objects that a collection right after
    it finds: the garbage in reference cycles that the step left. A
    collection before the step clears what came earlier; the
    collector's state is restored after."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = step()
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    return result, garbage


def fact_base(*parts: str | Mapping[str, Iterable[tuple]]) -> dict[str, set[tuple]]:
    """The union of ``parts`` as a fact base (predicate -> set of rows),
    the shape ``to_facts`` returns and ``evaluate`` takes. A str part
    holds ground facts in rule syntax, such as ``"edge(a, b). edge(b, c)."``."""
    base: dict[str, set[tuple]] = {}
    for part in parts:
        if isinstance(part, str):
            rows = [(r.head.predicate, r.head.args) for r in parse_program(part).rules]
        else:
            rows = [(pred, row) for pred, part_rows in part.items() for row in part_rows]
        for pred, row in rows:
            base.setdefault(pred, set()).add(row)
    return base
