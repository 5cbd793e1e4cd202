"""Independent reference implementations used to check the engine.

Everything in here is deliberately written without reusing the package
internals: brute-force closures, matrix reachability, linear scans.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping


def reachability_closure(nodes: list, edges: set[tuple]) -> set[tuple]:
    """All-pairs reachability by matrix closure (Floyd-Warshall style)."""
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]}


def sym_trans_closure(pairs: set[tuple]) -> set[tuple]:
    """Symmetric-transitive closure: all ordered pairs (self included)
    within each connected component that carries at least one edge;
    isolated elements contribute nothing."""
    adjacency: dict = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    closure: set[tuple] = set()
    visited: set = set()
    for start in adjacency:
        if start in visited:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in component:
                    component.add(nxt)
                    queue.append(nxt)
        visited |= component
        if len(component) > 1 or any((m, m) in pairs for m in component):
            for a in component:
                for b in component:
                    closure.add((a, b))
    return closure


def union_find_classes(members, pairs: set[tuple]) -> dict:
    """Partition ``members`` by union-find over ``pairs``: each class
    keyed by its smallest member, holding its members sorted."""
    parent = {m: m for m in members}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict = {}
    for m in parent:
        groups.setdefault(find(m), []).append(m)
    return {min(ms): tuple(sorted(ms)) for ms in groups.values()}


def parse_dot(text: str) -> tuple[set, list]:
    """Minimal independent DOT reader: validates the digraph shape and
    returns (node ids, edge pairs). Raises ValueError on malformed
    statements, unbalanced quotes, or anything outside the subset
    ``digraph name { "id" [attrs]; "a" -> "b" [attrs]; }``."""
    import re

    lines = [l.strip() for l in text.strip().splitlines()]
    if not lines or not re.fullmatch(r"digraph\s+\w+\s*\{", lines[0]):
        raise ValueError("missing digraph header")
    if lines[-1] != "}":
        raise ValueError("missing closing brace")
    quoted = r'"(?:[^"\\]|\\.)*"'
    node_re = re.compile(rf"({quoted})\s*\[[^\]]*\];")
    edge_re = re.compile(rf"({quoted})\s*->\s*({quoted})\s*\[[^\]]*\];")

    def unquote(q: str) -> str:
        return q[1:-1].replace('\\"', '"').replace("\\\\", "\\")

    nodes, edges = set(), []
    for line in lines[1:-1]:
        if not line:
            continue
        m = edge_re.fullmatch(line)
        if m:
            edges.append((unquote(m.group(1)), unquote(m.group(2))))
            continue
        m = node_re.fullmatch(line)
        if m:
            nodes.add(unquote(m.group(1)))
            continue
        raise ValueError(f"unparseable DOT statement: {line!r}")
    for a, b in edges:
        if a not in nodes or b not in nodes:
            raise ValueError(f"edge references undeclared node: {a!r} -> {b!r}")
    return nodes, edges


def bfs_nodes(start, adjacency: dict, depth: int) -> set:
    """Closed neighborhood of ``start`` up to ``depth`` hops."""
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
        if not frontier:
            break
    return seen


def conformance_findings(
    schema_doc: dict, records: list[tuple], existing_ids: dict[str, set[str]]
) -> list[tuple[str, str, str, str]]:
    """Reference conformance check: the findings, as ``(code, kind,
    field, message)``, for ``records`` given as ``(kind, fields,
    source_id, object_id)`` against a schema document of the README's
    shape and the engine ids already stored per kind.

    Each record's keys are sorted and merged against the kind's field
    specs sorted by name: a spec passed over, or matched by a null
    value, is a missing field if required; a matched value is type
    checked; an unknown key is skipped. Object ids, key and unique
    combinations and refs are then checked as the README describes.
    """
    kinds = {}
    for kind, kdoc in schema_doc["kinds"].items():
        specs = []
        for name, fdoc in kdoc.get("fields", {}).items():
            type_text = fdoc.get("type", "string")
            enum_values = ()
            if type_text.startswith("enum(") and type_text.endswith(")"):
                enum_values = tuple(v.strip() for v in type_text[5:-1].split(",") if v.strip())
                type_text = "enum"
            specs.append(
                (name, type_text, enum_values, fdoc.get("required", False), fdoc.get("key", False))
            )
        specs.sort(key=lambda spec: spec[0])
        keys = tuple(sorted(spec[0] for spec in specs if spec[4]))
        combos = [("key", keys)] if keys else []
        combos += [("unique", tuple(u)) for u in kdoc.get("unique", [])]
        kinds[kind] = (specs, combos, list(kdoc.get("refs", {}).items()))

    def type_error(type_text, enum_values, strict, value):
        got = type(value).__name__
        if type_text == "string":
            if not isinstance(value, str):
                return "TYPE_MISMATCH", f"expected string, got {got}"
            if strict and all(c.isspace() for c in value):
                return "TYPE_MISMATCH", "required string must be non-empty"
        elif type_text == "integer":
            if type(value) is bool or not isinstance(value, int):
                return "TYPE_MISMATCH", f"expected integer, got {got}"
        elif type_text == "enum":
            if not isinstance(value, str):
                return "TYPE_MISMATCH", f"expected string enum, got {got}"
            if value not in enum_values:
                return "ENUM_VIOLATION", f"value {value!r} not in {{{', '.join(enum_values)}}}"
        elif type_text == "mapping":
            if not isinstance(value, Mapping):
                return "TYPE_MISMATCH", f"expected mapping, got {got}"
        elif type_text == "list":
            if not isinstance(value, (list, tuple)):
                return "TYPE_MISMATCH", f"expected list, got {got}"
        return None

    pools = {kind: set(ids) for kind, ids in existing_ids.items()}
    for kind, _, source_id, object_id in records:
        if isinstance(kind, str):
            pools.setdefault(kind, set()).add(f"{source_id}/{object_id}")

    out = []
    seen_object_ids = {}
    seen_combos = set()
    for kind, fields, source_id, object_id in records:
        if not isinstance(fields, Mapping) or not all(isinstance(k, str) for k in fields):
            out.append(("MALFORMED_RECORD", str(kind), "", "record fields must be a string-keyed mapping"))
            continue
        if not isinstance(kind, str) or kind == "":
            out.append(("MALFORMED_RECORD", "", "kind", "record has no kind"))
            continue
        if kind not in kinds:
            out.append(("UNKNOWN_KIND", kind, "kind", f"unknown record kind {kind!r}"))
            continue
        specs, combos, refs = kinds[kind]

        def missing(spec):
            if spec[3]:
                out.append(("MISSING_FIELD", kind, spec[0], "required field missing"))

        i = 0
        for name in sorted(fields):
            while i < len(specs) and specs[i][0] < name:
                missing(specs[i])
                i += 1
            if i < len(specs) and specs[i][0] == name:
                _, type_text, enum_values, required, key = spec = specs[i]
                i += 1
                if fields[name] is None:
                    missing(spec)
                    continue
                error = type_error(type_text, enum_values, required or key, fields[name])
                if error is not None:
                    out.append((error[0], kind, name, error[1]))
        for spec in specs[i:]:
            missing(spec)

        if object_id in seen_object_ids:
            message = (f"object id {object_id!r} already used by a "
                       f"{seen_object_ids[object_id]} record in this batch")
            out.append(("DUPLICATE_KEY", kind, "id", message))
            continue
        seen_object_ids[object_id] = kind

        for label, combo in combos:
            values = tuple(fields.get(f) for f in combo)
            if any(v is None for v in values):
                continue
            seen = (kind, label, combo, tuple(repr(v) for v in values))
            if seen in seen_combos:
                out.append(("DUPLICATE_KEY", kind, ",".join(combo),
                            f"duplicate {label} {values!r} within batch"))
            seen_combos.add(seen)

        for field, target in refs:
            value = fields.get(field)
            if not isinstance(value, str) or all(c.isspace() for c in value):
                continue
            qualified = "/" in value or value.startswith("flow:")
            engine_id = value if qualified else f"{source_id}/{value}"
            if engine_id not in pools.get(target, set()):
                out.append(("DANGLING_REF", kind, field,
                            f"{field}={value!r} does not resolve to a {target}"))
    return out
