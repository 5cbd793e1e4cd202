"""Independent reference implementations used to check the engine.

Everything in here is deliberately written without reusing the package
internals: brute-force closures, matrix reachability, linear scans.
"""

from __future__ import annotations

from collections import deque


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
