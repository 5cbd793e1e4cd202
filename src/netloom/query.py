"""Query, traversal, and full-text search over a published network.

An index holds what traversal reads: participants by id and adjacency
over flows and participant links. It is built per network version and
immutable afterwards. Search keeps no token index: a one-shot query
asks one question, so it scans the participants once per call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .network import Network, build_fragment

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass(frozen=True)
class NetworkIndex:
    network: Network
    by_id: dict = field(default_factory=dict)
    flow_adjacency: dict = field(default_factory=dict)  # id -> set of neighbor ids
    link_adjacency: dict = field(default_factory=dict)


def build_index(network: Network) -> NetworkIndex:
    by_id = {p.id: p for space in network.spaces for p in space.participants}
    flow_adjacency: dict[str, set[str]] = {pid: set() for pid in by_id}
    link_adjacency: dict[str, set[str]] = {pid: set() for pid in by_id}
    for space in network.spaces:
        for f in space.flows:
            flow_adjacency.setdefault(f.source, set()).add(f.target)
            flow_adjacency.setdefault(f.target, set()).add(f.source)
    for l in network.participant_links:
        link_adjacency.setdefault(l.left, set()).add(l.right)
        link_adjacency.setdefault(l.right, set()).add(l.left)

    return NetworkIndex(
        network=network,
        by_id=by_id,
        flow_adjacency=flow_adjacency,
        link_adjacency=link_adjacency,
    )


def search(index: NetworkIndex, query: str) -> list[str]:
    """Participants matching every query token, best label matches first.

    Ties rank by id; an empty query matches nothing. A token of a text
    is a substring of the lowered text, so a participant whose lowered
    label and simple properties miss some query token is rejected
    before anything of it is tokenised.
    """
    tokens = tokenize(query)
    if not tokens:
        return []
    hits = []
    for pid, p in index.by_id.items():
        props = p.props
        text = " ".join([p.label, *props, *props.values()]).lower()
        if not all(t in text for t in tokens):
            continue
        label_tokens = set(tokenize(p.label))
        bag = label_tokens.union(*map(tokenize, props), *map(tokenize, props.values()))
        if all(t in bag for t in tokens):
            hits.append((-sum(t in label_tokens for t in tokens), pid))
    hits.sort()
    return [pid for _, pid in hits]


def traverse(
    index: NetworkIndex,
    start: str,
    depth: int,
    follow_links: bool = False,
    spaces: list[str] | None = None,
) -> Network:
    """Breadth-first closed neighborhood over flows (and participant
    links when follow_links), truncated at ``depth``, returned as a
    valid network fragment."""
    if start not in index.by_id:
        raise KeyError(f"unknown participant {start!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    allowed = set(spaces) if spaces else None

    def admitted(pid: str) -> bool:
        return allowed is None or index.by_id[pid].space in allowed

    selected = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for pid in frontier:
            neighbors = set(index.flow_adjacency.get(pid, ()))
            if follow_links:
                neighbors |= index.link_adjacency.get(pid, set())
            for n in neighbors:
                if n not in selected and admitted(n):
                    selected.add(n)
                    nxt.append(n)
        frontier = nxt
        if not frontier:
            break

    participants = [index.by_id[pid] for pid in sorted(selected)]
    flows = [
        f
        for space in index.network.spaces
        for f in space.flows
        if f.source in selected and f.target in selected
    ]
    links = [
        l
        for l in index.network.participant_links
        if l.left in selected and l.right in selected
    ]
    return build_fragment(participants, flows, links)
