"""Query, traversal, and full-text search over a published network.

An index holds the network and its participants by id, and nothing a
query may not read: a one-shot query asks one question. Search scans
the participants once per call, and traversal builds the adjacency it
walks, over flows and, when it follows links, participant links.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .network import Network, Participant, build_fragment

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass(frozen=True)
class NetworkIndex:
    network: Network
    by_id: dict[str, Participant]


def build_index(network: Network) -> NetworkIndex:
    return NetworkIndex(network, network.participants())


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

    edges = [(f.source, f.target) for space in index.network.spaces for f in space.flows]
    if follow_links:
        edges += [(l.left, l.right) for l in index.network.participant_links]
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    selected = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for pid in frontier:
            for n in adjacency.get(pid, ()):
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
