"""The logical network model and its canonical serializations.

A Network is an immutable value: named spaces holding participants and
message flows, plus cross-space participant links and flow links. The
JSON rendering is canonical (sorted keys, entities sorted by id, no
timestamps), so two equal networks always serialize to the same bytes
and the version id can simply be a digest of the content. It is written
by ``model.CANONICAL_JSON`` straight from the dataclasses below and read
back by ``model.canonical_decoder`` from their fields: each JSON
object's keys are the fields of its dataclass, so renaming a field
changes the format and every network version. GraphML and DOT exports
cover the graph-shaped subset for standard tooling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence
from xml.sax.saxutils import escape, quoteattr

from .model import CANONICAL_JSON, acyclic, canonical_bytes, canonical_decoder

BUILTIN_SPACES = ("business-process", "integration")


@dataclass(frozen=True)
class ComplexPropertyView:
    kind: str
    digest: str
    payload: Any = field(hash=False, default=None)


@dataclass(frozen=True)
class Participant:
    """One equivalence class of systems, built by ``merge_properties``
    for ``reconstruct``. ``complex_props`` are sorted by (kind, digest)
    and ``origins`` are sorted, as ``merge_properties`` builds them and
    as ``parse_network`` reads them; the export writes them as held."""

    id: str
    label: str
    space: str
    props: dict[str, str] = field(default_factory=dict)
    complex_props: tuple[ComplexPropertyView, ...] = ()
    origins: tuple[tuple[str, str], ...] = ()  # (source_id, object_id)


@dataclass(frozen=True)
class MessageFlow:
    """A flow within one space, built by ``reconstruct`` from the matched
    configuration pairs of one pair of classes and one interface.
    ``origins`` are sorted, as ``reconstruct`` builds them and as
    ``parse_network`` reads them."""

    id: str
    source: str
    target: str
    interface: str
    origins: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ParticipantLink:
    id: str
    left: str
    right: str
    kind: str


@dataclass(frozen=True)
class MessageFlowLink:
    id: str
    left_flow: str
    right_flow: str
    kind: str


@dataclass(frozen=True)
class NetworkSpace:
    name: str
    participants: tuple[Participant, ...] = ()
    flows: tuple[MessageFlow, ...] = ()


@dataclass(frozen=True)
class Network:
    version: str
    spaces: tuple[NetworkSpace, ...] = ()
    participant_links: tuple[ParticipantLink, ...] = ()
    flow_links: tuple[MessageFlowLink, ...] = ()

    def space(self, name: str) -> NetworkSpace | None:
        for s in self.spaces:
            if s.name == name:
                return s
        return None

    def participants(self) -> dict[str, Participant]:
        return {p.id: p for s in self.spaces for p in s.participants}

    def counts(self) -> dict[str, int]:
        return {
            "participants": sum(len(s.participants) for s in self.spaces),
            "flows": sum(len(s.flows) for s in self.spaces),
            "links": len(self.participant_links) + len(self.flow_links),
        }


def emit(recon) -> Network:
    """Assemble the client-facing network from a ``Reconstruction``: its
    participants, flows and links, already lifted and checked by
    ``reconstruct``, placed in their spaces. Built-in spaces are always
    present."""
    return build_fragment(
        recon.participants, recon.flows, recon.participant_links, recon.flow_links
    )


# ---------------------------------------------------------------------------
# Canonical JSON


def export_json(network: Network) -> bytes:
    """Canonical JSON bytes: equal networks export byte-identically."""
    return canonical_bytes(network)


@acyclic
def parse_network(data: bytes) -> Network:
    """Inverse of ``export_json``: ``parse_network(export_json(n)) == n``."""
    return canonical_decoder(Network)(json.loads(data.decode("utf-8")))


def build_fragment(
    participants: Iterable[Participant],
    flows: Iterable[MessageFlow],
    participant_links: Iterable[ParticipantLink],
    flow_links: Iterable[MessageFlowLink] = (),
) -> Network:
    """Assemble a valid Network from already-validated pieces (emit's
    output and traversal results); built-in spaces are always present."""
    by_space: dict[str, list[Participant]] = {name: [] for name in BUILTIN_SPACES}
    for p in participants:
        by_space.setdefault(p.space, []).append(p)
    flow_by_space: dict[str, list[MessageFlow]] = {}
    participant_space = {p.id: p.space for ps in by_space.values() for p in ps}
    for f in flows:
        flow_by_space.setdefault(participant_space[f.source], []).append(f)
    spaces = tuple(
        NetworkSpace(
            name,
            tuple(sorted(by_space.get(name, []), key=lambda p: p.id)),
            tuple(sorted(flow_by_space.get(name, []), key=lambda f: f.id)),
        )
        for name in sorted(set(by_space) | set(flow_by_space))
    )
    content = {
        "spaces": spaces,
        "participant_links": tuple(sorted(participant_links, key=lambda l: l.id)),
        "flow_links": tuple(sorted(flow_links, key=lambda l: l.id)),
    }
    # The version is the digest of the export without its version key.
    version = hashlib.sha256(CANONICAL_JSON.encode(content).encode("utf-8")).hexdigest()
    return Network(version[:16], **content)


# ---------------------------------------------------------------------------
# Graph exports


GRAPH_FORMATS = ("graphml", "dot")


def export_graph(
    network: Network, format: str, spaces: Sequence[str] | None = None
) -> bytes:
    """Render participants and flows (plus bridging participant links)
    of the selected spaces in GraphML or DOT."""
    if format not in GRAPH_FORMATS:
        raise ValueError(f"unknown graph format {format!r}")
    selected = set(spaces) if spaces else {s.name for s in network.spaces}
    participants = [
        p for s in network.spaces if s.name in selected for p in s.participants
    ]
    flows = [f for s in network.spaces if s.name in selected for f in s.flows]
    ids = {p.id for p in participants}
    links = [
        l
        for l in network.participant_links
        if l.left in ids and l.right in ids
    ]
    if format == "dot":
        return _render_dot(participants, flows, links)
    return _render_graphml(participants, flows, links)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_dot(participants, flows, links) -> bytes:
    lines = ["digraph network {"]
    for p in sorted(participants, key=lambda p: p.id):
        lines.append(f"  {_dot_quote(p.id)} [label={_dot_quote(p.label)}];")
    for f in sorted(flows, key=lambda f: f.id):
        lines.append(
            f"  {_dot_quote(f.source)} -> {_dot_quote(f.target)} "
            f"[label={_dot_quote(f.interface)}];"
        )
    for l in sorted(links, key=lambda l: l.id):
        lines.append(
            f"  {_dot_quote(l.left)} -> {_dot_quote(l.right)} "
            f"[label={_dot_quote(l.kind)}, style=dashed];"
        )
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_graphml(participants, flows, links) -> bytes:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d_label" for="node" attr.name="label" attr.type="string"/>',
        '  <key id="d_space" for="node" attr.name="space" attr.type="string"/>',
        '  <key id="d_edge_label" for="edge" attr.name="label" attr.type="string"/>',
        '  <key id="d_edge_kind" for="edge" attr.name="kind" attr.type="string"/>',
        '  <graph id="network" edgedefault="directed">',
    ]
    for p in sorted(participants, key=lambda p: p.id):
        out.append(f"    <node id={quoteattr(p.id)}>")
        out.append(f'      <data key="d_label">{escape(p.label)}</data>')
        out.append(f'      <data key="d_space">{escape(p.space)}</data>')
        out.append("    </node>")
    for f in sorted(flows, key=lambda f: f.id):
        out.append(
            f"    <edge id={quoteattr(f.id)} source={quoteattr(f.source)} "
            f"target={quoteattr(f.target)}>"
        )
        out.append(f'      <data key="d_edge_label">{escape(f.interface)}</data>')
        out.append('      <data key="d_edge_kind">flow</data>')
        out.append("    </edge>")
    for l in sorted(links, key=lambda l: l.id):
        out.append(
            f"    <edge id={quoteattr(l.id)} source={quoteattr(l.left)} "
            f"target={quoteattr(l.right)}>"
        )
        out.append(f'      <data key="d_edge_label">{escape(l.kind)}</data>')
        out.append(f'      <data key="d_edge_kind">link:{escape(l.kind)}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return ("\n".join(out) + "\n").encode("utf-8")
