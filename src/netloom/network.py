"""The logical network model and its canonical serializations.

A Network is an immutable value: named spaces holding participants and
message flows, plus cross-space participant links and flow links. The
JSON rendering is canonical (sorted keys, entities sorted by id, no
timestamps), so two equal networks always serialize to the same bytes
and the version id can simply be a digest of the content. It is written
by ``model.CANONICAL_JSON`` straight from the dataclasses below and read
back by ``model.canonical_decoder`` from their fields: each JSON
object's keys are the fields of its dataclass, so renaming a field
changes the format and every network version. A network is encoded
once: ``build_fragment`` digests the encoded content for the version
and keeps those bytes on the network, and ``export_json`` appends the
version key, which sorts last, to them. GraphML and DOT exports cover
the graph-shaped subset for standard tooling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Sequence

from .model import CANONICAL_JSON, ModelError, acyclic, canonical_decoder

BUILTIN_SPACES = ("business-process", "integration")


@dataclass(frozen=True, slots=True)
class ComplexPropertyView:
    kind: str
    digest: str
    payload: Any = field(hash=False, default=None)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ParticipantLink:
    id: str
    left: str
    right: str
    kind: str


@dataclass(frozen=True, slots=True)
class MessageFlowLink:
    id: str
    left_flow: str
    right_flow: str
    kind: str


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def _content_json(self) -> bytes:
        """The canonical JSON of the network without its version key,
        which ``build_fragment`` fills with the bytes it digested; any
        other network (parsed, or made by ``dataclasses.replace``)
        encodes them on first read."""
        return _encode_content(self.spaces, self.participant_links, self.flow_links)


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
    """Canonical JSON bytes: equal networks export byte-identically.
    The ``version`` key sorts after every other, so the export is the
    content's JSON with ``,"version":...}`` and a newline in place of
    its closing brace, joined in one copy."""
    tail = f',"version":{CANONICAL_JSON.encode(network.version)}}}\n'.encode("utf-8")
    return b"".join((memoryview(network._content_json)[:-1], tail))


def _encode_content(spaces, participant_links, flow_links) -> bytes:
    content = {"spaces": spaces, "participant_links": participant_links, "flow_links": flow_links}
    return CANONICAL_JSON.encode(content).encode("utf-8")


@acyclic
def parse_network(data: bytes) -> Network:
    """Inverse of ``export_json``: ``parse_network(export_json(n)) == n``.
    Raises ModelError for a JSON document that is not a network."""
    doc = json.loads(data.decode("utf-8"))
    if type(doc) is not dict:
        raise ModelError(f"a network must be a JSON object, not {type(doc).__name__}")
    try:
        return canonical_decoder(Network)(doc)
    except (KeyError, TypeError) as exc:  # a missing key, or a part of another JSON type
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ModelError(f"not a network: {detail}") from exc


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
    participant_links = tuple(sorted(participant_links, key=lambda l: l.id))
    flow_links = tuple(sorted(flow_links, key=lambda l: l.id))
    # The version is the digest of the export without its version key;
    # the network keeps those bytes, so that its export encodes nothing.
    blob = _encode_content(spaces, participant_links, flow_links)
    network = Network(hashlib.sha256(blob).hexdigest()[:16], spaces, participant_links, flow_links)
    network.__dict__["_content_json"] = blob
    return network


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


def _escape(text: str) -> str:
    """``text`` as XML character data, byte for byte as
    ``xml.sax.saxutils.escape`` writes it with a carriage return mapped
    to ``&#13;``, without importing it (its package pulls in
    ``http.client``). An XML reader turns a raw carriage return into a
    newline, so it is written as a character reference."""
    return (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\r", "&#13;"))


def _quoteattr(text: str) -> str:
    """``text`` as a quoted XML attribute value, byte for byte as
    ``xml.sax.saxutils.quoteattr`` writes it: newline, carriage return
    and tab as character references, in double quotes unless it holds
    ``"`` and no ``'``, and with ``&quot;`` if it holds both."""
    text = _escape(text).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


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
        out.append(f"    <node id={_quoteattr(p.id)}>")
        out.append(f'      <data key="d_label">{_escape(p.label)}</data>')
        out.append(f'      <data key="d_space">{_escape(p.space)}</data>')
        out.append("    </node>")
    for f in sorted(flows, key=lambda f: f.id):
        out.append(
            f"    <edge id={_quoteattr(f.id)} source={_quoteattr(f.source)} "
            f"target={_quoteattr(f.target)}>"
        )
        out.append(f'      <data key="d_edge_label">{_escape(f.interface)}</data>')
        out.append('      <data key="d_edge_kind">flow</data>')
        out.append("    </edge>")
    for l in sorted(links, key=lambda l: l.id):
        out.append(
            f"    <edge id={_quoteattr(l.id)} source={_quoteattr(l.left)} "
            f"target={_quoteattr(l.right)}>"
        )
        out.append(f'      <data key="d_edge_label">{_escape(l.kind)}</data>')
        out.append(f'      <data key="d_edge_kind">link:{_escape(l.kind)}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return ("\n".join(out) + "\n").encode("utf-8")
