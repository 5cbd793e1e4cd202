import dataclasses
import hashlib
import io
import itertools
import json
import random
from xml.sax import saxutils

import networkx as nx
import pytest

from netloom import network as network_mod
from netloom.network import (
    BUILTIN_SPACES,
    MessageFlow,
    Participant,
    ParticipantLink,
    build_fragment,
    emit,
    export_graph,
    export_json,
    parse_network,
)
from netloom.model import ModelError, canonical_bytes
from netloom.query import build_index, traverse
from netloom.reconstruct import ReconstructionError, reconstruct
from netloom.workspace import SnapshotWatcher, Workspace

from generators import make_scenario
from helpers import store_from_sources
from oracles import parse_dot


def simple_store():
    records = [
        {"kind": "system", "id": "erp", "name": "ERP", "type": "application"},
        {"kind": "system", "id": "crm", "name": "CRM", "type": "application"},
        {
            "kind": "out_conf", "id": "oc", "owner_system_id": "erp",
            "interface_name": "orders", "receiver_address": "http://x/orders",
        },
        {
            "kind": "in_conf", "id": "ic", "owner_system_id": "crm",
            "interface_name": "orders", "endpoint_address": "http://x/orders",
        },
    ]
    return store_from_sources({"srca": records})


class TestEmit:
    def test_single_system_builtin_spaces(self):
        store = store_from_sources(
            {"srca": [{"kind": "system", "id": "s", "name": "X", "type": "application"}]}
        )
        network = emit(reconstruct(store))
        assert tuple(s.name for s in network.spaces) == BUILTIN_SPACES
        assert network.counts() == {"participants": 1, "flows": 0, "links": 0}

    def test_emit_is_deterministic(self):
        recon = reconstruct(simple_store())
        assert emit(recon) == emit(recon)

    def test_participant_count_matches_manifest(self):
        rng = random.Random(55)
        scenario = make_scenario(rng, n_systems=20, n_flows=25, n_sources=3)
        store = store_from_sources(scenario.source_records)
        network = emit(reconstruct(store))
        assert network.counts()["participants"] == len(scenario.canonical_ids)
        assert network.counts()["flows"] == len(scenario.true_edges)

    def test_business_participants_in_their_space(self):
        records = [
            {"kind": "system", "id": "erp", "name": "ERP", "type": "application"},
            {"kind": "system", "id": "o2c", "name": "Order to Cash",
             "type": "process", "space": "business-process"},
        ]
        network = emit(reconstruct(store_from_sources({"srca": records})))
        bp = network.space("business-process")
        assert [p.label for p in bp.participants] == ["Order to Cash"]
        integration = network.space("integration")
        assert [p.label for p in integration.participants] == ["ERP"]

    def test_referential_closure(self):
        rng = random.Random(56)
        scenario = make_scenario(rng, n_systems=10, n_flows=15, n_sources=2)
        network = emit(reconstruct(store_from_sources(scenario.source_records)))
        ids = set(network.participants())
        for s in network.spaces:
            for f in s.flows:
                assert f.source in ids and f.target in ids
        for l in network.participant_links:
            assert l.left in ids and l.right in ids

    def test_space_by_name(self):
        network = emit(reconstruct(simple_store()))
        assert network.space("integration") is network.spaces[1]
        assert network.space("nowhere") is None

    def test_every_participant_in_exactly_one_space(self):
        rng = random.Random(57)
        scenario = make_scenario(rng, n_systems=12, n_flows=10, n_sources=3)
        network = emit(reconstruct(store_from_sources(scenario.source_records)))
        seen = []
        for s in network.spaces:
            seen.extend(p.id for p in s.participants)
        assert len(seen) == len(set(seen))


class TestExportJson:
    def test_empty_network_stable_skeleton(self):
        from netloom.model import RawStore

        network = emit(reconstruct(RawStore.empty()))
        data = export_json(network)
        assert data == export_json(emit(reconstruct(RawStore.empty())))
        doc = __import__("json").loads(data)
        assert [s["name"] for s in doc["spaces"]] == list(BUILTIN_SPACES)
        assert doc["participant_links"] == []
        assert doc["flow_links"] == []

    @pytest.mark.parametrize(
        "data, message",
        [(b"[]", "a network must be a JSON object, not list"),
         (b'{"version": "0123456789abcdef", "spaces": 5}', "not a network: 'int' object is not iterable"),
         (b'{"version": "0123456789abcdef"}', "not a network: missing key 'spaces'")],
        ids=["list", "spaces-int", "no-spaces"],
    )
    def test_parse_of_a_document_that_is_not_a_network(self, data, message):
        with pytest.raises(ModelError, match=message):
            parse_network(data)

    def test_export_parse_export_is_byte_identity(self):
        network = emit(reconstruct(simple_store()))
        data = export_json(network)
        assert export_json(parse_network(data)) == data

    def test_network_equality_iff_byte_equality(self):
        rng = random.Random(58)
        scenario = make_scenario(rng, n_systems=8, n_flows=8, n_sources=2)
        store = store_from_sources(scenario.source_records)
        n1 = emit(reconstruct(store))
        n2 = emit(reconstruct(store))
        assert n1 == n2
        assert export_json(n1) == export_json(n2)
        other = emit(reconstruct(simple_store()))
        assert export_json(other) != export_json(n1)

    def test_permuted_ingestion_byte_equal(self):
        rng = random.Random(59)
        scenario = make_scenario(rng, n_systems=8, n_flows=10, n_sources=3)
        sources = sorted(scenario.source_records)
        exports = set()
        for order in itertools.permutations(sources):
            store = store_from_sources(scenario.source_records, list(order))
            exports.add(export_json(emit(reconstruct(store))))
        assert len(exports) == 1


def oracle_version(data: bytes) -> str:
    """The version an export must carry, computed with nothing but the
    json module: the SHA-256 of the export without its version key."""
    doc = json.loads(data)
    del doc["version"]
    content = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(content.encode("utf-8")).hexdigest()[:16]


def unusual_store():
    """Flows, cross-space links and labels that JSON must escape."""
    records = [
        {"kind": "system", "id": "erp", "name": 'Zähler "ERP" \\ 東京', "type": "application"},
        {"kind": "system", "id": "proc", "name": "Order to Cash",
         "type": "process", "space": "business-process"},
        {"kind": "correlation", "id": "c1", "left_space": "business-process",
         "left_id": "extra/proc", "right_space": "integration", "right_id": "extra/erp",
         "link_kind": "realized-by"},
    ]
    rng = random.Random(61)
    scenario = make_scenario(rng, n_systems=10, n_flows=14, n_sources=2)
    return store_from_sources({"extra": records, **scenario.source_records})


class TestEncodeOnce:
    """``export_json`` appends the version to the bytes that the version
    digests, and must give the bytes of a full canonical encode."""

    def assert_canonical(self, network, versioned=True):
        data = export_json(network)
        assert data == canonical_bytes(network)
        if versioned:
            assert network.version == oracle_version(data)

    def test_emitted_network(self):
        network = emit(reconstruct(unusual_store()))
        assert network.participant_links and any(s.flows for s in network.spaces)
        self.assert_canonical(network)

    def test_traversal_fragment(self):
        network = emit(reconstruct(unusual_store()))
        index = build_index(network)
        for start in sorted(network.participants()):
            self.assert_canonical(traverse(index, start, 2, follow_links=True, spaces=None))

    def test_parsed_network(self):
        network = parse_network(export_json(emit(reconstruct(unusual_store()))))
        self.assert_canonical(network)

    def test_replaced_network(self):
        network = emit(reconstruct(unusual_store()))
        self.assert_canonical(dataclasses.replace(network))
        changed = dataclasses.replace(network, version="x", participant_links=())
        self.assert_canonical(changed, versioned=False)
        assert export_json(changed) != export_json(network)

    def test_export_of_an_emitted_network_encodes_nothing_again(self, monkeypatch):
        network = emit(reconstruct(unusual_store()))

        def encode(*args):
            raise AssertionError("encoded twice")

        monkeypatch.setattr(network_mod, "_encode_content", encode)
        assert export_json(network) == canonical_bytes(network)

    def test_file_that_a_committing_poll_publishes(self, tmp_path):
        ws = Workspace.init(tmp_path / "ws")
        config = tmp_path / "srca.json"
        config.write_text(json.dumps({"source_id": "srca", "source_type": "t"}))
        ws.register_source(config)
        (tmp_path / "drop").mkdir()
        records = [{"kind": "system", "id": "s", "name": "Zähler", "type": "application"}]
        (tmp_path / "drop" / "srca__1.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert SnapshotWatcher(ws, tmp_path / "drop").poll_once() == [("srca__1.jsonl", "committed")]
        data = ws.latest_network_bytes()
        assert data == canonical_bytes(parse_network(data))
        assert (ws.networks_dir / "LATEST").read_text() == oracle_version(data)


class TestExportGraph:
    def test_dot_statement_counts(self):
        network = emit(reconstruct(simple_store()))
        dot = export_graph(network, "dot").decode()
        node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == 2
        assert len(edge_lines) == 1

    def test_space_filter_excludes_business(self):
        records = [
            {"kind": "system", "id": "erp", "name": "ERP", "type": "application"},
            {"kind": "system", "id": "o2c", "name": "O2C",
             "type": "process", "space": "business-process"},
        ]
        network = emit(reconstruct(store_from_sources({"srca": records})))
        dot = export_graph(network, "dot", spaces=["integration"]).decode()
        assert "ERP" in dot
        assert "O2C" not in dot

    def test_graphml_parses_with_standard_consumer(self):
        rng = random.Random(60)
        scenario = make_scenario(rng, n_systems=10, n_flows=12, n_sources=2)
        network = emit(reconstruct(store_from_sources(scenario.source_records)))
        data = export_graph(network, "graphml")
        g = nx.read_graphml(io.BytesIO(data))
        assert g.number_of_nodes() == network.counts()["participants"]

    def test_edge_count_matches_flow_plus_link_count(self):
        records = [
            {"kind": "system", "id": "erp", "name": "Order Engine", "type": "application"},
            {"kind": "system", "id": "bp", "name": "Order Engine",
             "type": "process", "space": "business-process"},
            {
                "kind": "out_conf", "id": "oc", "owner_system_id": "erp",
                "interface_name": "x", "receiver_address": "http://a/b",
            },
            {
                "kind": "in_conf", "id": "ic", "owner_system_id": "erp",
                "interface_name": "x", "endpoint_address": "http://a/b",
            },
        ]
        network = emit(reconstruct(store_from_sources({"srca": records})))
        counts = network.counts()
        data = export_graph(network, "graphml")
        g = nx.read_graphml(io.BytesIO(data))
        assert g.number_of_edges() == counts["flows"] + counts["links"]

    def test_dot_escaping(self):
        records = [
            {"kind": "system", "id": "s", "name": 'Weird "Name"\\x', "type": "application"},
        ]
        network = emit(reconstruct(store_from_sources({"srca": records})))
        dot = export_graph(network, "dot").decode()
        assert '\\"Name\\"' in dot
        nodes, _ = parse_dot(dot)
        assert nodes == {"srca/s"}

    def test_markup_characters_keep_their_bytes_in_both_formats(self, monkeypatch):
        # Each of <, >, &; " alone, ' alone and both; newline, carriage
        # return and tab, in ids, labels, a space, an interface, a link kind.
        a, b, c = 'p<1>&"', "p'2'", "p\"3\"'"
        network = build_fragment(
            [
                Participant(a, 'A <b> & "c"', "integration"),
                Participant(b, "it's\tfine", "sp<&>'\""),
                Participant(c, "line\nbreak\rcr", "integration"),
            ],
            [MessageFlow('f"1"\t\n\r', a, c, "if <x> & \"y\" 'z'\n\t\r")],
            [ParticipantLink("l'1'", a, b, 'same "as" <&>\n')],
        )
        dot, graphml = export_graph(network, "dot"), export_graph(network, "graphml")
        assert hashlib.sha256(dot).hexdigest() == (
            "ece6599225d87e323e5b0a2119041921111866d799aac4a0570490603928b886"
        )
        assert hashlib.sha256(graphml).hexdigest() == (
            "509b9375d1b3663e004fe777de86ec8070b6da1c2a43d9b849d4d219a751c03d"
        )
        # The standard library's escapes write the same GraphML bytes, a
        # carriage return in character data as a character reference.
        monkeypatch.setattr(network_mod, "_escape", lambda text: saxutils.escape(text, {"\r": "&#13;"}))
        monkeypatch.setattr(network_mod, "_quoteattr", saxutils.quoteattr)
        assert export_graph(network, "graphml") == graphml
        g = nx.read_graphml(io.BytesIO(graphml))
        assert set(g.nodes) == {a, b, c}
        assert g.nodes[c]["label"] == "line\nbreak\rcr"
        edges = {d["id"]: d for _, _, d in g.edges(data=True)}
        assert set(edges) == {'f"1"\t\n\r', "l'1'"}
        assert edges['f"1"\t\n\r']["label"] == "if <x> & \"y\" 'z'\n\t\r"
        assert edges["l'1'"]["kind"] == 'link:same "as" <&>\n'

    def test_dot_parses_with_independent_reader(self):
        rng = random.Random(61)
        scenario = make_scenario(rng, n_systems=12, n_flows=15, n_sources=2)
        network = emit(reconstruct(store_from_sources(scenario.source_records)))
        nodes, edges = parse_dot(export_graph(network, "dot").decode())
        counts = network.counts()
        assert len(nodes) == counts["participants"]
        assert len(edges) == counts["flows"] + counts["links"]

    def test_unknown_format_rejected(self):
        network = emit(reconstruct(simple_store()))
        with pytest.raises(ValueError, match="unknown graph format"):
            export_graph(network, "svg")

    def test_flow_links_appear_in_json_export(self):
        from netloom.model import InterfaceRef
        from netloom.reconstruct import flow_id_for

        wire = flow_id_for("srca/a", "srca/b", InterfaceRef("wire"))
        doc = flow_id_for("srca/p", "srca/q", InterfaceRef("doc"))
        records = [
            {"kind": "system", "id": "a", "name": "App A", "type": "application"},
            {"kind": "system", "id": "b", "name": "App B", "type": "application"},
            {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
             "interface_name": "wire", "receiver_address": "http://1"},
            {"kind": "in_conf", "id": "i1", "owner_system_id": "b",
             "interface_name": "wire", "endpoint_address": "http://1"},
            {"kind": "system", "id": "p", "name": "Proc P", "type": "process",
             "space": "business-process"},
            {"kind": "system", "id": "q", "name": "Proc Q", "type": "process",
             "space": "business-process"},
            {"kind": "out_conf", "id": "o2", "owner_system_id": "p",
             "interface_name": "doc", "receiver_address": "doc://x"},
            {"kind": "in_conf", "id": "i2", "owner_system_id": "q",
             "interface_name": "doc", "endpoint_address": "doc://x"},
            {"kind": "correlation", "id": "c1",
             "left_space": "business-process", "left_id": doc,
             "right_space": "integration", "right_id": wire,
             "link_kind": "realized-by"},
        ]
        network = emit(reconstruct(store_from_sources({"srca": records})))
        assert len(network.flow_links) == 1
        link = network.flow_links[0]
        assert (link.left_flow, link.right_flow, link.kind) == (doc, wire, "realized-by")
        doc_json = json.loads(export_json(network))
        assert len(doc_json["flow_links"]) == 1
        # Round-trips through parse.
        assert parse_network(export_json(network)) == network

    def test_cross_space_flow_is_hard_failure(self):
        records = [
            {"kind": "system", "id": "a", "name": "App", "type": "application"},
            {"kind": "system", "id": "p", "name": "Proc", "type": "process",
             "space": "business-process"},
            {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
             "interface_name": "x", "receiver_address": "http://1"},
            {"kind": "in_conf", "id": "i1", "owner_system_id": "p",
             "interface_name": "x", "endpoint_address": "http://1"},
        ]
        store = store_from_sources({"srca": records})
        with pytest.raises(ReconstructionError, match="'srca/a' -> 'srca/p' crosses spaces"):
            reconstruct(store)

    def test_participant_links_render_dashed(self):
        records = [
            {"kind": "system", "id": "erp", "name": "Order Engine", "type": "application"},
            {"kind": "system", "id": "bp", "name": "Order Engine",
             "type": "process", "space": "business-process"},
        ]
        network = emit(reconstruct(store_from_sources({"srca": records})))
        dot = export_graph(network, "dot").decode()
        assert "style=dashed" in dot
