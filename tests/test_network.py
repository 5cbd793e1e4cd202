import io
import itertools
import json
import random

import networkx as nx
import pytest

from netloom.network import (
    BUILTIN_SPACES,
    emit,
    export_graph,
    export_json,
    parse_network,
)
from netloom.reconstruct import ReconstructionError, reconstruct

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
