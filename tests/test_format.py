"""Golden bytes of the on-disk formats.

``store.json`` and the network export are written straight from the
entity dataclasses, so renaming a field, or reordering what the writers
rely on being sorted, silently changes every store and every network
version. These digests pin both formats on one fixed input; change them
only together with a deliberate format change.
"""

import hashlib
import json

import pytest

from netloom.model import CANONICAL_JSON, InterfaceRef, Origin, store_from_json, store_to_json
from netloom.network import emit, export_json, parse_network
from netloom.reconstruct import flow_id_for, reconstruct

from helpers import store_from_sources

ORDERS_FLOW = flow_id_for("srca/erp", "srca/crm", InterfaceRef("orders", "urn:shop", "create"))
DOC_FLOW = flow_id_for("srca/plan", "srca/ship", InterfaceRef("doc"))

# Every record kind over two sources: the two ERP systems merge, each
# with a complex property; a host carries a nested extra; one correlation
# links participants across spaces and one links flows.
SOURCES = {
    "srca": [
        {"kind": "system", "id": "erp", "name": "ERP", "type": "application",
         "owner": "ops", "deploy": {"tiers": [2, 1], "region": "eu"}},
        {"kind": "system", "id": "crm", "name": "CRM", "type": "application"},
        {"kind": "system", "id": "plan", "name": "Plan Order", "type": "process",
         "space": "business-process"},
        {"kind": "system", "id": "ship", "name": "Ship Order", "type": "process",
         "space": "business-process"},
        {"kind": "host", "id": "h1", "hostname": "ERP-Host.example.net",
         "hw": {"disks": ["b", "a"], "cpu": 8}},
        {"kind": "runs_on", "id": "r1", "system_id": "erp", "host_id": "h1"},
        {"kind": "out_conf", "id": "oc1", "owner_system_id": "erp",
         "interface_name": "orders", "interface_namespace": "urn:shop",
         "operation": "create", "receiver_address": "http://x/orders", "adapter": "soap"},
        {"kind": "in_conf", "id": "ic1", "owner_system_id": "crm",
         "interface_name": "orders", "interface_namespace": "urn:shop",
         "operation": "create", "endpoint_address": "HTTP://X:80/orders/"},
        {"kind": "out_conf", "id": "oc2", "owner_system_id": "plan",
         "interface_name": "doc", "receiver_address": "doc://x"},
        {"kind": "in_conf", "id": "ic2", "owner_system_id": "ship",
         "interface_name": "doc", "endpoint_address": "doc://x"},
    ],
    "srcb": [
        {"kind": "system", "id": "erp2", "name": " erp ", "type": "application",
         "owner": "dev", "deploy": {"region": "us"}},
        {"kind": "host", "id": "h2", "hostname": "erp-host.example.net"},
        {"kind": "runs_on", "id": "r2", "system_id": "erp2", "host_id": "h2"},
        {"kind": "correlation", "id": "c1", "left_space": "business-process",
         "left_id": "srca/plan", "right_space": "integration", "right_id": "srca/erp",
         "link_kind": "implemented-by"},
        {"kind": "correlation", "id": "c2", "left_space": "business-process",
         "left_id": DOC_FLOW, "right_space": "integration", "right_id": ORDERS_FLOW,
         "link_kind": "realized-by"},
    ],
}

STORE_SHA256 = "3e5004e583e1eeb8bb5711911bc80b580895983d7a06f4f69668010df7bcf93f"
EXPORT_SHA256 = "5b0daec92c646dc6edcea552008d0bb0ac5971920ea19b65ab136b6a8983acdb"
VERSION = "74b871473c396b1d"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_fixture_covers_every_part_of_the_formats():
    store = store_from_sources(SOURCES)
    network = emit(reconstruct(store))
    assert all(
        getattr(store, name)
        for name in ("systems", "hosts", "runs_on", "out_confs", "in_confs", "correlations")
    )
    assert json.loads(store.hosts["srca/h1"].simple_props["hw"]) == {"cpu": 8, "disks": ["b", "a"]}
    erp = network.participants()["srca/erp"]
    assert len(erp.complex_props) == 2 and len(erp.origins) == 2
    assert network.space("business-process").flows
    assert len(network.participant_links) == 1 and len(network.flow_links) == 1


def test_store_bytes_are_golden():
    data = store_to_json(store_from_sources(SOURCES))
    assert sha256(data) == STORE_SHA256
    assert store_to_json(store_from_json(data)) == data


def test_export_bytes_and_version_are_golden():
    network = emit(reconstruct(store_from_sources(SOURCES)))
    data = export_json(network)
    assert sha256(data) == EXPORT_SHA256
    assert network.version == VERSION
    assert export_json(parse_network(data)) == data


@pytest.mark.parametrize("stray", [Origin, object(), {1, 2}], ids=["class", "object", "set"])
def test_encoder_rejects_what_is_not_json_or_a_dataclass_instance(stray):
    with pytest.raises(TypeError, match="not JSON serializable"):
        CANONICAL_JSON.encode({"value": stray})
