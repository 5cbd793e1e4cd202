import json
import random

import pytest

from netloom.model import (
    ComplexProperty,
    CorrelationHint,
    HostEntity,
    IncomingConfiguration,
    InterfaceRef,
    ModelError,
    Origin,
    OutgoingConfiguration,
    RawStore,
    RunsOn,
    SystemEntity,
    payload_digest,
    store_from_json,
    store_to_json,
    to_facts,
)

from helpers import content_digest


def origin(src="srca", obj="o1"):
    return Origin(src, obj, "middleware", 100)


def random_store(rng: random.Random) -> RawStore:
    sources = ["srca", "srcb"]
    systems, hosts, runs, outs, ins, corrs = [], [], [], [], [], []
    n_sys = rng.randint(1, 6)
    for i in range(n_sys):
        src = rng.choice(sources)
        o = Origin(src, f"s{i}", "middleware", rng.randint(0, 500))
        props = {f"k{j}": f"v{j}" for j in range(rng.randint(0, 3))}
        complexes = []
        for j in range(rng.randint(0, 2)):
            complexes.append(
                ComplexProperty.create(
                    f"cfg{j}", {"b": [1, 2], "a": {"y": j, "x": "s"}}, o
                )
            )
        systems.append(
            SystemEntity.create(
                f"{src}/s{i}", f"Sys {i}", "application", o,
                simple_props=props, complex_props=complexes,
            )
        )
    for i in range(rng.randint(0, 4)):
        src = rng.choice(sources)
        o = Origin(src, f"h{i}", "landscape-directory", 0)
        hosts.append(HostEntity.create(f"{src}/h{i}", f"Host-{i}.Example", o))
    for i in range(rng.randint(0, 3)):
        if not systems or not hosts:
            break
        s = rng.choice(systems)
        h = rng.choice(hosts)
        runs.append(RunsOn(s.id, h.id, Origin(s.origin.source_id, f"r{i}", "", 0)))
    for i in range(rng.randint(0, 3)):
        if not systems:
            break
        s = rng.choice(systems)
        o = Origin(s.origin.source_id, f"oc{i}", "", 0)
        outs.append(
            OutgoingConfiguration(
                f"{o.source_id}/oc{i}", s.id, InterfaceRef(f"if{i}", "urn:x", ""),
                f"http://ep{i}/svc", "soap", o,
            )
        )
    for i in range(rng.randint(0, 3)):
        if not systems:
            break
        s = rng.choice(systems)
        o = Origin(s.origin.source_id, f"ic{i}", "", 0)
        ins.append(
            IncomingConfiguration(
                f"{o.source_id}/ic{i}", s.id, InterfaceRef(f"if{i}", "urn:x", ""),
                f"http://ep{i}/svc", "soap", o,
            )
        )
    if systems and rng.random() < 0.5:
        s = rng.choice(systems)
        corrs.append(
            CorrelationHint(
                "integration", s.id, "business-process", "srcb/bp1", "implemented-by",
                Origin(s.origin.source_id, "c0", "", 0),
            )
        )
    return RawStore.build(1, [*systems, *hosts, *runs, *outs, *ins, *corrs])


@pytest.mark.parametrize("source_id, object_id", [("", "o1"), ("srca", "")])
def test_origin_requires_source_and_object_ids(source_id, object_id):
    with pytest.raises(ModelError, match="^origin requires source_id and object_id$"):
        Origin(source_id, object_id)


class TestToFacts:
    def test_system_projection(self):
        s = SystemEntity.create("srca/s1", "ERP", "application", origin())
        store = RawStore.build(1, [s])
        facts = to_facts(store)
        assert ("srca/s1", "ERP", "application") in facts["system"]
        assert ("srca/s1", "srca", "o1") in facts["origin"]
        # The space default is materialized as a prop so rules can see it.
        assert ("srca/s1", "space", "integration") in facts["prop"]

    def test_empty_store(self):
        assert to_facts(RawStore.empty()) == {}

    def test_fact_counts_match_field_oracle(self):
        # Oracle: count the facts each entity kind must contribute.
        rng = random.Random(11)
        for _ in range(25):
            store = random_store(rng)
            expected = 0
            for s in store.systems.values():
                expected += 2  # system + origin
                expected += len(s.simple_props)
                expected += len({(cp.kind, cp.digest) for cp in s.complex_props})
            for h in store.hosts.values():
                expected += 2
                expected += len(h.simple_props)
            expected += len({(r.system_id, r.host_id) for r in store.runs_on})
            expected += 2 * len(store.out_confs) + 2 * len(store.in_confs)
            expected += len(
                {
                    (c.left_space, c.left_id, c.right_space, c.right_id, c.kind)
                    for c in store.correlations
                }
            )
            assert sum(len(rows) for rows in to_facts(store).values()) == expected

    def test_rows_match_exact_oracle(self):
        # Oracle: every entity field the rules can see, read from the
        # store's persisted bytes rather than from the entities.
        rng = random.Random(23)
        for _ in range(30):
            store = random_store(rng)
            doc = json.loads(store_to_json(store))
            expected: dict[str, set[tuple]] = {}

            def add(pred, *row):
                expected.setdefault(pred, set()).add(row)

            for s in doc["systems"]:
                add("system", s["id"], s["name"], s["kind"])
                for key, value in s["simple_props"].items():
                    add("prop", s["id"], key, value)
                for cp in s["complex_props"]:
                    add("complex_prop", s["id"], cp["kind"], cp["digest"])
            for h in doc["hosts"]:
                add("host", h["id"], h["hostname"])
                for key, value in h["simple_props"].items():
                    add("prop", h["id"], key, value)
            for r in doc["runs_on"]:
                add("runs_on", r["system_id"], r["host_id"])
            for pred, address in (("out_conf", "receiver_address"), ("in_conf", "endpoint_address")):
                for c in doc[f"{pred}s"]:
                    i = c["interface"]
                    add(pred, c["id"], c["owner_system_id"], i["name"], i["namespace"],
                        i["operation"], c[address], c["adapter"])
            for entity in doc["systems"] + doc["hosts"] + doc["out_confs"] + doc["in_confs"]:
                add("origin", entity["id"], entity["origin"]["source_id"],
                    entity["origin"]["object_id"])
            for c in doc["correlations"]:
                add("correlation", c["left_space"], c["left_id"], c["right_space"],
                    c["right_id"], c["kind"])
            assert to_facts(store) == expected


class TestDigests:
    def test_equal_payloads_equal_digests(self):
        a = payload_digest({"x": 1, "y": [1, {"b": 2, "a": 1}]})
        b = payload_digest({"y": [1, {"a": 1, "b": 2}], "x": 1})
        assert a == b

    def test_digest_agreement_implies_payload_equality(self):
        rng = random.Random(41)
        payloads = []
        for i in range(200):
            payloads.append(
                {
                    "k": rng.randint(0, 5),
                    "vals": [rng.randint(0, 3) for _ in range(rng.randint(0, 3))],
                    "name": f"n{rng.randint(0, 9)}",
                }
            )
        digests = [(payload_digest(p), p) for p in payloads]
        seen = {}
        for d, p in digests:
            if d in seen:
                assert seen[d] == p
            else:
                seen[d] = p

    def test_unequal_payload_unequal_digest(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


class TestStorePersistence:
    def test_json_round_trip(self):
        rng = random.Random(77)
        for _ in range(10):
            store = random_store(rng)
            data = store_to_json(store)
            again = store_from_json(data)
            assert store_to_json(again) == data
            assert content_digest(again) == content_digest(store)
            # Equal bytes alone would pass with nested objects left as dicts.
            assert again == store

    @pytest.mark.parametrize("collection", ["systems", "hosts"])
    def test_dict_field_must_hold_an_object(self, collection):
        store = random_store(random.Random(5))
        doc = json.loads(store_to_json(store))
        doc[collection][0]["simple_props"] = ["space", "integration"]
        with pytest.raises(ModelError, match=r"\.simple_props must be an object, not list"):
            store_from_json(json.dumps(doc).encode())

    def test_without_source_removes_only_that_source(self):
        rng = random.Random(91)
        store = random_store(rng)
        trimmed = store.without_source("srca")
        for s in trimmed.systems.values():
            assert s.origin.source_id != "srca"
        kept_b = {k for k, v in store.systems.items() if v.origin.source_id == "srcb"}
        assert set(trimmed.systems) == kept_b

    def test_build_files_entities_by_class_in_any_order(self):
        rng = random.Random(17)
        for _ in range(30):
            store = random_store(rng)
            data = store_to_json(store)
            entities = list(store.entities())
            rng.shuffle(entities)
            assert store_to_json(RawStore.build(store.version, entities)) == data
            for src in ("srca", "srcb"):
                parts = [*store.without_source(src).entities(), *store.only_source(src).entities()]
                assert store_to_json(RawStore.build(store.version, parts)) == data

    def test_source_filters_equal_a_build_of_the_filtered_entities(self):
        rng = random.Random(23)
        for _ in range(30):
            store = random_store(rng)
            for src in ("srca", "srcb", "srcz"):
                for selected, keep in (
                    (store.without_source(src), lambda e: e.origin.source_id != src),
                    (store.only_source(src), lambda e: e.origin.source_id == src),
                ):
                    built = RawStore.build(store.version, filter(keep, store.entities()))
                    assert selected == built
                    assert store_to_json(selected) == store_to_json(built)

    def test_build_refuses_an_id_used_twice(self):
        s = SystemEntity.create("srca/x", "ERP", "application", origin())
        h = HostEntity.create("srca/x", "erp.net", origin())
        with pytest.raises(ModelError, match="duplicate entity id srca/x"):
            RawStore.build(1, [s, h])

    def test_hostname_normalized_lowercase(self):
        h = HostEntity.create("srca/h1", "  Web01.EXAMPLE.net ", origin())
        assert h.hostname == "web01.example.net"
