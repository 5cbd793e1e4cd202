import copy
import random

import pytest

from netloom.conformance import (
    DANGLING_REF,
    DUPLICATE_KEY,
    ENUM_VIOLATION,
    FINDING_CODES,
    MALFORMED_RECORD,
    MISSING_FIELD,
    TYPE_MISMATCH,
    UNKNOWN_KIND,
    SchemaError,
    check_batch,
    default_schema_doc,
    load_schema,
    parse_schema,
)
from netloom.ingest import RawRecord
from netloom.model import HostEntity, Origin, RawStore, SystemEntity

from oracles import conformance_findings


def rec(kind, fields, src="srca", obj=None):
    obj = obj or fields.get("id", "x")
    return RawRecord(kind, dict(fields), Origin(src, str(obj), "test", 0))


def make_checker(doc=None):
    return parse_schema(doc or default_schema_doc())


def valid_batch(n_systems=10, src="srca"):
    """A consistent batch: systems with hosts, runs_on, matching confs."""
    records = []
    for i in range(n_systems):
        records.append(
            rec("system", {"id": f"s{i}", "name": f"Sys {i}", "type": "application",
                           "env": "prod"}, src)
        )
        records.append(rec("host", {"id": f"h{i}", "hostname": f"host-{i}.net"}, src))
        records.append(
            rec("runs_on", {"id": f"r{i}", "system_id": f"s{i}", "host_id": f"h{i}"}, src)
        )
        records.append(
            rec(
                "out_conf",
                {
                    "id": f"oc{i}",
                    "owner_system_id": f"s{i}",
                    "interface_name": f"if{i}",
                    "receiver_address": f"http://ep{i}/x",
                },
                src,
            )
        )
        records.append(
            rec(
                "in_conf",
                {
                    "id": f"ic{i}",
                    "owner_system_id": f"s{i}",
                    "interface_name": f"if{i}",
                    "endpoint_address": f"http://ep{i}/x",
                },
                src,
            )
        )
    return records


def schema_with_enum():
    doc = default_schema_doc()
    doc["kinds"]["system"]["fields"]["env"] = {"type": "enum(prod,test,dev)"}
    return doc


class TestCompile:
    def test_accepts_minimal_schema(self):
        checker = make_checker(
            {"kinds": {"system": {"fields": {
                "id": {"type": "string", "required": True, "key": True},
                "name": {"type": "string", "required": True},
            }}}}
        )
        report = check_batch(
            checker, [rec("system", {"id": "s1", "name": "ERP"})], RawStore.empty()
        )
        assert report.ok

    def test_ref_to_undeclared_kind(self):
        doc = {
            "kinds": {
                "runs_on": {
                    "fields": {
                        "id": {"type": "string", "required": True, "key": True},
                        "host_id": {"type": "string", "required": True},
                    },
                    "refs": {"host_id": "host"},
                }
            }
        }
        with pytest.raises(SchemaError, match="host"):
            make_checker(doc)

    def test_key_field_must_be_required(self):
        doc = {"kinds": {"system": {"fields": {"id": {"type": "string", "key": True}}}}}
        with pytest.raises(SchemaError, match="key field must be required"):
            make_checker(doc)

    def test_empty_schema_rejects_everything_as_unknown_kind(self):
        checker = make_checker({"kinds": {}})
        report = check_batch(
            checker, [rec("system", {"id": "s1", "name": "ERP"})], RawStore.empty()
        )
        assert report.codes() == {UNKNOWN_KIND}

    def test_recompilation_is_behaviorally_identical(self):
        batch = valid_batch(5)
        batch[3] = rec("system", {"id": "bad", "name": 5, "type": "application"})
        r1 = check_batch(make_checker(), batch, RawStore.empty())
        r2 = check_batch(make_checker(), batch, RawStore.empty())
        assert r1 == r2

    def test_load_schema_from_file(self, tmp_path):
        import json

        path = tmp_path / "schema.json"
        path.write_text(json.dumps(default_schema_doc()))
        checker = load_schema(path)
        assert "system" in checker.kinds


class TestSchemaShape:
    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"kinds": []},
            {"kinds": {"system": []}},
            {"kinds": {"system": {"fields": ["id"]}}},
            {"kinds": {"system": {"fields": {"id": "string"}}}},
            {"kinds": {"system": {"fields": {"id": {"type": 5}}}}},
            {"kinds": {"system": {"fields": {"id": {"type": "string", "required": "yes"}}}}},
            {"kinds": {"system": {"fields": {"id": {"type": "string", "key": 1}}}}},
            {"kinds": {"system": {"refs": ["host_id"]}}},
            {"kinds": {"system": {"refs": {"host_id": ["host"]}}}},
            {"kinds": {"system": {"unique": "id"}}},
            {"kinds": {"system": {"unique": ["id"]}}},
            {"kinds": {"system": {"unique": [[1]]}}},
        ],
    )
    def test_malformed_document_raises_schema_error(self, doc):
        with pytest.raises(SchemaError):
            parse_schema(doc)

    @pytest.mark.parametrize(
        "data", [b'{"kinds": {', b"", b"\xff\xfe{}", b'{"kinds": {"system": []}}']
    )
    def test_malformed_file_raises_schema_error(self, tmp_path, data):
        path = tmp_path / "schema.json"
        path.write_bytes(data)
        with pytest.raises(SchemaError):
            load_schema(path)

    @pytest.mark.parametrize(
        "kind_doc, message",
        [
            ({"fields": {"t": {"type": "enum()"}}}, r"system\.t: enum must declare values"),
            ({"fields": {"t": {"type": "float"}}}, r"system\.t: unknown field type 'float'"),
            (
                {"fields": {"id": {"type": "mapping", "required": True, "key": True}}},
                r"system\.id: key field must be scalar",
            ),
            (
                {"fields": {"id": {"type": "list", "required": True, "key": True}}},
                r"system\.id: key field must be scalar",
            ),
            ({"refs": {"host_id": "system"}}, r"system: ref field 'host_id' is not declared"),
            ({"unique": [["name"]]}, r"system: unique field 'name' is not declared"),
        ],
    )
    def test_invalid_schema_raises_schema_error(self, kind_doc, message):
        with pytest.raises(SchemaError, match=message):
            make_checker({"kinds": {"system": kind_doc}})


class TestCheckBatch:
    def test_missing_required_field(self):
        report = check_batch(
            make_checker(), [rec("system", {"id": "s1", "type": "application"})],
            RawStore.empty(),
        )
        assert [f.code for f in report.findings] == [MISSING_FIELD]
        assert report.findings[0].field == "name"

    def test_dangling_ref_single_finding(self):
        batch = [
            rec("system", {"id": "s1", "name": "A", "type": "application"}),
            rec("host", {"id": "h1", "hostname": "x.net"}),
            rec("runs_on", {"id": "r1", "system_id": "s1", "host_id": "hX"}),
        ]
        report = check_batch(make_checker(), batch, RawStore.empty())
        assert [f.code for f in report.findings] == [DANGLING_REF]
        assert report.findings[0].field == "host_id"

    def test_refs_resolve_against_existing_store(self):
        from netloom.model import SystemEntity

        existing = RawStore.build(
            1,
            [
                SystemEntity.create(
                    "srcb/s9", "Other", "application", Origin("srcb", "s9", "", 0)
                )
            ],
        )
        batch = [
            rec("host", {"id": "h1", "hostname": "x.net"}),
            rec("runs_on", {"id": "r1", "system_id": "srcb/s9", "host_id": "h1"}),
        ]
        assert check_batch(make_checker(), batch, existing).ok

    def test_purity(self):
        batch = valid_batch(3)
        snapshot = copy.deepcopy(batch)
        store = RawStore.empty()
        check_batch(make_checker(), batch, store)
        assert batch == snapshot
        assert store == RawStore.empty()

    def test_object_id_reuse_across_kinds_is_duplicate(self):
        batch = [
            rec("system", {"id": "x1", "name": "A", "type": "application"}),
            rec("host", {"id": "x1", "hostname": "a.net"}),
        ]
        report = check_batch(make_checker(), batch, RawStore.empty())
        assert [f.code for f in report.findings] == [DUPLICATE_KEY]

    @pytest.mark.parametrize("blank", ["", " ", "\t\n", "\u00a0", "\u3000"])
    def test_a_blank_required_string_is_a_type_mismatch(self, blank):
        doc = {"kinds": {"host": {"fields": {
            "id": {"type": "string", "required": True, "key": True},
            "hostname": {"type": "string", "required": True},
            "alias": {"type": "string"},
        }}}}
        batch = [
            rec("host", {"id": "h1", "hostname": blank, "alias": blank}),
            rec("host", {"id": blank, "hostname": " x "}, obj="h2"),
        ]
        report = check_batch(parse_schema(doc), batch, RawStore.empty())
        got = [(f.code, f.kind, f.field, f.message) for f in report.findings]
        message = "required string must be non-empty"
        assert got == [(TYPE_MISMATCH, "host", "hostname", message),
                       (TYPE_MISMATCH, "host", "id", message)]
        records = [(r.kind, r.fields, r.origin.source_id, r.origin.object_id) for r in batch]
        assert got == conformance_findings(doc, records, {})

    def test_a_blank_reference_gets_the_one_finding_of_an_empty_one(self):
        doc = default_schema_doc()
        reports = []
        for value in ("  ", ""):
            batch = [
                rec("system", {"id": "s1", "name": "A", "type": "application"}),
                rec("runs_on", {"id": "r1", "system_id": "s1", "host_id": value}),
            ]
            report = check_batch(parse_schema(doc), batch, RawStore.empty())
            got = [(f.code, f.kind, f.field, f.message) for f in report.findings]
            assert got == [(TYPE_MISMATCH, "runs_on", "host_id", "required string must be non-empty")]
            records = [(r.kind, r.fields, r.origin.source_id, r.origin.object_id) for r in batch]
            assert got == conformance_findings(doc, records, {})
            reports.append(report.to_json())
        assert reports[0] == reports[1]

    def test_unknown_extra_fields_tolerated(self):
        report = check_batch(
            make_checker(),
            [rec("system", {"id": "s1", "name": "A", "type": "application",
                            "custom": "yes", "nested": {"a": 1}})],
            RawStore.empty(),
        )
        assert report.ok


MUTATORS = {
    MISSING_FIELD: lambda r: r.fields.pop("name"),
    TYPE_MISMATCH: lambda r: r.fields.__setitem__("name", 42),
    ENUM_VIOLATION: lambda r: r.fields.__setitem__("env", "qa"),
    DANGLING_REF: lambda r: r.fields.__setitem__("system_id", "ghost"),
    UNKNOWN_KIND: None,  # handled specially: rewrites the kind
    MALFORMED_RECORD: None,  # handled specially: drops the kind
    DUPLICATE_KEY: None,  # handled specially: duplicates a record
}


def mutate(batch, code, rng):
    """Apply a single seeded defect; returns the mutated batch."""
    batch = copy.deepcopy(batch)
    if code == DUPLICATE_KEY:
        victim = rng.choice(batch)
        batch.append(copy.deepcopy(victim))
        return batch
    if code == UNKNOWN_KIND:
        i = rng.randrange(len(batch))
        batch[i] = RawRecord("mystery", batch[i].fields, batch[i].origin)
        return batch
    if code == MALFORMED_RECORD:
        i = rng.randrange(len(batch))
        batch[i] = RawRecord(None, batch[i].fields, batch[i].origin)
        return batch
    kind_of_code = {
        MISSING_FIELD: "system",
        TYPE_MISMATCH: "system",
        ENUM_VIOLATION: "system",
        DANGLING_REF: "runs_on",
    }[code]
    candidates = [r for r in batch if r.kind == kind_of_code]
    MUTATORS[code](rng.choice(candidates))
    return batch


class TestMutationCorpus:
    def test_every_seeded_defect_is_detected(self):
        rng = random.Random(17)
        checker = make_checker(schema_with_enum())
        base = valid_batch(10)
        assert check_batch(checker, base, RawStore.empty()).ok

        total = 0
        for code in FINDING_CODES:
            for _ in range(8):
                mutated = mutate(base, code, rng)
                report = check_batch(checker, mutated, RawStore.empty())
                assert code in report.codes(), f"{code} not detected"
                total += 1
        assert total >= 50

    def test_no_false_findings_on_clean_corpus(self):
        checker = make_checker(schema_with_enum())
        assert check_batch(checker, valid_batch(50), RawStore.empty()).ok


# Seeded schemas and batches for the comparison with the reference walk.
FIELD_NAMES = ("a", "env", "meta", "n", "name", "owner", "tags", "z")
FIELD_VALUES = {
    "string": ["x", "y", "", 5, True, ["x"]],
    "integer": [0, 7, -1, True, False, "7", 1.5],
    "enum(prod, test)": ["prod", "test", "qa", "", 3],
    "mapping": [{}, {"a": 1}, [], "m", 0],
    "list": [[], ["a", {"b": 2}], {}, "l", False],
}
REF_VALUES = ["o1", "o2", "h0", "s1", "srcb/s1", "srca/h0", "flow:f", "ghost", "", 4]
EXISTING = RawStore.build(
    1,
    [
        SystemEntity.create("srcb/s1", "Other", "application", Origin("srcb", "s1", "", 0)),
        HostEntity.create("srca/h0", "h0.net", Origin("srca", "h0", "", 0)),
    ],
)
EXISTING_IDS = {"system": {"srcb/s1"}, "host": {"srca/h0"}}


def random_schema_doc(rng):
    kinds = rng.sample(["system", "host", "k0", "k1"], rng.randint(1, 3))
    doc = {"kinds": {}}
    for kind in kinds:
        fields = {}
        if rng.random() < 0.8:
            fields["id"] = {"type": "string", "required": True, "key": True}
        for name in rng.sample(FIELD_NAMES, rng.randint(0, 4)):
            type_text = rng.choice(sorted(FIELD_VALUES))
            required = rng.random() < 0.5
            fdoc = {"type": type_text, "required": required}
            if required and type_text not in ("mapping", "list") and rng.random() < 0.3:
                fdoc["key"] = True
            fields[name] = fdoc
        refs = {
            name: rng.choice(kinds)
            for name, fdoc in fields.items()
            if name != "id" and fdoc["type"] == "string" and rng.random() < 0.5
        }
        unique = [
            rng.sample(sorted(fields), rng.randint(1, min(2, len(fields))))
            for _ in range(rng.randint(0, 2) if fields else 0)
        ]
        doc["kinds"][kind] = {"fields": fields, "refs": refs, "unique": unique}
    return doc


def random_record(rng, doc):
    kinds = list(doc["kinds"])
    kind = rng.choice(kinds) if rng.random() < 0.9 else rng.choice([None, "", "mystery"])
    obj = rng.choice(["o1", "o2", "o3", "o4", "o5", "o6", "h0", "s1"])
    kdoc = doc["kinds"].get(kind, {"fields": {}, "refs": {}})
    fields = {}
    for name, fdoc in kdoc["fields"].items():
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.2:
            fields[name] = None
        elif name == "id" and roll < 0.8:
            fields[name] = obj
        elif name in kdoc["refs"]:
            fields[name] = rng.choice(REF_VALUES)
        else:
            fields[name] = rng.choice(FIELD_VALUES[fdoc["type"]])
    for _ in range(rng.randint(0, 2)):
        fields[rng.choice(FIELD_NAMES + ("_x", "zz"))] = rng.choice(["u", 1, None, {"n": 1}])
    roll = rng.random()
    if roll < 0.03:
        fields[7] = "non-string key"
    elif roll < 0.05:
        fields = ["not", "a", "mapping"]
    return RawRecord(kind, fields, Origin(rng.choice(["srca", "srca", "srcb"]), obj, "test", 0))


class TestReferenceChecker:
    def test_findings_match_the_sorted_merge_reference(self):
        rng = random.Random(2718)
        codes = set()
        accepted = 0
        for _ in range(2500):
            doc = random_schema_doc(rng)
            checker = parse_schema(doc)
            batch = [random_record(rng, doc) for _ in range(rng.randint(1, 12))]
            report = check_batch(checker, batch, EXISTING)
            got = [(f.code, f.kind, f.field, f.message) for f in report.findings]
            records = [(r.kind, r.fields, r.origin.source_id, r.origin.object_id) for r in batch]
            assert got == conformance_findings(doc, records, EXISTING_IDS), doc
            codes.update(code for code, *_ in got)
            accepted += report.ok
        # Every finding code, and both clean and rejected batches, occur.
        assert codes == set(FINDING_CODES)
        assert 0 < accepted < 2500
