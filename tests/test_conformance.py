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
    compile_schema,
    default_schema_doc,
    load_schema,
    parse_schema,
)
from netloom.ingest import RawRecord
from netloom.model import Origin, RawStore


def rec(kind, fields, src="srca", obj=None):
    obj = obj or fields.get("id", "x")
    return RawRecord(kind, dict(fields), Origin(src, str(obj), "test", 0), 0)


def make_checker(doc=None):
    return compile_schema(parse_schema(doc or default_schema_doc()))


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
        checker = compile_schema(load_schema(path))
        assert checker.machine("system") is not None


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
            systems=[
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
        batch[i] = RawRecord("mystery", batch[i].fields, batch[i].origin, 0)
        return batch
    if code == MALFORMED_RECORD:
        i = rng.randrange(len(batch))
        batch[i] = RawRecord(None, batch[i].fields, batch[i].origin, 0)
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
