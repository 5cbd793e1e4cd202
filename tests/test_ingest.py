import json
import random

import pytest

from netloom.conformance import DANGLING_REF, default_schema_doc, parse_schema
from netloom.ingest import (
    IngestError,
    RawRecord,
    Snapshot,
    SourceConfig,
    commit,
    load_snapshot,
    load_source_config,
    normalize_address,
)
from netloom.model import Origin, RawStore

from helpers import content_digest


CHECKER = parse_schema(default_schema_doc())


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def snapshot_of(records, src="srca"):
    out = []
    for i, r in enumerate(records):
        r = dict(r)
        kind = r.pop("kind", None)
        obj = str(r.get("id", f"anon{i}"))
        r["id"] = obj
        out.append(RawRecord(kind, r, Origin(src, obj, "test", 0)))
    return Snapshot(src, tuple(out))


class TestNormalizeAddress:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("HTTP://B:80/order/", "http://b/order"),
            ("https://x:443", "https://x"),
            ("QueueName.A ", "queuename.a"),
            ("http://Host.Example:8080/Path/", "http://host.example:8080/Path"),
            ("https://a:443/", "https://a"),
            ("  jms://Broker:61616/queue ", "jms://broker:61616/queue"),
            ("", ""),
        ],
    )
    def test_table(self, raw, expected):
        assert normalize_address(raw) == expected

    def test_idempotent(self):
        rng = random.Random(2)
        samples = [
            "HTTP://B:80/order/", "https://X:443/A/b/", "Plain Name",
            "ftp://Server:21/x", "http://h:80", "x/y/Z ",
        ]
        for s in samples:
            once = normalize_address(s)
            assert normalize_address(once) == once


class TestLoadSourceConfig:
    def write(self, path, doc):
        path.write_text(json.dumps(doc))
        return path

    def test_unknown_keys_are_ignored(self, tmp_path):
        # schedule_hint is no longer read; a non-integer one used to crash.
        path = self.write(
            tmp_path / "cfg.json",
            {"source_id": "srca", "source_type": "middleware",
             "mapping": {"sysName": "name"}, "schedule_hint": "hourly", "owner": 5},
        )
        assert load_source_config(path) == SourceConfig(
            "srca", "middleware", {"sysName": "name"}
        )

    @pytest.mark.parametrize(
        "doc,message",
        [
            (["a"], "must be a JSON object"),
            ({"source_id": "srca", "mapping": ["x"]}, "mapping must be an object"),
            ({"source_id": "srca", "source_type": 5}, "source_type must be a string"),
            ({"source_id": "srca", "mapping": {"sysName": 5}}, "mapping must be an object"),
        ],
        ids=["document-not-object", "mapping-not-object", "source-type-not-string",
             "mapping-value-not-string"],
    )
    def test_malformed_config_raises_ingest_error(self, tmp_path, doc, message):
        path = self.write(tmp_path / "cfg.json", doc)
        with pytest.raises(IngestError, match=message):
            load_source_config(path)


class TestLoadSnapshot:
    def test_mapping_applied(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        write_jsonl(path, [{"kind": "system", "sysName": "ERP", "sysId": "S01", "type": "application"}])
        config = SourceConfig(
            "srca", "middleware", {"sysName": "name", "sysId": "object_id"}
        )
        snap = load_snapshot(path, config)
        assert len(snap.records) == 1
        record = snap.records[0]
        assert record.kind == "system"
        assert record.fields["name"] == "ERP"
        assert record.fields["id"] == "S01"
        assert record.origin == Origin("srca", "S01", "middleware", 0)
        assert "sysName" not in record.fields

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        snap = load_snapshot(path, SourceConfig("srca"))
        assert snap.records == ()

    def test_generated_manifest(self, tmp_path):
        rng = random.Random(9)
        ids = [f"obj-{i}-{rng.randint(0, 999)}" for i in range(100)]
        path = tmp_path / "big.jsonl"
        write_jsonl(
            path,
            [{"kind": "host", "id": i, "hostname": f"h-{i}.net"} for i in ids],
        )
        snap = load_snapshot(path, SourceConfig("srca"))
        assert len(snap.records) == 100
        assert [r.origin.object_id for r in snap.records] == ids

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "host", "id": "a", "hostname": "h"}\n{broken\n')
        with pytest.raises(IngestError, match="line 2"):
            load_snapshot(path, SourceConfig("srca"))

    def test_missing_id_reports_line(self, tmp_path):
        path = tmp_path / "noid.jsonl"
        write_jsonl(path, [{"kind": "host", "hostname": "h"}])
        with pytest.raises(IngestError, match="line 1.*object id"):
            load_snapshot(path, SourceConfig("srca"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            load_snapshot(tmp_path / "absent.jsonl", SourceConfig("srca"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"kind": "host", "id": "h", "hostname": "x"}\n{"id": "h\xe9"}\n')
        with pytest.raises(IngestError, match=r"latin1.jsonl: line 2: not UTF-8 \(invalid"):
            load_snapshot(path, SourceConfig("srca"))

    def test_given_bytes_parsed_instead_of_the_file(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        write_jsonl(path, [{"kind": "host", "id": "on-disk", "hostname": "x"}])
        data = b'{"kind": "host", "id": "given", "hostname": "x"}\r\n\r\n'
        snap = load_snapshot(path, SourceConfig("srca"), data)
        assert [r.origin.object_id for r in snap.records] == ["given"]
        with pytest.raises(IngestError, match=r"gone.jsonl: line 1: malformed JSON"):
            load_snapshot(tmp_path / "gone.jsonl", SourceConfig("srca"), b"{x\n")

    def test_dotted_mapping_path(self, tmp_path):
        path = tmp_path / "nested.jsonl"
        write_jsonl(
            path,
            [{"kind": "system", "meta": {"label": "CRM"}, "id": "c1", "type": "application"}],
        )
        config = SourceConfig("srca", mapping={"meta.label": "name"})
        record = load_snapshot(path, config).records[0]
        assert record.fields["name"] == "CRM"
        assert record.fields.get("meta") == {}

    def test_a_mapping_target_read_later_through_a_dotted_path(self, tmp_path):
        # "meta" moves onto "info"; "info.x" then reads the line's own
        # "info", and "meta.x" the line's "meta", both as parsed.
        path = tmp_path / "moved.jsonl"
        write_jsonl(path, [{
            "kind": "system", "id": "c1", "name": "CRM", "type": "application",
            "meta": {"x": "from meta", "y": "kept"}, "info": {"x": "from info"},
        }])
        config = SourceConfig("srca", mapping={"meta": "info", "info.x": "label", "meta.x": "owner"})
        fields = load_snapshot(path, config).records[0].fields
        assert fields == {
            "id": "c1", "name": "CRM", "type": "application",
            "info": {"y": "kept"}, "label": "from info", "owner": "from meta",
        }

    def test_captured_at_from_record(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        write_jsonl(
            path,
            [{"kind": "host", "id": "h1", "hostname": "x", "captured_at": 1700000000}],
        )
        record = load_snapshot(path, SourceConfig("srca")).records[0]
        assert record.origin.captured_at == 1700000000

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_captured_at_is_not_a_timestamp(self, tmp_path, value):
        path = tmp_path / "cap.jsonl"
        write_jsonl(path, [{"kind": "host", "id": "h1", "hostname": "x", "captured_at": value}])
        record = load_snapshot(path, SourceConfig("srca")).records[0]
        assert record.origin.captured_at == 0
        assert type(record.origin.captured_at) is int


def sample_records(src_tag=""):
    return [
        {"kind": "system", "id": "s1", "name": f"ERP{src_tag}", "type": "application"},
        {"kind": "host", "id": "h1", "hostname": f"web{src_tag}.net"},
        {"kind": "runs_on", "id": "r1", "system_id": "s1", "host_id": "h1"},
    ]


class TestCommit:
    def test_idempotent_reload(self):
        store = RawStore.empty()
        v1 = commit(snapshot_of(sample_records()), store, CHECKER)
        assert isinstance(v1, RawStore)
        v2 = commit(snapshot_of(sample_records()), v1, CHECKER)
        assert isinstance(v2, RawStore)
        assert v2.version == v1.version + 1
        assert content_digest(v1) == content_digest(v2)

    def test_replace_semantics_and_source_isolation(self):
        store = RawStore.empty()
        full_a = sample_records() + [
            {"kind": "system", "id": "s2", "name": "OLD", "type": "application"}
        ]
        v1 = commit(snapshot_of(full_a, "srca"), store, CHECKER)
        v2 = commit(snapshot_of(sample_records("b"), "srcb"), v1, CHECKER)
        # Recommit A with fewer records: only A's stale entity disappears.
        v3 = commit(snapshot_of(sample_records(), "srca"), v2, CHECKER)
        assert isinstance(v3, RawStore)
        assert "srca/s2" not in v3.systems
        assert "srca/s1" in v3.systems
        assert "srcb/s1" in v3.systems

    def test_nonconforming_snapshot_leaves_store_unchanged(self):
        store = RawStore.empty()
        bad = sample_records() + [
            {"kind": "runs_on", "id": "r2", "system_id": "sX", "host_id": "h1"}
        ]
        result = commit(snapshot_of(bad), store, CHECKER)
        assert not isinstance(result, RawStore)
        assert DANGLING_REF in result.codes()
        assert store == RawStore.empty()

    def test_atomicity_old_version_untouched(self):
        store = RawStore.empty()
        v1 = commit(snapshot_of(sample_records()), store, CHECKER)
        digest_before = content_digest(v1)
        commit(snapshot_of(sample_records("x")), v1, CHECKER)
        assert content_digest(v1) == digest_before

    def test_replace_on_reload_exact_content(self):
        # After committing S, the facts originating from S are exactly
        # the snapshot's mapped content.
        from netloom.model import to_facts

        store = RawStore.empty()
        v1 = commit(snapshot_of(sample_records(), "srca"), store, CHECKER)
        v2 = commit(snapshot_of(sample_records("b"), "srcb"), v1, CHECKER)
        smaller = [sample_records()[0]]  # drop host and runs_on
        v3 = commit(snapshot_of(smaller, "srca"), v2, CHECKER)
        expected = commit(snapshot_of(smaller, "srca"), RawStore.empty(), CHECKER)
        a_facts = {
            (pred, row)
            for pred, rows in to_facts(v3).items()
            for row in rows
            if any(str(arg).startswith("srca/") for arg in row)
        }
        only_a = {
            (pred, row)
            for pred, rows in to_facts(expected).items()
            for row in rows
            if any(str(arg).startswith("srca/") for arg in row)
        }
        assert a_facts == only_a

    def test_commit_checks_against_post_removal_view(self):
        # srcb's runs_on points at a host that only srca's OLD snapshot
        # provided; re-committing srca without it must not break srcb.
        store = RawStore.empty()
        v1 = commit(snapshot_of(sample_records(), "srca"), store, CHECKER)
        linked = [
            {"kind": "system", "id": "s1", "name": "B", "type": "application"},
            {"kind": "runs_on", "id": "r1", "system_id": "s1", "host_id": "srca/h1"},
        ]
        v2 = commit(snapshot_of(linked, "srcb"), v1, CHECKER)
        assert isinstance(v2, RawStore)
        # srca drops its host: srcb's reference would dangle, but commit
        # of srca only validates srca's own records, so it succeeds and
        # the downstream model tolerates the missing runs_on target.
        smaller = [sample_records()[0]]
        v3 = commit(snapshot_of(smaller, "srca"), v2, CHECKER)
        assert isinstance(v3, RawStore)

    def test_address_normalized_at_build(self):
        records = sample_records() + [
            {
                "kind": "out_conf",
                "id": "oc1",
                "owner_system_id": "s1",
                "interface_name": "if1",
                "receiver_address": "HTTP://B:80/order/",
            }
        ]
        v1 = commit(snapshot_of(records), RawStore.empty(), CHECKER)
        assert v1.out_confs["srca/oc1"].receiver_address == "http://b/order"

    def test_extra_fields_become_props(self):
        records = [
            {
                "kind": "system",
                "id": "s1",
                "name": "ERP",
                "type": "application",
                "owner": "ops",
                "deployment": {"zone": "eu", "replicas": 2},
            }
        ]
        v1 = commit(snapshot_of(records), RawStore.empty(), CHECKER)
        s = v1.systems["srca/s1"]
        assert s.simple_props["owner"] == "ops"
        assert s.simple_props["space"] == "integration"
        assert len(s.complex_props) == 1
        assert s.complex_props[0].kind == "deployment"
