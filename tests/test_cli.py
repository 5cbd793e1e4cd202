import errno
import json
import logging
import shutil

import pytest
from click.testing import CliRunner

import netloom.workspace as workspace_mod
from netloom import cli
from netloom.cli import main
from netloom.ingest import MAX_NESTING
from netloom.model import InterfaceRef, store_to_json
from netloom.reconstruct import flow_id_for
from netloom.workspace import SnapshotWatcher, Workspace

from helpers import MERGE_SPACE_RULES, content_digest, nested_line


@pytest.fixture
def runner():
    return CliRunner()


def write_source_config(path, source_id, mapping=None):
    path.write_text(
        json.dumps(
            {"source_id": source_id, "source_type": "test", "mapping": mapping or {}}
        )
    )


def write_snapshot(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def sample_records(tag=""):
    return [
        {"kind": "system", "id": "erp", "name": f"ERP{tag}", "type": "application"},
        {"kind": "system", "id": "crm", "name": f"CRM{tag}", "type": "application"},
        {"kind": "out_conf", "id": "oc", "owner_system_id": "erp",
         "interface_name": "orders", "receiver_address": "http://x/orders"},
        {"kind": "in_conf", "id": "ic", "owner_system_id": "crm",
         "interface_name": "orders", "endpoint_address": "HTTP://X:80/orders/"},
    ]


def cross_space_records(tag=""):
    """An integration system whose outbound config matches an inbound
    config of a business-process system: the flow crosses spaces."""
    return [
        {"kind": "system", "id": "a", "name": f"App{tag}", "type": "application"},
        {"kind": "system", "id": "p", "name": "Proc", "type": "process",
         "space": "business-process"},
        {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
         "interface_name": "x", "receiver_address": "http://1"},
        {"kind": "in_conf", "id": "i1", "owner_system_id": "p",
         "interface_name": "x", "endpoint_address": "http://1"},
    ]


def same_space_flow_link_records():
    """Two integration flows bridged by a correlation: the flow link
    does not cross spaces."""
    first = flow_id_for("srca/a", "srca/b", InterfaceRef("one"))
    second = flow_id_for("srca/b", "srca/a", InterfaceRef("two"))
    return [
        {"kind": "system", "id": "a", "name": "App A", "type": "application"},
        {"kind": "system", "id": "b", "name": "App B", "type": "application"},
        {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
         "interface_name": "one", "receiver_address": "http://1"},
        {"kind": "in_conf", "id": "i1", "owner_system_id": "b",
         "interface_name": "one", "endpoint_address": "http://1"},
        {"kind": "out_conf", "id": "o2", "owner_system_id": "b",
         "interface_name": "two", "receiver_address": "http://2"},
        {"kind": "in_conf", "id": "i2", "owner_system_id": "a",
         "interface_name": "two", "endpoint_address": "http://2"},
        {"kind": "correlation", "id": "c1",
         "left_space": "integration", "left_id": first,
         "right_space": "integration", "right_id": second,
         "link_kind": "related"},
    ]


@pytest.fixture
def workspace(tmp_path, runner):
    ws_dir = tmp_path / "ws"
    result = runner.invoke(main, ["init", str(ws_dir)])
    assert result.exit_code == 0
    return ws_dir


def ingest_sample(runner, tmp_path, workspace, records=None, src="srca"):
    cfg = tmp_path / f"{src}.json"
    write_source_config(cfg, src)
    snap = tmp_path / f"{src}.jsonl"
    write_snapshot(snap, records or sample_records())
    return runner.invoke(
        main, ["ingest", str(workspace), "--source-config", str(cfg), str(snap)]
    )


class TestIngestCommand:
    def test_valid_snapshot_exit_zero(self, runner, tmp_path, workspace):
        result = ingest_sample(runner, tmp_path, workspace)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["store_version"] == 1

    def test_dangling_ref_exit_two_with_report(self, runner, tmp_path, workspace):
        bad = sample_records() + [
            {"kind": "runs_on", "id": "r1", "system_id": "ghost", "host_id": "h1"}
        ]
        result = ingest_sample(runner, tmp_path, workspace, bad)
        assert result.exit_code == 2
        doc = json.loads(result.output)
        codes = {f["code"] for f in doc["findings"]}
        assert "DANGLING_REF" in codes

    def test_reingest_identical_snapshot_content_identical(
        self, runner, tmp_path, workspace
    ):
        ingest_sample(runner, tmp_path, workspace)
        ws = Workspace.load(workspace)
        digest1 = content_digest(ws.load_store())
        result = ingest_sample(runner, tmp_path, workspace)
        assert result.exit_code == 0
        assert content_digest(ws.load_store()) == digest1

    def test_missing_snapshot_exit_one(self, runner, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        write_source_config(cfg, "srca")
        result = runner.invoke(
            main,
            ["ingest", str(workspace), "--source-config", str(cfg),
             str(tmp_path / "nope.jsonl")],
        )
        assert result.exit_code == 1

    def test_malformed_source_config_exit_one(self, runner, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('["a"]')
        snap = tmp_path / "s.jsonl"
        write_snapshot(snap, sample_records())
        result = runner.invoke(
            main, ["ingest", str(workspace), "--source-config", str(cfg), str(snap)]
        )
        assert result.exit_code == 1
        assert "must be a JSON object" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("source_id", [
        "../../evil", "a/b", "a\\b", ".", "..",
        pytest.param("a\u0000b", id="nul"),
        pytest.param("x" * 300, id="300-bytes"),
        pytest.param("\ud800", id="lone-surrogate"),
    ])
    def test_source_id_not_a_plain_name_exit_one(self, runner, tmp_path, workspace, source_id):
        cfg = tmp_path / "cfg.json"
        write_source_config(cfg, source_id)
        snap = tmp_path / "s.jsonl"
        write_snapshot(snap, sample_records())
        before = {p for p in tmp_path.rglob("*") if workspace not in p.parents}
        ws_before = sorted(workspace.rglob("*"))
        result = runner.invoke(
            main, ["ingest", str(workspace), "--source-config", str(cfg), str(snap)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1
        assert "source_id" in result.output
        assert {p for p in tmp_path.rglob("*") if workspace not in p.parents} == before
        assert sorted(workspace.rglob("*")) == ws_before
        assert Workspace.load(workspace).load_store().version == 0

    def test_longest_source_id_ingests(self, runner, tmp_path, workspace):
        source_id = "\u00e9" * 100  # 200 UTF-8 bytes
        result = ingest_sample(runner, tmp_path, workspace, src=source_id)
        assert result.exit_code == 0, result.output
        assert (workspace / "snapshots" / f"{source_id}__v000001.jsonl").exists()
        too_long = ingest_sample(runner, tmp_path, workspace, src="x" + source_id)
        assert too_long.exit_code == 1
        assert "longer than 200 UTF-8 bytes" in too_long.output

    def test_snapshot_not_utf8_exit_one(self, runner, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        write_source_config(cfg, "srca")
        snap = tmp_path / "s.jsonl"
        snap.write_bytes(b'{"kind": "system", "id": "s\xff", "name": "ERP", "type": "application"}\n')
        result = runner.invoke(
            main, ["ingest", str(workspace), "--source-config", str(cfg), str(snap)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1
        assert "line 1: not UTF-8" in result.output
        assert Workspace.load(workspace).load_store().version == 0

    def test_committed_snapshots_archived(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        archived = list((workspace / "snapshots").glob("srca__*.jsonl"))
        assert len(archived) == 1
        assert archived[0].name == "srca__v000001.jsonl"

    def test_failed_archive_leaves_the_store_version(self, runner, tmp_path, workspace):
        (workspace / "snapshots").rmdir()
        (workspace / "snapshots").write_bytes(b"")
        result = ingest_sample(runner, tmp_path, workspace)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1
        assert b'"version":0' in (workspace / "store.json").read_bytes()
        assert list((workspace / "store").iterdir()) == []

    def test_uninitialized_workspace_exit_one(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_source_config(cfg, "srca")
        snap = tmp_path / "s.jsonl"
        write_snapshot(snap, sample_records())
        result = runner.invoke(
            main,
            ["ingest", str(tmp_path / "missing"), "--source-config", str(cfg), str(snap)],
        )
        assert result.exit_code == 1


BROKEN_SCHEMAS = [
    '{"kinds": {"system": []}}',
    '{"kinds": {',
    b"\xff\xfe",
    '{"kinds": {"system": {"fields": {"t": {"type": "enum()"}}}}}',
    None,  # a directory: a schema.json that cannot be read at all
]


@pytest.mark.parametrize("schema", BROKEN_SCHEMAS)
@pytest.mark.parametrize("command", ["ingest", "check"])
def test_malformed_schema_exit_one(runner, tmp_path, workspace, command, schema):
    schema_path = workspace / "schema.json"
    if schema is None:
        break_file(schema_path, None)
    elif isinstance(schema, bytes):
        schema_path.write_bytes(schema)
    else:
        schema_path.write_text(schema)
    cfg = tmp_path / "cfg.json"
    write_source_config(cfg, "srca")
    snap = tmp_path / "s.jsonl"
    write_snapshot(snap, sample_records())
    result = runner.invoke(main, [command, str(workspace), "--source-config", str(cfg), str(snap)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("invalid schema ")
    assert result.output.count("\n") == 1
    assert Workspace.load(workspace).load_store().version == 0


# Each entry loosens a field of the default schema that the entity build
# reads, with records that the loosened schema would let through to it.
LOOSENED_SCHEMAS = {
    "undeclared": (
        lambda kinds: kinds["system"]["fields"].pop("name"),
        [{"kind": "system", "id": "s", "type": "application"}],
    ),
    "not-required": (
        lambda kinds: kinds["system"]["fields"]["name"].update(required=False),
        [{"kind": "system", "id": "s", "type": "application"}],
    ),
    "integer": (
        lambda kinds: kinds["host"]["fields"]["hostname"].update(type="integer"),
        [{"kind": "host", "id": "h", "hostname": 5}],
    ),
    "optional-mapping": (
        lambda kinds: kinds["in_conf"]["fields"]["adapter"].update(type="mapping"),
        [{"kind": "system", "id": "s", "name": "ERP", "type": "application"},
         {"kind": "in_conf", "id": "i", "owner_system_id": "s", "interface_name": "x",
          "endpoint_address": "http://x", "adapter": {"a": 1}}],
    ),
}


@pytest.mark.parametrize("loosen, records", LOOSENED_SCHEMAS.values(), ids=LOOSENED_SCHEMAS.keys())
def test_schema_that_loosens_a_builtin_field_exit_one(runner, tmp_path, workspace, loosen, records):
    schema_path = workspace / "schema.json"
    doc = json.loads(schema_path.read_text())
    loosen(doc["kinds"])
    schema_path.write_text(json.dumps(doc))
    result = ingest_sample(runner, tmp_path, workspace, records)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"invalid schema {schema_path}: ")
    assert "a built-in field must" in result.output
    assert result.output.count("\n") == 1
    assert Workspace.load(workspace).load_store().version == 0


def test_schema_that_tightens_builtin_kinds_is_accepted(runner, tmp_path, workspace):
    schema_path = workspace / "schema.json"
    doc = json.loads(schema_path.read_text())
    kinds = doc["kinds"]
    kinds["system"]["fields"]["type"]["type"] = "enum(application,process)"
    kinds["system"]["fields"]["owner"] = {"type": "string", "required": True}
    kinds["contract"] = {"fields": {"id": {"type": "string", "required": True, "key": True}}}
    kinds["host"]["unique"] = [["hostname"]]
    del kinds["runs_on"]["refs"]["host_id"]
    schema_path.write_text(json.dumps(doc))
    records = [
        {"kind": "system", "id": "s", "name": "ERP", "type": "application", "owner": "ops"},
        {"kind": "contract", "id": "c"},
        {"kind": "host", "id": "h", "hostname": "erp.example.net"},
        {"kind": "runs_on", "id": "r", "system_id": "s", "host_id": "srcb/h"},
    ]
    result = ingest_sample(runner, tmp_path, workspace, records)
    assert result.exit_code == 0, result.output
    assert Workspace.load(workspace).load_store().version == 1


def _edited(good, change):
    """The store bytes ``good``, re-encoded after ``change`` edits the document."""
    doc = json.loads(good)
    change(doc)
    return json.dumps(doc).encode()


# Each entry turns the bytes of a valid whole store, as a store.json or
# as one source's segment, into broken ones.
BROKEN_STORES = {
    "not-utf8": lambda good: b"\xff\xfe",
    "not-json": lambda good: good[: len(good) // 2],
    "not-an-object": lambda good: b"[]",
    "no-systems": lambda good: b'{"version": 1}',
    "str-version": lambda good: good.replace(b'"version":1', b'"version":"1"'),
    "str-captured-at": lambda good: good.replace(b'"captured_at":0', b'"captured_at":"soon"'),
    "bool-captured-at": lambda good: good.replace(b'"captured_at":0', b'"captured_at":true'),
    "list-simple-props": lambda good: _edited(
        good, lambda doc: doc["systems"][0].update(simple_props=[])
    ),
    "dict-systems": lambda good: _edited(good, lambda doc: doc.update(systems={})),
    "directory": None,  # a file that cannot be read at all
}


def break_file(path, broken):
    """Replace ``path`` by what ``broken`` makes of its bytes, or by a
    directory; returns the bytes written, or None."""
    if broken is None:
        path.unlink()
        path.mkdir()
        return None
    bad = broken(path.read_bytes())
    assert bad != path.read_bytes()
    path.write_bytes(bad)
    return bad


def segment_path(workspace, source_id="srca"):
    manifest = json.loads((workspace / "store.json").read_bytes())
    return workspace / "store" / manifest["segments"][source_id]


@pytest.mark.parametrize("broken", BROKEN_STORES.values(), ids=BROKEN_STORES.keys())
@pytest.mark.parametrize("command", ["ingest", "check", "infer", "watch"])
def test_malformed_store_exit_one(runner, tmp_path, workspace, command, broken):
    # A store.json that holds the whole store, not a manifest, broken.
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    store_path = workspace / "store.json"
    legacy = store_to_json(Workspace.load(workspace).load_store())
    shutil.rmtree(workspace / "store")
    store_path.write_bytes(legacy)
    bad = break_file(store_path, broken)
    assert_unreadable_store(runner, tmp_path, workspace, command, store_path)
    assert store_path.is_dir() if bad is None else store_path.read_bytes() == bad


@pytest.mark.parametrize("command", ["ingest", "check", "infer", "watch"])
def test_whole_store_in_store_json_exit_one(runner, tmp_path, workspace, command):
    # The format before segments: store.json must be a manifest.
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    store_path = workspace / "store.json"
    whole = store_to_json(Workspace.load(workspace).load_store())
    store_path.write_bytes(whole)
    assert_unreadable_store(runner, tmp_path, workspace, command, store_path)
    assert store_path.read_bytes() == whole


@pytest.mark.parametrize("broken", BROKEN_STORES.values(), ids=BROKEN_STORES.keys())
@pytest.mark.parametrize("command", ["ingest", "check", "infer", "watch"])
def test_malformed_segment_exit_one(runner, tmp_path, workspace, command, broken):
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    manifest = (workspace / "store.json").read_bytes()
    path = segment_path(workspace)
    bad = break_file(path, broken)
    assert_unreadable_store(runner, tmp_path, workspace, command, path)
    assert path.is_dir() if bad is None else path.read_bytes() == bad
    assert (workspace / "store.json").read_bytes() == manifest


# Each entry turns a valid manifest document, listing the segment of
# srca, into a broken one; the file the message names: the manifest, or
# the segment the broken manifest lists.
BROKEN_MANIFESTS = {
    "list-segments": (lambda doc: doc.update(segments=[]), "store.json"),
    "str-version": (lambda doc: doc.update(version="1"), "store.json"),
    "extra-key": (lambda doc: doc.update(systems=[]), "store.json"),
    "int-file-name": (lambda doc: doc["segments"].update(srca=1), "store.json"),
    "name-with-slash": (lambda doc: doc["segments"].update(srca="../store.json"), "store.json"),
    "name-dot-dot": (lambda doc: doc["segments"].update(srca=".."), "store.json"),
    "missing-segment": (
        lambda doc: doc["segments"].update(srca="srca.0000000000000000.json"),
        "store/srca.0000000000000000.json",
    ),
    # srca's segment listed as srcb's: it holds another source's entities.
    "other-source": (lambda doc: doc.update(segments={"srcb": doc["segments"]["srca"]}), None),
}


@pytest.mark.parametrize("change, named", BROKEN_MANIFESTS.values(), ids=BROKEN_MANIFESTS.keys())
@pytest.mark.parametrize("command", ["ingest", "check", "infer", "watch"])
def test_malformed_manifest_exit_one(runner, tmp_path, workspace, command, change, named):
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    store_path = workspace / "store.json"
    segment = segment_path(workspace)
    segment_bytes = segment.read_bytes()
    bad = break_file(store_path, lambda good: _edited(good, change))
    named = segment if named is None else workspace / named
    assert_unreadable_store(runner, tmp_path, workspace, command, named)
    assert store_path.read_bytes() == bad
    assert segment.read_bytes() == segment_bytes


def assert_unreadable_store(runner, tmp_path, workspace, command, path):
    """``command`` exits 1 with one line naming the unreadable store file
    ``path``, and writes no ledger."""
    cfg, snap, drop = tmp_path / "srca.json", tmp_path / "s.jsonl", tmp_path / "drop"
    write_snapshot(snap, sample_records("2"))
    drop.mkdir()
    write_snapshot(drop / "srca__two.jsonl", sample_records("2"))
    args = {
        "ingest": ["ingest", str(workspace), "--source-config", str(cfg), str(snap)],
        "check": ["check", str(workspace), "--source-config", str(cfg), str(snap)],
        "infer": ["infer", str(workspace)],
        "watch": ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"unreadable store {path}: ")
    assert result.output.count("\n") == 1
    assert not (workspace / "watch_ledger.json").exists()


# A ledger must be a JSON object of file names to digests.
BROKEN_LEDGERS = {
    "truncated": b"[1,2",
    "list": b"[]",
    "not-utf8": b"\xff\xfe",
    "int-digest": b'{"srca__one.jsonl": 1}',
    "directory": None,  # a ledger that cannot be read at all
}


@pytest.mark.parametrize("ledger", BROKEN_LEDGERS.values(), ids=BROKEN_LEDGERS.keys())
def test_malformed_ledger_exit_one(runner, tmp_path, workspace, ledger):
    ws = Workspace.load(workspace)
    cfg = tmp_path / "srca.json"
    write_source_config(cfg, "srca")
    ws.register_source(cfg)
    drop = tmp_path / "drop"
    drop.mkdir()
    write_snapshot(drop / "srca__one.jsonl", sample_records())
    ledger_path = workspace / "watch_ledger.json"
    if ledger is None:
        ledger_path.mkdir()
    else:
        ledger_path.write_bytes(ledger)
    result = runner.invoke(
        main, ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"unreadable ledger {ledger_path}: ")
    assert result.output.count("\n") == 1
    assert ledger_path.is_dir() if ledger is None else ledger_path.read_bytes() == ledger
    assert ws.load_store().version == 0


# Each entry turns the bytes of a valid network export into broken ones.
BROKEN_NETWORKS = {
    "not-utf8": lambda good: b"\xff\xfe",
    "truncated": lambda good: good[: len(good) // 2],
    "not-an-object": lambda good: b"[]",
    "no-spaces": lambda good: _edited(good, lambda doc: doc.pop("spaces")),
    "list-props": lambda good: _edited(
        good, lambda doc: doc["spaces"][1]["participants"][0].update(props=[])
    ),
    "directory": None,  # a network file that cannot be read at all
}


@pytest.mark.parametrize("broken", BROKEN_NETWORKS.values(), ids=BROKEN_NETWORKS.keys())
@pytest.mark.parametrize(
    "head, tail",
    [(["export"], ["--format", "json"]), (["export"], ["--format", "graphml"]),
     (["export"], ["--format", "dot"]), (["query", "search"], ["erp"]),
     (["query", "traverse"], ["srca/erp"])],
    ids=["json", "graphml", "dot", "search", "traverse"],
)
def test_malformed_network_exit_one(runner, tmp_path, workspace, head, tail, broken):
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    assert runner.invoke(main, ["infer", str(workspace)]).exit_code == 0
    ws = Workspace.load(workspace)
    path = ws.latest_network_path()
    if broken is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(broken(path.read_bytes()))
    result = runner.invoke(main, [*head, str(workspace), *tail])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"unreadable network {path}: ")
    assert result.output.count("\n") == 1


# A networks/LATEST that cannot be read, or does not name a version.
BROKEN_POINTERS = {"directory": None, "not-utf8": b"\xff\xfe", "escapes": b"../store"}


@pytest.mark.parametrize("pointer", BROKEN_POINTERS.values(), ids=BROKEN_POINTERS.keys())
@pytest.mark.parametrize(
    "head, tail", [(["export"], []), (["query", "search"], ["erp"])], ids=["export", "search"]
)
def test_unreadable_latest_pointer_exit_one(runner, tmp_path, workspace, head, tail, pointer):
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    assert runner.invoke(main, ["infer", str(workspace)]).exit_code == 0
    latest = workspace / "networks" / "LATEST"
    break_file(latest, None if pointer is None else lambda good: pointer)
    result = runner.invoke(main, [*head, str(workspace), *tail])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"unreadable network pointer {latest}: ")
    assert result.output.count("\n") == 1


def test_init_over_a_regular_file_exit_one(runner, tmp_path):
    target = tmp_path / "afile"
    target.write_text("kept")
    result = runner.invoke(main, ["init", str(target)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "File exists" in result.stderr
    assert target.read_text() == "kept"


def test_closed_stdout_exit_one_without_a_message(runner, tmp_path, workspace, monkeypatch):
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    assert runner.invoke(main, ["infer", str(workspace)]).exit_code == 0

    def closed(data):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "_emit_bytes", closed)
    result = runner.invoke(main, ["export", str(workspace)])
    assert result.exit_code == 1
    assert result.stderr == ""


class TestCheckCommand:
    def test_clean_snapshot(self, runner, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        write_source_config(cfg, "srca")
        snap = tmp_path / "s.jsonl"
        write_snapshot(snap, sample_records())
        result = runner.invoke(
            main, ["check", str(workspace), "--source-config", str(cfg), str(snap)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["accepted"] is True
        # Dry run: the store was not touched.
        assert Workspace.load(workspace).load_store().version == 0


    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_line_separators_inside_strings_are_not_line_ends(
        self, runner, tmp_path, workspace, newline
    ):
        cfg = tmp_path / "cfg.json"
        write_source_config(cfg, "srca")
        records = sample_records("\u2028\u2029\x85")
        snap = tmp_path / "s.jsonl"
        snap.write_bytes(
            newline.join(json.dumps(r, ensure_ascii=False) for r in records).encode() + b"\n"
        )
        assert "\u2028".encode() in snap.read_bytes()
        result = runner.invoke(
            main, ["check", str(workspace), "--source-config", str(cfg), str(snap)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["accepted"] is True


class TestInferCommand:
    def test_empty_store(self, runner, workspace):
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["participants"] == 0

    def test_counts_after_ingest(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["participants"] == 2
        assert doc["flows"] == 1

    def test_malformed_rules_exit_two_with_line(self, runner, tmp_path, workspace):
        rules = workspace / "rules.dl"
        rules.write_text("p(X) :-\n")
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 2
        assert result.stderr == f"{rules}: line 1, column 8: unexpected end of input in rule body\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p(X) :- system(X, _, _).\np(X, Y) :- system(X, Y, _).\n",
             "line 2, column 1: arity conflict for p: 1 vs 2"),
            ("equiv_sys(A) :- system(A, _, _).\n", "arity conflict for equiv_sys: 2 vs 1"),
            ("equiv_sys(A, B) :- system(A, _, _), system(B, _, _), not p(A).\n"
             "p(A) :- equiv_sys(A, _).\n",
             "program is not stratifiable: negative cycle p -> equiv_sys -> p"),
        ],
        ids=["arity-within-the-file", "arity-against-a-built-in", "negative-cycle"],
    )
    def test_rule_error_names_the_rules_file_exit_two(
        self, runner, tmp_path, workspace, text, message
    ):
        rules = workspace / "rules.dl"
        rules.write_text(text)
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{rules}: {message}\n"

    def test_rules_not_utf8_exit_one(self, runner, tmp_path, workspace):
        rules = workspace / "rules.dl"
        rules.write_bytes(b"\xff\xfe")
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith(f"unreadable rules file {rules}: ")
        assert result.stderr.count("\n") == 1

    def test_rules_option_is_a_usage_error(self, runner, tmp_path, workspace):
        rules = tmp_path / "rules.dl"
        rules.write_text(MERGE_SPACE_RULES)
        result = runner.invoke(main, ["infer", str(workspace), "--rules", str(rules)])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--rules" in result.stderr
        assert Workspace.load(workspace).latest_network_bytes() is None

    def test_networks_not_a_directory_exit_one(self, runner, tmp_path, workspace):
        assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
        networks = workspace / "networks"
        networks.rmdir()
        networks.write_text("")
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert str(networks) in result.stderr

    def test_negative_cycle_the_lift_never_reads_exit_two_with_one_line(
        self, runner, tmp_path, workspace
    ):
        ingest_sample(runner, tmp_path, workspace)
        (workspace / "rules.dl").write_text(
            "p(X) :- system(X, _, _), not q(X).\n"
            "q(X) :- system(X, _, _), not p(X).\n"
        )
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"{workspace / 'rules.dl'}: program is not stratifiable: negative cycle q -> p -> q\n"
        )
        assert Workspace.load(workspace).latest_network_bytes() is None

    def test_extra_rules_applied(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        (workspace / "rules.dl").write_text(MERGE_SPACE_RULES)
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 0
        assert json.loads(result.output)["participants"] == 1
        # Edited, the file takes effect at the next infer.
        (workspace / "rules.dl").write_text("% no rules\n")
        result = runner.invoke(main, ["infer", str(workspace)])
        assert json.loads(result.output)["participants"] == 2

    def test_rule_that_redefines_a_raw_predicate_exit_two_with_one_line(
        self, runner, tmp_path, workspace
    ):
        (workspace / "rules.dl").write_text('system(X, "n", "k") :- host(X, _).\n')
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"{workspace / 'rules.dl'}: extra rules may not redefine raw predicates: system\n"
        )

    @pytest.mark.parametrize(
        "records, message",
        [
            (cross_space_records(), "'srca/a' -> 'srca/p' crosses spaces"),
            (same_space_flow_link_records(), "must bridge different spaces"),
        ],
        ids=["cross-space-flow", "same-space-flow-link"],
    )
    def test_store_that_does_not_lift_exit_two_with_one_line(
        self, runner, tmp_path, workspace, records, message
    ):
        assert ingest_sample(runner, tmp_path, workspace, records).exit_code == 0
        result = runner.invoke(main, ["infer", str(workspace)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr
        assert Workspace.load(workspace).latest_network_bytes() is None


class TestExportCommand:
    def test_json_byte_stable(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        runner.invoke(main, ["infer", str(workspace)])
        a = runner.invoke(main, ["export", str(workspace), "--format", "json"])
        b = runner.invoke(main, ["export", str(workspace), "--format", "json"])
        assert a.exit_code == 0
        assert a.stdout_bytes == b.stdout_bytes

    def test_no_network_exit_one(self, runner, workspace):
        result = runner.invoke(main, ["export", str(workspace)])
        assert result.exit_code == 1

    def test_dot_parses(self, runner, tmp_path, workspace):
        from oracles import parse_dot

        ingest_sample(runner, tmp_path, workspace)
        runner.invoke(main, ["infer", str(workspace)])
        result = runner.invoke(main, ["export", str(workspace), "--format", "dot"])
        assert result.exit_code == 0
        nodes, edges = parse_dot(result.stdout_bytes.decode())
        assert len(nodes) == 2 and len(edges) == 1

    def test_unknown_format_exit_two(self, runner, tmp_path, workspace):
        result = runner.invoke(main, ["export", str(workspace), "--format", "svg"])
        assert result.exit_code == 2


class TestQueryCommand:
    def test_search_matches_api(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        runner.invoke(main, ["infer", str(workspace)])
        result = runner.invoke(main, ["query", "search", str(workspace), "erp"])
        assert result.exit_code == 0
        assert json.loads(result.output) == ["srca/erp"]

    def test_traverse_fragment(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        runner.invoke(main, ["infer", str(workspace)])
        result = runner.invoke(
            main,
            ["query", "traverse", str(workspace), "srca/erp", "--depth", "1"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout_bytes)
        names = {
            p["id"] for s in doc["spaces"] for p in s["participants"]
        }
        assert names == {"srca/erp", "srca/crm"}

    def test_traverse_unknown_start(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        runner.invoke(main, ["infer", str(workspace)])
        result = runner.invoke(
            main, ["query", "traverse", str(workspace), "ghost"]
        )
        assert result.exit_code == 2
        assert result.output == "unknown participant 'ghost'\n"

    def test_traverse_negative_depth_is_a_usage_error(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        runner.invoke(main, ["infer", str(workspace)])
        result = runner.invoke(
            main, ["query", "traverse", str(workspace), "srca/erp", "--depth", "-1"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "Invalid value for '--depth'" in result.stderr


class TestWatch:
    def test_watch_processes_each_file_once(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)

        drop = tmp_path / "drop"
        drop.mkdir()
        watcher = SnapshotWatcher(ws, drop)

        write_snapshot(drop / "srca__one.jsonl", sample_records())
        outcomes = watcher.poll_once()
        assert outcomes == [("srca__one.jsonl", "committed")]
        assert ws.load_store().version == 1

        # Identical re-drop: ledger suppresses it.
        outcomes = watcher.poll_once()
        assert outcomes == []
        assert ws.load_store().version == 1

        # Changed content under the same name is picked up again.
        write_snapshot(drop / "srca__one.jsonl", sample_records("v2"))
        outcomes = watcher.poll_once()
        assert outcomes == [("srca__one.jsonl", "committed")]
        assert ws.load_store().version == 2

    def test_watch_failures_do_not_stop_loop(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        (drop / "srca__bad.jsonl").write_text("{nope\n")
        write_snapshot(drop / "srca__good.jsonl", sample_records())
        watcher = SnapshotWatcher(ws, drop)
        outcomes = dict(watcher.poll_once())
        assert outcomes["srca__bad.jsonl"] == "load-error"
        assert outcomes["srca__good.jsonl"] == "committed"

    def test_unregistered_source_skipped(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "mystery__x.jsonl", sample_records())
        watcher = SnapshotWatcher(ws, drop)
        outcomes = dict(watcher.poll_once())
        assert outcomes["mystery__x.jsonl"] == "no-source-config"

    def test_unregistered_source_retried_once_registered(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "late__x.jsonl", sample_records())
        watcher = SnapshotWatcher(ws, drop)
        assert watcher.poll_once() == [("late__x.jsonl", "no-source-config")]
        assert watcher.poll_once() == [("late__x.jsonl", "no-source-config")]
        assert not ws.ledger_path.exists()
        assert ws.load_store().version == 0

        cfg = tmp_path / "late.json"
        write_source_config(cfg, "late")
        ws.register_source(cfg)
        assert watcher.poll_once() == [("late__x.jsonl", "committed")]
        assert ws.load_store().version == 1
        assert ws.latest_network_bytes() is not None
        assert watcher.poll_once() == []

    def test_broken_source_config_skipped_and_retried(self, tmp_path, runner, workspace, caplog):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        (ws.sources_dir / "srca.json").write_text("[1]")
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "srca__1.jsonl", sample_records())
        args = ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "srca.json must be a JSON object" in caplog.text
        watcher = SnapshotWatcher(ws, drop)
        assert watcher.poll_once() == [("srca__1.jsonl", "no-source-config")]
        assert not ws.ledger_path.exists()
        assert ws.load_store().version == 0

        ws.register_source(cfg)
        assert watcher.poll_once() == [("srca__1.jsonl", "committed")]
        assert ws.load_store().version == 1

    def test_unreadable_file_is_a_load_error_and_retried(self, tmp_path, runner, workspace, caplog):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        (drop / "srca__dir.jsonl").mkdir()
        (drop / "srca__zdir.jsonl").mkdir()
        write_snapshot(drop / "srca__good.jsonl", sample_records())
        watcher = SnapshotWatcher(ws, drop)
        assert watcher.poll_once() == [
            ("srca__dir.jsonl", "load-error"), ("srca__good.jsonl", "committed"),
            ("srca__zdir.jsonl", "load-error"),
        ]
        assert watcher.poll_once() == [("srca__dir.jsonl", "load-error"), ("srca__zdir.jsonl", "load-error")]
        for name in ("srca__dir.jsonl", "srca__zdir.jsonl"):
            (drop / name).rmdir()
            write_snapshot(drop / name, sample_records("v2"))
        # Both are read again; the one named before the committed file
        # never commits over it, as a batch run in name order would not.
        assert watcher.poll_once() == [("srca__dir.jsonl", "rejected"), ("srca__zdir.jsonl", "committed")]
        assert "rejected srca__dir.jsonl: superseded by srca__good.jsonl" in caplog.text
        assert ws.load_store().version == 2
        assert json.loads(ws.ledger_path.read_text()).keys() == {"srca__good.jsonl", "srca__zdir.jsonl"}

    def test_snapshot_not_utf8_is_a_load_error(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        (drop / "srca__bad.jsonl").write_bytes(b'{"kind": "host", "id": "\xff"}\n')
        write_snapshot(drop / "srca__good.jsonl", sample_records())
        outcomes = SnapshotWatcher(ws, drop).poll_once()
        assert outcomes == [("srca__bad.jsonl", "load-error"), ("srca__good.jsonl", "committed")]

    def test_empty_directory_no_version_change(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        drop = tmp_path / "drop"
        drop.mkdir()
        watcher = SnapshotWatcher(ws, drop)
        assert watcher.poll_once() == []
        assert ws.latest_network_bytes() is None

    def test_watch_command_with_cycles(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "srca__one.jsonl", sample_records())
        result = runner.invoke(
            main,
            ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"],
        )
        assert result.exit_code == 0
        assert ws.load_store().version == 1

    @pytest.mark.parametrize(
        "option, value", [("--interval", "-1"), ("--cycles", "-3")]
    )
    def test_watch_rejects_negative_interval_and_cycles(
        self, tmp_path, runner, workspace, option, value
    ):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "srca__one.jsonl", sample_records())
        args = ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
        result = runner.invoke(main, args + [option, value])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        # A usage error polls nothing.
        assert ws.load_store().version == 0

    def test_store_that_does_not_lift_is_logged_and_not_published(
        self, tmp_path, runner, workspace, caplog
    ):
        ws = Workspace.load(workspace)
        assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
        assert runner.invoke(main, ["infer", str(workspace)]).exit_code == 0
        latest = ws.latest_network_bytes()
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "srca__1.jsonl", cross_space_records())
        args = ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
        caplog.set_level(logging.INFO)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "crosses spaces" in warnings[0]
        # Committed and ledgered, as ingest + infer would leave it.
        assert ws.load_store().version == 2
        assert len(json.loads(ws.ledger_path.read_text())) == 1
        assert ws.latest_network_bytes() == latest

        # The file is ledgered, so a second watch finds nothing to do.
        caplog.clear()
        assert runner.invoke(main, args).exit_code == 0
        assert ws.latest_network_bytes() == latest

        # A fixing snapshot commits and publishes again.
        write_snapshot(drop / "srca__2.jsonl", sample_records("v2"))
        assert runner.invoke(main, args).exit_code == 0
        assert ws.load_store().version == 3
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        assert ws.latest_network_bytes() not in (None, latest)

    def test_watch_stops_on_malformed_schema_and_retries_later(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "srca__one.jsonl", sample_records())
        good_schema = ws.schema_path.read_bytes()
        ws.schema_path.write_text('{"kinds": {"system": []}}')
        args = ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.startswith("invalid schema ")
        ws.schema_path.write_bytes(good_schema)
        assert runner.invoke(main, args).exit_code == 0
        assert ws.load_store().version == 1

    def test_watch_stops_on_unreadable_schema(self, tmp_path, runner, workspace):
        ws = Workspace.load(workspace)
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        ws.register_source(cfg)
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "srca__one.jsonl", sample_records())
        break_file(ws.schema_path, None)
        args = ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"invalid schema {ws.schema_path}: cannot read: ")
        assert result.stderr.count("\n") == 1
        assert ws.load_store().version == 0


# The snapshot lines of the README's quickstart, with its source config.
README_CONFIG = {"source_id": "sld", "source_type": "landscape-directory",
                 "mapping": {"sysName": "name", "sysId": "object_id"}}
README_SAMPLE = [
    {"kind": "system", "sysId": "S01", "sysName": "ERP", "type": "application"},
    {"kind": "host", "id": "H01", "hostname": "erp-host.example.net"},
    {"kind": "runs_on", "id": "R01", "system_id": "S01", "host_id": "H01"},
]
BLANK_HOSTNAME = [{"kind": "host", "id": "h1", "hostname": "   "}]

# Per case, the finding code its report must hold (None: it commits)
# and its records: the README sample, one file per finding code that a
# snapshot file can produce, and a blank hostname.
GATE_CORPUS = {
    "readme-sample": (None, README_SAMPLE),
    "missing-field": ("MISSING_FIELD", [{"kind": "system", "id": "S01", "name": "ERP"}]),
    "type-mismatch": ("TYPE_MISMATCH", [{"kind": "host", "id": "H01", "hostname": 5}]),
    "enum-violation": ("ENUM_VIOLATION", [
        {"kind": "system", "id": "S01", "name": "ERP", "type": "tenant"},
    ]),
    "dangling-ref": ("DANGLING_REF", README_SAMPLE[:1] + README_SAMPLE[2:]),
    "duplicate-key": ("DUPLICATE_KEY", README_SAMPLE[1:2] * 2),
    "unknown-kind": ("UNKNOWN_KIND", [{"kind": "widget", "id": "W01"}]),
    "malformed-record": ("MALFORMED_RECORD", [{"id": "X01", "name": "no kind"}]),
    "blank-hostname": ("TYPE_MISMATCH", BLANK_HOSTNAME),
}


@pytest.mark.parametrize("case", list(GATE_CORPUS))
def test_check_previews_ingest(runner, tmp_path, workspace, case):
    code, records = GATE_CORPUS[case]
    if code == "ENUM_VIOLATION":
        schema = json.loads((workspace / "schema.json").read_text())
        schema["kinds"]["system"]["fields"]["type"]["type"] = "enum(application, middleware)"
        (workspace / "schema.json").write_text(json.dumps(schema))
    cfg = tmp_path / "sld.json"
    cfg.write_text(json.dumps(README_CONFIG))
    snap = tmp_path / "sld.jsonl"
    write_snapshot(snap, records)
    args = [str(workspace), "--source-config", str(cfg), str(snap)]
    check = runner.invoke(main, ["check", *args])
    ingest = runner.invoke(main, ["ingest", *args])
    assert (check.exit_code, ingest.exit_code) == ((0, 0) if code is None else (2, 2))
    assert check.stderr == ingest.stderr == ""
    if code is None:
        # Only the output of a commit differs: check saves nothing.
        assert check.stdout == '{"accepted":true,"findings":[]}\n'
        assert json.loads(ingest.stdout)["store_version"] == 1
    else:
        assert check.stdout_bytes == ingest.stdout_bytes
        assert code in {f["code"] for f in json.loads(check.stdout)["findings"]}
        assert Workspace.load(workspace).load_store().version == 0


def test_watch_rejects_a_blank_hostname_and_commits_another_source(
    runner, tmp_path, workspace, caplog
):
    ws = Workspace.load(workspace)
    for src in ("a", "s"):
        write_source_config(tmp_path / f"{src}.json", src)
        ws.register_source(tmp_path / f"{src}.json")
    drop = tmp_path / "drop"
    drop.mkdir()
    write_snapshot(drop / "a__1.jsonl", sample_records())
    write_snapshot(drop / "s__1.jsonl", BLANK_HOSTNAME)
    args = ["watch", str(workspace), str(drop), "--interval", "0", "--cycles", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "rejected s__1.jsonl: 1 findings" in caplog.text
    assert ws.load_store().version == 1
    assert [e.origin.source_id for e in ws.load_store().entities()] == ["a"] * 4
    assert sorted(json.loads(ws.ledger_path.read_text())) == ["a__1.jsonl"]
    assert ws.latest_network_bytes() is not None


def test_a_lone_surrogate_exits_one_and_is_a_load_error_under_watch(runner, tmp_path, workspace):
    cfg = tmp_path / "srca.json"
    write_source_config(cfg, "srca")
    snap = tmp_path / "srca__1.jsonl"
    snap.write_text('{"kind": "system", "id": "a", "name": "X\\ud800", "type": "t"}\n')
    for command in ("check", "ingest"):
        result = runner.invoke(main, [command, str(workspace), "--source-config", str(cfg), str(snap)])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"{snap}: line 1: lone surrogate in a string\n"
    ws = Workspace.load(workspace)
    ws.register_source(cfg)
    drop = tmp_path / "drop"
    drop.mkdir()
    shutil.copy(snap, drop)
    assert SnapshotWatcher(ws, drop).poll_once() == [("srca__1.jsonl", "load-error")]
    assert ws.load_store().version == 0


class TestNestingBound:
    @pytest.mark.parametrize("command", ["check", "ingest"])
    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 900, 100_000])
    def test_too_deep_a_line_exit_one_with_one_line(
        self, runner, tmp_path, workspace, command, levels
    ):
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        snap = tmp_path / "deep.jsonl"
        snap.write_text(json.dumps(sample_records()[0]) + "\n" + nested_line(levels) + "\n")
        result = runner.invoke(main, [command, str(workspace), "--source-config", str(cfg), str(snap)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"{snap}: line 2: nested deeper than {MAX_NESTING} levels\n"

    def test_watch_keeps_a_too_deep_file_as_a_load_error(self, tmp_path, workspace, monkeypatch):
        ws = Workspace.load(workspace)
        for src in ("a", "s"):
            write_source_config(tmp_path / f"{src}.json", src)
            ws.register_source(tmp_path / f"{src}.json")
        drop = tmp_path / "drop"
        drop.mkdir()
        write_snapshot(drop / "a__1.jsonl", sample_records())
        (drop / "s__1.jsonl").write_text(nested_line(100_000) + "\n")
        (drop / "s__2.jsonl").write_text(nested_line(900) + "\n")
        watcher = SnapshotWatcher(ws, drop)
        assert watcher.poll_once() == [
            ("a__1.jsonl", "committed"), ("s__1.jsonl", "load-error"), ("s__2.jsonl", "load-error"),
        ]
        # Not ledgered: the next poll keeps both outcomes without parsing either.
        monkeypatch.setattr(workspace_mod, "load_snapshot", None)
        assert watcher.poll_once() == [("s__1.jsonl", "load-error"), ("s__2.jsonl", "load-error")]
        assert json.loads(ws.ledger_path.read_text()).keys() == {"a__1.jsonl"}
        assert ws.load_store().version == 1

    def test_a_payload_nested_to_the_bound_is_served(self, runner, tmp_path, workspace):
        cfg = tmp_path / "srca.json"
        write_source_config(cfg, "srca")
        snap = tmp_path / "deep.jsonl"
        snap.write_text(nested_line(MAX_NESTING, "needle") + "\n")
        payload = json.loads(snap.read_text())["cfg"]
        args = [str(workspace), "--source-config", str(cfg), str(snap)]
        assert runner.invoke(main, ["ingest", *args]).exit_code == 0
        assert runner.invoke(main, ["infer", str(workspace)]).exit_code == 0
        exported = runner.invoke(main, ["export", str(workspace)])
        assert exported.exit_code == 0
        spaces = json.loads(exported.stdout)["spaces"]
        [participant] = [p for space in spaces for p in space["participants"]]
        assert participant["complex_props"][0]["payload"] == payload
        search = runner.invoke(main, ["query", "search", str(workspace), "deep"])
        assert json.loads(search.stdout) == ["srca/D01"]
        fragment = runner.invoke(main, ["query", "traverse", str(workspace), "srca/D01"])
        assert fragment.exit_code == 0
        assert "needle" in fragment.stdout
