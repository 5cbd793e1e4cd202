import json

import pytest
from click.testing import CliRunner

from netloom.cli import main
from netloom.workspace import SnapshotWatcher, Workspace


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
        digest1 = ws.load_store().content_digest()
        result = ingest_sample(runner, tmp_path, workspace)
        assert result.exit_code == 0
        assert ws.load_store().content_digest() == digest1

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

    def test_committed_snapshots_archived(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        archived = list((workspace / "snapshots").glob("srca__*.jsonl"))
        assert len(archived) == 1
        assert archived[0].name == "srca__v000001.jsonl"

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


BROKEN_SCHEMAS = ['{"kinds": {"system": []}}', '{"kinds": {', b"\xff\xfe"]


@pytest.mark.parametrize("schema", BROKEN_SCHEMAS)
@pytest.mark.parametrize("command", ["ingest", "check"])
def test_malformed_schema_exit_one(runner, tmp_path, workspace, command, schema):
    schema_path = workspace / "schema.json"
    if isinstance(schema, bytes):
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


# Each entry turns the bytes of a valid store.json into broken ones.
BROKEN_STORES = {
    "not-utf8": lambda good: b"\xff\xfe",
    "not-json": lambda good: good[: len(good) // 2],
    "not-an-object": lambda good: b"[]",
    "no-systems": lambda good: b'{"version": 1}',
    "str-version": lambda good: good.replace(b'"version":1', b'"version":"1"'),
    "str-captured-at": lambda good: good.replace(b'"captured_at":0', b'"captured_at":"soon"'),
    "bool-captured-at": lambda good: good.replace(b'"captured_at":0', b'"captured_at":true'),
}


@pytest.mark.parametrize("broken", BROKEN_STORES.values(), ids=BROKEN_STORES.keys())
@pytest.mark.parametrize("command", ["ingest", "check", "infer", "watch"])
def test_malformed_store_exit_one(runner, tmp_path, workspace, command, broken):
    assert ingest_sample(runner, tmp_path, workspace).exit_code == 0
    store_path = workspace / "store.json"
    bad = broken(store_path.read_bytes())
    assert bad != store_path.read_bytes()
    store_path.write_bytes(bad)
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
    assert result.output.startswith(f"unreadable store {store_path}: ")
    assert result.output.count("\n") == 1
    assert store_path.read_bytes() == bad
    assert not (workspace / "watch_ledger.json").exists()


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
        rules = tmp_path / "rules.dl"
        rules.write_text("p(X) :-\n")
        result = runner.invoke(main, ["infer", str(workspace), "--rules", str(rules)])
        assert result.exit_code == 2
        assert "line" in result.stderr

    def test_extra_rules_applied(self, runner, tmp_path, workspace):
        ingest_sample(runner, tmp_path, workspace)
        rules = tmp_path / "rules.dl"
        rules.write_text(
            'equiv_sys(A, B) :- system(A, _, _), system(B, _, _), '
            'prop(A, "space", SP), prop(B, "space", SP).\n'
        )
        result = runner.invoke(main, ["infer", str(workspace), "--rules", str(rules)])
        assert result.exit_code == 0
        assert json.loads(result.output)["participants"] == 1


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
