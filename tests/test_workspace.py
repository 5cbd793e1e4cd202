import hashlib
import json
import random
from pathlib import Path

import pytest

import netloom.workspace as workspace_mod
from netloom.ingest import IngestError
from netloom.model import RawStore
from netloom.network import emit
from netloom.reconstruct import reconstruct
from netloom.workspace import SnapshotWatcher, Workspace, write_atomic

from generators import make_scenario
from helpers import store_from_sources


def fail_replace(self, target):
    raise OSError("replace failed")


def file_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_write_atomic_failed_replace_keeps_old_bytes(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    target.write_bytes(b"old")
    monkeypatch.setattr(Path, "replace", fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_atomic(target, b"new")
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]


def test_workspace_writes_leave_old_files_when_replace_fails(tmp_path, monkeypatch):
    ws = Workspace.init(tmp_path / "ws")
    records = [{"kind": "system", "id": "s1", "name": "ERP", "type": "application"}]
    ws.save_store(store_from_sources({"srca": records}))
    ws.publish_network(emit(reconstruct(ws.load_store())))
    watcher = SnapshotWatcher(ws, tmp_path)
    watcher._ledger["srca__one.jsonl"] = "digest-one"
    watcher._save_ledger()
    before = file_bytes(ws.root)

    bigger = store_from_sources({"srca": records, "srcb": records})
    monkeypatch.setattr(Path, "replace", fail_replace)
    with pytest.raises(OSError):
        ws.save_store(bigger)
    with pytest.raises(OSError):
        ws.publish_network(emit(reconstruct(bigger)))
    watcher._ledger["srca__two.jsonl"] = "digest-two"
    with pytest.raises(OSError):
        watcher._save_ledger()

    assert file_bytes(ws.root) == before
    assert not list(ws.root.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# Polls that hold several files


def snapshot_bytes(records: list[dict]) -> bytes:
    return ("\n".join(json.dumps(r) for r in records) + "\n").encode()


def register_sources(ws: Workspace, sources, config_dir: Path) -> None:
    for src in sources:
        cfg = config_dir / f"{src}-config.json"
        cfg.write_text(json.dumps({"source_id": src, "source_type": "t"}))
        ws.register_source(cfg)


def mixed_drop(seed: int) -> tuple[list[str], dict[str, bytes]]:
    """A scenario's sources plus the files of one poll: one per source,
    a second version of some sources, a rejected and a malformed file,
    all under random suffixes so that name order decides which version
    of a source commits last."""
    rng = random.Random(seed)
    scenario = make_scenario(rng, n_systems=8, n_flows=10, n_sources=3)
    sources = sorted(scenario.source_records)
    files: dict[str, bytes] = {}

    def drop(src: str, data: bytes) -> None:
        files[f"{src}__{rng.getrandbits(32):08x}.jsonl"] = data

    for src in sources:
        drop(src, snapshot_bytes(scenario.source_records[src]))
    for src in rng.sample(sources, 2):
        revised = [dict(r, rev="2") if r["kind"] == "system" else r
                   for r in scenario.source_records[src]]
        drop(src, snapshot_bytes(revised))
    dangling = {"kind": "runs_on", "id": "ghost-ro", "system_id": "ghost", "host_id": "ghost-h"}
    src = rng.choice(sources)
    drop(src, snapshot_bytes([*scenario.source_records[src], dangling]))
    drop(rng.choice(sources), b"{nope\n")
    names = list(files)
    rng.shuffle(names)
    return sources, {name: files[name] for name in names}


@pytest.mark.parametrize("seed", range(6))
def test_one_poll_of_many_files_equals_sequential_ingests(tmp_path, seed):
    sources, files = mixed_drop(seed)

    # Reference: one Workspace.ingest per file in name order, then infer.
    batch = Workspace.init(tmp_path / "batch")
    register_sources(batch, sources, tmp_path)
    expected = []
    for name in sorted(files):
        path = tmp_path / "batch-in" / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(files[name])
        try:
            result = batch.ingest(batch.get_source(name.split("__", 1)[0]), path)
        except IngestError:
            expected.append((name, "load-error"))
            continue
        expected.append((name, "committed" if isinstance(result, RawStore) else "rejected"))
    version = batch.infer().version

    ws = Workspace.init(tmp_path / "watched")
    register_sources(ws, sources, tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    for name, data in files.items():  # written in shuffled order
        (drop / name).write_bytes(data)
    outcomes = SnapshotWatcher(ws, drop).poll_once()

    assert outcomes == expected
    assert {o for _, o in outcomes} == {"committed", "rejected", "load-error"}
    assert ws.store_path.read_bytes() == batch.store_path.read_bytes()
    assert ws.load_store().version == batch.load_store().version
    assert file_bytes(ws.snapshots_dir) == file_bytes(batch.snapshots_dir)
    assert (ws.networks_dir / "LATEST").read_bytes() == version.encode()
    assert file_bytes(ws.networks_dir) == file_bytes(batch.networks_dir)


def test_poll_loads_and_saves_the_store_once(tmp_path, monkeypatch):
    sources, files = mixed_drop(7)
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, sources, tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    for name, data in files.items():
        (drop / name).write_bytes(data)
    calls = {"store_from_json": 0, "store_to_json": 0}

    def counting(name):
        real = getattr(workspace_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(workspace_mod, name, counting(name))
    outcomes = SnapshotWatcher(ws, drop).poll_once()
    committed = sum(1 for _, o in outcomes if o == "committed")
    assert committed >= 3
    assert calls == {"store_from_json": 1, "store_to_json": 1}
    assert ws.load_store().version == committed


def test_failed_save_leaves_workspace_and_ledger_for_next_poll(tmp_path, monkeypatch):
    sources, files = mixed_drop(8)
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, sources, tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    first = min(name for name, data in files.items() if b"ghost" not in data and data != b"{nope\n")
    rest = sorted(set(files) - {first})
    (drop / first).write_bytes(files[first])
    watcher = SnapshotWatcher(ws, drop)
    assert watcher.poll_once() == [(first, "committed")]
    for name in rest:
        (drop / name).write_bytes(files[name])
    before = file_bytes(ws.root)

    def fail_save(self, store):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(Workspace, "save_store", fail_save)
        with pytest.raises(OSError, match="disk full"):
            watcher.poll_once()
    assert file_bytes(ws.root) == before

    outcomes = watcher.poll_once()
    assert [name for name, _ in outcomes] == rest
    assert {o for _, o in outcomes} == {"committed", "rejected", "load-error"}
    assert ws.load_store().version == 1 + sum(1 for _, o in outcomes if o == "committed")
    assert json.loads(ws.ledger_path.read_text()).keys() == {first, *rest}
    assert watcher.poll_once() == []


def test_poll_digests_commits_and_archives_the_bytes_it_read(tmp_path, monkeypatch):
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, ["srca"], tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    path = drop / "srca__one.jsonl"
    first = snapshot_bytes([{"kind": "system", "id": "s1", "name": "ERP", "type": "application"}])
    second = snapshot_bytes([{"kind": "system", "id": "s2", "name": "CRM", "type": "application"}])
    path.write_bytes(first)
    real_read = workspace_mod.read_snapshot

    def read_then_rewrite(p):
        # A writer replaces the file right after the poll has read it.
        data = real_read(p)
        Path(p).write_bytes(second)
        return data

    monkeypatch.setattr(workspace_mod, "read_snapshot", read_then_rewrite)
    watcher = SnapshotWatcher(ws, drop)
    assert watcher.poll_once() == [("srca__one.jsonl", "committed")]
    assert set(ws.load_store().systems) == {"srca/s1"}
    assert (ws.snapshots_dir / "srca__v000001.jsonl").read_bytes() == first
    ledger = json.loads(ws.ledger_path.read_text())
    assert ledger == {"srca__one.jsonl": hashlib.sha256(first).hexdigest()}

    monkeypatch.undo()
    assert watcher.poll_once() == [("srca__one.jsonl", "committed")]
    assert set(ws.load_store().systems) == {"srca/s2"}
