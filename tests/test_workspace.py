from pathlib import Path

import pytest

from netloom.network import emit
from netloom.reconstruct import reconstruct
from netloom.workspace import SnapshotWatcher, Workspace, write_atomic

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
