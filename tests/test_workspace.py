import gc
import hashlib
import json
import random
import sys
import threading
from pathlib import Path

import pytest

import netloom.workspace as workspace_mod
from netloom.ingest import IngestError
from netloom.model import RawStore, store_to_json
from netloom.network import emit
from netloom.reconstruct import reconstruct
from netloom.workspace import SnapshotWatcher, Workspace, write_atomic

from generators import make_scenario
from helpers import store_from_sources
from test_format import SOURCES, STORE_SHA256


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


def listed_segments(ws: Workspace) -> set[str]:
    return set(json.loads(ws.store_path.read_bytes())["segments"].values())


def test_poll_loads_and_saves_the_store_once(tmp_path, monkeypatch):
    sources, files = mixed_drop(7)
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, sources, tmp_path)
    # A segment for every source, so the poll has all of them to load.
    old = {"kind": "system", "id": "old", "name": "Old", "type": "application"}
    ws.save_store(store_from_sources({src: [old] for src in sources}))
    assert len(listed_segments(ws)) == len(sources)
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
    committed = [name.split("__", 1)[0] for name, o in outcomes if o == "committed"]
    # One decode per loaded segment, one encode per committed source,
    # however many of its files committed.
    assert len(committed) > len(set(committed)) >= 2
    assert calls == {"store_from_json": len(sources), "store_to_json": len(set(committed))}
    assert ws.load_store().version == len(sources) + len(committed)


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

    def fail_save(self, store, kept, stamps):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(Workspace, "_write_store", fail_save)
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


def test_crash_before_the_manifest_keeps_the_previous_store(tmp_path, monkeypatch):
    sources, files = mixed_drop(9)
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
    store = ws.load_store()
    ledger, networks = ws.ledger_path.read_bytes(), file_bytes(ws.networks_dir)
    real_write = workspace_mod.write_atomic

    def crash_at_manifest(path, data):
        # The process dies after the segments are written, before the
        # manifest is replaced.
        if path == ws.store_path:
            raise OSError("killed")
        real_write(path, data)

    with monkeypatch.context() as patch:
        patch.setattr(workspace_mod, "write_atomic", crash_at_manifest)
        with pytest.raises(OSError, match="killed"):
            watcher.poll_once()
    orphans = {p.name for p in ws.segments_dir.iterdir()} - listed_segments(ws)
    assert orphans
    assert ws.load_store().version == store.version
    assert ws.load_store().content_digest() == store.content_digest()
    assert ws.ledger_path.read_bytes() == ledger
    assert file_bytes(ws.networks_dir) == networks

    outcomes = watcher.poll_once()
    assert [name for name, _ in outcomes] == rest
    assert ws.load_store().version == 1 + sum(1 for _, o in outcomes if o == "committed")
    assert {p.name for p in ws.segments_dir.iterdir()} == listed_segments(ws)
    assert watcher.poll_once() == []


def test_legacy_whole_store_loads_and_the_next_commit_segments_it(tmp_path):
    ws = Workspace.init(tmp_path / "ws")
    golden = store_from_sources(SOURCES)
    data = store_to_json(golden)
    assert hashlib.sha256(data).hexdigest() == STORE_SHA256
    ws.store_path.write_bytes(data)
    for path in ws.segments_dir.iterdir():
        path.unlink()
    ws.segments_dir.rmdir()
    loaded = ws.load_store()
    assert loaded.version == golden.version
    assert loaded.content_digest() == golden.content_digest()

    register_sources(ws, ["srcc"], tmp_path)
    snap = tmp_path / "srcc.jsonl"
    snap.write_bytes(snapshot_bytes([{"kind": "system", "id": "s1", "name": "New", "type": "application"}]))
    assert isinstance(ws.ingest(ws.get_source("srcc"), snap), RawStore)

    manifest = json.loads(ws.store_path.read_bytes())
    assert manifest["version"] == golden.version + 1
    assert manifest["segments"].keys() == {"srca", "srcb", "srcc"}
    assert {p.name for p in ws.segments_dir.iterdir()} == set(manifest["segments"].values())
    store = ws.load_store()
    for src in SOURCES:
        assert store.only_source(src).content_digest() == golden.only_source(src).content_digest()
    assert set(store.only_source("srcc").systems) == {"srcc/s1"}


def test_segments_are_named_by_digest_and_stamped_with_their_commit(tmp_path):
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, ["srca", "srcb"], tmp_path)
    for src in ("srca", "srcb"):
        snap = tmp_path / f"{src}.jsonl"
        snap.write_bytes(snapshot_bytes([{"kind": "system", "id": "s", "name": src, "type": "app"}]))
        ws.ingest(ws.get_source(src), snap)
    manifest = json.loads(ws.store_path.read_bytes())
    assert manifest["version"] == 2
    for src, version in (("srca", 1), ("srcb", 2)):
        name = manifest["segments"][src]
        data = (ws.segments_dir / name).read_bytes()
        assert name == f"{src}.{hashlib.sha256(data).hexdigest()[:16]}.json"
        assert json.loads(data)["version"] == version
        assert data == store_to_json(RawStore.build(version, ws.load_store().only_source(src).systems.values()))


def test_committing_poll_leaves_no_cyclic_garbage(tmp_path):
    sources, files = mixed_drop(10)
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, sources, tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    clean = sorted(n for n, d in files.items() if b"ghost" not in d and d != b"{nope\n")
    (drop / clean[0]).write_bytes(files[clean[0]])
    watcher = SnapshotWatcher(ws, drop)
    assert watcher.poll_once() == [(clean[0], "committed")]
    for name in clean[1:]:
        (drop / name).write_bytes(files[name])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        outcomes = watcher.poll_once()
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert outcomes == [(name, "committed") for name in clean[1:]]
    assert garbage == 0


def test_indented_ledger_still_loads(tmp_path):
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, ["srca"], tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    data = snapshot_bytes([{"kind": "system", "id": "s1", "name": "ERP", "type": "application"}])
    (drop / "srca__one.jsonl").write_bytes(data)
    ledger = {"srca__one.jsonl": hashlib.sha256(data).hexdigest()}
    ws.ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    watcher = SnapshotWatcher(ws, drop)
    assert watcher.poll_once() == []
    (drop / "srca__two.jsonl").write_bytes(data)
    assert watcher.poll_once() == [("srca__two.jsonl", "committed")]
    assert ws.ledger_path.read_bytes() == (
        json.dumps({**ledger, "srca__two.jsonl": ledger["srca__one.jsonl"]},
                   sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def test_a_second_writer_waits_for_the_save_in_flight(tmp_path, monkeypatch):
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, ["srca", "srcb"], tmp_path)
    snaps = {}
    for src in ("srca", "srcb"):
        snaps[src] = tmp_path / f"{src}.jsonl"
        snaps[src].write_bytes(
            snapshot_bytes([{"kind": "system", "id": "s", "name": src, "type": "application"}])
        )
    other = threading.Thread(target=ws.ingest, args=(ws.get_source("srca"), snaps["srca"]))
    real_write = workspace_mod.write_atomic

    def start_other_writer(path, data):
        # The other writer starts once this save has written its segment,
        # before it replaces the manifest, and gets half a second.
        if path == ws.store_path and other.ident is None:
            other.start()
            other.join(timeout=0.5)
        real_write(path, data)

    monkeypatch.setattr(workspace_mod, "write_atomic", start_other_writer)
    ws.ingest(ws.get_source("srcb"), snaps["srcb"])
    other.join(timeout=30)
    assert not other.is_alive()
    store = ws.load_store()
    assert store.version == 2
    assert set(store.systems) == {"srca/s", "srcb/s"}
    assert {p.name for p in ws.segments_dir.iterdir()} == listed_segments(ws)


def test_concurrent_ingests_lose_no_commit(tmp_path):
    ws = Workspace.init(tmp_path / "ws")
    sources = [f"src{i}" for i in range(6)]
    register_sources(ws, sources, tmp_path)
    rounds = 5
    failures = []

    def writer(src):
        try:
            for n in range(rounds):
                snap = tmp_path / f"{src}-{n}.jsonl"
                snap.write_bytes(snapshot_bytes(
                    [{"kind": "system", "id": "s", "name": f"{src} {n}", "type": "application"}]))
                assert isinstance(ws.ingest(ws.get_source(src), snap), RawStore)
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(src,)) for src in sources]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    store = ws.load_store()
    assert store.version == len(sources) * rounds
    assert {s.name for s in store.systems.values()} == {f"{src} {rounds - 1}" for src in sources}
    assert {p.name for p in ws.segments_dir.iterdir()} == listed_segments(ws)
