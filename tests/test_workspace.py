import fcntl
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import netloom.workspace as workspace_mod
from netloom.datalog import ProgramError
from netloom.ingest import IngestError
from netloom.model import RawStore, store_to_json
from netloom.network import emit, export_json
from netloom.reconstruct import ReconstructionError, reconstruct
from netloom.workspace import SnapshotWatcher, Workspace, WorkspaceError, write_atomic

from generators import make_scenario
from helpers import MERGE_SPACE_RULES, content_digest, cyclic_garbage, store_from_sources


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
    assert content_digest(ws.load_store()) == content_digest(store)
    assert ws.ledger_path.read_bytes() == ledger
    assert file_bytes(ws.networks_dir) == networks

    outcomes = watcher.poll_once()
    assert [name for name, _ in outcomes] == rest
    assert ws.load_store().version == 1 + sum(1 for _, o in outcomes if o == "committed")
    assert {p.name for p in ws.segments_dir.iterdir()} == listed_segments(ws)
    assert watcher.poll_once() == []


def test_failed_manifest_write_leaves_no_archive(tmp_path, monkeypatch):
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, ["srca"], tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    (drop / "srca__1.jsonl").write_bytes(snapshot_bytes(system_records("ERP")))
    real_write = workspace_mod.write_atomic

    def fail_on_manifest(path, data):
        if path == ws.store_path:
            raise OSError("disk full")
        real_write(path, data)

    watcher = SnapshotWatcher(ws, drop)
    with monkeypatch.context() as patch:
        patch.setattr(workspace_mod, "write_atomic", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            watcher.poll_once()
    assert list(ws.snapshots_dir.iterdir()) == []
    assert ws.load_store().version == 0

    assert watcher.poll_once() == [("srca__1.jsonl", "committed")]
    assert [p.name for p in ws.snapshots_dir.iterdir()] == ["srca__v000001.jsonl"]


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
    outcomes, garbage = cyclic_garbage(watcher.poll_once)
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
    assert gc.isenabled()  # overlapping paused calls leave the collector on
    store = ws.load_store()
    assert store.version == len(sources) * rounds
    assert {s.name for s in store.systems.values()} == {f"{src} {rounds - 1}" for src in sources}
    assert {p.name for p in ws.segments_dir.iterdir()} == listed_segments(ws)


# ---------------------------------------------------------------------------
# The store a committing poll keeps for the next one


def system_records(name: str) -> list[dict]:
    return [{"kind": "system", "id": "s", "name": name, "type": "application"}]


def count_decodes(monkeypatch) -> dict[str, int]:
    calls = {"store_from_json": 0}
    real = workspace_mod.store_from_json

    def counting(data):
        calls["store_from_json"] += 1
        return real(data)

    monkeypatch.setattr(workspace_mod, "store_from_json", counting)
    return calls


def batch_build(tmp_path: Path, steps: list[tuple[str, list[dict]]]) -> Workspace:
    """A fresh workspace with one ``Workspace.ingest`` per (source,
    records) step, in order, then one ``infer``."""
    batch = Workspace.init(tmp_path / "batch")
    register_sources(batch, sorted({src for src, _ in steps}), tmp_path)
    for n, (src, records) in enumerate(steps):
        snap = tmp_path / "batch-in" / f"{n}.jsonl"
        snap.parent.mkdir(exist_ok=True)
        snap.write_bytes(snapshot_bytes(records))
        assert isinstance(batch.ingest(batch.get_source(src), snap), RawStore)
    batch.infer()
    return batch


def assert_same_workspace_bytes(ws: Workspace, batch: Workspace) -> None:
    assert ws.store_path.read_bytes() == batch.store_path.read_bytes()
    assert file_bytes(ws.segments_dir) == file_bytes(batch.segments_dir)
    assert (ws.networks_dir / "LATEST").read_bytes() == (batch.networks_dir / "LATEST").read_bytes()
    assert ws.latest_network_bytes() == batch.latest_network_bytes()


def watched_workspace(tmp_path: Path, sources) -> tuple[Workspace, SnapshotWatcher]:
    ws = Workspace.init(tmp_path / "ws")
    register_sources(ws, sources, tmp_path)
    drop = tmp_path / "drop"
    drop.mkdir()
    return ws, SnapshotWatcher(ws, drop)


def drop_and_poll(watcher: SnapshotWatcher, name: str, records: list[dict]) -> list:
    (watcher.directory / name).write_bytes(snapshot_bytes(records))
    return watcher.poll_once()


def test_poll_after_a_committing_poll_decodes_no_segment(tmp_path, monkeypatch):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb", "srcc"])
    for src in ("srca", "srcb"):
        snap = tmp_path / f"{src}.jsonl"
        snap.write_bytes(snapshot_bytes(system_records(src)))
        ws.ingest(ws.get_source(src), snap)
    calls = count_decodes(monkeypatch)
    # The ingests wrote the store last, so the first poll reads it.
    assert drop_and_poll(watcher, "srca__1.jsonl", system_records("a1")) == [("srca__1.jsonl", "committed")]
    assert calls["store_from_json"] == 2
    assert drop_and_poll(watcher, "srcc__1.jsonl", system_records("c1")) == [("srcc__1.jsonl", "committed")]
    assert drop_and_poll(watcher, "srcb__1.jsonl", system_records("b1")) == [("srcb__1.jsonl", "committed")]
    assert calls["store_from_json"] == 2

    batch = batch_build(tmp_path, [
        ("srca", system_records("srca")), ("srcb", system_records("srcb")),
        ("srca", system_records("a1")), ("srcc", system_records("c1")),
        ("srcb", system_records("b1")),
    ])
    assert_same_workspace_bytes(ws, batch)


def ingest_in_this_process(root: Path, config: Path, snap: Path) -> None:
    ws = Workspace.load(root)
    assert isinstance(ws.ingest(ws.register_source(config), snap), RawStore)


def ingest_in_a_cli_process(root: Path, config: Path, snap: Path) -> None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-m", "netloom.cli", "ingest", str(root), "--source-config", str(config), str(snap)],
        check=True, capture_output=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("other_writer", [ingest_in_this_process, ingest_in_a_cli_process])
def test_poll_after_another_writer_commits_against_its_store(tmp_path, monkeypatch, other_writer):
    ws, watcher = watched_workspace(tmp_path, ["srca"])
    assert drop_and_poll(watcher, "srca__1.jsonl", system_records("a1")) == [("srca__1.jsonl", "committed")]
    config = tmp_path / "srcb-config.json"
    config.write_text(json.dumps({"source_id": "srcb", "source_type": "t"}))
    snap = tmp_path / "srcb.jsonl"
    snap.write_bytes(snapshot_bytes(system_records("b1")))
    other_writer(ws.root, config, snap)

    calls = count_decodes(monkeypatch)
    assert drop_and_poll(watcher, "srca__2.jsonl", system_records("a2")) == [("srca__2.jsonl", "committed")]
    assert calls["store_from_json"] == 2  # both segments, read from disk
    assert set(ws.load_store().systems) == {"srca/s", "srcb/s"}
    batch = batch_build(tmp_path, [
        ("srca", system_records("a1")), ("srcb", system_records("b1")), ("srca", system_records("a2")),
    ])
    assert_same_workspace_bytes(ws, batch)


def test_failed_manifest_write_drops_the_held_store(tmp_path, monkeypatch):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    assert drop_and_poll(watcher, "srca__1.jsonl", system_records("a1")) == [("srca__1.jsonl", "committed")]
    assert workspace_mod._committed is not None
    real_write = workspace_mod.write_atomic

    def fail_on_manifest(path, data):
        if path == ws.store_path:
            raise OSError("disk full")
        real_write(path, data)

    with monkeypatch.context() as patch:
        patch.setattr(workspace_mod, "write_atomic", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            drop_and_poll(watcher, "srcb__1.jsonl", system_records("b1"))
    assert workspace_mod._committed is None

    calls = count_decodes(monkeypatch)
    assert watcher.poll_once() == [("srcb__1.jsonl", "committed")]
    assert calls["store_from_json"] == 1  # the srca segment, read from disk
    batch = batch_build(tmp_path, [("srca", system_records("a1")), ("srcb", system_records("b1"))])
    assert_same_workspace_bytes(ws, batch)


def test_a_store_write_in_another_workspace_frees_the_held_store(tmp_path):
    _, watcher = watched_workspace(tmp_path, ["srca"])
    assert drop_and_poll(watcher, "srca__1.jsonl", system_records("a1")) == [("srca__1.jsonl", "committed")]
    held = weakref.ref(workspace_mod._committed[2])
    enabled = gc.isenabled()
    gc.disable()
    try:
        Workspace.init(tmp_path / "other")
        assert held() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Publishing under the store lock


def in_a_thread(target, failures: list) -> threading.Thread:
    """A thread running ``target``; whatever it raises goes to ``failures``."""

    def run():
        try:
            target()
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    return threading.Thread(target=run)


@pytest.mark.parametrize("publisher", ["infer", "poll_once"])
def test_a_publish_holds_the_store_lock(tmp_path, monkeypatch, publisher):
    ws, watcher = watched_workspace(tmp_path, ["srca"])
    (watcher.directory / "srca__1.jsonl").write_bytes(snapshot_bytes(system_records("a1")))
    locked = []
    real = Workspace.publish_network

    def publish_network(self, network):
        # Another descriptor of .lock must not get the lock while this publishes.
        with open(self.root / ".lock", "rb") as other:
            try:
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                locked.append(True)
            else:
                locked.append(False)
        return real(self, network)

    monkeypatch.setattr(Workspace, "publish_network", publish_network)
    if publisher == "infer":
        ws.infer()
    else:
        assert watcher.poll_once() == [("srca__1.jsonl", "committed")]
    assert locked == [True]


def test_an_infer_of_an_older_store_never_publishes_last(tmp_path, monkeypatch):
    ws, watcher = watched_workspace(tmp_path, ["srca"])
    assert drop_and_poll(watcher, "srca__1.jsonl", system_records("a1")) == [("srca__1.jsonl", "committed")]
    (watcher.directory / "srca__2.jsonl").write_bytes(snapshot_bytes(system_records("a2")))
    failures = []
    infer = in_a_thread(ws.infer, failures)
    poll = in_a_thread(watcher.poll_once, failures)
    loaded, release = threading.Event(), threading.Event()
    real = workspace_mod.reconstruct

    def reconstruct(*args, **kwargs):
        # The infer has loaded store 1; it waits here until released.
        if threading.current_thread() is infer:
            loaded.set()
            release.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(workspace_mod, "reconstruct", reconstruct)
    infer.start()
    assert loaded.wait(timeout=30)
    poll.start()
    poll.join(timeout=1)  # time for the poll to commit store 2, if it may
    release.set()
    infer.join(timeout=30)
    poll.join(timeout=30)
    assert not infer.is_alive() and not poll.is_alive()
    assert failures == []
    latest = (ws.networks_dir / "LATEST").read_bytes()
    assert ws.load_store().version == 2
    assert latest == ws.infer().version.encode()


# ---------------------------------------------------------------------------
# References into a source that commits later


A_RECORDS = [
    {"kind": "system", "id": "a", "name": "ERP", "type": "application"},
    {"kind": "runs_on", "id": "r", "system_id": "a", "host_id": "srcb/H"},
]
B_RECORDS = [{"kind": "host", "id": "H", "hostname": "erp-host.example.net"}]


@pytest.mark.parametrize("polls", [
    [["srca__1.jsonl"], ["srcb__1.jsonl"]],
    [["srca__1.jsonl", "srcb__1.jsonl"]],
    [["srcb__1.jsonl"], ["srca__1.jsonl"]],
], ids=["srca-poll-first", "one-poll", "srcb-poll-first"])
def test_reference_into_a_later_source_commits_in_every_drop_order(tmp_path, polls):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    records = {"srca__1.jsonl": A_RECORDS, "srcb__1.jsonl": B_RECORDS}
    for names in polls:
        for name in names:
            (watcher.directory / name).write_bytes(snapshot_bytes(records[name]))
        watcher.poll_once()
    assert watcher.poll_once() == []
    assert json.loads(ws.ledger_path.read_text()).keys() == set(records)
    batch = batch_build(tmp_path, [("srcb", B_RECORDS), ("srca", A_RECORDS)])
    assert_same_workspace_bytes(ws, batch)


def test_reference_into_a_missing_source_is_retried_but_not_ledgered(tmp_path):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    assert drop_and_poll(watcher, "srca__1.jsonl", A_RECORDS) == [("srca__1.jsonl", "rejected")]
    assert not ws.ledger_path.exists()
    assert watcher.poll_once() == [("srca__1.jsonl", "rejected")]
    assert ws.load_store().version == 0
    # A reference into the file's own source is final, as before.
    own = [{**A_RECORDS[1], "host_id": "H"}]
    assert drop_and_poll(watcher, "srca__2.jsonl", own) == [
        ("srca__1.jsonl", "rejected"), ("srca__2.jsonl", "rejected"),
    ]
    assert json.loads(ws.ledger_path.read_text()).keys() == {"srca__2.jsonl"}


def test_later_file_of_the_same_source_supersedes_a_waiting_one(tmp_path):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    assert drop_and_poll(watcher, "srca__1.jsonl", A_RECORDS) == [("srca__1.jsonl", "rejected")]
    newer = [{**A_RECORDS[0], "name": "ERP 2"}]
    assert drop_and_poll(watcher, "srca__2.jsonl", newer) == [
        ("srca__1.jsonl", "rejected"), ("srca__2.jsonl", "committed"),
    ]
    assert json.loads(ws.ledger_path.read_text()).keys() == {"srca__1.jsonl", "srca__2.jsonl"}
    # srcb resolves srca__1's reference, but srca__2 is the later file.
    assert drop_and_poll(watcher, "srcb__1.jsonl", B_RECORDS) == [("srcb__1.jsonl", "committed")]
    batch = batch_build(tmp_path, [("srca", newer), ("srcb", B_RECORDS)])
    assert_same_workspace_bytes(ws, batch)


def test_a_waiting_file_is_parsed_once_per_change_not_per_poll(tmp_path, monkeypatch, caplog):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    parsed = []
    real = workspace_mod.load_snapshot

    def counting(path, *args):
        parsed.append(Path(path).name)
        return real(path, *args)

    monkeypatch.setattr(workspace_mod, "load_snapshot", counting)
    (watcher.directory / "srca__1.jsonl").write_bytes(snapshot_bytes(A_RECORDS))
    with caplog.at_level("WARNING", logger=workspace_mod.logger.name):
        for _ in range(3):
            assert watcher.poll_once() == [("srca__1.jsonl", "rejected")]
    assert parsed == ["srca__1.jsonl"]
    assert sum("for now" in r.getMessage() for r in caplog.records) == 1
    # Another writer's commit changes store.json, so the file is checked again.
    other = tmp_path / "other.jsonl"
    other.write_bytes(snapshot_bytes(system_records("CRM")))
    assert isinstance(ws.ingest(ws.get_source("srcb"), other), RawStore)
    assert watcher.poll_once() == [("srca__1.jsonl", "rejected")]
    assert parsed == ["srca__1.jsonl", "other.jsonl", "srca__1.jsonl"]
    # Its target source arrives: the waiting file is parsed again only
    # once that commit has changed the store, and then commits.
    del parsed[:]
    assert drop_and_poll(watcher, "srcb__1.jsonl", B_RECORDS) == [
        ("srca__1.jsonl", "committed"), ("srcb__1.jsonl", "committed"),
    ]
    assert parsed == ["srcb__1.jsonl", "srca__1.jsonl"]
    assert watcher.poll_once() == []
    batch = batch_build(tmp_path, [("srcb", system_records("CRM")), ("srcb", B_RECORDS), ("srca", A_RECORDS)])
    assert_same_workspace_bytes(ws, batch)


def test_a_schema_edit_retries_a_waiting_file(tmp_path):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    assert drop_and_poll(watcher, "srca__1.jsonl", A_RECORDS) == [("srca__1.jsonl", "rejected")]
    assert watcher.poll_once() == [("srca__1.jsonl", "rejected")]
    doc = json.loads(ws.schema_path.read_text())
    del doc["kinds"]["runs_on"]["refs"]["host_id"]
    ws.schema_path.write_text(json.dumps(doc))
    assert watcher.poll_once() == [("srca__1.jsonl", "committed")]


# ---------------------------------------------------------------------------
# The workspace's rules.dl


def test_infer_and_a_committing_poll_publish_the_network_of_rules_dl(tmp_path):
    ws, watcher = watched_workspace(tmp_path, ["srca", "srcb"])
    drop_and_poll(watcher, "srca__1.jsonl", system_records("ERP"))
    drop_and_poll(watcher, "srcb__1.jsonl", system_records("CRM"))
    ws.rules_path.write_text(MERGE_SPACE_RULES)
    assert ws.infer().counts()["participants"] == 1
    # A poll that commits publishes from the same rules as infer does.
    assert drop_and_poll(watcher, "srcb__2.jsonl", system_records("CRM 2")) == [
        ("srcb__2.jsonl", "committed"),
    ]
    latest = ws.latest_network_bytes()
    assert ws.latest_network().counts()["participants"] == 1
    assert export_json(ws.infer()) == latest
    # Without the file, only the built-in rules run, for either path.
    ws.rules_path.unlink()
    assert drop_and_poll(watcher, "srcb__3.jsonl", system_records("CRM 3")) == [
        ("srcb__3.jsonl", "committed"),
    ]
    assert ws.latest_network().counts()["participants"] == 2
    assert export_json(ws.infer()) == ws.latest_network_bytes()


# Each entry makes rules.dl unusable: (what it writes, or None for a
# directory, the error that infer raises, a part of its message).
UNUSABLE_RULES = {
    "not-utf8": (b"\xff\xfe", WorkspaceError, "unreadable rules file "),
    "directory": (None, WorkspaceError, "unreadable rules file "),
    "malformed": (b"p(X) :-\n", ProgramError, "line 1, column 8: "),
    "arity": (
        b"p(X) :- system(X, _, _).\np(X, Y) :- system(X, Y, _).\n",
        ProgramError, "line 2, column 1: arity conflict",
    ),
    "negative-cycle": (
        b"p(X) :- system(X, _, _), not q(X).\nq(X) :- system(X, _, _), not p(X).\n",
        ProgramError, "negative cycle",
    ),
    "raw-predicate": (
        b'system(X, "n", "k") :- host(X, _).\n', ReconstructionError, "redefine raw predicates",
    ),
}


@pytest.mark.parametrize("data, error, message", UNUSABLE_RULES.values(), ids=UNUSABLE_RULES.keys())
def test_an_unusable_rules_dl_keeps_the_commit_and_publishes_nothing(
    tmp_path, caplog, data, error, message
):
    ws, watcher = watched_workspace(tmp_path, ["srca"])
    drop_and_poll(watcher, "srca__1.jsonl", system_records("ERP"))
    latest = ws.latest_network_bytes()
    if data is None:
        ws.rules_path.mkdir()
    else:
        ws.rules_path.write_bytes(data)
    with pytest.raises(error, match=message) as raised:
        ws.infer()
    with caplog.at_level("WARNING", logger=workspace_mod.logger.name):
        assert drop_and_poll(watcher, "srca__2.jsonl", system_records("ERP 2")) == [
            ("srca__2.jsonl", "committed"),
        ]
    (warning,) = [r.getMessage() for r in caplog.records]
    assert warning == f"not published: {raised.value}"
    # Each error names the file, after the reader's words for one it cannot read.
    assert str(raised.value).startswith(
        f"unreadable rules file {ws.rules_path}: " if error is WorkspaceError else f"{ws.rules_path}: "
    )
    assert ws.load_store().version == 2
    assert ws.latest_network_bytes() == latest
