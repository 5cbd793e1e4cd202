"""The pipeline's calls pause the cyclic garbage collector
(``model.acyclic``). That is sound only while the pipeline builds no
reference cycle, which the first test pins step by step; the others pin
the collector's state inside and after each call."""

import gc
import importlib
import json
import random
import threading

import pytest

import netloom.network as network_mod
import netloom.workspace as workspace_mod
from netloom.conformance import check_batch
from netloom.ingest import load_snapshot
from netloom.model import RawStore
from netloom.network import export_graph, export_json, parse_network
from netloom.query import build_index, search, traverse
from netloom.reconstruct import host_classes, reconstruct
from netloom.workspace import SnapshotWatcher, Workspace, WorkspaceError

from generators import make_scenario
from helpers import cyclic_garbage

# ``import netloom.reconstruct`` would give the re-exported function.
reconstruct_mod = importlib.import_module("netloom.reconstruct")


def snapshot_bytes(records: list[dict]) -> bytes:
    return ("\n".join(json.dumps(r) for r in records) + "\n").encode()


def seeded_workspace(tmp_path):
    """A workspace with a seeded scenario's sources registered, and the
    scenario's records by source, each written to a snapshot file."""
    scenario = make_scenario(random.Random(21), n_systems=12, n_flows=20, n_sources=3)
    ws = Workspace.init(tmp_path / "ws")
    snaps = {}
    for src, records in sorted(scenario.source_records.items()):
        cfg = tmp_path / f"{src}-config.json"
        cfg.write_text(json.dumps({"source_id": src, "source_type": "t"}))
        ws.register_source(cfg)
        snaps[src] = tmp_path / f"{src}.jsonl"
        snaps[src].write_bytes(snapshot_bytes(records))
    return ws, snaps, scenario.source_records


def rejects(call, error):
    """Call ``call``, which must raise ``error``."""
    with pytest.raises(error):
        call()


def test_the_pipeline_leaves_no_cyclic_garbage(tmp_path):
    ws, snaps, records = seeded_workspace(tmp_path)
    garbage = {}

    def step(name, call):
        result, garbage[name] = cyclic_garbage(call)
        return result

    for src, snap in snaps.items():
        assert isinstance(step(f"ingest {src}", lambda: ws.ingest(ws.get_source(src), snap)), RawStore)
    step("infer", ws.infer)
    store = step("load_store", ws.load_store)
    network = step("latest_network", ws.latest_network)
    for fmt in ("dot", "graphml"):
        step(f"export_graph {fmt}", lambda: export_graph(network, fmt))
    assert step("build_index + search", lambda: search(build_index(network), "system"))
    start = min(network.participants())
    step("traverse + export_json", lambda: export_json(
        traverse(build_index(network), start, 2, follow_links=True)))
    step("host_classes", lambda: host_classes(store))
    src = min(snaps)
    report = step("load_snapshot + check_batch", lambda: check_batch(
        ws.checker(), load_snapshot(snaps[src], ws.get_source(src)).records,
        store.without_source(src)))
    assert report.ok

    drop = tmp_path / "drop"
    drop.mkdir()
    watcher = SnapshotWatcher(ws, drop)
    renamed = [{**r, "name": r["name"] + " v2"} if "name" in r else r for r in records[src]]
    (drop / f"{src}__2.jsonl").write_bytes(snapshot_bytes(renamed))
    assert step("committing poll", watcher.poll_once) == [(f"{src}__2.jsonl", "committed")]
    (drop / f"{src}__3.jsonl").write_bytes(b"{nope\n")
    assert step("poll of a malformed file", watcher.poll_once) == [(f"{src}__3.jsonl", "load-error")]
    step("parse_network of a list", lambda: rejects(lambda: parse_network(b"[]"), TypeError))

    assert garbage == dict.fromkeys(garbage, 0)


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def paused_calls(tmp_path):
    """(name, call) of a call to each paused function, in an order in
    which each succeeds or raises as its name says."""
    ws, snaps, records = seeded_workspace(tmp_path)
    src = min(snaps)
    drop = tmp_path / "drop"
    drop.mkdir()
    (drop / f"{src}__2.jsonl").write_bytes(snapshot_bytes(records[src]))
    watcher = SnapshotWatcher(ws, drop)
    broken = Workspace.init(tmp_path / "broken")
    broken.store_path.write_bytes(b"[1]")
    return [
        *((f"ingest {s}", lambda s=s: ws.ingest(ws.get_source(s), snaps[s])) for s in sorted(snaps)),
        ("load_store", ws.load_store),
        ("infer", ws.infer),
        ("reconstruct", lambda: reconstruct(ws.load_store())),
        ("host_classes", lambda: host_classes(ws.load_store())),
        ("parse_network", lambda: parse_network(ws.latest_network_bytes())),
        ("committing poll_once", watcher.poll_once),
        ("parse_network raising", lambda: rejects(lambda: parse_network(b"[]"), TypeError)),
        ("infer raising", lambda: rejects(broken.infer, WorkspaceError)),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_each_call_leaves_the_collector_as_it_found_it(tmp_path, restore_collector, enabled):
    after = {}
    for name, call in paused_calls(tmp_path):
        gc.enable() if enabled else gc.disable()
        call()
        after[name] = gc.isenabled()
    assert after == dict.fromkeys(after, enabled)


def test_the_collector_is_paused_inside_each_call(tmp_path, monkeypatch, restore_collector):
    inside = []

    def recording(fn, name):
        def record(*args, **kwargs):
            inside.append((name, gc.isenabled()))
            return fn(*args, **kwargs)

        return record

    monkeypatch.setattr(reconstruct_mod, "evaluate", recording(reconstruct_mod.evaluate, "evaluate"))
    monkeypatch.setattr(workspace_mod, "commit", recording(workspace_mod.commit, "commit"))
    monkeypatch.setattr(
        network_mod, "canonical_decoder", recording(network_mod.canonical_decoder, "decode")
    )
    gc.enable()
    for _, call in paused_calls(tmp_path):
        call()
    assert {name for name, _ in inside} == {"evaluate", "commit", "decode"}
    assert [entry for entry in inside if entry[1]] == []


def test_overlapping_calls_in_two_threads_leave_the_collector_on(tmp_path, monkeypatch, restore_collector):
    # The first ingest pauses the collector, the second starts inside
    # that pause, the first returns, then the second: if the second
    # wrote back the state it found, the collector would stay off.
    ws, snaps, _ = seeded_workspace(tmp_path)
    first, second = sorted(snaps)[:2]
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    real = workspace_mod.load_snapshot

    def load_snapshot_in_order(path, config, data=None):
        if config.source_id == first:
            first_in.set()
            assert second_in.wait(timeout=30)
        else:
            second_in.set()
            assert first_out.wait(timeout=30)
        return real(path, config, data)

    monkeypatch.setattr(workspace_mod, "load_snapshot", load_snapshot_in_order)
    failures = []

    def ingest(src, before=None, after=None):
        try:
            if before is not None:
                assert before.wait(timeout=30)
            assert isinstance(ws.ingest(ws.get_source(src), snaps[src]), RawStore)
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            if after is not None:
                after.set()

    gc.enable()
    threads = [
        threading.Thread(target=ingest, args=(first, None, first_out)),
        threading.Thread(target=ingest, args=(second, first_in)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert gc.isenabled()
