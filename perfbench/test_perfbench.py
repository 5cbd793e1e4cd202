"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench -q

Each workload runs end to end in a second or two; deliberately wrong
program output must show up as failed operations, never pass silently.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_spec(workload):
    spec = run.SPECS[workload]
    sizes = {k: max(4, v // 50) for k, v in spec.sizes.items()}
    return dataclasses.replace(spec, sizes=sizes, min_builds=2, rounds_per_build=1)


def tiny(workload, tmp_path, seed=3, trace=False):
    return run.run_workload(workload, seed, 0, trace, tmp_path, tiny_spec(workload))


@pytest.mark.parametrize("workload", sorted(run.SPECS))
def test_workload_runs_clean_at_tiny_scale(workload, tmp_path):
    result = tiny(workload, tmp_path)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [name for name, _ in run.END_TO_END] == declared
    for name in declared:
        metric = result["end_to_end"][name]
        assert metric["value"] > 0 and metric["samples"] >= 1
    assert result["builds"] == 2 and result["rounds"] == 2
    assert not any(tmp_path.glob("tmp-*")), "workspaces must be removed"


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    workspace_mod = importlib.import_module("netloom.workspace")
    original = workspace_mod.load_snapshot
    result = tiny("hotkey", tmp_path, trace=True)
    assert workspace_mod.load_snapshot is original, "wrappers must be removed"
    layer = result["per_layer"]
    for metric in BENCHMARK["per_layer"]:
        assert metric["name"] in layer, metric["name"]
        assert layer[metric["name"]]["unit"] == metric["unit"]
    assert result["failed"] == 0
    assert layer["conformance.findings"]["value"] == 0
    assert layer["conformance.records_checked"]["value"] == layer["ingest.records"]["value"] > 0
    # The hot class (4 members at this scale) derives k(k-1) ordered pairs
    # for its k-1 unions, so its ratio is about k.
    assert layer["reconstruct.equiv_pairs_per_merge"]["value"] > 2
    assert (tmp_path / "trace-hotkey-seed3.json").exists()


def test_self_time_excludes_wrapped_children():
    import time

    tracer = run.tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
    calls, total, self_s = tracer.stats["outer"]
    assert calls == 1 and total >= 0.02 and self_s < 0.01
    assert tracer.spans[1][3] == 0  # inner's parent is outer


def test_same_seed_repeats_inputs_and_version(tmp_path):
    first = tiny("watch", tmp_path, seed=5)
    second = tiny("watch", tmp_path, seed=5)
    assert first["version"] == second["version"]
    a = workloads.watch(5, tmp_path / "a", n_systems=50, n_flows=80)
    b = workloads.watch(5, tmp_path / "b", n_systems=50, n_flows=80)
    c = workloads.watch(6, tmp_path / "c", n_systems=50, n_flows=80)
    assert run.inputs_digest(a) == run.inputs_digest(b) != run.inputs_digest(c)


def test_dropped_flow_is_counted_as_failure(tmp_path, monkeypatch):
    workspace_mod = importlib.import_module("netloom.workspace")
    real_emit = workspace_mod.emit

    def emit_dropping_a_flow(recon):
        return real_emit(dataclasses.replace(recon, flows=recon.flows[1:]))

    monkeypatch.setattr(workspace_mod, "emit", emit_dropping_a_flow)
    result = tiny("hotkey", tmp_path)
    assert result["failed"] > 0
    assert any("flows" in p for p in result["problems"])


def test_rejected_snapshot_is_counted_as_failure(tmp_path, monkeypatch):
    real_change = workloads.change_source

    def change_with_dangling_ref(inputs, seed, round_no):
        src, records = real_change(inputs, seed, round_no)
        return src, records + [{"kind": "runs_on", "id": "bad", "system_id": "nope", "host_id": "h0"}]

    monkeypatch.setattr(workloads, "change_source", change_with_dangling_ref)
    result = tiny("watch", tmp_path)
    assert result["failed"] > 0
    assert any("poll outcomes" in p and "rejected" in p for p in result["problems"])


def test_cli_prints_declared_metrics_as_last_line(tmp_path, monkeypatch):
    monkeypatch.setitem(run.SPECS, "watch", tiny_spec("watch"))
    monkeypatch.setattr(run, "WORK", tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run.main(["--workload", "watch", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(out.getvalue().strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in BENCHMARK[key]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "watch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
