#!/usr/bin/env python3
"""netloom benchmark: seeded closed-loop workloads driven through the
public calls the CLI makes.

    python3 perfbench/run.py --workload watch --seed 1 --seconds 55 --trace 0

Every workload runs in its own process with one client and no threads:

1. set-up (timed at least five times, median): generate the seeded snapshots and
   source configs, initialise a workspace, register the sources;
2. build: every snapshot through ``Workspace.ingest`` into a fresh
   workspace, one ``Workspace.infer`` (which publishes), then DOT and
   GraphML exports the way ``netloom export`` makes them;
3. rounds on that workspace: rewrite one source's snapshot in a watched
   directory, call ``SnapshotWatcher.poll_once``, then make five
   one-shot queries the way ``netloom query search`` / ``traverse
   --depth 2 --follow-links`` do.

Build-and-rounds cycles repeat while the next one is expected to end
within ``--seconds``, and never fewer than the workload's minimum.

Every operation's output is checked; failed operations and failed
checks are counted, never skipped. The last line of stdout is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from
wrapped netloom functions with ``--trace 1``. Workspaces, results and
traces live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up repeats until both are reached; setup_s is the median. Small
# workloads set up in tens of milliseconds, so they repeat more often.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
QUERIES_PER_ROUND = 5


@dataclass(frozen=True)
class Spec:
    generate: Callable[..., workloads.Inputs]
    sizes: dict
    min_builds: int  # fresh-workspace builds per run, at least
    rounds_per_build: int  # refresh rounds on each built workspace
    exports: int = 3  # DOT + GraphML exports per build
    replay: bool = False  # check the watched bytes against a batch build


SPECS = {
    # One 48-member same-key class and 48 hosts named localhost.
    "hotkey": Spec(
        workloads.hotkey,
        {"n_systems": 1_000, "n_flows": 2_000, "hot": 48, "shared_host": 48},
        min_builds=3,
        rounds_per_build=1,
        exports=6,
    ),
    # 40 refreshes and 200 queries leave ten samples beyond p75 and p95.
    "watch": Spec(
        workloads.watch,
        {"n_systems": 600, "n_flows": 1_200},
        min_builds=8,
        rounds_per_build=5,
        exports=5,
        replay=True,
    ),
}


# BENCHMARK.json's end-to-end metrics, in report order, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_s", "s"),
    ("infer_s", "s"),
    ("export_s", "s"),
    ("refresh_p50_s", "s"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_netloom():
    """Import netloom from this checkout's ``src``, never from elsewhere."""
    package = SRC / "netloom" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; run from a netloom checkout")
    sys.path.insert(0, str(SRC))
    import netloom

    if Path(netloom.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported netloom from {netloom.__file__}, not {package}")
    return netloom


netloom = import_netloom()


def _mod(name: str):
    # Looked up at every call so a traced run reaches the wrappers.
    return importlib.import_module(name)


class Recorder:
    """Timing samples plus attempted/failed operation counts."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @contextmanager
    def timed(self, metric: str):
        span = self.tracer.span(f"bench.{metric}") if self.tracer else nullcontext()
        started = time.perf_counter()
        with span:
            yield
        self.samples[metric].append(time.perf_counter() - started)

    def attempt(self, what: str, fn, *args, **kwargs):
        """One netloom operation: counted, and failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation must not end the run
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, what: str) -> None:
        """One output check: counted, and failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self._fail(what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def new_workspace(inputs: workloads.Inputs, directory: Path):
    """An initialised workspace with every source registered, plus the
    registered configs by source id."""
    ws = netloom.Workspace.init(directory)
    return ws, {src: ws.register_source(inputs.configs[src]) for src in inputs.sources}


def set_up(spec: Spec, seed: int, directory: Path, sizes: dict):
    inputs = spec.generate(seed, directory / "inputs", **sizes)
    return inputs, new_workspace(inputs, directory / "ws")


def inputs_digest(inputs: workloads.Inputs) -> str:
    h = hashlib.sha256()
    for src in inputs.sources:
        h.update(inputs.configs[src].read_bytes())
        h.update(inputs.snapshots[src].read_bytes())
    return h.hexdigest()


def check_network(rec: Recorder, inputs: workloads.Inputs, network, where: str) -> None:
    counts = network.counts()
    rec.check(
        counts["participants"] == inputs.participants and counts["flows"] == inputs.flows,
        f"{where}: {counts['participants']} participants / {counts['flows']} flows, "
        f"expected {inputs.participants} / {inputs.flows}",
    )
    if inputs.hot_id:
        hot = network.participants().get(inputs.hot_id)
        rec.check(
            hot is not None and tuple(sorted(hot.origins)) == inputs.hot_members,
            f"{where}: hot participant {inputs.hot_id} does not hold exactly its "
            f"{len(inputs.hot_members)} members",
        )


def ingest_all(rec: Recorder, ws, configs: dict, inputs: workloads.Inputs, paths: dict, timed: bool) -> None:
    """One ``Workspace.ingest`` per source, as one ``netloom ingest`` each;
    each call is one ``ingest_s`` sample when ``timed``."""
    RawStore = netloom.RawStore
    for src in inputs.sources:
        with rec.timed("ingest") if timed else nullcontext():
            result = rec.attempt(f"ingest {src}", ws.ingest, configs[src], paths[src])
        if result is not None:
            rec.check(isinstance(result, RawStore), f"ingest {src}: snapshot rejected: {result}")


def export_graphs(root: Path) -> list[bytes]:
    """What ``netloom export --format dot`` and then ``--format graphml``
    do: each reads the latest bytes, parses them and renders."""
    out = []
    for fmt in ("dot", "graphml"):
        network_mod = _mod("netloom.network")
        ws = netloom.Workspace.load(root)
        network = network_mod.parse_network(ws.latest_network_bytes())
        out.append(network_mod.export_graph(network, fmt, None))
    return out


def build(rec: Recorder, ws, configs: dict, inputs: workloads.Inputs, exports: int) -> str:
    """Batch ingest, infer and export into a fresh workspace; returns the
    published version."""
    ingest_all(rec, ws, configs, inputs, inputs.snapshots, timed=True)
    with rec.timed("infer"):
        network = rec.attempt("infer", ws.infer)
    if network is None:
        return ""
    check_network(rec, inputs, network, "infer")
    for _ in range(exports):
        with rec.timed("export"):
            graphs = rec.attempt("export", export_graphs, ws.root)
        if graphs is not None:
            rec.check(all(graphs), "export: empty graph output")
    return network.version


def one_shot_query(root: Path, kind: str, arg: str):
    """What ``netloom query search`` / ``query traverse --depth 2
    --follow-links`` do: read the latest bytes, parse, index, query."""
    network_mod, query_mod = _mod("netloom.network"), _mod("netloom.query")
    ws = netloom.Workspace.load(root)
    network = network_mod.parse_network(ws.latest_network_bytes())
    index = query_mod.build_index(network)
    if kind == "search":
        hits = query_mod.search(index, arg)
        json.dumps(hits, sort_keys=True, separators=(",", ":"))
        return network, hits
    fragment = query_mod.traverse(index, arg, 2, follow_links=True, spaces=None)
    network_mod.export_json(fragment)
    return network, sorted(fragment.participants())


def run_round(rec: Recorder, inputs: workloads.Inputs, watcher, seed: int, round_no: int) -> None:
    src, records = workloads.change_source(inputs, seed, round_no)
    path = watcher.directory / f"{src}__snap.jsonl"
    workloads.write_jsonl(path, records)
    with rec.timed("refresh"):
        outcomes = rec.attempt("poll_once", watcher.poll_once)
    if outcomes is not None:
        rec.check(outcomes == [(path.name, "committed")], f"round {round_no}: poll outcomes {outcomes}")

    rng = random.Random(f"queries:{seed}:{round_no}")
    for q in range(QUERIES_PER_ROUND):
        i = rng.randrange(len(inputs.canonical))
        expected = inputs.canonical[i]
        kind, arg = ("search", f"system {i:05d}") if q % 2 == 0 else ("traverse", expected)
        with rec.timed("query"):
            answer = rec.attempt(f"query {kind}", one_shot_query, watcher.workspace.root, kind, arg)
        if answer is None:
            continue
        network, ids = answer
        if q == 0:
            check_network(rec, inputs, network, f"round {round_no}")
        ok = ids == [expected] if kind == "search" else expected in ids
        rec.check(ok, f"round {round_no}: {kind} {arg!r} returned {ids[:3]}, expected {expected}")


def replay_check(rec: Recorder, inputs: workloads.Inputs, watcher, directory: Path) -> None:
    """Criterion 8: the watched workspace's bytes equal a batch build in
    a fresh workspace over the same final files."""
    ws, configs = new_workspace(inputs, directory)
    finals = {}
    for src in inputs.sources:
        dropped = watcher.directory / f"{src}__snap.jsonl"
        finals[src] = dropped if dropped.exists() else inputs.snapshots[src]
    ingest_all(rec, ws, configs, inputs, finals, timed=False)
    network = rec.attempt("replay infer", ws.infer)
    if network is not None:
        rec.check(
            ws.latest_network_bytes() == watcher.workspace.latest_network_bytes(),
            "replay: watched bytes differ from a batch build over the same files",
        )


def program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "netloom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "program_digest": program_digest(),
        "storage": "workspaces in a directory under .perfbench/ in the checkout; netloom never "
                   "fsyncs, so files stay in the page cache and latencies are not a disk's",
    }


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(rec: Recorder, setup_times: list[float]) -> dict:
    s = rec.samples
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "ingest_s": (statistics.median(s["ingest"]), len(s["ingest"])),
        "infer_s": (statistics.median(s["infer"]), len(s["infer"])),
        "export_s": (statistics.median(s["export"]), len(s["export"])),
        "refresh_p50_s": (statistics.median(s["refresh"]), len(s["refresh"])),
        "query_p50_ms": (statistics.median(s["query"]) * 1000, len(s["query"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
            for name, unit in END_TO_END}


def tails(rec: Recorder) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    out = {}
    refresh, query = rec.samples["refresh"], rec.samples["query"]
    if len(refresh) >= 40:
        out["refresh_p75_s"] = {"value": percentile(refresh, 75), "unit": "s", "samples": len(refresh)}
    if len(query) >= 200:
        out["query_p95_ms"] = {"value": percentile(query, 95) * 1000, "unit": "ms", "samples": len(query)}
    return out


def per_layer(tracer: tracing.Tracer, overhead: dict) -> dict:
    out = {}
    for name, (calls, total, self_s) in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        out[f"{name}.s"] = {"value": total, "unit": "s"}
        out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    c = tracer.counts
    for name in sorted(c):
        unit = "B" if name.endswith("bytes") or name.endswith("bytes_written") else "count"
        out[name] = {"value": c[name], "unit": unit}
    for pred in ("equiv_sys", "equiv_host", "conf_match", "flow", "participant_link"):
        out.setdefault(f"datalog.derived.{pred}", {"value": 0, "unit": "count"})
    snap = c["workspace.snapshot_bytes"]
    out["workspace.store_bytes_written_per_snapshot_byte"] = {
        "value": c["workspace.store_bytes_written"] / snap if snap else 0.0, "unit": "ratio"}
    unions = c["reconstruct.unions"]
    out["reconstruct.equiv_pairs_per_merge"] = {
        "value": c["reconstruct.equiv_pairs"] / unions if unions else 0.0, "unit": "ratio"}
    # Shares of the timed steps, so a reader sees what dominates them.
    for name, parts, step in (
        ("datalog.evaluate_share_of_infer", ("datalog.evaluate",), "bench.infer"),
        ("query.parse_index_share_of_query", ("network.parse_network", "query.build_index"), "bench.query"),
    ):
        whole = tracer.stats.get(step, [0, 0.0, 0.0])[1]
        out[name] = {"value": tracer.time_under(parts, step) / whole if whole else 0.0, "unit": "ratio"}
    out.update(overhead)
    return out


def tracing_overhead(spec: Spec, inputs: workloads.Inputs, tmp: Path, pairs: int = 3) -> dict:
    """Price the wrappers: builds of the same inputs, untraced then traced,
    side by side. Each pair is close in time, so the machine's slow drift
    cancels in its difference; the median over pairs is reported. A first
    build absorbs the process's one-time warm-up."""
    build(Recorder(None), *new_workspace(inputs, tmp / "warm-up"), inputs, spec.exports)
    untraced, extra = [], []
    for k in range(pairs):
        times = []
        for traced in (False, True):
            ws, configs = new_workspace(inputs, tmp / f"overhead{k}-{int(traced)}")
            tracer = tracing.Tracer()
            with tracer.installed() if traced else nullcontext():
                started = time.perf_counter()
                build(Recorder(tracer if traced else None), ws, configs, inputs, spec.exports)
                times.append(time.perf_counter() - started)
        untraced.append(times[0])
        extra.append(times[1] - times[0])
    base = statistics.median(untraced)
    return {
        "trace.untraced_build_s": {"value": base, "unit": "s"},
        "trace.overhead_s": {"value": statistics.median(extra), "unit": "s"},
        "trace.overhead_share": {"value": statistics.median(extra) / base, "unit": "ratio"},
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    spec: Spec | None = None,
) -> dict:
    """Run one workload and return its full result document.

    ``spec`` replaces the workload's sizes and counts; the benchmark's
    own tests pass tiny ones.
    """
    spec = spec or SPECS[workload]
    work.mkdir(parents=True, exist_ok=True)
    tmp = work / f"tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        return _run(workload, spec, seed, seconds, trace, work, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(workload, spec, seed, seconds, trace, work, tmp) -> dict:
    setup_times, digests = [], []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        k = len(setup_times)
        if k:
            shutil.rmtree(tmp / f"setup{k - 1}")
        started = time.perf_counter()
        inputs, first = set_up(spec, seed, tmp / f"setup{k}", spec.sizes)
        setup_times.append(time.perf_counter() - started)
        digests.append(inputs_digest(inputs))

    tracer = tracing.Tracer() if trace else None
    overhead = tracing_overhead(spec, inputs, tmp) if trace else {}

    rec = Recorder(tracer)
    rec.check(len(set(digests)) == 1, "set-up generated different inputs for one seed")
    versions = []
    cycle = rounds = 0
    last = 0.0
    with tracer.installed() if tracer else nullcontext():
        started = time.perf_counter()
        # Builds and rounds alternate, so every metric's samples span the
        # run and slow drifts of the machine's speed reach all of them.
        while cycle < spec.min_builds or (
            not trace and time.perf_counter() - started + last <= seconds
        ):
            cycle_started = time.perf_counter()
            ws, configs = first if cycle == 0 else new_workspace(inputs, tmp / f"ws{cycle}")
            drop = tmp / f"drop{cycle}"
            drop.mkdir()
            versions.append(build(rec, ws, configs, inputs, spec.exports))
            watcher = netloom.SnapshotWatcher(ws, drop)
            for _ in range(spec.rounds_per_build):
                run_round(rec, inputs, watcher, seed, rounds)
                rounds += 1
            cycle += 1
            last = time.perf_counter() - cycle_started
        measured_s = time.perf_counter() - started
    if spec.replay:
        replay_check(rec, inputs, watcher, tmp / "replay")
    rec.check(len(set(versions)) == 1, f"builds of one seed published different versions {versions}")

    result = {
        "provenance": provenance(workload, seed, trace),
        "version": versions[0],
        "builds": cycle,
        "rounds": rounds,
        "measured_s": measured_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "end_to_end": {**end_to_end(rec, setup_times), **tails(rec)},
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, overhead)
        tracer.write(work / f"trace-{workload}-seed{seed}.json", {"provenance": result["provenance"]})
    return result


def report(result: dict, declared: list[str]) -> None:
    p = result["provenance"]
    print(f"netloom benchmark: workload {p['workload']}, seed {p['seed']}, trace {p['trace']}")
    print(f"python {p['python']}, nproc {p['nproc']}, git {p['git_sha']}, program {p['program_digest']}")
    print(f"{p['storage']}")
    print(f"published version {result['version']}; {result['builds']} builds and "
          f"{result['rounds']} rounds in {result['measured_s']:.1f} s")
    print(f"{'metric':<52} {'value':>14} unit   samples")
    for name, m in result["end_to_end"].items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']:<6} {m['samples']}")
    for name, m in result.get("per_layer", {}).items():
        mark = "" if name in declared else "  (not in BENCHMARK.json)"
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}{mark}")
    ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio {ratio:.6g} ({result['failed']} failed of {result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"  failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in declared[key]]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result, names)
    metrics = result[key]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
