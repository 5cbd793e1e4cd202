"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``; the summary lines are
written to the real stdout so they survive pytest's capture.
"""

import itertools
import json
import random
import sys
import time

import pytest

from netloom.conformance import FINDING_CODES, check_batch, parse_schema
from netloom.datalog import evaluate, evaluate_naive, parse_program
from netloom.model import RawStore, to_facts
from netloom.network import emit, export_json
from netloom.query import build_index, search, tokenize, traverse
from netloom.reconstruct import builtin_program, merge_properties, reconstruct
from netloom.workspace import SnapshotWatcher, Workspace

from generators import make_scenario, random_program_text
from helpers import fact_base, store_from_sources
from oracles import bfs_nodes, reachability_closure, sym_trans_closure

import test_conformance as conformance_fixtures


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_datalog_correctness():
    started = time.perf_counter()
    rng = random.Random(20260808)
    checked = 0
    try:
        for seed in range(200):
            case = random.Random(seed)
            rules, facts_text = random_program_text(case, 6, 30)
            program = parse_program(rules)
            edb = fact_base(facts_text)
            assert evaluate(program, edb) == evaluate_naive(program, edb), (
                f"fixpoint mismatch for seed {seed}"
            )
            checked += 1

        tc = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."
        )
        for _ in range(20):
            nodes = [f"n{i}" for i in range(rng.randint(5, 30))]
            edges = {
                (rng.choice(nodes), rng.choice(nodes))
                for _ in range(rng.randint(0, 60))
            }
            derived = evaluate(tc, {"edge": edges})
            paths = derived.get("path", set())
            assert paths == reachability_closure(nodes, edges)

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    except AssertionError as exc:
        report(1, "datalog fixpoint + reachability oracle", False, str(exc))
        raise
    report(
        1,
        "datalog fixpoint + reachability oracle",
        True,
        f"{checked} programs, 20 graphs, {time.perf_counter() - started:.1f}s",
    )


def _host_equivalence_oracle(systems, hosts, runs, sources, names, kinds, hostnames):
    """Independent closure: key-matched system pairs propagate to host
    pairs over runs_on, joined with hostname equality, then closed."""
    sys_base = {
        (a, b)
        for a in systems
        for b in systems
        if sources[a] != sources[b]
        and names[a].strip().lower() == names[b].strip().lower()
        and kinds[a] == kinds[b]
    }
    sys_closed = sym_trans_closure(sys_base)
    host_base = {
        (h1, h2)
        for h1 in hosts
        for h2 in hosts
        if hostnames[h1] == hostnames[h2]
    }
    for s1, s2 in sys_closed:
        for h1 in runs.get(s1, ()):
            for h2 in runs.get(s2, ()):
                host_base.add((h1, h2))
    return sym_trans_closure(host_base)


def test_criterion_2_host_equivalence_propagation():
    rng = random.Random(7331)
    try:
        for instance in range(100):
            n = rng.randint(2, 9)
            source_pool = ["srca", "srcb", "srcc"][: rng.randint(2, 3)]
            name_pool = [f"Sys {i}" for i in range(max(2, n - 2))]
            host_pool = [f"host-{i}.net" for i in range(max(2, n - 1))]

            records = {}
            sources, names, kinds, hostnames = {}, {}, {}, {}
            runs: dict[str, list[str]] = {}
            system_ids, host_ids = [], []
            for i in range(n):
                src = rng.choice(source_pool)
                sid, hid = f"{src}/s{i}", f"{src}/h{i}"
                name = rng.choice(name_pool)
                hostname = rng.choice(host_pool)
                records.setdefault(src, []).extend(
                    [
                        {"kind": "system", "id": f"s{i}", "name": name,
                         "type": "application"},
                        {"kind": "host", "id": f"h{i}", "hostname": hostname},
                    ]
                )
                system_ids.append(sid)
                host_ids.append(hid)
                sources[sid], names[sid], kinds[sid] = src, name, "application"
                hostnames[hid] = hostname
                if rng.random() < 0.8:
                    records[src].append(
                        {"kind": "runs_on", "id": f"r{i}",
                         "system_id": f"s{i}", "host_id": f"h{i}"}
                    )
                    runs.setdefault(sid, []).append(hid)

            store = store_from_sources(records)
            derived = evaluate(builtin_program(), to_facts(store))
            engine = derived.get("equiv_host", set())
            expected = _host_equivalence_oracle(
                system_ids, host_ids, runs, sources, names, kinds, hostnames
            )
            assert engine == expected, f"instance {instance}: {engine ^ expected}"
    except AssertionError as exc:
        report(2, "host-equivalence propagation", False, str(exc)[:100])
        raise
    report(2, "host-equivalence propagation", True, "100 instances, exact match")


def test_criterion_3_reconstruction_round_trip():
    rng = random.Random(90210)
    instances = 0
    try:
        for _ in range(8):
            n_systems = rng.randint(10, 50)
            n_flows = rng.randint(20, 100)
            n_sources = rng.randint(2, 4)
            scenario = make_scenario(rng, n_systems, n_flows, n_sources)
            started = time.perf_counter()
            store = store_from_sources(scenario.source_records)
            recon = reconstruct(store)
            elapsed = time.perf_counter() - started
            got = {(f.source, f.target, f.interface) for f in recon.flows}
            missing = scenario.true_edges - got
            spurious = got - scenario.true_edges
            assert not missing and not spurious, (
                f"recall misses {len(missing)}, precision extras {len(spurious)}"
            )
            assert elapsed < 10.0, f"instance took {elapsed:.1f}s"
            instances += 1
    except AssertionError as exc:
        report(3, "reconstruction precision/recall = 1.0", False, str(exc)[:100])
        raise
    report(3, "reconstruction precision/recall = 1.0", True, f"{instances} instances")


def test_criterion_4_load_order_independence():
    rng = random.Random(11011)
    scenarios = 0
    try:
        for _ in range(20):
            scenario = make_scenario(
                rng, n_systems=rng.randint(6, 12), n_flows=rng.randint(5, 15),
                n_sources=3,
            )
            exports = set()
            permutations = list(itertools.permutations(sorted(scenario.source_records)))
            assert len(permutations) >= 6
            for order in permutations:
                store = store_from_sources(scenario.source_records, list(order))
                exports.add(export_json(emit(reconstruct(store))))
            assert len(exports) == 1, f"{len(exports)} distinct exports"
            scenarios += 1
    except AssertionError as exc:
        report(4, "load-order independence", False, str(exc)[:100])
        raise
    report(
        4, "load-order independence", True,
        f"{scenarios} scenarios x 6 permutations, byte-identical",
    )


def test_criterion_5_merge_semantics():
    from netloom.model import ComplexProperty, Origin, SystemEntity

    rng = random.Random(555)

    def entity(src, obj, props, complexes=()):
        o = Origin(src, obj, "t", 0)
        return SystemEntity.create(
            f"{src}/{obj}", "Node", "application", o,
            simple_props=props, complex_props=complexes,
        )

    try:
        # Simple-prop union.
        merged, conflicts = merge_properties(
            [entity("srca", "x", {"a": "1"}), entity("srcb", "x", {"b": "2"})]
        )
        assert merged.props["a"] == "1" and merged.props["b"] == "2"
        assert conflicts == ()

        # Trust-ranked conflict resolution with logged losers.
        merged, conflicts = merge_properties(
            [entity("low", "x", {"env": "test"}), entity("high", "x", {"env": "prod"})],
            trust={"high": 5, "low": 1},
        )
        assert merged.props["env"] == "prod"
        assert [(c.loser_value, c.loser_source) for c in conflicts] == [
            ("test", "low")
        ]

        # Digest-equal complex props deduplicate; digest-unequal retained.
        o1, o2 = Origin("srca", "x", "", 0), Origin("srcb", "x", "", 0)
        same1 = ComplexProperty.create("cfg", {"a": 1, "b": [2]}, o1)
        same2 = ComplexProperty.create("cfg", {"b": [2], "a": 1}, o2)
        other = ComplexProperty.create("cfg", {"a": 2}, o2)
        merged, _ = merge_properties(
            [entity("srca", "x", {}, (same1,)), entity("srcb", "x", {}, (same2, other))]
        )
        assert len(merged.complex_props) == 2

        # Member-order invariance against an order-insensitive fold oracle.
        for _ in range(30):
            members = []
            trust = {f"src{j}": rng.randint(0, 3) for j in range(3)}
            for i in range(rng.randint(2, 6)):
                src = f"src{rng.randrange(3)}"
                props = {
                    f"k{rng.randint(0, 4)}": f"v{rng.randint(0, 3)}"
                    for _ in range(rng.randint(0, 5))
                }
                members.append(entity(src, f"m{i}", props))
            oracle: dict = {}
            shuffled = members[:]
            rng.shuffle(shuffled)
            for m in shuffled:
                for k, v in m.simple_props.items():
                    entry = (-trust.get(m.origin.source_id, 0), m.origin.source_id, v)
                    if k not in oracle or entry < oracle[k]:
                        oracle[k] = entry
            baseline = None
            for perm in itertools.permutations(members):
                result = merge_properties(list(perm), trust)
                baseline = baseline or result
                assert result == baseline
            merged, _ = baseline
            assert {**merged.props, "space": merged.space} == {k: e[2] for k, e in oracle.items()}
    except AssertionError as exc:
        report(5, "merge semantics property suite", False, str(exc)[:100])
        raise
    report(5, "merge semantics property suite", True, "union/trust/digest/ordering")


def test_criterion_6_conformance_gate():
    rng = random.Random(66)
    checker = parse_schema(conformance_fixtures.schema_with_enum())
    base = conformance_fixtures.valid_batch(10)
    try:
        clean = check_batch(checker, base, RawStore.empty())
        assert clean.ok, f"false findings on clean corpus: {clean.findings[:3]}"
        assert check_batch(
            checker, conformance_fixtures.valid_batch(50), RawStore.empty()
        ).ok

        mutations = 0
        detected = 0
        for code in FINDING_CODES:
            for _ in range(8):
                mutated = conformance_fixtures.mutate(base, code, rng)
                mutations += 1
                if code in check_batch(checker, mutated, RawStore.empty()).codes():
                    detected += 1
        assert mutations >= 50
        assert detected == mutations, f"{detected}/{mutations} detected"
    except AssertionError as exc:
        report(6, "conformance mutation gate", False, str(exc)[:100])
        raise
    report(
        6, "conformance mutation gate", True,
        f"{mutations} mutations over {len(FINDING_CODES)} codes, 100% detected",
    )


def test_criterion_7_query_index_equivalence():
    rng = random.Random(77)
    networks = 0
    try:
        for _ in range(50):
            scenario = make_scenario(
                rng,
                n_systems=rng.randint(4, 12),
                n_flows=rng.randint(3, 15),
                n_sources=rng.randint(1, 3),
            )
            network = emit(reconstruct(store_from_sources(scenario.source_records)))
            index = build_index(network)

            # Search vs linear scan.
            all_tokens = sorted(
                {t for p in network.participants().values() for t in tokenize(p.label)}
            )
            queries = ["system", "example", "k0 v1", "absent-token"] + all_tokens[:3]
            for q in queries:
                expected = _scan_search(network, q)
                assert search(index, q) == expected, f"query {q!r}"

            # Traverse vs independent BFS.
            adjacency: dict = {}
            for s in network.spaces:
                for f in s.flows:
                    adjacency.setdefault(f.source, set()).add(f.target)
                    adjacency.setdefault(f.target, set()).add(f.source)
            ids = sorted(network.participants())
            for start in ids[:3]:
                for depth in (0, 1, 3):
                    fragment = traverse(index, start, depth)
                    assert set(fragment.participants()) == bfs_nodes(
                        start, adjacency, depth
                    )
            networks += 1
    except AssertionError as exc:
        report(7, "query/index equivalence", False, str(exc)[:100])
        raise
    report(7, "query/index equivalence", True, f"{networks} networks vs scan/BFS")


def _scan_search(network, query):
    tokens = tokenize(query)
    if not tokens:
        return []
    hits = []
    for s in network.spaces:
        for p in s.participants:
            bag = set(tokenize(p.label))
            for k, v in p.props.items():
                bag.update(tokenize(k))
                bag.update(tokenize(v))
            if all(t in bag for t in tokens):
                label_hits = sum(1 for t in tokens if t in set(tokenize(p.label)))
                hits.append((-label_hits, p.id))
    return [pid for _, pid in sorted(hits)]


#: A user rule that merges the systems of one kind in one space.
MERGE_KIND_RULES = (
    'equiv_sys(A, B) :- system(A, _, K), system(B, _, K), '
    'prop(A, "space", SP), prop(B, "space", SP).\n'
)


@pytest.mark.parametrize("rules", [None, MERGE_KIND_RULES], ids=["builtin", "rules-dl"])
def test_criterion_8_watch_batch_equivalence(tmp_path, rules):
    rng = random.Random(88)
    try:
        scenario = make_scenario(rng, n_systems=8, n_flows=10, n_sources=3)
        sources = sorted(scenario.source_records)

        def configure(ws):
            if rules is not None:
                ws.rules_path.write_text(rules)
            for src in sources:
                cfg = tmp_path / f"{src}-config.json"
                cfg.write_text(json.dumps({"source_id": src, "source_type": "t"}))
                ws.register_source(cfg)

        def snapshot_bytes(src):
            lines = [json.dumps(r) for r in scenario.source_records[src]]
            return ("\n".join(lines) + "\n").encode()

        # Batch run: plain commits in sorted order, one inference.
        batch_ws = Workspace.init(tmp_path / "batch")
        configure(batch_ws)
        for src in sources:
            snap = tmp_path / f"{src}-batch.jsonl"
            snap.write_bytes(snapshot_bytes(src))
            result = batch_ws.ingest(batch_ws.get_source(src), snap)
            assert isinstance(result, RawStore)
        batch_export = export_json(batch_ws.infer())

        # Watch runs: files dropped in arbitrary orders across polls,
        # duplicates included.
        for round_no in range(3):
            order = list(sources)
            rng.shuffle(order)
            ws = Workspace.init(tmp_path / f"watch{round_no}")
            configure(ws)
            drop = tmp_path / f"drop{round_no}"
            drop.mkdir()
            watcher = SnapshotWatcher(ws, drop)
            for src in order:
                (drop / f"{src}__snap.jsonl").write_bytes(snapshot_bytes(src))
                watcher.poll_once()
            # Duplicate drop of the first file: ledger suppresses it.
            (drop / f"{order[0]}__snap.jsonl").write_bytes(snapshot_bytes(order[0]))
            watcher.poll_once()
            assert ws.load_store().version == len(sources)
            assert ws.latest_network_bytes() == batch_export, (
                f"watch order {order} diverges from batch export"
            )
    except AssertionError as exc:
        report(8, "watch/batch equivalence", False, str(exc)[:100])
        raise
    with_rules = "" if rules is None else ", with rules.dl"
    report(8, "watch/batch equivalence", True, f"3 shuffled drops converge to batch bytes{with_rules}")


def test_criterion_9_desk_scale_throughput():
    # Soft target (not a gate): full pipeline over 10,000 systems and
    # 50,000 configurations; the measured time is reported either way.
    rng = random.Random(999)
    n_sys, n_flows = 10_000, 25_000
    records = {"srca": [], "srcb": []}
    for i in range(n_sys):
        src = "srca" if i % 2 == 0 else "srcb"
        records[src].append(
            {"kind": "system", "id": f"s{i}", "name": f"System {i}", "type": "application"}
        )
        records[src].append({"kind": "host", "id": f"h{i}", "hostname": f"host-{i}.net"})
        records[src].append(
            {"kind": "runs_on", "id": f"r{i}", "system_id": f"s{i}", "host_id": f"h{i}"}
        )
    for i in range(0, n_sys, 10):
        records["srcb" if i % 2 == 0 else "srca"].append(
            {"kind": "system", "id": f"dup{i}", "name": f"System {i}", "type": "application"}
        )
    for k in range(n_flows):
        a, b = rng.randrange(n_sys), rng.randrange(n_sys)
        records["srca" if a % 2 == 0 else "srcb"].append(
            {"kind": "out_conf", "id": f"oc{k}", "owner_system_id": f"s{a}",
             "interface_name": f"if{k}",
             "receiver_address": f"HTTP://EP-{k}.Example:80/x/"}
        )
        records["srca" if b % 2 == 0 else "srcb"].append(
            {"kind": "in_conf", "id": f"ic{k}", "owner_system_id": f"s{b}",
             "interface_name": f"if{k}",
             "endpoint_address": f"http://ep-{k}.example/x"}
        )

    started = time.perf_counter()
    store = store_from_sources(records)
    recon = reconstruct(store)
    data = export_json(emit(recon))
    elapsed = time.perf_counter() - started

    assert len(recon.flows) == n_flows
    assert len(data) > 0
    within = elapsed < 60.0
    report(
        9,
        "desk-scale throughput (soft target)",
        True,
        f"{n_sys} systems / {2 * n_flows} configs in {elapsed:.1f}s"
        + ("" if within else " — over the 60s soft target"),
    )
