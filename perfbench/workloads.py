"""Seeded input generators for the benchmark workloads.

Each generator writes JSON Lines snapshots plus one source config per
source into a directory and returns an ``Inputs`` value: the file paths
netloom is given, and the manifest the benchmark checks the output
against. The same seed always yields byte-identical files. These
generators belong to the benchmark and import nothing from the
program or its tests, so neither can change a workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Inputs:
    sources: list[str]
    configs: dict[str, Path]  # source id -> source config file
    snapshots: dict[str, Path]  # source id -> snapshot file
    participants: int  # expected participant count
    flows: int  # expected flow count
    hot_id: str = ""  # canonical id of the hot class (hotkey only)
    hot_members: tuple = ()  # (source id, object id) of its members
    records: dict[str, list[dict]] = field(default_factory=dict)
    canonical: dict[int, str] = field(default_factory=dict)  # system index -> id


def write_jsonl(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_inputs(out_dir: Path, records: dict[str, list[dict]]):
    out_dir.mkdir(parents=True, exist_ok=True)
    configs, snapshots = {}, {}
    for src in sorted(records):
        cfg = out_dir / f"{src}.config.json"
        cfg.write_text(
            json.dumps({"source_id": src, "source_type": "discovery"}, sort_keys=True),
            encoding="utf-8",
        )
        configs[src] = cfg
        snapshots[src] = out_dir / f"{src}.jsonl"
        write_jsonl(snapshots[src], records[src])
    return configs, snapshots


def _landscape(
    rng: random.Random,
    sources: list[str],
    n_systems: int,
    n_flows: int,
    dup_every: int,
    prefix: str,
):
    """Systems spread round-robin over the sources, every ``dup_every``-th
    one discovered again by the next source, plus ``n_flows`` flows with
    distinct interfaces, each split into an out/in configuration pair.

    Returns (records per source, canonical id per system index).
    Canonical ids are the smallest member engine id, as netloom picks.
    """
    records: dict[str, list[dict]] = {s: [] for s in sources}
    home: dict[int, str] = {}
    canonical: dict[int, str] = {}
    tiers = ("web", "app", "data", "batch")
    for i in range(n_systems):
        src = sources[i % len(sources)]
        home[i] = src
        name = f"{prefix} System {i:05d}"
        team = f"team-{rng.randrange(40):02d}"
        records[src].append(
            {"kind": "system", "id": f"s{i}", "name": name, "type": "application",
             "owner": team, "tier": tiers[i % len(tiers)]}
        )
        records[src].append({"kind": "host", "id": f"h{i}", "hostname": f"host-{i}.{prefix.lower()}.net"})
        records[src].append({"kind": "runs_on", "id": f"r{i}", "system_id": f"s{i}", "host_id": f"h{i}"})
        members = [f"{src}/s{i}"]
        if dup_every and i % dup_every == 0 and len(sources) > 1:
            other = sources[(i + 1) % len(sources)]
            records[other].append(
                {"kind": "system", "id": f"dup{i}", "name": name, "type": "application",
                 "owner": team, "region": f"r{rng.randrange(4)}"}
            )
            members.append(f"{other}/dup{i}")
        canonical[i] = min(members)
    for k in range(n_flows):
        a, b = rng.randrange(n_systems), rng.randrange(n_systems)
        records[home[a]].append(
            {"kind": "out_conf", "id": f"oc{k}", "owner_system_id": f"s{a}",
             "interface_name": f"if{k}", "interface_namespace": f"urn:ns{k % 7}",
             "receiver_address": f"HTTP://EP-{k}.Example:80/svc/{k}/"}
        )
        records[home[b]].append(
            {"kind": "in_conf", "id": f"ic{k}", "owner_system_id": f"s{b}",
             "interface_name": f"if{k}", "interface_namespace": f"urn:ns{k % 7}",
             "endpoint_address": f"http://ep-{k}.example/svc/{k}"}
        )
    return records, canonical


def hotkey(seed: int, out_dir: Path, *, n_systems: int, n_flows: int, hot: int, shared_host: int) -> Inputs:
    """An ordinary landscape over four sources plus one same-key class of
    ``hot`` systems whose names differ only in case and whitespace, and
    ``shared_host`` hosts that all report the hostname ``localhost``."""
    rng = random.Random(f"hotkey:{seed}")
    sources = ["srca", "srcb", "srcc", "srcd"]
    records, canonical = _landscape(rng, sources, n_systems, n_flows, 10, "Hot")
    members = []
    for j in range(hot):
        src = sources[j % len(sources)]
        spelled = "".join(c.upper() if rng.random() < 0.5 else c for c in "hot cluster")
        name = " " * rng.randrange(3) + spelled + " " * rng.randrange(3)
        records[src].append({"kind": "system", "id": f"hot{j}", "name": name,
                             "type": "middleware", "node": str(j)})
        records[src].append({"kind": "host", "id": f"hh{j}", "hostname": f"hot-{j}.cluster.net"})
        records[src].append({"kind": "runs_on", "id": f"hr{j}", "system_id": f"hot{j}", "host_id": f"hh{j}"})
        members.append((src, f"hot{j}"))
    # The shared hostname sits on ordinary systems, so it merges hosts
    # but never systems.
    for j in range(shared_host):
        i = rng.randrange(n_systems)
        src = sources[i % len(sources)]
        records[src].append({"kind": "host", "id": f"lh{j}", "hostname": "localhost"})
        records[src].append({"kind": "runs_on", "id": f"lr{j}", "system_id": f"s{i}", "host_id": f"lh{j}"})
    configs, snapshots = _write_inputs(out_dir, records)
    hot_id = min(f"{s}/{o}" for s, o in members)
    return Inputs(sources, configs, snapshots, n_systems + 1, n_flows,
                  hot_id=hot_id, hot_members=tuple(sorted(members)),
                  records=records, canonical=canonical)


def watch(seed: int, out_dir: Path, *, n_systems: int, n_flows: int) -> Inputs:
    """Six sources of a mid-sized landscape; the records are kept so each
    round can rewrite one source's snapshot (see ``change_source``)."""
    rng = random.Random(f"watch:{seed}")
    sources = [f"src{c}" for c in "abcdef"]
    records, canonical = _landscape(rng, sources, n_systems, n_flows, 10, "Watch")
    configs, snapshots = _write_inputs(out_dir, records)
    return Inputs(sources, configs, snapshots, n_systems, n_flows,
                  records=records, canonical=canonical)


def change_source(inputs: Inputs, seed: int, round_no: int) -> tuple[str, list[dict]]:
    """The changed snapshot of round ``round_no``: one source (in turn)
    with every system's ``rev`` property bumped and a tenth of its
    outbound configurations moved to another of its systems. Participant
    and flow counts stay the same."""
    rng = random.Random(f"watch-round:{seed}:{round_no}")
    src = inputs.sources[round_no % len(inputs.sources)]
    owners = [r["id"] for r in inputs.records[src] if r["kind"] == "system" and r["id"].startswith("s")]
    changed = []
    for rec in inputs.records[src]:
        rec = dict(rec)
        if rec["kind"] == "system":
            rec["rev"] = str(round_no)
        elif rec["kind"] == "out_conf" and rng.random() < 0.1:
            rec["owner_system_id"] = rng.choice(owners)
        changed.append(rec)
    inputs.records[src] = changed
    return src, changed

