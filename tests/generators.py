"""Randomized instance generators with ground-truth manifests.

The generators know exactly what they built, so tests can compare
engine output against manifests instead of re-deriving expectations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from netloom.datalog import _format_term
from netloom.model import InterfaceRef


# ---------------------------------------------------------------------------
# Random stratifiable Datalog programs


def random_program_text(
    rng: random.Random, max_predicates: int = 6, max_facts: int = 30
) -> tuple[str, str]:
    """Build (rule text, fact text) for a random stratifiable program.

    Predicates are pre-assigned to levels; positive body atoms stay at
    or below the head's level and negated atoms strictly below, which
    guarantees stratifiability by construction.
    """
    n_preds = rng.randint(2, max_predicates)
    preds = [f"p{i}" for i in range(n_preds)]
    arity = {p: rng.randint(1, 3) for p in preds}
    level = {p: rng.randint(0, 2) for p in preds}
    consts = [f"c{i}" for i in range(rng.randint(2, 5))]
    var_pool = ["X", "Y", "Z", "W"]

    lines: list[str] = []
    for _ in range(rng.randint(1, 7)):
        head_pred = rng.choice(preds)
        candidates = [p for p in preds if level[p] <= level[head_pred]]
        body: list[str] = []
        pos_vars: list[str] = []
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(candidates)
            args = []
            for _ in range(arity[p]):
                if rng.random() < 0.75:
                    v = rng.choice(var_pool)
                    args.append(v)
                    if v not in pos_vars:
                        pos_vars.append(v)
                else:
                    args.append(rng.choice(consts))
            body.append(f"{p}({', '.join(args)})")
        lower = [p for p in preds if level[p] < level[head_pred]]
        if lower and pos_vars and rng.random() < 0.4:
            p = rng.choice(lower)
            args = [rng.choice(pos_vars + consts) for _ in range(arity[p])]
            body.append(f"not {p}({', '.join(args)})")
        if len(pos_vars) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(pos_vars, 2)
            body.append(f"{a} {rng.choice(['!=', '<', '<='])} {b}")
        head_args = [rng.choice(pos_vars or consts) for _ in range(arity[head_pred])]
        lines.append(f"{head_pred}({', '.join(head_args)}) :- {', '.join(body)}.")

    fact_lines: list[str] = []
    for _ in range(rng.randint(0, max_facts)):
        p = rng.choice(preds)
        args = [rng.choice(consts) for _ in range(arity[p])]
        fact_lines.append(f"{p}({', '.join(args)}).")

    return "\n".join(lines), "\n".join(fact_lines)


# Constants for ``random_builtin_program``: strings that differ only in
# case and spacing (so norm_eq has work), strings holding a quote, a
# backslash, a newline and non-ASCII text, and integers.
_BUILTIN_STRINGS = ["a", "A ", " a", "b", 'x"y', "back\\slash", "two\nlines", "é", " É"]
_BUILTIN_INTS = [-1, 0, 1, 2]


def random_builtin_program(
    rng: random.Random, max_predicates: int = 5, max_facts: int = 30
) -> tuple[str, dict[str, set[tuple]]]:
    """Build (rule text, fact base) for a random stratifiable program
    that also uses ``=``, ``!=``, ``<``, ``<=`` and ``norm_eq`` over int
    and quoted-string constants, with zero-arity predicates allowed.

    Comparisons land anywhere in a body and may join two constants, so
    some run before the first scan; ``=`` with one side unbound becomes a
    bind, and norm_eq beside an unscanned variable a normalized lookup.
    """
    n_preds = rng.randint(2, max_predicates)
    preds = [f"p{i}" for i in range(n_preds)]
    arity = {p: rng.randint(0, 3) for p in preds}
    level = {p: rng.randint(0, 2) for p in preds}
    consts: list[str | int] = rng.sample(_BUILTIN_STRINGS, 4) + rng.sample(_BUILTIN_INTS, 2)
    var_pool = ["X", "Y", "Z", "W"]

    def atom(pred: str, args: list[str]) -> str:
        return f"{pred}({', '.join(args)})" if args else pred

    def const_text() -> str:
        return _format_term(rng.choice(consts))

    lines: list[str] = []
    for _ in range(rng.randint(1, 6)):
        head_pred = rng.choice(preds)
        candidates = [p for p in preds if level[p] <= level[head_pred]]
        body: list[str] = []
        pos_vars: list[str] = []
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(candidates)
            args = []
            for _ in range(arity[p]):
                if rng.random() < 0.8:
                    v = rng.choice(var_pool)
                    args.append(v)
                    if v not in pos_vars:
                        pos_vars.append(v)
                else:
                    args.append(const_text())
            body.append(atom(p, args))

        def term() -> str:
            return rng.choice(pos_vars) if pos_vars and rng.random() < 0.7 else const_text()

        lower = [p for p in preds if level[p] < level[head_pred]]
        if lower and rng.random() < 0.4:
            p = rng.choice(lower)
            body.append("not " + atom(p, [term() for _ in range(arity[p])]))
        for _ in range(rng.randint(0, 2)):
            a, b = term(), term()
            op = rng.choice(["=", "=", "!=", "<", "<=", "norm_eq", "norm_eq"])
            literal = f"norm_eq({a}, {b})" if op == "norm_eq" else f"{a} {op} {b}"
            body.insert(rng.randint(0, len(body)), literal)
        head = atom(head_pred, [term() for _ in range(arity[head_pred])])
        lines.append(f"{head} :- {', '.join(body)}.")

    edb: dict[str, set[tuple]] = {}
    for _ in range(rng.randint(0, max_facts)):
        p = rng.choice(preds)
        edb.setdefault(p, set()).add(tuple(rng.choice(consts) for _ in range(arity[p])))
    return "\n".join(lines), edb


# ---------------------------------------------------------------------------
# Scattered landscape scenarios


@dataclass
class Scenario:
    """A generated landscape plus the manifest used to verify recovery."""

    source_records: dict[str, list[dict]]  # source id -> snapshot records
    canonical_ids: dict[int, str]  # system index -> expected canonical id
    host_canonical_ids: dict[int, str]
    true_edges: set[tuple]  # (canonical src, canonical tgt, interface label)
    class_members: dict[int, set[str]]  # system index -> engine ids
    systems: list[dict] = field(default_factory=list)
    flows: list[dict] = field(default_factory=list)


def make_scenario(
    rng: random.Random,
    n_systems: int = 12,
    n_flows: int = 20,
    n_sources: int = 3,
    duplicate_rate: float = 0.5,
    complex_rate: float = 0.3,
) -> Scenario:
    """Generate a ground-truth network scattered across overlapping sources.

    Every flow's outbound and inbound configurations may land in
    different sources; duplicated systems keep their (name, kind) key so
    equivalence detection must stitch them back together. Names,
    hostnames, and addresses are unique per entity, so recovery on
    noiseless input must be exact.
    """
    sources = [f"src{chr(ord('a') + i)}" for i in range(n_sources)]
    kinds = ["application", "middleware", "tenant"]

    systems = []
    for i in range(n_systems):
        systems.append(
            {
                "index": i,
                "name": f"System {i:03d}",
                "kind": kinds[i % len(kinds)],
                "hostname": f"host-{i:03d}.example.net",
                "props": {f"k{j}": f"v{i}-{j}" for j in range(rng.randint(0, 2))},
            }
        )

    flows = []
    seen_pairs = set()
    attempts = 0
    while len(flows) < n_flows and attempts < n_flows * 20:
        attempts += 1
        a = rng.randrange(n_systems)
        b = rng.randrange(n_systems)
        iface = f"if_{len(flows):03d}"
        if (a, b, iface) in seen_pairs:
            continue
        seen_pairs.add((a, b, iface))
        k = len(flows)
        raw = f"HTTP://Endpoint-{k:03d}.Example.net:80/svc/{k}/"
        flows.append(
            {
                "src": a,
                "tgt": b,
                "iface": iface,
                "namespace": f"urn:ns{k % 4}",
                "operation": f"op{k % 3}" if k % 2 == 0 else "",
                "out_address": raw,
                # Equivalent after normalization but textually different.
                "in_address": f"http://endpoint-{k:03d}.example.net/svc/{k}",
            }
        )

    # Assign each system to one or more sources.
    placement: dict[int, list[str]] = {}
    for s in systems:
        i = s["index"]
        home = rng.choice(sources)
        placement[i] = [home]
        if n_sources > 1 and rng.random() < duplicate_rate:
            other = rng.choice([x for x in sources if x != home])
            placement[i].append(other)

    records: dict[str, list[dict]] = {src: [] for src in sources}
    engine_ids: dict[int, set[str]] = {i: set() for i in range(n_systems)}
    host_engine_ids: dict[int, set[str]] = {i: set() for i in range(n_systems)}

    for s in systems:
        i = s["index"]
        for n, src in enumerate(placement[i]):
            obj = f"sys-{i:03d}" if n == 0 else f"alt-{i:03d}"
            hobj = f"host-{i:03d}" if n == 0 else f"halt-{i:03d}"
            rec = {
                "kind": "system",
                "id": obj,
                "name": s["name"],
                "type": s["kind"],
            }
            # Scatter the props over the copies.
            for j, (k, v) in enumerate(sorted(s["props"].items())):
                if j % len(placement[i]) == n:
                    rec[k] = v
            if rng.random() < complex_rate:
                rec["deployment"] = {"zone": f"z{i % 3}", "tier": ["web", "app"]}
            records[src].append(rec)
            records[src].append({"kind": "host", "id": hobj, "hostname": s["hostname"]})
            records[src].append(
                {
                    "kind": "runs_on",
                    "id": f"ro-{i:03d}-{n}",
                    "system_id": obj,
                    "host_id": hobj,
                }
            )
            engine_ids[i].add(f"{src}/{obj}")
            host_engine_ids[i].add(f"{src}/{hobj}")

    for k, f in enumerate(flows):
        out_home = rng.choice(placement[f["src"]])
        in_home = rng.choice(placement[f["tgt"]])
        out_obj = "sys-{0:03d}".format(f["src"]) if out_home == placement[f["src"]][0] else "alt-{0:03d}".format(f["src"])
        in_obj = "sys-{0:03d}".format(f["tgt"]) if in_home == placement[f["tgt"]][0] else "alt-{0:03d}".format(f["tgt"])
        records[out_home].append(
            {
                "kind": "out_conf",
                "id": f"oc-{k:03d}",
                "owner_system_id": out_obj,
                "interface_name": f["iface"],
                "interface_namespace": f["namespace"],
                "operation": f["operation"],
                "receiver_address": f["out_address"],
                "adapter": "soap",
            }
        )
        records[in_home].append(
            {
                "kind": "in_conf",
                "id": f"ic-{k:03d}",
                "owner_system_id": in_obj,
                "interface_name": f["iface"],
                "interface_namespace": f["namespace"],
                "operation": f["operation"],
                "endpoint_address": f["in_address"],
                "adapter": "soap",
            }
        )

    canonical = {i: min(engine_ids[i]) for i in range(n_systems)}
    host_canonical = {i: min(host_engine_ids[i]) for i in range(n_systems)}
    true_edges = {
        (
            canonical[f["src"]],
            canonical[f["tgt"]],
            InterfaceRef(f["iface"], f["namespace"], f["operation"]).label(),
        )
        for f in flows
    }
    return Scenario(
        source_records=records,
        canonical_ids=canonical,
        host_canonical_ids=host_canonical,
        true_edges=true_edges,
        class_members=engine_ids,
        systems=systems,
        flows=flows,
    )
