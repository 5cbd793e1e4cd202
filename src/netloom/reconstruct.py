"""Built-in inference rules and the post-passes that assemble a network.

The rule program finds system and host equivalences (key match on
normalized name + kind across sources, propagated per Fig-style
runs_on joins), matches outbound against inbound configurations to
derive message flows, and maps correlation records to cross-space
links. The post-passes lift rule output to canonical ids: partitions
read off the closed equivalence rows, property merging with
trust-ranked conflict resolution, flow deduplication, and link
resolution.

Everything here is a pure function of one store version, so the result
is independent of the order in which snapshots were loaded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .datalog import Program, evaluate, parse_program
from .model import (
    ComplexProperty,
    DEFAULT_SPACE,
    EDB_PREDICATES,
    InterfaceRef,
    Origin,
    RawStore,
    SystemEntity,
    to_facts,
)


class ReconstructionError(Exception):
    pass


BUILTIN_RULES = """\
% System equivalence: same key (normalized name, kind) in the same
% space, discovered by different sources, closed under symmetry and
% transitivity. Singleton systems simply stay in their own class.
equiv_sys(A, B) :-
    system(A, NA, K), system(B, NB, K),
    prop(A, "space", SP), prop(B, "space", SP),
    origin(A, SRA, _), origin(B, SRB, _),
    SRA != SRB, norm_eq(NA, NB).
equiv_sys(B, A) :- equiv_sys(A, B).
equiv_sys(A, C) :- equiv_sys(A, B), equiv_sys(B, C).

% Host equivalence: shared hostname, plus propagation from system
% equivalence over runs_on.
equiv_host(H1, H2) :- host(H1, N), host(H2, N).
equiv_host(H1, H2) :- equiv_sys(S1, S2), runs_on(S1, H1), runs_on(S2, H2).
equiv_host(B, A) :- equiv_host(A, B).
equiv_host(A, C) :- equiv_host(A, B), equiv_host(B, C).

% Matching outbound and inbound configurations: same interface
% coordinates and equivalent addresses.
conf_match(O, I) :-
    out_conf(O, _, IN, INS, OP, OA, _),
    in_conf(I, _, IN, INS, OP, IA, _),
    norm_eq(OA, IA).

% Message flows are the owner-level projection of the call graph.
flow(SA, SB, IN) :-
    conf_match(O, I),
    out_conf(O, SA, IN, _, _, _, _),
    in_conf(I, SB, _, _, _, _, _).

% Cross-space links: explicit correlation records, plus a name-equality
% bridge between spaces.
participant_link(L, R, KIND) :- correlation(LS, L, RS, R, KIND).
participant_link(A, B, "same-name") :-
    system(A, NA, _), system(B, NB, _),
    prop(A, "space", SPA), prop(B, "space", SPB),
    SPA != SPB, A < B, norm_eq(NA, NB).
"""


@lru_cache(maxsize=1)
def builtin_program() -> Program:
    """The built-in rule program; parses and stratifies cleanly."""
    return parse_program(BUILTIN_RULES)


@dataclass(frozen=True)
class EquivalenceClassSet:
    """A partition per entity kind with a canonical representative."""

    systems: dict[str, tuple[str, ...]]  # canonical id -> sorted members
    hosts: dict[str, tuple[str, ...]]
    _system_rep: dict[str, str] = field(default_factory=dict, repr=False)
    _host_rep: dict[str, str] = field(default_factory=dict, repr=False)

    def system_rep(self, entity_id: str) -> str:
        return self._system_rep[entity_id]

    def host_rep(self, entity_id: str) -> str:
        return self._host_rep[entity_id]


def _classes(
    members: Iterable[str], rows: Iterable[tuple]
) -> tuple[dict[str, tuple[str, ...]], dict[str, str]]:
    """Partition ``members`` by the rows of an equivalence predicate.

    The built-in rules close ``equiv_sys`` and ``equiv_host`` under
    symmetry and transitivity, also through ids outside ``members``, so
    a member's class is itself plus its partners among ``members``.
    Returns the classes, keyed by their smallest member and holding
    their members sorted, and each member's key.
    """
    partners = {m: {m} for m in members}
    for a, b in rows:
        if a in partners and b in partners:
            partners[a].add(b)
    classes: dict[str, tuple[str, ...]] = {}
    rep: dict[str, str] = {}
    for m, group in partners.items():
        rep[m] = key = min(group)
        if key not in classes:
            classes[key] = tuple(sorted(group))
    return classes, rep


@dataclass(frozen=True)
class PropertyConflict:
    key: str
    winner_value: str
    winner_source: str
    loser_value: str
    loser_source: str


@dataclass(frozen=True)
class MergedSystem:
    canonical_id: str
    member_ids: tuple[str, ...]
    name: str
    kind: str
    space: str
    simple_props: dict[str, str]
    conflicts: tuple[PropertyConflict, ...]
    complex_props: tuple[ComplexProperty, ...]
    host_classes: tuple[str, ...]
    origins: tuple[Origin, ...]


@dataclass(frozen=True)
class ReconstructedFlow:
    source_class: str
    target_class: str
    interface: InterfaceRef
    supporting: tuple[tuple[str, str], ...]  # (out_conf id, in_conf id)
    origins: tuple[Origin, ...]


@dataclass(frozen=True)
class LiftedLink:
    left: str
    right: str
    kind: str
    left_space: str
    right_space: str


@dataclass(frozen=True)
class FlowLink:
    left_flow: str
    right_flow: str
    kind: str


@dataclass(frozen=True)
class Reconstruction:
    classes: EquivalenceClassSet
    merged: tuple[MergedSystem, ...]
    flows: tuple[ReconstructedFlow, ...]
    links: tuple[LiftedLink, ...]
    flow_links: tuple[FlowLink, ...]


def flow_id_for(source_class: str, target_class: str, interface: InterfaceRef) -> str:
    blob = "\x1f".join(
        (source_class, target_class, interface.name, interface.namespace, interface.operation)
    )
    return "flow:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _sorted_origins(origins: Iterable[Origin]) -> tuple[Origin, ...]:
    unique = {(o.source_id, o.object_id): o for o in origins}
    return tuple(unique[k] for k in sorted(unique))


def merge_properties(
    members: Sequence[SystemEntity],
    trust: Mapping[str, int] | None = None,
    runs_on_hosts: Mapping[str, Iterable[str]] | None = None,
    host_rep=None,
) -> MergedSystem:
    """Merge one equivalence class of systems into a single node.

    Simple properties are unioned; conflicting values are resolved by
    higher trust rank, then lexicographically smaller source id, and the
    losing values are kept in ``conflicts``. Complex properties deduplicate by digest;
    same-kind payloads with different digests are all retained. The
    result does not depend on member order.
    """
    if not members:
        raise ReconstructionError("cannot merge an empty member list")
    trust = trust or {}
    ordered = sorted(members, key=lambda m: m.id)
    rep = ordered[0]

    candidates: dict[str, list[tuple]] = {}
    for m in ordered:
        for key, value in m.simple_props.items():
            # Rank tuple sorts winners first.
            candidates.setdefault(key, []).append(
                (-trust.get(m.origin.source_id, 0), m.origin.source_id, value, m.id)
            )
    merged_props: dict[str, str] = {}
    conflicts: list[PropertyConflict] = []
    for key in sorted(candidates):
        ranked = sorted(candidates[key])
        winner = ranked[0]
        merged_props[key] = winner[2]
        logged = set()
        for loser in ranked[1:]:
            if loser[2] == winner[2] or (loser[1], loser[2]) in logged:
                continue
            logged.add((loser[1], loser[2]))
            conflicts.append(
                PropertyConflict(key, winner[2], winner[1], loser[2], loser[1])
            )

    by_digest: dict[tuple[str, str], ComplexProperty] = {}
    for m in ordered:
        for cp in m.complex_props:
            by_digest.setdefault((cp.kind, cp.digest), cp)
    complex_props = tuple(by_digest[k] for k in sorted(by_digest))

    host_classes: set[str] = set()
    if runs_on_hosts is not None:
        for m in ordered:
            for host_id in runs_on_hosts.get(m.id, ()):
                host_classes.add(host_rep(host_id) if host_rep else host_id)

    return MergedSystem(
        canonical_id=rep.id,
        member_ids=tuple(m.id for m in ordered),
        name=rep.name,
        kind=rep.kind,
        space=merged_props.get("space", DEFAULT_SPACE),
        simple_props=merged_props,
        conflicts=tuple(
            sorted(
                conflicts,
                key=lambda c: (c.key, c.loser_source, c.loser_value),
            )
        ),
        complex_props=complex_props,
        host_classes=tuple(sorted(host_classes)),
        origins=_sorted_origins(m.origin for m in ordered),
    )


def reconstruct(store: RawStore, extra_rules: Program | None = None) -> Reconstruction:
    """Run the inference program over the store and lift the results.

    ``extra_rules`` may extend every derived predicate but must not
    define rules for the raw-fact predicates. The output is fully
    sorted, so equal stores produce identical reconstructions no matter
    how or in what order they were loaded.
    """
    program = builtin_program()
    if extra_rules is not None:
        bad = sorted(extra_rules.head_predicates() & EDB_PREDICATES)
        if bad:
            raise ReconstructionError(
                f"extra rules may not redefine raw predicates: {', '.join(bad)}"
            )
        program = program.union(extra_rules)

    idb = evaluate(program, to_facts(store))
    sys_classes, sys_rep = _classes(store.systems, idb.get("equiv_sys", ()))
    host_classes, host_rep = _classes(store.hosts, idb.get("equiv_host", ()))
    classes = EquivalenceClassSet(sys_classes, host_classes, sys_rep, host_rep)

    runs_on_hosts: dict[str, list[str]] = {}
    for r in store.runs_on:
        if r.host_id in store.hosts:
            runs_on_hosts.setdefault(r.system_id, []).append(r.host_id)

    merged = tuple(
        merge_properties(
            [store.systems[m] for m in members],
            runs_on_hosts=runs_on_hosts,
            host_rep=classes.host_rep,
        )
        for members in classes.systems.values()
    )
    merged = tuple(sorted(merged, key=lambda m: m.canonical_id))

    # Flows: group matched configuration pairs by canonical endpoints
    # and interface; each group keeps its supporting evidence. A config
    # whose owner vanished in a later reload of another source carries
    # no liftable evidence and is skipped, so one shrinking source never
    # wedges the pipeline.
    grouped: dict[tuple, dict] = {}
    for out_id, in_id in idb.get("conf_match", ()):
        oc = store.out_confs.get(out_id)
        ic = store.in_confs.get(in_id)
        if oc is None or ic is None:
            continue
        if (
            oc.owner_system_id not in store.systems
            or ic.owner_system_id not in store.systems
        ):
            continue
        key = (
            classes.system_rep(oc.owner_system_id),
            classes.system_rep(ic.owner_system_id),
            oc.interface,
        )
        bucket = grouped.setdefault(key, {"supporting": set(), "origins": []})
        bucket["supporting"].add((out_id, in_id))
        bucket["origins"].extend((oc.origin, ic.origin))
    flows = tuple(
        ReconstructedFlow(
            source_class=key[0],
            target_class=key[1],
            interface=key[2],
            supporting=tuple(sorted(bucket["supporting"])),
            origins=_sorted_origins(bucket["origins"]),
        )
        for key, bucket in sorted(
            grouped.items(),
            key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].name, kv[0][2].namespace, kv[0][2].operation),
        )
    )
    flow_ids = {flow_id_for(f.source_class, f.target_class, f.interface) for f in flows}

    # Links whose endpoints do not resolve in this store version are
    # stale or garbage evidence and contribute nothing; resolvable links
    # that fail the cross-space invariant are real data errors.
    space_of: dict[str, str] = {m.canonical_id: m.space for m in merged}
    links: set[LiftedLink] = set()
    flow_links: set[FlowLink] = set()
    for left, right, kind in idb.get("participant_link", ()):
        left_is_flow = isinstance(left, str) and left.startswith("flow:")
        right_is_flow = isinstance(right, str) and right.startswith("flow:")
        if left_is_flow != right_is_flow:
            continue
        if left_is_flow:
            if left in flow_ids and right in flow_ids:
                flow_links.add(FlowLink(left, right, kind))
            continue
        if left not in store.systems or right not in store.systems:
            continue
        lc = classes.system_rep(left)
        rc = classes.system_rep(right)
        ls, rs = space_of[lc], space_of[rc]
        if ls == rs:
            raise ReconstructionError(
                f"participant link ({lc!r}, {rc!r}, {kind!r}) must bridge "
                f"different spaces, both are in {ls!r}"
            )
        links.add(LiftedLink(lc, rc, kind, ls, rs))

    return Reconstruction(
        classes=classes,
        merged=merged,
        flows=flows,
        links=tuple(sorted(links, key=lambda l: (l.left, l.right, l.kind))),
        flow_links=tuple(
            sorted(flow_links, key=lambda l: (l.left_flow, l.right_flow, l.kind))
        ),
    )
