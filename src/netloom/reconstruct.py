"""Built-in inference rules and the lift of their output to a network.

The rule program finds system and host equivalences (key match on
normalized name + kind across sources, propagated per Fig-style
runs_on joins), matches outbound against inbound configurations to
derive message flows, and maps correlation records to cross-space
links. ``reconstruct`` evaluates only the slice of the program that
the lift reads (``equiv_sys``, ``conf_match`` and ``participant_link``)
and lifts it straight to the network's entities under canonical ids:
a partition read off the closed equivalence rows, keyed by each class's
smallest member; one participant per class, which ``merge_properties``
builds with its losing property values beside it (conflicts go to the
smaller source id); one flow per pair of classes and interface; and
links between resolved endpoints. Host classes are derived apart, on
demand, by ``host_classes``, as the same kind of partition.

Everything here is a pure function of one store version, so the result
is independent of the order in which snapshots were loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .datalog import Program, evaluate, parse_program, stratify
from .model import (
    DEFAULT_SPACE,
    EDB_PREDICATES,
    InterfaceRef,
    RawStore,
    SystemEntity,
    acyclic,
    content_id,
    to_facts,
)
from .network import (
    ComplexPropertyView,
    MessageFlow,
    MessageFlowLink,
    Participant,
    ParticipantLink,
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


def merged_program(extra_rules: Program | None) -> Program:
    """The built-in program merged with ``extra_rules``. The merged
    program is stratified whole, so rules that fail do so even where no
    slice of it would evaluate them. Raises ReconstructionError for
    extra rules that redefine a raw predicate, and ProgramError for an
    arity conflict or a cycle through negation."""
    program = builtin_program()
    if extra_rules is not None:
        bad = sorted(extra_rules.head_predicates() & EDB_PREDICATES)
        if bad:
            raise ReconstructionError(
                f"extra rules may not redefine raw predicates: {', '.join(bad)}"
            )
        program = program.union(extra_rules)
        stratify(program)
    return program


@dataclass(frozen=True)
class EquivalenceClassSet:
    """The system partition, keyed by each class's smallest member and
    holding its members sorted.

    Host classes are read by no export byte; ``hosts`` derives them on
    first read, by ``host_classes``. The store and rules held for that
    are the bridge the benchmark's tracer reads classes through, until
    it reads ``host_classes`` itself (ROADMAP item 2)."""

    systems: dict[str, tuple[str, ...]]
    _store: RawStore = field(compare=False, repr=False)
    _extra_rules: Program | None = field(compare=False, repr=False)

    @cached_property
    def hosts(self) -> dict[str, tuple[str, ...]]:
        return host_classes(self._store, self._extra_rules)


def _classes(members: Iterable[str], rows: Iterable[tuple]) -> dict[str, tuple[str, ...]]:
    """Partition ``members`` by the rows of an equivalence predicate.

    The built-in rules close ``equiv_sys`` and ``equiv_host`` under
    symmetry and transitivity, also through ids outside ``members``, so
    a member's class is itself plus its partners among ``members``, and
    its members share one smallest partner. Returns the classes, keyed
    by their smallest member, each holding its members sorted.
    """
    smallest = {m: m for m in members}
    for a, b in rows:
        if a in smallest and b in smallest and b < smallest[a]:
            smallest[a] = b
    classes: dict[str, list[str]] = {}
    for m in sorted(smallest):
        classes.setdefault(smallest[m], []).append(m)
    return {key: tuple(group) for key, group in classes.items()}


@acyclic
def host_classes(
    store: RawStore, extra_rules: Program | None = None
) -> dict[str, tuple[str, ...]]:
    """The classes that the closed ``equiv_host`` rows make of the
    store's hosts, keyed by their smallest member and holding their
    members sorted. Evaluates only the slice of the program that
    ``equiv_host`` depends on; ``reconstruct`` derives no ``equiv_host``
    row itself."""
    idb = evaluate(merged_program(extra_rules).slice({"equiv_host"}), to_facts(store))
    return _classes(store.hosts, idb.get("equiv_host", ()))


@dataclass(frozen=True)
class PropertyConflict:
    key: str
    winner_value: str
    winner_source: str
    loser_value: str
    loser_source: str


@dataclass(frozen=True)
class Reconstruction:
    """The closed rules lifted to network entities, plus the evidence
    the export leaves out: ``conflicts`` maps a participant id to the
    property values that lost (non-empty only), and ``supporting`` maps
    a flow id to its sorted (out_conf id, in_conf id) pairs."""

    classes: EquivalenceClassSet
    participants: tuple[Participant, ...]
    flows: tuple[MessageFlow, ...]
    participant_links: tuple[ParticipantLink, ...]
    flow_links: tuple[MessageFlowLink, ...]
    conflicts: dict[str, tuple[PropertyConflict, ...]]
    supporting: dict[str, tuple[tuple[str, str], ...]]


def flow_id_for(source_class: str, target_class: str, interface: InterfaceRef) -> str:
    return content_id(
        "flow", source_class, target_class, interface.name, interface.namespace, interface.operation
    )


def merge_properties(
    members: Sequence[SystemEntity],
    trust: Mapping[str, int] | None = None,
) -> tuple[Participant, tuple[PropertyConflict, ...]]:
    """Merge one equivalence class of systems into a single participant,
    with the id and name of its member with the smallest id, and the
    property values that lost.

    Simple properties are unioned; conflicting values are resolved by
    higher trust rank, then lexicographically smaller source id, and the
    losing values are returned sorted beside the participant. The merged
    ``space`` property becomes the participant's space. Complex
    properties deduplicate by digest; same-kind payloads with different
    digests are all retained. The result does not depend on member order.
    """
    if not members:
        raise ReconstructionError("cannot merge an empty member list")
    trust = trust or {}
    ordered = sorted(members, key=lambda m: m.id)

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

    payloads: dict[tuple[str, str], object] = {}
    for m in ordered:
        for cp in m.complex_props:
            payloads.setdefault((cp.kind, cp.digest), cp.payload)

    participant = Participant(
        id=ordered[0].id,
        label=ordered[0].name,
        space=merged_props.pop("space", DEFAULT_SPACE),
        props=merged_props,
        complex_props=tuple(ComplexPropertyView(*k, payloads[k]) for k in sorted(payloads)),
        origins=tuple(sorted({(m.origin.source_id, m.origin.object_id) for m in ordered})),
    )
    return participant, tuple(
        sorted(conflicts, key=lambda c: (c.key, c.loser_source, c.loser_value))
    )


@acyclic
def reconstruct(store: RawStore, extra_rules: Program | None = None) -> Reconstruction:
    """Run the inference program over the store and lift the results to
    network entities.

    ``extra_rules`` may extend every derived predicate but must not
    define rules for the raw-fact predicates. Only the rules that the
    lifted predicates depend on are evaluated, so ``equiv_host`` and
    ``flow`` are derived only when an extra rule for one of those reads
    them. A flow between different spaces, or a link within one,
    raises ``ReconstructionError``. The output is fully sorted, so equal
    stores produce identical reconstructions no matter how or in what
    order they were loaded.
    """
    lifted = {"equiv_sys", "conf_match", "participant_link"}
    idb = evaluate(merged_program(extra_rules).slice(lifted), to_facts(store))
    systems = _classes(store.systems, idb.get("equiv_sys", ()))
    rep = {m: key for key, ms in systems.items() for m in ms}
    merged = [merge_properties([store.systems[m] for m in systems[key]]) for key in sorted(systems)]
    participants = tuple(p for p, _ in merged)
    conflicts = {p.id: c for p, c in merged if c}
    space_of = {p.id: p.space for p in participants}

    # Links whose endpoints do not resolve in this store version are
    # stale or garbage evidence and contribute nothing; resolvable links
    # that fail the cross-space invariant are real data errors, reported
    # for the first such link in sorted order.
    link_rows: set[tuple] = set()
    flow_rows: set[tuple] = set()
    for left, right, kind in idb.get("participant_link", ()):
        left_is_flow = isinstance(left, str) and left.startswith("flow:")
        right_is_flow = isinstance(right, str) and right.startswith("flow:")
        if left_is_flow != right_is_flow:
            continue
        if left_is_flow:
            flow_rows.add((left, right, kind))
        elif left in store.systems and right in store.systems:
            link_rows.add((rep[left], rep[right], kind))
    participant_links = []
    for lc, rc, kind in sorted(link_rows):
        if space_of[lc] == space_of[rc]:
            raise ReconstructionError(
                f"participant link ({lc!r}, {rc!r}, {kind!r}) must bridge "
                f"different spaces, both are in {space_of[lc]!r}"
            )
        participant_links.append(
            ParticipantLink(content_id("pl", lc, rc, kind), lc, rc, kind)
        )

    # Flows: group matched configuration pairs by canonical endpoints
    # and interface; each group keeps its supporting evidence. A config
    # whose owner vanished in a later reload of another source carries
    # no liftable evidence and is skipped, so one shrinking source never
    # wedges the pipeline.
    grouped: dict[tuple, tuple[set, list]] = {}
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
        key = (rep[oc.owner_system_id], rep[ic.owner_system_id], oc.interface)
        pairs, origins = grouped.setdefault(key, (set(), []))
        pairs.add((out_id, in_id))
        origins.extend((oc.origin, ic.origin))
    flows = []
    supporting: dict[str, tuple[tuple[str, str], ...]] = {}
    flow_space: dict[str, str] = {}
    # Keys are unique, so sorting the items compares keys only.
    for (source, target, iface), (pairs, origins) in sorted(grouped.items()):
        if space_of[source] != space_of[target]:
            raise ReconstructionError(
                f"flow {source!r} -> {target!r} crosses spaces "
                f"({space_of[source]!r} vs {space_of[target]!r})"
            )
        fid = flow_id_for(source, target, iface)
        flows.append(
            MessageFlow(
                id=fid,
                source=source,
                target=target,
                interface=iface.label(),
                origins=tuple(sorted({(o.source_id, o.object_id) for o in origins})),
            )
        )
        supporting[fid] = tuple(sorted(pairs))
        flow_space[fid] = space_of[source]

    flow_links = []
    for left, right, kind in sorted(
        r for r in flow_rows if r[0] in flow_space and r[1] in flow_space
    ):
        if flow_space[left] == flow_space[right]:
            raise ReconstructionError(
                f"flow link ({left!r}, {right!r}) must bridge different spaces"
            )
        flow_links.append(
            MessageFlowLink(content_id("fl", left, right, kind), left, right, kind)
        )

    return Reconstruction(
        classes=EquivalenceClassSet(systems, store, extra_rules),
        participants=participants,
        flows=tuple(flows),
        participant_links=tuple(participant_links),
        flow_links=tuple(flow_links),
        conflicts=conflicts,
        supporting=supporting,
    )
