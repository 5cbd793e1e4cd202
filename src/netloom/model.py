"""Typed entities of the physical discovery model and their fact mapping.

Entities carry an Origin naming the discovery source and the object id
inside it; engine-wide ids are ``<source_id>/<object_id>``. ``to_facts``
projects the whole store onto a fact base (predicate name -> set of
argument tuples) so rule programs can run over it. The merge and emit
stages read entities from the store itself, not from facts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: The fact vocabulary emitted by to_facts. Rule files must not define
#: rules for these predicates.
EDB_PREDICATES = frozenset(
    {
        "system",
        "host",
        "runs_on",
        "out_conf",
        "in_conf",
        "prop",
        "complex_prop",
        "correlation",
        "origin",
    }
)

DEFAULT_SPACE = "integration"


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class Origin:
    source_id: str
    object_id: str
    source_type: str = ""
    captured_at: int = 0

    def __post_init__(self):
        if not self.source_id or not self.object_id:
            raise ModelError("origin requires source_id and object_id")
        # bool subclasses int, but ``true`` is no timestamp.
        if type(self.captured_at) is not int or self.captured_at < 0:
            raise ModelError(f"captured_at must be an integer >= 0, not {self.captured_at!r}")


@dataclass(frozen=True)
class InterfaceRef:
    name: str
    namespace: str = ""
    operation: str = ""

    def label(self) -> str:
        out = f"{self.namespace}:{self.name}" if self.namespace else self.name
        if self.operation:
            out += f"#{self.operation}"
        return out


def canonical_payload(value: Any) -> Any:
    """Normalize a nested payload: mappings get sorted keys, duplicates
    are impossible by construction, scalars pass through."""
    if isinstance(value, Mapping):
        return {str(k): canonical_payload(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(v) for v in value]
    return value


def payload_digest(payload: Any) -> str:
    blob = json.dumps(canonical_payload(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ComplexProperty:
    kind: str
    payload: Any = field(hash=False)
    origin: Origin
    digest: str = ""

    @staticmethod
    def create(kind: str, payload: Any, origin: Origin) -> "ComplexProperty":
        canonical = canonical_payload(payload)
        return ComplexProperty(kind, canonical, origin, payload_digest(canonical))


@dataclass(frozen=True)
class SystemEntity:
    id: str
    name: str
    kind: str
    simple_props: dict[str, str] = field(default_factory=dict)
    complex_props: tuple[ComplexProperty, ...] = ()
    origin: Origin = None  # type: ignore[assignment]

    @staticmethod
    def create(
        id: str,
        name: str,
        kind: str,
        origin: Origin,
        simple_props: Mapping[str, str] | None = None,
        complex_props: Iterable[ComplexProperty] = (),
        space: str | None = None,
    ) -> "SystemEntity":
        if not name:
            raise ModelError("system name must be non-empty")
        props = dict(simple_props or {})
        props.setdefault("space", space or DEFAULT_SPACE)
        return SystemEntity(id, name, kind, props, tuple(complex_props), origin)

    @property
    def space(self) -> str:
        return self.simple_props.get("space", DEFAULT_SPACE)


@dataclass(frozen=True)
class HostEntity:
    id: str
    hostname: str
    simple_props: dict[str, str] = field(default_factory=dict)
    origin: Origin = None  # type: ignore[assignment]

    @staticmethod
    def create(
        id: str,
        hostname: str,
        origin: Origin,
        simple_props: Mapping[str, str] | None = None,
    ) -> "HostEntity":
        hostname = hostname.strip().lower()
        if not hostname:
            raise ModelError("hostname must be non-empty")
        return HostEntity(id, hostname, dict(simple_props or {}), origin)


@dataclass(frozen=True)
class RunsOn:
    system_id: str
    host_id: str
    origin: Origin


@dataclass(frozen=True)
class OutgoingConfiguration:
    id: str
    owner_system_id: str
    interface: InterfaceRef
    receiver_address: str
    adapter: str = ""
    origin: Origin = None  # type: ignore[assignment]


@dataclass(frozen=True)
class IncomingConfiguration:
    id: str
    owner_system_id: str
    interface: InterfaceRef
    endpoint_address: str
    adapter: str = ""
    origin: Origin = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CorrelationHint:
    left_space: str
    left_id: str
    right_space: str
    right_id: str
    kind: str
    # The spec models hints without provenance, but replace-on-reload
    # needs to know which source contributed each record.
    origin: Origin = None  # type: ignore[assignment]


def _sort_runs_on(items: Iterable[RunsOn]) -> tuple[RunsOn, ...]:
    return tuple(
        sorted(items, key=lambda r: (r.system_id, r.host_id, r.origin.source_id, r.origin.object_id))
    )


def _sort_correlations(items: Iterable[CorrelationHint]) -> tuple[CorrelationHint, ...]:
    return tuple(
        sorted(
            items,
            key=lambda c: (c.left_space, c.left_id, c.right_space, c.right_id, c.kind,
                           c.origin.source_id, c.origin.object_id),
        )
    )


@dataclass(frozen=True)
class RawStore:
    """An immutable, versioned snapshot of everything discovered so far."""

    version: int = 0
    systems: dict[str, SystemEntity] = field(default_factory=dict)
    hosts: dict[str, HostEntity] = field(default_factory=dict)
    runs_on: tuple[RunsOn, ...] = ()
    out_confs: dict[str, OutgoingConfiguration] = field(default_factory=dict)
    in_confs: dict[str, IncomingConfiguration] = field(default_factory=dict)
    correlations: tuple[CorrelationHint, ...] = ()

    @staticmethod
    def empty() -> "RawStore":
        return RawStore()

    @staticmethod
    def build(
        version: int,
        systems: Iterable[SystemEntity] = (),
        hosts: Iterable[HostEntity] = (),
        runs_on: Iterable[RunsOn] = (),
        out_confs: Iterable[OutgoingConfiguration] = (),
        in_confs: Iterable[IncomingConfiguration] = (),
        correlations: Iterable[CorrelationHint] = (),
    ) -> "RawStore":
        all_ids: set[str] = set()

        def keyed(entities):
            out = {}
            for e in sorted(entities, key=lambda x: x.id):
                if e.id in all_ids:
                    raise ModelError(f"duplicate entity id {e.id}")
                all_ids.add(e.id)
                out[e.id] = e
            return out

        return RawStore(
            version=version,
            systems=keyed(systems),
            hosts=keyed(hosts),
            runs_on=_sort_runs_on(runs_on),
            out_confs=keyed(out_confs),
            in_confs=keyed(in_confs),
            correlations=_sort_correlations(correlations),
        )

    def without_source(self, source_id: str) -> "RawStore":
        def keep(entities: dict):
            return {k: v for k, v in entities.items() if v.origin.source_id != source_id}

        return RawStore(
            version=self.version,
            systems=keep(self.systems),
            hosts=keep(self.hosts),
            runs_on=tuple(r for r in self.runs_on if r.origin.source_id != source_id),
            out_confs=keep(self.out_confs),
            in_confs=keep(self.in_confs),
            correlations=tuple(
                c for c in self.correlations if c.origin.source_id != source_id
            ),
        )

    def with_entities(
        self,
        version: int,
        systems: Iterable[SystemEntity] = (),
        hosts: Iterable[HostEntity] = (),
        runs_on: Iterable[RunsOn] = (),
        out_confs: Iterable[OutgoingConfiguration] = (),
        in_confs: Iterable[IncomingConfiguration] = (),
        correlations: Iterable[CorrelationHint] = (),
    ) -> "RawStore":
        return RawStore.build(
            version,
            list(self.systems.values()) + list(systems),
            list(self.hosts.values()) + list(hosts),
            list(self.runs_on) + list(runs_on),
            list(self.out_confs.values()) + list(out_confs),
            list(self.in_confs.values()) + list(in_confs),
            list(self.correlations) + list(correlations),
        )

    def ids_by_kind(self) -> dict[str, set[str]]:
        def origin_ids(items):
            return {f"{x.origin.source_id}/{x.origin.object_id}" for x in items}

        return {
            "system": set(self.systems),
            "host": set(self.hosts),
            "out_conf": set(self.out_confs),
            "in_conf": set(self.in_confs),
            "runs_on": origin_ids(self.runs_on),
            "correlation": origin_ids(self.correlations),
        }

    def content_equal(self, other: "RawStore") -> bool:
        return self.content_digest() == other.content_digest()

    def content_digest(self) -> str:
        doc = store_to_doc(self)
        doc.pop("version", None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Projection onto a fact base


def _conf_row(conf, address: str) -> tuple:
    i = conf.interface
    return (conf.id, conf.owner_system_id, i.name, i.namespace, i.operation, address, conf.adapter)


def to_facts(store: RawStore) -> dict[str, set[tuple]]:
    """Project a conformant store onto a fact base: a mapping from each
    predicate to its set of argument tuples, holding only predicates
    with at least one row.

    Emits system/3, host/2, runs_on/2, out_conf/7, in_conf/7, prop/3,
    complex_prop/3, correlation/5, and origin/3 for id-carrying
    entities.
    """
    systems = store.systems.values()
    hosts = store.hosts.values()
    out_confs = store.out_confs.values()
    in_confs = store.in_confs.values()
    facts = {
        "system": {(s.id, s.name, s.kind) for s in systems},
        "host": {(h.id, h.hostname) for h in hosts},
        "runs_on": {(r.system_id, r.host_id) for r in store.runs_on},
        "out_conf": {_conf_row(c, c.receiver_address) for c in out_confs},
        "in_conf": {_conf_row(c, c.endpoint_address) for c in in_confs},
        "prop": {
            (e.id, k, v)
            for e in itertools.chain(systems, hosts)
            for k, v in e.simple_props.items()
        },
        "complex_prop": {(s.id, cp.kind, cp.digest) for s in systems for cp in s.complex_props},
        "correlation": {
            (c.left_space, c.left_id, c.right_space, c.right_id, c.kind)
            for c in store.correlations
        },
        "origin": {
            (e.id, e.origin.source_id, e.origin.object_id)
            for e in itertools.chain(systems, hosts, out_confs, in_confs)
        },
    }
    return {pred: rows for pred, rows in facts.items() if rows}


# ---------------------------------------------------------------------------
# Store persistence (canonical JSON)


def _origin_doc(o: Origin) -> dict:
    return {
        "source_id": o.source_id,
        "object_id": o.object_id,
        "source_type": o.source_type,
        "captured_at": o.captured_at,
    }


def _origin_from(doc: dict) -> Origin:
    return Origin(doc["source_id"], doc["object_id"], doc["source_type"], doc["captured_at"])


def store_to_doc(store: RawStore) -> dict:
    return {
        "version": store.version,
        "systems": [
            {
                "id": s.id,
                "name": s.name,
                "kind": s.kind,
                "simple_props": dict(sorted(s.simple_props.items())),
                "complex_props": [
                    {
                        "kind": cp.kind,
                        "digest": cp.digest,
                        "payload": cp.payload,
                        "origin": _origin_doc(cp.origin),
                    }
                    for cp in s.complex_props
                ],
                "origin": _origin_doc(s.origin),
            }
            for s in store.systems.values()
        ],
        "hosts": [
            {
                "id": h.id,
                "hostname": h.hostname,
                "simple_props": dict(sorted(h.simple_props.items())),
                "origin": _origin_doc(h.origin),
            }
            for h in store.hosts.values()
        ],
        "runs_on": [
            {"system_id": r.system_id, "host_id": r.host_id, "origin": _origin_doc(r.origin)}
            for r in store.runs_on
        ],
        "out_confs": [
            {
                "id": c.id,
                "owner_system_id": c.owner_system_id,
                "interface": {
                    "name": c.interface.name,
                    "namespace": c.interface.namespace,
                    "operation": c.interface.operation,
                },
                "receiver_address": c.receiver_address,
                "adapter": c.adapter,
                "origin": _origin_doc(c.origin),
            }
            for c in store.out_confs.values()
        ],
        "in_confs": [
            {
                "id": c.id,
                "owner_system_id": c.owner_system_id,
                "interface": {
                    "name": c.interface.name,
                    "namespace": c.interface.namespace,
                    "operation": c.interface.operation,
                },
                "endpoint_address": c.endpoint_address,
                "adapter": c.adapter,
                "origin": _origin_doc(c.origin),
            }
            for c in store.in_confs.values()
        ],
        "correlations": [
            {
                "left_space": c.left_space,
                "left_id": c.left_id,
                "right_space": c.right_space,
                "right_id": c.right_id,
                "kind": c.kind,
                "origin": _origin_doc(c.origin),
            }
            for c in store.correlations
        ],
    }


def store_to_json(store: RawStore) -> bytes:
    return (
        json.dumps(store_to_doc(store), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def store_from_json(data: bytes) -> RawStore:
    doc = json.loads(data.decode("utf-8"))
    version = doc["version"]
    if type(version) is not int or version < 0:
        raise ModelError(f"store version must be an integer >= 0, not {version!r}")
    systems = [
        SystemEntity(
            d["id"],
            d["name"],
            d["kind"],
            d["simple_props"],
            tuple(
                ComplexProperty(
                    cp["kind"], cp["payload"], _origin_from(cp["origin"]), cp["digest"]
                )
                for cp in d["complex_props"]
            ),
            _origin_from(d["origin"]),
        )
        for d in doc["systems"]
    ]
    hosts = [
        HostEntity(d["id"], d["hostname"], d["simple_props"], _origin_from(d["origin"]))
        for d in doc["hosts"]
    ]
    runs = [
        RunsOn(d["system_id"], d["host_id"], _origin_from(d["origin"]))
        for d in doc["runs_on"]
    ]
    out_confs = [
        OutgoingConfiguration(
            d["id"],
            d["owner_system_id"],
            InterfaceRef(
                d["interface"]["name"], d["interface"]["namespace"], d["interface"]["operation"]
            ),
            d["receiver_address"],
            d["adapter"],
            _origin_from(d["origin"]),
        )
        for d in doc["out_confs"]
    ]
    in_confs = [
        IncomingConfiguration(
            d["id"],
            d["owner_system_id"],
            InterfaceRef(
                d["interface"]["name"], d["interface"]["namespace"], d["interface"]["operation"]
            ),
            d["endpoint_address"],
            d["adapter"],
            _origin_from(d["origin"]),
        )
        for d in doc["in_confs"]
    ]
    correlations = [
        CorrelationHint(
            d["left_space"],
            d["left_id"],
            d["right_space"],
            d["right_id"],
            d["kind"],
            _origin_from(d["origin"]),
        )
        for d in doc["correlations"]
    ]
    return RawStore.build(
        version, systems, hosts, runs, out_confs, in_confs, correlations
    )
