"""Typed entities of the physical discovery model and their fact mapping.

Entities carry an Origin naming the discovery source and the object id
inside it; engine-wide ids are ``<source_id>/<object_id>``. ``to_facts``
projects the whole store onto a fact base (predicate name -> set of
argument tuples) so rule programs can run over it. The merge and emit
stages read entities from the store itself, not from facts.

``RawStore.build`` makes a store from one stream of entities, filing
each into its collection by class, and ``RawStore.entities`` streams
them back out; commit and decoding go through that pair. Selecting
sources (``without_source``, ``only_source``) filters a store's sorted
collections in place of a rebuild.

A store is persisted one segment per source (``RawStore.only_source``;
the workspace keeps the files). ``store_to_json`` writes a store or a
segment with the one canonical encoder, ``CANONICAL_JSON``, straight
from the entities, and ``store_from_json`` reads it back through
``canonical_decoder``, which is built from the same dataclass fields
and their types: each JSON object's keys are the fields of its
dataclass, so renaming a field changes the on-disk format on both sides
at once.

The entity classes here, and the network value classes in
``network``, are slotted frozen dataclasses: a store holds thousands of
them, and each is spared the memory of a ``__dict__``.
They have no ``vars()`` and no weak references; ``replace``, ``asdict``,
``copy`` and ``pickle`` work on them. ``to_facts`` builds fresh row
sets, and ``datalog.evaluate`` reads them in place: it copies only the
rows of a predicate that a rule also derives, and ``reconstruct``
refuses rules that derive a predicate of ``EDB_PREDICATES``.

Every value that netloom builds, here and in the modules above this
one, is a frozen dataclass, a tuple, a dict or a set without back
references, so the cyclic garbage collector never frees any of it.
``acyclic`` marks the public calls that build a whole store or network:
inside one the collector is paused, so it does not walk the objects
that the call builds.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import operator
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Mapping

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


def acyclic(fn):
    """Run ``fn`` with the cyclic garbage collector paused.

    A call that finds the collector enabled disables it and enables it
    again when it returns or raises. A call that finds it disabled
    leaves it alone, so nested calls and a caller who turned it off are
    not touched, and only the call that disabled it writes its state
    back, always as enabled: overlapping calls in two threads never
    leave it off. A ``gc.disable()`` that another thread makes during
    such a call is undone when the call exits.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@functools.cache
def _field_dict(cls: type):
    """The function from a ``cls`` instance to its field dict, compiled once
    per dataclass: faster than a loop over the field names, and a slotted
    instance has no ``vars()``."""
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    items = ", ".join(f"{f.name!r}: o.{f.name}" for f in fields(cls))
    return eval(f"lambda o: {{{items}}}")


#: The encoder of every compact canonical JSON document: sorted keys,
#: no whitespace, and a dataclass instance written as the object of its
#: fields. Anything else that is not plain JSON raises TypeError.
CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=lambda obj: _field_dict(type(obj))(obj)
)


def canonical_bytes(value: Any) -> bytes:
    """``value`` as one line of canonical JSON, newline included."""
    return (CANONICAL_JSON.encode(value) + "\n").encode("utf-8")


@functools.cache
def canonical_decoder(cls: type):
    """The inverse of ``CANONICAL_JSON`` on a dataclass: the function from
    a decoded JSON object to a ``cls`` instance, compiled once per class
    from its fields and resolved type hints. Nested dataclasses and
    tuples are rebuilt, a ``dict`` field that holds no JSON object raises
    ModelError, and any other value is passed on as it is."""
    env = {"object_field": _object_field}
    return eval(f"lambda d: {_construct(cls, 'd', env)}", env)


def _construct(cls: type, obj: str, env: dict) -> str:
    """Source of an expression that builds a ``cls`` instance from the
    JSON object named ``obj``, binding in ``env`` the names it calls.
    The items of a tuple of dataclasses are built inline, in a nested
    comprehension; a single nested dataclass by its own decoder."""
    hints = typing.get_type_hints(cls)
    env[cls.__name__] = cls
    parts = []
    for f in fields(cls):
        hint, value = hints[f.name], f"{obj}[{f.name!r}]"
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        # The X of a ``tuple[X, ...]`` field, else None.
        item = args[0] if origin is tuple and args[1:] == (Ellipsis,) else None
        if hint is dict or origin is dict:
            value = f"object_field({value}, {cls.__name__ + '.' + f.name!r})"
        elif is_dataclass(item):
            x = f"{obj}_"
            value = f"tuple([{_construct(item, x, env)} for {x} in {value}])"
        elif typing.get_origin(item) is tuple:
            value = f"tuple(map(tuple, {value}))"
        elif origin is tuple:
            value = f"tuple({value})"
        elif is_dataclass(hint):
            env[f"decode_{hint.__name__}"] = canonical_decoder(hint)
            value = f"decode_{hint.__name__}({value})"
        parts.append(value)
    return f"{cls.__name__}({', '.join(parts)})"


def _object_field(value: Any, where: str) -> dict:
    if type(value) is not dict:
        raise ModelError(f"{where} must be an object, not {type(value).__name__}")
    return value


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, order=True, slots=True)
class InterfaceRef:
    name: str
    namespace: str = ""
    operation: str = ""

    def label(self) -> str:
        out = f"{self.namespace}:{self.name}" if self.namespace else self.name
        if self.operation:
            out += f"#{self.operation}"
        return out


def payload_digest(payload: Any) -> str:
    """The digest of a JSON value, whatever the order of its keys."""
    blob = CANONICAL_JSON.encode(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_id(prefix: str, *parts: str) -> str:
    """The id ``<prefix>:<16 hex digits>`` derived from ``parts`` alone, so
    equal content always gets the same id."""
    blob = "\x1f".join(parts)
    return f"{prefix}:{hashlib.sha256(blob.encode('utf-8')).hexdigest()[:16]}"


@dataclass(frozen=True, slots=True)
class ComplexProperty:
    kind: str
    payload: Any = field(hash=False)
    origin: Origin
    digest: str = ""

    @staticmethod
    def create(kind: str, payload: Any, origin: Origin) -> "ComplexProperty":
        return ComplexProperty(kind, payload, origin, payload_digest(payload))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RunsOn:
    system_id: str
    host_id: str
    origin: Origin


@dataclass(frozen=True, slots=True)
class OutgoingConfiguration:
    id: str
    owner_system_id: str
    interface: InterfaceRef
    receiver_address: str
    adapter: str = ""
    origin: Origin = None  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
class IncomingConfiguration:
    id: str
    owner_system_id: str
    interface: InterfaceRef
    endpoint_address: str
    adapter: str = ""
    origin: Origin = None  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
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


#: Each collection of a store, in the order ``RawStore`` holds them,
#: with the entity class of its items.
_STORE_COLLECTIONS = {
    "systems": SystemEntity,
    "hosts": HostEntity,
    "runs_on": RunsOn,
    "out_confs": OutgoingConfiguration,
    "in_confs": IncomingConfiguration,
    "correlations": CorrelationHint,
}


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
    def build(version: int, entities: Iterable = ()) -> "RawStore":
        """The store at ``version`` holding ``entities``, each filed into
        its collection by class. Keyed collections are sorted by id, and
        an id used twice raises ModelError; runs_on and correlations are
        sorted by content."""
        filed = {cls: [] for cls in _STORE_COLLECTIONS.values()}
        for e in entities:
            filed[type(e)].append(e)
        all_ids: set[str] = set()

        def keyed(cls):
            out = {}
            for e in sorted(filed[cls], key=operator.attrgetter("id")):
                if e.id in all_ids:
                    raise ModelError(f"duplicate entity id {e.id}")
                all_ids.add(e.id)
                out[e.id] = e
            return out

        return RawStore(
            version=version,
            systems=keyed(SystemEntity),
            hosts=keyed(HostEntity),
            runs_on=_sort_runs_on(filed[RunsOn]),
            out_confs=keyed(OutgoingConfiguration),
            in_confs=keyed(IncomingConfiguration),
            correlations=_sort_correlations(filed[CorrelationHint]),
        )

    def entities(self) -> Iterator:
        """Every entity of the store, collection by collection in the
        order ``_STORE_COLLECTIONS`` names them."""
        return itertools.chain(
            self.systems.values(), self.hosts.values(), self.runs_on,
            self.out_confs.values(), self.in_confs.values(), self.correlations,
        )

    def _where(self, keep: Callable[[Any], bool]) -> "RawStore":
        """The entities for which ``keep`` holds, at this store's version.
        Each collection is filtered in its sorted order, and a subset of
        unique ids has none twice, so nothing is sorted or checked."""

        def kept(items):
            if isinstance(items, dict):
                return {k: e for k, e in items.items() if keep(e)}
            return tuple(e for e in items if keep(e))

        return replace(self, **{name: kept(getattr(self, name)) for name in _STORE_COLLECTIONS})

    def without_source(self, source_id: str) -> "RawStore":
        """The entities of every source but ``source_id``."""
        return self._where(lambda e: e.origin.source_id != source_id)

    def only_source(self, source_id: str) -> "RawStore":
        """The entities ``source_id`` contributed, at this store's version."""
        return self._where(lambda e: e.origin.source_id == source_id)

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


def _collections(store: RawStore) -> dict:
    """The store's collections as written: each keyed collection as the
    list of its entities, which RawStore keeps sorted by id."""
    collections = {name: getattr(store, name) for name in _STORE_COLLECTIONS}
    return {k: list(v.values()) if isinstance(v, dict) else v for k, v in collections.items()}


def store_to_json(store: RawStore) -> bytes:
    return canonical_bytes({"version": store.version, **_collections(store)})


def store_from_json(data: bytes) -> RawStore:
    doc = json.loads(data.decode("utf-8"))
    version = doc["version"]
    if type(version) is not int or version < 0:
        raise ModelError(f"store version must be an integer >= 0, not {version!r}")
    collections = []
    for name, cls in _STORE_COLLECTIONS.items():
        items = doc[name]
        if type(items) is not list:
            raise ModelError(f"store {name} must be a list, not {type(items).__name__}")
        collections.append(map(canonical_decoder(cls), items))
    return RawStore.build(version, itertools.chain.from_iterable(collections))
