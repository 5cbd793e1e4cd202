"""Snapshot ingestion: load, map, normalize, and atomically commit.

Snapshot files are UTF-8 JSON Lines with one record per line, each
carrying a "kind" field. A per-source mapping config renames source
fields onto the model's field names; whatever the mapping does not
claim is kept on the record and later preserved as properties.
Committing a snapshot replaces everything previously loaded from the
same source and publishes a new immutable store version.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .conformance import CompiledChecker, ConformanceReport, check_batch, resolve_ref
from .model import (
    CANONICAL_JSON,
    ComplexProperty,
    CorrelationHint,
    DEFAULT_SPACE,
    HostEntity,
    IncomingConfiguration,
    InterfaceRef,
    Origin,
    OutgoingConfiguration,
    RawStore,
    RunsOn,
    SystemEntity,
)


class IngestError(Exception):
    pass


@dataclass(frozen=True)
class SourceConfig:
    source_id: str
    source_type: str = ""
    mapping: dict[str, str] = field(default_factory=dict)


# The longest source id, in UTF-8 bytes. The archive name
# ``<source_id>__v000000.jsonl`` plus ``write_atomic``'s ``.<thread id>.tmp``
# suffix (a native thread id is no longer than a pid) must stay under
# the usual 255-byte file name limit.
MAX_SOURCE_ID_BYTES = 200

# The deepest a snapshot line may nest, its own object being level 1. A
# payload gains 5 levels in its segment and 7 in the published network,
# so every encode and decode of it stays far inside the recursion limit.
MAX_NESTING = 64


def load_source_config(path: str | Path) -> SourceConfig:
    """Read a source config: a JSON object with a non-empty string
    ``source_id`` of at most ``MAX_SOURCE_ID_BYTES`` UTF-8 bytes, free
    of ``/``, ``\\``, NUL and lone surrogates and other than ``.`` and
    ``..``, an optional string ``source_type`` and an optional
    ``mapping`` object of source field paths to model field names.
    Other keys are ignored; any other shape raises IngestError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise IngestError(f"cannot read source config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"source config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise IngestError(f"source config {path} must be a JSON object")
    source_id = doc.get("source_id")
    if not isinstance(source_id, str) or not source_id:
        raise IngestError(f"source config {path} must declare a source_id")
    # The id names files in the workspace and prefixes engine ids
    # (<source_id>/<object_id>), so it must be one plain path segment.
    if "/" in source_id or "\\" in source_id or source_id in (".", ".."):
        raise IngestError(
            f"source config {path}: source_id {source_id!r} must not contain "
            "'/' or '\\' or be '.' or '..'"
        )
    try:
        size = len(source_id.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, such as "\ud800"
        size = -1
    if "\0" in source_id or size < 0:
        raise IngestError(
            f"source config {path}: source_id {source_id!r} must not contain "
            "NUL or a lone surrogate"
        )
    if size > MAX_SOURCE_ID_BYTES:
        raise IngestError(
            f"source config {path}: source_id is longer than "
            f"{MAX_SOURCE_ID_BYTES} UTF-8 bytes"
        )
    source_type = doc.get("source_type", "")
    if not isinstance(source_type, str):
        raise IngestError(f"source config {path}: source_type must be a string")
    # JSON object keys are always strings, so only the values need a check.
    mapping = doc.get("mapping", {})
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise IngestError(
            f"source config {path}: mapping must be an object of field names"
        )
    return SourceConfig(source_id, source_type, mapping)


@dataclass(frozen=True)
class RawRecord:
    kind: str | None
    fields: dict[str, Any]
    origin: Origin


@dataclass(frozen=True)
class Snapshot:
    source_id: str
    records: tuple[RawRecord, ...]


_URL_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/]*)(/.*)?$")
_DEFAULT_PORTS = {"http": "80", "https": "443"}


def normalize_address(addr: str) -> str:
    """Canonicalize an endpoint address for equality matching.

    URLs get a lowercase scheme and host, default ports stripped, and
    no trailing slash; the path keeps its case. Anything that is not a
    URL is trimmed and lowercased.
    """
    addr = addr.strip()
    m = _URL_RE.match(addr)
    if m is None:
        return addr.lower()
    scheme = m.group(1).lower()
    netloc = m.group(2).lower()
    path = m.group(3) or ""
    host, sep, port = netloc.rpartition(":")
    if sep and port.isdigit():
        if _DEFAULT_PORTS.get(scheme) == port:
            netloc = host
    path = path.rstrip("/")
    return f"{scheme}://{netloc}{path}"


def _dig(record: Mapping[str, Any], path: str) -> tuple[bool, Any]:
    node: Any = record
    for part in path.split("."):
        if isinstance(node, Mapping) and part in node:
            node = node[part]
        else:
            return False, None
    return True, node


def _delete_path(fields: dict, path: str) -> None:
    """Remove ``path`` from ``fields``, copying each object it descends
    into first, so the parsed line that ``fields`` copies stays whole."""
    parts = path.split(".")
    node = fields
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            return
        node[part] = node = dict(nxt)
    node.pop(parts[-1], None)


def _nests_deeper(value: Any, levels: int) -> bool:
    """Whether ``value``, counted as one level, nests more than ``levels`` deep."""
    if levels == 0:
        return True
    items = value.values() if isinstance(value, dict) else value
    return any(_nests_deeper(v, levels - 1) for v in items if isinstance(v, (dict, list)))


def read_snapshot(path: str | Path) -> bytes:
    """The bytes of a snapshot file; raises IngestError if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read snapshot {path}: {exc}") from exc


def load_snapshot(
    path: str | Path, config: SourceConfig, data: bytes | None = None
) -> Snapshot:
    """Load a JSON Lines snapshot file and map it into raw records.

    ``data``, when given, is the file's content as the caller already
    read it, so the bytes parsed are the bytes it digests or archives;
    otherwise the file is read here. Each line must be a JSON object.
    The mapping is applied first; the record must then carry an object
    id (the mapping target "object_id", falling back to the field
    "id"). Bytes that are not UTF-8, malformed lines, lines nested
    deeper than ``MAX_NESTING``, strings holding a lone surrogate and
    missing ids raise IngestError naming the line.
    """
    if data is None:
        data = read_snapshot(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from exc

    records: list[RawRecord] = []
    # Only "\n" ends a line: splitlines() also splits at U+2028, U+2029, U+0085.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            # Each level opens a bracket, so a line with few is not walked.
            deep = (line.count("{") + line.count("[") > MAX_NESTING
                    and _nests_deeper(doc, MAX_NESTING))
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from exc
        except RecursionError:  # nested past what the parser can take
            deep = True
        if deep:
            raise IngestError(f"{path}: line {lineno}: nested deeper than {MAX_NESTING} levels")
        # Only a \u escape can make a lone surrogate, which no UTF-8
        # writer downstream could encode.
        if "\\u" in line:
            try:
                json.dumps(doc, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise IngestError(f"{path}: line {lineno}: lone surrogate in a string") from None
        if not isinstance(doc, dict):
            raise IngestError(f"{path}: line {lineno}: record must be a JSON object")

        fields = dict(doc)  # every mapping path reads doc, the line as parsed
        for source_path, target in config.mapping.items():
            found, value = _dig(doc, source_path)
            if found:
                _delete_path(fields, source_path)
                fields[target] = value

        object_id = fields.pop("object_id", None)
        if object_id is None:
            object_id = fields.get("id")
        if object_id is None or str(object_id) == "":
            raise IngestError(
                f"{path}: line {lineno}: record has no object id "
                "(map a field to \"object_id\" or provide \"id\")"
            )
        object_id = str(object_id)
        fields["id"] = object_id

        captured_at = fields.pop("captured_at", None)
        # bool subclasses int, but ``true`` is no timestamp.
        if type(captured_at) is not int or captured_at < 0:
            captured_at = 0

        kind = fields.pop("kind", None)
        records.append(
            RawRecord(
                kind=kind if isinstance(kind, str) else None,
                fields=fields,
                origin=Origin(config.source_id, object_id, config.source_type, captured_at),
            )
        )
    return Snapshot(config.source_id, tuple(records))


# ---------------------------------------------------------------------------
# Entity construction

_IDENTITY_FIELDS = {
    "system": ("id", "name", "type", "space"),
    "host": ("id", "hostname"),
}

# Per configuration kind, its class and the field of its address.
_CONFIGURATIONS = {
    "out_conf": (OutgoingConfiguration, "receiver_address"),
    "in_conf": (IncomingConfiguration, "endpoint_address"),
}


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else str(value)


def _split_props(rec: RawRecord, consumed: tuple[str, ...]):
    simple: dict[str, str] = {}
    complexes: list[ComplexProperty] = []
    for key in sorted(rec.fields):
        if key in consumed:
            continue
        value = rec.fields[key]
        if value is None:
            continue
        if isinstance(value, (Mapping, list)):
            complexes.append(ComplexProperty.create(key, value, rec.origin))
        else:
            simple[key] = _scalar(value)
    return simple, complexes


def build_entities(snapshot: Snapshot) -> list:
    """Turn a conformance-checked snapshot into typed entities, one per
    record of a built-in kind, in record order."""
    sid = snapshot.source_id
    entities = []
    for rec in snapshot.records:
        engine_id = f"{sid}/{rec.origin.object_id}"
        f = rec.fields
        if rec.kind == "system":
            simple, complexes = _split_props(rec, _IDENTITY_FIELDS["system"])
            entities.append(
                SystemEntity.create(
                    engine_id,
                    f["name"],
                    f.get("type", ""),
                    rec.origin,
                    simple_props=simple,
                    complex_props=complexes,
                    space=f.get("space") or DEFAULT_SPACE,
                )
            )
        elif rec.kind == "host":
            simple, complexes = _split_props(rec, _IDENTITY_FIELDS["host"])
            # Hosts have no complex-property bag; keep nested extras as
            # canonical JSON strings so nothing is dropped.
            for cp in complexes:
                simple[cp.kind] = CANONICAL_JSON.encode(cp.payload)
            entities.append(
                HostEntity.create(engine_id, f["hostname"], rec.origin, simple)
            )
        elif rec.kind == "runs_on":
            entities.append(
                RunsOn(
                    resolve_ref(f["system_id"], sid),
                    resolve_ref(f["host_id"], sid),
                    rec.origin,
                )
            )
        elif rec.kind in _CONFIGURATIONS:
            cls, address = _CONFIGURATIONS[rec.kind]
            entities.append(
                cls(
                    engine_id,
                    resolve_ref(f["owner_system_id"], sid),
                    InterfaceRef(
                        f["interface_name"],
                        f.get("interface_namespace", "") or "",
                        f.get("operation", "") or "",
                    ),
                    normalize_address(f[address]),
                    f.get("adapter", "") or "",
                    rec.origin,
                )
            )
        elif rec.kind == "correlation":
            entities.append(
                CorrelationHint(
                    f["left_space"],
                    resolve_ref(f["left_id"], sid),
                    f["right_space"],
                    resolve_ref(f["right_id"], sid),
                    f["link_kind"],
                    rec.origin,
                )
            )
    return entities


def commit(
    snapshot: Snapshot, store: RawStore, checker: CompiledChecker
) -> RawStore | ConformanceReport:
    """Validate and commit a snapshot, replacing the source's prior data.

    Conformance runs against the store as it will look after the
    source's old entities are dropped, so an accepted batch can never
    leave dangling references behind. On findings the store is untouched
    and the report is returned instead. Otherwise the new store, one
    version up, is built from that store's entities followed by the
    snapshot's (``build_entities``).
    """
    base = store.without_source(snapshot.source_id)
    report = check_batch(checker, snapshot.records, base)
    if not report.ok:
        return report
    return RawStore.build(store.version + 1, [*base.entities(), *build_entities(snapshot)])
