"""Schema-compiled conformance checking for incoming raw records.

A SchemaSpec declares, per record kind, the typed fields, referential
constraints, and uniqueness constraints. Compiling a schema yields a
checker that holds, per kind, the field specs in name order; each
record's declared fields are checked in that order, one finding per
violation, and fields the schema does not declare are ignored. A batch
is accepted only when the report is empty; checking never mutates
anything.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .model import Origin, RawStore, canonical_bytes

MISSING_FIELD = "MISSING_FIELD"
TYPE_MISMATCH = "TYPE_MISMATCH"
ENUM_VIOLATION = "ENUM_VIOLATION"
DANGLING_REF = "DANGLING_REF"
DUPLICATE_KEY = "DUPLICATE_KEY"
UNKNOWN_KIND = "UNKNOWN_KIND"
MALFORMED_RECORD = "MALFORMED_RECORD"

FINDING_CODES = (
    MISSING_FIELD,
    TYPE_MISMATCH,
    ENUM_VIOLATION,
    DANGLING_REF,
    DUPLICATE_KEY,
    UNKNOWN_KIND,
    MALFORMED_RECORD,
)

_FIELD_TYPES = ("string", "integer", "enum", "mapping", "list")


class SchemaError(Exception):
    """The schema itself is malformed; raised at compile time."""


@dataclass(frozen=True)
class FieldSpec:
    name: str
    type: str
    enum_values: tuple[str, ...] = ()
    required: bool = False
    key: bool = False


@dataclass(frozen=True)
class RefSpec:
    field: str
    target_kind: str


@dataclass(frozen=True)
class KindSpec:
    fields: tuple[FieldSpec, ...]
    refs: tuple[RefSpec, ...] = ()
    unique: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class SchemaSpec:
    kinds: dict[str, KindSpec] = field(default_factory=dict)


_SHAPE_NAMES = {Mapping: "an object", list: "a list", str: "a string", bool: "true or false"}


def _shaped(value: Any, expected: type, where: str) -> Any:
    if not isinstance(value, expected):
        raise SchemaError(f"{where} must be {_SHAPE_NAMES[expected]}")
    return value


def parse_schema(doc: Any) -> SchemaSpec:
    """Parse the JSON schema document shape into a SchemaSpec.

    Raises SchemaError, naming the offending part, for a document of any
    other shape."""
    kinds_doc = doc.get("kinds") if isinstance(doc, Mapping) else None
    if not isinstance(kinds_doc, Mapping):
        raise SchemaError('schema document must have a "kinds" mapping')
    kinds: dict[str, KindSpec] = {}
    for kind, spec in kinds_doc.items():
        spec = _shaped(spec, Mapping, f"kind {kind}")
        specs = []
        for name, fdoc in _shaped(spec.get("fields", {}), Mapping, f"{kind}.fields").items():
            fdoc = _shaped(fdoc, Mapping, f"{kind}.{name}")
            type_text = _shaped(fdoc.get("type", "string"), str, f"{kind}.{name}.type")
            enum_values: tuple[str, ...] = ()
            if type_text.startswith("enum(") and type_text.endswith(")"):
                enum_values = tuple(
                    v.strip() for v in type_text[5:-1].split(",") if v.strip()
                )
                type_text = "enum"
            specs.append(
                FieldSpec(
                    name=name,
                    type=type_text,
                    enum_values=enum_values,
                    required=_shaped(fdoc.get("required", False), bool, f"{kind}.{name}.required"),
                    key=_shaped(fdoc.get("key", False), bool, f"{kind}.{name}.key"),
                )
            )
        refs = tuple(
            RefSpec(f, _shaped(target, str, f"{kind}.refs.{f}"))
            for f, target in _shaped(spec.get("refs", {}), Mapping, f"{kind}.refs").items()
        )
        unique = tuple(
            tuple(
                _shaped(f, str, f"{kind}.unique field")
                for f in _shaped(u, list, f"{kind}.unique entry")
            )
            for u in _shaped(spec.get("unique", []), list, f"{kind}.unique")
        )
        kinds[kind] = KindSpec(tuple(specs), refs, unique)
    return SchemaSpec(kinds)


def load_schema(path: str | Path) -> SchemaSpec:
    """Read and parse a schema file; raises SchemaError when it is not
    UTF-8 JSON of the schema shape."""
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return parse_schema(doc)


def default_schema_doc() -> dict:
    """The stock schema for the built-in record kinds.

    Workspaces are initialized with a copy of this document; it can be
    edited freely (e.g. to add enum constraints or new kinds).
    """
    return {
        "kinds": {
            "system": {
                "fields": {
                    "id": {"type": "string", "required": True, "key": True},
                    "name": {"type": "string", "required": True},
                    "type": {"type": "string", "required": True},
                    "space": {"type": "string"},
                },
                "refs": {},
                "unique": [],
            },
            "host": {
                "fields": {
                    "id": {"type": "string", "required": True, "key": True},
                    "hostname": {"type": "string", "required": True},
                },
                "refs": {},
                "unique": [],
            },
            "runs_on": {
                "fields": {
                    "id": {"type": "string", "required": True, "key": True},
                    "system_id": {"type": "string", "required": True},
                    "host_id": {"type": "string", "required": True},
                },
                "refs": {"system_id": "system", "host_id": "host"},
                "unique": [["system_id", "host_id"]],
            },
            "out_conf": {
                "fields": {
                    "id": {"type": "string", "required": True, "key": True},
                    "owner_system_id": {"type": "string", "required": True},
                    "interface_name": {"type": "string", "required": True},
                    "interface_namespace": {"type": "string"},
                    "operation": {"type": "string"},
                    "receiver_address": {"type": "string", "required": True},
                    "adapter": {"type": "string"},
                },
                "refs": {"owner_system_id": "system"},
                "unique": [],
            },
            "in_conf": {
                "fields": {
                    "id": {"type": "string", "required": True, "key": True},
                    "owner_system_id": {"type": "string", "required": True},
                    "interface_name": {"type": "string", "required": True},
                    "interface_namespace": {"type": "string"},
                    "operation": {"type": "string"},
                    "endpoint_address": {"type": "string", "required": True},
                    "adapter": {"type": "string"},
                },
                "refs": {"owner_system_id": "system"},
                "unique": [],
            },
            "correlation": {
                "fields": {
                    "id": {"type": "string", "required": True, "key": True},
                    "left_space": {"type": "string", "required": True},
                    "left_id": {"type": "string", "required": True},
                    "right_space": {"type": "string", "required": True},
                    "right_id": {"type": "string", "required": True},
                    # "kind" is the record discriminator, so the link
                    # semantics get their own field.
                    "link_kind": {"type": "string", "required": True},
                },
                "refs": {},
                "unique": [],
            },
        }
    }


@dataclass(frozen=True)
class Finding:
    code: str
    kind: str
    origin: Origin | None
    field: str
    message: str
    target: str = ""  # the engine-wide id a DANGLING_REF does not find

    def to_doc(self) -> dict:
        return {
            "code": self.code,
            "kind": self.kind,
            "source_id": self.origin.source_id if self.origin else "",
            "object_id": self.origin.object_id if self.origin else "",
            "field": self.field,
            "message": self.message,
        }


@dataclass(frozen=True)
class ConformanceReport:
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def to_json(self) -> bytes:
        doc = {"accepted": self.ok, "findings": [f.to_doc() for f in self.findings]}
        return canonical_bytes(doc)


# Field validators: each returns an error message or None.


def _validate_value(spec: FieldSpec, value: Any) -> tuple[str, str] | None:
    if spec.type == "string":
        if not isinstance(value, str):
            return TYPE_MISMATCH, f"expected string, got {type(value).__name__}"
        if (spec.required or spec.key) and not value:
            return TYPE_MISMATCH, "required string must be non-empty"
    elif spec.type == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            return TYPE_MISMATCH, f"expected integer, got {type(value).__name__}"
    elif spec.type == "enum":
        if not isinstance(value, str):
            return TYPE_MISMATCH, f"expected string enum, got {type(value).__name__}"
        if value not in spec.enum_values:
            return (
                ENUM_VIOLATION,
                f"value {value!r} not in {{{', '.join(spec.enum_values)}}}",
            )
    elif spec.type == "mapping":
        if not isinstance(value, Mapping):
            return TYPE_MISMATCH, f"expected mapping, got {type(value).__name__}"
    elif spec.type == "list":
        if not isinstance(value, (list, tuple)):
            return TYPE_MISMATCH, f"expected list, got {type(value).__name__}"
    return None


@dataclass(frozen=True)
class _CompiledKind:
    """One kind's checks, fixed at compile time: its field specs in name
    order, its refs, and its key and unique constraints as
    ``(label, fields)`` pairs."""

    specs: tuple[FieldSpec, ...]
    refs: tuple[RefSpec, ...]
    constraints: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class CompiledChecker:
    kinds: dict[str, _CompiledKind]


def compile_schema(schema: SchemaSpec) -> CompiledChecker:
    """Compile a schema into an immutable checker.

    Raises SchemaError for refs to undeclared kinds, key fields that are
    not required, empty enums, unknown field types, and constraints over
    undeclared fields.
    """
    kinds: dict[str, _CompiledKind] = {}
    for kind, spec in schema.kinds.items():
        declared = {f.name for f in spec.fields}
        for f in spec.fields:
            if f.type not in _FIELD_TYPES:
                raise SchemaError(f"{kind}.{f.name}: unknown field type {f.type!r}")
            if f.type == "enum" and not f.enum_values:
                raise SchemaError(f"{kind}.{f.name}: enum must declare values")
            if f.key and not f.required:
                raise SchemaError(f"{kind}.{f.name}: key field must be required")
            if f.key and f.type in ("mapping", "list"):
                raise SchemaError(f"{kind}.{f.name}: key field must be scalar")
        for ref in spec.refs:
            if ref.field not in declared:
                raise SchemaError(f"{kind}: ref field {ref.field!r} is not declared")
            if ref.target_kind not in schema.kinds:
                raise SchemaError(
                    f"{kind}.{ref.field}: ref target kind {ref.target_kind!r} is not declared"
                )
        for combo in spec.unique:
            for fname in combo:
                if fname not in declared:
                    raise SchemaError(f"{kind}: unique field {fname!r} is not declared")
        key_fields = tuple(sorted(f.name for f in spec.fields if f.key))
        constraints = [("key", key_fields)] if key_fields else []
        constraints.extend(("unique", combo) for combo in spec.unique)
        kinds[kind] = _CompiledKind(
            tuple(sorted(spec.fields, key=lambda f: f.name)), spec.refs, tuple(constraints)
        )
    return CompiledChecker(kinds)


def resolve_ref(value: str, source_id: str) -> str:
    """Resolve a reference value to an engine-wide id.

    Values containing "/" are already fully qualified; "flow:" values
    name derived message flows; anything else is an object id inside the
    same source.
    """
    if "/" in value or value.startswith("flow:"):
        return value
    return f"{source_id}/{value}"


def check_batch(
    checker: CompiledChecker,
    records: Sequence,
    existing: RawStore,
) -> ConformanceReport:
    """Validate a batch of raw records against the schema and the store.

    Referential checks run against (existing union batch). Every
    violation yields exactly one finding; an empty report means the
    batch may be committed. Pure: neither the records nor the store are
    touched.
    """
    findings: list[Finding] = []

    batch_ids: dict[str, set[str]] = {}
    for rec in records:
        if isinstance(rec.kind, str) and rec.origin is not None:
            batch_ids.setdefault(rec.kind, set()).add(
                f"{rec.origin.source_id}/{rec.origin.object_id}"
            )
    existing_ids = existing.ids_by_kind()
    ref_pools: dict[str, set[str]] = {
        kind: batch_ids.get(kind, set()) | existing_ids.get(kind, set())
        for kind in set(batch_ids) | set(existing_ids)
    }

    seen_keys: dict[tuple, tuple] = {}
    # Engine ids are <source>/<object id>, so an object id may appear
    # only once per batch regardless of record kind.
    seen_object_ids: dict[str, str] = {}

    for rec in records:
        origin = rec.origin
        if not isinstance(rec.fields, Mapping) or any(
            not isinstance(k, str) for k in rec.fields
        ):
            findings.append(
                Finding(MALFORMED_RECORD, str(rec.kind), origin, "", "record fields must be a string-keyed mapping")
            )
            continue
        if not isinstance(rec.kind, str) or not rec.kind:
            findings.append(
                Finding(MALFORMED_RECORD, "", origin, "kind", "record has no kind")
            )
            continue
        compiled = checker.kinds.get(rec.kind)
        if compiled is None:
            findings.append(
                Finding(UNKNOWN_KIND, rec.kind, origin, "kind", f"unknown record kind {rec.kind!r}")
            )
            continue

        # Unknown fields never yield a finding, so walking the declared
        # fields alone gives every field finding, in name order.
        for spec in compiled.specs:
            value = rec.fields.get(spec.name)
            if value is None:
                if spec.required:
                    findings.append(
                        Finding(MISSING_FIELD, rec.kind, origin, spec.name, "required field missing")
                    )
                continue
            err = _validate_value(spec, value)
            if err is not None:
                findings.append(Finding(err[0], rec.kind, origin, spec.name, err[1]))

        if origin is not None:
            prior_kind = seen_object_ids.get(origin.object_id)
            if prior_kind is not None:
                findings.append(
                    Finding(
                        DUPLICATE_KEY,
                        rec.kind,
                        origin,
                        "id",
                        f"object id {origin.object_id!r} already used by a "
                        f"{prior_kind} record in this batch",
                    )
                )
                continue
            seen_object_ids[origin.object_id] = rec.kind

        # Duplicate identity within the batch.
        for label, combo in compiled.constraints:
            values = tuple(rec.fields.get(f) for f in combo)
            if any(v is None for v in values):
                continue
            # repr keeps the key hashable even for mapping-typed fields.
            dedup_key = (rec.kind, label, combo, tuple(repr(v) for v in values))
            if dedup_key in seen_keys:
                findings.append(
                    Finding(
                        DUPLICATE_KEY,
                        rec.kind,
                        origin,
                        ",".join(combo),
                        f"duplicate {label} {values!r} within batch",
                    )
                )
            else:
                seen_keys[dedup_key] = values

        # Referential integrity against existing union batch.
        source_id = origin.source_id if origin else ""
        for ref in compiled.refs:
            value = rec.fields.get(ref.field)
            if not isinstance(value, str) or not value:
                continue
            resolved = resolve_ref(value, source_id)
            if resolved not in ref_pools.get(ref.target_kind, set()):
                findings.append(
                    Finding(
                        DANGLING_REF,
                        rec.kind,
                        origin,
                        ref.field,
                        f"{ref.field}={value!r} does not resolve to a {ref.target_kind}",
                        resolved,
                    )
                )

    return ConformanceReport(tuple(findings))
