"""On-disk workspace: schema, source configs, store versions, networks.

Layout under the workspace root:

    schema.json              conformance schema (editable)
    rules.dl                 optional user rules, merged with the built-in
                             ones by every infer and committing poll
    sources/<source_id>.json registered source configs
    .lock                    taken (flock) by each reader and writer of
                             the store
    store.json               manifest of the current raw store version:
                             {"segments": {source id: file}, "version": n}
    store/<source_id>.<16 hex digits>.json
                             one segment per source: its entities, stamped
                             with the store version that last committed it;
                             the digits begin the SHA-256 of the file
    snapshots/<source_id>__v<store version>.jsonl
                             the bytes of each committed snapshot
    networks/<version>.json  published network exports
    networks/LATEST          name of the most recent version
    watch_ledger.json        processed snapshot files (name + digest)

A commit archives the snapshots it committed, writes the segments of
their sources, then replaces the manifest, then deletes the segments the
manifest no longer lists. A commit that fails before the manifest is
replaced removes its archives again.

Every reader and writer of the store (``load_store``, ``ingest``,
``infer``, ``save_store`` and ``SnapshotWatcher.poll_once``) holds one
exclusive ``flock`` on ``.lock``, from reading ``store.json`` to its last
write, publishing included. So no reader sees a segment deleted under
it, no writer overwrites another's commit, and no publish names an
older store than the publish before it. ``.lock`` is opened read-only,
so a reader needs no write access to the workspace once it exists.

A committing watcher poll keeps the store it saved, beside the manifest
bytes it wrote, in one slot per process. The next poll of the same
workspace commits against that store, without reading a segment, if
``store.json`` still holds those bytes under the lock. Every store
write empties the slot before it writes, so a process holds at most
one such store. ``ingest``, ``infer`` and ``load_store`` always read
from disk.

Snapshot files picked up by the watcher are named
``<source_id>__<anything>.jsonl``; the prefix selects the registered
source config.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

from .conformance import (
    DANGLING_REF,
    CompiledChecker,
    ConformanceReport,
    SchemaError,
    default_schema_doc,
    load_schema,
)
from .datalog import ProgramError, parse_program
from .ingest import (
    IngestError,
    SourceConfig,
    commit,
    load_snapshot,
    load_source_config,
    read_snapshot,
)
from .model import (
    ModelError,
    RawStore,
    acyclic,
    canonical_bytes,
    store_from_json,
    store_to_json,
)
from .network import Network, emit, export_json, parse_network
from .reconstruct import ReconstructionError, merged_program, reconstruct

logger = logging.getLogger(__name__)


class WorkspaceError(Exception):
    pass


@contextmanager
def _unreadable(what: str, path: Path):
    """Turn a failure to read or decode ``path`` inside the block into a
    WorkspaceError naming the file."""
    try:
        yield
    except (OSError, ValueError, LookupError, TypeError, ModelError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise WorkspaceError(f"unreadable {what} {path}: {detail}") from exc


def _read(what: str, path: Path, decode):
    """``decode`` of the bytes of ``path``; raises WorkspaceError naming
    the file if it cannot be read or does not hold a ``what``."""
    with _unreadable(what, path):
        return decode(path.read_bytes())


def _network_version(data: bytes) -> str:
    version = data.decode("utf-8").strip()
    if not re.fullmatch(r"[0-9a-f]{16}", version):
        raise ValueError(f"must hold a version of 16 lowercase hex digits, not {version[:40]!r}")
    return version


def _ledger_of(data: bytes) -> dict[str, str]:
    ledger = json.loads(data.decode("utf-8"))
    # JSON object keys are always strings, so only the values need a check.
    if type(ledger) is not dict or not all(type(v) is str for v in ledger.values()):
        raise ValueError("must be an object of file names to digests")
    return ledger


def _segments_of(doc) -> tuple[int, dict[str, str]]:
    """The version and segments of a manifest document; raises ValueError
    unless it is exactly ``{"segments": {source id: file name}, "version": n}``
    with each file name a plain name."""
    if not (
        type(doc) is dict
        and doc.keys() == {"segments", "version"}
        and type(doc["version"]) is int
        and doc["version"] >= 0
        and type(doc["segments"]) is dict
        and all(type(name) is str and _plain_name(name) for name in doc["segments"].values())
    ):
        raise ValueError(
            'manifest must be {"segments": {source id: file name in store/}, "version": n >= 0}'
        )
    return doc["version"], doc["segments"]


def _plain_name(name: str) -> bool:
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def _segment_decoder(source_id: str):
    """The decoder of the segment of ``source_id``: ``store_from_json``,
    refusing an entity of any other source."""

    def decode(data: bytes) -> RawStore:
        segment = store_from_json(data)
        for entity in segment.entities():
            if entity.origin.source_id != source_id:
                raise ModelError(
                    f"segment of source {source_id!r} holds an entity of "
                    f"{entity.origin.source_id!r}"
                )
        return segment

    return decode


def _waits_on_other_sources(report: ConformanceReport, source_id: str) -> bool:
    """Whether every finding of ``report`` on a snapshot of ``source_id``
    is a DANGLING_REF to an id ``<source id>/<object id>`` of another
    source, which a later commit of that source can add."""

    def of_other_source(target: str) -> bool:
        owner, slash, _ = target.partition("/")
        return bool(slash) and owner not in ("", source_id)

    return all(f.code == DANGLING_REF and of_other_source(f.target) for f in report.findings)


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary sibling file.

    A reader sees either the old bytes or the new ones, never a torn
    file, and a failed write leaves the old file and no temporary file.
    The temporary name carries the process id, so two writers never
    share one.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


#: The store that the last committing ``SnapshotWatcher.poll_once`` in
#: this process saved: (workspace root, the manifest bytes it wrote, the
#: store, its segments), or None. The manifest names each segment by
#: the digest of its bytes and carries the store version, so while
#: ``store.json`` holds those bytes this is the current store. Every
#: store write clears it first, so a process holds at most one.
_committed: tuple[Path, bytes, RawStore, dict[str, str]] | None = None


@dataclass(frozen=True)
class Workspace:
    root: Path

    @property
    def schema_path(self) -> Path:
        return self.root / "schema.json"

    @property
    def rules_path(self) -> Path:
        return self.root / "rules.dl"

    @property
    def sources_dir(self) -> Path:
        return self.root / "sources"

    @property
    def store_path(self) -> Path:
        return self.root / "store.json"

    @property
    def segments_dir(self) -> Path:
        return self.root / "store"

    @property
    def networks_dir(self) -> Path:
        return self.root / "networks"

    @property
    def snapshots_dir(self) -> Path:
        return self.root / "snapshots"

    @property
    def ledger_path(self) -> Path:
        return self.root / "watch_ledger.json"

    @staticmethod
    def init(root: str | Path) -> "Workspace":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        ws = Workspace(root)
        if not ws.schema_path.exists():
            write_atomic(ws.schema_path, _json_bytes(default_schema_doc()))
        ws.sources_dir.mkdir(exist_ok=True)
        ws.networks_dir.mkdir(exist_ok=True)
        ws.snapshots_dir.mkdir(exist_ok=True)
        if not ws.store_path.exists():
            ws.save_store(RawStore.empty())
        return ws

    @staticmethod
    def load(root: str | Path) -> "Workspace":
        root = Path(root)
        ws = Workspace(root)
        if not ws.schema_path.exists() or not ws.store_path.exists():
            raise WorkspaceError(
                f"{root} is not an initialized workspace (run init first)"
            )
        return ws

    # -- schema / checker

    def checker(self) -> CompiledChecker:
        """The checker of ``schema.json``; raises SchemaError naming the
        file if it cannot be read or does not hold a valid schema, or if
        a built-in kind loosens a field of ``default_schema_doc`` that
        the entity build reads: each must stay declared, a string or an
        enum, and required where the default requires it."""
        try:
            checker = load_schema(self.schema_path)
            for kind, doc in default_schema_doc()["kinds"].items():
                if kind not in checker.kinds:  # its records are UNKNOWN_KIND
                    continue
                specs = {spec.name: spec for spec in checker.kinds[kind][0]}
                for name, default in doc["fields"].items():
                    spec, where = specs.get(name), f"{kind}.{name}"
                    if spec is None:
                        raise SchemaError(f"{where}: a built-in field must stay declared")
                    if default.get("required") and not spec.required:
                        raise SchemaError(f"{where}: a built-in field must stay required")
                    if spec.type not in ("string", "enum"):
                        raise SchemaError(f"{where}: a built-in field must be a string or an enum")
            return checker
        except SchemaError as exc:
            raise SchemaError(f"invalid schema {self.schema_path}: {exc}") from exc

    # -- store versions

    @contextmanager
    def _store_lock(self):
        """Hold the exclusive advisory lock on ``.lock`` for the block;
        ``flock`` needs no write access, so the file is opened read-only.
        It is not reentrant: a holder must not ask for it again."""
        fd = os.open(self.root / ".lock", os.O_RDONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    @acyclic
    def load_store(self) -> RawStore:
        """The current store; raises WorkspaceError if ``store.json`` or
        a segment it lists does not hold its part."""
        with self._store_lock():
            return self._load_store()[0]

    def _load_store(self) -> tuple[RawStore, dict[str, str]]:
        """The current store and the manifest's segments it was read
        from. Call it under the store lock."""
        return self._decode_store(_read("store", self.store_path, bytes))

    def _decode_store(self, data: bytes) -> tuple[RawStore, dict[str, str]]:
        """The store and segments of the manifest bytes ``data``."""
        with _unreadable("store", self.store_path):
            version, segments = _segments_of(json.loads(data.decode("utf-8")))
        parts = [
            _read("store", self.segments_dir / name, _segment_decoder(source_id))
            for source_id, name in segments.items()
        ]
        with _unreadable("store", self.store_path):  # an id in two segments
            store = RawStore.build(version, chain.from_iterable(p.entities() for p in parts))
        return store, segments

    def save_store(self, store: RawStore) -> None:
        """Write a segment for every source in ``store``, then the manifest."""
        sources = sorted({e.origin.source_id for e in store.entities()})
        with self._store_lock():
            self._write_store(store, {}, dict.fromkeys(sources, store.version))

    def _write_store(
        self, store: RawStore, kept: dict[str, str], stamps: dict[str, int]
    ) -> tuple[bytes, dict[str, str]]:
        """Write the segment of each source in ``stamps``, stamped with
        its version there, then a manifest listing those beside the
        ``kept`` entries; then delete every other file in ``store/``.
        Returns the manifest's bytes and segments.

        Every store write drops the store the last committing poll
        held, before it writes anything, so a failed write drops it too.
        """
        global _committed
        _committed = None
        segments = dict(kept)
        self.segments_dir.mkdir(exist_ok=True)
        for source_id, version in stamps.items():
            data = store_to_json(replace(store.only_source(source_id), version=version))
            name = f"{source_id}.{hashlib.sha256(data).hexdigest()[:16]}.json"
            write_atomic(self.segments_dir / name, data)
            segments[source_id] = name
        manifest = canonical_bytes({"segments": segments, "version": store.version})
        write_atomic(self.store_path, manifest)
        listed = set(segments.values())
        try:
            for path in self.segments_dir.iterdir():
                if path.name not in listed:
                    path.unlink(missing_ok=True)
        except OSError as exc:  # the store is saved; what is left is only waste
            logger.warning("cannot remove old segments of %s: %s", self.store_path, exc)
        return manifest, segments

    def _held_or_loaded_store(self, manifest: bytes) -> tuple[RawStore, dict[str, str]]:
        """What ``_load_store`` returns, for ``manifest``, the bytes just
        read from ``store.json``; without decoding a segment if they are
        the bytes that the last committing poll in this process wrote
        here: then the store that poll saved is the current one. Call it
        under the store lock."""
        global _committed
        if _committed is not None and _committed[:2] == (self.root, manifest):
            return _committed[2], _committed[3]
        _committed = None  # stale: free it before decoding the current store
        return self._decode_store(manifest)

    # -- source configs

    def register_source(self, config_path: str | Path) -> SourceConfig:
        config = load_source_config(config_path)
        self.sources_dir.mkdir(exist_ok=True)
        write_atomic(self.sources_dir / f"{config.source_id}.json", _json_bytes(asdict(config)))
        return config

    def get_source(self, source_id: str) -> SourceConfig:
        path = self.sources_dir / f"{source_id}.json"
        if not path.exists():
            raise WorkspaceError(f"no registered source config for {source_id!r}")
        return load_source_config(path)

    # -- network publication

    def publish_network(self, network: Network) -> str:
        self.networks_dir.mkdir(exist_ok=True)
        write_atomic(self.networks_dir / f"{network.version}.json", export_json(network))
        write_atomic(self.networks_dir / "LATEST", network.version.encode("utf-8"))
        return network.version

    def latest_network_path(self) -> Path | None:
        """The file of the most recently published network, or None if
        none is published."""
        pointer = self.networks_dir / "LATEST"
        if not pointer.exists():
            return None
        version = _read("network pointer", pointer, _network_version)
        path = self.networks_dir / f"{version}.json"
        return path if path.exists() else None

    def latest_network_bytes(self) -> bytes | None:
        path = self.latest_network_path()
        return None if path is None else _read("network", path, bytes)

    def latest_network(self) -> Network:
        """The latest published network; raises WorkspaceError if none
        is published or its file does not hold one."""
        path = self.latest_network_path()
        if path is None:
            raise WorkspaceError("no network published yet (run infer first)")
        return _read("network", path, parse_network)

    # -- pipeline steps

    @acyclic
    def ingest(self, config: SourceConfig, snapshot_path: str | Path):
        """Load, validate, and commit one snapshot.

        Returns the new RawStore on success or the ConformanceReport on
        findings. The file is read once, and a committed snapshot's
        bytes are archived under snapshots/ for provenance.
        """
        data = read_snapshot(snapshot_path)
        snapshot = load_snapshot(snapshot_path, config, data)
        with self._store_lock():
            store, segments = self._load_store()
            result = commit(snapshot, store, self.checker())
            if isinstance(result, RawStore):
                self._save_committed(result, segments, [(config.source_id, result.version, data)])
        return result

    def _save_committed(
        self,
        store: RawStore,
        segments: dict[str, str],
        archives: list[tuple[str, int, bytes]],
    ) -> tuple[bytes, dict[str, str]]:
        """Archive each committed snapshot, given as (source id, store
        version it made, bytes), then save ``store``, loaded from the
        manifest ``segments``. Only the committed sources' segments are
        written, each stamped with its last commit's version. If this
        raises, the archives written are removed again, so none names a
        version that ``store.json`` never reached. Returns the manifest's
        bytes and segments as written."""
        written = []
        try:
            self.snapshots_dir.mkdir(exist_ok=True)
            for source_id, version, data in archives:
                path = self.snapshots_dir / f"{source_id}__v{version:06d}.jsonl"
                write_atomic(path, data)
                written.append(path)
            stamps = {source_id: version for source_id, version, _ in archives}
            return self._write_store(store, segments, stamps)
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            raise

    @acyclic
    def infer(self) -> Network:
        """Reconstruct the network from the current store and publish it,
        both under the store lock: no commit lands between the load and
        the publish, so the network published is of the current store."""
        with self._store_lock():
            return self._infer(self._load_store()[0])

    def _infer(self, store: RawStore) -> Network:
        """Reconstruct ``store`` with the built-in rules and those of
        ``rules.dl``, if it exists, and publish it. Call it under the
        store lock. A ``rules.dl`` that cannot be read or is not UTF-8
        raises WorkspaceError. One that does not parse, or does not merge
        with the built-in rules, raises ProgramError or (for a rule that
        redefines a raw predicate) ReconstructionError, whose message
        starts with the file's path."""
        rules = None
        if self.rules_path.exists():
            text = _read("rules file", self.rules_path, bytes.decode)
            # Merged here, apart from the lift, so that only errors of the
            # rules name the file; each keeps its type, and so its exit code.
            try:
                rules = parse_program(text)
                merged_program(rules)
            except (ProgramError, ReconstructionError) as exc:
                exc.args = (f"{self.rules_path}: {exc}",)
                raise
        network = emit(reconstruct(store, extra_rules=rules))
        self.publish_network(network)
        return network


# ---------------------------------------------------------------------------
# Directory watcher


class SnapshotWatcher:
    """Polls a directory for snapshot files and ingests each exactly once.

    Files are identified by (name, content digest), so re-dropping an
    identical file is a no-op while changed content is picked up again.
    Per-file failures are logged and do not stop the loop. A file whose
    source is not registered is not ledgered, so it is retried on every
    poll until its source config is registered and parses. A committed
    store that does not lift with the workspace's rules, or a
    ``rules.dl`` that cannot be read or parsed, is logged and not
    published; the next poll that commits something publishes again.
    """

    def __init__(self, workspace: Workspace, directory: str | Path):
        self.workspace = workspace
        self.directory = Path(directory)
        self._ledger: dict[str, str] = self._load_ledger()
        # name -> (digest, source config, store.json bytes, checker) of
        # each file that the last poll left waiting on other sources
        self._waiting: dict[str, tuple[str, SourceConfig, bytes, CompiledChecker]] = {}

    def _load_ledger(self) -> dict[str, str]:
        """The ledger on disk, or an empty one; raises WorkspaceError if
        ``watch_ledger.json`` is not a JSON object of strings to strings."""
        path = self.workspace.ledger_path
        return _read("ledger", path, _ledger_of) if path.exists() else {}

    def _save_ledger(self) -> None:
        write_atomic(self.workspace.ledger_path, canonical_bytes(self._ledger))

    @acyclic
    def poll_once(self) -> list[tuple[str, str]]:
        """One scan pass; returns (filename, outcome) per processed file,
        in name order.

        Each new or changed file is read once, and those bytes are
        digested, committed and archived. Files commit in name order
        against one load of the store; if ``store.json`` still holds
        the manifest that the last committing poll in this process
        wrote, the store that poll saved is used and nothing is read.
        A file rejected only for references into other sources is not
        ledgered: after a pass that committed something, those files
        are tried again in name order, until a pass commits nothing,
        and later polls try them again. While such a file, its source
        config, ``store.json`` and the schema are all unchanged, later
        polls keep its outcome without parsing or checking it again,
        and warn about it only once. A later-named file of the same
        source that commits first supersedes such a file for good.
        Then the archives are written, the segment of each committed
        source, and the manifest after them. The ledger follows, and if
        anything committed, the store just saved is reconstructed and
        published without being read again. The ledger advances only
        after the save succeeds. The workspace's store lock is held from
        reading ``store.json`` to the publish.
        """
        global _committed
        ws = self.workspace
        outcomes: list[tuple[str, str]] = []
        ledgered: dict[str, str] = {}
        archives: list[tuple[str, int, bytes]] = []
        store = segments = checker = None
        with ws._store_lock():  # from the load to the publish
            pending = []  # (path, digest, config, bytes) of each new or changed file
            for path in sorted(self.directory.glob("*.jsonl")):
                try:
                    data = read_snapshot(path)
                except IngestError as exc:  # e.g. removed since the scan; retried
                    logger.warning("skipping %s: %s", path.name, exc)
                    outcomes.append((path.name, "load-error"))
                    continue
                digest = hashlib.sha256(data).hexdigest()
                if self._ledger.get(path.name) == digest:
                    continue
                try:
                    config = ws.get_source(path.name.split("__", 1)[0])
                except (WorkspaceError, IngestError) as exc:  # missing or broken config
                    logger.warning("skipping %s: %s", path.name, exc)
                    outcomes.append((path.name, "no-source-config"))
                    continue
                pending.append((path, digest, config, data))
            manifest = _read("store", ws.store_path, bytes) if pending else b""
            last: dict[str, str] = {}  # source id -> its last committed file
            waiting: dict[str, ConformanceReport | None] = {}  # None: kept outcome
            while pending:
                waiting = {}
                for path, digest, config, data in pending:
                    name, source_id = path.name, config.source_id
                    if last.get(source_id, name) > name:
                        logger.warning("rejected %s: superseded by %s", name, last[source_id])
                        ledgered[name] = digest
                        outcomes.append((name, "rejected"))
                        continue
                    if checker is None and name in self._waiting:
                        checker = ws.checker()
                    if not archives and self._waiting.get(name) == (digest, config, manifest, checker):
                        waiting[name] = None
                        continue
                    try:
                        snapshot = load_snapshot(path, config, data)
                    except IngestError as exc:
                        logger.warning("skipping %s: %s", name, exc)
                        ledgered[name] = digest
                        outcomes.append((name, "load-error"))
                        continue
                    if store is None:
                        store, segments = ws._held_or_loaded_store(manifest)
                    if checker is None:
                        checker = ws.checker()
                    result = commit(snapshot, store, checker)
                    if isinstance(result, ConformanceReport):
                        if _waits_on_other_sources(result, source_id):
                            waiting[name] = result
                            continue
                        logger.warning("rejected %s: %d findings", name, len(result.findings))
                        ledgered[name] = digest
                        outcomes.append((name, "rejected"))
                        continue
                    ledgered[name] = digest
                    store = result
                    last[source_id] = name
                    archives.append((source_id, store.version, data))
                    outcomes.append((name, "committed"))
                if len(waiting) == len(pending):  # this pass committed nothing
                    break
                pending = [item for item in pending if item[0].name in waiting]
            for name, report in waiting.items():
                if report is not None:
                    logger.warning(
                        "rejected %s for now: %d references into sources not committed yet",
                        name, len(report.findings),
                    )
                outcomes.append((name, "rejected"))
            if archives:
                manifest, segments = ws._save_committed(store, segments, archives)
                _committed = (ws.root, manifest, store, segments)
            self._waiting = {
                path.name: (digest, config, manifest, checker)
                for path, digest, config, _ in pending
                if path.name in waiting
            }
            if ledgered:
                self._ledger.update(ledgered)
                self._save_ledger()
            if archives:
                try:
                    network = ws._infer(store)
                except (WorkspaceError, ProgramError, ReconstructionError) as exc:
                    logger.warning("not published: %s", exc)
                else:
                    logger.info("published network %s", network.version)
        return sorted(outcomes)

    def run(self, interval: float, cycles: int = 0) -> None:
        done = 0
        while True:
            self.poll_once()
            done += 1
            if cycles and done >= cycles:
                return
            time.sleep(interval)
