"""On-disk workspace: schema, source configs, store versions, networks.

Layout under the workspace root:

    schema.json              conformance schema (editable)
    sources/<source_id>.json registered source configs
    store.json               current raw store version (canonical JSON)
    snapshots/<source_id>__v<store version>.jsonl
                             the bytes of each committed snapshot
    networks/<version>.json  published network exports
    networks/LATEST          name of the most recent version
    watch_ledger.json        processed snapshot files (name + digest)

Snapshot files picked up by the watcher are named
``<source_id>__<anything>.jsonl``; the prefix selects the registered
source config.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .conformance import (
    CompiledChecker,
    ConformanceReport,
    compile_schema,
    default_schema_doc,
    load_schema,
)
from .ingest import (
    IngestError,
    SourceConfig,
    commit,
    load_snapshot,
    load_source_config,
    read_snapshot,
)
from .model import ModelError, RawStore, store_from_json, store_to_json
from .network import Network, emit, export_json, parse_network
from .reconstruct import reconstruct

logger = logging.getLogger(__name__)


class WorkspaceError(Exception):
    pass


def _read(what: str, path: Path, decode):
    """``decode`` of the bytes of ``path``; raises WorkspaceError naming
    the file if it cannot be read or does not hold a ``what``."""
    try:
        return decode(path.read_bytes())
    except (OSError, ValueError, LookupError, TypeError, ModelError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise WorkspaceError(f"unreadable {what} {path}: {detail}") from exc


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


@dataclass(frozen=True)
class Workspace:
    root: Path

    @property
    def schema_path(self) -> Path:
        return self.root / "schema.json"

    @property
    def sources_dir(self) -> Path:
        return self.root / "sources"

    @property
    def store_path(self) -> Path:
        return self.root / "store.json"

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
        return compile_schema(load_schema(self.schema_path))

    # -- store versions

    def load_store(self) -> RawStore:
        """The current store; raises WorkspaceError if ``store.json``
        does not hold one."""
        return _read("store", self.store_path, store_from_json)

    def save_store(self, store: RawStore) -> None:
        write_atomic(self.store_path, store_to_json(store))

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
        version = pointer.read_text(encoding="utf-8").strip()
        path = self.networks_dir / f"{version}.json"
        return path if path.exists() else None

    def latest_network_bytes(self) -> bytes | None:
        path = self.latest_network_path()
        return None if path is None else path.read_bytes()

    def latest_network(self) -> Network | None:
        """The latest published network, or None if none is published;
        raises WorkspaceError if its file does not hold one."""
        path = self.latest_network_path()
        return None if path is None else _read("network", path, parse_network)

    # -- pipeline steps

    def ingest(self, config: SourceConfig, snapshot_path: str | Path):
        """Load, validate, and commit one snapshot.

        Returns the new RawStore on success or the ConformanceReport on
        findings. The file is read once, and a committed snapshot's
        bytes are archived under snapshots/ for provenance.
        """
        data = read_snapshot(snapshot_path)
        snapshot = load_snapshot(snapshot_path, config, data)
        result = commit(snapshot, self.load_store(), self.checker())
        if isinstance(result, RawStore):
            self._save_committed(result, [(config.source_id, result.version, data)])
        return result

    def _save_committed(self, store: RawStore, archives: list[tuple[str, int, bytes]]) -> None:
        """Save ``store``, then archive each committed snapshot, given as
        (source id, store version it made, bytes)."""
        self.save_store(store)
        self.snapshots_dir.mkdir(exist_ok=True)
        for source_id, version, data in archives:
            write_atomic(self.snapshots_dir / f"{source_id}__v{version:06d}.jsonl", data)

    def infer(self, extra_rules=None) -> Network:
        """Reconstruct the network from the current store and publish it."""
        return self._infer(self.load_store(), extra_rules)

    def _infer(self, store: RawStore, extra_rules=None) -> Network:
        network = emit(reconstruct(store, extra_rules=extra_rules))
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
    poll until its source config is registered and parses.
    """

    def __init__(self, workspace: Workspace, directory: str | Path):
        self.workspace = workspace
        self.directory = Path(directory)
        self._ledger: dict[str, str] = self._load_ledger()

    def _load_ledger(self) -> dict[str, str]:
        """The ledger on disk, or an empty one; raises WorkspaceError if
        ``watch_ledger.json`` is not a JSON object of strings to strings."""
        path = self.workspace.ledger_path
        if not path.exists():
            return {}
        try:
            ledger = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
            raise WorkspaceError(f"unreadable ledger {path}: {exc}") from exc
        # JSON object keys are always strings, so only the values need a check.
        if not isinstance(ledger, dict) or not all(
            isinstance(v, str) for v in ledger.values()
        ):
            raise WorkspaceError(
                f"unreadable ledger {path}: must be an object of file names to digests"
            )
        return ledger

    def _save_ledger(self) -> None:
        write_atomic(self.workspace.ledger_path, _json_bytes(self._ledger))

    def poll_once(self) -> list[tuple[str, str]]:
        """One scan pass; returns (filename, outcome) per processed file.

        Each new or changed file is read once, and those bytes are
        digested, committed and archived. Files commit in name order
        against one load of the store, which is then saved once. The
        archives and the ledger follow, and if anything committed, the
        store just saved is reconstructed and published without being
        read again. The ledger advances only after the save succeeds.
        """
        ws = self.workspace
        outcomes: list[tuple[str, str]] = []
        ledgered: dict[str, str] = {}
        archives: list[tuple[str, int, bytes]] = []
        store = checker = None
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
            ledgered[path.name] = digest
            try:
                snapshot = load_snapshot(path, config, data)
            except IngestError as exc:
                logger.warning("skipping %s: %s", path.name, exc)
                outcomes.append((path.name, "load-error"))
                continue
            if store is None:
                store, checker = ws.load_store(), ws.checker()
            result = commit(snapshot, store, checker)
            if isinstance(result, ConformanceReport):
                logger.warning("rejected %s: %d findings", path.name, len(result.findings))
                outcomes.append((path.name, "rejected"))
                continue
            store = result
            archives.append((config.source_id, store.version, data))
            outcomes.append((path.name, "committed"))
        if archives:
            ws._save_committed(store, archives)
        if ledgered:
            self._ledger.update(ledgered)
            self._save_ledger()
        if archives:
            network = ws._infer(store)
            logger.info("published network %s", network.version)
        return outcomes

    def run(self, interval: float, cycles: int = 0) -> None:
        done = 0
        while True:
            self.poll_once()
            done += 1
            if cycles and done >= cycles:
                return
            time.sleep(interval)
