"""On-disk workspace: schema, source configs, store versions, networks.

Layout under the workspace root:

    schema.json              conformance schema (editable)
    sources/<source_id>.json registered source configs
    store.json               current raw store version (canonical JSON)
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
from dataclasses import dataclass
from pathlib import Path

from .conformance import (
    CompiledChecker,
    ConformanceReport,
    compile_schema,
    default_schema_doc,
    load_schema,
)
from .ingest import IngestError, SourceConfig, commit, load_snapshot, load_source_config
from .model import ModelError, RawStore, store_from_json, store_to_json
from .network import Network, emit, export_json
from .reconstruct import reconstruct

logger = logging.getLogger(__name__)


class WorkspaceError(Exception):
    pass


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
        try:
            return store_from_json(self.store_path.read_bytes())
        except (ValueError, LookupError, TypeError, ModelError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise WorkspaceError(f"unreadable store {self.store_path}: {detail}") from exc

    def save_store(self, store: RawStore) -> None:
        write_atomic(self.store_path, store_to_json(store))

    # -- source configs

    def register_source(self, config_path: str | Path) -> SourceConfig:
        config = load_source_config(config_path)
        self.sources_dir.mkdir(exist_ok=True)
        write_atomic(
            self.sources_dir / f"{config.source_id}.json",
            _json_bytes(
                {
                    "source_id": config.source_id,
                    "source_type": config.source_type,
                    "mapping": config.mapping,
                }
            ),
        )
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

    def latest_network_bytes(self) -> bytes | None:
        pointer = self.networks_dir / "LATEST"
        if not pointer.exists():
            return None
        version = pointer.read_text(encoding="utf-8").strip()
        path = self.networks_dir / f"{version}.json"
        if not path.exists():
            return None
        return path.read_bytes()

    # -- pipeline steps

    def ingest(self, config: SourceConfig, snapshot_path: str | Path):
        """Load, validate, and commit one snapshot.

        Returns the new RawStore on success or the ConformanceReport on
        findings. Committed snapshot files are archived under
        snapshots/ for provenance.
        """
        snapshot_path = Path(snapshot_path)
        snapshot = load_snapshot(snapshot_path, config)
        store = self.load_store()
        result = commit(snapshot, store, self.checker())
        if isinstance(result, RawStore):
            self.save_store(result)
            self.snapshots_dir.mkdir(exist_ok=True)
            archive = self.snapshots_dir / f"{config.source_id}__v{result.version:06d}.jsonl"
            write_atomic(archive, snapshot_path.read_bytes())
        return result

    def infer(self, extra_rules=None) -> Network:
        store = self.load_store()
        network = emit(reconstruct(store, extra_rules=extra_rules))
        self.publish_network(network)
        return network


# ---------------------------------------------------------------------------
# Directory watcher


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SnapshotWatcher:
    """Polls a directory for snapshot files and ingests each exactly once.

    Files are identified by (name, content digest), so re-dropping an
    identical file is a no-op while changed content is picked up again.
    Per-file failures are logged and do not stop the loop; after a poll
    that committed anything, inference runs once and the network is
    republished.
    """

    def __init__(self, workspace: Workspace, directory: str | Path):
        self.workspace = workspace
        self.directory = Path(directory)
        self._ledger: dict[str, str] = self._load_ledger()

    def _load_ledger(self) -> dict[str, str]:
        if self.workspace.ledger_path.exists():
            return json.loads(self.workspace.ledger_path.read_text(encoding="utf-8"))
        return {}

    def _save_ledger(self) -> None:
        write_atomic(self.workspace.ledger_path, _json_bytes(self._ledger))

    def poll_once(self) -> list[tuple[str, str]]:
        """One scan pass; returns (filename, outcome) per processed file."""
        outcomes: list[tuple[str, str]] = []
        committed = False
        for path in sorted(self.directory.glob("*.jsonl")):
            digest = _file_digest(path)
            if self._ledger.get(path.name) == digest:
                continue
            outcome = self._process(path)
            outcomes.append((path.name, outcome))
            self._ledger[path.name] = digest
            if outcome == "committed":
                committed = True
        if outcomes:
            self._save_ledger()
        if committed:
            network = self.workspace.infer()
            logger.info("published network %s", network.version)
        return outcomes

    def _process(self, path: Path) -> str:
        source_id = path.name.split("__", 1)[0]
        try:
            config = self.workspace.get_source(source_id)
        except WorkspaceError as exc:
            logger.warning("skipping %s: %s", path.name, exc)
            return "no-source-config"
        try:
            result = self.workspace.ingest(config, path)
        except IngestError as exc:
            logger.warning("skipping %s: %s", path.name, exc)
            return "load-error"
        if isinstance(result, ConformanceReport):
            logger.warning(
                "rejected %s: %d findings", path.name, len(result.findings)
            )
            return "rejected"
        return "committed"

    def run(self, interval: float, cycles: int = 0) -> None:
        done = 0
        while True:
            self.poll_once()
            done += 1
            if cycles and done >= cycles:
                return
            time.sleep(interval)
