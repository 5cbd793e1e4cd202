"""netloom: network reconstruction from fragmented discovery snapshots."""

from .conformance import (
    CompiledChecker,
    ConformanceReport,
    check_batch,
    default_schema_doc,
    load_schema,
    parse_schema,
)
from .datalog import Program, evaluate, evaluate_naive, parse_program, stratify
from .ingest import Snapshot, SourceConfig, commit, load_snapshot, normalize_address
from .model import RawStore, to_facts
from .network import Network, emit, export_graph, export_json, parse_network
from .query import build_index, search, traverse
from .reconstruct import builtin_program, merge_properties, reconstruct
from .workspace import SnapshotWatcher, Workspace

__all__ = [
    "CompiledChecker",
    "ConformanceReport",
    "Network",
    "Program",
    "RawStore",
    "Snapshot",
    "SnapshotWatcher",
    "SourceConfig",
    "Workspace",
    "builtin_program",
    "build_index",
    "check_batch",
    "commit",
    "default_schema_doc",
    "emit",
    "evaluate",
    "evaluate_naive",
    "export_graph",
    "export_json",
    "load_schema",
    "load_snapshot",
    "merge_properties",
    "normalize_address",
    "parse_network",
    "parse_program",
    "parse_schema",
    "reconstruct",
    "search",
    "stratify",
    "to_facts",
    "traverse",
]
