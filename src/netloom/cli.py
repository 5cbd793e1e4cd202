"""Command-line pipeline: init, ingest, check, infer, export, query, watch.

Machine output goes to stdout (JSON or the requested graph format);
diagnostics go to stderr. Exit codes: 0 success, 1 environment or I/O
problems, 2 validation or rule errors.
"""

from __future__ import annotations

import json
import sys

import click

from .conformance import ConformanceReport, SchemaError
from .datalog import ProgramError, parse_program
from .ingest import IngestError, load_snapshot
from .network import GRAPH_FORMATS, EmitError, export_graph, parse_network
from .query import build_index, search as run_search, traverse as run_traverse
from .reconstruct import ReconstructionError
from .workspace import SnapshotWatcher, Workspace, WorkspaceError

EXIT_OK = 0
EXIT_ENVIRONMENT = 1
EXIT_VALIDATION = 2


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _emit_bytes(data: bytes):
    stream = click.get_binary_stream("stdout")
    stream.write(data)
    stream.flush()


def _emit_json(doc):
    click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))


@click.group()
def main():
    """Reconstruct integration networks from discovery snapshots."""


@main.command()
@click.argument("workspace", type=click.Path())
def init(workspace):
    """Initialize a workspace directory."""
    ws = Workspace.init(workspace)
    _emit_json({"workspace": str(ws.root), "store_version": 0})


def _schema_failure(ws: Workspace, exc: SchemaError):
    _fail(EXIT_ENVIRONMENT, f"invalid schema {ws.schema_path}: {exc}")


def _load_workspace(path) -> Workspace:
    try:
        return Workspace.load(path)
    except WorkspaceError as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))
        raise AssertionError  # unreachable


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--source-config", required=True, type=click.Path())
@click.argument("snapshot", type=click.Path())
def ingest(workspace, source_config, snapshot):
    """Validate and commit a snapshot file."""
    ws = _load_workspace(workspace)
    try:
        config = ws.register_source(source_config)
        result = ws.ingest(config, snapshot)
    except (IngestError, WorkspaceError) as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))
        return
    except SchemaError as exc:
        _schema_failure(ws, exc)
        return
    if isinstance(result, ConformanceReport):
        _emit_bytes(result.to_json())
        sys.exit(EXIT_VALIDATION)
    _emit_json({"source_id": config.source_id, "store_version": result.version})


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--source-config", required=True, type=click.Path())
@click.argument("snapshot", type=click.Path())
def check(workspace, source_config, snapshot):
    """Validate a snapshot without committing it."""
    from .conformance import check_batch
    from .ingest import load_source_config

    ws = _load_workspace(workspace)
    try:
        config = load_source_config(source_config)
        snap = load_snapshot(snapshot, config)
    except IngestError as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))
        return
    try:
        checker = ws.checker()
    except SchemaError as exc:
        _schema_failure(ws, exc)
        return
    try:
        store = ws.load_store().without_source(config.source_id)
    except WorkspaceError as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))
        return
    report = check_batch(checker, snap.records, store)
    _emit_bytes(report.to_json())
    sys.exit(EXIT_OK if report.ok else EXIT_VALIDATION)


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--rules", type=click.Path(), default=None,
              help="Extra inference rules merged with the built-ins.")
def infer(workspace, rules):
    """Reconstruct the network from the current store and publish it."""
    ws = _load_workspace(workspace)
    extra = None
    if rules is not None:
        try:
            with open(rules, "r", encoding="utf-8") as handle:
                extra = parse_program(handle.read())
        except OSError as exc:
            _fail(EXIT_ENVIRONMENT, f"cannot read rules file: {exc}")
        except ProgramError as exc:
            _fail(EXIT_VALIDATION, f"rules error: {exc}")
    try:
        network = ws.infer(extra_rules=extra)
    except WorkspaceError as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))
        return
    except (ProgramError, ReconstructionError, EmitError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
        return
    _emit_json({"version": network.version, **network.counts()})


def _latest_network(ws: Workspace):
    data = ws.latest_network_bytes()
    if data is None:
        _fail(EXIT_ENVIRONMENT, "no network published yet (run infer first)")
    return data


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(("json",) + GRAPH_FORMATS),
              default="json", show_default=True)
@click.option("--space", "spaces", multiple=True,
              help="Restrict graph exports to these spaces.")
def export(workspace, fmt, spaces):
    """Write the latest published network to stdout."""
    ws = _load_workspace(workspace)
    data = _latest_network(ws)
    if fmt == "json":
        _emit_bytes(data)
        return
    network = parse_network(data)
    _emit_bytes(export_graph(network, fmt, list(spaces) or None))


@main.group()
def query():
    """Search and traverse the latest published network."""


@query.command("search")
@click.argument("workspace", type=click.Path())
@click.argument("text")
def query_search(workspace, text):
    """Rank participants matching all query tokens."""
    ws = _load_workspace(workspace)
    network = parse_network(_latest_network(ws))
    _emit_json(run_search(build_index(network), text))


@query.command("traverse")
@click.argument("workspace", type=click.Path())
@click.argument("start")
@click.option("--depth", type=int, default=1, show_default=True)
@click.option("--follow-links", is_flag=True, default=False)
@click.option("--space", "spaces", multiple=True)
def query_traverse(workspace, start, depth, follow_links, spaces):
    """Emit the neighborhood of a participant as a network fragment."""
    from .network import export_json

    ws = _load_workspace(workspace)
    network = parse_network(_latest_network(ws))
    index = build_index(network)
    try:
        fragment = run_traverse(
            index, start, depth, follow_links=follow_links,
            spaces=list(spaces) or None,
        )
    except KeyError as exc:
        _fail(EXIT_VALIDATION, f"unknown participant: {exc}")
        return
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
        return
    _emit_bytes(export_json(fragment))


@main.command()
@click.argument("workspace", type=click.Path())
@click.argument("directory", type=click.Path())
@click.option("--interval", type=float, default=2.0, show_default=True)
@click.option("--cycles", type=int, default=0,
              help="Stop after N polls (0 = run forever).")
def watch(workspace, directory, interval, cycles):
    """Continuously ingest snapshot files dropped into a directory.

    Files are named <source_id>__<anything>.jsonl and processed exactly
    once per content digest; every committed batch triggers a fresh
    inference run.
    """
    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    ws = _load_workspace(workspace)
    from pathlib import Path

    if not Path(directory).is_dir():
        _fail(EXIT_ENVIRONMENT, f"watch directory {directory} does not exist")
    try:
        SnapshotWatcher(ws, directory).run(interval, cycles)
    except KeyboardInterrupt:
        click.echo("watch stopped", err=True)
    except SchemaError as exc:
        _schema_failure(ws, exc)
    except WorkspaceError as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))


if __name__ == "__main__":
    main()
