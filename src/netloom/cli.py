"""Command-line pipeline: init, ingest, check, infer, export, query, watch.

Machine output goes to stdout (JSON or the requested graph format);
diagnostics go to stderr. Exit codes: 0 success, 1 environment or I/O
problems, 2 validation or rule errors.

``_Main.invoke`` is the one place that maps a pipeline error to its exit
code and one stderr line; a command catches an error only to word it.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from .conformance import ConformanceReport, SchemaError
from .datalog import ProgramError
from .ingest import IngestError, commit, load_snapshot, load_source_config
from .model import CANONICAL_JSON
from .network import GRAPH_FORMATS, export_graph, export_json
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
    click.echo(CANONICAL_JSON.encode(doc))


class _Main(click.Group):
    """The exit-code policy: a pipeline error, or a file that cannot be
    read or written, ends any command with its message as one stderr
    line. Usage errors and a closed stdout keep click's own handling."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (OSError, WorkspaceError, IngestError, SchemaError) as exc:
            _fail(EXIT_ENVIRONMENT, str(exc))
        except (ProgramError, ReconstructionError) as exc:
            _fail(EXIT_VALIDATION, str(exc))


@click.group(cls=_Main)
def main():
    """Reconstruct integration networks from discovery snapshots."""


@main.command()
@click.argument("workspace", type=click.Path())
def init(workspace):
    """Initialize a workspace directory."""
    ws = Workspace.init(workspace)
    _emit_json({"workspace": str(ws.root), "store_version": 0})


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--source-config", required=True, type=click.Path())
@click.argument("snapshot", type=click.Path())
def ingest(workspace, source_config, snapshot):
    """Validate and commit a snapshot file."""
    ws = Workspace.load(workspace)
    config = ws.register_source(source_config)
    result = ws.ingest(config, snapshot)
    if isinstance(result, ConformanceReport):
        _emit_bytes(result.to_json())
        sys.exit(EXIT_VALIDATION)
    _emit_json({"source_id": config.source_id, "store_version": result.version})


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--source-config", required=True, type=click.Path())
@click.argument("snapshot", type=click.Path())
def check(workspace, source_config, snapshot):
    """Preview ingest: run its commit of a snapshot, save nothing, and
    print the report, which is empty if the snapshot would commit."""
    ws = Workspace.load(workspace)
    snap = load_snapshot(snapshot, load_source_config(source_config))
    checker = ws.checker()  # before the store, so a bad schema is reported first
    result = commit(snap, ws.load_store(), checker)
    report = result if isinstance(result, ConformanceReport) else ConformanceReport()
    _emit_bytes(report.to_json())
    sys.exit(EXIT_OK if report.ok else EXIT_VALIDATION)


@main.command()
@click.argument("workspace", type=click.Path())
def infer(workspace):
    """Reconstruct the network from the current store and publish it.

    The built-in rules run with those of WORKSPACE/rules.dl, if present.
    """
    network = Workspace.load(workspace).infer()
    _emit_json({"version": network.version, **network.counts()})


@main.command()
@click.argument("workspace", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(("json",) + GRAPH_FORMATS),
              default="json", show_default=True)
@click.option("--space", "spaces", multiple=True,
              help="Restrict graph exports to these spaces.")
def export(workspace, fmt, spaces):
    """Write the latest published network to stdout."""
    network = Workspace.load(workspace).latest_network()
    if fmt == "json":
        _emit_bytes(export_json(network))
    else:
        _emit_bytes(export_graph(network, fmt, list(spaces) or None))


@main.group()
def query():
    """Search and traverse the latest published network."""


@query.command("search")
@click.argument("workspace", type=click.Path())
@click.argument("text")
def query_search(workspace, text):
    """Rank participants matching all query tokens."""
    network = Workspace.load(workspace).latest_network()
    _emit_json(run_search(build_index(network), text))


@query.command("traverse")
@click.argument("workspace", type=click.Path())
@click.argument("start")
@click.option("--depth", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--follow-links", is_flag=True, default=False)
@click.option("--space", "spaces", multiple=True)
def query_traverse(workspace, start, depth, follow_links, spaces):
    """Emit the neighborhood of a participant as a network fragment."""
    index = build_index(Workspace.load(workspace).latest_network())
    try:
        fragment = run_traverse(
            index, start, depth, follow_links=follow_links,
            spaces=list(spaces) or None,
        )
    except KeyError as exc:
        _fail(EXIT_VALIDATION, exc.args[0])
    _emit_bytes(export_json(fragment))


@main.command()
@click.argument("workspace", type=click.Path())
@click.argument("directory", type=click.Path())
@click.option("--interval", type=click.FloatRange(min=0), default=2.0, show_default=True)
@click.option("--cycles", type=click.IntRange(min=0), default=0,
              help="Stop after N polls (0 = run forever).")
def watch(workspace, directory, interval, cycles):
    """Continuously ingest snapshot files dropped into a directory.

    Files are named <source_id>__<anything>.jsonl and commit at most
    once per content digest, in name order per source; every poll that
    commits triggers a fresh inference run.
    """
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    ws = Workspace.load(workspace)
    if not Path(directory).is_dir():
        _fail(EXIT_ENVIRONMENT, f"watch directory {directory} does not exist")
    try:
        SnapshotWatcher(ws, directory).run(interval, cycles)
    except KeyboardInterrupt:
        click.echo("watch stopped", err=True)


if __name__ == "__main__":
    main()
