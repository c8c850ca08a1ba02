"""Command-line entry point wiring all modules together.

Exit codes: 0 success, 1 domain error (invalid plan, failed eval load,
model/transport failure), 2 usage error. Credentials stay in the
environment; everything else is a flag so invocations are reproducible.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .datasets import DatasetError, load_golden_dataset
from .enforcer import compile_schema, enforced_repair
from .executor import ExecutionError, StubRuntime, execute, register_operator_tools
from .llm import CompletionError, RemoteChatModel, load_replay
from .metrics import EvalRecord, evaluate_dataset, render_csv, render_table
from .pipelines import (
    PipelineConfig,
    PipelineError,
    PlannerContext,
    PromptError,
    run_enchant,
    run_regains,
)
from .plan import Plan, RefDiagnostic, parse_plan, plan_to_data, serialize_plan
from .registry import (RegistryError, decode_text, fixture_tools_path, line_error, load_registry,
                       read_json_lines, read_text, validate_registry)
from .retrieval import HashEmbeddingProvider, RetrievalError
from .typegraph import build_graph, repair_plan, validate_plan


def _fail(message: str) -> None:
    raise click.ClickException(message)


_PIPELINES = {"enchant": run_enchant, "regains": run_regains}

# An input file option: a missing file is a usage error.
_FILE = click.Path(exists=True, dir_okay=False)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an OS error, such as a missing directory,
    is one error line naming the path."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


def _load_registry_arg(tools: str, with_operators: bool = False):
    registry = load_registry(Path(tools))
    return register_operator_tools(registry) if with_operators else registry


def _read_plan_text(in_file: str | None) -> str:
    """The text of ``in_file``, or of standard input, read as bytes and
    refused when it is not UTF-8 like a file."""
    if in_file:
        return read_text(in_file, click.ClickException)
    return decode_text(click.get_binary_stream("stdin").read(), "<stdin>", click.ClickException)


def _read_plan(in_file: str | None) -> Plan:
    outcome = parse_plan(_read_plan_text(in_file))
    if not outcome.ok:
        _fail(f"{outcome.kind}: {outcome.detail}")
    return outcome.plan


def _located(diag: RefDiagnostic) -> str:
    unit = f"call {diag.position}" if diag.argument is None else f"call {diag.position} argument {diag.argument!r}"
    return f"{unit}: {diag.message}"


_TOOLS_OPTION = click.option(
    "--tools", type=_FILE, default=str(fixture_tools_path()), show_default=False,
    help="Tool registry JSON file (defaults to the bundled fixture).",
)


# Errors of the library's own checks: each is one error line and exit 1.
_DOMAIN_ERRORS = (RegistryError, DatasetError, PipelineError, PromptError, CompletionError, RetrievalError,
                  ExecutionError)


class _Commands(click.Group):
    """The command group: a domain error raised by any command is reported
    as one ``Error:`` line with its message, and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _DOMAIN_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
@click.version_option(__version__)
def main():
    """Plan, check, repair, enforce, execute, and score tool-call chains."""


@main.command("tools")
@_TOOLS_OPTION
@click.option("--graph", "dump_graph", is_flag=True, help="Dump the type graph edges as JSON.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_tools(tools, dump_graph, fmt):
    """Validate a tool registry and print a summary or its type graph."""
    registry = _load_registry_arg(tools)
    if dump_graph:
        click.echo(json.dumps(build_graph(registry).dump(), indent=2))
        return
    diagnostics = validate_registry(registry)
    if fmt == "json":
        click.echo(json.dumps({
            "version": registry.version,
            "tools": list(registry.names),
            "diagnostics": [d.__dict__ for d in diagnostics],
        }, indent=2))
    else:
        click.echo(f"registry {registry.version}: {len(registry)} tools")
        for name in registry.names:
            click.echo(f"  {name}")
        for diag in diagnostics:
            click.echo(f"{diag.severity}: {diag.location}: {diag.message}")


@main.command("plan")
@click.argument("query")
@click.option("--pipeline", type=click.Choice(list(_PIPELINES)), default="regains")
@_TOOLS_OPTION
@click.option("--examples", type=_FILE, default=None, help="Golden dataset JSONL used as worked examples.")
@click.option("--config", "config_file", type=_FILE, default=None, help="Pipeline config JSON.")
@click.option("--mock", "replay_file", type=_FILE, default=None, help="Replay JSONL; no network is touched.")
@click.option("--trace", "trace_file", default="trace.json", show_default=True)
@click.option("--with-operators", is_flag=True, help="Add op_* pseudo-tools to the registry.")
def cmd_plan(query, pipeline, tools, examples, config_file, replay_file, trace_file, with_operators):
    """Turn QUERY into a validated plan; plan JSON on stdout, trace to file."""
    registry = _load_registry_arg(tools, with_operators)
    try:
        config = PipelineConfig.from_file(config_file) if config_file else PipelineConfig()
    except (ValueError, OSError) as exc:
        _fail(f"config: {exc}")
    golden = load_golden_dataset(examples) if examples else None
    ctx = PlannerContext.build(registry, HashEmbeddingProvider(), golden)
    model = load_replay(replay_file) if replay_file else RemoteChatModel()
    trace = _PIPELINES[pipeline](query, ctx, model, config)
    _write_text(trace_file, trace.to_json())
    click.echo(trace.final_text)


@main.command("check")
@_TOOLS_OPTION
@click.option("--in", "in_file", type=_FILE, default=None, help="Plan JSON file (stdin otherwise).")
def cmd_check(tools, in_file):
    """Validate a plan: names, references, literal types, required
    arguments and type-graph wiring.

    Prints every ``validate_plan`` finding against the registry, in plan
    order: a repairable wrapping mismatch as a warning, any other finding
    as an error. Exits 1 on any error, and prints ``ok`` otherwise."""
    registry = _load_registry_arg(tools, with_operators=True)
    findings = validate_plan(_read_plan(in_file), registry)
    for diag in findings:
        click.echo(f"error: {_located(diag)}" if diag.is_error else f"warning: {_located(diag)} (repairable)")
    if any(diag.is_error for diag in findings):
        sys.exit(1)
    click.echo("ok")


@main.command("repair")
@_TOOLS_OPTION
@click.option("--in", "in_file", type=_FILE, default=None, help="Plan JSON file (stdin otherwise).")
@click.option("--format", "fmt", type=click.Choice(["plan", "json"]), default="plan")
def cmd_repair(tools, in_file, fmt):
    """Re-wrap $$PREV references to match the type graph."""
    registry = _load_registry_arg(tools, with_operators=True)
    repaired, repairs = repair_plan(build_graph(registry), _read_plan(in_file))
    if fmt == "json":
        click.echo(json.dumps({
            "plan": plan_to_data(repaired),
            "repairs": [r.__dict__ for r in repairs],
        }, indent=2))
    else:
        click.echo(serialize_plan(repaired))
        for repair in repairs:
            click.echo(f"{repair.action}: call {repair.position} {repair.argument}: {repair.detail}", err=True)


@main.command("enforce")
@_TOOLS_OPTION
@click.option("--in", "in_file", type=_FILE, default=None, help="Raw candidate text (stdin otherwise).")
@click.option("--format", "fmt", type=click.Choice(["plan", "json"]), default="plan")
def cmd_enforce(tools, in_file, fmt):
    """Project arbitrary text onto the schema-valid plan language. Trailing
    JSON whitespace, such as the newline that ends a file, is not projected."""
    registry = _load_registry_arg(tools, with_operators=True)
    repaired, edits = enforced_repair(compile_schema(registry), _read_plan_text(in_file).rstrip(" \t\r\n"))
    if fmt == "json":
        click.echo(json.dumps({"text": repaired, "edits": [e._asdict() for e in edits]}, indent=2))
    else:
        click.echo(repaired)
        for edit in edits:
            click.echo(f"{edit.kind}@{edit.position}: {edit.text!r}", err=True)


@main.command("exec")
@_TOOLS_OPTION
@click.option("--in", "in_file", type=_FILE, default=None, help="Plan JSON file (stdin otherwise).")
@click.option("--out", default=None, help="Write the execution trace here instead of stdout.")
def cmd_exec(tools, in_file, out):
    """Execute a plan on the bundled stub runtime. A plan that ``chainplan
    check`` rejects against the registry is refused before the first call,
    with one error line naming its first error."""
    registry = _load_registry_arg(tools, with_operators=True)
    plan = _read_plan(in_file)
    findings = validate_plan(plan, registry)
    errors = [diag for diag in findings if diag.is_error]
    if errors:
        _fail(f"{_located(errors[0])} ({len(findings)} finding(s) in all; chainplan check lists them)")
    trace = execute(plan, StubRuntime())
    if out:
        _write_text(out, trace.to_json())
        click.echo(f"executed {len(trace.steps)} steps")
    else:
        click.echo(trace.to_json())


@main.command("eval")
@click.option("--dataset", type=_FILE, required=True, help="Golden dataset JSONL.")
@click.option("--predictions", type=_FILE, default=None,
              help="Predictions JSONL: one {\"predicted\": \"<plan text>\"} per dataset line.")
@click.option("--pipeline", type=click.Choice(list(_PIPELINES)), default=None,
              help="Generate predictions by running this pipeline instead.")
@click.option("--mock", "replay_file", type=_FILE, default=None, help="Replay JSONL for --pipeline runs.")
@_TOOLS_OPTION
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]), default="table")
@click.option("--trace", "trace_file", default="eval_trace.json", show_default=True,
              help="Full report (per-example scores and any pipeline traces) is always written here.")
def cmd_eval(dataset, predictions, pipeline, replay_file, tools, fmt, trace_file):
    """Score predictions against the golden dataset."""
    registry = _load_registry_arg(tools)
    examples = load_golden_dataset(dataset)
    if not examples:
        _fail(f"{dataset}: no dataset records to score")
    if predictions is None and pipeline is None:
        raise click.UsageError("need --predictions or --pipeline")
    if predictions is not None and (pipeline is not None or replay_file is not None):
        other = "--pipeline" if pipeline is not None else "--mock"
        raise click.UsageError(f"give --predictions or {other}, not both: each is a source of predictions")

    traces = None
    if predictions:
        predicted_texts = []
        for line_no, record in read_json_lines(predictions, click.ClickException):
            if not isinstance(record, dict) or not isinstance(record.get("predicted"), str):
                raise line_error(click.ClickException, predictions, line_no,
                                 'need an object with a string "predicted"')
            predicted_texts.append(record["predicted"])
        if len(predicted_texts) != len(examples):
            _fail(f"{len(examples)} dataset records but {len(predicted_texts)} predictions")
    else:
        ctx = PlannerContext.build(registry, HashEmbeddingProvider(), examples)
        model = load_replay(replay_file) if replay_file else RemoteChatModel()
        config = PipelineConfig()  # read once, not once per example
        predicted_texts = []
        traces = []
        for example in examples:
            # Hold the example out of the worked examples: no prompt shows its own gold plan.
            held_out = replace(ctx, examples={i: ex for i, ex in ctx.examples.items() if i != example.id})
            try:
                trace = _PIPELINES[pipeline](example.query, held_out, model, config)
            except (PipelineError, CompletionError) as exc:
                _fail(f"pipeline failed on {example.query!r}: {exc}")
            predicted_texts.append(trace.final_text)
            traces.append(trace)

    records = [
        EvalRecord(query=ex.query, gold=ex.gold, predicted_text=text)
        for ex, text in zip(examples, predicted_texts)
    ]
    report = evaluate_dataset(records, registry, traces=traces)
    trace_doc = {"report": json.loads(report.to_json())}
    if traces:
        trace_doc["runs"] = [json.loads(t.to_json()) for t in traces]
    _write_text(trace_file, json.dumps(trace_doc, indent=2))
    if fmt == "json":
        click.echo(report.to_json())
    elif fmt == "csv":
        click.echo(render_csv(report), nl=False)
    else:
        click.echo(render_table(report))
