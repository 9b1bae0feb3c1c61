"""Every on-disk format: traces, summary CSV, aggregate JSON and the report CSV.

Each experiment directory holds:

* ``config.json``       resolved experiment configuration
* ``trace_trialNNN.jsonl``  one JSON record per iteration (budget lines)
* ``summary.csv``       one row per successful trial
* ``aggregate.json``    across-trial statistics, failures, final kernels

and ``adaptivebo report`` writes one ``report.csv`` row per directory. Each
format is derived from the fields of the dataclass it serializes.

Outputs are byte-identical across reruns of the same config and seed;
wall-time fields are written as 0.0 unless timing output is requested,
since real timings would break that guarantee.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Iterable, get_type_hints

import numpy as np

from .harness import ExperimentConfig, ExperimentResult, IterationRecord, TrialTrace, \
    trial_seed_for
from .metrics import ExperimentSummary, TrialMetrics, summarize

# The experiment cell that a summary.csv or report.csv row belongs to.
CONFIG_COLUMNS = ("function", "dim", "noise_std", "strategy", "kappa_init", "lambda_init")
SUMMARY_COLUMNS = CONFIG_COLUMNS + tuple(f.name for f in fields(TrialMetrics))
REPORT_COLUMNS = (CONFIG_COLUMNS + tuple(f.name for f in fields(ExperimentSummary))
                  + ("exploration_mean", "mean_iter_seconds"))

# The trace key of each IterationRecord field, in field order, and its type.
_TRACE_KEYS = {f.name: f.name for f in fields(IterationRecord)} | {"lambda_pen": "lambda"}
_TRACE_TYPES = get_type_hints(IterationRecord)
_ARRAY_KEYS = tuple(_TRACE_KEYS[name] for name, kind in _TRACE_TYPES.items()
                    if kind is np.ndarray)
_TRACE_PREFIX = "trace_trial"


def trace_filename(trial: int) -> str:
    return f"{_TRACE_PREFIX}{trial:03d}.jsonl"


def _field_values(obj) -> list:
    return [getattr(obj, f.name) for f in fields(obj)]


def _record_dict(record: IterationRecord, include_timing: bool) -> dict:
    # vars() lists a dataclass's fields in declaration order.
    row = {_TRACE_KEYS[name]: value for name, value in vars(record).items()}
    for key in _ARRAY_KEYS:
        row[key] = np.asarray(row[key], dtype=float).tolist()
    if not include_timing:
        row["iter_seconds"] = 0.0
    return row


def write_trace(path: Path, trace: TrialTrace, include_timing: bool = False) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in trace.records:
            handle.write(json.dumps(_record_dict(record, include_timing)))
            handle.write("\n")


def load_trace(path: Path) -> list[dict]:
    """Parse a JSONL trace back into per-iteration dicts."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _parse(kind: type, value):
    return np.asarray(value, dtype=float) if kind is np.ndarray else kind(value)


def trace_from_dicts(records: list[dict], trial: int, seed: int) -> TrialTrace:
    """Rebuild an in-memory trace from parsed JSONL records."""
    trace = TrialTrace(trial=trial, seed=seed)
    for rec in records:
        trace.records.append(IterationRecord(**{
            name: _parse(_TRACE_TYPES[name], rec[key]) for name, key in _TRACE_KEYS.items()
        }))
    return trace


def load_traces(exp_dir: Path, config: ExperimentConfig) -> list[TrialTrace]:
    """Every trace stored in an experiment directory, in trial order."""
    traces = []
    for path in sorted(Path(exp_dir).glob(f"{_TRACE_PREFIX}*.jsonl")):
        trial = int(path.stem.removeprefix(_TRACE_PREFIX))
        traces.append(trace_from_dicts(load_trace(path), trial, trial_seed_for(config, trial)))
    return traces


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns: tuple[str, ...], rows: Iterable[list]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


def _config_cells(config: ExperimentConfig) -> list:
    return [getattr(config, column) for column in CONFIG_COLUMNS]


def write_outputs(
    out_dir: Path,
    result: ExperimentResult,
    metrics: list[TrialMetrics],
    summary: ExperimentSummary | None,
    include_timing: bool = False,
) -> None:
    """Write config, traces, per-trial summary CSV, and the aggregate record.

    Trace files left in ``out_dir`` by an earlier run and not rewritten by
    this one are removed, so the directory holds exactly this run's traces.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "config.json").open("w", encoding="utf-8") as handle:
        json.dump(result.config.to_dict(), handle, indent=2)
        handle.write("\n")

    written = {trace_filename(trace.trial) for trace in result.traces}
    for path in out.glob(f"{_TRACE_PREFIX}*.jsonl"):
        if path.name not in written:
            path.unlink()
    for trace in result.traces:
        write_trace(out / trace_filename(trace.trial), trace, include_timing)

    if not include_timing:
        metrics = [replace(m, mean_iter_seconds=0.0) for m in metrics]
    config_cells = _config_cells(result.config)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS,
               (config_cells + _field_values(m) for m in metrics))

    aggregate = {
        "n_trials_requested": result.config.n_trials,
        "n_trials_succeeded": len(result.traces),
        "failures": [asdict(f) for f in result.failures],
        "summary": None if summary is None else {
            key: value for key, value in asdict(summary).items() if key != "n_trials"
        },
        "final_kernels": {
            str(trace.trial): None if trace.final_kernel is None else asdict(trace.final_kernel)
            for trace in result.traces
        },
    }
    with (out / "aggregate.json").open("w", encoding="utf-8") as handle:
        json.dump(aggregate, handle, indent=2)
        handle.write("\n")


def report_row(config: ExperimentConfig, metrics: list[TrialMetrics]) -> list:
    """One report.csv row: the cell, its across-trial summary and two trial means."""
    return (_config_cells(config) + _field_values(summarize(metrics)) + [
        float(np.mean([m.exploration_efficiency for m in metrics])),
        float(np.mean([m.mean_iter_seconds for m in metrics])),
    ])


def write_report(path: Path, rows: Iterable[list]) -> None:
    _write_csv(path, REPORT_COLUMNS, rows)


def load_config(path: Path) -> dict:
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
