"""Trace and summary file formats.

Each experiment directory holds:

* ``config.json``       resolved experiment configuration
* ``trace_trialNNN.jsonl``  one JSON record per iteration (budget lines)
* ``summary.csv``       one row per successful trial
* ``aggregate.json``    across-trial statistics, failures, final kernels

Outputs are byte-identical across reruns of the same config and seed;
wall-time fields are written as 0.0 unless timing output is requested,
since real timings would break that guarantee.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .harness import ExperimentResult, IterationRecord, TrialTrace
from .metrics import ExperimentSummary, TrialMetrics

SUMMARY_COLUMNS = (
    "function", "dim", "noise_std", "strategy", "kappa_init", "lambda_init",
    "trial", "seed", "best_value", "simple_regret",
    "conv_iters_10", "conv_iters_5", "conv_iters_1",
    "exploration_efficiency", "mean_iter_seconds",
)


def trace_filename(trial: int) -> str:
    return f"trace_trial{trial:03d}.jsonl"


def _record_dict(record: IterationRecord, include_timing: bool) -> dict:
    return {
        "t": record.t,
        "x": [float(v) for v in record.x],
        "y": record.y,
        "f_true": record.f_true,
        "kappa": record.kappa,
        "lambda": record.lambda_pen,
        "delta": record.delta,
        "delta_bar": record.delta_bar,
        "i_mc": record.i_mc,
        "i_bar": record.i_bar,
        "best_true": record.best_true,
        "iter_seconds": record.iter_seconds if include_timing else 0.0,
    }


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


def trace_from_dicts(records: list[dict], trial: int, seed: int) -> TrialTrace:
    """Rebuild an in-memory trace from parsed JSONL records."""
    trace = TrialTrace(trial=trial, seed=seed)
    for rec in records:
        trace.records.append(IterationRecord(
            t=int(rec["t"]),
            x=np.asarray(rec["x"], dtype=float),
            y=float(rec["y"]),
            f_true=float(rec["f_true"]),
            kappa=float(rec["kappa"]),
            lambda_pen=float(rec["lambda"]),
            delta=float(rec["delta"]),
            delta_bar=float(rec["delta_bar"]),
            i_mc=float(rec["i_mc"]),
            i_bar=float(rec["i_bar"]),
            best_true=float(rec["best_true"]),
            iter_seconds=float(rec["iter_seconds"]),
        ))
    return trace


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary_csv(
    path: Path,
    config,
    metrics: Iterable[TrialMetrics],
    include_timing: bool = False,
) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for m in metrics:
            writer.writerow([
                config.function,
                config.dim,
                _format_cell(config.noise_std),
                config.strategy,
                _format_cell(config.kappa_init),
                _format_cell(config.lambda_init),
                m.trial,
                m.seed,
                _format_cell(m.best_value),
                _format_cell(m.simple_regret),
                _format_cell(m.conv_iters_10),
                _format_cell(m.conv_iters_5),
                _format_cell(m.conv_iters_1),
                _format_cell(m.exploration_efficiency),
                _format_cell(m.mean_iter_seconds if include_timing else 0.0),
            ])


def write_outputs(
    out_dir: Path,
    result: ExperimentResult,
    metrics: list[TrialMetrics],
    summary: ExperimentSummary | None,
    include_timing: bool = False,
) -> None:
    """Write config, traces, per-trial summary CSV, and the aggregate record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "config.json").open("w", encoding="utf-8") as handle:
        json.dump(result.config.to_dict(), handle, indent=2)
        handle.write("\n")

    for trace in result.traces:
        write_trace(out / trace_filename(trace.trial), trace, include_timing)

    write_summary_csv(out / "summary.csv", result.config, metrics, include_timing)

    aggregate = {
        "n_trials_requested": result.config.n_trials,
        "n_trials_succeeded": len(result.traces),
        "failures": [
            {"trial": f.trial, "seed": f.seed, "error": f.error} for f in result.failures
        ],
        "summary": None if summary is None else {
            "best_mean": summary.best_mean,
            "best_median": summary.best_median,
            "best_std": summary.best_std,
            "regret_mean": summary.regret_mean,
            "regret_median": summary.regret_median,
            "regret_std": summary.regret_std,
        },
        "final_kernels": {
            str(trace.trial): None if trace.final_kernel is None else {
                "amplitude_sq": trace.final_kernel.amplitude_sq,
                "length_scale": trace.final_kernel.length_scale,
            }
            for trace in result.traces
        },
    }
    with (out / "aggregate.json").open("w", encoding="utf-8") as handle:
        json.dump(aggregate, handle, indent=2)
        handle.write("\n")


def load_config(path: Path) -> dict:
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
