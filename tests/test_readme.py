"""The README's library quickstart runs, and its file formats match the written files."""

import json
import re
from pathlib import Path

import numpy as np

from adaptivebo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}:library-quickstart", "exec"), namespace)
    x_next = namespace["x_next"]
    assert x_next.shape == (2,)
    assert np.all((x_next >= 0.0) & (x_next <= 1.0))


def _listed(section: str, marker: str) -> list[str]:
    """The comma-separated names in the first code span after ``marker``."""
    tail = section.split(marker, 1)[1]
    names = re.search(r"`([^`]*,[^`]*)`", tail).group(1)
    return [name.strip() for name in names.split(",")]


def test_output_files_section_lists_what_run_and_report_write(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"function": "ackley", "dim": 2, "strategy": "random",
                                  "budget": 6, "n_trials": 1, "n_init": 3}))
    exp = tmp_path / "exp"
    assert main(["run", "--config", str(config), "--out", str(exp)]) == 0
    assert main(["report", "--in", str(exp), "--out", str(tmp_path / "report.csv")]) == 0

    section = README.read_text(encoding="utf-8").split("### Output files", 1)[1]
    trace_keys = list(json.loads((exp / "trace_trial000.jsonl").read_text().splitlines()[0]))
    assert _listed(section, "`trace_trialNNN.jsonl`") == trace_keys
    header = (exp / "summary.csv").read_text().splitlines()[0]
    assert _listed(section, "`summary.csv`") == header.split(",")
    aggregate = json.loads((exp / "aggregate.json").read_text())
    assert _listed(section, "`summary` (") == list(aggregate["summary"])
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert _listed(section, "`report` writes") == header.split(",")
