"""adaptivebo benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rosen2d-ucb --seed 0 --seconds 25 --trace 0

It starts fresh processes with the workload's thread budget in their
environment: a few set-up probes, then one measuring process
(``measure.py``). It prints a report of every metric with its unit, sample
count and (traced) prediction, one ``perfbench-env`` line with the
environment, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. Full results go to
``.perfbench_out/``. It exits 1 if any trial failed or any output check
did not hold, and 2 if there is no adaptivebo source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, HELD_OUT_SEED, LAYERS, WORKLOADS, prediction  # noqa: E402

SETUP_PROBES = 4        # plus the measuring process's own set-up
DEADLINE_S = 170.0      # every run must end within 180 s


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run a measuring process to completion and parse its last stdout line."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        # The pool workers are in the same process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: killed at the {DEADLINE_S:.0f} s deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: measuring process exited with {proc.returncode}")
    return json.loads(lines[-1])


def fmt(entry: dict) -> str:
    text = f"{entry['value']:.6g} {entry['unit']:<6} n={entry['n']}"
    if entry.get("tail"):
        label, value = entry["tail"]
        text += f"  {label}={value:.6g}"
    if "base_s" in entry:
        text += f"  (base: untraced trial {entry['base_s']:.6g} s)"
    return text


def report(args, result: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} attempted={result['attempted']} failed={result['failed']}")
    budget = result["env"]["thread_budget"]
    print(f"  thread budget: {budget['workers']} worker(s) x {budget['blas_threads']} BLAS "
          f"thread(s) on {result['env']['cpus_usable']} usable CPU(s)")
    if args.trace:
        for metric in LAYERS:
            entry = result["metrics"][metric.name]
            print(f"  {metric.name:<42} {fmt(entry):<44} "
                  f"{prediction(metric, args.workload)}")
        acc = result["accounting"]
        wall = acc["run_trial_wall_s"]
        print(f"  phase accounting over {len(result['trials'])} traced trials, "
              f"{wall:.4g} s of run_trial:")
        for name, seconds in sorted(acc["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<40} {seconds:10.4f} s {100 * seconds / wall:6.2f} %")
        total = sum(acc["self_s"].values())
        print(f"    {'sum':<40} {total:10.4f} s {100 * total / wall:6.2f} %")
    else:
        for metric in END_TO_END:
            print(f"  {metric.name:<14} {fmt(result['metrics'][metric.name])}")
    for text in result["problems"]:
        print(f"  PROBLEM: {text}")
    if args.seed == HELD_OUT_SEED:
        print(f"  seed {HELD_OUT_SEED} is the held-out seed: use it only to confirm a claim")


def main() -> int:
    parser = argparse.ArgumentParser(description="adaptivebo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "adaptivebo" / "__init__.py").is_file():
        print(f"perfbench: no adaptivebo source under {root / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    cpus = len(os.sched_getaffinity(0))
    workers = max(1, min(wl.workers, cpus // wl.blas_threads))
    threads = str(wl.blas_threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    base = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--root", str(root), "--workers", str(workers)]

    # Only untraced runs report set-up time.
    probes = 0 if args.trace else SETUP_PROBES
    setups = [run_child(base + ["--setup-probe"], env, deadline)["setup_s"]
              for _ in range(probes)]
    result = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, deadline)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"].update(value=statistics.median(setups), n=len(setups))
    correct = result["failed"] == 0 and not result["problems"]

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(dict(result, setup_probes_s=setups, args=vars(args)), indent=1))

    report(args, result)
    print("perfbench-env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
