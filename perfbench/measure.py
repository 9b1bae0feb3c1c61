"""Measuring process of one benchmark run; ``run.py`` starts it.

It imports adaptivebo from ``<root>/src``, runs the workload's trials in a
closed loop until ``--seconds`` have passed (and at least the workload's
fixed trials are done), checks every trace and output file, and prints one
JSON object as the last line of its standard output.

With ``--trace 1`` every trial runs twice, once with only ``run_trial``
timed and once with every boundary span recorded, in alternating order. The
per-layer numbers come from the traced runs, the tracing overhead from the
pairs, and the two traces of a pair must be identical.

With ``--setup-probe`` it only times the set-up path once and exits.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import END_TO_END, LAYERS, SEED_STRIDE, WORKLOADS

REGRET_FLOOR = 1e-12
MAX_LISTED_PROBLEMS = 20


def setup(root: Path, wl, seed: int):
    """Import adaptivebo from the checkout, build the config and the test function.

    Returns the elapsed seconds, the config and the test function.
    """
    start = time.perf_counter()
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import adaptivebo

    if not Path(adaptivebo.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"adaptivebo imported from {adaptivebo.__file__}, not from {src}")
    cfg = adaptivebo.ExperimentConfig(**wl.cell, n_trials=1, base_seed=SEED_STRIDE * seed)
    fn = adaptivebo.get_test_function(cfg.function, cfg.dim)
    return time.perf_counter() - start, cfg, fn


# -- checks -------------------------------------------------------------------

def check_trace(trace, cfg, fn) -> str | None:
    """First problem with a trace, or None: length, box, finiteness, best-so-far."""
    import numpy as np

    if len(trace.records) != cfg.budget:
        return f"{len(trace.records)} records, budget {cfg.budget}"
    lower, upper = fn.bounds.lower, fn.bounds.upper
    best = None
    for t, rec in enumerate(trace.records, start=1):
        x = np.asarray(rec.x, dtype=float)
        if rec.t != t:
            return f"record {t} has t={rec.t}"
        if x.shape != (cfg.dim,) or not np.isfinite(x).all():
            return f"t={t}: x has shape {x.shape} or is not finite"
        if np.any(x < lower) or np.any(x > upper):
            return f"t={t}: x outside the box"
        values = (rec.y, rec.f_true, rec.kappa, rec.lambda_pen, rec.delta,
                  rec.delta_bar, rec.i_mc, rec.i_bar, rec.best_true)
        if not all(math.isfinite(v) for v in values):
            return f"t={t}: non-finite y, f_true, kappa, lambda or adaptive state"
        best = rec.f_true if best is None else (max if fn.maximize else min)(best, rec.f_true)
        if rec.best_true != best:
            return f"t={t}: best_true {rec.best_true!r} is not the best f_true {best!r}"
    return None


def same_trace(a, b) -> bool:
    """Equal in every traced value (wall times excluded) and the final kernel."""
    import numpy as np

    if len(a.records) != len(b.records) or a.final_kernel != b.final_kernel:
        return False
    fields = ("t", "y", "f_true", "kappa", "lambda_pen", "delta", "delta_bar",
              "i_mc", "i_bar", "best_true")
    return all(
        np.array_equal(ra.x, rb.x) and all(getattr(ra, f) == getattr(rb, f) for f in fields)
        for ra, rb in zip(a.records, b.records)
    )


def check_outputs(out_dir: Path, traces, cfg) -> tuple[str | None, int]:
    """Compare the written files against the in-memory traces; also return their size."""
    from adaptivebo.output import trace_filename

    for trace in traces:
        lines = (out_dir / trace_filename(trace.trial)).read_text().splitlines()
        if len(lines) != cfg.budget:
            return f"trial {trace.trial}: {len(lines)} trace lines, budget {cfg.budget}", 0
        for line, rec in zip(lines, trace.records):
            row = json.loads(line)
            if (row["x"] != [float(v) for v in rec.x] or row["y"] != rec.y
                    or row["f_true"] != rec.f_true or row["iter_seconds"] != 0.0):
                return f"trial {trace.trial} t={rec.t}: file differs from the trace", 0
    rows = (out_dir / "summary.csv").read_text().splitlines()
    if len(rows) != len(traces) + 1:
        return f"summary.csv has {len(rows) - 1} rows for {len(traces)} traces", 0
    aggregate = json.loads((out_dir / "aggregate.json").read_text())
    if aggregate["n_trials_succeeded"] != len(traces):
        return "aggregate.json miscounts the trials", 0
    return None, sum(p.stat().st_size for p in out_dir.iterdir())


# -- the run --------------------------------------------------------------------

class Run:
    def __init__(self, args, wl, cfg, fn):
        from spans import Tracer

        self.args, self.wl, self.cfg, self.fn = args, wl, cfg, fn
        self.workers = args.workers
        self.batch = wl.min_trials if self.workers > 1 else 1
        self.tracer = Tracer()
        self.out_root = args.root / ".perfbench_out" / f"tmp-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trials: list[dict] = []   # one per completed trial of the measured side
        self.batches: list[dict] = []
        self.overheads: list[tuple[float, float]] = []  # (untraced wall, traced wall)

    def run_batch(self, b: int, full: bool) -> dict:
        """Run batch ``b`` (one trial in-process, or one pool experiment)."""
        import adaptivebo
        from adaptivebo import harness
        from adaptivebo.output import write_outputs

        cfg = dataclasses.replace(
            self.cfg, n_trials=self.batch, base_seed=self.cfg.base_seed + b * self.batch
        )
        out = {"traces": [], "failed": 0, "metrics_s": 0.0, "write_s": 0.0, "bytes": 0}
        start = time.perf_counter()
        with self.tracer.installed(full):
            try:
                if self.workers > 1:
                    result = adaptivebo.run_experiment(cfg, n_workers=self.workers)
                    out["traces"], out["failed"] = result.traces, len(result.failures)
                    for failure in result.failures:
                        self.problems.append(f"trial seed {failure.seed}: {failure.error}")
                else:
                    out["traces"] = [harness.run_trial(cfg, cfg.base_seed, b)]
            except Exception as exc:  # a crashed batch fails all its trials
                out["failed"] = self.batch
                self.problems.append(f"batch {b}: {type(exc).__name__}: {exc}")

        # What `adaptivebo run` does after the trials: metrics, then files.
        fn = adaptivebo.get_test_function(cfg.function, cfg.dim) if self.workers > 1 else self.fn
        metrics = []
        for trace in out["traces"]:
            t0 = time.perf_counter()
            metrics.append(adaptivebo.compute_metrics(
                trace, fn, grid_bins=cfg.grid_bins, n_init=cfg.n_init))
            out["metrics_s"] += time.perf_counter() - t0
        out["regret"] = [m.simple_regret for m in metrics]
        out_dir = self.out_root / f"batch{b}-{int(full)}"
        if self.workers > 1 and out["traces"]:
            t0 = time.perf_counter()
            write_outputs(out_dir, result, metrics, adaptivebo.summarize(metrics))
            out["write_s"] = time.perf_counter() - t0
        out["wall_s"] = time.perf_counter() - start

        if out_dir.exists():
            text, out["bytes"] = check_outputs(out_dir, out["traces"], cfg)
            if text:
                out["failed"] += 1
                self.problems.append(f"batch {b} outputs: {text}")
            shutil.rmtree(out_dir)

        good = []
        for trace in out["traces"]:
            text = check_trace(trace, cfg, fn)
            if text is None:
                good.append(trace)
            else:
                out["failed"] += 1
                self.problems.append(f"trial seed {trace.seed}: {text}")
        out["traces"] = good
        return out

    def loop(self) -> float:
        """Closed loop over batches; returns the wall time of the measured side."""
        traced_mode = bool(self.args.trace)
        start = time.perf_counter()
        measured_wall = 0.0
        b = 0
        min_batches = 1 if self.workers > 1 else self.wl.min_trials
        while b < min_batches or time.perf_counter() - start < self.args.seconds:
            if traced_mode:
                # Alternate the order so that warm caches favour neither side.
                order = (False, True) if b % 2 == 0 else (True, False)
                runs = {full: self.run_batch(b, full) for full in order}
                measured = runs[True]
                self.compare_pair(runs[False], measured)
            else:
                runs = {False: self.run_batch(b, False)}
                measured = runs[False]
            for side in runs.values():
                self.attempted += self.batch
                # A batch can fail its file check on top of its trials' checks.
                self.failed += min(side["failed"], self.batch)
            measured_wall += measured["wall_s"]
            measured["fixed"] = b < min_batches
            self.batches.append(measured)
            for trace in measured["traces"]:
                self.trials.append(dict(
                    fixed=measured["fixed"], stats=trace.perfbench_stats,
                    iter_s=[r.iter_seconds for r in trace.records[self.cfg.n_init:]],
                ))
            b += 1
        return measured_wall

    def compare_pair(self, plain: dict, traced: dict) -> None:
        by_seed = {t.seed: t for t in plain["traces"]}
        for trace in traced["traces"]:
            twin = by_seed.get(trace.seed)
            if twin is None:
                continue
            if not same_trace(twin, trace):
                traced["failed"] += 1
                self.problems.append(f"trial seed {trace.seed}: traced and untraced traces differ")
            else:
                self.overheads.append(
                    (twin.perfbench_stats["wall_s"], trace.perfbench_stats["wall_s"]))

    def rerun_check(self) -> None:
        """The first trial again, in-process: fixed-seed reruns must be identical."""
        first = self.batches[0]["traces"] if self.batches else []
        if not first:
            return
        from adaptivebo import harness

        again = harness.run_trial(self.cfg, first[0].seed, first[0].trial)
        if not same_trace(first[0], again):
            self.failed += 1
            self.problems.append(f"trial seed {first[0].seed}: a rerun gave a different trace")


# -- metrics --------------------------------------------------------------------

def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it, else max."""
    import numpy as np

    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", float(np.percentile(values, p))
    return ("max", max(values)) if values else None


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median with its tail percentile and the sample count."""
    scaled = [v * scale for v in values]
    entry = {"value": statistics.median(scaled) if scaled else 0.0, "n": len(scaled)}
    if scaled:
        entry["tail"] = tail(scaled)
    return entry


def end_to_end(run: Run, measured_wall: float, setup_s: float) -> dict:
    import numpy as np

    walls = [t["stats"]["wall_s"] for t in run.trials]
    iters = [s for t in run.trials for s in t["iter_s"]]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "trial_s_p50": summary(walls),
        "iter_ms_p50": summary(iters, 1e3),
        "iter_ms_p95": {"value": float(np.percentile(iters, 95)) * 1e3 if iters else 0.0,
                        "n": len(iters)},
        "trials_per_s": {"value": len(walls) / measured_wall, "n": len(walls)},
        # The measuring process's own set-up; run.py pools it with the probes.
        "setup_s": {"value": setup_s, "n": 1},
        "peak_rss_mb": {"value": (self_kb + run.workers * child_kb) / 1024.0, "n": 1},
    }
    return {m.name: dict(values[m.name], unit=m.unit) for m in END_TO_END}


def per_layer(run: Run, measured_wall: float) -> dict:
    traced = [t["stats"] for t in run.trials]
    fixed = [t["stats"] for t in run.trials if t["fixed"]]

    def per_trial(key: str, name: str) -> list[float]:
        return [s[key].get(name, 0.0) for s in traced]

    def fixed_sum(name: str, key: str = "counts") -> float:
        return sum(s[key].get(name, 0) for s in fixed)

    def fixed_ratio(num: float, den: float) -> dict:
        return {"value": num / den if den else 0.0, "n": len(fixed)}

    def fixed_count(name: str, key: str = "counts") -> dict:
        return fixed_ratio(fixed_sum(name, key), len(fixed))

    values = {}
    for name in ("acquisition.complexity_factor_batch", "acquisition.adaptive_acquisition_batch",
                 "acquisition.expected_improvement", "search.propose_next", "gp.predict",
                 "gp.optimize_hyperparameters", "gp.fit", "adaptive.integrated_variance_mc",
                 "benchmarks.get_test_function", "benchmarks.objective"):
        values[f"{name}.s"] = summary(per_trial("self_s", name))
    sweep = per_trial("incl_s", "search.sweep")
    propose = per_trial("incl_s", "search.propose_next")
    values["search.sweep.s"] = summary(sweep)
    values["search.refine.s"] = summary([p - s for p, s in zip(propose, sweep)])

    for name in ("acquisition.stencil_rows", "search.lbfgs_evals", "search.acq_rows",
                 "gp.predict.rows", "gp.lml_evals"):
        values[name] = fixed_count(name)
    values["gp.predict.calls"] = fixed_count("gp.predict", "calls")
    values["gp.fit.calls"] = fixed_count("gp.fit", "calls")
    values["benchmarks.get_test_function.calls"] = fixed_count(
        "benchmarks.get_test_function", "calls")
    values["search.refine_win_frac"] = fixed_ratio(
        fixed_sum("search.refine_wins"), fixed_sum("search.proposals"))
    values["gp.fit.jitter_frac"] = fixed_ratio(
        fixed_sum("gp.fit.jittered"), fixed_sum("gp.fit", "calls"))

    walls = [s["wall_s"] for s in traced]
    values["harness.run_trial.s"] = summary(walls)
    values["harness.unattributed_s"] = summary([s["unattributed_s"] for s in traced])
    values["harness.unattributed_frac"] = summary(
        [s["unattributed_s"] / s["wall_s"] for s in traced])
    values["harness.worker_busy_frac"] = {
        "value": sum(walls) / (run.workers * measured_wall), "n": len(walls)}
    values["harness.fail_frac"] = {
        "value": run.failed / run.attempted if run.attempted else 0.0, "n": run.attempted}

    trials_in = [len(b["traces"]) for b in run.batches]
    values["metrics.compute_metrics.s"] = summary(
        [b["metrics_s"] / n for b, n in zip(run.batches, trials_in) if n])
    values["output.write_outputs.s"] = summary(
        [b["write_s"] / n for b, n in zip(run.batches, trials_in) if n])
    fixed_batches = [b for b in run.batches if b["fixed"]]
    values["output.bytes"] = fixed_ratio(
        sum(b["bytes"] for b in fixed_batches), sum(len(b["traces"]) for b in fixed_batches))
    regrets = [r for b in fixed_batches for r in b["regret"]]
    values["metrics.regret_log10_p50"] = summary(
        [math.log10(max(r, REGRET_FLOOR)) for r in regrets])

    plain = [p for p, _ in run.overheads]
    values["trace.overhead_s"] = summary([t - p for p, t in run.overheads])
    base = statistics.median(plain) if plain else 0.0
    values["trace.overhead_frac"] = {
        "value": values["trace.overhead_s"]["value"] / base if base else 0.0,
        "n": len(plain), "base_s": base}
    return {m.name: dict(values[m.name], unit=m.unit) for m in LAYERS}


def check_accounting(run: Run) -> dict:
    """Self times plus unattributed time must equal each trial's wall time."""
    totals: dict[str, float] = {}
    wall = unattributed = 0.0
    for t in run.trials:
        s = t["stats"]
        self_sum = sum(s["self_s"].values())
        if s["open_spans"] or abs(self_sum - s["attributed_s"]) > 1e-6 * s["wall_s"]:
            run.failed += 1
            run.problems.append(f"span accounting broken: self {self_sum!r}, attributed "
                                f"{s['attributed_s']!r}, open spans {s['open_spans']}")
        for name, v in s["self_s"].items():
            totals[name] = totals.get(name, 0.0) + v
        wall += s["wall_s"]
        unattributed += s["unattributed_s"]
    totals["harness.unattributed"] = unattributed
    return {"run_trial_wall_s": wall, "self_s": totals}


# -- environment ----------------------------------------------------------------

def blas_threads() -> dict[str, int | None]:
    """Threads of every loaded OpenBLAS, asked through its own entry point."""
    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        found[Path(path).name] = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif (root / ".git" / "packed-refs").is_file():
                for line in (root / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def environment(run: Run) -> dict:
    import multiprocessing

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_loaded": blas_threads(),
        "thread_budget": {"workers": run.workers, "blas_threads": run.wl.blas_threads,
                          "total": run.workers * run.wl.blas_threads},
        "start_method": multiprocessing.get_start_method(),
        "workload": {"cell": run.wl.cell, "batch": run.batch, "min_trials": run.wl.min_trials,
                     "base_seed": run.cfg.base_seed},
        **source_identity(run.args.root),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    setup_s, cfg, fn = setup(args.root, wl, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = Run(args, wl, cfg, fn)
    env = environment(run)
    if args.trace and run.workers > 1 and env["start_method"] != "fork":
        raise SystemExit("traced pool runs need the fork start method")
    for lib, threads in env["blas_threads_loaded"].items():
        if threads is not None and threads != wl.blas_threads:
            raise SystemExit(f"{lib} runs {threads} threads, budget {wl.blas_threads}")

    try:
        measured_wall = run.loop()
        if not args.trace:
            run.rerun_check()
    finally:
        shutil.rmtree(run.out_root, ignore_errors=True)

    result = {"env": env, "missing_patches": run.tracer.missing}
    if args.trace:
        result["accounting"] = check_accounting(run)
        result["metrics"] = per_layer(run, measured_wall)
        result["trials"] = [t["stats"] for t in run.trials]
    else:
        result["metrics"] = end_to_end(run, measured_wall, setup_s)
    result.update(attempted=run.attempted, failed=run.failed,
                  problems=run.problems[:MAX_LISTED_PROBLEMS])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
