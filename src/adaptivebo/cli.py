"""Command-line interface.

Subcommands:

* ``run``     execute an experiment config and write traces + summaries
* ``report``  aggregate experiment directories into a single CSV
* ``bench``   run one trial from flags and print its summary
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .benchmarks import FUNCTION_NAMES, get_test_function
from .harness import STRATEGY_KINDS, ExperimentConfig, run_experiment, run_trial
from .metrics import compute_metrics, summarize
from .output import load_config, load_traces, report_row, write_outputs, write_report


def _cmd_run(args: argparse.Namespace) -> int:
    data = load_config(Path(args.config))
    if args.trials is not None:
        data["n_trials"] = args.trials
    if args.seed is not None:
        data["base_seed"] = args.seed
    cfg = ExperimentConfig.from_dict(data)

    result = run_experiment(cfg, n_workers=args.parallel)
    fn = get_test_function(cfg.function, cfg.dim)
    metrics = [
        compute_metrics(t, fn, grid_bins=cfg.grid_bins, n_init=cfg.n_init)
        for t in result.traces
    ]
    summary = summarize(metrics) if metrics else None
    write_outputs(Path(args.out), result, metrics, summary, include_timing=args.timing)

    print(f"wrote {len(result.traces)} trace(s) to {args.out}")
    if result.failures:
        print(f"{len(result.failures)} trial(s) failed; see aggregate.json", file=sys.stderr)
    return 0 if result.traces else 1


def _cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for config_path in sorted(Path(args.in_dir).rglob("config.json")):
        cfg = ExperimentConfig.from_dict(load_config(config_path))
        fn = get_test_function(cfg.function, cfg.dim)
        metrics = [
            compute_metrics(trace, fn, grid_bins=cfg.grid_bins, n_init=cfg.n_init)
            for trace in load_traces(config_path.parent, cfg)
        ]
        if metrics:
            rows.append(report_row(cfg, metrics))

    if not rows:
        print(f"no experiment directories found under {args.in_dir}", file=sys.stderr)
        return 1
    write_report(Path(args.out), rows)
    print(f"wrote {len(rows)} experiment row(s) to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        function=args.function,
        dim=args.dim,
        noise_std=args.noise,
        strategy=args.strategy,
        kappa_init=args.kappa_init,
        lambda_init=args.lambda_init,
        budget=args.budget,
        n_trials=1,
        base_seed=args.seed,
    )
    fn = get_test_function(cfg.function, cfg.dim)
    trace = run_trial(cfg, trial_seed=args.seed, trial_index=0)
    m = compute_metrics(trace, fn, grid_bins=cfg.grid_bins, n_init=cfg.n_init)

    print(f"function={cfg.function} dim={cfg.dim} noise_std={cfg.noise_std} "
          f"strategy={cfg.strategy} seed={args.seed}")
    if fn.optimum_estimated:
        print(f"optimum value {fn.optimum_value:.6g} (estimated by multistart search)")
    print(f"best_value              {m.best_value:.6g}")
    print(f"simple_regret           {m.simple_regret:.6g}")
    for label, value in (("10%", m.conv_iters_10), ("5%", m.conv_iters_5), ("1%", m.conv_iters_1)):
        print(f"iterations to {label:>3} gap   {'not reached' if value is None else value}")
    print(f"exploration_efficiency  {m.exploration_efficiency:.4f}")
    print(f"mean_iter_seconds       {m.mean_iter_seconds:.4f}")
    final = trace.final_kernel
    if final is not None:
        print(f"final kernel            amplitude_sq={final.amplitude_sq:.4g} "
              f"length_scale={final.length_scale:.4g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptivebo",
        description="Adaptive Bayesian-optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--trials", type=int, default=None, help="override n_trials")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_run.add_argument(
        "--timing", action="store_true",
        help="write real wall times (breaks byte-identical reruns)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="aggregate experiment outputs into a CSV")
    p_report.add_argument("--in", dest="in_dir", required=True, help="directory to scan")
    p_report.add_argument("--out", required=True, help="output CSV path")
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser("bench", help="run a single trial and print its summary")
    p_bench.add_argument("--function", required=True, choices=FUNCTION_NAMES)
    p_bench.add_argument("--dim", type=int, required=True)
    p_bench.add_argument("--noise", type=float, default=0.005)
    p_bench.add_argument("--strategy", default="adaptive", choices=STRATEGY_KINDS)
    p_bench.add_argument("--budget", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--kappa-init", type=float, default=1.0)
    p_bench.add_argument("--lambda-init", type=float, default=0.01)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
