"""Spans and counters recorded at adaptivebo's module boundaries.

Tracing replaces the names that ``harness``, ``acquisition``, ``adaptive``
and ``gp`` look up at call time with timing wrappers, and restores them
afterwards; the program's source is not modified. A span's self time is its
duration minus the durations of the spans it directly encloses, so the self
times of all spans inside one ``run_trial`` plus the trial's unattributed
time add up to the trial's wall time.

The ``run_trial`` wrapper attaches the trial's totals to the returned trace
as ``perfbench_stats``. Pool workers are forked with the wrappers in place,
so their totals come back with the pickled trace.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "harness.run_trial"
STENCIL_PARENT = "acquisition.complexity_factor_batch"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans as [name, time in direct children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.full = False
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        # Cleared in place: the wrappers hold references to these objects.
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.incl_s.clear()

    def span(self, name: str, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- wrappers with counters -------------------------------------------

    def _run_trial(self, fn):
        def wrapper(*args, **kwargs):
            if self.full:
                self.reset()
                frame = [ROOT, 0.0]
                self.stack.append(frame)
            start = perf_counter()
            try:
                trace = fn(*args, **kwargs)
            finally:
                wall = perf_counter() - start
                if self.full:
                    self.stack.pop()
            stats = {"wall_s": wall}
            if self.full:
                stats.update(
                    self_s=dict(self.self_s),
                    calls=dict(self.calls),
                    counts=dict(self.counts),
                    incl_s=dict(self.incl_s),
                    attributed_s=frame[1],
                    unattributed_s=wall - frame[1],
                    open_spans=len(self.stack),
                )
            trace.perfbench_stats = stats
            return trace

        return wrapper

    def _predict(self, fn):
        timed, counts, stack = self.span("gp.predict", fn), self.counts, self.stack

        def wrapper(gp, query, *args, **kwargs):
            result = timed(gp, query, *args, **kwargs)
            rows = 1 if np.ndim(query) == 1 else len(query)
            counts["gp.predict.rows"] += rows
            if stack and stack[-1][0] == STENCIL_PARENT:
                counts["acquisition.stencil_rows"] += rows
            return result

        return wrapper

    def _fit(self, fn):
        timed, counts = self.span("gp.fit", fn), self.counts

        def wrapper(*args, **kwargs):
            model = timed(*args, **kwargs)
            if model.jitter > 0:
                counts["gp.fit.jittered"] += 1
            return model

        return wrapper

    def _lml(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["gp.lml_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _propose_next(self, fn):
        timed, counts, incl_s = self.span("search.propose_next", fn), self.counts, self.incl_s

        def wrapper(gp, acq, *args, **kwargs):
            sweep: list[np.ndarray] = []

            def counted(points):
                start = perf_counter()
                try:
                    return acq(points)
                finally:
                    duration = perf_counter() - start
                    shape = np.shape(points)
                    counts["search.acq_rows"] += shape[0] if len(shape) == 2 else 1
                    if not sweep:
                        sweep.append(np.asarray(points))
                        incl_s["search.sweep"] += duration
                    elif len(shape) == 2 and shape[0] == 2 * shape[1] + 1:
                        counts["search.lbfgs_evals"] += 1

            start = perf_counter()
            x = timed(gp, counted, *args, **kwargs)
            incl_s["search.propose_next"] += perf_counter() - start
            counts["search.proposals"] += 1
            if sweep and not np.any(np.all(sweep[0] == x, axis=1)):
                counts["search.refine_wins"] += 1
            return x

        return wrapper

    def _get_test_function(self, fn):
        timed = self.span("benchmarks.get_test_function", fn)

        def wrapper(*args, **kwargs):
            test_fn = timed(*args, **kwargs)
            return dataclasses.replace(
                test_fn, evaluator=self.span("benchmarks.objective", test_fn.evaluator)
            )

        return wrapper

    # -- installation -------------------------------------------------------

    def _patches(self, full: bool):
        yield "harness", "run_trial", self._run_trial
        if not full:
            return
        yield "harness", "propose_next", self._propose_next
        yield "harness", "get_test_function", self._get_test_function
        for module in ("harness", "gp"):
            yield module, "fit", self._fit
        yield "harness", "optimize_hyperparameters", \
            lambda fn: self.span("gp.optimize_hyperparameters", fn)
        yield "gp", "log_marginal_likelihood", self._lml
        for module in ("harness", "acquisition", "adaptive"):
            yield module, "predict", self._predict
        yield "harness", "adaptive_acquisition_batch", \
            lambda fn: self.span("acquisition.adaptive_acquisition_batch", fn)
        yield "acquisition", "complexity_factor_batch", \
            lambda fn: self.span(STENCIL_PARENT, fn)
        yield "harness", "expected_improvement", \
            lambda fn: self.span("acquisition.expected_improvement", fn)
        yield "harness", "integrated_variance_mc", \
            lambda fn: self.span("adaptive.integrated_variance_mc", fn)

    @contextmanager
    def installed(self, full: bool):
        """Wrap the boundary functions: only ``run_trial``'s clock unless ``full``."""
        self.full = full
        for module_name, attr, make in self._patches(full):
            module = importlib.import_module(f"adaptivebo.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                # A later refactor may move a name; its time then shows as
                # unattributed instead of failing the run.
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                    print(f"perfbench: adaptivebo.{module_name}.{attr} not found; "
                          "its time counts as unattributed", file=sys.stderr)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
            self.full = False
