"""Span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about it: :func:`install` replaces the public
entry point each layer is called through with a wrapper that records a
span, then calls the original.  A span's *self time* is its duration minus
the part its child spans cover, so per thread the layers' self times sum
to the root span's duration.

Spans are aggregated in memory, never stored one by one.  Forked ``sched``
pool workers inherit the wrappers; each worker starts a fresh aggregate
and appends it as one JSON line per task to ``spans-<pid>.jsonl`` in the
trace directory, which :func:`merge` folds into the parent's totals.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("models", "lang", "lint", "harness", "runtime", "sched", "serve")


def exec_name(model: str) -> str:
    """Execution model as it appears in a metric name."""
    return model.replace("+", "-")


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        from repro.harness.runner import compile_cache_stats

        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats = compile_cache_stats
        self._cache_base = compile_cache_stats()
        self._clear()

    def _clear(self) -> None:
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.sums = defaultdict(float)      # metric -> inclusive seconds
        self.counts = defaultdict(int)      # counter -> count
        self.pairs = set()                  # evaluated (uid, source) keys

    def _fresh(self) -> None:
        if os.getpid() != self.pid:         # first use in a forked child
            self._reset()

    def _stack(self) -> list:
        self._fresh()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, metric: str, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(0.0)                   # time covered by child spans
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            child = stack.pop()
            with self._lock:
                self.self_s[layer] += dur - child
                self.sums[metric] += dur
            if stack:
                stack[-1] += dur

    def record(self, layer: str, metric: str, dur: float) -> None:
        """A root span timed by the caller (one with no child spans)."""
        self._fresh()
        with self._lock:
            self.self_s[layer] += dur
            self.sums[metric] += dur

    def count(self, name: str, n: int = 1) -> None:
        self._fresh()
        with self._lock:
            self.counts[name] += n

    def snapshot(self) -> dict:
        """This process's aggregate since the last snapshot; resets it."""
        stats = self._stats()
        with self._lock:
            out = {"self_s": dict(self.self_s), "sums": dict(self.sums),
                   "counts": dict(self.counts),
                   "pairs": sorted(self.pairs)}
            for key in ("hits", "misses"):
                out["counts"][f"compile_cache_{key}"] = \
                    stats[key] - self._cache_base[key]
            self._cache_base = stats
            self._clear()
        return out

    def note_pair(self, key: str) -> None:
        self._fresh()
        with self._lock:
            self.pairs.add(key)
            self.counts["harness.evaluate_calls"] += 1

    def flush_worker(self) -> None:
        """Append this worker's aggregate to its span file."""
        if os.getpid() == self.root_pid:
            return
        line = json.dumps(self.snapshot())
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(line + "\n")


def _wrap(owner, name: str, wrapper_for) -> None:
    setattr(owner, name, wrapper_for(getattr(owner, name)))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call once per process."""
    from repro.harness import runner as runner_mod
    from repro.lint import blocking
    from repro.models.llm import SimulatedLLM
    from repro.sched import scheduler as scheduler_mod
    from repro.serve import service as service_mod
    from repro.serve import shards as shards_mod

    call = tracer.call

    def plain(layer, metric):
        def wrapper_for(fn):
            def traced(*args, **kwargs):
                return call(layer, metric, fn, *args, **kwargs)
            return traced
        return wrapper_for

    _wrap(SimulatedLLM, "generate", plain("models", "models.generate_s"))
    _wrap(runner_mod, "compile_source", plain("lang", "lang.compile_s"))
    _wrap(runner_mod, "link_error", plain("harness", "harness.link_s"))
    _wrap(runner_mod, "compile_program",
          plain("runtime", "runtime.codegen_s"))
    _wrap(runner_mod, "launch", plain("runtime", "runtime.gpu_s"))
    _wrap(runner_mod.Runner, "baseline_time",
          plain("harness", "harness.baseline_s"))

    def lint_for(fn):
        def traced(checked, model, *args, **kwargs):
            diags = call("lint", "lint.screen_s", fn, checked, model,
                         *args, **kwargs)
            tracer.count("lint.screens")
            if blocking(diags):
                tracer.count("lint.static_fails")
            return diags
        return traced
    _wrap(runner_mod, "lint_checked", lint_for)

    def mpi_for(fn):
        def traced(program, entry, args, nranks, *rest, **kwargs):
            tpr = kwargs.get("threads_per_rank", 0)
            cfg = f"r{nranks}x{tpr}" if tpr else f"r{nranks}"
            return call("runtime", f"runtime.mpi.{cfg}_s", fn, program,
                        entry, args, nranks, *rest, **kwargs)
        return traced
    _wrap(runner_mod, "run_mpi", mpi_for)

    def correct_for(fn):
        def traced(self, program, source, prompt, *args, **kwargs):
            metric = f"harness.correctness.{exec_name(prompt.model)}_s"
            return call("harness", metric, fn, self, program, source,
                        prompt, *args, **kwargs)
        return traced
    _wrap(runner_mod.Runner, "check_correct", correct_for)

    def measure_for(fn):
        def traced(self, program, prompt, *args, **kwargs):
            tracer.count("harness.samples_timed")
            metric = f"harness.timing.{exec_name(prompt.model)}_s"
            return call("harness", metric, fn, self, program, prompt,
                        *args, **kwargs)
        return traced
    _wrap(runner_mod.Runner, "measure", measure_for)

    def evaluate_for(fn):
        def traced(self, source, prompt, *args, **kwargs):
            key = hashlib.sha256(
                f"{prompt.uid}\0{source}".encode()).hexdigest()[:20]
            tracer.note_pair(key)
            return call("harness", "harness.evaluate_sample_s", fn, self,
                        source, prompt, *args, **kwargs)
        return traced
    _wrap(runner_mod.Runner, "evaluate_sample", evaluate_for)

    def task_for(fn):
        def traced(ctx, payload):
            try:
                return call("sched", "sched.worker_task_s", fn, ctx, payload)
            finally:
                tracer.flush_worker()
        return traced
    # both pool owners bind execute_task by name; forked workers inherit
    _wrap(scheduler_mod, "execute_task", task_for)
    _wrap(shards_mod, "execute_task", task_for)

    _wrap(service_mod.EvalService, "metrics_snapshot",
          plain("serve", "serve.metrics_snapshot_s"))


def merge(parent: dict, out_dir: Path) -> dict:
    """Fold every worker span file into the parent's snapshot."""
    total = {"self_s": defaultdict(float), "sums": defaultdict(float),
             "counts": defaultdict(int), "pairs": set(), "processes": 1}
    parts = [parent]
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        total["processes"] += 1
        with open(path) as fh:
            parts.extend(json.loads(line) for line in fh if line.strip())
    for part in parts:
        for key in ("self_s", "sums", "counts"):
            for name, val in part[key].items():
                total[key][name] += val
        total["pairs"].update(part["pairs"])
    return total
