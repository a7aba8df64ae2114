"""Workload definitions shared by the orchestrator and its child processes.

Three workloads, each the unit a user of the harness waits for:

* ``k1-timed``: the paper's k=1 pass, ``evaluate_model`` with default
  arguments (the serial loop) over the 35 dense_la prompts, GPT-3.5,
  20 samples at T=0.2, timed.  One caller, closed loop.
* ``passk-sched``: the k>1 pass as ``repro figures --jobs N`` runs it,
  CodeLlama-7B, 200 samples at T=0.8, untimed, on the scheduler pool.
* ``serve-mixed``: an open-loop request stream against an in-process
  ``EvalService`` (2 shards x 1 job, sample cache on).

The ``--seed`` picks the inputs: the LLM sampling seed of the batch
passes, and the request stream of the service workload.
"""

from __future__ import annotations

import math
import os
import random
import time

#: sample statuses that mean the harness, not the sample, failed
FAILED_STATUSES = frozenset({"system_error", "quarantined", "degraded"})

#: the service under test: 2 shards x 1 worker, sample cache on
SERVICE_ARGS = {"shards": 2, "jobs_per_shard": 1}

#: seed whose digests are pinned in pins.json
DEFAULT_SEED = 11

#: the fixed serve-mixed traffic mix: (LLM, problem type, execution
#: models, timed).  Slice k uses LLM k mod 7, every fourth slice is timed,
#: and problem types cycle.  Each slice's pair of shared-memory or GPU
#: execution models is the one whose first request costs nearest 0.15 s
#: of worker time (measured once, 2-vCPU Xeon VM), so no slice costs
#: more than about 0.3 s and no single prompt decides the latency tail.
#: No slice uses MPI: serve-mixed is the bypass workload for MPI work.
SERVE_MIX = (
    ("CodeLlama-7B", "scan", ("openmp", "hip"), False),
    ("CodeLlama-13B", "geometry", ("openmp", "hip"), False),
    ("StarCoderBase", "graph", ("kokkos", "cuda"), False),
    ("CodeLlama-34B", "stencil", ("openmp", "cuda"), True),
    ("Phind-CodeLlama-V2", "reduce", ("openmp", "kokkos"), False),
    ("GPT-3.5", "fft", ("serial", "kokkos"), False),
    ("GPT-4", "dense_la", ("openmp", "cuda"), False),
    ("CodeLlama-7B", "histogram", ("serial", "cuda"), True),
    ("CodeLlama-13B", "sparse_la", ("serial", "kokkos"), False),
    ("StarCoderBase", "stencil", ("serial", "cuda"), False),
    ("CodeLlama-34B", "search", ("serial", "hip"), False),
    ("Phind-CodeLlama-V2", "reduce", ("openmp", "cuda"), True),
    ("GPT-3.5", "sort", ("cuda", "hip"), False),
    ("GPT-4", "transform", ("cuda", "hip"), False),
    ("CodeLlama-7B", "histogram", ("cuda", "hip"), False),
    ("CodeLlama-13B", "graph", ("serial", "hip"), True),
    ("StarCoderBase", "scan", ("serial", "kokkos"), False),
    ("CodeLlama-34B", "geometry", ("cuda", "hip"), False),
    ("Phind-CodeLlama-V2", "graph", ("serial", "kokkos"), False),
    ("GPT-3.5", "dense_la", ("openmp", "hip"), True),
)

WORKLOADS = {
    "k1-timed": {
        "kind": "batch", "model": "GPT-3.5", "ptypes": ["dense_la"],
        "exec_models": [], "samples": 20, "temperature": 0.2,
        "timing": True, "jobs": 1, "limit_s": 120.0, "reference": True,
        "min_passes": 1,
    },
    "passk-sched": {
        "kind": "batch", "model": "CodeLlama-7B",
        "ptypes": ["sort", "geometry", "graph"], "exec_models": [],
        "samples": 200, "temperature": 0.8, "timing": False,
        "jobs": "nproc", "limit_s": 60.0, "reference": False,
        "min_passes": 2,
    },
    "serve-mixed": {
        "kind": "serve", "rate": 2.5, "requests": 100, "menu": 20,
        "samples": 20, "temperature": 0.2, "limit_s": 2.5,
    },
}

#: a few-second version of each workload, for the smoke test
TINY = {
    "k1-timed": {"ptypes": ["geometry"],
                 "exec_models": ["serial", "openmp", "cuda"], "samples": 2},
    "passk-sched": {"ptypes": ["geometry"],
                    "exec_models": ["serial", "openmp", "mpi"],
                    "samples": 6},
    "serve-mixed": {"rate": 8.0, "requests": 6, "menu": 3, "samples": 2},
}


def config(spec: dict) -> dict:
    cfg = dict(WORKLOADS[spec["workload"]])
    if spec.get("tiny"):
        cfg.update(TINY[spec["workload"]])
    if cfg.get("jobs") == "nproc":
        cfg["jobs"] = max(2, min(4, os.cpu_count() or 2))
    return cfg


def batch_request(cfg: dict, seed: int) -> dict:
    """A batch pass written as a service request body."""
    return {"model": cfg["model"], "ptypes": list(cfg["ptypes"]),
            "exec_models": list(cfg["exec_models"]),
            "samples": cfg["samples"], "temperature": cfg["temperature"],
            "timing": cfg["timing"], "seed": seed}


def make_inputs(cfg: dict):
    """The LLM and bench slice a workload config or request names."""
    from repro.bench.registry import PCGBench
    from repro.models import load_model

    bench = PCGBench(problem_types=cfg["ptypes"],
                     models=cfg["exec_models"] or None)
    return load_model(cfg["model"]), bench


def serve_stream(seed: int, cfg: dict):
    """The request menu (``SERVE_MIX``) and the order requests arrive in.

    The seed draws each slice's LLM sampling seed and the arrival order,
    so seeds change the inputs but not the kind of work they ask for.
    """
    rng = random.Random(seed)
    slices = [{"model": model, "ptypes": [ptype], "exec_models": list(execs),
               "samples": cfg["samples"], "temperature": cfg["temperature"],
               "timing": timed, "seed": rng.randrange(1, 2 ** 31)}
              for model, ptype, execs, timed in SERVE_MIX[:cfg["menu"]]]
    # every slice is requested equally often, so the timed share is the
    # same on every seed; new slices arrive evenly over the whole window,
    # each between repeats of slices already seen, so cache misses keep
    # the same share from the first second to the last
    n, menu = cfg["requests"], cfg["menu"]
    debut = list(range(menu))
    rng.shuffle(debut)
    firsts = {n * j // menu: k for j, k in enumerate(debut)}
    stream, repeats = [], []
    for i in range(n):
        if i in firsts:
            k = firsts[i]
            stream.append(k)
            repeats += [k] * (n // menu - 1)
        else:
            stream.append(repeats.pop(rng.randrange(len(repeats))))
    return slices, stream


def reference_digests(requests):
    """``EvalRun`` digests of each request evaluated directly in this
    process: plan, execute every distinct task once, assemble."""
    from repro.harness.runner import Runner
    from repro.sched.plan import assemble, build_plan
    from repro.sched.worker import execute_task, init_harness

    runner = Runner()
    plans = []
    for req in requests:
        llm, bench = make_inputs(req)
        plans.append(build_plan(llm, bench, req["samples"],
                                req["temperature"], req["timing"], runner,
                                req["seed"]))
    ptypes = sorted({pt for p in plans for pt in p.bench_ptypes})
    models = sorted({m for p in plans for m in p.bench_models})
    ctx = init_harness(runner, ptypes, models)
    results = {}
    for plan in plans:
        for task_id, spec in plan.tasks.items():
            if task_id not in results:
                results[task_id] = execute_task(ctx, spec.payload())
    return [assemble(plan, results).digest() for plan in plans]


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile; 0.0 when empty.

    A weighted mean of all order statistics, with beta-distribution
    weights centred on rank ``p * (n + 1)``: it has a much smaller
    spread from run to run than a single order statistic.
    """
    xs = sorted(values)
    if len(xs) <= 1:
        return xs[0] if xs else 0.0
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 32                          # midpoint rule per 1/n interval
    weights = [sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                   for t in ((i + (j + 0.5) / steps) / n
                             for j in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n: int) -> int:
    """Highest reported percentile with at least ten samples beyond it."""
    best = 50
    for p in (75, 90, 95, 99):
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return best


class EventClock:
    """Scheduler event sink that also timestamps task starts.

    Wraps the repo's ``Telemetry`` aggregate; a task's queue wait is the
    time from the end of planning to its first ``TaskStarted``.
    """

    def __init__(self):
        from repro.sched.events import Telemetry

        self.telemetry = Telemetry()
        self.exec_began = time.perf_counter()
        self.starts = {}
        self.sample_tasks = set()

    def __call__(self, event) -> None:
        self.telemetry(event)
        name = type(event).__name__
        if name == "StageFinished" and event.stage == "plan":
            self.exec_began = time.perf_counter()
        elif name == "TaskStarted":
            self.starts.setdefault(event.task_id, time.perf_counter())
        elif name == "TaskFinished" and event.kind == "sample":
            self.sample_tasks.add(event.task_id)

    def summary(self, jobs: int, slots: int) -> dict:
        t = self.telemetry
        waits = [s - self.exec_began for s in self.starts.values()]
        execute = t.stage_seconds.get("execute", 0.0)
        workers = t.workers or jobs
        return {
            "sched.plan_s": t.stage_seconds.get("plan", 0.0),
            "sched.execute_s": execute,
            "sched.assemble_s": t.stage_seconds.get("assemble", 0.0),
            "sched.busy_s": t.busy_seconds,
            "sched.utilization": t.utilization(),
            "sched.ipc_overhead_s": workers * execute - t.busy_seconds,
            "sched.queue_wait_p50_s": percentile(waits, 0.5),
            "sched.queue_wait_p90_s": percentile(waits, 0.9),
            "sched.dedup_ratio": 1.0 - len(self.sample_tasks) / slots,
            "sched.retries": t.retries,
            "sched.crashes": t.crashes,
            "sched.hedge_waste_ratio": t.hedges / max(1, t.executed),
        }


def serve_summary(records, snap: dict, telemetry, cfg: dict,
                  wall: float) -> dict:
    """Per-layer service metrics from the tickets and ``/metrics``."""
    done = [r for r in records if "started" in r and r["started"]]
    batches = {}
    for r in done:
        batches.setdefault(r["started"], []).append(r["finished"])
    runs = [max(ends) - start for start, ends in batches.items()]
    queue = [r["queue_s"] for r in records if "queue_s" in r]
    busy = [s["busy_seconds"] for s in snap["shards"].values()]
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    workers = SERVICE_ARGS["shards"] * SERVICE_ARGS["jobs_per_shard"]
    return {
        "serve.queue_wait_p50_s": percentile(queue, 0.5),
        "serve.queue_wait_p90_s": percentile(queue, 0.9),
        "serve.batch_run_p50_s": percentile(runs, 0.5),
        "serve.requests_per_batch":
            snap["batched_requests"] / max(1, snap["batches"]),
        "serve.dedup_ratio":
            snap["tasks_deduped"] / max(1, snap["tasks_planned"]),
        "serve.cache_hit_ratio":
            snap["tasks_from_cache"] / max(1, snap["tasks_unique"]),
        "serve.tasks_stolen": snap["tasks_stolen"],
        "serve.shard_busy_imbalance":
            (max(busy) / mean_busy - 1.0) if mean_busy else 0.0,
        "serve.rejected": snap["rejected"],
        "serve.expired": snap["expired"],
        "serve.ledger_hit_rate": snap["ledger_hit_rate"],
        "serve.pred_mae_s": snap["pred_mae_seconds"],
        "sched.busy_s": telemetry.busy_seconds,
        "sched.utilization": telemetry.busy_seconds / (workers * wall),
        "sched.retries": telemetry.retries,
        "sched.crashes": telemetry.crashes,
        "sched.hedge_waste_ratio":
            telemetry.hedges / max(1, telemetry.executed),
    }
