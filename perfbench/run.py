#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload k1-timed --seed 11 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``), checks every
output against a pinned or independently computed digest, prints a
human-readable table, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` a separate traced run adds the per-layer ones.

Each measured pass runs in a fresh child process (``child.py``) inside a
fresh work directory under ``.perfbench_work/``, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import LAYERS, merge  # noqa: E402

#: set-up-only child processes per run; passes add their own set-up times
SETUP_PROBES = 2
#: one child process may take this long before the run is abandoned
CHILD_TIMEOUT_S = 160


class BenchError(RuntimeError):
    pass


class Run:
    """One benchmark invocation: its work directory and check tallies."""

    def __init__(self, args):
        self.args = args
        self.cfg = workloads.config({"workload": args.workload,
                                     "tiny": args.tiny})
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._children = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def _spec(self, kind: str, **extra) -> dict:
        self._children += 1
        work = self.work / f"c{self._children}-{kind}"
        work.mkdir(parents=True)
        spec = {"kind": kind, "workload": self.args.workload,
                "seed": self.args.seed, "tiny": self.args.tiny,
                "work": str(work), "out": str(work / "result.json")}
        spec.update(extra)
        (work / "spec.json").write_text(json.dumps(spec))
        return spec

    def _start(self, spec: dict) -> subprocess.Popen:
        # a session of its own, so a timeout can stop the child's pool
        # workers together with it
        return subprocess.Popen(
            [sys.executable, str(HERE / "child.py"),
             str(Path(spec["work"]) / "spec.json")],
            cwd=str(ROOT), stdout=sys.stderr, stderr=sys.stderr,
            start_new_session=True)

    def _finish(self, proc: subprocess.Popen, spec: dict) -> dict:
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{spec['kind']} child timed out")
        if code != 0:
            raise BenchError(f"{spec['kind']} child exited with {code}")
        result = json.loads(Path(spec["out"]).read_text())
        result["_work"] = spec["work"]
        return result

    def child(self, kind: str, **extra) -> dict:
        spec = self._spec(kind, **extra)
        return self._finish(self._start(spec), spec)

    def children(self, kind: str, extras) -> list:
        """Run several children side by side (reference checks only)."""
        specs = [self._spec(kind, **extra) for extra in extras]
        procs = [self._start(spec) for spec in specs]
        results, error = [], None
        for proc, spec in zip(procs, specs):
            try:
                results.append(self._finish(proc, spec))
            except BenchError as exc:   # still wait for the others
                error = exc
        if error is not None:
            raise error
        return results

    def setups(self) -> list:
        return [self.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]


def _pinned(workload: str, seed: int):
    pins = json.loads((HERE / "pins.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def _check_digests(run: Run, digests) -> None:
    first = digests[0]
    for i, digest in enumerate(digests[1:], 1):
        run.check(digest == first, f"pass {i} digest {digest[:12]} != "
                  f"pass 0 digest {first[:12]}")
    if run.args.tiny:
        return
    pinned = _pinned(run.args.workload, run.args.seed)
    if pinned is not None:
        run.check(first == pinned, f"digest {first[:12]} != pinned "
                  f"{pinned[:12]}")


def batch_workload(run: Run) -> dict:
    args, cfg = run.args, run.cfg
    setups = [] if args.trace else run.setups()
    passes = []
    began = time.monotonic()
    while True:
        passes.append(run.child("batch"))
        if args.trace or (len(passes) >= cfg["min_passes"]
                          and time.monotonic() - began >= args.seconds):
            break
    digests = [p["digest"] for p in passes]
    traced = run.child("batch", trace=True) if args.trace else None
    if traced is not None:
        digests.append(traced["digest"])
    _check_digests(run, digests)
    checked = list(digests)
    if cfg["reference"] and _pinned(args.workload, args.seed) is None:
        ref = run.child(
            "reference",
            requests=[workloads.batch_request(cfg, args.seed)])["digests"]
        run.check(ref[0] == digests[0], f"digest {digests[0][:12]} != "
                  f"direct evaluation {ref[0][:12]}")
        checked += ref
    for p in passes + ([traced] if traced else []):
        run.attempted += p["slots"]
        run.failed += p["bad_samples"]
        if p["bad_samples"]:
            run.problems.append(f"{p['bad_samples']} failed samples")
    walls = [p["wall_s"] for p in passes]
    out = {
        "setup_s": statistics.median(setups + [p["setup_s"]
                                               for p in passes]),
        "samples_per_s": statistics.median(p["slots"] / p["wall_s"]
                                           for p in passes),
        # a request is one evaluate_model call; every call is one class
        "latency_p50_s": workloads.percentile(walls, 0.5),
        "latency_p90_s": workloads.percentile(walls, 0.9),
        "short_latency_p90_s": workloads.percentile(walls, 0.9),
        "goodput_rps": sum(w <= cfg["limit_s"] for w in walls) / sum(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "_latency_n": len(walls),
        "_digests": [checked],
    }
    if traced is not None:
        out["_traced"] = traced
        out["_untraced_wall_s"] = statistics.median(walls)
    return out


def serve_workload(run: Run) -> dict:
    args, cfg = run.args, run.cfg
    setups = [] if args.trace else run.setups()
    loads = [run.child("serve")]
    if args.trace:
        loads.append(run.child("serve", trace=True))
    slices = loads[0]["slices"]
    used = sorted({r["slice"] for r in loads[0]["records"]})
    refs = {}
    # the reference is outside every timed window; two children halve it
    halves = [used[0::2], used[1::2]]
    for half, res in zip(halves, run.children(
            "reference", [{"requests": [slices[k] for k in h]}
                          for h in halves])):
        refs.update(zip(half, res["digests"]))
    served = {k: [] for k in used}
    for load in loads:
        for r in load["records"]:
            done = r.get("status") == "done"
            ok = done and not r.get("bad_samples") \
                and r.get("digest") == refs.get(r["slice"])
            run.check(ok, f"request for slice {r['slice']}: "
                      f"{r.get('status')} {r.get('error', '')}".strip())
            served[r["slice"]].append(r.get("digest") or "-")
    load = loads[0]
    records, wall = load["records"], load["wall_s"]

    def latency(r):
        return r["latency_s"] if r.get("status") == "done" else wall

    lat = [latency(r) for r in records]
    short = [latency(r) for r in records if not slices[r["slice"]]["timing"]]
    good = sum(1 for r in records if r.get("status") == "done"
               and r["latency_s"] <= cfg["limit_s"])
    out = {
        "setup_s": statistics.median(setups + [load["setup_s"]]),
        "samples_per_s": sum(r.get("slots", 0) for r in records) / wall,
        "latency_p50_s": workloads.percentile(lat, 0.5),
        "latency_p90_s": workloads.percentile(lat, 0.9),
        "short_latency_p90_s": workloads.percentile(short, 0.9),
        "goodput_rps": good / wall,
        "peak_rss_mb": load["peak_rss_mb"],
        "_latency_n": len(lat),
        "_short_n": len(short),
        "_digests": [served[k] + [refs[k]] for k in used],
    }
    if args.trace:
        out["_traced"] = loads[1]
        out["_untraced_wall_s"] = wall
    return out


def layer_metrics(res: dict, names) -> dict:
    """Per-layer metrics of the traced child, workers merged in."""
    traced = res["_traced"]
    total = merge(traced["trace"], Path(traced["_work"]))
    sums, counts = total["sums"], total["counts"]
    wall = traced["wall_s"]
    vals = {f"{layer}.self_s": total["self_s"].get(layer, 0.0)
            for layer in LAYERS}
    vals.update((k, v) for k, v in sums.items() if k in names)
    calls = counts.get("harness.evaluate_calls", 0)
    hits = counts.get("compile_cache_hits", 0)
    misses = counts.get("compile_cache_misses", 0)
    screens = counts.get("lint.screens", 0)
    vals.update({
        "harness.useful_eval_ratio": len(total["pairs"]) / calls
        if calls else 0.0,
        "harness.compile_cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "harness.samples_timed": counts.get("harness.samples_timed", 0),
        "lint.static_fail_ratio": counts.get("lint.static_fails", 0) / screens
        if screens else 0.0,
        "loadgen.lag_max_s": max((r["lag_s"] for r in
                                  traced.get("records", ())), default=0.0),
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / res["_untraced_wall_s"] - 1.0,
        "trace.processes": total["processes"],
    })
    vals.update(traced.get("sched", {}))
    vals.update(traced.get("serve", {}))
    return vals


def print_table(res: dict, layer_vals, args) -> None:
    print(f"workload {args.workload}  seed {args.seed}")
    for name, val in res["metrics"].items():
        print(f"  {name:34s} {val['value']:14.6g} {val['unit']}")
    n = res["_latency_n"]
    tail = workloads.tail_percentile(n)
    print(f"  latency samples: {n} (highest percentile with >=10 samples "
          f"beyond it: p{tail})")
    if "_short_n" in res:
        print(f"  short (untimed) latency samples: {res['_short_n']}")
    print(f"  failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    for row in res["_digests"]:
        print("  digests: " + " ".join(d[:16] for d in row))
    for problem in res["problems"][:10]:
        print(f"  FAILED CHECK: {problem}")
    if layer_vals is None:
        return
    wall = layer_vals["trace.wall_s"]
    print(f"  per-layer self time (traced wall {wall:.3f} s, "
          f"{layer_vals['trace.processes']:.0f} processes)")
    total = 0.0
    for layer in LAYERS:
        val = layer_vals[f"{layer}.self_s"]
        total += val
        print(f"    {layer:10s} {val:10.3f} s {100 * val / wall:7.2f}%")
    print(f"    {'sum':10s} {total:10.3f} s {100 * total / wall:7.2f}%"
          "  (over 100% where workers or threads ran side by side)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few-second slice of the workload (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_SAMPLES"):
        print("error: REPRO_SAMPLES is set; it caps sample counts and "
              "would change the workload", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args)
    try:
        run.work.mkdir(parents=True)
        if run.cfg["kind"] == "serve":
            res = serve_workload(run)
        else:
            res = batch_workload(run)
        defs = bench["per_layer"] if args.trace else bench["end_to_end"]
        layer_vals = (layer_metrics(res, {m["name"] for m in defs})
                      if args.trace else None)
        source = layer_vals if args.trace else res
        res["metrics"] = {m["name"]: {"value": float(source.get(m["name"],
                                                                0.0)),
                                      "unit": m["unit"]} for m in defs}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()     # only if no other run is using it
        except OSError:
            pass
    res.update(attempted=run.attempted, failed=run.failed,
               problems=run.problems)
    print_table(res, layer_vals, args)
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
