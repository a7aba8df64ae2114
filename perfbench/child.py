"""One measured process of the benchmark: ``python3 child.py <spec.json>``.

Every pass runs in a fresh interpreter, so the process-wide compile and
baseline caches start as cold as they do for a ``repro eval`` user.  The
child times its own set-up (imports, ``PCGBench``, model load, service
start), runs one unit of its workload, and writes a JSON result to the
path named in the spec.  Nothing is printed on stdout.
"""

import time

_T0 = time.perf_counter()

import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _bad_samples(run) -> int:
    return sum(1 for pr in run.prompts.values() for s in pr.samples
               if s.status in workloads.FAILED_STATUSES)


def _traced(spec):
    if not spec.get("trace"):
        return None
    import spans as span_trace

    tracer = span_trace.Tracer(Path(spec["work"]))
    span_trace.install(tracer)
    return tracer


def run_setup(spec) -> dict:
    """Set-up only: imports, bench, model and (for serve) a started service."""
    cfg = workloads.config(spec)
    if cfg["kind"] == "serve":
        from repro.serve.service import EvalService

        async def start_stop():
            svc = EvalService(Path(spec["work"]) / "svc",
                              **workloads.SERVICE_ARGS)
            await svc.start()
            setup = time.perf_counter() - _T0
            await svc.shutdown()
            return setup

        return {"setup_s": asyncio.run(start_stop())}
    _batch_setup(cfg)
    return {"setup_s": time.perf_counter() - _T0}


def _batch_setup(cfg):
    from repro.harness.evaluate import evaluate_model

    return (evaluate_model, *workloads.make_inputs(cfg))


def run_batch(spec) -> dict:
    """One ``evaluate_model`` call: the k1-timed or passk-sched unit."""
    cfg = workloads.config(spec)
    evaluate_model, llm, bench = _batch_setup(cfg)
    setup = time.perf_counter() - _T0
    tracer = _traced(spec)
    kwargs = dict(num_samples=cfg["samples"], temperature=cfg["temperature"],
                  with_timing=cfg["timing"], seed=spec["seed"])
    if cfg["jobs"] > 1:
        kwargs["jobs"] = cfg["jobs"]
    events = None
    if tracer is not None and cfg["jobs"] > 1:
        # the event stream exists only on the scheduler path; passing
        # events= at jobs=1 would reroute the serial loop through it
        events = workloads.EventClock()
        kwargs["events"] = events
    began = time.perf_counter()
    if tracer is None:
        run = evaluate_model(llm, bench, **kwargs)
    else:
        layer = "sched" if cfg["jobs"] > 1 else "harness"
        run = tracer.call(layer, "trace.root_s", evaluate_model, llm, bench,
                          **kwargs)
    wall = time.perf_counter() - began
    out = {"setup_s": setup, "wall_s": wall, "digest": run.digest(),
           "slots": len(bench.prompts) * cfg["samples"],
           "bad_samples": _bad_samples(run), "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        if events is not None:
            out["sched"] = events.summary(cfg["jobs"], out["slots"])
    return out


def run_serve(spec) -> dict:
    """The open-loop ``EvalService`` load, measured from each due time."""
    from repro.serve.client import ServiceClient
    from repro.serve.service import (DONE, EvalRequest, EvalService,
                                     Overloaded, ServiceClosed)

    cfg = workloads.config(spec)
    slices, stream = workloads.serve_stream(spec["seed"], cfg)
    tracer = _traced(spec)

    async def main():
        svc = EvalService(Path(spec["work"]) / "svc",
                          **workloads.SERVICE_ARGS)
        await svc.start()
        setup = time.perf_counter() - _T0
        client = ServiceClient(svc)
        rate = cfg["rate"]
        records = []
        began = time.monotonic()

        async def one(i: int, k: int) -> None:
            due = began + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            rec = {"slice": k, "lag_s": sent - due}
            records.append(rec)
            try:
                ticket = await client.wait(
                    client.submit(EvalRequest.from_dict(slices[k])))
            except (Overloaded, ServiceClosed) as exc:
                rec.update(status="rejected", error=str(exc),
                           latency_s=time.monotonic() - due)
                return
            rec.update(status=ticket.status, latency_s=time.monotonic() - due,
                       queue_s=(ticket.started or ticket.finished)
                       - ticket.created,
                       started=ticket.started, finished=ticket.finished)
            if ticket.status == DONE and ticket.run is not None:
                rec["digest"] = ticket.run.digest()
                rec["bad_samples"] = _bad_samples(ticket.run)
                rec["slots"] = sum(len(pr.samples)
                                   for pr in ticket.run.prompts.values())

        async def load():
            await asyncio.gather(*(one(i, k) for i, k in enumerate(stream)))

        await load()
        wall = time.monotonic() - began
        if tracer is not None:
            # the root span: the event loop's thread records no other
            # span during the window (planning and shards run in executor
            # threads), so the window is the serve layer's self time
            tracer.record("serve", "trace.root_s", wall)
        snap = svc.metrics_snapshot()
        await svc.shutdown()
        return setup, wall, records, snap, svc.telemetry

    setup, wall, records, snap, telemetry = asyncio.run(main())
    out = {"setup_s": setup, "wall_s": wall, "records": records,
           "slices": slices, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["serve"] = workloads.serve_summary(records, snap, telemetry,
                                               cfg, wall)
    return out


def run_reference(spec) -> dict:
    """Digests of requests evaluated directly, outside any timed window."""
    return {"digests": workloads.reference_digests(spec["requests"])}


KINDS = {"setup": run_setup, "batch": run_batch, "serve": run_serve,
         "reference": run_reference}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = KINDS[spec["kind"]](spec)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
