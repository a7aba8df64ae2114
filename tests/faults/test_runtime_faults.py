"""Runtime-layer injection points, driven directly at the runtime API:
MPI message perturbation, the wedged-rank host watchdog, GPU kernel
aborts, OpenMP straggler stalls, and the per-ExecCtx memory budget."""

import time

import pytest

from repro.faults import FaultInjected, FaultPlan, FaultRule, injector
from repro.lang.errors import DeadlockError, MemoryExhausted, RuntimeFailure
from repro.runtime import DEFAULT_MACHINE, ExecCtx, SerialRuntime, run_mpi

from ..runtime.helpers import compiled, farr, run_omp, run_serial


def _plan(*rules):
    return FaultPlan(rules=tuple(rules))


SEND_RECV = """
kernel f(x: array<float>) -> float {
    if (mpi_rank() == 1) {
        mpi_send(42.5, 0, 0);
        return 0.0;
    } else {
        return mpi_recv_float(1, 0);
    }
}
"""

TWO_SENDS = """
kernel f(x: array<float>) -> float {
    if (mpi_rank() == 1) {
        mpi_send(1.0, 0, 0);
        mpi_send(2.0, 0, 0);
        return 0.0;
    } else {
        let a = mpi_recv_float(1, 0);
        let b = mpi_recv_float(1, 0);
        return a * 10.0 + b;
    }
}
"""

REDUCE = """
kernel f(x: array<float>) -> float {
    let local = x[mpi_rank()];
    return mpi_reduce_float(local, "sum", 0);
}
"""


class TestMPIMessageFaults:
    def test_dropped_message_deadlocks_the_receiver(self):
        rule = FaultRule(point="runtime.mpi.msg", action="drop",
                         match="1->0")
        with injector(_plan(rule)):
            res = run_mpi(compiled(SEND_RECV), "f", [farr([0])], 2,
                          DEFAULT_MACHINE)
        assert isinstance(res.error, DeadlockError)
        assert str(res.error) == (
            "deadlock: no runnable rank; 1 of 2 rank(s) blocked, 1 finished: "
            "rank 0 in recv(src=1, tag=0)")

    def test_duplicated_message_leaves_result_intact(self):
        rule = FaultRule(point="runtime.mpi.msg", action="dup",
                         match="1->0")
        with injector(_plan(rule)):
            res = run_mpi(compiled(SEND_RECV), "f", [farr([0])], 2,
                          DEFAULT_MACHINE)
        assert res.error is None
        assert res.ret == 42.5

    def test_reordered_message_swaps_delivery(self):
        # fault the second send on channel 1->0: it jumps the queue
        rule = FaultRule(point="runtime.mpi.msg", action="reorder",
                         match="1->0", occurrences=(1,))
        clean = run_mpi(compiled(TWO_SENDS), "f", [farr([0])], 2,
                        DEFAULT_MACHINE)
        assert clean.error is None and clean.ret == 12.0
        with injector(_plan(rule)):
            res = run_mpi(compiled(TWO_SENDS), "f", [farr([0])], 2,
                          DEFAULT_MACHINE)
        assert res.error is None
        assert res.ret == 21.0

    def test_faults_are_deterministic_across_runs(self):
        rule = FaultRule(point="runtime.mpi.msg", action="reorder",
                         match="1->0", occurrences=(1,))
        outcomes = []
        for _ in range(2):
            with injector(_plan(rule)) as inj:
                res = run_mpi(compiled(TWO_SENDS), "f", [farr([0])], 2,
                              DEFAULT_MACHINE)
            outcomes.append((res.ret, inj.canonical_log()))
        assert outcomes[0] == outcomes[1]


class TestHostWatchdog:
    """Satellite: the wedged-rank abort in run_mpi, previously uncovered.

    A stalled rank sleeps *outside* the communication layer, so the
    deadlock detector cannot see it; only the host-side bounded join can
    end the job."""

    def test_wedged_rank_trips_the_watchdog(self):
        rule = FaultRule(point="runtime.mpi.stall", action="stall",
                         match="rank1", param=2.0)
        with injector(_plan(rule)):
            res = run_mpi(compiled(REDUCE), "f", [farr([1, 2])], 2,
                          DEFAULT_MACHINE, watchdog_timeout=0.2)
        assert isinstance(res.error, RuntimeFailure)
        assert "watchdog" in str(res.error)

    def test_stalled_rank_zero_holding_the_baton_trips_the_watchdog(self):
        # rank 0 takes the baton first and wedges before any peer has run
        rule = FaultRule(point="runtime.mpi.stall", action="stall",
                         match="rank0", param=2.0)
        t0 = time.perf_counter()
        with injector(_plan(rule)):
            res = run_mpi(compiled(REDUCE), "f", [farr([1, 2, 3, 4])], 4,
                          DEFAULT_MACHINE, watchdog_timeout=0.2)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(res.error, RuntimeFailure)
        assert "watchdog" in str(res.error)

    def test_stall_fires_in_baton_order(self):
        rule = FaultRule(point="runtime.mpi.stall", action="stall",
                         param=0.001)
        with injector(_plan(rule)) as inj:
            res = run_mpi(compiled(REDUCE), "f", [farr([1, 2, 3, 4])], 4,
                          DEFAULT_MACHINE)
        assert res.error is None and res.ret == 10.0
        assert [e.key for e in inj.events] == [f"rank{r}" for r in range(4)]

    def test_short_stall_inside_the_timeout_recovers(self):
        rule = FaultRule(point="runtime.mpi.stall", action="stall",
                         match="rank1", param=0.05)
        with injector(_plan(rule)):
            res = run_mpi(compiled(REDUCE), "f", [farr([1, 2])], 2,
                          DEFAULT_MACHINE, watchdog_timeout=10.0)
        assert res.error is None
        assert res.ret == 3.0


class TestGPUAbort:
    RELU = """
    kernel relu(x: array<float>) {
        let i = block_idx() * block_dim() + thread_idx();
        if (i < len(x)) {
            x[i] = max(x[i], 0.0);
        }
    }
    """

    def test_injected_abort_surfaces_as_launch_error(self):
        from repro.runtime import launch

        rule = FaultRule(point="runtime.gpu.abort", action="abort")
        with injector(_plan(rule)):
            res = launch(compiled(self.RELU), "relu", [farr([-1.0, 2.0])],
                         2, DEFAULT_MACHINE, dialect="cuda")
        assert isinstance(res.error, FaultInjected)
        assert res.error.point == "runtime.gpu.abort"

    def test_second_launch_is_unaffected(self):
        from repro.runtime import launch

        rule = FaultRule(point="runtime.gpu.abort", action="abort")
        x = farr([-1.0, 2.0])
        with injector(_plan(rule)):
            first = launch(compiled(self.RELU), "relu", [x], 2,
                           DEFAULT_MACHINE, dialect="cuda")
            second = launch(compiled(self.RELU), "relu", [x], 2,
                            DEFAULT_MACHINE, dialect="cuda")
        assert first.error is not None
        assert second.error is None
        assert x.data == [0.0, 2.0]


OMP_SUM = """
kernel f(x: array<float>) -> float {
    let total = 0.0;
    pragma omp parallel for reduction(+: total)
    for (i in 0..len(x)) {
        total += x[i];
    }
    return total;
}
"""


class TestOMPStall:
    def test_straggler_slows_parallel_but_not_serial(self):
        clean_ret, clean_ctx = run_omp(OMP_SUM, "f", [farr([1, 2, 3, 4])])
        rule = FaultRule(point="runtime.omp.stall", action="stall",
                         param=0.5)
        with injector(_plan(rule)):
            ret, ctx = run_omp(OMP_SUM, "f", [farr([1, 2, 3, 4])])
        assert ret == clean_ret == 10.0             # values are untouched
        # every multi-thread adjustment absorbed the straggler's stall;
        # the one-thread "team" has no straggler to wait on
        assert ctx.parallel_adjust[1] == clean_ctx.parallel_adjust[1]
        for t, adj in ctx.parallel_adjust.items():
            if t > 1:
                assert adj > clean_ctx.parallel_adjust[t]


class TestMemoryBudget:
    def test_charge_alloc_enforces_budget(self):
        ctx = ExecCtx(DEFAULT_MACHINE, SerialRuntime())
        assert ctx.mem_budget == float("inf")
        ctx.mem_budget = 128.0
        ctx.charge_alloc(64.0)
        with pytest.raises(MemoryExhausted, match="memory budget"):
            ctx.charge_alloc(128.0)

    def test_budget_rule_applies_to_ctx_at_creation(self):
        rule = FaultRule(point="runtime.mem.budget", action="oom",
                         param=64.0)
        with injector(_plan(rule)):
            ctx = ExecCtx(DEFAULT_MACHINE, SerialRuntime())
        assert ctx.mem_budget == 64.0

    def test_alloc_builtin_hits_the_budget(self):
        src = """
        kernel f(x: array<float>) -> float {
            let scratch = alloc_float(len(x));
            let total = 0.0;
            for (i in 0..len(x)) {
                scratch[i] = x[i];
                total += scratch[i];
            }
            return total;
        }
        """
        ret, _ = run_serial(src, "f", [farr([1, 2, 3])])
        assert ret == 6.0
        rule = FaultRule(point="runtime.mem.budget", action="oom",
                         param=16.0)
        with injector(_plan(rule)):
            with pytest.raises(MemoryExhausted, match="simulated node OOM"):
                run_serial(src, "f", [farr([1, 2, 3])])
