"""Tests for the MPI and hybrid runtimes."""

import sys

import pytest

from repro.lang.errors import DeadlockError, FuelExhausted, MPIUsageError
from repro.runtime import DEFAULT_MACHINE, Array, run_mpi

from .helpers import compiled, farr, iarr


def mpi_run(src, kernel, args, nranks, threads_per_rank=0, fuel=None,
            work_scale=1.0):
    cp = compiled(src)
    return run_mpi(cp, kernel, args, nranks, DEFAULT_MACHINE,
                   work_scale=work_scale, fuel=fuel,
                   threads_per_rank=threads_per_rank)


BLOCK_SUM = """
kernel f(x: array<float>) -> float {
    let rank = mpi_rank();
    let size = mpi_size();
    let n = len(x);
    let chunk = (n + size - 1) / size;
    let lo = rank * chunk;
    let hi = min(lo + chunk, n);
    let local = 0.0;
    for (i in lo..hi) {
        local += x[i];
    }
    return mpi_reduce_float(local, "sum", 0);
}
"""


class TestPointToPoint:
    def test_send_recv_scalar(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                mpi_send(42.5, 1, 0);
                return 0.0;
            } else {
                return mpi_recv_float(0, 0);
            }
        }
        """
        # rank 1 receives; rank 0's return is checked, so invert roles
        src = src.replace("mpi_rank() == 0", "mpi_rank() == 1").replace(
            "mpi_send(42.5, 1, 0)", "mpi_send(42.5, 0, 0)"
        ).replace("mpi_recv_float(0, 0)", "mpi_recv_float(1, 0)")
        res = mpi_run(src, "f", [farr([0])], 2)
        assert res.error is None
        assert res.ret == 42.5

    def test_send_recv_array_copies(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(x, 0, 3);
                x[0] = 99.0;
                return 0.0;
            }
            let got = mpi_recv_array_float(1, 3);
            return got[0];
        }
        """
        res = mpi_run(src, "f", [farr([7, 8])], 2)
        assert res.error is None
        assert res.ret == 7.0  # value at send time, not after mutation

    def test_fifo_per_channel(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(1.0, 0, 0);
                mpi_send(2.0, 0, 0);
                return 0.0;
            }
            let a = mpi_recv_float(1, 0);
            let b = mpi_recv_float(1, 0);
            return a * 10.0 + b;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 2)
        assert res.ret == 12.0

    def test_tag_matching(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(1.0, 0, 5);
                mpi_send(2.0, 0, 9);
                return 0.0;
            }
            let b = mpi_recv_float(1, 9);
            let a = mpi_recv_float(1, 5);
            return a * 10.0 + b;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 2)
        assert res.ret == 12.0

    def test_type_mismatch_detected(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(x, 0, 0);
                return 0.0;
            }
            return mpi_recv_float(1, 0);
        }
        """
        res = mpi_run(src, "f", [farr([1])], 2)
        assert isinstance(res.error, MPIUsageError)

    def test_invalid_destination_rank(self):
        src = """
        kernel f(x: array<float>) -> float {
            mpi_send(1.0, 99, 0);
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([1])], 2)
        assert isinstance(res.error, MPIUsageError)

    def test_deadlock_cyclic_recv(self):
        src = """
        kernel f(x: array<float>) -> float {
            return mpi_recv_float((mpi_rank() + 1) % mpi_size(), 0);
        }
        """
        res = mpi_run(src, "f", [farr([1])], 4)
        assert isinstance(res.error, DeadlockError)

    def test_partial_recv_deadlock_after_finish(self):
        # rank 0 expects a message no one sends; rank 1 just exits
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_recv_float(1, 0);
            }
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([1])], 2)
        assert isinstance(res.error, DeadlockError)


class TestCollectives:
    def test_block_sum_many_rank_counts(self):
        x = farr(range(512))
        for p in (1, 2, 4, 16, 64):
            res = mpi_run(BLOCK_SUM, "f", [x], p)
            assert res.error is None, res.error
            assert res.ret == sum(range(512))

    def test_allreduce(self):
        src = """
        kernel f(x: array<float>) -> float {
            return mpi_allreduce_float(float(mpi_rank()), "max");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 7.0

    def test_allreduce_int_kind(self):
        src = """
        kernel f(x: array<float>) -> int {
            return mpi_allreduce_int(1, "sum");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 8
        assert isinstance(res.ret, int)

    def test_bcast_scalar(self):
        src = """
        kernel f(x: array<float>) -> float {
            let v = 0.0;
            if (mpi_rank() == 2) { v = 5.5; }
            return mpi_bcast_float(v, 2);
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert res.ret == 5.5

    def test_bcast_array_in_place(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() != 0) { fill(x, 0.0); }
            mpi_bcast_array(x, 0);
            if (mpi_rank() == 3) {
                mpi_send(x[1], 0, 0);
            }
            if (mpi_rank() == 0) {
                return mpi_recv_float(3, 0);
            }
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([4, 5, 6])], 4)
        assert res.ret == 5.0

    def test_scan(self):
        src = """
        kernel f(x: array<float>) -> float {
            let v = mpi_scan_float(1.0, "sum");
            return mpi_bcast_float(v, mpi_size() - 1);
        }
        """
        res = mpi_run(src, "f", [farr([0])], 6)
        assert res.ret == 6.0

    def test_scatter_gather_roundtrip(self):
        src = """
        kernel f(x: array<float>, out: array<float>) {
            let chunk = mpi_scatter_array(x, 0);
            for (i in 0..len(chunk)) {
                chunk[i] = chunk[i] + 100.0;
            }
            let full = mpi_gather_array(chunk, 0);
            if (mpi_rank() == 0) {
                for (i in 0..len(out)) {
                    out[i] = full[i];
                }
            }
        }
        """
        x = farr(range(16))
        out = farr([0] * 16)
        res = mpi_run(src, "f", [x, out], 4)
        assert res.error is None
        assert res.args[1].data == [float(i) + 100.0 for i in range(16)]

    def test_scatter_uneven_is_usage_error(self):
        src = """
        kernel f(x: array<float>) -> float {
            let chunk = mpi_scatter_array(x, 0);
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr(range(10))], 4)
        assert isinstance(res.error, MPIUsageError)

    def test_allgather(self):
        src = """
        kernel f(x: array<float>) -> float {
            let local = alloc_float(1);
            local[0] = float(mpi_rank());
            let full = mpi_allgather_array(local);
            return full[len(full) - 1];
        }
        """
        res = mpi_run(src, "f", [farr([0])], 5)
        assert res.ret == 4.0

    def test_allreduce_array(self):
        src = """
        kernel f(x: array<float>) -> float {
            let local = alloc_float(3);
            fill(local, float(mpi_rank() + 1));
            mpi_allreduce_array(local, "sum");
            return local[0];
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert res.ret == 1 + 2 + 3 + 4

    def test_reduce_array_at_root(self):
        src = """
        kernel f(x: array<float>) -> float {
            let local = alloc_float(2);
            fill(local, 1.0);
            mpi_reduce_array(local, "sum", 0);
            return local[1];
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 8.0

    def test_mismatched_collectives(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_allreduce_float(1.0, "sum");
            }
            return mpi_bcast_float(1.0, 0);
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert isinstance(res.error, MPIUsageError)

    def test_mismatched_reduce_ops(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_allreduce_float(1.0, "sum");
            }
            return mpi_allreduce_float(1.0, "max");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 2)
        assert isinstance(res.error, MPIUsageError)

    def test_barrier(self):
        src = """
        kernel f(x: array<float>) -> float {
            mpi_barrier();
            mpi_barrier();
            return 1.0;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 1.0


class TestMPITimeAndFailures:
    def test_inputs_replicated_not_shared(self):
        src = """
        kernel f(x: array<float>) -> float {
            x[0] = float(mpi_rank());
            mpi_barrier();
            return x[0];
        }
        """
        res = mpi_run(src, "f", [farr([99])], 4)
        assert res.ret == 0.0  # rank 0 sees its own write only

    def test_scaling_efficiency_declines_at_high_rank_counts(self):
        x = farr(range(2048))
        times = {}
        for p in (1, 8, 64, 256):
            res = mpi_run(BLOCK_SUM, "f", [x], p, work_scale=256)
            assert res.error is None
            times[p] = res.sim_seconds
        eff_8 = times[1] / times[8] / 8
        eff_256 = times[1] / times[256] / 256
        assert eff_8 > eff_256  # communication eats efficiency at scale
        assert times[8] < times[1]

    def test_fuel_exhaustion_on_one_rank_aborts_all(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                let s = 0.0;
                while (true) { s += 1.0; }
            }
            return mpi_allreduce_float(1.0, "sum");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4, fuel=30_000)
        assert isinstance(res.error, FuelExhausted)

    def test_hybrid_runs_openmp_inside_ranks(self):
        src = """
        kernel f(x: array<float>) -> float {
            let rank = mpi_rank();
            let size = mpi_size();
            let chunk = (len(x) + size - 1) / size;
            let lo = rank * chunk;
            let hi = min(lo + chunk, len(x));
            let local = 0.0;
            pragma omp parallel for reduction(+: local)
            for (i in lo..hi) {
                local += x[i];
            }
            return mpi_reduce_float(local, "sum", 0);
        }
        """
        x = farr(range(1024))
        r11 = mpi_run(src, "f", [x], 1, threads_per_rank=1, work_scale=256)
        r44 = mpi_run(src, "f", [x], 4, threads_per_rank=16, work_scale=256)
        assert r11.error is None and r44.error is None
        assert r11.ret == r44.ret == sum(range(1024))
        assert r44.sim_seconds < r11.sim_seconds

    def test_single_rank_runs_inline(self):
        res = mpi_run(BLOCK_SUM, "f", [farr(range(64))], 1)
        assert res.ret == sum(range(64))


class TestBatonScheduler:
    """One rank runs at a time, handing the baton to the lowest-numbered
    runnable rank, so every outcome — failures included — is a function
    of the program alone."""

    def test_cyclic_deadlock_names_every_blocked_rank(self):
        src = """
        kernel f(x: array<float>) -> float {
            return mpi_recv_float((mpi_rank() + 1) % mpi_size(), 7);
        }
        """
        res = mpi_run(src, "f", [farr([1])], 3)
        assert str(res.error) == (
            "deadlock: no runnable rank; 3 of 3 rank(s) blocked, 0 finished: "
            "rank 0 in recv(src=1, tag=7); rank 1 in recv(src=2, tag=7); "
            "rank 2 in recv(src=0, tag=7)")

    def test_collective_deadlock_counts_arrivals(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() != 2) {
                mpi_barrier();
            }
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([1])], 4)
        assert isinstance(res.error, DeadlockError)
        assert str(res.error) == (
            "deadlock: no runnable rank; 3 of 4 rank(s) blocked, 1 finished: "
            "rank 0 in collective #0 barrier (3 of 4 arrived); "
            "rank 1 in collective #0 barrier (3 of 4 arrived); "
            "rank 3 in collective #0 barrier (3 of 4 arrived)")

    def test_large_deadlock_message_is_bounded(self):
        src = """
        kernel f(x: array<float>) -> float {
            return mpi_recv_float((mpi_rank() + 1) % mpi_size(), 0);
        }
        """
        res = mpi_run(src, "f", [farr([1])], 64)
        msg = str(res.error)
        assert msg.startswith("deadlock: no runnable rank; 64 of 64 rank(s)")
        assert msg.count(" in recv(") == 8 and msg.endswith("; and 56 more")

    def test_first_abort_in_baton_order_wins(self):
        # every rank fails, each with its own message; rank 0 runs first
        src = """
        kernel f(x: array<float>) -> float {
            mpi_send(1.0, 100 + mpi_rank(), 0);
            return 0.0;
        }
        """
        messages = {str(mpi_run(src, "f", [farr([0])], 8).error)
                    for _ in range(10)}
        assert messages == {
            "invalid destination rank 100 for communicator of size 8"}

    def test_mismatched_collective_message_is_deterministic(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 2) {
                return mpi_allreduce_float(1.0, "max");
            }
            return mpi_allreduce_float(1.0, "sum");
        }
        """
        messages = {str(mpi_run(src, "f", [farr([0])], 4).error)
                    for _ in range(10)}
        assert messages == {
            "mismatched collectives at call #0: rank 2 called "
            "('allreduce', 'max'), another rank called ('allreduce', 'sum')"}

    def test_deadlock_waits_for_every_runnable_rank(self):
        # rank 0 parks first; the peers still run to completion before
        # the scheduler finds nothing runnable
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_recv_int(0, 0);
            }
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert str(res.error) == (
            "deadlock: no runnable rank; 1 of 4 rank(s) blocked, 3 finished: "
            "rank 0 in recv(src=0, tag=0)")

    def test_stress_with_a_tiny_switch_interval(self):
        # more ranks than cores, preempted as often as the interpreter
        # allows: a lost wake-up would deadlock, a lost update would
        # change the sums or the clocks
        src = """
        kernel f(x: array<float>) -> float {
            let r = mpi_rank();
            let n = mpi_size();
            let token = 0.0;
            for (lap in 0..3) {
                if (r > 0) {
                    token = mpi_recv_float(r - 1, lap);
                }
                mpi_send(token + 1.0, (r + 1) % n, lap);
                if (r == 0) {
                    token = mpi_recv_float(n - 1, lap);
                }
                mpi_allreduce_array(x, "sum");
            }
            return token + mpi_allreduce_float(x[0], "max");
        }
        """
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [mpi_run(src, "f", [farr([1, 2])], 64) for _ in range(3)]
        finally:
            sys.setswitchinterval(old)
        for res in runs:
            assert res.error is None
            assert res.ret == 3 * 64 + 64.0 ** 3
            assert res.args[0].data == [64.0 ** 3, 2 * 64.0 ** 3]
        assert len({res.sim_seconds for res in runs}) == 1
