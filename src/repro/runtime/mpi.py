"""MPI runtime: executes a MiniPar program on N simulated ranks.

Each rank runs the compiled kernel on its own OS thread with a private
:class:`ExecCtx` (its local clock, in scaled op units).  The threads only
park Python stacks: a baton serializes them, so exactly one rank runs at
a time.  Ranks interact only through :class:`CommWorld`:

* point-to-point: buffered sends append to per-(src, dst, tag) FIFO
  queues stamped with an arrival time from the alpha-beta network model
  and wake the receiver if it is parked on that channel; receives block
  until a matching message exists, then advance the local clock to
  ``max(now, arrival)``;
* collectives: call-sequence-matched rendezvous — every rank's k-th
  collective must agree on (kind, root, op) or the run aborts with
  :class:`MPIUsageError` (the moral equivalent of MPI's undefined
  behaviour on mismatched collectives, surfaced deterministically).  The
  last rank to arrive combines the values and wakes the others;
* scheduling: a blocking receive or collective records what it waits on,
  parks its rank on the rank's own lock and hands the baton to the
  lowest-numbered runnable rank.  Sends never yield;
* deadlock: no runnable rank while some rank is unfinished ⇒
  :class:`DeadlockError`, naming every blocked rank and what it waits on.

The baton makes the whole job a deterministic function of its inputs:
which rank runs next never depends on the OS, so neither do results,
simulated clocks, the order fault points fire in, nor which failure is
reported (the first abort in baton order wins).  Simulated time = max
over ranks of the final clock.
"""

from __future__ import annotations

import _thread
import heapq
import itertools
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import inject
from ..lang.errors import DeadlockError, MiniParError, MPIUsageError, RuntimeFailure
from .compile import CompiledProgram, PForInfo
from .context import ExecCtx
from .machine import Machine
from .runtimes import BaseRuntime, OpenMPRuntime, fold, run_loop_serial
from .values import Array, deep_copy_value, nbytes

_SCALAR_COLLECTIVE_BYTES = 8
#: blocked ranks a deadlock message lists before summarising the rest
_DEADLOCK_SHOWN = 8


class _Abort(MiniParError):
    """Internal: another rank failed; unwind quietly."""


@dataclass
class _Collective:
    signature: Tuple
    values: Dict[int, object] = field(default_factory=dict)
    arrivals: Dict[int, float] = field(default_factory=dict)
    done: bool = False
    completion: float = 0.0
    results: Dict[int, object] = field(default_factory=dict)


_NUMPY_KINDS = {"float": (float, np.float64), "int": (int, np.int64)}
_INT64_LIMIT = 2 ** 63


def fold_rows(op: str, rows: Sequence[List], elem: str) -> Optional[List]:
    """Element-wise left fold of equal-length ``rows`` in numpy.

    Folds row by row (``acc = acc + row``; ``np.where`` for min/max), the
    same operations in the same order as :func:`fold` on each column, so
    the result is bit-identical to it.  Returns ``None`` where numpy could
    differ: an element whose Python type is not ``elem``'s kind, an int
    sum that could leave int64 range, or an int product.
    """
    kind = _NUMPY_KINDS.get(elem)
    if kind is None or (op == "prod" and elem == "int"):
        return None
    py_type, dtype = kind
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {py_type}:
        return None
    int_sum = op == "sum" and elem == "int"
    bound = 0
    acc = None
    # Python floats overflow to inf and go NaN silently; so must numpy
    with np.errstate(all="ignore"):
        for data in rows:
            try:
                row = np.array(data, dtype=dtype)
            except OverflowError:       # a Python int beyond int64
                return None
            if int_sum and row.size:
                # every partial sum stays below the sum of the rows' maxima
                bound += max(-int(row.min()), int(row.max()))
                if bound >= _INT64_LIMIT:
                    return None
            if acc is None:
                acc = row
            elif op == "sum":
                acc = acc + row
            elif op == "prod":
                acc = acc * row
            elif op == "min":
                acc = np.where(acc < row, acc, row)
            else:
                acc = np.where(acc > row, acc, row)
    return acc.tolist()


class CommWorld:
    """Shared state connecting the rank threads of one MPI job.

    Only the baton holder touches the message queues and collectives.
    ``mutex`` guards the scheduler state (``runnable``, ``waiting``,
    ``unfinished``, ``failure``), which the host watchdog may also touch
    from outside the baton.
    """

    def __init__(self, nranks: int, machine: Machine, work_scale: float):
        self.nranks = nranks
        self.machine = machine
        self.scale = work_scale
        self.queues: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
        self.collectives: Dict[int, _Collective] = {}
        self.failure: Optional[BaseException] = None
        self.mutex = threading.Lock()
        #: one lock per rank, held while the rank is parked off the baton
        self.park = [threading.Lock() for _ in range(nranks)]
        for lock in self.park:
            lock.acquire()
        self.runnable: List[int] = list(range(nranks))   # a heap
        self.launched = [False] * nranks
        self.launch: Optional[Callable[[int], None]] = None
        self.waiting: Dict[int, Tuple] = {}   # parked rank -> what it waits on
        self.unfinished = nranks
        self.done = threading.Event()

    def _units(self, seconds: float) -> float:
        return seconds / self.machine.cpu.cycle

    def check_abort(self) -> None:
        if self.failure is not None:
            raise _Abort()

    # -- the baton -------------------------------------------------------------
    # Methods named _x must be called with self.mutex held.

    def _pass_baton(self) -> None:
        """Resume the lowest-numbered runnable rank, launching its thread
        on its first turn; with none runnable while ranks still wait, the
        job is deadlocked."""
        if not self.runnable and self.waiting:
            self.failure = DeadlockError(self._deadlock_message())
            self._release_waiters()
        while self.runnable:
            r = heapq.heappop(self.runnable)
            if self.launched[r]:
                self.park[r].release()
                return
            if self.failure is None:
                self.launched[r] = True
                self.launch(r)
                return
            self.unfinished -= 1        # never ran, so nothing to unwind
        if self.unfinished == 0:
            self.done.set()

    def _release_waiters(self) -> None:
        """After a failure every parked rank becomes runnable, to unwind."""
        for r in self.waiting:
            heapq.heappush(self.runnable, r)
        self.waiting.clear()

    def _deadlock_message(self) -> str:
        blocked = sorted(self.waiting.items())
        parts = [f"rank {r} in {self._describe(what)}"
                 for r, what in blocked[:_DEADLOCK_SHOWN]]
        if len(blocked) > _DEADLOCK_SHOWN:
            parts.append(f"and {len(blocked) - _DEADLOCK_SHOWN} more")
        finished = self.nranks - self.unfinished
        return (f"deadlock: no runnable rank; {len(blocked)} of "
                f"{self.nranks} rank(s) blocked, {finished} finished: "
                + "; ".join(parts))

    def _describe(self, what: Tuple) -> str:
        if what[0] == "recv":
            return f"recv(src={what[1]}, tag={what[2]})"
        c = self.collectives[what[1]]
        return (f"collective #{what[1]} {c.signature[0]} "
                f"({len(c.values)} of {self.nranks} arrived)")

    def start(self, launch: Callable[[int], None]) -> None:
        """Hand the baton to rank 0.  ``launch(r)`` starts rank ``r``'s
        thread when the baton first reaches it."""
        self.launch = launch
        with self.mutex:
            self._pass_baton()

    def block(self, rank: int, what: Tuple) -> None:
        """Park ``rank`` (the baton holder) until a peer wakes it on
        ``what``, handing the baton on meanwhile."""
        with self.mutex:
            self.check_abort()
            self.waiting[rank] = what
            self._pass_baton()
        self.park[rank].acquire()
        self.check_abort()

    def wake(self, rank: int, what: Tuple) -> None:
        """Make ``rank`` runnable if it is parked waiting on ``what``."""
        with self.mutex:
            if self.waiting.get(rank) == what:
                del self.waiting[rank]
                heapq.heappush(self.runnable, rank)

    def abort(self, exc: BaseException) -> None:
        """Fail the job with ``exc`` unless an earlier failure won."""
        with self.mutex:
            if self.failure is None:
                self.failure = exc
            self._release_waiters()

    def abort_wedged(self, exc: BaseException) -> None:
        """Host watchdog: the baton holder is wedged, so resume every
        other rank at once and let them unwind side by side."""
        with self.mutex:
            if self.unfinished == 0:
                return              # finished just as the timeout fired
            if self.failure is None:
                self.failure = exc
            self._release_waiters()
            for r in self.runnable:
                if self.launched[r]:
                    self.park[r].release()
            self.runnable.clear()

    def finish_rank(self) -> None:
        with self.mutex:
            self.unfinished -= 1
            self._pass_baton()


class MPIRankRuntime(BaseRuntime):
    """The runtime a single rank's ExecCtx dispatches through."""

    model = "mpi"

    def __init__(self, rank: int, world: CommWorld):
        self.rank = rank
        self.world = world
        self.coll_seq = 0

    # -- clock helpers ---------------------------------------------------------

    @staticmethod
    def _clock(ctx: ExecCtx) -> float:
        return ctx.cost * ctx.work_scale + ctx.extra_units

    @staticmethod
    def _advance_to(ctx: ExecCtx, target: float, category: str = "idle") -> None:
        now = ctx.cost * ctx.work_scale + ctx.extra_units
        if target > now:
            ctx.extra_units += target - now
            if ctx.prof is not None:
                ctx.prof.add_extra(category, target - now)

    def _validate_rank(self, r, what: str) -> int:
        if not isinstance(r, int) or not 0 <= r < self.world.nranks:
            raise MPIUsageError(
                f"invalid {what} {r!r} for communicator of size {self.world.nranks}"
            )
        return r

    # -- point to point -----------------------------------------------------------

    def mpi_rank(self, ctx: ExecCtx) -> int:
        return self.rank

    def mpi_size(self, ctx: ExecCtx) -> int:
        return self.world.nranks

    def mpi_send(self, ctx: ExecCtx, value, dest, tag) -> None:
        w = self.world
        dest = self._validate_rank(dest, "destination rank")
        size = nbytes(value) * ctx.work_scale
        travel = w._units(w.machine.net.point_to_point(int(size), self.rank, dest))
        w.check_abort()
        now = self._clock(ctx)
        # sender pays an injection overhead; message lands after travel
        ctx.extra_units += 0.3 * travel
        if ctx.prof is not None:
            ctx.prof.add_extra("message", 0.3 * travel)
            ctx.prof.count("messages")
            ctx.prof.count("message_bytes", float(size))
        msg = (deep_copy_value(value), now + travel)
        q = w.queues[(self.rank, dest, tag)]
        action = None
        if inject.ACTIVE is not None:
            rule = inject.ACTIVE.fire(
                "runtime.mpi.msg", f"{self.rank}->{dest}#t{tag}")
            if rule is not None:
                action = rule.action
        if action == "drop":
            # lost on the wire: the receiver stays parked until the
            # deadlock detector or host watchdog intervenes
            return
        if action == "reorder":
            # delivered ahead of earlier traffic on this channel
            q.appendleft(msg)
        else:
            q.append(msg)
        if action == "dup":
            q.append((deep_copy_value(value), now + travel))
        w.wake(dest, ("recv", self.rank, tag))

    def _recv(self, ctx: ExecCtx, src, tag):
        w = self.world
        src = self._validate_rank(src, "source rank")
        w.check_abort()
        q = w.queues[(src, self.rank, tag)]
        while not q:
            w.block(self.rank, ("recv", src, tag))
        value, arrival = q.popleft()
        self._advance_to(ctx, arrival, "message")
        ctx.extra_units += w._units(w.machine.net.alpha) * 0.3
        if ctx.prof is not None:
            ctx.prof.add_extra("message", w._units(w.machine.net.alpha) * 0.3)
        return value

    def mpi_recv_float(self, ctx: ExecCtx, src, tag) -> float:
        v = self._recv(ctx, src, tag)
        if isinstance(v, Array) or isinstance(v, bool) or not isinstance(v, (int, float)):
            raise MPIUsageError("mpi_recv_float: message is not a scalar number")
        return float(v)

    def mpi_recv_int(self, ctx: ExecCtx, src, tag) -> int:
        v = self._recv(ctx, src, tag)
        if not isinstance(v, int) or isinstance(v, bool):
            raise MPIUsageError("mpi_recv_int: message is not an int")
        return v

    def mpi_recv_array_float(self, ctx: ExecCtx, src, tag) -> Array:
        v = self._recv(ctx, src, tag)
        if not isinstance(v, Array) or v.elem != "float":
            raise MPIUsageError("mpi_recv_array_float: message is not a float array")
        return v

    def mpi_recv_array_int(self, ctx: ExecCtx, src, tag) -> Array:
        v = self._recv(ctx, src, tag)
        if not isinstance(v, Array) or v.elem != "int":
            raise MPIUsageError("mpi_recv_array_int: message is not an int array")
        return v

    # -- collectives -----------------------------------------------------------------

    def _collective(self, ctx: ExecCtx, kind: str, signature: Tuple, value,
                    payload_bytes: float):
        """Rendezvous with every other rank's matching collective call.

        Contributions are not copied: a rank stays parked from its arrival
        until the last arrival has combined them, and no rank's result
        aliases another rank's contribution.
        """
        w = self.world
        seq = self.coll_seq
        self.coll_seq += 1
        w.check_abort()
        c = w.collectives.get(seq)
        if c is None:
            c = w.collectives[seq] = _Collective(signature=signature)
        elif c.signature != signature:
            w.abort(MPIUsageError(
                f"mismatched collectives at call #{seq}: rank {self.rank} "
                f"called {signature}, another rank called {c.signature}"
            ))
            raise _Abort()
        c.values[self.rank] = value
        c.arrivals[self.rank] = self._clock(ctx)
        if len(c.values) == w.nranks:
            comm = w._units(w.machine.net.collective(
                kind, int(payload_bytes * ctx.work_scale), w.nranks
            ))
            c.completion = max(c.arrivals.values()) + comm
            c.results = self._combine(kind, signature, c.values)
            c.done = True
            del w.collectives[seq]      # every rank has arrived
            for r in c.values:
                if r != self.rank:
                    w.wake(r, ("collective", seq))
        else:
            while not c.done:
                w.block(self.rank, ("collective", seq))
        result = c.results.get(self.rank)
        self._advance_to(ctx, c.completion, "collective")
        if ctx.prof is not None:
            ctx.prof.count("collectives")
            ctx.prof.count(f"collective_bytes_{kind}",
                           payload_bytes * ctx.work_scale)
        return result

    def _combine(self, kind: str, signature: Tuple, values: Dict[int, object]):
        """Compute every rank's result for a completed collective."""
        n = self.world.nranks
        ordered = [values[r] for r in range(n)]
        tag = signature[0]
        if tag == "barrier":
            return {r: None for r in range(n)}
        if tag in ("bcast", "bcast_array", "scatter"):
            root = signature[1]
            v = ordered[root]
            return {r: (v if r == root else deep_copy_value(v)) for r in range(n)}
        if tag == "reduce":
            _, root, op = signature
            total = fold(op, ordered)
            zero = 0 if isinstance(total, int) else 0.0
            return {r: (total if r == root else zero) for r in range(n)}
        if tag == "allreduce":
            op = signature[1]
            total = fold(op, ordered)
            return {r: total for r in range(n)}
        if tag == "scan":
            op = signature[1]
            out: Dict[int, object] = {}
            acc = None
            for r in range(n):
                acc = ordered[r] if acc is None else fold(op, [acc, ordered[r]])
                out[r] = acc
            return out
        if tag in ("reduce_array", "allreduce_array"):
            op = signature[2] if tag == "reduce_array" else signature[1]
            arrays: List[Array] = ordered  # type: ignore[assignment]
            self._check_same_length(arrays, tag)
            proto = arrays[0]
            rows = [a.data for a in arrays]
            data = fold_rows(op, rows, proto.elem)
            if data is None:
                data = [fold(op, column, as_int=proto.elem == "int")
                        for column in zip(*rows)]
            out_arr = Array(data, proto.elem, proto.shape)
            if tag == "reduce_array":
                root = signature[1]
                return {r: (out_arr if r == root else None) for r in range(n)}
            return {r: out_arr for r in range(n)}
        if tag in ("gather", "allgather"):
            chunks: List[Array] = ordered  # type: ignore[assignment]
            self._check_same_length(chunks, tag)
            data: List = []
            for a in chunks:
                data.extend(a.data)
            full = Array(data, chunks[0].elem, (len(data),))
            if tag == "gather":
                root = signature[1]
                return {r: (full if r == root else None) for r in range(n)}
            return {r: full for r in range(n)}
        raise AssertionError(tag)  # pragma: no cover

    # -- public collective API ---------------------------------------------------

    def mpi_barrier(self, ctx: ExecCtx) -> None:
        self._collective(ctx, "barrier", ("barrier",), None, 0)

    def mpi_bcast_scalar(self, ctx: ExecCtx, value, root):
        root = self._validate_rank(root, "root rank")
        return self._collective(ctx, "bcast", ("bcast", root), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def mpi_bcast_array(self, ctx: ExecCtx, arr: Array, root) -> None:
        root = self._validate_rank(root, "root rank")
        result = self._collective(ctx, "bcast", ("bcast_array", root), arr,
                                  nbytes(arr))
        assert isinstance(result, Array)
        if len(result.data) != len(arr.data):
            raise MPIUsageError(
                f"mpi_bcast_array: rank {self.rank} buffer has "
                f"{len(arr.data)} elements, root sent {len(result.data)}"
            )
        if self.rank != root:
            arr.data[:] = result.data
        ctx.cost += 0.5 * len(arr.data)

    def mpi_reduce_scalar(self, ctx: ExecCtx, value, op, root):
        root = self._validate_rank(root, "root rank")
        return self._collective(ctx, "reduce", ("reduce", root, op), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def mpi_allreduce_scalar(self, ctx: ExecCtx, value, op):
        return self._collective(ctx, "allreduce", ("allreduce", op), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def mpi_scan_scalar(self, ctx: ExecCtx, value, op):
        return self._collective(ctx, "scan", ("scan", op), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def _check_same_length(self, arrays: List[Array], what: str) -> int:
        lengths = {len(a.data) for a in arrays}
        if len(lengths) != 1:
            raise MPIUsageError(
                f"{what}: ranks passed arrays of different lengths "
                f"{sorted(lengths)}"
            )
        return lengths.pop()

    def mpi_reduce_array(self, ctx: ExecCtx, arr: Array, op, root) -> None:
        root = self._validate_rank(root, "root rank")
        result = self._collective(
            ctx, "reduce", ("reduce_array", root, op, len(arr.data)),
            arr, nbytes(arr),
        )
        if self.rank == root:
            assert isinstance(result, Array)
            arr.data[:] = result.data
        ctx.cost += 1.0 * len(arr.data)

    def mpi_allreduce_array(self, ctx: ExecCtx, arr: Array, op) -> None:
        result = self._collective(
            ctx, "allreduce", ("allreduce_array", op, len(arr.data)),
            arr, nbytes(arr),
        )
        assert isinstance(result, Array)
        arr.data[:] = result.data
        ctx.cost += 1.0 * len(arr.data)

    def mpi_scatter_array(self, ctx: ExecCtx, arr: Array, root) -> Array:
        root = self._validate_rank(root, "root rank")
        n = self.world.nranks
        result = self._collective(
            ctx, "scatter", ("scatter", root, len(arr.data)), arr,
            nbytes(arr) / max(1, n),
        )
        assert isinstance(result, Array)
        if len(result.data) % n != 0:
            raise MPIUsageError(
                f"mpi_scatter_array: {len(result.data)} elements do not divide "
                f"evenly across {n} ranks (use padding or a gather-based scheme)"
            )
        k = len(result.data) // n
        chunk = Array(result.data[self.rank * k:(self.rank + 1) * k],
                      result.elem, (k,))
        ctx.cost += 0.5 * k
        return chunk

    def mpi_gather_array(self, ctx: ExecCtx, local: Array, root) -> Array:
        root = self._validate_rank(root, "root rank")
        result = self._collective(
            ctx, "gather", ("gather", root, len(local.data)), local,
            nbytes(local) * self.world.nranks,
        )
        if self.rank != root:
            return Array([], local.elem, (0,))
        assert isinstance(result, Array)
        ctx.cost += 0.5 * len(result.data)
        return result

    def mpi_allgather_array(self, ctx: ExecCtx, local: Array) -> Array:
        result = self._collective(
            ctx, "allgather", ("allgather", len(local.data)), local,
            nbytes(local) * self.world.nranks,
        )
        assert isinstance(result, Array)
        ctx.cost += 0.5 * len(result.data)
        return result.copy()


class HybridRankRuntime(MPIRankRuntime, OpenMPRuntime):
    """MPI+OpenMP: an MPI rank whose OpenMP pragmas run at a fixed thread
    count (the hybrid sweeps fix (ranks, threads) per run)."""

    model = "mpi+omp"

    def __init__(self, rank: int, world: CommWorld, threads: int):
        MPIRankRuntime.__init__(self, rank, world)
        self.threads = threads
        self.thread_counts = (threads,)

    def omp_parallel_for(self, env: dict, ctx: ExecCtx, pf: PForInfo) -> None:
        OpenMPRuntime.omp_parallel_for(self, env, ctx, pf)
        # fold the fixed-thread-count adjustment into the rank clock
        adj = ctx.parallel_adjust.pop(self.threads, 0.0)
        ctx.extra_units += adj
        prof = ctx.prof
        if prof is not None:
            # fold this region's named adjust shares the same way: they
            # become extra attributions, with the ideal-parallel remainder
            # (adj minus the named overheads, usually negative) credited
            # back to compute so conservation survives the fold
            named = prof.adjust.pop(self.threads, {})
            folded = 0.0
            for cat, units in named.items():
                prof.add_extra(cat, units)
                folded += units
            prof.add_extra("compute", adj - folded)

    def omp_critical(self, env: dict, ctx: ExecCtx, body) -> None:
        OpenMPRuntime.omp_critical(self, env, ctx, body)

    def omp_atomic(self, env: dict, ctx: ExecCtx, update, scalar_key) -> None:
        OpenMPRuntime.omp_atomic(self, env, ctx, update, scalar_key)


@dataclass
class MPIRunResult:
    """Outcome of one MPI job."""

    ret: object                      # rank 0's kernel return value
    args: Sequence[object]           # rank 0's (mutated) arguments
    sim_seconds: float               # max over ranks of the final clock
    error: Optional[BaseException] = None
    profile: Optional["RunProfile"] = None  # job-level breakdown (opt-in)


def run_mpi(
    program: CompiledProgram,
    kernel: str,
    args: Sequence[object],
    nranks: int,
    machine: Machine,
    work_scale: float = 1.0,
    fuel: Optional[int] = None,
    threads_per_rank: int = 0,
    watchdog_timeout: float = 600.0,
    profile: bool = False,
    vectorize: bool = True,
    vec_stats=None,
) -> MPIRunResult:
    """Run ``kernel`` on ``nranks`` simulated ranks with replicated inputs.

    ``threads_per_rank > 0`` selects the hybrid MPI+OpenMP runtime.
    Inputs are deep-copied per rank (PCGBench MPI prompts state the data
    is replicated on every rank); rank 0's copies are returned for
    correctness checking.

    ``watchdog_timeout`` bounds the host-side wait for the whole job: a
    rank that is wedged (stalled outside the communication layer, so the
    deadlock detector cannot see it) aborts the job with a
    ``RuntimeFailure`` once the timeout elapses, even while it holds the
    baton.
    """
    world = CommWorld(nranks, machine, work_scale)
    rank_args: List[List[object]] = [
        [deep_copy_value(a) for a in args] for _ in range(nranks)
    ]
    ctxs: List[ExecCtx] = []
    for r in range(nranks):
        if threads_per_rank > 0:
            rt: MPIRankRuntime = HybridRankRuntime(r, world, threads_per_rank)
        else:
            rt = MPIRankRuntime(r, world)
        ctx = ExecCtx(machine, rt, fuel=fuel, work_scale=work_scale,
                      vectorize=vectorize, vec_stats=vec_stats)
        if profile:
            from ..prof.record import ProfBuilder
            ctx.prof = ProfBuilder()
        ctxs.append(ctx)

    returns: List[object] = [None] * nranks

    def rank_main(r: int) -> None:
        try:
            if inject.ACTIVE is not None:
                rule = inject.ACTIVE.fire("runtime.mpi.stall", f"rank{r}")
                if rule is not None:
                    # wedged outside the communication layer, baton in
                    # hand: only the host watchdog can act
                    time.sleep(rule.param if rule.param > 0 else 2.0)
                    world.check_abort()
            returns[r] = program.run_kernel(kernel, ctxs[r], rank_args[r])
        except _Abort:
            pass
        except BaseException as exc:  # noqa: BLE001 - report any failure
            world.abort(exc)
        finally:
            world.finish_rank()

    if nranks == 1:
        world.start(lambda r: None)     # rank 0 runs inline, right here
        rank_main(0)
    else:
        # the low-level start: no handshake with the new thread (it runs
        # as soon as its launcher parks), and no rank thread is joined
        world.start(lambda r: _thread.start_new_thread(rank_main, (r,)))
        if not world.done.wait(timeout=watchdog_timeout):
            world.abort_wedged(RuntimeFailure("MPI job wedged (host watchdog)"))
    # break the world -> rank_main -> ctxs -> world cycle, so the job's
    # arrays are freed now rather than at some later garbage collection
    world.launch = None

    failure = world.failure
    if failure is not None:
        return MPIRunResult(ret=None, args=rank_args[0], sim_seconds=0.0,
                            error=failure)
    sim = max(
        (c.cost * c.work_scale + c.extra_units) * machine.cpu.cycle for c in ctxs
    )
    job_profile = _job_profile(ctxs, sim) if profile else None
    return MPIRunResult(ret=returns[0], args=rank_args[0], sim_seconds=sim,
                        profile=job_profile)


def _job_profile(ctxs: Sequence[ExecCtx], sim_seconds: float) -> "RunProfile":
    """Fold per-rank breakdowns into one job profile.

    Categories are the per-rank *means*; the gap between the slowest
    rank's clock (which defines ``sim_seconds``) and the mean is idle
    time — ranks waiting at MPI_Finalize for the straggler.  Summing the
    mean from the category sums (not the rank clocks) keeps the
    conservation identity ``sum(categories) == sim_seconds`` exact.
    """
    from ..prof.record import RunProfile, merge_counters
    cats: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for c in ctxs:
        for k, v in c.prof.categories_for(c, 1).items():
            cats[k] = cats.get(k, 0.0) + v
        merge_counters(counters, c.prof.counters)
    inv = 1.0 / len(ctxs)
    cats = {k: v * inv for k, v in cats.items()}
    mean = sum(cats.values())
    skew = sim_seconds - mean
    if skew > 0.0:
        cats["idle"] = cats.get("idle", 0.0) + skew
    elif skew:
        # negative skew is averaging float noise (~1 ulp); fold it into
        # compute so no category ever reports negative time
        cats["compute"] = cats.get("compute", 0.0) + skew
    counters["ranks"] = float(len(ctxs))
    return RunProfile(categories=cats, counters=counters)
