"""The fault injector: the runtime half of ``repro.faults``.

Instrumented code asks one question — ``inject.fire(point, key)`` — at each
named injection point.  The answer (a :class:`FaultRule` or ``None``) is a
pure function of the installed plan and a deterministic occurrence counter,
never of wall-clock time, thread arrival order, or randomness:

* Counters are keyed ``(point, scoped key)`` and advance by one per fire,
  so "the 3rd send on channel 0->1" means the same thing on every run.
* Keys are namespaced by the active :meth:`FaultInjector.scope` — the
  harness opens one scope per ``evaluate_sample`` call (named after the
  prompt and source hash, *not* the attempt), so a retried sample sees
  fresh occurrence indices past the ones its first attempt consumed, and
  a serial run and a scheduled run count identically.

The hot path is guarded twice: callers check ``if inject.ACTIVE is not
None`` before calling (one global load when no injector is installed),
and :meth:`fire` returns before taking the lock when the point has no
rules.  A fault-free plan therefore leaves the pipeline byte-identical —
the second chaos invariant.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .plan import FaultPlan, FaultRule

#: The process-global injector, or None.  Callers must guard every
#: ``fire()`` with ``if inject.ACTIVE is not None`` so the uninstalled
#: fast path costs a single module-attribute load.
ACTIVE: Optional["FaultInjector"] = None


class FaultInjected(Exception):
    """Raised by instrumented code when a rule asks for a hard failure.

    ``transient`` distinguishes faults the runner should retry (infra
    flake, OOM on a shared node) from ones it should not.  The class
    attribute ``injected`` lets classification code recognise injected
    faults without importing this module.
    """

    injected = True

    def __init__(self, point: str, detail: str = "", transient: bool = True):
        super().__init__(detail or f"injected fault at {point}")
        self.point = point
        self.transient = transient


@dataclass(frozen=True)
class FaultEvent:
    """One decision the injector made (fired or explicitly declined
    because the occurrence index did not match)."""

    point: str
    key: str
    index: int
    action: str
    fired: bool

    def line(self) -> str:
        mark = "FIRE" if self.fired else "skip"
        return f"{mark} {self.point} key={self.key} n={self.index} " \
               f"action={self.action}"


class _Scope:
    __slots__ = ("name", "counters", "fired")

    def __init__(self, name: str):
        self.name = name
        self.counters: Dict[Tuple[str, str], int] = {}
        self.fired = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named injection points.

    Thread-safe: the serve shards fire from their own threads.
    The event log records every decision at a point that *has rules*, in
    a canonical order (see :meth:`canonical_log`), so two runs can be
    compared without being sensitive to thread interleaving.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rules = plan.by_point()
        self._lock = threading.Lock()
        self._root = _Scope("")
        self._scopes = threading.local()
        self._named_scopes: Dict[str, _Scope] = {}
        self.events: List[FaultEvent] = []

    # -- scoping -------------------------------------------------------------

    def _scope(self) -> _Scope:
        return getattr(self._scopes, "scope", None) or self._root

    @contextmanager
    def scope(self, name: str):
        """Namespace occurrence counters under ``name`` for this thread.

        The harness opens one scope per evaluated sample so occurrence
        indices mean "the Nth event *while evaluating this sample*".
        Scopes do not reset across re-entry with the same name within a
        single injector — a retried attempt continues the count, which is
        what lets a transient single-occurrence fault succeed on retry.
        """
        prev = getattr(self._scopes, "scope", None)
        with self._lock:
            sc = self._named_scopes.get(name)
            if sc is None:
                sc = self._named_scopes[name] = _Scope(name)
        self._scopes.scope = sc
        try:
            yield sc
        finally:
            self._scopes.scope = prev

    # -- the injection point API ---------------------------------------------

    def fire(self, point: str, key: str = "") -> Optional[FaultRule]:
        """Advance the ``(point, key)`` occurrence counter and return the
        first matching rule, or None.  Counters advance only for points
        that have rules, so an installed-but-irrelevant injector never
        perturbs behaviour."""
        rules = self._rules.get(point)
        if not rules:
            return None
        scope = self._scope()
        qualified = f"{scope.name}|{key}" if scope.name else key
        ckey = (point, key)
        with self._lock:
            index = scope.counters.get(ckey, 0)
            scope.counters[ckey] = index + 1
            hit = None
            for rule in rules:
                if rule.match and rule.match not in qualified:
                    continue
                if rule.occurrences is not None \
                        and index not in rule.occurrences:
                    continue
                hit = rule
                break
            action = hit.action if hit is not None else rules[0].action
            self.events.append(FaultEvent(point=point, key=qualified,
                                          index=index, action=action,
                                          fired=hit is not None))
            if hit is not None:
                scope.fired += 1
        return hit

    def scope_fired(self) -> int:
        """Faults fired so far in this thread's active scope — lets the
        runner detect whether a pipeline phase was fault-perturbed."""
        return self._scope().fired

    # -- introspection -------------------------------------------------------

    def fired_events(self) -> List[FaultEvent]:
        with self._lock:
            return [e for e in self.events if e.fired]

    def canonical_log(self) -> List[str]:
        """The event stream in a canonical order: sorted by (point, key,
        index).  Occurrence counters are per-(point, key), so this order
        is invariant under thread interleaving — the form the
        same-seed-same-stream chaos invariant compares."""
        with self._lock:
            events = sorted(self.events,
                            key=lambda e: (e.point, e.key, e.index))
        return [e.line() for e in events]


# -- install / uninstall ---------------------------------------------------------


def install(plan: FaultPlan) -> FaultInjector:
    """Install a process-global injector for ``plan`` and return it.
    Nested installs are a usage error — uninstall first."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a FaultInjector is already installed")
    ACTIVE = FaultInjector(plan)
    return ACTIVE


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


def installed() -> Optional[FaultInjector]:
    return ACTIVE


@contextmanager
def injector(plan: FaultPlan):
    """``with injector(plan) as inj:`` — install for the duration."""
    inj = install(plan)
    try:
        yield inj
    finally:
        uninstall()


__all__ = ["ACTIVE", "FaultInjected", "FaultEvent", "FaultInjector",
           "install", "uninstall", "installed", "injector"]
