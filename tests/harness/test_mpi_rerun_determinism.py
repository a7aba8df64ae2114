"""Rerun determinism of deadlocking MPI samples with the static screen off.

Deadlocking samples are the ones whose failure detail used to depend on
how the OS interleaved the rank threads (and with it the ``EvalRun``
digest, which includes ``detail``).  Under the baton scheduler a rerun
must reproduce the detail byte for byte, and the detail must name the
blocked ranks and what each waits on.
"""

import re

import pytest

from repro.bench import PCGBench
from repro.harness import Runner
from repro.harness import runner as runner_mod
from repro.models import all_models
from repro.runtime.mpi import _DEADLOCK_SHOWN

RERUNS = 5
#: enough fuel to reach any of these samples' deadlocks, and a fraction
#: of the correctness budget, so the scan does not pay full price for the
#: samples that loop until they time out
SCAN_FUEL = 300_000

BLOCKED_RANK = re.compile(
    r"rank \d+ in (recv\(src=\d+, tag=-?\d+\)|collective #\d+ \w+ "
    r"\(\d+ of \d+ arrived\))")


@pytest.fixture(scope="module")
def deadlocking():
    """(prompt, source) of every distinct sort MPI / MPI+OpenMP sample
    that deadlocks: all seven LLMs, 50 samples at T=0.8, seed 1."""
    bench = PCGBench(problem_types=["sort"], models=["mpi", "mpi+omp"])
    runner = Runner(static_screen=False)
    cases = {}
    for llm in all_models():
        for prompt in bench.prompts:
            for sample in llm.generate(prompt, 50, 0.8, seed=1):
                cases.setdefault((prompt.uid, sample.source), prompt)
    found = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner_mod, "CORRECTNESS_FUEL", SCAN_FUEL)
        for (_, source), prompt in cases.items():
            if "DeadlockError" in runner.evaluate_sample(source, prompt).detail:
                found.append((prompt, source))
    return found


def test_scan_finds_both_kinds_of_deadlock(deadlocking):
    assert len(deadlocking) == 18
    models = {prompt.model for prompt, _ in deadlocking}
    assert models == {"mpi", "mpi+omp"}


def test_each_deadlock_reruns_to_one_detail(deadlocking):
    runner = Runner(static_screen=False)
    varied = {}
    for prompt, source in deadlocking:
        details = {runner.evaluate_sample(source, prompt).detail
                   for _ in range(RERUNS)}
        if len(details) != 1:
            varied[prompt.uid] = sorted(details)
    assert not varied


def test_detail_names_the_blocked_ranks(deadlocking):
    runner = Runner(static_screen=False)
    for prompt, source in deadlocking:
        result = runner.evaluate_sample(source, prompt)
        assert result.status == "runtime_error"
        m = re.search(r"(\d+) of (\d+) rank\(s\) blocked", result.detail)
        assert m, result.detail
        listed = BLOCKED_RANK.findall(result.detail)
        assert len(listed) == min(int(m.group(1)), _DEADLOCK_SHOWN), result.detail
