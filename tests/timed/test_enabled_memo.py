"""The timed automaton's memoized enabled snapshot.

``TimedDetectorAutomaton.enabled_by_task`` builds its snapshot directly
and keeps the last ``(state, snapshot)`` pair.  On every state of real
runs (a crash, lossy channels) it must equal the generic
``Automaton.enabled_by_task`` — same tasks, same order, same tuples —
whether it is asked cold, again on the same state, or after a caller
mutated an earlier result.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.ioa.automaton import Automaton
from repro.ioa.scheduler import Scheduler
from repro.system.fault_pattern import FaultPattern
from repro.timed.registry import build_automaton, implementation_names

LOCS = (0, 1, 2)
CRASHES = {1: 90}
MAX_STEPS = 400


def lossy_run(impl, compiled=False):
    automaton = build_automaton(
        impl,
        LOCS,
        params={"timeout": 3, "delay": {"jitter": 2}},
        seed=11,
        plan=FaultPlan.uniform(drop_p=0.3, seed=4),
    )
    execution = Scheduler(compiled=compiled).run(
        automaton,
        max_steps=MAX_STEPS,
        injections=FaultPattern(CRASHES).injections(),
    )
    return automaton, execution


def reference(automaton, state):
    return list(Automaton.enabled_by_task(automaton, state).items())


@pytest.mark.parametrize("impl", implementation_names())
def test_snapshot_equals_generic_snapshot_on_every_state(impl):
    automaton, execution = lossy_run(impl)
    states = list(execution.states)
    crashed = automaton.crashed_locations(execution.final_state)
    assert crashed == (1,)
    for state in states:
        # A new state object misses the memo, the repeat hits it.
        want = reference(automaton, state)
        assert list(automaton.enabled_by_task(state).items()) == want
        assert list(automaton.enabled_by_task(state).items()) == want
    assert "out[1]" not in automaton.enabled_by_task(states[-1])


@pytest.mark.parametrize("impl", implementation_names())
def test_mutating_a_result_does_not_leak_into_the_next(impl):
    automaton, execution = lossy_run(impl)
    state = execution.final_state
    want = reference(automaton, state)
    snapshot = automaton.enabled_by_task(state)
    snapshot.clear()
    snapshot["clock"] = ()
    assert list(automaton.enabled_by_task(state).items()) == want


@pytest.mark.parametrize("impl", implementation_names())
def test_compiled_run_replays_the_interpreted_run(impl):
    _automaton, interpreted = lossy_run(impl)
    _automaton, compiled = lossy_run(impl, compiled=True)
    assert list(compiled.actions) == list(interpreted.actions)
    assert list(compiled.states) == list(interpreted.states)
