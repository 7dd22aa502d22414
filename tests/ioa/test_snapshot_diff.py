"""The composition's identity-diffed enabled snapshots.

:meth:`Composition.enabled_by_task` keeps the previous state's pieces and
per-component groups and recomputes only the pieces that are not the
same objects as before.  The snapshot must equal a fresh full merge of
every component's groups — the same keys in the same insertion order,
with the same action tuples — on a chaos consensus run (lossy channels,
the interpreted step loop) and on a tagged-tree build (snapshots of
unrelated configurations, asked in discovery order).  With the cache off
every piece is recomputed.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.omega import Omega
from repro.faults.plan import FaultPlan
from repro.ioa.composition import Composition
from repro.obs.prof import cache_counter
from repro.system.fault_pattern import FaultPattern
from repro.tree.tagged_tree import TaggedTreeGraph
from tests.tree.conftest import build_tree_system, one_crash_td

LOCS = (0, 1, 2)


def full_merge(composition, state):
    """Every component's groups, recomputed and merged in component order."""
    snapshot = {}
    for component, piece in zip(composition.components, state):
        prefix = component.name + composition.TASK_SEPARATOR
        for local, actions in component.enabled_by_task(piece).items():
            snapshot[prefix + local] = actions
    return snapshot


@pytest.fixture
def checked_snapshots(monkeypatch):
    """Route every composition snapshot through a full-merge comparison;
    yields the list of (composition, state) pairs that were checked."""
    diffed = Composition.enabled_by_task
    checked = []

    def enabled_by_task(self, state):
        snapshot = diffed(self, state)
        assert list(snapshot.items()) == list(full_merge(self, state).items())
        checked.append((self, state))
        return snapshot

    monkeypatch.setattr(Composition, "enabled_by_task", enabled_by_task)
    return checked


def chaos_run():
    return run_consensus_experiment(
        omega_consensus_algorithm(LOCS),
        Omega(LOCS),
        proposals={0: 1, 1: 0, 2: 1},
        fault_pattern=FaultPattern({2: 40}, LOCS),
        f=1,
        max_steps=400,
        fault_plan=FaultPlan.uniform(drop_p=0.2, seed=7),
    )


def test_chaos_run_snapshots_equal_full_merge(checked_snapshots):
    counter = cache_counter("composition.enabled")
    hits = counter.hits
    result = chaos_run()
    assert result.messages_sent > 0
    assert len(checked_snapshots) >= len(result.execution.actions) > 20
    # Unchanged pieces are reused and booked as hits.
    assert counter.hits > hits


def test_tagged_tree_snapshots_equal_full_merge(checked_snapshots):
    _algorithm, composition = build_tree_system()
    graph = TaggedTreeGraph(composition, one_crash_td(), max_vertices=50_000)
    assert graph.num_vertices > 10
    assert sum(1 for c, _ in checked_snapshots if c is composition) > 10


def test_snapshot_reuses_only_identical_pieces():
    _algorithm, composition = build_tree_system()
    state = composition.initial_state()
    counter = cache_counter("composition.enabled")
    first = composition.enabled_by_task(state)
    before = (counter.hits, counter.misses)
    # The same state again: every piece is the same object.
    assert composition.enabled_by_task(state) == first
    assert counter.hits - before[0] == len(state)
    assert counter.misses == before[1]
    # An equal but rebuilt state: its pieces are new objects (bar shared
    # singletons), which go through the warm per-component memo instead.
    rebuilt = pickle.loads(pickle.dumps(state))
    assert any(p is not q for p, q in zip(rebuilt, state))
    before = (counter.hits, counter.misses)
    assert list(composition.enabled_by_task(rebuilt).items()) == list(
        first.items()
    )
    assert counter.hits - before[0] == len(state)
    assert counter.misses == before[1]


def test_uncached_snapshot_recomputes_every_piece():
    _algorithm, cached = build_tree_system()
    uncached = Composition(
        cached.components, name="tree-system", use_enabled_cache=False
    )
    recomputed = []
    component_enabled = uncached._component_enabled

    def counting(index, piece):
        recomputed.append(index)
        return component_enabled(index, piece)

    uncached._component_enabled = counting
    state = uncached.initial_state()
    for _ in range(3):
        recomputed.clear()
        snapshot = uncached.enabled_by_task(state)
        assert recomputed == list(range(len(state)))
        assert list(snapshot.items()) == list(full_merge(uncached, state).items())
    assert snapshot == cached.enabled_by_task(state)
