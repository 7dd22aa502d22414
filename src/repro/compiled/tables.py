"""The composition-time compiler: automata lowered to flat dispatch tables.

:class:`CompiledAutomaton` lowers *any* automaton satisfying the module
contract (immutable hashable states, pure ``apply``) into id-indexed
tables; :class:`CompiledComposition` specializes the lowering for
:class:`~repro.ioa.composition.Composition`, interning state *pieces*
per component so a step re-hashes only the pieces the fired action
actually replaced — the same invalidation insight as PR 3's
per-component enabled cache, now paying integer-tuple hashes instead of
nested-state hashes.

The tables, all dense lists indexed by action id / state id:

================  ==========================================================
action id         ``-> Action`` (canonical first-seen object), owner
                  component index, participant index tuple, task index,
                  chan-tick flag — the flattened form of
                  ``Composition._dispatch`` + ``task_of``
state/config id   ``-> state`` (materialized canonical value) and the
                  *enabled snapshot*: per task index, the enabled action
                  ids sorted in Action order (so ``aids[0]`` is the
                  round-robin policy's ``min(enabled)`` and the tuple is
                  the random policy's ``sorted(enabled)``)
(state, action)   ``-> state id`` — the memoized transition relation
                  (the apply thunk over interned ids)
================  ==========================================================

First sightings fall back to the interpreted implementations
(``signature`` predicate scans via ``Composition._dispatch``, component
``enabled_by_task``, component ``apply``), so infinite predicate-based
signatures keep working and the interpreted semantics remain the single
source of truth; everything after the first sighting is list indexing
and int-keyed dict probes.

``CompiledAutomaton`` *is* an :class:`~repro.ioa.automaton.Automaton`:
``initial_state``/``apply`` route through the tables (this is what the
lint contract layer's compiled subjects exercise — REPROC02/REPROC04
against the compiled apply thunks), while ``enabled_locally``/
``tasks``/``task_of`` delegate to the base automaton, whose enumeration
order is part of the observable contract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.composition import Composition
from repro.ioa.signature import Signature
from repro.compiled.intern import Interner
from repro.obs.prof import cache_counter

#: The chaos channels' delay-aging action name (kept in sync with
#: :data:`repro.ioa.scheduler.CHAN_TICK`; duplicated to keep this module
#: import-light).
_CHAN_TICK = "chan-tick"


class CompiledAutomaton(Automaton):
    """A generic automaton lowered to interned-id tables.

    Suitable for single automata (the detector-trace workload, the lint
    contract subjects); compositions get the piece-level specialization
    below.  The lowering is lazy: tables grow as states and actions are
    first sighted, because predicate-based signatures make the action
    universe non-enumerable up front.
    """

    def __init__(self, automaton: Automaton):
        super().__init__(f"compiled({automaton.name})")
        self.base = automaton
        self.task_names: Tuple[str, ...] = tuple(automaton.tasks())
        self._task_index: Dict[str, int] = {
            task: index for index, task in enumerate(self.task_names)
        }
        self._actions = Interner("action")
        #: action id -> the action fires the chaos channels' delay ager
        self._is_tick: List[bool] = []
        #: state id -> per-task-index enabled action ids (None when the
        #: task has nothing enabled), plus the dense non-empty projection
        #: in task order (what the random policy twin draws from).
        self._snap_full: List[Tuple[Optional[Tuple[int, ...]], ...]] = []
        self._snap_dense: List[Tuple[Tuple[int, ...], ...]] = []
        self._apply_memo: Dict[Tuple[int, int], int] = {}
        self._c_apply = cache_counter("compiled.apply")
        self._states = Interner("state")

    # -- Interning ----------------------------------------------------------

    def intern_config(self, state: State) -> int:
        """The id of a full automaton state, building its enabled
        snapshot on first sighting."""
        fresh = len(self._states)
        sid = self._states.intern(state)
        if sid == fresh:
            self._build_snapshot(state)
        return sid

    def intern_action(self, action: Action) -> int:
        """The id of an action, running the interpreted dispatch scan on
        first sighting (so dispatch errors surface exactly as they do on
        the interpreted path)."""
        fresh = len(self._actions)
        aid = self._actions.intern(action)
        if aid == fresh:
            self._register_action(action)
        return aid

    def _build_snapshot(self, state: State) -> None:
        full: List[Optional[Tuple[int, ...]]] = [None] * len(self.task_names)
        for task, actions in self.base.enabled_by_task(state).items():
            full[self._task_index[task]] = tuple(
                self.intern_action(a) for a in sorted(actions)
            )
        self._snap_full.append(tuple(full))
        self._snap_dense.append(tuple(a for a in full if a))

    def _register_action(self, action: Action) -> None:
        self._is_tick.append(action.name == _CHAN_TICK)

    # -- The loop-facing table API ------------------------------------------

    def state_of(self, cid: int) -> State:
        return self._states.value_of(cid)

    def action_of(self, aid: int) -> Action:
        return self._actions.value_of(aid)

    def is_tick(self, aid: int) -> bool:
        return self._is_tick[aid]

    def snapshot_full(self, cid: int) -> Tuple[Optional[Tuple[int, ...]], ...]:
        return self._snap_full[cid]

    def snapshot_dense(self, cid: int) -> Tuple[Tuple[int, ...], ...]:
        return self._snap_dense[cid]

    def apply_ids(self, cid: int, aid: int) -> int:
        """The transition relation over ids, memoized."""
        key = (cid, aid)
        nid = self._apply_memo.get(key)
        if nid is not None:
            self._c_apply.hits += 1
            return nid
        self._c_apply.misses += 1
        nid = self._transition(cid, aid)
        self._apply_memo[key] = nid
        return nid

    def _transition(self, cid: int, aid: int) -> int:
        return self.intern_config(
            self.base.apply(self.state_of(cid), self.action_of(aid))
        )

    # -- Housekeeping -------------------------------------------------------

    @property
    def num_configs(self) -> int:
        return len(self._snap_full)

    def table_sizes(self) -> Dict[str, int]:
        """Current table cardinalities (for metadata and the run ledger)."""
        return {
            "actions": len(self._actions),
            "configs": self.num_configs,
            "transitions": len(self._apply_memo),
        }

    def reset_tables(self) -> None:
        """Drop every table (safe only between runs; ids are reborn).

        The step-loop drivers call this when the config table outgrows
        :data:`repro.compiled.system.TABLE_CAP`, bounding memory on
        workloads whose state stream never repeats (chaos channels age
        a counter every tick)."""
        self._actions.clear()
        self._is_tick.clear()
        self._snap_full.clear()
        self._snap_dense.clear()
        self._apply_memo.clear()
        self._states.clear()

    # -- Automaton interface (the lint contract layer's view) ---------------

    @property
    def signature(self) -> Signature:
        return self.base.signature

    def initial_state(self) -> State:
        return self.state_of(self.intern_config(self.base.initial_state()))

    def apply(self, state: State, action: Action) -> State:
        return self.state_of(
            self.apply_ids(self.intern_config(state), self.intern_action(action))
        )

    def enabled_locally(self, state: State) -> Iterable[Action]:
        return self.base.enabled_locally(state)

    def enabled(self, state: State, action: Action) -> bool:
        return self.base.enabled(state, action)

    def tasks(self) -> Sequence[str]:
        return self.task_names

    def task_of(self, action: Action) -> Optional[str]:
        return self.base.task_of(action)


class CompiledComposition(CompiledAutomaton):
    """The piece-level lowering of a :class:`Composition`.

    A configuration is interned as the tuple of its per-component piece
    ids, so the hot path hashes small integer tuples instead of nested
    state values; a transition re-interns only the fired action's
    participant pieces.  Enabled groups are computed once per distinct
    piece (one ``enabled_by_task`` call on the owning component) and
    stitched into per-config snapshots at config interning.
    """

    def __init__(self, composition: Composition):
        if not isinstance(composition, Composition):
            raise TypeError(
                "CompiledComposition lowers Composition instances; use "
                f"CompiledAutomaton for {type(composition).__name__}"
            )
        super().__init__(composition)
        ncomp = len(composition.components)
        #: per component: piece -> piece id, and the id-indexed pieces
        self._piece_ids: List[Dict[State, int]] = [{} for _ in range(ncomp)]
        self._pieces: List[List[State]] = [[] for _ in range(ncomp)]
        #: per component, per piece id: ((task index, enabled aids), ...)
        self._piece_groups: List[List[Tuple[Tuple[int, Tuple[int, ...]], ...]]] = [
            [] for _ in range(ncomp)
        ]
        #: config = tuple of piece ids -> config id
        self._config_ids: Dict[Tuple[int, ...], int] = {}
        self._config_pids: List[Tuple[int, ...]] = []
        self._config_states: List[State] = []
        #: action id -> participant component indices
        self._action_parts: List[Tuple[int, ...]] = []
        self._c_piece = cache_counter("compiled.piece")
        self._c_config = cache_counter("compiled.config")

    # -- Interning ----------------------------------------------------------

    def intern_config(self, state: State) -> int:
        pids = tuple(
            self._intern_piece(index, piece)
            for index, piece in enumerate(state)
        )
        return self._intern_pids(pids)

    def _intern_piece(self, index: int, piece: State) -> int:
        ids = self._piece_ids[index]
        pid = ids.get(piece)
        if pid is not None:
            self._c_piece.hits += 1
            return pid
        self._c_piece.misses += 1
        pid = len(self._pieces[index])
        ids[piece] = pid
        self._pieces[index].append(piece)
        component = self.base.components[index]
        prefix = component.name + self.base.TASK_SEPARATOR
        groups = tuple(
            (
                self._task_index[prefix + local],
                tuple(self.intern_action(a) for a in sorted(actions)),
            )
            for local, actions in component.enabled_by_task(piece).items()
        )
        self._piece_groups[index].append(groups)
        return pid

    def _intern_pids(self, pids: Tuple[int, ...]) -> int:
        cid = self._config_ids.get(pids)
        if cid is not None:
            self._c_config.hits += 1
            return cid
        self._c_config.misses += 1
        cid = len(self._config_pids)
        self._config_ids[pids] = cid
        self._config_pids.append(pids)
        pieces = self._pieces
        self._config_states.append(
            tuple(pieces[k][pid] for k, pid in enumerate(pids))
        )
        full: List[Optional[Tuple[int, ...]]] = [None] * len(self.task_names)
        piece_groups = self._piece_groups
        for k, pid in enumerate(pids):
            for task_index, aids in piece_groups[k][pid]:
                full[task_index] = aids
        self._snap_full.append(tuple(full))
        self._snap_dense.append(tuple(a for a in full if a))
        return cid

    def _register_action(self, action: Action) -> None:
        # The interpreted dispatch scan is the authority: it performs the
        # lazy one-output-owner compatibility check and raises
        # CompositionError on ambiguity *before* an id is assigned, so an
        # ambiguous action keeps raising on every sighting, exactly as on
        # the interpreted path.
        _owner, participants = self.base._dispatch(action)
        self._action_parts.append(participants)
        self._is_tick.append(action.name == _CHAN_TICK)

    # -- Transitions --------------------------------------------------------

    def state_of(self, cid: int) -> State:
        return self._config_states[cid]

    def _transition(self, cid: int, aid: int) -> int:
        pids = list(self._config_pids[cid])
        action = self.action_of(aid)
        components = self.base.components
        pieces = self._pieces
        for k in self._action_parts[aid]:
            pids[k] = self._intern_piece(
                k, components[k].apply(pieces[k][pids[k]], action)
            )
        return self._intern_pids(tuple(pids))

    # -- Housekeeping -------------------------------------------------------

    def table_sizes(self) -> Dict[str, int]:
        sizes = super().table_sizes()
        sizes["pieces"] = sum(len(column) for column in self._pieces)
        return sizes

    def reset_tables(self) -> None:
        super().reset_tables()
        dropped = 0
        for index in range(len(self._pieces)):
            dropped += len(self._pieces[index])
            self._piece_ids[index].clear()
            self._pieces[index].clear()
            self._piece_groups[index].clear()
        self._c_piece.evictions += dropped
        self._c_config.evictions += len(self._config_pids)
        self._config_ids.clear()
        self._config_pids.clear()
        self._config_states.clear()
        self._action_parts.clear()


def compile_automaton(automaton: Automaton) -> CompiledAutomaton:
    """The compiled core for ``automaton`` (cached per instance).

    The same automaton object is lowered once, however many schedulers
    or tree builds route through it.  The core is held on the instance:
    it refers back to the automaton (``core.base``), so the pair forms
    one cycle the garbage collector frees together.
    """
    if isinstance(automaton, CompiledAutomaton):
        return automaton
    core = automaton.__dict__.get("_compiled_core")
    if core is None:
        core = (
            CompiledComposition(automaton)
            if isinstance(automaton, Composition)
            else CompiledAutomaton(automaton)
        )
        automaton._compiled_core = core
    return core
