"""The four workloads: seed-derived inputs, set-up, and one timed pass each.

Every input is derived from the workload seed through ``derive_seed``; the
library receives only the generated specs.  A pass runs one spec at a time
(one closed-loop client, ``jobs=1``) through the public surface only:
``run_spec``, ``repro.api.compile(spec).run(...)`` and
``BatchRunner(cache=ResultStore)``.

Each pass returns one :class:`Outcome` per spec in spec order, so the
caller can check every result against the recorded reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import (
    BatchRunner,
    ExperimentSpec,
    FaultPlan,
    ResultStore,
    compile as compile_system,
    ct_consensus_algorithm,
    derive_seed,
    omega_consensus_algorithm,
    perfect_consensus_algorithm,
    run_spec,
)

#: (label, algorithm factory, detector name, resilience f as a function of n)
STACKS = (
    ("Omega", omega_consensus_algorithm, "omega", lambda n: (n - 1) // 2),
    ("P", perfect_consensus_algorithm, "p", lambda n: n - 1),
    ("EvS", ct_consensus_algorithm, "evs", lambda n: (n - 1) // 2),
)
SIZES = (3, 4, 5)

CHAOS_DROP_RATES = (0.0, 0.1, 0.2, 0.3)
CHAOS_RUNS_PER_CELL = 4
# Lossy runs decide within ~200 steps or stall for good.  The budget keeps
# a stalled run at ~4x a decided one: the pass stays step-loop bound, and a
# seed that stalls a few more runs moves the pass wall only a little.
CHAOS_MAX_STEPS = 400

SEED_RUNS_PER_PATTERN = 6

TIMED_IMPLEMENTATIONS = ("heartbeat", "ping-pong", "leader-lease")
TIMED_TIMEOUTS = (2, 5, 8)
TIMED_DROP_RATES = (0.0, 0.3, 1.0)
TIMED_DELAYS = (
    ("jitter", {"jitter": 2}),
    ("gst", {"jitter": 6, "gst": 150, "post_jitter": 1}),
)
TIMED_MAX_STEPS = 500

#: Re-sweeps of the whole store per warm-resweep pass.  A hit costs ~0.1 ms,
#: so a pass lasts ~0.15 s.
WARM_SWEEPS_PER_PASS = 5


@dataclass
class Outcome:
    """One spec's result in a pass, or the error it raised instead."""

    result: Any = None
    error: Optional[str] = None


@dataclass
class Prepared:
    """A workload's generated inputs and any state its set-up built."""

    specs: List[ExperimentSpec]
    families: List[Tuple[ExperimentSpec, List[Dict[str, Any]]]] = field(
        default_factory=list
    )
    store: Optional[ResultStore] = None
    #: warm-resweep: digest rows of the results the store fill computed.
    fill: List[Optional[str]] = field(default_factory=list)


def result_digest(result) -> str:
    """Short digest of a result's deterministic fields.

    Covers solved, decided, the detector and consensus verdicts, the
    decisions, steps, messages and the conformance verdict with its
    violation index; wall time and labels are left out.
    """
    conformance = result.conformance or {}
    row = [
        result.solved,
        result.all_live_decided,
        result.fd_ok,
        result.consensus_ok,
        sorted([str(k), v] for k, v in result.decisions.items()),
        result.steps,
        result.messages_sent,
        conformance.get("ok"),
        conformance.get("violation_index"),
    ]
    blob = json.dumps(row, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def digest_of(outcome: Outcome) -> Optional[str]:
    """The outcome's digest row; ``None`` for an error, which matches no row."""
    return None if outcome.result is None else result_digest(outcome.result)


def _outcome(result) -> Outcome:
    if result.error is not None:
        return Outcome(error=result.error)
    return Outcome(result=result)


def _failed(exc: Exception) -> Outcome:
    return Outcome(error=f"{type(exc).__name__}: {exc}")


def _run_one(span, fn, *args, **kwargs) -> Outcome:
    try:
        return _outcome(span("runner", fn, *args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - counted as a failed spec
        return _failed(exc)


# -- Spec generation --------------------------------------------------------


def _proposals(seed: int, locations) -> Dict[int, int]:
    return {i: derive_seed(seed, "proposal", i) % 2 for i in locations}


def chaos_specs(seed: int) -> List[ExperimentSpec]:
    """Consensus stacks under seeded uniform message loss, interpreted."""
    specs = []
    for label, algorithm, detector, f_of in STACKS:
        for n in SIZES:
            locations = tuple(range(n))
            for rate in CHAOS_DROP_RATES:
                for k in range(CHAOS_RUNS_PER_CELL):
                    run_seed = derive_seed(seed, "consensus-chaos", label, n, rate, k)
                    specs.append(
                        ExperimentSpec(
                            algorithm=algorithm,
                            detector=detector,
                            locations=locations,
                            proposals=_proposals(run_seed, locations),
                            f=f_of(n),
                            seed=run_seed,
                            max_steps=CHAOS_MAX_STEPS,
                            fault_plan=(
                                FaultPlan.uniform(drop_p=rate) if rate else None
                            ),
                            label=f"{label}|n{n}|p{rate}|{k}",
                        )
                    )
    return specs


def seed_families(seed: int) -> List[Tuple[ExperimentSpec, List[Dict[str, Any]]]]:
    """One base spec per (stack, n) plus its crash-pattern x policy-seed runs."""
    families = []
    for label, algorithm, detector, f_of in STACKS:
        for n in SIZES:
            locations = tuple(range(n))
            family_seed = derive_seed(seed, "consensus-seeds", label, n)
            base = ExperimentSpec(
                algorithm=algorithm,
                detector=detector,
                locations=locations,
                proposals=_proposals(family_seed, locations),
                f=f_of(n),
                policy="random",
                max_steps=5000,
                label=f"{label}|n{n}",
            )
            victims = (None, 0, n - 1, 1)  # no crash, or a crash of one location
            runs = []
            for slot, victim in enumerate(victims):
                for k in range(SEED_RUNS_PER_PATTERN):
                    run_seed = derive_seed(family_seed, "run", slot, k)
                    crashes = (
                        {}
                        if victim is None
                        else {victim: 1 + derive_seed(run_seed, "crash-step") % 40}
                    )
                    runs.append({"seed": run_seed, "crashes": crashes})
            families.append((base, runs))
    return families


def timed_specs(seed: int) -> List[ExperimentSpec]:
    """Timed implementations over timeout x drop x delay model."""
    specs = []
    for impl in TIMED_IMPLEMENTATIONS:
        for timeout in TIMED_TIMEOUTS:
            for rate in TIMED_DROP_RATES:
                for delay_label, delay in TIMED_DELAYS:
                    run_seed = derive_seed(
                        seed, "timed-conformance", impl, timeout, rate, delay_label
                    )
                    specs.append(
                        ExperimentSpec(
                            detector=impl,
                            locations=(0, 1, 2),
                            problem="timed-detector",
                            crashes={2: 100 + derive_seed(run_seed, "crash-step") % 100},
                            seed=run_seed,
                            max_steps=TIMED_MAX_STEPS,
                            timed={"timeout": timeout, "lease": timeout + 4, "delay": delay},
                            fault_plan=(
                                FaultPlan.uniform(drop_p=rate) if rate else None
                            ),
                            label=f"{impl}|t{timeout}|p{rate}|{delay_label}",
                        )
                    )
    return specs


def family_specs(families) -> List[ExperimentSpec]:
    """The seed-sweep runs as standalone specs (compiled engine, per spec)."""
    return [
        dataclasses.replace(base, compiled=True, **run)
        for base, runs in families
        for run in runs
    ]


# -- Passes -----------------------------------------------------------------


def _spec_pass(prepared: Prepared, span) -> List[Outcome]:
    return [_run_one(span, run_spec, spec) for spec in prepared.specs]


def _seeds_pass(prepared: Prepared, span) -> List[Outcome]:
    outcomes = []
    for base, runs in prepared.families:
        try:
            compiled = span("compiled", compile_system, base)
        except Exception as exc:  # noqa: BLE001 - every run of the family fails
            outcomes.extend(_failed(exc) for _ in runs)
            continue
        for run in runs:
            outcomes.append(_run_one(span, compiled.run, **run))
    return outcomes


def _warm_pass(prepared: Prepared, span) -> List[Outcome]:
    outcomes = []
    for _ in range(WARM_SWEEPS_PER_PASS):
        runner = BatchRunner(jobs=1, cache=prepared.store)
        try:
            batch = span("runner", runner.run, prepared.specs)
        except Exception as exc:  # noqa: BLE001 - the whole sweep fails
            outcomes.extend(_failed(exc) for _ in prepared.specs)
            continue
        # BatchResult reports hit/miss counts only, so one miss (one
        # kernel execution) fails every spec of the sweep.
        all_hit = batch.cache_misses == 0 and batch.cache_hits == len(prepared.specs)
        for result in batch.results:
            outcomes.append(
                _outcome(result)
                if all_hit
                else Outcome(error="cache miss: a spec was executed")
            )
    return outcomes


# -- Set-up -----------------------------------------------------------------


def _prepare_chaos(seed: int, _store_dir: Optional[str]) -> Prepared:
    return Prepared(specs=chaos_specs(seed))


def _prepare_seeds(seed: int, _store_dir: Optional[str]) -> Prepared:
    families = seed_families(seed)
    return Prepared(specs=family_specs(families), families=families)


def _prepare_timed(seed: int, _store_dir: Optional[str]) -> Prepared:
    return Prepared(specs=timed_specs(seed))


def _prepare_warm(seed: int, store_dir: Optional[str]) -> Prepared:
    if store_dir is None:
        raise ValueError("warm-resweep needs a fresh store directory")
    specs = family_specs(seed_families(seed)) + timed_specs(seed)
    store = ResultStore(store_dir)
    fill = BatchRunner(jobs=1, cache=store).run(specs)
    return Prepared(
        specs=specs,
        store=store,
        fill=[digest_of(_outcome(result)) for result in fill.results],
    )


def _warm_up_specs(prepared: Prepared, span) -> None:
    """One run of each spec kind, so lazy first-call costs land in set-up."""
    seen = set()
    for spec in prepared.specs:
        kind = (spec.problem, str(spec.detector), spec.compiled)
        if kind not in seen:
            seen.add(kind)
            span("runner", run_spec, spec)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Optional[str]], Prepared]
    run_pass: Callable[[Prepared, Any], List[Outcome]]
    #: Reference sections whose rows, concatenated, are this workload's.
    reference: Tuple[str, ...]

    def setup(self, seed: int, store_dir: str, span) -> Prepared:
        """Generate the inputs and pay every first-call cost.

        A workload with a store pays them in its fill, which runs every spec.
        """
        prepared = self.prepare(seed, store_dir)
        if prepared.store is None:
            _warm_up_specs(prepared, span)
        return prepared


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("consensus-chaos", _prepare_chaos, _spec_pass, ("consensus-chaos",)),
        Workload(
            "consensus-seeds", _prepare_seeds, _seeds_pass, ("consensus-seeds",)
        ),
        Workload(
            "timed-conformance", _prepare_timed, _spec_pass, ("timed-conformance",)
        ),
        Workload(
            "warm-resweep",
            _prepare_warm,
            _warm_pass,
            ("consensus-seeds", "timed-conformance"),
        ),
    )
}
