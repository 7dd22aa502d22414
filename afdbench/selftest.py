"""Self-tests of the benchmark's output check and layer attribution.

Run from the repository root (about half a minute):

    python3 afdbench/selftest.py

* A tampered reference row is reported as one failed spec, not a crash;
  on warm-resweep, cache hits are checked against the reference too.
* With a fixed delay added to ``AFD.check_limit``, the traced run's
  ``core.check_limit_share`` rises and no other layer's share does; the
  shares account for the traced pass.
* The benchmark refuses to run under a process-global engine toggle.
"""

import os
import subprocess
import sys
import tempfile
import time

import run

run.check_environment()

from tracing import Tracer, layers_patched, untraced  # noqa: E402
from workloads import WORKLOADS, Prepared  # noqa: E402

SEED = 0
SPECS = 24  # the first three (stack, n) blocks of the chaos grid
DELAY_S = 0.004


def chaos_subset():
    workload = WORKLOADS["consensus-chaos"]
    prepared = workload.prepare(SEED, None)
    return workload, Prepared(specs=prepared.specs[:SPECS])


def test_tampered_reference_row_is_a_failed_spec():
    workload, prepared = chaos_subset()
    expected = run.load_reference(workload, SEED)[:SPECS]
    tampered = list(expected)
    tampered[3] = "00000000" if tampered[3] != "00000000" else "ffffffff"
    clean = run.Verifier(expected)
    run.measure(workload, prepared, 0, untraced, clean)
    assert (clean.attempted, clean.failed) == (SPECS, 0), vars(clean)
    verifier = run.Verifier(tampered)
    rows = run.measure(workload, prepared, 0, untraced, verifier)
    assert (verifier.attempted, verifier.failed) == (SPECS, 1), vars(verifier)
    assert verifier.first_failure.startswith("spec 3:"), verifier.first_failure
    assert rows[0].verified == SPECS - 1, rows


def test_warm_hits_are_checked_against_the_reference():
    from workloads import WARM_SWEEPS_PER_PASS

    workload = WORKLOADS["warm-resweep"]
    tampered = list(run.load_reference(workload, SEED))
    tampered[3] = "00000000" if tampered[3] != "00000000" else "ffffffff"
    original = run.load_reference
    run.load_reference = lambda _workload, _seed: tampered
    try:
        with tempfile.TemporaryDirectory(prefix=".store-", dir=run.HERE) as store_dir:
            prepared = workload.prepare(SEED, store_dir)
            verifier = run.make_verifier(workload, prepared, SEED)
            assert verifier.failed == 1, vars(verifier)  # the fill's row 3
            run.measure(workload, prepared, 0, untraced, verifier)
    finally:
        run.load_reference = original
    assert verifier.failed == 1 + WARM_SWEEPS_PER_PASS, vars(verifier)


def _traced_shares(workload, prepared):
    tracer = Tracer()
    with layers_patched(tracer):
        rows = run.measure(workload, prepared, 0, tracer.span, run.Verifier(None))
    metrics = run.layer_metrics(tracer, Tracer(), rows, {}, 1.0, prepared)
    return {name: value for name, (value, unit) in metrics.items() if unit == "share"}


def _with_delay(original):
    def delayed(*args, **kwargs):
        deadline = time.perf_counter() + DELAY_S
        while time.perf_counter() < deadline:
            pass
        return original(*args, **kwargs)

    return delayed


def test_delay_in_one_layer_moves_only_its_share():
    from repro.core.afd import AFD

    workload, prepared = chaos_subset()
    workload.run_pass(prepared, untraced)  # warm
    base = _traced_shares(workload, prepared)
    original = vars(AFD)["check_limit"]
    AFD.check_limit = _with_delay(original)
    try:
        slowed = _traced_shares(workload, prepared)
    finally:
        AFD.check_limit = original
    target = "core.check_limit_share"
    assert slowed[target] > base[target] + 0.05, (base[target], slowed[target])
    for name, share in slowed.items():
        if name not in (target, "trace.unattributed_share"):
            assert share <= base[name] * 1.05 + 0.002, (name, base[name], share)
    for shares in (base, slowed):
        assert abs(shares["trace.unattributed_share"]) < 0.05, shares


def test_refuses_engine_toggles():
    for name in run.FORBIDDEN_ENV:
        child = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "consensus-chaos", "--seed", "0", "--seconds", "1"],
            cwd=run.ROOT,
            env={**os.environ, name: "0"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode != 0 and not child.stdout.strip(), (name, child)


def main():
    tests = [
        test_tampered_reference_row_is_a_failed_spec,
        test_warm_hits_are_checked_against_the_reference,
        test_delay_in_one_layer_moves_only_its_share,
        test_refuses_engine_toggles,
    ]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
