"""Whole-pass throughput benchmark of the simulator (see README.md here).

Run from the repository root:

    python3 afdbench/run.py --workload consensus-chaos --seed 0 --seconds 25 --trace 0

One closed-loop client in one process: each pass runs the workload's
specs one at a time and every result is checked against the recorded
reference.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Rates and set-up times are scaled to a reference
host speed by a calibration loop timed next to them; the measured values
go to standard error.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ("consensus-chaos", "consensus-seeds", "timed-conformance", "warm-resweep")

#: Process-global engine toggles the benchmark refuses to run under: they
#: would silently change which engine every workload measures.
FORBIDDEN_ENV = ("REPRO_COMPILED", "REPRO_DISABLE_ENABLED_CACHE")

#: Cold set-ups per run: this process plus four fresh child processes.
SETUP_CHILDREN = 4

#: ``peak_rss_mb`` is read after this many passes (or the last, if fewer
#: ran), so it does not grow with how many passes the host had time for.
RSS_AFTER_PASSES = 4

CALIBRATION_ITERATIONS = 200_000

#: What the calibration loop reads on this benchmark's reference host, a
#: 2-core shared x86-64 VM with CPython 3.11, in its fast spells.  Rates
#: are reported at that host speed (see README.md).
REFERENCE_CALIB_MS = 20.0


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one cold set-up, print its seconds and exit",
    )
    return parser.parse_args(argv)


def check_environment() -> None:
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        sys.exit(f"refusing to run with {', '.join(present)} set")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"library sources not found at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_reference(workload, seed):
    """The recorded digest rows of this workload seed, or ``None``."""
    with open(REFERENCE, encoding="utf-8") as fp:
        sections = json.load(fp)["workloads"]
    rows = []
    for section in workload.reference:
        packed = sections.get(section, {}).get(str(seed))
        if packed is None:
            return None
        rows.extend(packed[k : k + 8] for k in range(0, len(packed), 8))
    return rows


def setup(name, seed, store_dir, tracer=None):
    """Import the library, generate the inputs, warm up or fill the store."""
    from tracing import layers_patched, untraced
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if tracer is None:
        return workload, workload.setup(seed, store_dir, untraced)
    with layers_patched(tracer):
        return workload, workload.setup(seed, store_dir, tracer.span)


def setup_sample():
    """(seconds since start-up, calibration reading) of a finished set-up.

    The reading is taken right after the set-up, so that the sample can be
    scaled to the reference host speed like the rates.
    """
    seconds = time.perf_counter() - _START
    return seconds, statistics.median(calibrate() for _ in range(3))


def child_setup_samples(args):
    """Cold set-up samples measured in fresh child processes, one at a time."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", "0",
                "--setup-only",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise RuntimeError(f"set-up child exited with {child.returncode}")
        seconds, calib_ms = child.stdout.split()[-2:]
        samples.append((float(seconds), float(calib_ms)))
    return samples


class Verifier:
    """Checks every result against the expected rows and counts failures."""

    def __init__(self, expected):
        #: One digest row per spec, or ``None`` until the first checked rows
        #: set it (no reference recorded for this seed: every pass must
        #: repeat the first, or the store fill).
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def check(self, digests, errors):
        """Check one pass (possibly several sweeps); returns its failure count."""
        if self.expected is None:
            self.expected = list(digests)
        failed = 0
        for k, (got, error) in enumerate(zip(digests, errors)):
            want = self.expected[k % len(self.expected)]
            if error is not None or got != want:
                failed += 1
                if self.first_failure is None:
                    self.first_failure = (
                        f"spec {k % len(self.expected)}: got {error or got}, want {want}"
                    )
        self.attempted += len(digests)
        self.failed += failed
        return failed


class Pass(NamedTuple):
    """What one timed pass measured."""

    seconds: float
    verified: int  # specs whose result matched the expected row
    steps: int  # simulated scheduler steps in the pass's results
    calib_ms: float  # mean calibration reading just before and after the pass
    rss_mb: float  # peak RSS of the process so far


def measure(workload, prepared, seconds, span, verifier):
    """Back-to-back passes for ``seconds``, each checked once it ends.

    The pass timing covers everything the library does, garbage
    collection included; only the check runs outside it.  Each pass's
    results are dropped before the next one starts.
    """
    from workloads import digest_of

    rows = []
    window = time.perf_counter()
    while not rows or time.perf_counter() - window < seconds:
        before = calibrate()
        start = time.perf_counter()
        outcomes = workload.run_pass(prepared, span)
        elapsed = time.perf_counter() - start
        calib_ms = (before + calibrate()) / 2
        failed = verifier.check(
            [digest_of(o) for o in outcomes], [o.error for o in outcomes]
        )
        steps = sum(o.result.steps for o in outcomes if o.result is not None)
        rows.append(Pass(elapsed, len(outcomes) - failed, steps, calib_ms, peak_rss_mb()))
        del outcomes
    return rows


def make_verifier(workload, prepared, seed):
    """A verifier holding the expected rows, after it checked the store fill.

    Hits of a warm re-sweep are checked against the recorded reference,
    like the fill; for a seed without one they must equal the fill.
    """
    expected = load_reference(workload, seed)
    if expected is None:
        sys.stderr.write(
            f"no recorded reference for seed {seed}: checking only that every "
            "pass repeats the first one (or the store fill)\n"
        )
    verifier = Verifier(expected)
    if prepared.fill:
        verifier.check(prepared.fill, [None] * len(prepared.fill))
    return verifier


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_calib_ms(rows):
    """The run's calibration reading: the median over its passes."""
    return statistics.median(row.calib_ms for row in rows)


def measured_rates(rows):
    """(verified specs/s, simulated steps/s) over all timed pass seconds."""
    wall = sum(row.seconds for row in rows)
    return (
        sum(row.verified for row in rows) / wall,
        sum(row.steps for row in rows) / wall,
    )


def rates(rows):
    """The measured rates at the reference host speed.

    The shared host runs everything up to ~1.65x slower for minutes at a
    time; the calibration loop slows with it, so scaling by its reading
    takes the host's speed out of the comparison between runs.
    """
    scale = host_calib_ms(rows) / REFERENCE_CALIB_MS
    specs_per_s, steps_per_s = measured_rates(rows)
    return specs_per_s * scale, steps_per_s * scale


def percentile(values, pct):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, setup_tracer, rows, deltas, untraced_rate, prepared):
    """Per-layer metrics of the traced window (see README.md for each).

    ``deltas`` are the library's cache-counter deltas over that window.
    """
    wall = sum(row.seconds for row in rows)
    n_passes = len(rows)
    specs = sum(row.verified for row in rows)
    shares = {layer: spent / wall for layer, spent in tracer.self_s.items()}
    share = lambda layer: shares.get(layer, 0.0)
    runner_calls = tracer.calls["runner"] or 1
    specs_per_call = specs / runner_calls
    spec_ms = [d * 1000.0 / specs_per_call for d in tracer.durations["runner"]]
    hit_rate = lambda counter: deltas.get(counter, {}).get("hit_rate", 0.0)
    entry_kb = 0.0
    if prepared.store is not None:
        sizes = [os.path.getsize(prepared.store.object_path(k)) for k in prepared.store.keys()]
        entry_kb = statistics.fmean(sizes) / 1024.0
    traced_rate, _ = rates(rows)
    us = lambda name: statistics.median(tracer.durations[name] or [0.0]) * 1e6
    return {
        "ioa.run_share": (share("ioa"), "share"),
        "ioa.step_us": (tracer.self_s["ioa"] / tracer.steps * 1e6 if tracer.steps else 0.0, "us"),
        "ioa.steps": (tracer.steps / n_passes, "count"),
        "compiled.compile_share": (share("compiled"), "share"),
        "compiled.spec_hit_rate": (hit_rate("compiled.spec"), "ratio"),
        "system.build_share": (share("system"), "share"),
        "problems.check_share": (share("problems"), "share"),
        "core.check_limit_share": (share("core.check_limit"), "share"),
        "core.check_safety_share": (share("core.check_safety"), "share"),
        "core.check_safety_calls": (tracer.calls["core.check_safety"] / n_passes, "count"),
        "faults.afd_validity_share": (share("faults"), "share"),
        "timed.build_share": (share("timed"), "share"),
        "cache.key_us.p50": (us("cache.key"), "us"),
        "cache.get_us.p50": (us("cache.get"), "us"),
        "cache.get_share": (share("cache.get"), "share"),
        "cache.key_share": (share("cache.key"), "share"),
        "cache.hit_rate": (hit_rate("store.results"), "ratio"),
        "cache.entry_kb": (entry_kb, "KB"),
        "cache.put_us.p50": (statistics.median(setup_tracer.durations["cache.put"] or [0.0]) * 1e6, "us"),
        "runner.self_share": (share("runner"), "share"),
        "runner.spec_ms.p50": (percentile(spec_ms, 50), "ms"),
        "runner.spec_ms.p90": (percentile(spec_ms, 90), "ms"),
        "host.calib_ms": (host_calib_ms(rows), "ms"),
        "trace.overhead": (untraced_rate / traced_rate - 1.0, "ratio"),
        "trace.unattributed_share": (1.0 - sum(shares.values()), "share"),
    }


def main(argv=None):
    args = parse_args(argv)
    check_environment()
    with tempfile.TemporaryDirectory(prefix=".store-", dir=HERE) as store_dir:
        if args.setup_only:
            setup(args.workload, args.seed, store_dir)
            print(*setup_sample())
            return 0
        from tracing import Tracer, layers_patched, untraced

        setup_tracer = Tracer() if args.trace else None
        workload, prepared = setup(args.workload, args.seed, store_dir, setup_tracer)
        setup_samples = [setup_sample()]
        if not args.trace:
            setup_samples += child_setup_samples(args)
        verifier = make_verifier(workload, prepared, args.seed)
        rows = measure(workload, prepared, args.seconds, untraced, verifier)
        specs_per_s, steps_per_s = rates(rows)
        if args.trace:
            from repro.api import cache_stats_delta, cache_stats_snapshot

            tracer = Tracer()
            before = cache_stats_snapshot()
            with layers_patched(tracer):
                traced_rows = measure(
                    workload, prepared, args.seconds, tracer.span, verifier
                )
            metrics = layer_metrics(
                tracer,
                setup_tracer,
                traced_rows,
                cache_stats_delta(before),
                specs_per_s,
                prepared,
            )
        else:
            metrics = {
                "specs_per_s": (specs_per_s, "specs/s"),
                "steps_per_s": (steps_per_s, "steps/s"),
                "setup_s": (
                    statistics.median(
                        seconds * REFERENCE_CALIB_MS / calib_ms
                        for seconds, calib_ms in setup_samples
                    ),
                    "s",
                ),
                "peak_rss_mb": (rows[min(RSS_AFTER_PASSES, len(rows)) - 1].rss_mb, "MB"),
                "verified_frac": (
                    (verifier.attempted - verifier.failed) / verifier.attempted,
                    "ratio",
                ),
            }
        measured_specs, measured_steps = measured_rates(rows)
        pass_rates = sorted(row.verified / row.seconds for row in rows)
        sys.stderr.write(
            f"{args.workload} seed={args.seed}: {len(rows)} passes, "
            f"{sum(row.seconds for row in rows):.1f} s; measured {measured_specs:.1f} "
            f"specs/s, {measured_steps:.0f} steps/s (passes {pass_rates[0]:.1f}.."
            f"{pass_rates[-1]:.1f} specs/s); calibration median "
            f"{host_calib_ms(rows):.1f} ms; peak RSS at exit {peak_rss_mb():.1f} MB; "
            f"set-up samples (s, calibration ms) "
            f"{[(round(t, 3), round(c, 1)) for t, c in setup_samples]}\n"
        )
        if verifier.first_failure:
            sys.stderr.write(f"first failed check: {verifier.first_failure}\n")
    print(
        json.dumps(
            {
                "correct": verifier.failed == 0,
                "attempted": verifier.attempted,
                "failed": verifier.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
