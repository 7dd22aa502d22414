"""Record the reference rows the benchmark checks every result against.

Run from the repository root, at the commit whose results are the
reference:

    python3 afdbench/record.py --seeds 0-31

For each workload seed it runs one pass of the three executing workloads
and writes the digest of each spec's deterministic fields
(``workloads.result_digest``) to ``afdbench/reference.json``, eight hex
digits per spec in spec order; the file is replaced, so it holds exactly
the seeds given.  warm-resweep re-uses the consensus-seeds and
timed-conformance rows: it caches exactly those specs.
"""

import argparse
import json
import os
import sys

from run import REFERENCE, check_environment

SECTIONS = ("consensus-chaos", "consensus-seeds", "timed-conformance")


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = parser.parse_args(argv)
    check_environment()
    from tracing import untraced
    from workloads import WORKLOADS, digest_of

    recorded = {section: {} for section in SECTIONS}
    for seed in args.seeds:
        steps = {}
        for section in SECTIONS:
            workload = WORKLOADS[section]
            outcomes = workload.run_pass(workload.prepare(seed, None), untraced)
            errors = [o.error for o in outcomes if o.error is not None]
            if errors:
                sys.exit(f"{section} seed {seed}: {len(errors)} specs raised; first: {errors[0]}")
            recorded[section][str(seed)] = "".join(digest_of(o) for o in outcomes)
            steps[section] = sum(o.result.steps for o in outcomes)
        print(f"seed {seed}: simulated steps per pass {steps}", file=sys.stderr)
    document = {
        "schema": "afdbench.reference/1",
        "digest": "sha256(json [solved, all_live_decided, fd_ok, consensus_ok, "
        "decisions, steps, messages_sent, conformance ok, violation_index])[:8]",
        "workloads": recorded,
    }
    tmp = REFERENCE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
