"""Regenerate reference.json: the outputs every benchmark run is compared with.

    python3 perfbench/make_reference.py

Stores, for every workload and every input set that a seed below
``REFERENCE_SEEDS`` selects, at full and at quick sizes, the outputs a run
compares to 1e-9.  Run it only when a change is meant to alter the results,
and say so in the change.
"""

import json
import sys

from run import OUT, load_package


def main() -> int:
    workloads = load_package()
    n_sets = workloads.REFERENCE_SEEDS * workloads.SETS_PER_SEED
    stored = {}
    for quick in (True, False):
        for workload in workloads.WORKLOADS.values():
            for input_set in range(n_sets) if workload.seeded else [None]:
                key = workloads.reference_key(workload.name, input_set, quick)
                inputs = workload.setup(input_set, quick, OUT / "reference" / workload.name)
                inputs["reference"] = None
                outputs, checks = workload.task(inputs)
                bad = [c for c in checks if not c.ok and not c.name.startswith("reference")]
                bad += [c for c in workload.run_checks(inputs, outputs) if not c.ok]
                if bad:
                    print(f"{key}: checks failed: {bad}", file=sys.stderr)
                    return 1
                stored[key] = workload.reference(outputs)
                print(f"{key}: stored", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(stored, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
