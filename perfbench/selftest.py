"""Self-test of the benchmark at three-site sizes: output schema and metric names.

    python3 perfbench/selftest.py

Runs every workload, also one not in BENCHMARK.json, with ``--quick`` (three
sites, a few periods, one realization), untraced on the default and a second
seed and traced on the default seed.  It checks the last output line against
BENCHMARK.json and that no operation failed; it never checks absolute times.
It also runs the seeded workloads on a large and a negative seed, and checks
that a copy of the benchmark without the package beside it exits non-zero
without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys

from run import OUT, ROOT, WORKLOAD_NAMES

RUN = ROOT / "perfbench" / "run.py"


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(done, expected: dict, label: str) -> list[str]:
    if done.returncode != 0:
        return [f"{label}: exit status {done.returncode}: {done.stderr.strip()[-300:]}"]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: keys {sorted(line)}")
    if not (type(line["attempted"]) is int and type(line["failed"]) is int
            and line["attempted"] >= 1):
        errors.append(f"{label}: attempted/failed not whole numbers")
    if line["correct"] is not True or line["failed"] != 0:
        errors.append(f"{label}: correct={line['correct']} failed={line['failed']}")
    if set(line["metrics"]) != set(expected):
        errors.append(f"{label}: metric names differ: "
                      f"{sorted(set(line['metrics']) ^ set(expected))}")
    for name, entry in line["metrics"].items():
        if set(entry) != {"value", "unit"} or entry["unit"] != expected.get(name):
            errors.append(f"{label}: {name} entry {entry}")
        elif not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            errors.append(f"{label}: {name} value {entry['value']!r}")
    return errors


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    names = [w["name"] for w in manifest["workloads"]]
    if not set(names) <= set(WORKLOAD_NAMES):
        errors.append(f"BENCHMARK.json workloads {names} not all in {list(WORKLOAD_NAMES)}")
    expected = {t: {m["name"]: m["unit"] for m in manifest[key]}
                for t, key in ((0, "end_to_end"), (1, "per_layer"))}

    runs = [(name, trace, seed) for name in WORKLOAD_NAMES
            for trace, seed in ((0, 0), (0, 1), (1, 0))]
    runs += [(name, 0, seed) for name in ("sweep-n6", "crosscheck-n5")
             for seed in (2**40 + 7, -3)]
    for name, trace, seed in runs:
        label = f"{name} seed={seed} trace={trace}"
        done = run(["--workload", name, "--seed", str(seed), "--seconds", "0",
                    "--trace", str(trace), "--quick"])
        found = check_result(done, expected[trace], label)
        errors += found
        print(f"{'FAIL' if found else 'ok  '} {label}", flush=True)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", names[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
               cwd=bare, script=bare / "perfbench" / "run.py")
    bare_ok = done.returncode != 0 and '"correct"' not in done.stdout
    if not bare_ok:
        errors.append("a copy without the package did not fail")
    shutil.rmtree(bare)
    print(f"{'ok  ' if bare_ok else 'FAIL'} copy without the package exits non-zero")

    for error in errors:
        print(f"error: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
