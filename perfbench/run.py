"""dtcsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload evolve-n6 --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0       # every workload, one table
    python3 perfbench/run.py --workload all --quick        # three-site sizes

A run sets up several times (the median is ``setup_s``), then repeats the
workload's task until ``--seconds`` have passed, and at least three times
(the median is ``task_s``), and checks every output.  With ``--trace 1`` each
repetition runs the task twice on the same inputs, untraced and then with
every public dtcsim function wrapped in spans, at least twice each; the run
then reports per-layer calls and self times, and the median of the traced
minus the untraced duration as ``tracing_overhead_s``, instead of the
end-to-end metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the numerical
environment and the failed-operations ratio.  The full result, with the
environment and every check, is written to ``.perfbench_out/<workload>/``.
"""

import time

_START = time.perf_counter()  # setup_s counts the imports below this line

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
#: Tasks a run times at least, so that task_s is a median of several; a traced
#: run does each task twice, and two pairs keep it within the time a run may take.
MIN_TASKS = 3
MIN_TRACED_PAIRS = 2
#: twosite-curve and crosscheck-n5 are not in BENCHMARK.json.  twosite-curve is
#: Python-bound, and the spread of its task_s over ten seeds was 0.14-0.28 of the
#: median in five sets of runs, once above 0.25, the largest bound allowed.  The
#: spread of crosscheck-n5's task_s over ten seeds was 0.24 (single samples from
#: 4.1 s to 8.9 s), and the time all runs may take leaves no room to repeat it
#: more.  Both stay runnable for their checks and for tracing their layers.
WORKLOAD_NAMES = ("evolve-n6", "sweep-n6", "crosscheck-n5", "twosite-curve")


def load_package():
    """Import dtcsim from this checkout's src/ and the workload definitions."""
    if not (SRC / "dtcsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no dtcsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dtcsim

    if Path(dtcsim.__file__).resolve().parent != SRC / "dtcsim":
        raise SystemExit(f"error: dtcsim imported from {dtcsim.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(name: str, seed: int, quick: bool):
    """Imports, configuration and inputs; returns (workload, input sets, seconds).

    A seeded workload gets the input sets of its seed, and its task takes the
    next one on each repetition: the 1024^2 eig of one disorder realization
    can take longer than another's, and a median over more than one
    realization keeps some of that out of the spread between seeds.
    """
    workloads = load_package()
    workload = workloads.WORKLOADS[name]
    ids = workloads.input_sets(seed) if workload.seeded else [None]
    input_sets = [workload.setup(i, quick, OUT / name) for i in ids]
    return workload, input_sets, time.perf_counter() - _START


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_task(workload, inputs):
    """Run the task once; returns its duration, outputs and checks."""
    start = time.perf_counter()
    try:
        outputs, checks = workload.task(inputs)
    except Exception as exc:  # a failing task is a failed operation, not a crash
        outputs, checks = None, [failed_check("task", exc)]
    return time.perf_counter() - start, outputs, checks


def measure(workload, input_sets, seconds: float, tracer=None):
    """Repeat the task until ``seconds`` have passed, and at least MIN_TASKS times
    (MIN_TRACED_PAIRS times with a tracer).

    Repetition i runs on input set i modulo their number.  With a tracer,
    each repetition runs the task untraced and then again traced, with the
    tracer installed only around the second run, so that a drift of the
    machine's speed cancels out of their difference.  Returns the untraced
    and the traced durations, the last inputs and outputs, and every check.
    """
    durations, traced, checks = [], [], []
    least = MIN_TASKS if tracer is None else MIN_TRACED_PAIRS
    begin = time.perf_counter()
    while len(durations) < least or time.perf_counter() - begin < seconds:
        inputs = input_sets[len(durations) % len(input_sets)]
        elapsed, outputs, task_checks = timed_task(workload, inputs)
        durations.append(elapsed)
        checks += task_checks
        if tracer is not None:
            tracer.task = len(traced)
            tracer.install()
            try:
                elapsed, _, task_checks = timed_task(workload, inputs)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            checks += task_checks
    return durations, traced, inputs, outputs, checks


def failed_check(name: str, exc: Exception):
    from workloads import Check

    return Check(name, False, f"{type(exc).__name__}: {exc}")


def environment() -> dict:
    """Numerical environment: a result from another one is not comparable."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args) -> int:
    workload, input_sets, own_setup = setup(args.workload, args.seed, args.quick)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "quick": args.quick,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.workload)
    durations, traced, inputs, outputs, checks = measure(
        workload, input_sets, args.seconds, tracer)
    # before the checks, some of which build larger matrices than the task
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if outputs is not None:
        try:
            checks += workload.run_checks(inputs, outputs)
        except Exception as exc:
            checks.append(failed_check("run_checks", exc))
    task_s = statistics.median(durations)

    if tracer is not None:
        tracer.write(out_dir / f"spans-seed{args.seed}.csv")
        covered = tracer.self_time_by_task()
        unattributed = [d - covered.get(i, 0.0) for i, d in enumerate(traced)]
        metrics = tracer.metrics(len(traced))
        metrics.update({
            "trace.task_s": (statistics.median(traced), "s"),
            "trace.unattributed_s": (statistics.median(unattributed), "s"),
            "trace.spans": (len(tracer.spans) / len(traced), "count"),
            "tracing_overhead_s": (
                statistics.median(t - u for t, u in zip(traced, durations)), "s"),
        })
        result["traced_task_s"] = traced
    else:
        samples = [own_setup] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "task_s": (task_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["setup_s_samples"] = samples

    failed = [c for c in checks if not c.ok]
    result.update({
        "task_s_samples": durations,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_ops_ratio": len(failed) / len(checks),
        "checks": [[c.name, c.ok, c.detail] for c in checks],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    for c in failed:
        print(f"FAIL {c.name}: {c.detail}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"failed_ops_ratio {result['failed_ops_ratio']} ({len(failed)}/{len(checks)})")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table of all metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        ratio = line["failed"] / line["attempted"]
        print(f"{name:14s} {'failed_ops_ratio':34s} {ratio:<14.6g} ratio "
              f"({line['failed']}/{line['attempted']})")
        for metric, entry in line["metrics"].items():
            print(f"{name:14s} {metric:34s} {entry['value']:<14.6g} {entry['unit']}")
            total["metrics"][f"{name}.{metric}"] = entry
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="three-site sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, args.quick)[2]}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
