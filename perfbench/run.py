"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing
instrumented; ``--trace 1`` is a separate run that times each layer's
entry points and reports the per-layer metrics.  The metric names,
units and directions come from ``BENCHMARK.json`` at the repository
root.  Every metric is printed by name and unit, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory; without
it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: How many fresh interpreters one run starts to time its set-up.
SETUP_REPEATS = 5

#: Workload-specific names of end-to-end metrics, printed alongside.
ALIASES = {
    "fig7-sweep": {"busy_s": "sweep_s"},
    "fig7-sweep-jobs2": {"busy_s": "sweep_s"},
    "crawl-csr": {"busy_s": "crawl_s"},
    "serve-open": {"p50_ms": "serve_p50_ms", "p99_ms": "serve_p99_ms"},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """One BLAS thread per process, and the library from ``src/``.

    With ``fig7-sweep-jobs2`` two worker processes already fill both
    cores; pinning BLAS keeps every workload at no more threads than
    ``nproc`` and keeps runs from competing with their own helpers.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no library sources under {SRC}\n")
        raise SystemExit(2)
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def setup_probe(workload: str, workdir: str) -> None:
    """What one set-up costs: import the layers and load the workload's inputs."""
    import workloads

    if workload == "crawl-csr":
        workloads.load_crawl_inputs(workdir)
    elif workload == "serve-open":
        workloads.EstimationService()


def time_setup(args: argparse.Namespace, workdir: str) -> float:
    """Median time, in reference seconds, of fresh interpreters doing :func:`setup_probe`.

    The speedometer probes in this process while it waits for each child.
    """
    from speed import Speedometer

    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe", workdir,
    ]
    times = []
    with Speedometer() as meter:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            # No timeout: with one, ``wait`` polls in 50 ms steps and the
            # measured time comes out quantised.
            subprocess.run(command, check=True, cwd=ROOT)
            times.append(meter.seconds(started, time.perf_counter()))
    return statistics.median(times)


def end_to_end(args, workload, workdir: str, expected: dict):
    """Untraced run: the end-to-end metrics and the run's tallies."""
    import workloads

    setup_s = time_setup(args, workdir)
    measured = workload.measure(args.seconds)
    problem = workloads.check_accuracy(expected, args.workload, args.seed, measured.accuracy)
    checked = measured.checked + 1
    mismatches = measured.mismatches + (problem is not None)
    failed = measured.failed + (problem is not None)
    metrics = {
        "setup_s": setup_s,
        "busy_s": measured.busy,
        "p50_ms": statistics.median(measured.latencies) * 1000,
        "p99_ms": workloads.percentile(measured.latencies, 99) * 1000,
        "answers_per_s": measured.answers_per_second,
        "accuracy": measured.accuracy,
        "parity_ok_frac": 1.0 - mismatches / checked,
        "success_frac": 1.0 - failed / measured.attempted,
    }
    notes = dict(measured.notes)
    notes.update(
        parity_mismatches=mismatches,
        fail_frac=failed / measured.attempted,
        latencies=len(measured.latencies),
        accuracy_check=problem or "ok",
    )
    return metrics, measured.attempted, failed, notes


def per_layer(args, workload):
    """Traced run: the per-layer metrics, cross-checked against the program's counters."""
    metrics, report = workload.traced(args.seconds)
    failures = len(report["counter_mismatches"]) + report["parity_mismatches"]
    if report["attribution_gap"] > 1e-9:
        failures += 1
    attempted = report["traced_passes"] + report["untraced_passes"]
    return metrics, attempted, failures, report


def emit(spec_metrics, values: dict, aliases: dict, notes: dict, correct: bool,
         attempted: int, failed: int) -> None:
    for key, value in notes.items():
        print(f"# {key}: {value}")
    unknown = set(values) - {entry["name"] for entry in spec_metrics}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {}
    for entry in spec_metrics:
        name, unit = entry["name"], entry["unit"]
        # A layer the workload never enters did no work: it reports 0.
        value = float(values.get(name, 0.0))
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"{name}{alias}: {value:.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": result,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.setup_probe)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}\n"
        )
        return 2
    spec = load_spec()
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, attempted, failed, notes = per_layer(args, workload)
            spec_metrics = spec["per_layer"]
        else:
            expected = workloads.load_expected(HERE)
            values, attempted, failed, notes = end_to_end(args, workload, workdir, expected)
            spec_metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(spec_metrics, values, ALIASES.get(args.workload, {}), notes, failed == 0,
         attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
