"""The benchmark's workloads: inputs, timed passes and correctness checks.

Every workload is built from the run's ``--seed`` alone and runs the
library at its default configuration (``EMConfig()`` with staged
initialisation, ``ServiceConfig()``):

* ``fig7-sweep`` / ``fig7-sweep-jobs2`` — the CI-sized Fig. 7 sweep
  (:func:`repro.eval.experiments.figure7_estimator_vs_sources`), serial
  or with ``ParallelConfig(n_jobs=2)``;
* ``serve-open`` — open-loop Poisson arrivals of Fig. 7-sized requests
  into one :class:`repro.serve.EstimationService`;
* ``crawl-csr`` — Fig. 11 fact-finding (all seven algorithms, then
  top-k grading) on simulated crawls loaded as CSR evaluation slices.

A *pass* is one unit of work a user waits for: a sweep, a crawl, or
one open-loop replay of the request stream.  ``busy`` is the time the
program worked during a pass; ``answers`` counts what the pass handed
back (sweep points, fits and gradings, requests).
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from spans import Recorder, instrument
from speed import Speedometer, wall

from repro import observability
from repro.baselines import EMPIRICAL_ALGORITHMS, make_fact_finder
from repro.core.em_ext import EMConfig, EMExtEstimator
from repro.datasets import simulate_dataset
from repro.datasets.schema import AssertionLabel
from repro.engine.driver import EMDriver
from repro.eval.experiments import figure7_estimator_vs_sources
from repro.eval.metrics import score_result
from repro.io.sparse_io import load_sparse_problem, save_sparse_problem
from repro.parallel import ParallelConfig
from repro.pipeline import SimulatedGrader, grading
from repro.serve import EstimationRequest, EstimationService
from repro.serve.service import fit_request
from repro.serve.trace import results_bitwise_equal
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ServiceOverloaded

#: Input sets per run of the crawl workload; passes cycle through them,
#: so one run's figures cover several inputs.  A Fig. 7 sweep costs
#: twice a crawl pass, so the sweeps cycle through two.
INPUT_SETS = 3
SWEEP_INPUT_SETS = 2

#: Fig. 11 configuration (as ``figure11_empirical`` builds its finders).
CRAWL_DATASETS = ("ukraine", "la_marathon")
CRAWL_SCALE = 0.5
CRAWL_SMOOTHING = 1.0
CRAWL_TOP_K = 100
EM_FAMILY = ("em", "em-social", "em-ext")

#: serve-open traffic: nominal rate, mix, latency limit and rate ladder.
NOMINAL_RPS = 25.0
PASS_REQUESTS = 500
REPEAT_FRACTION = 0.1
SOCIAL_FRACTION = 0.1
REPEAT_WINDOW = 32
DISTINCT_PROBLEMS = 300
P99_LIMIT_SECONDS = 0.25
LADDER_RPS = (100, 150, 200, 300, 400, 600, 800, 1200)
RUNG_REQUESTS = 200

#: serve-open passes cycle through this many request sets, each with
#: its own requests and Poisson schedule.  p99 lies among a run's few
#: slowest fits; with one set of 500 requests replayed on five
#: schedules it spread 0.23 IQR/median over ten seeds.
REQUEST_SETS = 3

#: Worker processes that compute the direct fits serve-open answers are
#: checked against, after the timed passes (no more than ``nproc``).
VERIFY_WORKERS = 2

Slot = Tuple[int, str, int]

#: Maps a wall-clock window ``(start, end)`` to the seconds reported for it.
Clock = Callable[[float, float], float]


def sub_seeds(seed: int, count: int, stream: int = 0) -> List[int]:
    """``count`` independent 31-bit seeds derived from ``(seed, stream)``."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


def settle() -> None:
    """Collect garbage and freeze what survives.

    The inputs and the outputs kept for the checks then add nothing to
    the garbage collections of later passes; left unfrozen, they made
    the first serve-open pass twice as slow as the rest.
    """
    gc.collect()
    gc.freeze()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class PassResult:
    """One pass: busy seconds, answers handed back and what to check."""

    busy: float
    answers: int
    payload: object = None
    failed: int = 0


@dataclass
class Measurement:
    """Everything an untraced run reports, before it becomes metrics."""

    busy: float
    latencies: List[float]
    answers_per_second: float
    accuracy: float
    attempted: int
    failed: int
    checked: int
    mismatches: int
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass
class Checks:
    """Running tally of parity checks and their mismatches."""

    checked: int = 0
    mismatches: int = 0
    notes: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.mismatches += 1
            self.notes.append(what)


def calls_per_iteration(fit: Callable[[], object]) -> float:
    """Interpreter call events per EM iteration while ``fit`` runs its EM loop.

    A profile hook counts Python and C calls inside ``EMDriver.run``
    only, so the count is exact for a deterministic fit and repeats
    from run to run where wall time does not.
    """
    original = EMDriver.run
    tally = [0, 0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            tally[0] += 1

    def profiled(self, *args, **kwargs):
        sys.setprofile(hook)
        try:
            outcome = original(self, *args, **kwargs)
        finally:
            sys.setprofile(None)
        tally[1] += outcome.n_iterations
        return outcome

    EMDriver.run = profiled
    try:
        fit()
    finally:
        EMDriver.run = original
    return tally[0] / tally[1] if tally[1] else 0.0


class Workload:
    """Timed passes, traced passes and the metrics they give."""

    name = ""
    #: Passes cycle through this many inputs; a run covers each at least once.
    input_sets = INPUT_SETS

    # -- hooks ---------------------------------------------------------------

    def run_pass(self, index: int, clock: Clock = wall) -> PassResult:
        """One pass; ``clock`` turns its timed windows into reported seconds."""
        raise NotImplementedError

    def verify(self, results: List[PassResult], checks: Checks) -> float:
        """Check the passes' outputs; returns the workload's accuracy."""
        raise NotImplementedError

    def reference_fit(self) -> Callable[[], object]:
        """A default em-ext fit on this workload's inputs (for call counts)."""
        raise NotImplementedError

    def counted(
        self, counters: dict, recorder: Recorder, result: PassResult
    ) -> Dict[str, Tuple[int, int]]:
        """``counter → (program's count, benchmark's count)`` for the cross-check."""
        return {
            "em.iterations": (
                int(counters.get("em.iterations", 0)),
                sum(i for i, _ in recorder.fits),
            ),
            "em.restarts": (int(counters.get("em.restarts", 0)), len(recorder.fits)),
        }

    def warm_up(self) -> None:
        """Untimed work that fills lazy imports and first-call caches."""

    def set_times(self, results: List[PassResult]) -> List[float]:
        """The median pass time of each input set."""
        return [
            statistics.median(r.busy for r in results[k::self.input_sets])
            for k in range(self.input_sets)
        ]

    def latencies(self, results: List[PassResult]) -> List[float]:
        """Per-answer latencies; a batch workload's answer is a whole pass,
        taken as the median pass of each input set."""
        return self.set_times(results)

    def layer_extras(self, recorder: Recorder, result: PassResult) -> Dict[str, float]:
        return {}

    def traced_extras(self, untraced_seconds: float) -> Dict[str, float]:
        return {}

    # -- drivers -------------------------------------------------------------

    def measure(self, seconds: float) -> Measurement:
        """Passes for ``seconds`` (at least one per input set), then the checks.

        Pass times are reference seconds (:mod:`speed`): wall time scaled
        by the host speed that a probe measured during the pass.  ``busy``
        weighs every input set alike: the mean of their median passes.
        """
        self.warm_up()
        settle()
        start = perf_counter()
        results: List[PassResult] = []
        unscaled: List[float] = []
        with Speedometer() as meter:
            while len(results) < self.input_sets or perf_counter() - start < seconds:
                before = meter.unscaled
                results.append(self.run_pass(len(results), meter.seconds))
                unscaled.append(meter.unscaled - before)
                settle()
        gc.unfreeze()
        checks = Checks()
        accuracy = self.verify(results, checks)
        answers = sum(r.answers for r in results)
        busy = statistics.mean(self.set_times(results))
        return Measurement(
            busy=busy,
            latencies=self.latencies(results),
            answers_per_second=answers / len(results) / busy,
            accuracy=accuracy,
            attempted=answers,
            failed=sum(r.failed for r in results) + checks.mismatches,
            checked=checks.checked,
            mismatches=checks.mismatches,
            notes={
                "pass_seconds": [round(r.busy, 3) for r in results],
                "wall_pass_seconds": [round(t, 3) for t in unscaled],
                "mismatch_notes": checks.notes[:5],
            },
        )

    def traced(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, object]]:
        """Alternate untraced and traced passes of input set 0.

        Returns the per-layer metrics (medians over traced passes) and a
        report with the counter cross-check and the attribution gap.
        """
        self.warm_up()
        start = perf_counter()
        untraced: List[float] = []
        rows: List[Dict[str, float]] = []
        results: List[PassResult] = []
        mismatched: Dict[str, Tuple[int, int]] = {}
        worst_gap = 0.0
        while not rows or perf_counter() - start < seconds:
            untraced.append(self.run_pass(0).busy)
            recorder = Recorder()
            with observability.observe("perfbench") as session, instrument(recorder):
                with recorder.span("bench.pass"):
                    result = self.run_pass(0)
            results.append(result)
            counters = session.metrics.snapshot()["counters"]
            for name, (program, bench) in self.counted(counters, recorder, result).items():
                if program != bench:
                    mismatched[name] = (program, bench)
            root = recorder.total["bench.pass"]
            worst_gap = max(worst_gap, abs(sum(recorder.self_time.values()) - root) / root)
            row = layer_metrics(recorder)
            row["harness.trials"] = int(counters.get("harness.trials", 0))
            row.update(self.layer_extras(recorder, result))
            rows.append(row)
        checks = Checks()
        self.verify(results, checks)
        metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        baseline = statistics.median(untraced)
        metrics["bench.trace_overhead_frac"] = metrics["bench.pass_s"] / baseline - 1.0
        metrics["em.calls_per_iter"] = calls_per_iteration(self.reference_fit())
        metrics.update(self.traced_extras(baseline))
        report = {
            "traced_passes": len(rows),
            "untraced_passes": len(untraced),
            "counter_mismatches": mismatched,
            "attribution_gap": worst_gap,
            "parity_mismatches": checks.mismatches,
            "mismatch_notes": checks.notes[:5],
        }
        return metrics, report


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced pass rooted at span ``bench.pass``."""
    own = recorder.self_time
    total = recorder.total
    calls = recorder.calls
    root = total["bench.pass"]
    iterations = [i for i, _ in recorder.fits]
    converged = [c for _, c in recorder.fits]
    exact_s = own.get("bound.exact", 0.0)
    other = ("voting", "sums", "average-log", "truthfinder")
    return {
        "bench.pass_s": root,
        "init.calls": calls.get("init", 0),
        "init.self_s": own.get("init", 0.0),
        "init.share": own.get("init", 0.0) / root,
        "em.fits": len(recorder.fits),
        "em.iterations": sum(iterations),
        "em.iters_per_fit_p50": statistics.median(iterations) if iterations else 0,
        "em.e_step_s": own.get("em.e_step", 0.0),
        "em.m_step_s": own.get("em.m_step", 0.0),
        "em.loop_self_s": own.get("em.run", 0.0) + own.get("lanes.run", 0.0),
        "em.converged_frac": sum(converged) / len(converged) if converged else 0.0,
        "lanes.packs": len(recorder.lane_packs),
        "lanes.occupancy": (
            statistics.mean(recorder.lane_packs) if recorder.lane_packs else 0.0
        ),
        "lanes.pack_s": own.get("lanes.pack", 0.0),
        "bound.exact_calls": calls.get("bound.exact", 0),
        "bound.exact_s": exact_s,
        "bound.exact_patterns_per_s": recorder.exact_patterns / exact_s if exact_s else 0.0,
        "bound.gibbs_calls": calls.get("bound.gibbs", 0),
        "bound.gibbs_s": own.get("bound.gibbs", 0.0),
        "baseline.em_s": total.get("fit.em", 0.0),
        "baseline.em_social_s": total.get("fit.em-social", 0.0),
        "baseline.other_s": sum(total.get(f"fit.{name}", 0.0) for name in other),
        "estimators.self_s": sum(t for n, t in own.items() if n.startswith("fit.")),
        "synthetic.generate_s": own.get("synthetic.generate", 0.0),
        "harness.self_s": own.get("harness.point", 0.0),
        "parallel.tasks": recorder.parallel_tasks,
        "parallel.wait_s": own.get("parallel.wait", 0.0),
        "serve.drains": calls.get("serve.drain", 0),
        "serve.drain_s": total.get("serve.drain", 0.0),
        "serve.plan_s": own.get("serve.plan", 0.0),
        "serve.self_s": own.get("serve.drain", 0.0) + own.get("serve.submit", 0.0),
        "pipeline.grade_s": own.get("pipeline.grade", 0.0),
        "bench.unattributed_frac": own.get("bench.pass", 0.0) / root,
    }


# -- fig7-sweep / fig7-sweep-jobs2 ---------------------------------------------


def series(result) -> tuple:
    """Every per-trial metric series of a sweep, as exact float hex strings."""
    return tuple(
        (index, name, metric, tuple(float(v).hex() for v in getattr(s, metric)))
        for index, point in enumerate(result.points)
        for name, s in sorted(point.series.items())
        for metric in ("accuracy", "false_positive_rate", "false_negative_rate")
    )


class Fig7Sweep(Workload):
    """The CI-sized Fig. 7 sweep, serial (``n_jobs = 1``) or fanned out."""

    name = "fig7-sweep"
    n_jobs = 1
    input_sets = SWEEP_INPUT_SETS

    def __init__(self, seed: int, workdir: str) -> None:
        self.sweep_seeds = sub_seeds(seed, SWEEP_INPUT_SETS, stream=7)
        self.reference_seconds = 0.0
        self.serial_reference: Optional[Recorder] = None

    def sweep(self, index: int, n_jobs: int, **kwargs):
        return figure7_estimator_vs_sources(
            seed=self.sweep_seeds[index % SWEEP_INPUT_SETS],
            parallel=ParallelConfig(n_jobs=n_jobs) if n_jobs > 1 else None,
            **kwargs,
        )

    def warm_up(self) -> None:
        self.sweep(0, self.n_jobs, n_trials=1)

    def run_pass(self, index: int, clock: Clock = wall) -> PassResult:
        started = perf_counter()
        result = self.sweep(index, self.n_jobs)
        busy = clock(started, perf_counter())
        return PassResult(busy, len(result.points), (index % SWEEP_INPUT_SETS, result))

    def verify(self, results: List[PassResult], checks: Checks) -> float:
        first: Dict[int, tuple] = {}
        accuracies: List[float] = []
        for result in results:
            index, sweep = result.payload
            key = series(sweep)
            if index in first:
                checks.expect(key == first[index], f"input set {index}: repeat differs")
                continue
            first[index] = key
            accuracies.append(float(np.mean(sweep.curve("em-ext"))))
        # The other execution mode must give the same series, bit for bit.
        other_jobs = 1 if self.n_jobs > 1 else 2
        started = perf_counter()
        reference = series(self.sweep(0, other_jobs))
        self.reference_seconds = perf_counter() - started
        checks.expect(reference == first[0], f"n_jobs={other_jobs} series differ")
        return float(np.mean(accuracies))

    def counted(self, counters, recorder, result):
        if self.n_jobs == 1:
            return super().counted(counters, recorder, result)
        # Worker fits are invisible to the parent's spans; the serial
        # sweep of the same inputs must account for the same work.
        if self.serial_reference is None:
            self.serial_reference = Recorder()
            with instrument(self.serial_reference):
                self.sweep(0, 1)
        return super().counted(counters, self.serial_reference, result)

    def traced_extras(self, untraced_seconds: float) -> Dict[str, float]:
        serial, fanned = untraced_seconds, self.reference_seconds
        if self.n_jobs > 1:
            serial, fanned = fanned, serial
        return {"parallel.efficiency": serial / (2 * fanned)}

    def reference_fit(self):
        problem = generate_dataset(GeneratorConfig(), seed=self.sweep_seeds[0]).problem
        return lambda: EMExtEstimator(EMConfig(), seed=0).fit(problem.without_truth())


class Fig7SweepJobs2(Fig7Sweep):
    name = "fig7-sweep-jobs2"
    n_jobs = 2


# -- crawl-csr -------------------------------------------------------------------


def crawl_finder(name: str, seed: int):
    """A finder configured exactly as ``figure11_empirical`` configures it."""
    if name == "em-ext":
        return make_fact_finder(name, seed=seed, config=EMConfig(smoothing=CRAWL_SMOOTHING))
    if name in ("em", "em-social"):
        return make_fact_finder(name, seed=seed, smoothing=CRAWL_SMOOTHING)
    return make_fact_finder(name)


def write_crawl_inputs(seed: int, workdir: str) -> None:
    """Simulate the crawls and store each evaluation slice as a CSR archive."""
    seeds = iter(sub_seeds(seed, INPUT_SETS * len(CRAWL_DATASETS), stream=11))
    for index in range(INPUT_SETS):
        for dataset in CRAWL_DATASETS:
            crawl = simulate_dataset(dataset, scale=CRAWL_SCALE, seed=next(seeds))
            evaluation = crawl.evaluation_slice(output_format="csr")
            stem = os.path.join(workdir, f"crawl-{index}-{dataset}")
            save_sparse_problem(evaluation.problem, stem + ".npz")
            with open(stem + ".labels.json", "w", encoding="utf-8") as handle:
                json.dump([label.value for label in evaluation.labels], handle)


def load_crawl_inputs(workdir: str) -> List[List[Tuple[object, List[AssertionLabel]]]]:
    """The CSR slices, grouped per input set: ``[[(problem, labels), ...], ...]``."""
    sets = []
    for index in range(INPUT_SETS):
        group = []
        for dataset in CRAWL_DATASETS:
            stem = os.path.join(workdir, f"crawl-{index}-{dataset}")
            problem = load_sparse_problem(stem + ".npz")
            with open(stem + ".labels.json", encoding="utf-8") as handle:
                labels = [AssertionLabel(value) for value in json.load(handle)]
            group.append((problem, labels))
        sets.append(group)
    return sets


class CrawlCsr(Workload):
    """Fig. 11 fact-finding and grading on CSR slices of simulated crawls."""

    name = "crawl-csr"

    def __init__(self, seed: int, workdir: str) -> None:
        write_crawl_inputs(seed, workdir)
        self.sets = load_crawl_inputs(workdir)
        self.fit_seeds = sub_seeds(seed, len(EMPIRICAL_ALGORITHMS) + 2, stream=13)

    def warm_up(self) -> None:
        """An untimed pass of the first input set; without it the first
        timed pass of each set took about 10% longer than its repeats."""
        self.run_pass(0)

    def run_pass(self, index: int, clock: Clock = wall) -> PassResult:
        outputs = []
        started = perf_counter()
        for problem, labels in self.sets[index % INPUT_SETS]:
            blind = problem.without_truth()
            results = {
                name: crawl_finder(name, self.fit_seeds[k]).fit(blind)
                for k, name in enumerate(EMPIRICAL_ALGORITHMS)
            }
            grader = SimulatedGrader(labels, seed=self.fit_seeds[-2])
            reports = grading.grade_top_k(
                results, grader, k=CRAWL_TOP_K, seed=self.fit_seeds[-1]
            )
            outputs.append((results, reports))
        busy = clock(started, perf_counter())
        answers = len(outputs) * (len(EMPIRICAL_ALGORITHMS) + 1)
        return PassResult(busy, answers, (index % INPUT_SETS, outputs))

    def verify(self, results: List[PassResult], checks: Checks) -> float:
        first: Dict[int, list] = {}
        for result in results:
            index, outputs = result.payload
            if index not in first:
                first[index] = outputs
                continue
            for (fits, reports), (ref_fits, ref_reports) in zip(outputs, first[index]):
                for name in EMPIRICAL_ALGORITHMS:
                    checks.expect(
                        results_bitwise_equal(fits[name], ref_fits[name]),
                        f"input set {index}: {name} repeat differs",
                    )
                checks.expect(
                    {n: r.true_ratio for n, r in reports.items()}
                    == {n: r.true_ratio for n, r in ref_reports.items()},
                    f"input set {index}: grading repeat differs",
                )
        ratios = [
            reports["em-ext"].true_ratio
            for outputs in first.values()
            for _, reports in outputs
        ]
        return float(np.mean(ratios))

    def counted(self, counters, recorder, result):
        _, outputs = result.payload
        fits = [fitted[name] for fitted, _ in outputs for name in EM_FAMILY]
        return {
            "em.iterations": (
                int(counters.get("em.iterations", 0)),
                sum(r.n_iterations for r in fits),
            ),
            "em.restarts": (int(counters.get("em.restarts", 0)), len(fits)),
        }

    def layer_extras(self, recorder, result):
        nnz = 0
        size = 0
        for problem, _ in self.sets[0]:
            for matrix in (problem.claims, problem.dependency):
                nnz += int(matrix.nnz)
                size += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return {"data.nnz": nnz, "data.bytes": size}

    def reference_fit(self):
        problem = self.sets[0][0][0].without_truth()
        seed = self.fit_seeds[EMPIRICAL_ALGORITHMS.index("em-ext")]
        return lambda: crawl_finder("em-ext", seed).fit(problem)


# -- serve-open ------------------------------------------------------------------


@dataclass
class Replay:
    """What one replay produced, per request in arrival order."""

    latencies: List[float]
    waits: List[float]
    responses: List[object]
    refused: int
    backlog_max: int
    busy: float

    @property
    def failed(self) -> int:
        return self.refused + sum(1 for r in self.responses if r is not None and not r.ok)


def replay(
    requests: Sequence[EstimationRequest], due: Sequence[float], measured: Clock = wall
) -> Replay:
    """Open-loop replay on a clock that advances by measured work.

    Arrivals follow ``due`` however the service keeps up.  The server
    loop submits everything that has arrived by the clock and drains
    it; the clock then advances by the wall time that took, or jumps to
    the next arrival when the server has nothing to do.  Latency is the
    clock when the answer is out minus the instant the request was due,
    so waiting behind a long drain counts in full, while time the
    server would sit idle costs no wall time and adds no sleep or
    wake-up jitter.  ``measured`` maps each submit+drain window to the
    seconds the clock advances by.  A refused request gets no response,
    and its latency is the whole replay: it misses every limit.
    """
    service = EstimationService()
    n = len(requests)
    latencies = [math.inf] * n
    waits = [0.0] * n
    responses: List[object] = [None] * n
    refused = 0
    backlog_max = 0
    busy = 0.0
    clock = 0.0
    position = 0
    while position < n:
        clock = max(clock, float(due[position]))
        began = perf_counter()
        batch = []
        while position < n and due[position] <= clock:
            try:
                service.submit(requests[position])
                batch.append(position)
            except ServiceOverloaded:
                refused += 1
            position += 1
        backlog_max = max(backlog_max, service.queue_depth)
        answered = service.drain()
        took = measured(began, perf_counter())
        busy += took
        for index in batch:
            waits[index] = clock - float(due[index])
        clock += took
        for index, response in zip(batch, answered):
            responses[index] = response
            latencies[index] = clock - float(due[index])
    latencies = [t if math.isfinite(t) else clock for t in latencies]
    return Replay(latencies, waits, responses, refused, backlog_max, busy)


def goodput_from_ladder(rungs: Sequence[Tuple[float, float, bool]]) -> float:
    """The rate at which p99 crosses the limit, interpolated between rungs.

    The highest rung that met the limit (without failures or a growing
    backlog) sets the floor; the first rung that missed it sets the
    ceiling, and the crossing is read off the straight line through
    their p99 latencies.  If even the first rung missed, its rate is
    scaled down by how far over the limit it ran.
    """
    passing = [r for r in rungs if r[2]]
    if not passing:
        rate, p99, _ = rungs[0]
        return rate * min(1.0, P99_LIMIT_SECONDS / p99)
    rate, p99, _ = passing[-1]
    if rungs[-1][2]:
        return rate
    next_rate, next_p99, _ = rungs[-1]
    if next_p99 <= max(p99, P99_LIMIT_SECONDS):
        return rate
    share = (P99_LIMIT_SECONDS - p99) / (next_p99 - p99)
    return rate + share * (next_rate - rate)


class ServeOpen(Workload):
    """Open-loop Poisson arrivals of Fig. 7-sized requests at default config."""

    name = "serve-open"
    input_sets = REQUEST_SETS

    def __init__(self, seed: int, workdir: str) -> None:
        self.problems = [
            generate_dataset(GeneratorConfig(), seed=s).problem
            for s in sub_seeds(seed, DISTINCT_PROBLEMS, stream=17)
        ]
        mix_seeds = sub_seeds(seed, REQUEST_SETS, stream=23)
        self.slot_sets = [
            self.make_slots(mix_seeds[k], k * PASS_REQUESTS, PASS_REQUESTS)
            for k in range(REQUEST_SETS)
        ]
        self.arrival_seeds = sub_seeds(seed, REQUEST_SETS + len(LADDER_RPS), stream=19)
        self.oracle: Dict[Slot, object] = {}

    @staticmethod
    def make_slots(mix_seed: int, first: int, count: int) -> List[Slot]:
        """``(problem index, algorithm, request seed)`` per arrival.

        Request seeds run from ``first``, so sets made with different
        ``first`` share no request.

        One request in ten repeats one of the last few exactly (the
        result-cache path) and one in ten asks for em-social (the
        serial-fallback path); the rest are em-ext.  The shares are
        exact and only their positions are drawn, so the seed changes
        the order of the mix, not the mix.
        """
        rng = np.random.default_rng(mix_seed)
        order = [int(k) for k in rng.permutation(np.arange(1, count))]
        n_repeats = round(REPEAT_FRACTION * count)
        repeats = set(order[:n_repeats])
        social = set(order[n_repeats:n_repeats + round(SOCIAL_FRACTION * count)])
        slots: List[Slot] = []
        for index in range(count):
            if index in repeats:
                back = int(rng.integers(1, min(REPEAT_WINDOW, len(slots)) + 1))
                slots.append(slots[-back])
                continue
            algorithm = "em-social" if index in social else "em-ext"
            request = first + index
            slots.append((request % DISTINCT_PROBLEMS, algorithm, request))
        return slots

    def requests(self, slots: Sequence[Slot], tag: str) -> List[EstimationRequest]:
        return [
            EstimationRequest(
                f"{tag}-{k:05d}",
                self.problems[problem].without_truth(),
                algorithm=algorithm,
                seed=request_seed,
            )
            for k, (problem, algorithm, request_seed) in enumerate(slots)
        ]

    @staticmethod
    def arrivals(seed: int, rate: float, count: int) -> np.ndarray:
        """Poisson arrival instants (seconds from the start) at ``rate``."""
        return np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, count))

    def run_pass(self, index: int, clock: Clock = wall) -> PassResult:
        """The open-loop replay of the next request set, into a fresh service."""
        slots = self.slot_sets[index % REQUEST_SETS]
        due = self.arrivals(self.arrival_seeds[index % REQUEST_SETS], NOMINAL_RPS, len(slots))
        result = replay(self.requests(slots, "nominal"), due, clock)
        return PassResult(result.busy, len(slots), (slots, result), result.failed)

    def warm_up(self) -> None:
        """An untimed replay of the first request set.

        With only a short warm-up, the first two timed replays of a run
        took about 20% longer than replays of the same sets later on.
        """
        self.run_pass(0)

    def latencies(self, results: List[PassResult]) -> List[float]:
        return [t for r in results for t in r.payload[1].latencies]

    def ladder(self) -> float:
        """Fixed-rate rungs until one misses the p99 limit or backlogs."""
        rungs: List[Tuple[float, float, bool]] = []
        for rung, rate in enumerate(LADDER_RPS):
            window = [
                self.slot_sets[0][(rung * RUNG_REQUESTS + j) % PASS_REQUESTS]
                for j in range(RUNG_REQUESTS)
            ]
            due = self.arrivals(
                self.arrival_seeds[REQUEST_SETS + rung], rate, RUNG_REQUESTS
            )
            result = replay(self.requests(window, f"rung{rung}"), due)
            quarter = RUNG_REQUESTS // 4
            head = statistics.median(result.latencies[:quarter])
            tail = statistics.median(result.latencies[-quarter:])
            p99 = percentile(result.latencies, 99)
            ok = p99 <= P99_LIMIT_SECONDS and result.failed == 0 and tail <= 2 * head + 0.05
            rungs.append((float(rate), float(p99), ok))
            if not ok:
                break
        return goodput_from_ladder(rungs)

    def direct(self, slot: Slot):
        """The direct serial fit a request stands for."""
        problem, algorithm, request_seed = slot
        request = EstimationRequest(
            "direct", self.problems[problem].without_truth(),
            algorithm=algorithm, seed=request_seed,
        )
        return fit_request(request)

    def fill_oracle(self, slots) -> None:
        """Memoise the direct fit of every slot, on :data:`VERIFY_WORKERS` processes."""
        global _ORACLE_SOURCE
        missing = sorted(set(slots) - set(self.oracle))
        _ORACLE_SOURCE = self
        pool = multiprocessing.get_context("fork").Pool(VERIFY_WORKERS)
        try:
            fits = pool.map(_direct_fit, missing, chunksize=16)
        finally:
            pool.close()
            pool.join()
            _ORACLE_SOURCE = None
        self.oracle.update(zip(missing, fits))

    def verify(self, results: List[PassResult], checks: Checks) -> float:
        """Every answer against its direct fit; returns the first pass's em-ext accuracy."""
        accuracies = []
        self.fill_oracle(slot for result in results for slot in result.payload[0])
        for number, result in enumerate(results):
            slots, replayed = result.payload
            for slot, response in zip(slots, replayed.responses):
                if response is None or not response.ok:
                    continue
                checks.expect(
                    results_bitwise_equal(response.result, self.oracle[slot]),
                    f"{response.request_id} ({response.path}) differs from its direct fit",
                )
                if number == 0 and slot[1] == "em-ext":
                    truth = self.problems[slot[0]].truth
                    accuracies.append(score_result(response.result, truth).accuracy)
        return float(np.mean(accuracies))

    def counted(self, counters, recorder, result):
        _, replayed = result.payload
        answered = [r for r in replayed.responses if r is not None and r.ok]
        fitted = [r for r in answered if r.path != "cache"]

        def paths(path: str) -> int:
            return sum(1 for r in answered if r.path == path)

        return {
            "em.iterations": (
                int(counters.get("em.iterations", 0)),
                sum(r.result.n_iterations for r in fitted),
            ),
            "em.restarts": (int(counters.get("em.restarts", 0)), len(fitted)),
            "serve.batched": (int(counters.get("serve.batched", 0)), paths("batched")),
            "serve.cache.hits": (int(counters.get("serve.cache.hits", 0)), paths("cache")),
            "serve.fallbacks": (int(counters.get("serve.fallbacks", 0)), paths("serial")),
        }

    def layer_extras(self, recorder, result):
        _, replayed = result.payload
        answered = [r for r in replayed.responses if r is not None]
        queued = [t * 1000 for t in replayed.waits]
        service = [r.service_seconds * 1000 for r in answered if r.path != "cache"]
        return {
            "serve.queue_wait_p50_ms": percentile(queued, 50),
            "serve.queue_wait_p99_ms": percentile(queued, 99),
            "serve.service_p50_ms": percentile(service, 50),
            "serve.batch_mean": len(answered) / max(1, recorder.calls.get("serve.drain", 0)),
            "serve.cache_hit_frac": sum(r.path == "cache" for r in answered) / len(answered),
            "serve.fallback_frac": sum(r.path == "serial" for r in answered) / len(answered),
            "serve.refused": replayed.failed,
            "serve.backlog_max": replayed.backlog_max,
        }

    def traced_extras(self, untraced_seconds: float) -> Dict[str, float]:
        return {"serve.ladder_goodput_rps": self.ladder()}

    def reference_fit(self):
        problem = self.problems[0].without_truth()
        return lambda: EMExtEstimator(EMConfig(), seed=0).fit(problem)


#: The workload whose direct fits forked verification workers compute.
_ORACLE_SOURCE: Optional[ServeOpen] = None


def _direct_fit(slot: Slot):
    return _ORACLE_SOURCE.direct(slot)


WORKLOADS = {cls.name: cls for cls in (Fig7Sweep, Fig7SweepJobs2, ServeOpen, CrawlCsr)}


def load_expected(directory: str) -> dict:
    with open(os.path.join(directory, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_accuracy(expected: dict, workload: str, seed: int, value: float) -> Optional[str]:
    """``None`` if ``value`` matches the recorded accuracy, else why not.

    Seeds with a recorded value must reproduce it exactly; any other
    seed must land inside the recorded range.
    """
    entry = expected.get(workload)
    if entry is None:
        return f"no recorded accuracy for {workload}"
    recorded = entry["seeds"].get(str(seed))
    if recorded is not None:
        return None if recorded == value else f"accuracy {value!r} != recorded {recorded!r}"
    low, high = entry["range"]
    return None if low <= value <= high else f"accuracy {value!r} outside {entry['range']}"
