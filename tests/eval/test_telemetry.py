"""End-to-end telemetry: the session's view of every EM loop a run made."""

import multiprocessing
import time

import pytest

from repro import observability
from repro.core import EMConfig, EMExtEstimator
from repro.eval import run_simulation, summarize_telemetry
from repro.eval.diagnostics import TelemetrySummary
from repro.eval.experiments import _estimator_sweep
from repro.parallel import ParallelConfig
from repro.resilience import FailurePolicy, InjectedFault, temporary_algorithm
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def small_config():
    return GeneratorConfig(n_sources=10, n_assertions=12, n_trees=(3, 5))


class _FlakySeedFinder:
    """Fails deterministically per trial seed (pure function of seed)."""

    algorithm_name = "flaky-seed-telemetry"
    accepts_trial_seed = True

    def __init__(self, seed=None, **_kwargs):
        self._seed = seed

    def fit(self, problem):
        from repro.baselines import make_fact_finder

        if self._seed % 3 == 0:
            raise InjectedFault(f"flaky on seed {self._seed}")
        return make_fact_finder("em", seed=self._seed).fit(problem)


class TestHarnessTelemetry:
    def test_run_simulation_records_iteration_timings(self, small_config):
        with observability.observe() as session:
            result = run_simulation(
                small_config,
                algorithms=("em", "em-ext"),
                n_trials=2,
                seed=0,
                include_optimal=False,
            )
        assert result.n_trials == 2
        summary = summarize_telemetry(session)
        # One scalar em loop and one em-ext lane pack per trial.
        assert summary.n_runs == 4
        assert summary.n_iterations > 0
        assert summary.total_seconds > 0.0
        assert summary.mean_iteration_seconds > 0.0

    def test_no_telemetry_by_default(self, small_config):
        # Smoke check: running without a session must not change behaviour.
        result = run_simulation(
            small_config,
            algorithms=("em",),
            n_trials=1,
            seed=0,
            include_optimal=False,
        )
        assert result.series["em"].accuracy
        assert observability.active() is None


class TestExperimentTelemetry:
    def test_estimator_sweep_path(self, small_config):
        """The figure-7-style experiment path lands in the session."""
        with observability.observe() as session:
            sweep = _estimator_sweep(
                "n_sources",
                [10],
                lambda value: GeneratorConfig(
                    n_sources=int(value), n_assertions=12, n_trees=(3, 5)
                ),
                n_trials=1,
                seed=0,
                include_optimal=False,
            )
        assert len(sweep.points) == 1
        # em, em-social and em-ext: one run each.
        assert summarize_telemetry(session).n_runs == 3


class TestSummarizeTelemetry:
    def test_summary_statistics(self, small_config):
        with observability.observe() as session:
            run_simulation(
                small_config,
                algorithms=("em-ext",),
                n_trials=1,
                seed=0,
                include_optimal=False,
            )
        summary = summarize_telemetry(session)
        assert isinstance(summary, TelemetrySummary)
        assert summary.n_iterations == session.metrics.counter("em.iterations")
        assert summary.mean_iteration_seconds == pytest.approx(
            summary.total_seconds / summary.n_iterations
        )
        assert summary.iterations_per_second > 0.0

    def test_empty_session_rejected(self):
        with observability.observe() as session:
            pass
        with pytest.raises(ValidationError):
            summarize_telemetry(session)

    def test_restart_lanes_are_timed_once(self):
        """Eight restart lanes share one pass; time must not count 8 times."""
        problem = generate_dataset(
            GeneratorConfig(n_sources=30, n_assertions=50), seed=7
        ).problem.without_truth()
        start = time.perf_counter()
        with observability.observe() as session:
            EMExtEstimator(EMConfig(n_restarts=8), seed=0).fit(problem)
        wall = time.perf_counter() - start
        summary = summarize_telemetry(session)
        assert summary.n_runs == 1
        assert 0.0 < summary.total_seconds <= wall


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers must inherit the parent's algorithm registry (fork only)",
)
class TestParallelTelemetry:
    def test_serial_and_two_workers_summarise_alike(self, small_config):
        def summary(parallel):
            with temporary_algorithm(_FlakySeedFinder):
                with observability.observe() as session:
                    run_simulation(
                        small_config,
                        algorithms=("em", "em-ext", _FlakySeedFinder.algorithm_name),
                        n_trials=6,
                        seed=8,
                        include_optimal=False,
                        failure_policy=FailurePolicy.retry(max_attempts=2),
                        parallel=parallel,
                    )
            return summarize_telemetry(session)

        serial = summary(None)
        pooled = summary(ParallelConfig(n_jobs=2))
        assert serial.n_retried > 0
        assert serial.n_skipped > 0
        for field in (
            "n_iterations",
            "n_runs",
            "n_trial_failures",
            "n_retried",
            "n_skipped",
        ):
            assert getattr(serial, field) == getattr(pooled, field), field
