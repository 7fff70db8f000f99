"""Unit tests of the execution layer: config validation, ordering, containment."""

import os

import pytest

from repro.parallel import (
    ParallelConfig,
    WorkerTimeoutError,
    cpu_count,
    parallel_imap,
)
from repro.utils.errors import ValidationError


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _explode_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


class TestParallelConfig:
    def test_defaults_are_one_process_worker(self):
        config = ParallelConfig()
        assert config.n_jobs == 1
        assert config.start_method is None
        assert config.timeout_seconds is None
        assert config.max_resubmits == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_jobs": 0},
            {"n_jobs": -2},
            {"n_jobs": True},
            {"max_resubmits": -1},
            {"start_method": "magic"},
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ParallelConfig(**kwargs)

    def test_all_cores_resolves_to_cpu_count(self):
        assert ParallelConfig(n_jobs=-1).resolve_jobs() == cpu_count()
        assert cpu_count() >= 1

    def test_effective_jobs_capped_by_tasks(self):
        assert ParallelConfig(n_jobs=8).effective_jobs(3) == 3
        assert ParallelConfig(n_jobs=2).effective_jobs(100) == 2
        assert ParallelConfig(n_jobs=1).effective_jobs(100) == 1


def _run(fn, tasks, config):
    return list(parallel_imap(fn, tasks, config=config))


class TestParallelMap:
    def test_empty_task_list(self):
        assert _run(_square, [], ParallelConfig(n_jobs=4)) == []

    def test_single_job_runs_in_process(self):
        # The wedge guard supervises workers; one job has none to watch.
        for timeout_seconds in (None, 5.0):
            config = ParallelConfig(n_jobs=1, timeout_seconds=timeout_seconds)
            assert set(_run(_pid, range(4), config)) == {os.getpid()}

    def test_process_backend_uses_workers(self):
        pids = _run(_pid, range(8), ParallelConfig(n_jobs=2))
        assert os.getpid() not in pids

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize("tasks_per_job", [1, 3])
    def test_results_preserve_task_order(self, n_jobs, tasks_per_job):
        n_tasks = n_jobs * tasks_per_job
        config = ParallelConfig(n_jobs=n_jobs)
        assert _run(_square, range(n_tasks), config) == [
            x * x for x in range(n_tasks)
        ]

    def test_imap_streams_in_order(self):
        stream = parallel_imap(_square, range(5), config=ParallelConfig(n_jobs=2))
        assert next(stream) == 0
        assert list(stream) == [1, 4, 9, 16]

    def test_worker_exception_reraised_in_parent(self):
        with pytest.raises(ValueError, match="boom on 3"):
            _run(_explode_on_three, range(6), ParallelConfig(n_jobs=2))

    def test_worker_exception_raised_in_process_too(self):
        with pytest.raises(ValueError, match="boom on 3"):
            _run(_explode_on_three, range(6), ParallelConfig(n_jobs=1))

    def test_abandoned_stream_does_not_hang(self):
        stream = parallel_imap(_square, range(50), config=ParallelConfig(n_jobs=2))
        assert next(stream) == 0
        stream.close()  # must terminate the pool, not wait for 49 tasks

    def test_timeout_error_type_is_catchable(self):
        from repro.utils.errors import ReproError

        assert issubclass(WorkerTimeoutError, ReproError)
