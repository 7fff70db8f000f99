"""The benchmark's own tests: seeded inputs, exact counts, refusals, spans.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import run

run.prepare_environment()

import spans  # noqa: E402
import workloads  # noqa: E402

from repro.eval import harness  # noqa: E402
from repro.serve import EstimationService, ServiceConfig  # noqa: E402
from repro.synthetic import GeneratorConfig  # noqa: E402


def _fingerprint(problem) -> bytes:
    return problem.claims.values.tobytes() + problem.dependency.values.tobytes()


@pytest.fixture(scope="module")
def serve_pair():
    return (
        workloads.ServeOpen(5, ""),
        workloads.ServeOpen(5, ""),
        workloads.ServeOpen(6, ""),
    )


def test_same_seed_same_requests_and_arrivals(serve_pair):
    first, again, other = serve_pair
    assert first.slot_sets == again.slot_sets
    assert [_fingerprint(p) for p in first.problems] == [_fingerprint(p) for p in again.problems]
    assert first.arrival_seeds == again.arrival_seeds
    due = first.arrivals(first.arrival_seeds[0], workloads.NOMINAL_RPS, 50)
    assert np.array_equal(due, again.arrivals(again.arrival_seeds[0], workloads.NOMINAL_RPS, 50))
    assert first.slot_sets != other.slot_sets
    assert _fingerprint(first.problems[0]) != _fingerprint(other.problems[0])
    assert first.arrival_seeds != other.arrival_seeds


def test_request_mix_has_repeats_and_fallbacks(serve_pair):
    slot_sets = serve_pair[0].slot_sets
    for slots in slot_sets:
        distinct = len(set(slots))
        assert 0.05 < 1 - distinct / len(slots) < 0.15
        social = sum(algorithm == "em-social" for _, algorithm, _ in slots)
        assert 0.05 < social / len(slots) < 0.15
    first, second = (set(slots) for slots in slot_sets[:2])
    assert not first & second


def test_sweep_seeds_follow_the_seed():
    def seeds(seed):
        return workloads.Fig7Sweep(seed, "").sweep_seeds

    assert seeds(3) == seeds(3)
    assert seeds(3) != seeds(4)


def test_crawl_inputs_repeat_per_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INPUT_SETS", 1)
    monkeypatch.setattr(workloads, "CRAWL_DATASETS", ("kirkuk",))
    monkeypatch.setattr(workloads, "CRAWL_SCALE", 0.2)
    loaded = []
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        directory = tmp_path / name
        directory.mkdir()
        workloads.write_crawl_inputs(seed, str(directory))
        ((problem, labels),) = workloads.load_crawl_inputs(str(directory))[0]
        assert problem.format == "csr"
        loaded.append((problem.claims.toarray().tobytes(), labels))
    assert loaded[0] == loaded[1]
    assert loaded[0] != loaded[2]


def _traced_point():
    recorder = spans.Recorder()
    config = GeneratorConfig.estimator_defaults(n_sources=20)
    with spans.instrument(recorder):
        with recorder.span("bench.pass"):
            harness.run_simulation(
                config, seed=11, algorithms=("em", "em-social", "em-ext"), n_trials=1
            )
    return recorder


def test_exact_counts_repeat():
    first, second = _traced_point(), _traced_point()
    for recorder in (first, second):
        assert recorder.calls["bound.exact"] == 1
        assert len(recorder.fits) == 3
    assert first.fits == second.fits
    assert first.exact_patterns == second.exact_patterns == 1 << 20
    fit = workloads.Fig7Sweep(3, "").reference_fit()
    assert workloads.calls_per_iteration(fit) == workloads.calls_per_iteration(fit)


def test_self_times_add_up_to_the_root():
    recorder = _traced_point()
    root = recorder.total["bench.pass"]
    assert sum(recorder.self_time.values()) == pytest.approx(root, rel=1e-9)
    metrics = workloads.layer_metrics(recorder)
    assert 0 <= metrics["bench.unattributed_frac"] < 0.05


def test_instrument_restores_entry_points():
    from repro.engine.backends import DenseBackend

    before = (harness.exact_bound, DenseBackend.e_step, harness.parallel_imap)
    with spans.instrument(spans.Recorder()):
        assert harness.exact_bound is not before[0]
    assert (harness.exact_bound, DenseBackend.e_step, harness.parallel_imap) == before


def test_refused_request_is_counted_not_raised(serve_pair, monkeypatch):
    monkeypatch.setattr(
        workloads, "EstimationService",
        lambda: EstimationService(ServiceConfig(max_queue_depth=2)),
    )
    serve = serve_pair[0]
    requests = serve.requests(serve.slot_sets[0][:5], "burst")
    result = workloads.replay(requests, [0.0] * 5)
    assert result.refused == 3
    assert sum(r is None for r in result.responses) == 3
    assert all(np.isfinite(result.latencies))


def test_goodput_interpolates_the_p99_crossing():
    limit = workloads.P99_LIMIT_SECONDS
    rungs = [(100.0, limit / 2, True), (150.0, limit * 1.5, False)]
    assert workloads.goodput_from_ladder(rungs) == pytest.approx(125.0)
    assert workloads.goodput_from_ladder([(100.0, limit * 2, False)]) == pytest.approx(50.0)
    assert workloads.goodput_from_ladder([(100.0, 0.01, True), (150.0, 0.02, True)]) == 150.0


def test_accuracy_check():
    expected = {"w": {"range": [0.5, 0.9], "seeds": {"1": 0.75}}}
    assert workloads.check_accuracy(expected, "w", 1, 0.75) is None
    assert workloads.check_accuracy(expected, "w", 1, 0.7) is not None
    assert workloads.check_accuracy(expected, "w", 2, 0.6) is None
    assert workloads.check_accuracy(expected, "w", 2, 0.95) is not None
    assert workloads.check_accuracy(expected, "x", 2, 0.6) is not None


def test_expected_covers_every_workload():
    recorded = workloads.load_expected(run.HERE)
    assert set(recorded) == set(workloads.WORKLOADS)


def test_spec_matches_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
