"""Test wall of the estimation service.

The service's central promise is path transparency: batched, serial and
cached responses are bit-for-bit what the request's direct fit
(:func:`repro.serve.fit_request`) returns.  Everything here hangs off
that oracle, plus the admission-control and telemetry contracts.
"""

import time

import pytest

from repro import observability
from repro.core.em_ext import EMConfig
from repro.resilience.supervisor import BreakerConfig
from repro.serve import (
    PATH_BATCHED,
    PATH_CACHE,
    PATH_REJECTED,
    PATH_SERIAL,
    EstimationRequest,
    EstimationService,
    FingerprintCache,
    PendingRequest,
    ServiceConfig,
    batch_key,
    fit_request,
    plan_batches,
    problem_fingerprint,
    request_fingerprint,
    results_bitwise_equal,
)
from repro.serve import service as service_module
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ServiceOverloaded, ValidationError

FAST_CONFIG = EMConfig(init_strategy="random", max_iterations=60)


def make_problem(seed, n_sources=10, n_assertions=14):
    config = GeneratorConfig(n_sources=n_sources, n_assertions=n_assertions)
    return generate_dataset(config, seed=seed).problem.without_truth()


def make_request(request_id, seed, **kwargs):
    kwargs.setdefault("config", FAST_CONFIG)
    return EstimationRequest(
        request_id=request_id, problem=make_problem(seed), seed=seed, **kwargs
    )


@pytest.fixture(scope="module")
def fleet():
    """Eight same-shape requests plus their direct-fit reference results."""
    requests = [make_request(f"req-{i}", i) for i in range(8)]
    return requests, [fit_request(request) for request in requests]


class TestParity:
    def test_batched_responses_equal_direct_fits(self, fleet):
        requests, references = fleet
        responses = EstimationService().serve(requests)
        assert [r.request_id for r in responses] == [
            q.request_id for q in requests
        ]
        for response, reference in zip(responses, references):
            assert response.ok
            assert response.path == PATH_BATCHED
            assert results_bitwise_equal(response.result, reference)

    def test_serial_fallbacks_equal_direct_fits(self, fleet):
        requests, _ = fleet
        # A lone em-ext request runs as a one-lane pack; a CSR request
        # and a heuristic request take the serial path.  Each must still
        # match the oracle.
        pytest.importorskip("scipy")
        odd = [
            make_request("lone", 50),
            EstimationRequest(
                "csr", make_problem(51).csr_view(), seed=51, config=FAST_CONFIG
            ),
            EstimationRequest("vote", make_problem(52), algorithm="voting"),
        ]
        responses = EstimationService().serve(odd)
        assert [r.path for r in responses] == [PATH_BATCHED, PATH_SERIAL, PATH_SERIAL]
        for response, request in zip(responses, odd):
            assert response.ok
            assert results_bitwise_equal(response.result, fit_request(request))

    def test_mixed_drain_answers_in_submission_order(self, fleet):
        requests, references = fleet
        mixed = [
            requests[0],
            EstimationRequest("sums", make_problem(60), algorithm="sums"),
            requests[1],
        ]
        responses = EstimationService().serve(mixed)
        assert [r.request_id for r in responses] == ["req-0", "sums", "req-1"]
        assert responses[0].path == PATH_BATCHED
        assert responses[1].path == PATH_SERIAL
        assert results_bitwise_equal(responses[0].result, references[0])
        assert results_bitwise_equal(responses[2].result, references[1])

    def test_seeded_em_baselines_match_direct_construction(self):
        for algorithm in ("em", "em-social", "em-pooled"):
            request = EstimationRequest(
                f"{algorithm}-req",
                make_problem(70),
                algorithm=algorithm,
                config=None,
                seed=3,
            )
            (response,) = EstimationService().serve([request])
            assert response.ok, response.error
            assert results_bitwise_equal(
                response.result, fit_request(request)
            )


class TestResultCache:
    def test_identical_request_hits_cache_on_second_drain(self, fleet):
        requests, references = fleet
        service = EstimationService()
        first = service.serve(requests[:2])
        second = service.serve(requests[:2])
        assert all(r.path == PATH_BATCHED for r in first)
        assert all(r.path == PATH_CACHE for r in second)
        for response, reference in zip(second, references[:2]):
            assert results_bitwise_equal(response.result, reference)
        assert service.n_cache_hits == 2

    def test_cache_can_be_disabled(self, fleet):
        requests, _ = fleet
        service = EstimationService(ServiceConfig(result_cache_slots=0))
        service.serve(requests[:2])
        second = service.serve(requests[:2])
        assert all(r.path != PATH_CACHE for r in second)
        assert service.n_cache_hits == 0

    def test_generator_seeded_request_is_never_cached(self):
        import numpy as np

        service = EstimationService()
        problem = make_problem(80)
        for attempt in ("first", "second"):
            (response,) = service.serve(
                [
                    EstimationRequest(
                        attempt,
                        problem,
                        seed=np.random.default_rng(0),
                        config=FAST_CONFIG,
                    )
                ]
            )
            assert response.path == PATH_BATCHED
        assert service.n_cache_hits == 0


class TestWarmStart:
    def test_warm_start_equals_direct_fit_with_cached_parameters(self):
        service = EstimationService()
        cold = make_request("cold", 90)
        (first,) = service.serve([cold])
        warm = EstimationRequest(
            "warm", cold.problem, seed=90, config=FAST_CONFIG, warm_start=True
        )
        (second,) = service.serve([warm])
        assert second.ok
        reference = fit_request(
            warm, initial_parameters=first.result.parameters
        )
        assert results_bitwise_equal(second.result, reference)

    def test_warm_start_without_history_is_a_cold_fit(self):
        request = make_request("no-history", 91, warm_start=True)
        (response,) = EstimationService().serve([request])
        assert response.ok
        assert results_bitwise_equal(response.result, fit_request(request))


class TestAdmission:
    def test_unknown_algorithm_is_refused_at_the_door(self):
        service = EstimationService()
        with pytest.raises(ValidationError, match="unknown algorithm"):
            service.submit(
                EstimationRequest("bad", make_problem(1), algorithm="nope")
            )
        assert service.queue_depth == 0

    def test_full_queue_raises_service_overloaded(self):
        service = EstimationService(ServiceConfig(max_queue_depth=2))
        service.submit(make_request("a", 1))
        service.submit(make_request("b", 2))
        with pytest.raises(ServiceOverloaded) as excinfo:
            service.submit(make_request("c", 3))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.max_queue_depth == 2

    def test_serve_drains_through_overload(self, fleet):
        requests, references = fleet
        service = EstimationService(ServiceConfig(max_queue_depth=3))
        responses = service.serve(requests)
        assert [r.request_id for r in responses] == [
            q.request_id for q in requests
        ]
        for response, reference in zip(responses, references):
            assert response.ok
            assert results_bitwise_equal(response.result, reference)

    def test_expired_deadline_rejects_without_fitting(self):
        service = EstimationService()
        service.submit(make_request("stale", 1, timeout_seconds=0.005))
        time.sleep(0.02)
        (response,) = service.drain()
        assert not response.ok
        assert response.path == PATH_REJECTED
        assert response.error_type == "DeadlineExceeded"
        assert service.n_completed == 0
        # Staleness is not an algorithm fault: the breaker stays closed
        # and the next request runs normally.
        (retry,) = service.serve([make_request("fresh", 1)])
        assert retry.ok

    def test_default_timeout_applies_to_bare_requests(self):
        service = EstimationService(
            ServiceConfig(default_timeout_seconds=0.005)
        )
        service.submit(make_request("stale", 1))
        time.sleep(0.02)
        (response,) = service.drain()
        assert response.error_type == "DeadlineExceeded"


class TestBreaker:
    BREAKER = BreakerConfig(
        failure_threshold=0.5, window=4, min_calls=2, cooldown_calls=4
    )

    def test_repeated_failures_open_the_breaker(self, monkeypatch):
        def explode(request, *, initial_parameters=None):
            raise RuntimeError("fit exploded")

        monkeypatch.setattr(service_module, "fit_request", explode)
        service = EstimationService(ServiceConfig(breaker=self.BREAKER))
        poisoned = [
            EstimationRequest(f"bad-{i}", make_problem(i), algorithm="voting")
            for i in range(3)
        ]
        responses = service.serve(poisoned)
        assert all(r.error_type == "RuntimeError" for r in responses)
        (refused,) = service.serve(
            [EstimationRequest("next", make_problem(9), algorithm="voting")]
        )
        assert refused.path == PATH_REJECTED
        assert refused.error_type == "CircuitOpenError"
        assert service.stats()["breakers"]["voting"]["state"] == "open"

    def test_breakers_are_per_algorithm(self, monkeypatch):
        def explode(request, *, initial_parameters=None):
            raise RuntimeError("fit exploded")

        monkeypatch.setattr(service_module, "fit_request", explode)
        service = EstimationService(ServiceConfig(breaker=self.BREAKER))
        service.serve(
            [
                EstimationRequest(f"bad-{i}", make_problem(i), algorithm="voting")
                for i in range(3)
            ]
        )
        monkeypatch.undo()
        # The voting breaker is open; em-ext is untouched and still fits.
        (response,) = service.serve([make_request("good", 1)])
        assert response.ok


class TestDrainBudget:
    def test_exhausted_budget_fails_packs_without_tripping_breakers(self):
        service = EstimationService(
            ServiceConfig(drain_budget_seconds=1e-6)
        )
        responses = service.serve(
            [make_request(f"req-{i}", i) for i in range(4)]
        )
        assert all(r.error_type == "DeadlineExceeded" for r in responses)
        assert service.stats()["breakers"]["em-ext"]["state"] == "closed"


class TestBatchPlanner:
    def pend(self, request, position):
        return PendingRequest(request=request, position=position)

    def test_same_shape_requests_share_a_pack(self):
        items = [self.pend(make_request(f"r{i}", i), i) for i in range(3)]
        packs, serial = plan_batches(items, max_batch_size=32)
        assert len(packs) == 1
        assert [p.request.request_id for p in packs[0]] == ["r0", "r1", "r2"]
        assert serial == []

    def test_groups_chunk_to_the_lane_budget(self):
        items = [self.pend(make_request(f"r{i}", i), i) for i in range(5)]
        packs, serial = plan_batches(items, max_batch_size=2)
        # The size-1 tail chunk is a one-lane pack.
        assert [len(pack) for pack in packs] == [2, 2, 1]
        assert packs[2][0].request.request_id == "r4"
        assert serial == []

    def test_fallback_reasons(self):
        pytest.importorskip("scipy")
        items = [
            self.pend(
                EstimationRequest("h", make_problem(1), algorithm="sums"), 0
            ),
            self.pend(
                EstimationRequest(
                    "c", make_problem(2).csr_view(), config=FAST_CONFIG
                ),
                1,
            ),
            self.pend(make_request("s", 3), 2),
        ]
        packs, serial = plan_batches(items, max_batch_size=32)
        assert [[p.request.request_id for p in pack] for pack in packs] == [["s"]]
        assert {(p.request.request_id, r) for p, r in serial} == {
            ("h", "algorithm"),
            ("c", "format"),
        }

    def test_different_configs_never_share_a_pack(self):
        slow = EMConfig(init_strategy="random", max_iterations=61)
        items = [
            self.pend(make_request("a", 1), 0),
            self.pend(make_request("b", 2, config=slow), 1),
        ]
        packs, serial = plan_batches(items, max_batch_size=32)
        assert [[p.request.request_id for p in pack] for pack in packs] == [
            ["a"],
            ["b"],
        ]
        assert serial == []

    def test_batch_key_none_for_unbatchable(self):
        assert batch_key(
            EstimationRequest("h", make_problem(1), algorithm="voting")
        ) is None
        assert batch_key(make_request("d", 1)) == (10, 14, FAST_CONFIG)


class TestFingerprints:
    def test_problem_fingerprint_is_content_keyed(self):
        first = make_problem(1)
        again = make_problem(1)
        other = make_problem(2)
        assert first is not again
        assert problem_fingerprint(first) == problem_fingerprint(again)
        assert problem_fingerprint(first) != problem_fingerprint(other)

    def test_request_fingerprint_covers_seed_and_config(self):
        problem = make_problem(1)
        base = EstimationRequest("r", problem, seed=1, config=FAST_CONFIG)
        same = EstimationRequest("other-id", problem, seed=1, config=FAST_CONFIG)
        assert request_fingerprint(base) == request_fingerprint(same)
        reseeded = EstimationRequest("r", problem, seed=2, config=FAST_CONFIG)
        assert request_fingerprint(base) != request_fingerprint(reseeded)
        reconfigured = EstimationRequest("r", problem, seed=1, config=None)
        assert request_fingerprint(base) != request_fingerprint(reconfigured)

    def test_unstable_requests_have_no_fingerprint(self):
        import numpy as np

        problem = make_problem(1)
        warm = EstimationRequest("w", problem, seed=1, warm_start=True)
        assert request_fingerprint(warm) is None
        generator = EstimationRequest(
            "g", problem, seed=np.random.default_rng(0)
        )
        assert request_fingerprint(generator) is None

    def test_fingerprint_cache_evicts_least_recently_used(self):
        cache = FingerprintCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2


class TestObservability:
    def test_counters_and_spans_cover_the_drain(self, fleet):
        requests, _ = fleet
        workload = list(requests[:4]) + [
            EstimationRequest("vote", make_problem(61), algorithm="voting")
        ]
        with observability.observe(root_name="serve-test") as session:
            EstimationService().serve(workload)
            snapshot = session.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.requests"] == 5
        assert counters["serve.batched"] == 4
        assert counters["serve.fallbacks"] == 1
        assert counters["serve.fallbacks.algorithm"] == 1
        assert snapshot["gauges"]["serve.queue.depth"] == 0
        occupancy = snapshot["histograms"]["serve.batch.occupancy"]
        assert occupancy["count"] == 1 and occupancy["max"] == 4.0
        names = [span.name for span in session.export_spans()]
        assert "serve.batch.drain" in names
        drain = names.index("serve.batch.drain")
        children = [
            child.name
            for child in session.export_spans()[drain].children
        ]
        assert children.count("serve.request") == 5

    def test_cache_hit_rate_counters(self, fleet):
        requests, _ = fleet
        with observability.observe() as session:
            service = EstimationService()
            service.serve(requests[:2])
            service.serve(requests[:2])
            counters = session.metrics.snapshot()["counters"]
        assert counters["serve.cache.misses"] == 2
        assert counters["serve.cache.hits"] == 2

    def test_observability_is_bitwise_transparent(self, fleet):
        requests, references = fleet
        with observability.observe():
            responses = EstimationService().serve(requests[:3])
        for response, reference in zip(responses, references[:3]):
            assert results_bitwise_equal(response.result, reference)


class TestStats:
    def test_stats_reflect_the_paths_taken(self, fleet):
        requests, _ = fleet
        service = EstimationService()
        service.serve(
            list(requests[:3])
            + [EstimationRequest("vote", make_problem(62), algorithm="voting")]
        )
        stats = service.stats()
        assert stats["n_submitted"] == 4
        assert stats["n_completed"] == 4
        assert stats["n_batched"] == 3
        assert stats["n_serial"] == 1
        assert stats["n_rejected"] == 0
        assert stats["queue_depth"] == 0
        assert set(stats["breakers"]) == {"em-ext", "voting"}
