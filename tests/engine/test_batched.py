"""The batched engine's parity wall: lane ``b`` IS the serial run ``b``.

Everything the batched tensor path produces — parameters, posteriors,
log-likelihood traces, restart selection, health ledgers, even fault
message strings — must be **bit-for-bit** what the scalar loop produces
for the same lane alone.  Every dense ``EMExtEstimator.fit`` runs on
this engine, so the wall compares it with the *scalar reference*
(:func:`_scalar_reference`: ``EMDriver.fit`` over a ``DenseBackend``)
at every layer: the stacked parameter container, ``run_batched_lanes``
against ``EMDriver.run``, dense fits (restarts as lanes) against the
scalar restart loop, and :func:`repro.core.fit_em_ext_batch` against
per-problem fits — plus the transparency guarantee that observability
being on or off changes no bits.
"""

import numpy as np
import pytest

from repro import observability
from repro.core import SourceParameters, fit_em_ext_batch
from repro.core.em_ext import (
    EMConfig,
    EMExtEstimator,
    _estimation_result,
    _lane_candidates,
)
from repro.core.likelihood import column_log_likelihoods
from repro.engine import EMDriver
from repro.engine.backends import DenseBackend, _check_rates_finite
from repro.engine.batched import (
    _RATES_FAULT,
    _Z_FAULT,
    BatchedDenseBackend,
    BatchedSourceParameters,
    run_batched_lanes,
)
from repro.resilience import FaultInjector
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ConvergenceError, ValidationError
from repro.utils.rng import RandomState
from repro.utils.validation import check_probability

SEED = 20160627  # the paper's conference date; any fixed seed works


def _problem(n_sources=10, n_assertions=16, seed=SEED):
    config = GeneratorConfig(
        n_sources=n_sources, n_assertions=n_assertions, n_trees=(3, 4)
    )
    return generate_dataset(config, seed=seed).problem.without_truth()


def _scalar_reference(problem, config, seed, *, initial_parameters=None):
    """The scalar ``EMDriver.fit`` loop a dense EM-Ext fit must equal."""
    backend = DenseBackend(problem, smoothing=config.smoothing, epsilon=config.epsilon)
    estimator = EMExtEstimator(config, seed=seed, initial_parameters=initial_parameters)
    driver = EMDriver.from_config(config)
    return _estimation_result(driver.fit(backend, estimator._initialiser(backend), seed))


def _shared(backend, n_lanes):
    """``n_lanes`` restart lanes over one scalar backend."""
    return BatchedDenseBackend.from_backends([backend] * n_lanes)


def _random_params(n_sources, seed, count):
    rngs = [np.random.default_rng((seed, index)) for index in range(count)]
    return [SourceParameters.random(n_sources, rng).clamp(1e-4) for rng in rngs]


def _assert_outcomes_bitwise(serial, batched, label=""):
    assert np.array_equal(serial.posterior, batched.posterior), f"{label} posterior"
    for name in ("a", "b", "f", "g"):
        assert np.array_equal(
            getattr(serial.parameters, name), getattr(batched.parameters, name)
        ), f"{label} rate {name}"
    assert serial.parameters.z == batched.parameters.z, f"{label} z"
    assert serial.trace.log_likelihoods == batched.trace.log_likelihoods, (
        f"{label} trace lls"
    )
    assert serial.trace.parameter_deltas == batched.trace.parameter_deltas, (
        f"{label} trace deltas"
    )
    assert serial.converged == batched.converged, f"{label} converged"
    assert serial.diverged == batched.diverged, f"{label} diverged"


def _assert_results_bitwise(serial, batched, label=""):
    assert np.array_equal(serial.scores, batched.scores), f"{label} scores"
    assert np.array_equal(serial.decisions, batched.decisions), f"{label} decisions"
    assert serial.log_likelihood == batched.log_likelihood, f"{label} ll"
    for name in ("a", "b", "f", "g"):
        assert np.array_equal(
            getattr(serial.parameters, name), getattr(batched.parameters, name)
        ), f"{label} rate {name}"
    assert serial.parameters.z == batched.parameters.z, f"{label} z"
    assert serial.n_iterations == batched.n_iterations, f"{label} iterations"
    assert serial.trace.log_likelihoods == batched.trace.log_likelihoods, (
        f"{label} trace"
    )
    assert serial.health.selected == batched.health.selected, f"{label} selection"
    assert [
        (r.index, r.status, r.n_iterations, r.error) for r in serial.health.restarts
    ] == [
        (r.index, r.status, r.n_iterations, r.error) for r in batched.health.restarts
    ], f"{label} health ledger"


class TestBatchedSourceParameters:
    def test_stack_and_lane_round_trip(self):
        params = _random_params(6, SEED, 4)
        stacked = BatchedSourceParameters.stack(params)
        assert stacked.n_lanes == 4 and stacked.n_sources == 6
        for index, original in enumerate(params):
            lane = stacked.lane(index)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(original, name))
            assert lane.z == original.z

    def test_max_difference_matches_scalar_lanes(self):
        left = _random_params(5, SEED, 3)
        right = _random_params(5, SEED + 1, 3)
        deltas = BatchedSourceParameters.stack(left).max_difference(
            BatchedSourceParameters.stack(right)
        )
        for index in range(3):
            assert deltas[index] == left[index].max_difference(right[index])

    def test_clamp_matches_scalar_clamp(self):
        params = _random_params(5, SEED, 3)
        clamped = BatchedSourceParameters.stack(params).clamp(0.05)
        for index, original in enumerate(params):
            lane = clamped.lane(index)
            scalar = original.clamp(0.05)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(scalar, name))

    def test_stack_validations(self):
        with pytest.raises(ValidationError):
            BatchedSourceParameters.stack([])
        mixed = [
            SourceParameters.random(4, SEED),
            SourceParameters.random(5, SEED),
        ]
        with pytest.raises(ValidationError):
            BatchedSourceParameters.stack(mixed)
        with pytest.raises(ValidationError):
            BatchedSourceParameters.stack(_random_params(4, SEED, 2)).clamp(0.7)

    def test_lane_faults_messages_and_precedence(self):
        stacked = BatchedSourceParameters.stack(_random_params(4, SEED, 3))
        rates = stacked.rates.copy()
        z = stacked.z.copy()
        rates[1, 2, 0] = np.nan
        z[2] = np.nan
        faults = BatchedSourceParameters(rates=rates, z=z).lane_faults()
        assert faults == [None, _RATES_FAULT, _Z_FAULT]
        # A lane with both faults reports the rates fault, matching the
        # serial guard order (_check_rates_finite runs first).
        z[1] = np.nan
        faults = BatchedSourceParameters(rates=rates, z=z).lane_faults()
        assert faults[1] == _RATES_FAULT
        assert BatchedSourceParameters.stack(
            _random_params(4, SEED, 3)
        ).lane_faults() is None

    def test_fault_strings_are_the_serial_exceptions_verbatim(self):
        """The pinned constants ARE the serial raise sites' messages."""
        nan = np.array([np.nan])
        ok = np.array([0.5])
        with pytest.raises(ValidationError) as rates_exc:
            _check_rates_finite(nan, ok, ok, ok)
        assert _RATES_FAULT == f"ValidationError: {rates_exc.value}"
        with pytest.raises(ValidationError) as z_exc:
            check_probability(float("nan"), "z")
        assert _Z_FAULT == f"ValidationError: {z_exc.value}"


class TestBatchedKernelParity:
    def test_column_log_likelihoods_match_core_per_lane(self):
        """The fused dual-table gather selects the serial floats."""
        problems = [_problem(seed=SEED + k) for k in range(3)]
        backends = [DenseBackend(p) for p in problems]
        params = _random_params(problems[0].n_sources, SEED, 3)
        batched = BatchedDenseBackend.from_backends(backends)
        log_true, log_false, _ = batched._column_log_likelihoods(
            BatchedSourceParameters.stack(params)
        )
        for index, (backend, p) in enumerate(zip(backends, params)):
            expected_true, expected_false = column_log_likelihoods(
                backend.sc, backend.dep, p
            )
            assert np.array_equal(log_true[index], expected_true)
            assert np.array_equal(log_false[index], expected_false)

    def test_degenerate_lane_takes_legacy_path_bitwise(self):
        """An unclamped 0/1 rate lane splices the serial legacy result."""
        problem = _problem()
        backend = DenseBackend(problem)
        params = _random_params(problem.n_sources, SEED, 3)
        a = params[1].a.copy()
        f = params[1].f.copy()
        a[0] = 0.0  # one unclamped degenerate source: log(0) tables
        f[0] = 1.0
        degenerate = SourceParameters(a=a, b=params[1].b, f=f, g=params[1].g, z=0.5)
        lanes = [params[0], degenerate, params[2]]
        batched = _shared(backend, 3)
        # The legacy path warns on 0·(-inf) products for unclamped θ —
        # identically on the serial backend; silence it on both sides so
        # the comparison is about the floats, not the warning filter.
        with np.errstate(invalid="ignore", divide="ignore"):
            log_true, log_false, _ = batched._column_log_likelihoods(
                BatchedSourceParameters.stack(lanes)
            )
            expected = [
                column_log_likelihoods(backend.sc, backend.dep, p) for p in lanes
            ]
        for index, (expected_true, expected_false) in enumerate(expected):
            assert np.array_equal(log_true[index], expected_true, equal_nan=True)
            assert np.array_equal(log_false[index], expected_false, equal_nan=True)

    def test_e_step_and_m_step_match_scalar_backend(self):
        problems = [_problem(seed=SEED + k) for k in range(3)]
        backends = [DenseBackend(p) for p in problems]
        params = _random_params(problems[0].n_sources, SEED + 7, 3)
        batched = BatchedDenseBackend.from_backends(backends)
        stacked = BatchedSourceParameters.stack(params)
        posterior, lls = batched.e_step(stacked)
        for index, (backend, p) in enumerate(zip(backends, params)):
            expected_posterior, expected_ll = backend.e_step(p)
            assert np.array_equal(posterior[index], expected_posterior)
            assert lls[index] == expected_ll
        new_params = batched.m_step(posterior, stacked)
        for index, (backend, p) in enumerate(zip(backends, params)):
            expected = backend.m_step(posterior[index], p)
            lane = new_params.lane(index)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(expected, name))
            assert lane.z == expected.z

    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_m_step_smoothing_paths_match(self, smoothing):
        problem = _problem()
        backend = DenseBackend(problem, smoothing=smoothing)
        params = _random_params(problem.n_sources, SEED, 2)
        batched = _shared(backend, 2)
        stacked = BatchedSourceParameters.stack(params)
        posterior, _ = batched.e_step(stacked)
        new_params = batched.m_step(posterior, stacked)
        for index, p in enumerate(params):
            expected = backend.m_step(posterior[index], p)
            lane = new_params.lane(index)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(expected, name))


class TestRunBatchedLanes:
    def test_every_lane_matches_its_serial_run(self):
        """Lanes retire at different passes; each is bitwise its solo run."""
        problem = _problem()
        backend = DenseBackend(problem)
        inits = _random_params(problem.n_sources, SEED, 5)
        driver = EMDriver(max_iterations=60, tolerance=1e-6)
        lanes = run_batched_lanes(
            _shared(backend, 5),
            inits,
            max_iterations=60,
            tolerance=1e-6,
        )
        iteration_counts = set()
        for lane, init in zip(lanes, inits):
            assert lane.error is None
            serial = driver.run(backend, init)
            _assert_outcomes_bitwise(serial, lane.outcome)
            iteration_counts.add(lane.outcome.n_iterations)
        # The compaction path is only exercised when lanes actually
        # retire on different passes; 5 random starts guarantee it.
        assert len(iteration_counts) > 1

    def test_repeated_runs_are_bitwise_identical(self):
        problem = _problem()
        backend = DenseBackend(problem)
        inits = _random_params(problem.n_sources, SEED, 3)

        def run():
            return run_batched_lanes(
                _shared(backend, 3),
                inits,
                max_iterations=40,
                tolerance=1e-6,
            )

        for got, expected in zip(run(), run()):
            _assert_outcomes_bitwise(expected.outcome, got.outcome)

    def test_lane_count_mismatch_rejected(self):
        problem = _problem()
        backend = DenseBackend(problem)
        with pytest.raises(ValidationError):
            run_batched_lanes(
                _shared(backend, 3),
                _random_params(problem.n_sources, SEED, 2),
                max_iterations=5,
                tolerance=1e-6,
            )

    def test_from_backends_validations(self):
        with pytest.raises(ValidationError):
            BatchedDenseBackend.from_backends([])
        small = DenseBackend(_problem(n_sources=6))
        large = DenseBackend(_problem(n_sources=8))
        with pytest.raises(ValidationError):
            BatchedDenseBackend.from_backends([small, large])
        plain = DenseBackend(_problem())
        smoothed = DenseBackend(_problem(), smoothing=1.0)
        with pytest.raises(ValidationError):
            BatchedDenseBackend.from_backends([plain, smoothed])


class TestRestartModeParity:
    """Restarts run as lanes; the scalar restart loop is the reference."""

    @pytest.mark.parametrize("n_restarts", [2, 5])
    def test_batched_restarts_match_serial(self, n_restarts):
        problem = _problem(n_sources=12, n_assertions=20)
        config = EMConfig(n_restarts=n_restarts, init_strategy="random")
        _assert_results_bitwise(
            _scalar_reference(problem, config, SEED),
            EMExtEstimator(config, seed=SEED).fit(problem),
        )

    def test_smoothed_batched_restarts_match_serial(self):
        problem = _problem()
        config = EMConfig(n_restarts=3, init_strategy="random", smoothing=1.0)
        _assert_results_bitwise(
            _scalar_reference(problem, config, SEED),
            EMExtEstimator(config, seed=SEED).fit(problem),
        )

    def test_fault_parity_on_poisoned_claims(self):
        """NaN claims fault every lane with the serial error, verbatim."""
        problem = _problem()
        estimator = EMExtEstimator(seed=SEED)
        config = EMConfig(n_restarts=3, init_strategy="random")

        def poisoned_backend():
            backend = DenseBackend(problem)
            backend.sc[0, 0] = np.nan
            backend.sc_indep[0, 0] = np.nan
            return backend

        backend = poisoned_backend()
        with pytest.raises(ConvergenceError) as serial:
            EMDriver.from_config(config).fit(
                backend, estimator._initialiser(backend), SEED
            )
        backend = poisoned_backend()
        driver = EMDriver.from_config(config)
        prepared, init_errors = driver._prepare_restarts(
            estimator._initialiser(backend), RandomState(SEED)
        )
        lanes = run_batched_lanes(
            _shared(backend, len(prepared)),
            [params for _, params in prepared],
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
        )
        indices = [index for index, _ in prepared]
        with pytest.raises(ConvergenceError) as batched:
            driver.consume_candidates(
                _lane_candidates(iter(lanes), indices, init_errors, 3)
            )
        assert str(serial.value) == str(batched.value)
        assert "every EM restart failed" in str(batched.value)

    def test_lane_fault_string_matches_the_serial_raise(self):
        """A poisoned lane retires with the serial m_step's message."""
        backend = DenseBackend(_problem())
        backend.sc[0, 0] = np.nan
        backend.sc_indep[0, 0] = np.nan
        inits = _random_params(backend.n_sources, SEED, 2)
        with pytest.raises(ValidationError) as exc:
            backend.m_step(backend.posterior(inits[0]), inits[0])
        serial_error = f"{type(exc.value).__name__}: {exc.value}"
        lanes = run_batched_lanes(
            _shared(backend, 2),
            inits,
            max_iterations=10,
            tolerance=1e-6,
        )
        for lane in lanes:
            assert lane.outcome is None
            assert lane.error == serial_error == _RATES_FAULT

    def test_csr_backend_falls_back_to_serial(self):
        """CSR input with a warm start stays on the scalar sparse loop."""
        pytest.importorskip("scipy")
        from repro.data.coerce import coerce_problem
        from repro.data.protocol import FORMAT_CSR
        from repro.engine import make_backend

        problem = _problem()
        csr = coerce_problem(problem, needs=(FORMAT_CSR,))
        # Explicit warm starts keep the problem on the CSR backend
        # (random draws would densify it), which has no batched twin.
        warm = SourceParameters.random(problem.n_sources, SEED).clamp(1e-4)
        config = EMConfig(n_restarts=3)
        estimator = EMExtEstimator(config, seed=SEED, initial_parameters=warm)
        backend = make_backend(csr, smoothing=config.smoothing, epsilon=config.epsilon)
        reference = _estimation_result(
            EMDriver.from_config(config).fit(
                backend, estimator._initialiser(backend), SEED
            )
        )
        with observability.observe(root_name="test") as session:
            fitted = estimator.fit(csr)
        _assert_results_bitwise(reference, fitted)
        counters = session.metrics.snapshot()["counters"]
        assert "engine.batched.lanes" not in counters

    def test_random_init_csr_input_densifies_and_batches(self):
        """Random restarts densify CSR input, so lanes still run."""
        pytest.importorskip("scipy")
        from repro.data.coerce import coerce_problem
        from repro.data.protocol import FORMAT_CSR

        problem = _problem()
        csr = coerce_problem(problem, needs=(FORMAT_CSR,))
        config = EMConfig(n_restarts=3, init_strategy="random")
        with observability.observe(root_name="test") as session:
            batched = EMExtEstimator(config, seed=SEED).fit(csr)
        _assert_results_bitwise(_scalar_reference(problem, config, SEED), batched)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("engine.batched.lanes") == 3


class TestScalarReferenceWall:
    """Every dense fit configuration equals the scalar reference loop."""

    @pytest.mark.parametrize("n_restarts", [1, 4])
    @pytest.mark.parametrize("smoothing", [0.0, 2.0])
    @pytest.mark.parametrize("init_strategy", ["staged", "support", "random"])
    def test_fit_matches_scalar_reference(self, init_strategy, smoothing, n_restarts):
        problem = _problem(n_sources=12, n_assertions=20)
        config = EMConfig(
            init_strategy=init_strategy, smoothing=smoothing, n_restarts=n_restarts
        )
        _assert_results_bitwise(
            _scalar_reference(problem, config, SEED),
            EMExtEstimator(config, seed=SEED).fit(problem),
        )

    def test_warm_start_matches_scalar_reference(self):
        problem = _problem(n_sources=12, n_assertions=20)
        warm = SourceParameters.random(problem.n_sources, SEED).clamp(1e-4)
        config = EMConfig(n_restarts=3)
        _assert_results_bitwise(
            _scalar_reference(problem, config, SEED, initial_parameters=warm),
            EMExtEstimator(config, seed=SEED, initial_parameters=warm).fit(problem),
        )

    @pytest.mark.parametrize("strict", [False, True])
    def test_poisoned_claims_match_scalar_reference(self, strict, monkeypatch):
        """Same restart ledger strings, same ConvergenceError."""
        problem = FaultInjector(seed=0).poison_claims(_problem(), rate=0.1)
        config = EMConfig(n_restarts=3, strict=strict)
        ledgers = []
        consume = EMDriver.consume_candidates

        def recording(self, candidates, health=None):
            ledger = []
            ledgers.append(ledger)

            def tapped():
                for index, outcome, error in candidates:
                    ledger.append((index, outcome is None, error))
                    yield index, outcome, error

            return consume(self, tapped(), health)

        monkeypatch.setattr(EMDriver, "consume_candidates", recording)
        with pytest.raises(ConvergenceError) as serial:
            _scalar_reference(problem, config, SEED)
        with pytest.raises(ConvergenceError) as batched:
            EMExtEstimator(config, seed=SEED).fit(problem)
        assert str(serial.value) == str(batched.value)
        assert serial.value.iterations == batched.value.iterations
        assert np.array_equal(
            serial.value.residual, batched.value.residual, equal_nan=True
        )
        serial_ledger, batched_ledger = ledgers
        assert serial_ledger == batched_ledger
        assert len(serial_ledger) == 3
        assert all(error for _, _, error in serial_ledger)

    def test_wall_budget_counts_initialisation(self, monkeypatch):
        """The max_wall_seconds clock starts before the initialisers run."""
        import time

        from repro.core import em_ext

        staged = em_ext.staged_initialisation

        def slow_staged(*args, **kwargs):
            time.sleep(0.1)
            return staged(*args, **kwargs)

        monkeypatch.setattr(em_ext, "staged_initialisation", slow_staged)
        config = EMConfig(tolerance=1e-12, max_wall_seconds=0.05)
        result = EMExtEstimator(config, seed=SEED).fit(_problem())
        assert result.health.budget_exhausted
        assert result.n_iterations == 1


class TestFitEmExtBatch:
    def test_each_result_matches_the_scalar_fit(self):
        problems = [_problem(seed=SEED + k) for k in range(4)]
        seeds = [SEED + 100 + k for k in range(4)]
        config = EMConfig(n_restarts=2, init_strategy="random")
        batched = fit_em_ext_batch(problems, seeds=seeds, config=config)
        for problem, seed, result in zip(problems, seeds, batched):
            serial = EMExtEstimator(config, seed=seed).fit(problem)
            _assert_results_bitwise(serial, result)

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fit_em_ext_batch([_problem()], seeds=[1, 2])


class TestTransparency:
    """PR 8's guarantee extends to the batched engine: observability on
    or off, the numbers are bit-for-bit identical."""

    def test_observed_batched_fit_is_bitwise_unchanged(self):
        problem = _problem()
        config = EMConfig(n_restarts=3, init_strategy="random")
        dark = EMExtEstimator(config, seed=SEED).fit(problem)
        with observability.observe(root_name="test") as session:
            observed = EMExtEstimator(config, seed=SEED).fit(problem)
        _assert_results_bitwise(dark, observed)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("engine.batched.lanes") == 3
        assert counters.get("engine.batched.lane_retirements", 0) >= 1
        histograms = session.metrics.snapshot()["histograms"]
        assert "engine.batched.occupancy" in histograms

    def test_em_iterations_counter_matches_serial_total(self):
        problem = _problem()
        config = EMConfig(n_restarts=3, init_strategy="random")

        def iterations(fit):
            with observability.observe(root_name="test") as session:
                fit()
            return session.metrics.snapshot()["counters"]["em.iterations"]

        assert iterations(lambda: _scalar_reference(problem, config, SEED)) == iterations(
            lambda: EMExtEstimator(config, seed=SEED).fit(problem)
        )

    def test_single_fit_span_tree_is_em_fit_then_em_run(self):
        """A one-problem pack runs its lanes inside its own em.fit span."""
        config = EMConfig(n_restarts=3, init_strategy="random")
        with observability.observe(root_name="test") as session:
            EMExtEstimator(config, seed=SEED).fit(_problem())
        (fit,) = [c for c in session.finish().children if c.name == "em.fit"]
        (run,) = [c for c in fit.children if c.name == "em.run"]
        assert run.attributes["n_lanes"] == 3
