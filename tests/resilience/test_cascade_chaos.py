"""Chaos coverage of the bound degradation cascade.

Two contracts from ``repro.bounds.cascade`` are pinned here:

* **always answers** — whatever is injected (NaN-poisoned dependency
  cells, tiers that raise, expired deadlines, even a sabotaged analytic
  runner) :func:`bound_cascade` returns a finite bound and a
  :class:`DegradationReport` that truthfully says which tier ran and
  why the better ones did not;
* **transparent when unconstrained** — with no deadline and no faults
  the cascade calls the top tier verbatim, so its bound is bit-for-bit
  the tier's own output (property-tested across random problems).

The deadline plumbing through :class:`~repro.engine.driver.EMDriver`
is exercised at the bottom: an expired budget surfaces as a structured
:class:`DeadlineExceeded`, never a hang or a bare timeout.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import (
    CASCADE_TIERS,
    GibbsConfig,
    MAX_EXACT_SOURCES,
    bound_cascade,
    estimate_exact_seconds,
    exact_bound,
)
from repro.bounds.cascade import analytic_tier
from repro.core import SourceParameters
from repro.engine import DenseBackend, EMDriver, support_initialisation
from repro.resilience import Deadline, FaultInjector, InjectedFault
from repro.synthetic import GeneratorConfig, empirical_parameters, generate_dataset
from repro.utils.errors import DeadlineExceeded, ValidationError

pytestmark = pytest.mark.chaos

CONFIG = GeneratorConfig(n_sources=8, n_assertions=24, n_trees=(3, 4))

#: Small sampler budget: these tests check degradation logic, not
#: Monte-Carlo accuracy.
FAST_GIBBS = GibbsConfig(burn_in=10, min_sweeps=50, max_sweeps=100, check_interval=50)


def _problem_and_params(seed=21):
    dataset = generate_dataset(CONFIG, seed=seed)
    params = empirical_parameters(dataset.problem).clamp(1e-4)
    return dataset.problem, params


def _boom(*_args, **_kwargs):
    raise InjectedFault("tier sabotaged by test")


def _assert_finite(bound):
    assert np.isfinite(bound.total)
    assert np.isfinite(bound.false_positive)
    assert np.isfinite(bound.false_negative)
    assert bound.total == pytest.approx(
        bound.false_positive + bound.false_negative, abs=1e-9
    )


class TestTransparency:
    def test_unconstrained_cascade_is_bitwise_the_exact_bound(self):
        problem, params = _problem_and_params()
        dependency = problem.dependency.values
        reference = exact_bound(dependency, params)
        outcome = bound_cascade(dependency, params)
        assert outcome.bound.total == reference.total
        assert outcome.bound.false_positive == reference.false_positive
        assert outcome.bound.false_negative == reference.false_negative
        assert outcome.report.tier == "exact"
        assert outcome.report.requested == "exact"
        assert not outcome.report.degraded
        assert [a.status for a in outcome.report.attempts] == ["ok"]

    def test_generous_deadline_changes_nothing(self):
        problem, params = _problem_and_params()
        dependency = problem.dependency.values
        reference = exact_bound(dependency, params)
        outcome = bound_cascade(dependency, params, deadline=Deadline.after(3600))
        assert outcome.bound.total == reference.total
        assert outcome.report.tier == "exact"

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_transparency_property_over_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 4))
        dependency = (rng.random((n, k)) < 0.4).astype(np.int8)
        params = SourceParameters.random(n, seed=seed, informative=True).clamp(1e-4)
        reference = exact_bound(dependency, params)
        outcome = bound_cascade(dependency, params)
        assert outcome.bound.total == reference.total
        assert outcome.bound.false_positive == reference.false_positive
        assert outcome.bound.false_negative == reference.false_negative
        assert not outcome.report.degraded


class TestCostModel:
    def test_large_problems_request_gibbs(self):
        n = MAX_EXACT_SOURCES + 10
        rng = np.random.default_rng(3)
        dependency = (rng.random((n, 2)) < 0.3).astype(np.int8)
        params = SourceParameters.random(n, seed=3, informative=True).clamp(1e-4)
        outcome = bound_cascade(dependency, params, config=FAST_GIBBS, seed=11)
        assert outcome.report.requested == "gibbs"
        assert outcome.report.tier == "gibbs"
        exact_attempt = outcome.report.attempts[0]
        assert exact_attempt.tier == "exact"
        assert exact_attempt.status == "skipped"
        assert "MAX_EXACT_SOURCES" in exact_attempt.reason
        _assert_finite(outcome.bound)

    def test_estimate_exact_seconds_scales_with_problem(self):
        assert estimate_exact_seconds(20, 4) == 4 * estimate_exact_seconds(20, 1)
        # The split sweep works on 2^ceil(n/2) half patterns, ceil(n/2)
        # search steps each: two more sources cost 2 * 11/10 at n = 20.
        assert estimate_exact_seconds(22, 1) == pytest.approx(
            2.2 * estimate_exact_seconds(20, 1)
        )

    def test_exact_tier_fits_a_ten_second_budget_at_n24(self):
        n, k = 24, 44
        rng = np.random.default_rng(24)
        dependency = (rng.random((n, k)) < 0.3).astype(np.int8)
        assert np.unique(dependency, axis=1).shape[1] == k
        params = SourceParameters.random(n, seed=24, informative=True).clamp(1e-4)
        outcome = bound_cascade(
            dependency, params, deadline=Deadline.after(10), config=FAST_GIBBS
        )
        assert outcome.report.tier == "exact"
        assert [a.status for a in outcome.report.attempts] == ["ok"]
        assert outcome.bound.total == exact_bound(dependency, params).total

    def test_expired_deadline_degrades_to_analytic_with_truthful_report(self):
        problem, params = _problem_and_params()
        deadline = Deadline.after(1e-4)
        while not deadline.expired():
            pass
        outcome = bound_cascade(problem.dependency.values, params, deadline=deadline)
        assert outcome.report.tier == "analytic"
        assert outcome.report.requested == "exact"
        assert outcome.report.degraded
        statuses = {a.tier: a.status for a in outcome.report.attempts}
        assert statuses["exact"] == "skipped"
        assert statuses["gibbs"] == "skipped"
        assert statuses["analytic"] == "ok"
        assert "tier=analytic requested=exact" in outcome.report.summary()
        _assert_finite(outcome.bound)


class TestAlwaysAnswers:
    def test_nan_poisoned_dependency_still_yields_finite_bound(self):
        problem, params = _problem_and_params()
        poisoned = FaultInjector(seed=7).poison_dependency(problem, rate=0.2)
        assert np.isnan(poisoned.dependency.values).any()
        outcome = bound_cascade(
            poisoned.dependency.values, params, config=FAST_GIBBS, seed=5
        )
        assert outcome.report.tier == "analytic"
        assert outcome.report.degraded
        failed = [a for a in outcome.report.attempts if a.status == "failed"]
        assert failed, "the poisoned tiers must be recorded, not hidden"
        _assert_finite(outcome.bound)

    def test_faulty_upper_tiers_fall_through_to_analytic(self):
        problem, params = _problem_and_params()
        outcome = bound_cascade(
            problem.dependency.values,
            params,
            runners={"exact": _boom, "gibbs": _boom},
        )
        assert outcome.report.tier == "analytic"
        statuses = [(a.tier, a.status) for a in outcome.report.attempts]
        assert statuses[:2] == [("exact", "failed"), ("gibbs", "failed")]
        assert "InjectedFault" in outcome.report.attempts[0].reason
        _assert_finite(outcome.bound)

    def test_even_a_sabotaged_analytic_runner_gets_the_prior_floor(self):
        problem, params = _problem_and_params()
        outcome = bound_cascade(
            problem.dependency.values,
            params,
            runners={tier: _boom for tier in CASCADE_TIERS},
        )
        z = params.z
        assert outcome.bound.total == pytest.approx(min(z, 1.0 - z))
        assert outcome.report.tier == "analytic"
        assert outcome.report.attempts[-1].reason == "prior floor min(z, 1-z)"
        _assert_finite(outcome.bound)

    def test_non_finite_tier_output_counts_as_failure(self):
        problem, params = _problem_and_params()

        def nan_tier(*_args, **_kwargs):
            # BoundResult itself refuses non-finite totals, so a tier
            # can only smuggle one out through a look-alike object.
            return SimpleNamespace(total=float("nan"))

        outcome = bound_cascade(
            problem.dependency.values, params, runners={"exact": nan_tier}
        )
        assert outcome.report.attempts[0].status == "failed"
        assert "non-finite" in outcome.report.attempts[0].reason
        assert outcome.report.tier == "gibbs"
        _assert_finite(outcome.bound)

    def test_analytic_tier_never_raises_on_garbage(self):
        # SourceParameters validates at construction, so garbage rates
        # arrive through a duck-typed stand-in (exactly what a buggy
        # upstream estimator would hand over).
        params = SimpleNamespace(
            a=np.array([np.nan, 0.7]),
            b=np.array([0.2, np.inf]),
            f=np.array([0.5, np.nan]),
            g=np.array([0.2, 0.2]),
            z=0.4,
        )
        dependency = np.array([[np.nan], [1.0]])
        bound = analytic_tier(dependency, params)
        _assert_finite(bound)
        assert bound.total <= 0.4  # never looser than the prior floor


class TestValidation:
    def test_unknown_runner_tier_rejected(self):
        problem, params = _problem_and_params()
        with pytest.raises(ValidationError, match="unknown cascade tiers"):
            bound_cascade(
                problem.dependency.values, params, runners={"quantum": _boom}
            )

    def test_deadline_must_be_a_deadline(self):
        problem, params = _problem_and_params()
        with pytest.raises(ValidationError, match="Deadline"):
            bound_cascade(problem.dependency.values, params, deadline=5.0)


class TestDriverBudget:
    def test_expired_budget_raises_structured_deadline_exceeded(self):
        dataset = generate_dataset(CONFIG, seed=13)
        backend = DenseBackend(dataset.problem.without_truth())
        budget = Deadline.after(1e-4)
        while not budget.expired():
            pass
        driver = EMDriver(max_iterations=50, tolerance=1e-8, budget=budget)
        with pytest.raises(DeadlineExceeded) as excinfo:
            driver.run(backend, support_initialisation(backend))
        error = excinfo.value
        assert error.context == "EMDriver.run"
        assert "iteration" in error.progress
        assert "log_likelihood" in error.progress

    def test_generous_budget_is_bit_transparent(self):
        dataset = generate_dataset(CONFIG, seed=13)
        backend = DenseBackend(dataset.problem.without_truth())
        plain = EMDriver(max_iterations=50, tolerance=1e-8).run(
            backend, support_initialisation(backend)
        )
        budgeted = EMDriver(
            max_iterations=50, tolerance=1e-8, budget=Deadline.after(3600)
        ).run(backend, support_initialisation(backend))
        np.testing.assert_array_equal(plain.posterior, budgeted.posterior)
        assert plain.log_likelihood == budgeted.log_likelihood
        assert plain.n_iterations == budgeted.n_iterations
