"""Tests for repro.core.likelihood (Table II / Equations 4-9)."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SensingProblem, SourceParameters
from repro.core.likelihood import (
    column_log_likelihoods,
    data_log_likelihood,
    emission_probability,
    pattern_log_joint,
    posterior_from_log_likelihoods,
    posterior_truth,
)
from repro.utils.errors import ValidationError


class TestEmissionProbability:
    """Verify every row of Table II."""

    def test_table_ii(self, small_params):
        source = 0
        p = small_params
        cases = {
            (1, 0, 1): p.a[source],
            (1, 0, 0): 1 - p.a[source],
            (0, 0, 1): p.b[source],
            (0, 0, 0): 1 - p.b[source],
            (1, 1, 1): p.f[source],
            (1, 1, 0): 1 - p.f[source],
            (0, 1, 1): p.g[source],
            (0, 1, 0): 1 - p.g[source],
        }
        for (c, d, sc), expected in cases.items():
            assert emission_probability(sc, d, c, p, source) == pytest.approx(expected)

    def test_invalid_flags(self, small_params):
        with pytest.raises(ValidationError):
            emission_probability(2, 0, 1, small_params, 0)


class TestColumnLogLikelihoods:
    def test_matches_bruteforce(self, small_params):
        sc = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        dep = np.array([[1, 0], [0, 0], [0, 1]], dtype=float)
        log_true, log_false = column_log_likelihoods(sc, dep, small_params)
        for j in range(2):
            expected_true = 1.0
            expected_false = 1.0
            for i in range(3):
                expected_true *= emission_probability(
                    int(sc[i, j]), int(dep[i, j]), 1, small_params, i
                )
                expected_false *= emission_probability(
                    int(sc[i, j]), int(dep[i, j]), 0, small_params, i
                )
            assert log_true[j] == pytest.approx(np.log(expected_true))
            assert log_false[j] == pytest.approx(np.log(expected_false))

    def test_shape_mismatch(self, small_params):
        with pytest.raises(ValidationError):
            column_log_likelihoods(np.zeros((3, 2)), np.zeros((2, 2)), small_params)

    def test_source_count_mismatch(self, small_params):
        with pytest.raises(ValidationError):
            column_log_likelihoods(np.zeros((4, 2)), np.zeros((4, 2)), small_params)

    def test_normalisation_over_patterns(self, small_params):
        """Σ over all claim patterns of P(pattern | C) equals 1."""
        d_column = np.array([0, 1, 0])
        for c_value in (0, 1):
            total = 0.0
            for pattern in itertools.product((0, 1), repeat=3):
                log_true, log_false = column_log_likelihoods(
                    np.array(pattern, dtype=float), d_column.astype(float), small_params
                )
                total += np.exp(log_true if c_value == 1 else log_false)
            assert total == pytest.approx(1.0)


    def test_rates_at_zero_and_one_match_pattern_log_joint(self):
        """No NaN from a 0 weight on a ``-inf`` log rate, 1-D or 2-D."""
        params = SourceParameters(
            a=np.array([0.0, 1.0, 0.6]),
            b=np.array([0.3, 0.0, 1.0]),
            f=np.array([1.0, 0.5, 0.0]),
            g=np.array([0.0, 1.0, 0.4]),
            z=0.5,
        )
        cells = list(itertools.product((0, 1), repeat=3))
        pairs = [(sc, d) for sc in cells for d in cells]
        sc_matrix = np.array([sc for sc, _ in pairs], dtype=float).T
        d_matrix = np.array([d for _, d in pairs], dtype=float).T
        log_z = np.log(params.z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix_true, matrix_false = column_log_likelihoods(
                sc_matrix, d_matrix, params
            )
            for j, (sc, d) in enumerate(pairs):
                expected = pattern_log_joint(np.array(sc), np.array(d), params)
                column = column_log_likelihoods(
                    np.array(sc, dtype=float), np.array(d, dtype=float), params
                )
                for got in (column, (matrix_true[j], matrix_false[j])):
                    np.testing.assert_allclose(
                        np.array(got) + log_z, expected, equal_nan=False
                    )
        assert np.isneginf(matrix_true).any() and np.isfinite(matrix_true).any()


class TestPatternLogJoint:
    def test_sums_to_marginal(self, small_params):
        d_column = np.array([0, 0, 1])
        total = 0.0
        for pattern in itertools.product((0, 1), repeat=3):
            log_joint_true, log_joint_false = pattern_log_joint(
                np.array(pattern), d_column, small_params
            )
            total += np.exp(log_joint_true) + np.exp(log_joint_false)
        assert total == pytest.approx(1.0)


class TestPosterior:
    def test_bayes_consistency(self, tiny_problem, small_params):
        posterior = posterior_truth(tiny_problem, small_params)
        assert posterior.shape == (2,)
        assert (posterior >= 0).all() and (posterior <= 1).all()

    def test_supported_assertion_more_credible(self, small_params):
        """An assertion everyone reports beats one nobody reports."""
        sc = np.array([[1, 0], [1, 0], [1, 0]])
        problem = SensingProblem.independent(sc)
        posterior = posterior_truth(problem, small_params)
        assert posterior[0] > posterior[1]

    def test_extreme_prior(self, tiny_problem, small_params):
        sure = SourceParameters(
            a=small_params.a, b=small_params.b, f=small_params.f, g=small_params.g,
            z=1.0,
        )
        posterior = posterior_truth(tiny_problem, sure)
        np.testing.assert_allclose(posterior, 1.0)

    def test_posterior_from_log_likelihoods_degenerate(self):
        posterior = posterior_from_log_likelihoods(
            np.array([-np.inf]), np.array([-np.inf]), 0.5
        )
        assert posterior[0] == pytest.approx(0.5)


class TestDataLogLikelihood:
    def test_finite_for_clamped_params(self, tiny_problem, small_params):
        assert np.isfinite(data_log_likelihood(tiny_problem, small_params))

    def test_matches_manual_sum(self, tiny_problem, small_params):
        log_true, log_false = column_log_likelihoods(
            tiny_problem.claims.values, tiny_problem.dependency.values, small_params
        )
        manual = np.log(
            np.exp(log_true) * small_params.z + np.exp(log_false) * (1 - small_params.z)
        ).sum()
        assert data_log_likelihood(tiny_problem, small_params) == pytest.approx(manual)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pattern_probabilities_normalise(n, seed):
    """Property: the emission model is a distribution for any θ and D."""
    rng = np.random.default_rng(seed)
    params = SourceParameters.random(n, seed=seed, informative=False).clamp(1e-9)
    d_column = (rng.random(n) < 0.5).astype(float)
    total_true = 0.0
    total_false = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        log_true, log_false = column_log_likelihoods(
            np.array(pattern, dtype=float), d_column, params
        )
        total_true += np.exp(log_true)
        total_false += np.exp(log_false)
    assert total_true == pytest.approx(1.0, abs=1e-9)
    assert total_false == pytest.approx(1.0, abs=1e-9)
