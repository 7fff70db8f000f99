"""Tests for the exact error bound (Equation 3, Table I)."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import BoundResult, bound_from_pattern_table, exact_bound, exact_column_bound
from repro.core import SourceParameters
from repro.eval.experiments import (
    TABLE1_EXPECTED_BOUND,
    TABLE1_P_GIVEN_FALSE,
    TABLE1_P_GIVEN_TRUE,
    table1_walkthrough,
)
from repro.utils.errors import ValidationError


class TestTable1:
    def test_paper_walkthrough_exact_value(self):
        """Table I's bound reproduces to the paper's 8 decimals."""
        result = table1_walkthrough()
        assert result.total == pytest.approx(TABLE1_EXPECTED_BOUND, abs=1e-8)

    def test_tables_are_distributions(self):
        assert TABLE1_P_GIVEN_TRUE.sum() == pytest.approx(1.0, abs=1e-6)
        assert TABLE1_P_GIVEN_FALSE.sum() == pytest.approx(1.0, abs=1e-6)

    def test_pattern_table_validation(self):
        with pytest.raises(ValidationError):
            bound_from_pattern_table(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            bound_from_pattern_table(np.array([0.5, 0.5]), np.array([0.5]))


class TestExactColumnBound:
    def test_matches_bruteforce(self, small_params):
        d_column = np.array([1, 0, 0])
        result = exact_column_bound(d_column, small_params)
        # Brute force over all 8 patterns.
        expected = 0.0
        from repro.core.likelihood import pattern_log_joint

        for pattern in itertools.product((0, 1), repeat=3):
            log_true, log_false = pattern_log_joint(
                np.array(pattern), d_column, small_params
            )
            expected += min(np.exp(log_true), np.exp(log_false))
        assert result.total == pytest.approx(expected)

    def test_fp_fn_decomposition(self, small_params):
        result = exact_column_bound(np.array([0, 0, 0]), small_params)
        assert result.false_positive + result.false_negative == pytest.approx(
            result.total
        )
        assert result.false_positive >= 0 and result.false_negative >= 0

    def test_bound_below_prior_minimum(self, small_params):
        """Bayes risk never exceeds min(z, 1-z) (guessing the prior)."""
        result = exact_column_bound(np.array([0, 1, 0]), small_params)
        assert result.total <= min(small_params.z, 1 - small_params.z) + 1e-12

    def test_useless_sources_hit_prior_bound(self):
        """With a = b the data is useless: the bound is min(z, 1-z)."""
        params = SourceParameters.from_scalars(3, a=0.4, b=0.4, f=0.4, g=0.4, z=0.3)
        result = exact_column_bound(np.array([0, 0, 0]), params)
        assert result.total == pytest.approx(0.3)

    def test_perfect_sources_have_zero_error(self):
        params = SourceParameters.from_scalars(2, a=1.0, b=0.0, f=1.0, g=0.0, z=0.5)
        result = exact_column_bound(np.array([0, 0]), params)
        assert result.total == pytest.approx(0.0, abs=1e-12)

    def test_more_sources_lower_bound(self):
        """Extra informative sources cannot hurt the optimal estimator."""
        totals = []
        for n in (1, 3, 5, 9):
            params = SourceParameters.from_scalars(n, a=0.6, b=0.3, f=0.5, g=0.4, z=0.5)
            totals.append(exact_column_bound(np.zeros(n), params).total)
        assert totals == sorted(totals, reverse=True)

    def test_refuses_too_many_sources(self):
        params = SourceParameters.from_scalars(31, a=0.6, b=0.3, f=0.5, g=0.4, z=0.5)
        with pytest.raises(ValidationError):
            exact_column_bound(np.zeros(31), params)

    def test_source_count_mismatch(self, small_params):
        with pytest.raises(ValidationError):
            exact_column_bound(np.zeros(4), small_params)

    def test_invalid_d_column(self, small_params):
        with pytest.raises(ValidationError):
            exact_column_bound(np.array([0, 2, 0]), small_params)


class TestExactMatrixBound:
    def test_averages_columns(self, small_params):
        d1 = np.array([0, 0, 0])
        d2 = np.array([1, 1, 0])
        matrix = np.column_stack([d1, d2, d1])
        combined = exact_bound(matrix, small_params)
        separate = (
            2 * exact_column_bound(d1, small_params).total
            + exact_column_bound(d2, small_params).total
        ) / 3
        assert combined.total == pytest.approx(separate)

    def test_one_dimensional_input(self, small_params):
        column = exact_bound(np.array([0, 1, 0]), small_params)
        assert column.method == "exact"

    def test_relabelling_invariance(self, small_params):
        """Permuting sources (with their parameters) leaves the bound alone."""
        d_column = np.array([1, 0, 0])
        base = exact_column_bound(d_column, small_params)
        perm = np.array([2, 0, 1])
        permuted = exact_column_bound(d_column[perm], small_params.restrict(perm))
        assert permuted.total == pytest.approx(base.total)


    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_certain_prior_on_a_matrix_is_zero_and_warning_free(self, small_params, z):
        """z in {0, 1} leaves nothing to decide: no error, no log(0) warning."""
        params = SourceParameters(
            a=small_params.a, b=small_params.b, f=small_params.f, g=small_params.g, z=z
        )
        matrix = np.array([[0, 1], [1, 0], [0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = exact_bound(matrix, params)
        assert result.total == 0.0
        assert result.false_positive == 0.0 and result.false_negative == 0.0


class TestBoundResult:
    def test_rejects_inconsistent_parts(self):
        with pytest.raises(ValidationError):
            BoundResult(
                total=0.5, false_positive=0.1, false_negative=0.1, method="exact"
            )

    def test_optimal_accuracy(self):
        result = BoundResult(
            total=0.2, false_positive=0.1, false_negative=0.1, method="exact"
        )
        assert result.optimal_accuracy == pytest.approx(0.8)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_bound_in_valid_range(n, seed):
    """Property: 0 <= bound <= min(z, 1-z) for any parameters."""
    rng = np.random.default_rng(seed)
    params = SourceParameters.random(n, seed=seed, informative=False)
    d_column = (rng.random(n) < 0.5).astype(int)
    result = exact_column_bound(d_column, params)
    assert -1e-12 <= result.total <= min(params.z, 1 - params.z) + 1e-9
