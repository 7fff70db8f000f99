"""Tests for the Gibbs-sampling bound approximation (Algorithm 1)."""

import numpy as np
import pytest

from repro.bounds import GibbsConfig, exact_bound, exact_column_bound, gibbs_bound, gibbs_column_bound
from repro.core import SourceParameters
from repro.synthetic import GeneratorConfig, empirical_parameters, generate_dataset
from repro.utils.errors import ValidationError


@pytest.fixture
def params10():
    return SourceParameters.random(10, seed=4, informative=True)


class TestGibbsConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burn_in": -1},
            {"min_sweeps": 0},
            {"min_sweeps": 100, "max_sweeps": 50},
            {"check_interval": 0},
            {"tolerance": 0.0},
            {"mode": "wrong"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            GibbsConfig(**kwargs)


class TestConvergenceToExact:
    def test_single_column(self, params10):
        d_column = np.array([0, 1, 0, 1, 0, 0, 1, 0, 0, 0])
        exact = exact_column_bound(d_column, params10)
        approx = gibbs_column_bound(
            d_column,
            params10,
            config=GibbsConfig(min_sweeps=3000, max_sweeps=8000, tolerance=1e-4),
            seed=0,
        )
        # The paper reports max deviation ~0.013; we allow similar slack.
        assert abs(approx.total - exact.total) < 0.02

    def test_matrix_bound(self, params10, rng):
        dependency = (rng.random((10, 30)) < 0.3).astype(int)
        exact = exact_bound(dependency, params10)
        approx = gibbs_bound(
            dependency,
            params10,
            config=GibbsConfig(min_sweeps=2000, max_sweeps=6000),
            seed=1,
        )
        assert abs(approx.total - exact.total) < 0.02

    def test_fp_fn_sum_to_total(self, params10):
        d_column = np.zeros(10, dtype=int)
        result = gibbs_column_bound(d_column, params10, seed=2)
        assert result.false_positive + result.false_negative == pytest.approx(
            result.total, abs=1e-9
        )

    def test_posterior_mean_beats_literal_ratio(self, params10):
        """The literal Algorithm 1 ratio is biased; the default is not."""
        d_column = np.array([0, 1, 0, 1, 0, 0, 1, 0, 0, 0])
        exact = exact_column_bound(d_column, params10).total
        config_kwargs = {"min_sweeps": 4000, "max_sweeps": 8000, "tolerance": 1e-5}
        consistent = gibbs_column_bound(
            d_column, params10,
            config=GibbsConfig(mode="posterior-mean", **config_kwargs), seed=3,
        ).total
        literal = gibbs_column_bound(
            d_column, params10,
            config=GibbsConfig(mode="ratio", **config_kwargs), seed=3,
        ).total
        assert abs(consistent - exact) <= abs(literal - exact) + 5e-3


class TestMechanics:
    def test_deterministic_given_seed(self, params10):
        d_column = np.zeros(10, dtype=int)
        config = GibbsConfig(min_sweeps=500, max_sweeps=500)
        a = gibbs_column_bound(d_column, params10, config=config, seed=9)
        b = gibbs_column_bound(d_column, params10, config=config, seed=9)
        assert a.total == b.total

    def test_reports_sample_count(self, params10):
        config = GibbsConfig(min_sweeps=400, max_sweeps=400)
        result = gibbs_column_bound(np.zeros(10, dtype=int), params10, config=config, seed=0)
        assert result.n_samples == 400
        assert result.method == "gibbs"

    def test_early_stop_on_convergence(self, params10):
        config = GibbsConfig(
            min_sweeps=200, max_sweeps=50_000, check_interval=100, tolerance=0.05
        )
        result = gibbs_column_bound(np.zeros(10, dtype=int), params10, config=config, seed=0)
        assert result.n_samples < 50_000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_invariant_to_column_permutation(self, seed):
        # Chains follow the sorted unique columns of D, so reordering the
        # assertions changes neither the chains nor the random stream.
        config = GeneratorConfig.paper_defaults(n_sources=25)
        dataset = generate_dataset(config, seed=seed)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values
        order = np.random.default_rng(seed).permutation(dependency.shape[1])
        gibbs = GibbsConfig(min_sweeps=200, max_sweeps=400, check_interval=100)
        a = gibbs_bound(dependency, params, config=gibbs, seed=seed)
        b = gibbs_bound(dependency[:, order], params, config=gibbs, seed=seed)
        assert (a.total, a.false_positive, a.false_negative, a.n_samples) == (
            b.total, b.false_positive, b.false_negative, b.n_samples
        )

    def test_column_shape_validation(self, params10):
        with pytest.raises(ValidationError):
            gibbs_column_bound(np.zeros((2, 5)), params10)

    def test_three_dimensional_rejected(self, params10):
        with pytest.raises(ValidationError):
            gibbs_bound(np.zeros((2, 2, 2)), params10)

    def test_degenerate_parameters_survive(self):
        """Rates at exactly 0/1 must not break the chain."""
        params = SourceParameters.from_scalars(4, a=1.0, b=0.0, f=1.0, g=0.0, z=0.5)
        result = gibbs_column_bound(
            np.zeros(4, dtype=int), params,
            config=GibbsConfig(min_sweeps=300, max_sweeps=600), seed=0,
        )
        assert result.total == pytest.approx(0.0, abs=1e-6)
