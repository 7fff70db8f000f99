"""EM ascent: the observed-data log likelihood never decreases.

``result.trace`` is the per-iteration record of every fit, so it must
carry the guarantee EM theory gives it (Dempster, Laird & Rubin): each
E/M round cannot lower the observed-data likelihood.  The property is
checked on every EM path — a dense one-lane fit under each
initialisation, a multi-problem lane pack, the CSR backend's scalar
loop, and the masked EM / EM-Social baselines — to a relative slack of
1e-12, which leaves room only for floating-point summation noise.

Only ``smoothing=0`` is covered.  With ``smoothing > 0`` the M-step
maximises the *penalised* objective (pooled-rate pseudo-counts), so
the observed-data likelihood alone may dip without anything being
wrong (at ``smoothing=2``, seeded n=20, m=50 problems dip by ~1e-5
relative).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_fact_finder
from repro.core import EMConfig, EMExtEstimator, fit_em_ext_batch
from repro.data.coerce import coerce_problem
from repro.data.protocol import FORMAT_CSR
from repro.synthetic import GeneratorConfig, generate_dataset

SETTINGS = settings(max_examples=15, deadline=None)

RELATIVE_SLACK = 1e-12

sizes = st.tuples(st.integers(6, 24), st.integers(8, 40))
seeds = st.integers(0, 2**32 - 1)


def _problem(size, seed):
    n_sources, n_assertions = size
    config = GeneratorConfig(
        n_sources=n_sources,
        n_assertions=n_assertions,
        n_trees=(2, min(5, n_sources)),
    )
    return generate_dataset(config, seed=seed).problem.without_truth()


def _assert_ascent(result):
    lls = np.asarray(result.trace.log_likelihoods)
    assert lls.size and np.isfinite(lls).all()
    drops = lls[:-1] - lls[1:]
    allowed = RELATIVE_SLACK * np.abs(lls[:-1])
    assert (drops <= allowed).all(), (
        f"likelihood fell by {drops.max():.3g} (allowed {allowed.max():.3g})"
    )


class TestEMAscent:
    @SETTINGS
    @given(
        size=sizes,
        seed=seeds,
        init_strategy=st.sampled_from(["staged", "support", "random"]),
    )
    def test_dense_one_lane_fit(self, size, seed, init_strategy):
        config = EMConfig(init_strategy=init_strategy, smoothing=0.0)
        _assert_ascent(EMExtEstimator(config, seed=seed).fit(_problem(size, seed)))

    @SETTINGS
    @given(size=sizes, seed=seeds, n_problems=st.integers(2, 4))
    def test_multi_problem_lane_pack(self, size, seed, n_problems):
        problems = [_problem(size, seed + k) for k in range(n_problems)]
        config = EMConfig(n_restarts=2, init_strategy="random", smoothing=0.0)
        results = fit_em_ext_batch(
            problems, seeds=[seed + k for k in range(n_problems)], config=config
        )
        for result in results:
            _assert_ascent(result)

    @SETTINGS
    @given(
        size=sizes,
        seed=seeds,
        init_strategy=st.sampled_from(["staged", "support"]),
    )
    def test_csr_fit(self, size, seed, init_strategy):
        pytest.importorskip("scipy")
        csr = coerce_problem(_problem(size, seed), needs=(FORMAT_CSR,))
        config = EMConfig(init_strategy=init_strategy, smoothing=0.0)
        _assert_ascent(EMExtEstimator(config, seed=seed).fit(csr))

    @SETTINGS
    @given(size=sizes, seed=seeds, name=st.sampled_from(["em", "em-social"]))
    def test_independence_baselines(self, size, seed, name):
        finder = make_fact_finder(name, seed=seed, smoothing=0.0)
        _assert_ascent(finder.fit(_problem(size, seed)))
