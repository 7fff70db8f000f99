"""Shared fixtures for the kernel-parity suite.

One module defines every (problem, parameters, config) combination so
that ``make_reference.py`` (which pins the *pre-optimisation* outputs
into ``tests/data/kernel_reference.npz``) and the parity tests (which
compare the optimised kernels against those pins) can never drift
apart.

Case families
-------------
* ``mid``         — generic informative parameters, mixed dependency.
* ``degenerate``  — rates at the epsilon clamp (the EM loop's worst
                    numerical corner).
* ``all_dep`` / ``all_indep`` — dependency columns at the extremes,
  where the dedup machinery collapses the whole matrix to one chain.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.gibbs import GibbsConfig
from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.synthetic import GeneratorConfig, generate_dataset

#: Seed for the shared synthetic problem (distinct from the engine
#: parity suite's 1234 so the two pins are independent).
PROBLEM_SEED = 777

#: Monte-Carlo tolerance for the Gibbs kernel swap.  The vectorised
#: blocked sampler draws a *different* (equally valid) chain than the
#: historical per-source scan sampler, so agreement is statistical, not
#: bitwise: both estimates sit within sampling error of the same bound.
#: 2000-sweep runs put that error well under 0.02 (the same slack the
#: accuracy tests allow against the exact bound).
GIBBS_TOLERANCE = 0.02

#: The exact bound sums the identical pattern set in a different order
#: (sorted half-pattern prefix sums), so totals agree to float
#: summation error only.
EXACT_TOLERANCE = 1e-10

#: Deterministic Gibbs configuration: fixed sweep count, no early stop.
GIBBS_PIN_CONFIG = GibbsConfig(min_sweeps=2000, max_sweeps=2000)

GIBBS_PIN_SEED = 123


def problem():
    """The shared dense synthetic problem (n=20, m=50, mixed trees)."""
    return generate_dataset(
        GeneratorConfig.paper_defaults(), seed=PROBLEM_SEED
    ).problem.without_truth()


def params_mid(n_sources: int = 20) -> SourceParameters:
    """Generic informative parameters, clamped like the EM loop's."""
    return SourceParameters.random(n_sources, seed=5, informative=True).clamp(
        DEFAULT_EPSILON
    )


def params_degenerate(n_sources: int = 20) -> SourceParameters:
    """Rates pinned at the epsilon clamp — log terms at their extremes."""
    return SourceParameters.from_scalars(
        n_sources, a=1.0, b=0.0, f=1.0, g=0.0, z=0.5
    ).clamp(DEFAULT_EPSILON)


def dependency_cases(n_sources: int = 20):
    """Named dependency matrices the bound kernels are pinned on."""
    rng = np.random.default_rng(42)
    return {
        "mixed": (rng.random((n_sources, 30)) < 0.3).astype(np.int8),
        "all_dep": np.ones((n_sources, 5), dtype=np.int8),
        "all_indep": np.zeros((n_sources, 5), dtype=np.int8),
    }


def bound_param_cases(n_sources: int = 20):
    """Named parameter sets the bound kernels are pinned on."""
    return {
        "mid": params_mid(n_sources),
        "degenerate": params_degenerate(n_sources),
    }
