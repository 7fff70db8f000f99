"""Sparse dependency-aware EM for full-scale field data.

Mathematically identical to :class:`repro.core.em_ext.EMExtEstimator`;
all numerical work is delegated to the shared estimation engine's
:class:`~repro.engine.backends.CSRBackend`, which reorganises every
E- and M-step quantity into sparse mat-vecs touching only stored
entries (see its docstring for the base + corrections decomposition of
the likelihood).  Hierarchical smoothing and the staged initialisation
are the engine's shared implementations, so dense and sparse
estimators cannot drift apart.
"""

from __future__ import annotations

from typing import Optional

from repro.core.em_ext import EMConfig
from repro.core.result import EstimationResult
from repro.data.coerce import coerce_problem
from repro.data.protocol import FORMAT_CSR, Problem
from repro.engine.backends import CSRBackend
from repro.engine.driver import EMDriver
from repro.engine.initialisation import staged_initialisation, support_initialisation
from repro.utils.errors import ValidationError


class SparseEMExt:
    """Dependency-aware EM over a :class:`SparseSensingProblem`.

    Supports the ``"staged"`` and ``"support"`` initialisation
    strategies (``"random"`` would need per-cell randomness that defeats
    the sparse representation's purpose and is rejected).  The
    estimator is deterministic, so ``n_restarts`` is ignored.
    """

    algorithm_name = "em-ext-sparse"

    #: Storage formats the numerics run on (data-layer declaration).
    accepts = (FORMAT_CSR,)

    def __init__(self, config: Optional[EMConfig] = None):
        self.config = config or EMConfig()
        if self.config.init_strategy == "random":
            raise ValidationError(
                "SparseEMExt supports init_strategy 'staged' or 'support' only"
            )

    def fit(self, problem: Problem) -> EstimationResult:
        """Run EM and return the standard estimation result.

        Dense input is converted to CSR first (always cheap — the CSR
        form is never larger than the dense one), so the sparse
        estimator is usable on any problem the data layer knows.
        """
        problem = coerce_problem(problem, needs=FORMAT_CSR)
        backend = CSRBackend(
            problem,
            smoothing=self.config.smoothing,
            epsilon=self.config.epsilon,
        )
        if self.config.init_strategy == "staged":
            params = staged_initialisation(backend, tolerance=self.config.tolerance)
        else:
            params = support_initialisation(backend)
        driver = EMDriver(
            max_iterations=self.config.max_iterations,
            tolerance=self.config.tolerance,
        )
        outcome = driver.run(backend, params)
        return EstimationResult(
            algorithm=self.algorithm_name,
            scores=outcome.posterior,
            decisions=outcome.decisions,
            parameters=outcome.parameters,
            log_likelihood=outcome.log_likelihood,
            converged=outcome.converged,
            n_iterations=outcome.n_iterations,
            trace=outcome.trace,
        )


__all__ = ["SparseEMExt"]
