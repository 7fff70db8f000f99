"""Shared estimation engine behind every EM family in the library.

The paper's EM-Ext (Section IV, Equations 9–14) used to be implemented
four separate times — dense, sparse, streaming and the masked
independence baselines — each with its own copy of the M-step ratio,
hierarchical smoothing, initialisation and convergence loop.  This
package is the single implementation they all delegate to:

* :mod:`repro.engine.statistics` — the Equations 10–14 ratio kernel
  (:func:`ratio_update`: pooled-rate smoothing, empty-partition
  fallback) and the :class:`SufficientStatistics` accumulator whose
  decayed form powers the streaming estimator;
* :mod:`repro.engine.backends` — interchangeable computation backends:
  :class:`DenseBackend` (ndarray), :class:`CSRBackend` (scipy sparse)
  and :class:`MaskedDenseBackend` (the two-parameter independence
  model with a cell mask);
* :mod:`repro.engine.initialisation` — the ``support`` / ``staged`` /
  ``random`` warm starts, written once and parameterised by backend;
* :mod:`repro.engine.driver` — the generic :class:`EMDriver` owning
  restarts, tolerance/max-iteration convergence and
  :class:`~repro.core.model.ParameterTrace` recording;
* :mod:`repro.engine.batched` — the lane engine
  (:class:`BatchedDenseBackend`, :func:`run_batched_lanes`): B
  same-shape dense EM runs as one stacked ``(B, n, m)`` pass.

There is one dense EM-Ext engine: every dense fit — a single
:class:`~repro.core.em_ext.EMExtEstimator` fit, a
:func:`~repro.core.em_ext.fit_em_ext_batch` call, a serving drain —
runs its restarts as lanes, bit-for-bit the scalar :class:`EMDriver`
loop.  The scalar loop drives the CSR, masked and pooled backends and
is the reference the lanes are tested against.
"""

from repro.engine.backends import (
    CSRBackend,
    DenseBackend,
    MaskedDenseBackend,
    make_backend,
)
from repro.engine.batched import (
    BatchedDenseBackend,
    BatchedLaneResult,
    BatchedSourceParameters,
    run_batched_lanes,
)
from repro.engine.driver import DriverOutcome, EMDriver
from repro.engine.health import (
    FAILED_STATUSES,
    RESTART_STATUSES,
    RestartReport,
    RunHealth,
)
from repro.engine.initialisation import (
    staged_initialisation,
    support_initialisation,
    support_posterior,
)
from repro.engine.statistics import (
    RATE_NAMES,
    SufficientStatistics,
    log_likelihood_from_columns,
    ratio_update,
    stable_posterior,
)

__all__ = [
    "BatchedDenseBackend",
    "BatchedLaneResult",
    "BatchedSourceParameters",
    "CSRBackend",
    "DenseBackend",
    "DriverOutcome",
    "EMDriver",
    "FAILED_STATUSES",
    "MaskedDenseBackend",
    "RATE_NAMES",
    "RESTART_STATUSES",
    "RestartReport",
    "RunHealth",
    "SufficientStatistics",
    "log_likelihood_from_columns",
    "make_backend",
    "ratio_update",
    "run_batched_lanes",
    "stable_posterior",
    "staged_initialisation",
    "support_initialisation",
    "support_posterior",
]
