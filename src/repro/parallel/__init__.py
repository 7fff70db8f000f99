"""Process-based parallel execution layer.

The paper's evaluation sweeps hundreds of Monte-Carlo trials per
parameter point (Section V-B), and the trials are independent.  This
package fans them out across worker processes without giving up the
library's determinism guarantee.  Trials are the one fan-out point:
multi-restart EM runs as stacked lanes of one tensor pass (see
:mod:`repro.engine.batched`), and Algorithm 1's Gibbs chains advance
together in one vectorised sampler (see :mod:`repro.bounds.gibbs`),
both faster in one process than spread across processes.

* :mod:`repro.parallel.config` — :class:`ParallelConfig`
  (``n_jobs`` / ``start_method`` / ``timeout_seconds`` /
  ``max_resubmits``);
* :mod:`repro.parallel.executor` — :func:`parallel_imap`, the ordered
  streaming fan-out with worker-fault propagation and a heartbeat
  wedge guard.

Worker records come home one way: a worker returns its results and
failure ledger entries in its task's outcome, plus (when the parent
observes) its own observability session's span trees and metrics
snapshot, which the parent grafts and merges in task order.

**Determinism contract.**  The harness draws every random number in
the *parent*, in the same order as the serial code path (dataset
generation, ``SeedSequence``-derived trial seeds), ships explicit seeds
to workers, and consumes results in task order.  A run with
``n_jobs=8`` is therefore bit-for-bit identical to ``n_jobs=1`` —
pinned by ``tests/parallel/test_serial_parity.py``.

Entry points: :func:`repro.eval.harness.run_simulation` (``parallel=``)
and the CLI's ``repro experiment {fig7,fig8,fig9,fig10} --n-jobs``.
"""

from repro.parallel.config import ParallelConfig, cpu_count
from repro.parallel.executor import WorkerTimeoutError, parallel_imap

__all__ = [
    "ParallelConfig",
    "WorkerTimeoutError",
    "cpu_count",
    "parallel_imap",
]
