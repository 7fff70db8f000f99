"""The adaptive micro-batcher: pack compatible requests into lane packs.

The lane engine (:mod:`repro.engine.batched`) turns B same-shape dense
EM problems into one stacked ``(B, n, m)`` tensor program whose
per-lane results are bit-for-bit the serial fits.  The batcher's job is
to find those B's inside a drained queue: it groups pending requests by
everything the stacked program requires to be uniform — dense storage,
the batchable algorithm, the ``(n, m)`` shape and the (hashable, frozen)
:class:`~repro.core.em_ext.EMConfig` — and chunks each group to the
configured lane budget.  A group of one is a one-lane pack — the same
engine a direct dense ``EMExtEstimator.fit`` runs.  Whatever cannot ride
a pack (CSR problems, non-EM-Ext algorithms) is returned as serial
leftovers with the reason attached, so the service can count
``serve.fallbacks`` per cause.

Grouping preserves submission order inside each group and never
reorders responses: the service reassembles responses by submission
position regardless of which pack answered them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.protocol import FORMAT_DENSE
from repro.resilience.supervisor import Deadline
from repro.serve.request import EstimationRequest

#: The one algorithm the lane engine can stack.
BATCHABLE_ALGORITHM = "em-ext"

#: Serial-fallback reasons (counter suffixes under ``serve.fallbacks``).
FALLBACK_ALGORITHM = "algorithm"
FALLBACK_FORMAT = "format"


@dataclass
class PendingRequest:
    """A queued request with its admission bookkeeping.

    ``deadline`` starts ticking at submission (it is constructed when
    the request enters the queue), so queue time counts against the
    request's ``timeout_seconds`` — exactly what a caller who set a
    timeout expects.
    """

    request: EstimationRequest
    position: int
    submitted_at: float = 0.0
    deadline: Optional[Deadline] = None
    #: Warm-start parameters resolved at drain time (``None`` = cold).
    warm_parameters: object = None
    extras: dict = field(default_factory=dict)


def batch_key(request: EstimationRequest) -> Optional[Tuple]:
    """The lane-compatibility key of a request, or ``None`` if unbatchable.

    Two requests may share a lane pack iff they agree on this key: the
    stacked backend needs one shape and one smoothing/epsilon/iteration
    policy for all lanes, and :class:`~repro.core.em_ext.EMConfig` is a
    frozen (hence hashable) dataclass carrying exactly that policy.
    """
    if request.algorithm != BATCHABLE_ALGORITHM:
        return None
    if request.problem.format != FORMAT_DENSE:
        return None
    return (
        request.problem.n_sources,
        request.problem.n_assertions,
        request.effective_config,
    )


def plan_batches(
    pending: Sequence[PendingRequest],
    *,
    max_batch_size: int,
) -> Tuple[List[List[PendingRequest]], List[Tuple[PendingRequest, str]]]:
    """Split ``pending`` into lane packs and serial leftovers.

    Returns ``(packs, serial)`` where each pack holds 1 to
    ``max_batch_size`` compatible requests in submission order, and
    ``serial`` pairs each unbatchable request with its fallback reason.
    """
    groups: Dict[Tuple, List[PendingRequest]] = {}
    serial: List[Tuple[PendingRequest, str]] = []
    order: List[Tuple] = []
    for item in pending:
        key = batch_key(item.request)
        if key is None:
            reason = (
                FALLBACK_ALGORITHM
                if item.request.algorithm != BATCHABLE_ALGORITHM
                else FALLBACK_FORMAT
            )
            serial.append((item, reason))
            continue
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(item)
    packs = [
        groups[key][start : start + max_batch_size]
        for key in order
        for start in range(0, len(groups[key]), max_batch_size)
    ]
    return packs, serial


__all__ = [
    "BATCHABLE_ALGORITHM",
    "FALLBACK_ALGORITHM",
    "FALLBACK_FORMAT",
    "PendingRequest",
    "batch_key",
    "plan_batches",
]
