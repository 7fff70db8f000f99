"""Sorted meet-in-the-middle evaluation of the exact bound's pattern sweep.

The exact bound (Equation 3) sums ``min`` of the two joints over all
``2^n`` claim patterns.  A pattern is a pair ``(p, q)`` of a *low*
half (the first ``h = n // 2`` sources) and a *high* half (the other
``n - h``), and each log joint is a low-half term plus a high-half
term.  The optimal decision "true" (``joint_true > joint_false``)
therefore splits into a low-half log-ratio against a high-half
threshold::

    LT[p] - LF[p]  >  HF[q] - HT[q]

Sorting the ``2^h`` low ratios once per column turns the ``2^n`` sweep
into ``2^(n-h)`` binary searches (the two-list technique of Horowitz &
Sahni, 1974): the patterns deciding "false" for a high half ``q`` are
a prefix of the sorted low halves, so their true-joint mass is
``exp(HT[q])`` times a prefix sum, and the patterns deciding "true"
contribute ``exp(HF[q])`` times a suffix sum of the false joints.
The sweep costs ``O(K · 2^(n/2) · n)`` instead of ``O(2^n · K)``.

Rates exactly at 0/1 need no special case: the half tables are built
by addition only, so an impossible pattern carries a ``-inf`` log joint
(an exact 0 joint) and never a NaN.  The pattern *set* is the one the
historical enumeration visits; only the float summation order differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.observability import count, span

if TYPE_CHECKING:  # deferred: kernels must stay import-light
    from repro.resilience.supervisor import Deadline

#: ``(K, 2^half)`` float64 tables alive at once per half: two log
#: joints, their exponentials and the ratio (low) or threshold (high).
_TABLES_PER_HALF = 5


def table_bytes_estimate(n: int, k: int) -> int:
    """Estimated half-table allocation of :func:`split_pattern_masses`.

    Five ``(K, 2^h)`` low-half and five ``(K, 2^(n-h))`` high-half
    float64 tables — the cost model
    :func:`repro.bounds.cascade.bound_cascade` checks against a
    deadline's memory budget before committing to the exact tier.
    """
    low = n // 2
    rows = (1 << low) + (1 << (n - low))
    return 8 * _TABLES_PER_HALF * rows * max(k, 1)


def _half_table(log_on: np.ndarray, log_off: np.ndarray, offset: float) -> np.ndarray:
    """Log joint of every claim pattern over a block of sources.

    ``log_on``/``log_off`` are ``(n_half, K)`` log rates of claiming /
    staying silent; each source doubles the table, which comes back as
    ``(K, 2^n_half)`` so every column's patterns are contiguous.  Only
    additions, so a ``-inf`` rate term never meets a zero coefficient.
    """
    table = np.full((log_on.shape[1], 1), offset, dtype=np.float64)
    for on, off in zip(log_on, log_off):
        table = np.concatenate((table + off[:, None], table + on[:, None]), axis=1)
    return table


def split_pattern_masses(
    log_r1: np.ndarray,
    log_1r1: np.ndarray,
    log_r0: np.ndarray,
    log_1r0: np.ndarray,
    log_z: float,
    log_1z: float,
    *,
    deadline: Optional["Deadline"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column (false-positive, false-negative) mass of Equation (3).

    Inputs are ``(n, K)`` log-rate tables (``r1``/``r0`` are the
    emission rates given a true/false assertion); entries may be
    ``-inf`` where a rate is exactly 0 or 1.  For every one of the
    ``2^n`` claim patterns the optimal estimator decides by the larger
    joint (ties decide "false", matching Algorithm 1's strict ``>``);
    the smaller joint's mass accumulates into the corresponding error
    side.  Returns two ``(K,)`` arrays.

    ``deadline`` is checked cooperatively before the half tables are
    built and between columns; on expiry
    :class:`~repro.utils.errors.DeadlineExceeded` carries the
    pattern·column evaluations completed so far.
    """
    n, k = log_r1.shape
    low = n // 2
    total = k << n
    if deadline is not None:
        deadline.check_memory(
            table_bytes_estimate(n, k), "split_pattern_masses half tables"
        )
        deadline.check(
            "split enumeration", patterns_done=0, patterns_total=total, n_columns=k
        )

    with span(
        "kernels.split_enumeration",
        n_sources=n,
        n_columns=k,
        n_low=low,
        patterns=1 << n,
    ):
        low_true = _half_table(log_r1[:low], log_1r1[:low], 0.0)
        low_false = _half_table(log_r0[:low], log_1r0[:low], 0.0)
        high_true = _half_table(log_r1[low:], log_1r1[low:], log_z)
        high_false = _half_table(log_r0[low:], log_1r0[low:], log_1z)
        with np.errstate(invalid="ignore"):
            # (-inf) - (-inf) marks a half whose joints are both 0: its
            # mass is 0 whichever way it decides.
            ratio = np.nan_to_num(low_true - low_false, nan=0.0)
            thresh = np.nan_to_num(high_false - high_true, nan=0.0)
        exp_low_true, exp_low_false = np.exp(low_true), np.exp(low_false)
        exp_high_true, exp_high_false = np.exp(high_true), np.exp(high_false)

        fp_mass = np.zeros(k)
        fn_mass = np.zeros(k)
        for col in range(k):
            if deadline is not None and col:
                deadline.check(
                    "split enumeration",
                    patterns_done=col << n,
                    patterns_total=total,
                    n_columns=k,
                )
            order = np.argsort(ratio[col])
            # Low halves with ratio <= thresh[q] decide "false" (ties
            # included), so they form the prefix the search returns.
            cut = np.searchsorted(ratio[col, order], thresh[col], side="right")
            true_below = np.concatenate(([0.0], np.cumsum(exp_low_true[col, order])))
            # A reversed cumsum, not total - prefix: no cancellation.
            false_above = np.concatenate(
                (np.cumsum(exp_low_false[col, order[::-1]])[::-1], [0.0])
            )
            fn_mass[col] = (exp_high_true[col] * true_below[cut]).sum()
            fp_mass[col] = (exp_high_false[col] * false_above[cut]).sum()
        count("kernels.enumeration.patterns", 1 << n)
    return fp_mass, fn_mass


__all__ = ["split_pattern_masses", "table_bytes_estimate"]
