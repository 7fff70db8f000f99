"""Likelihood computations for the dependency-aware source model.

Implements Table II and Equations (4), (5), (9) of the paper in
vectorised log-space form.  Every estimator and bound in the library
funnels through these functions, so they are the numerical backbone of
the reproduction.

Conventions
-----------
* ``sc`` — an ``(n, m)`` 0/1 claim matrix (or an ``(n,)`` column);
* ``d``  — dependency indicators of the same shape;
* log-probabilities use natural log; impossible events yield ``-inf``
  only if parameters are exactly 0/1 (callers clamp first).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.core.matrix import SensingProblem
from repro.core.model import SourceParameters
from repro.kernels.likelihood import dense_column_log_likelihoods
from repro.kernels.tables import LogParameterTables
from repro.utils.errors import ValidationError

ArrayLike = Union[np.ndarray, list]


def _log_z_pair(z: float) -> Tuple[float, float]:
    """``(log z, log(1-z))`` without an errstate round-trip.

    The scalar logs only hit the ``divide`` warning at the closed
    endpoints, which are handled explicitly; ``log1p(-z)`` is kept for
    the complement (``log(1 - z)`` would round ``1 - z`` first).
    """
    log_z = float(np.log(z)) if z != 0.0 else float("-inf")
    log_1z = float(np.log1p(-z)) if z != 1.0 else float("-inf")
    return log_z, log_1z


def _is_binary(values: np.ndarray) -> bool:
    return bool(((values == 0) | (values == 1)).all())


def emission_probability(
    sc: int, d: int, c: int, params: SourceParameters, source: int
) -> float:
    """Scalar :math:`P(S_iC_j = sc \\mid C_j = c; D_{ij} = d)` per Table II."""
    if sc not in (0, 1) or d not in (0, 1) or c not in (0, 1):
        raise ValidationError("sc, d and c must all be 0 or 1")
    if c == 1:
        rate = params.f[source] if d == 1 else params.a[source]
    else:
        rate = params.g[source] if d == 1 else params.b[source]
    return float(rate if sc == 1 else 1.0 - rate)


def _emission_log_rates(
    d: np.ndarray, params: SourceParameters
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell log emission rates for the four (claim, truth) combinations.

    Returns ``(log_p1_true, log_p0_true, log_p1_false, log_p0_false)``
    where e.g. ``log_p1_true[i, j]`` is the log-probability that source
    ``i`` claims assertion ``j`` given the assertion is true, under the
    cell's dependency flag.
    """
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_a, log_1a = np.log(params.a), np.log1p(-params.a)
        log_b, log_1b = np.log(params.b), np.log1p(-params.b)
        log_f, log_1f = np.log(params.f), np.log1p(-params.f)
        log_g, log_1g = np.log(params.g), np.log1p(-params.g)

    def _mix(dep_rate: np.ndarray, ind_rate: np.ndarray) -> np.ndarray:
        # Broadcast per-source rates over assertions via the D mask.
        return d * dep_rate[..., None] + (1.0 - d) * ind_rate[..., None]

    if d.ndim == 1:
        # A single column: rates are (n,) and broadcasting above would
        # produce (n, n); handle explicitly.
        mix = lambda dep, ind: d * dep + (1.0 - d) * ind  # noqa: E731
        return (
            mix(log_f, log_a),
            mix(log_1f, log_1a),
            mix(log_g, log_b),
            mix(log_1g, log_1b),
        )
    return (
        _mix(log_f, log_a),
        _mix(log_1f, log_1a),
        _mix(log_g, log_b),
        _mix(log_1g, log_1b),
    )


def column_log_likelihoods(
    sc: ArrayLike, d: ArrayLike, params: SourceParameters
) -> Tuple[np.ndarray, np.ndarray]:
    """Log of Equations (4) and (5) for every assertion column.

    Parameters
    ----------
    sc, d : ``(n, m)`` arrays (or ``(n,)`` single columns).

    Returns
    -------
    ``(log_p_true, log_p_false)`` — each ``(m,)`` (or scalar arrays for a
    single column): :math:`\\log P(SC_j \\mid C_j = 1; D, θ)` and
    :math:`\\log P(SC_j \\mid C_j = 0; D, θ)`.
    """
    sc = np.asarray(sc, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if sc.shape != d.shape:
        raise ValidationError(f"sc and d shapes differ: {sc.shape} vs {d.shape}")
    n = sc.shape[0]
    if n != params.n_sources:
        raise ValidationError(
            f"matrix has {n} sources but parameters describe {params.n_sources}"
        )
    if sc.ndim == 2:
        tables = LogParameterTables.build(params)
        if tables.finite and _is_binary(sc) and _is_binary(d):
            # Fast path: SC and D are 0/1, so every multiply-add below is
            # an exact selection — the table-select kernel returns the
            # bitwise-identical sums with fewer array passes.
            return dense_column_log_likelihoods(sc != 0, d != 0, tables)
    log_p1_t, log_p0_t, log_p1_f, log_p0_f = _emission_log_rates(d, params)
    log_true = sc * log_p1_t + (1.0 - sc) * log_p0_t
    log_false = sc * log_p1_f + (1.0 - sc) * log_p0_f
    return log_true.sum(axis=0), log_false.sum(axis=0)


def pattern_log_joint(
    pattern: np.ndarray, d_column: np.ndarray, params: SourceParameters
) -> Tuple[float, float]:
    """Log joints ``(log P(pattern, C=1), log P(pattern, C=0))`` for one column.

    ``pattern`` is an ``(n,)`` 0/1 vector of hypothetical claims and
    ``d_column`` the column's 0/1 dependency flags.  Each source's log
    rate is selected, not multiplied by a 0/1 weight, so a rate exactly
    at 0/1 makes an impossible pattern ``-inf`` rather than NaN — this
    is the brute-force oracle the exact bound is tested against.
    """
    claims = np.asarray(pattern, dtype=np.float64)
    d = np.asarray(d_column, dtype=np.float64)
    if claims.shape != d.shape or claims.shape != (params.n_sources,):
        raise ValidationError(
            f"pattern {claims.shape} and d_column {d.shape} must both be "
            f"({params.n_sources},)"
        )
    rate_true = np.where(d != 0, params.f, params.a)
    rate_false = np.where(d != 0, params.g, params.b)
    with np.errstate(divide="ignore"):
        log_true = np.where(claims != 0, np.log(rate_true), np.log1p(-rate_true))
        log_false = np.where(claims != 0, np.log(rate_false), np.log1p(-rate_false))
        return (
            float(log_true.sum() + np.log(params.z)),
            float(log_false.sum() + np.log1p(-params.z)),
        )


def posterior_truth(
    problem: SensingProblem, params: SourceParameters
) -> np.ndarray:
    """Equation (9): :math:`P(C_j = 1 \\mid SC_j; D, θ)` for every assertion.

    Computed in log space with a stable log-sum-exp normalisation.
    """
    log_true, log_false = column_log_likelihoods(
        problem.claims.values, problem.dependency.values, params
    )
    return posterior_from_log_likelihoods(log_true, log_false, params.z)


def posterior_from_log_likelihoods(
    log_true: np.ndarray, log_false: np.ndarray, z: float
) -> np.ndarray:
    """Stable Bayes posterior from per-column log likelihoods and prior ``z``."""
    log_z, log_1z = _log_z_pair(z)
    joint_true = np.asarray(log_true, dtype=np.float64) + log_z
    joint_false = np.asarray(log_false, dtype=np.float64) + log_1z
    top = np.maximum(joint_true, joint_false)
    if np.isfinite(top).all():
        # Hot path (every EM iteration lands here): at least one joint
        # per column is finite, so the log-sum-exp needs no guards.
        num = np.exp(joint_true - top)
        return num / (num + np.exp(joint_false - top))
    # Columns where both joints are -inf (possible when z ∈ {0,1} meets a
    # zero-probability pattern) get an uninformative 0.5 posterior.
    with np.errstate(invalid="ignore"):
        num = np.exp(joint_true - top)
        den = num + np.exp(joint_false - top)
        return np.where(np.isfinite(top), num / den, 0.5)


def data_log_likelihood(problem: SensingProblem, params: SourceParameters) -> float:
    """Observed-data log likelihood :math:`\\mathcal{L}` (Equation 7).

    The sum over assertions of
    :math:`\\log \\sum_{C_j∈\\{0,1\\}} P(SC_j|C_j; D, θ) P(C_j; θ)`.
    """
    log_true, log_false = column_log_likelihoods(
        problem.claims.values, problem.dependency.values, params
    )
    return log_likelihood_from_log_columns(log_true, log_false, params.z)


def log_likelihood_from_log_columns(
    log_true: np.ndarray, log_false: np.ndarray, z: float
) -> float:
    """Equation (7) from per-column log likelihoods and the prior ``z``.

    The stable log-sum-exp tail shared by :func:`data_log_likelihood`
    and the engine backends, letting an E-step reuse one likelihood
    pass for both the posterior and :math:`\\mathcal{L}`.
    """
    log_z, log_1z = _log_z_pair(z)
    joint_true = np.asarray(log_true, dtype=np.float64) + log_z
    joint_false = np.asarray(log_false, dtype=np.float64) + log_1z
    top = np.maximum(joint_true, joint_false)
    safe_top = np.where(np.isfinite(top), top, 0.0)
    column_ll = safe_top + np.log(
        np.exp(joint_true - safe_top) + np.exp(joint_false - safe_top)
    )
    return float(column_ll.sum())


__all__ = [
    "column_log_likelihoods",
    "data_log_likelihood",
    "emission_probability",
    "log_likelihood_from_log_columns",
    "pattern_log_joint",
    "posterior_from_log_likelihoods",
    "posterior_truth",
]
