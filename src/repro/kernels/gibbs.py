"""Blocked, fully vectorised Gibbs sweeps for the bound sampler.

The historical sampler ran a systematic scan: one Python-level loop
iteration per source per sweep, each resampling a single claim bit
conditioned on all others.  This kernel replaces the scan with a
*blocked* (data-augmented) sweep over the same stationary marginal:

1. compute each chain's log joints under both truth values from the
   current claim pattern (two table selects and two row sums);
2. draw the latent truth ``C`` from its exact conditional
   ``P(C = 1 | SC)``;
3. redraw **every** claim bit independently from the emission rates
   selected by ``C`` — given the truth value, sources are independent,
   so the whole ``(K, n)`` state block is one Bernoulli draw.

Each half-step samples from an exact conditional of the augmented
joint ``p(SC, C)``, whose marginal over ``SC`` is precisely the
mixture ``P(SC|C=1)z + P(SC|C=0)(1-z)`` that Algorithm 1 targets — so
the estimator is unchanged; only the transition kernel (and hence the
random stream) differs.  A sweep is a handful of ndarray operations
regardless of the source count.

All per-chain constants — the rate clamp, the log-rate tables and the
prior logs — are hoisted into :class:`GibbsTables`, built once per
sampler run rather than once per sweep.  The ``K`` chains (one per
distinct dependency column) share one random stream and advance in
lock-step, so a sweep is the same handful of array operations for one
chain or fifty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.observability import count

if TYPE_CHECKING:  # deferred: kernels must stay import-light
    from repro.resilience.supervisor import Deadline

#: Rate clamp keeping every chain irreducible for degenerate θ.
RATE_EPS = 1e-12


@dataclass(frozen=True)
class GibbsTables:
    """Clamped emission rates and their logs for ``K`` chains.

    ``rate_true`` / ``rate_false`` are ``(K, n)``; one row per distinct
    dependency column.  Built once per sampler run so no clamp or log
    is ever taken inside the sweep loop.
    """

    rate_true: np.ndarray
    rate_false: np.ndarray
    log_r1: np.ndarray
    log_1r1: np.ndarray
    log_r0: np.ndarray
    log_1r0: np.ndarray
    log_z: float
    log_1z: float

    @classmethod
    def build(
        cls, rate_true: np.ndarray, rate_false: np.ndarray, z: float
    ) -> "GibbsTables":
        rate_true = np.clip(np.atleast_2d(rate_true), RATE_EPS, 1 - RATE_EPS)
        rate_false = np.clip(np.atleast_2d(rate_false), RATE_EPS, 1 - RATE_EPS)
        z = float(np.clip(z, RATE_EPS, 1 - RATE_EPS))
        return cls(
            rate_true=rate_true,
            rate_false=rate_false,
            log_r1=np.log(rate_true),
            log_1r1=np.log1p(-rate_true),
            log_r0=np.log(rate_false),
            log_1r0=np.log1p(-rate_false),
            log_z=float(np.log(z)),
            log_1z=float(np.log1p(-z)),
        )

    @property
    def n_chains(self) -> int:
        return self.rate_true.shape[0]

    @property
    def n_sources(self) -> int:
        return self.rate_true.shape[1]


class BlockedGibbsChains:
    """``K`` chains advanced together by blocked vectorised sweeps.

    ``deadline`` (a :class:`repro.resilience.supervisor.Deadline`) is
    checked cooperatively at the top of every sweep; on expiry the
    raised :class:`~repro.utils.errors.DeadlineExceeded` carries the
    number of sweeps completed so the sampler's partial progress is
    diagnosable.  The check never perturbs the random stream, so a
    chain with a never-expiring deadline is bit-identical to one
    without.
    """

    def __init__(
        self,
        tables: GibbsTables,
        rng: np.random.Generator,
        *,
        deadline: Optional["Deadline"] = None,
    ):
        self.tables = tables
        self.n_chains = tables.n_chains
        self.n_sources = tables.n_sources
        self.rng = rng
        self.deadline = deadline
        self.n_sweeps = 0
        self.state = rng.random((self.n_chains, self.n_sources)) < 0.5
        self._refresh_likelihoods()

    def _refresh_likelihoods(self) -> None:
        t = self.tables
        self._like_true = np.where(self.state, t.log_r1, t.log_1r1).sum(axis=1)
        self._like_false = np.where(self.state, t.log_r0, t.log_1r0).sum(axis=1)

    def sweep(self) -> None:
        """One blocked sweep: draw ``C | SC`` then redraw ``SC | C``."""
        if self.deadline is not None:
            self.deadline.check(
                "gibbs-sweep",
                n_sweeps=self.n_sweeps,
                n_chains=self.n_chains,
                n_sources=self.n_sources,
            )
        self.n_sweeps += 1
        count("kernels.gibbs.sweeps")
        t = self.tables
        joint_true = self._like_true + t.log_z
        joint_false = self._like_false + t.log_1z
        top = np.maximum(joint_true, joint_false)
        w_true = np.exp(joint_true - top)
        p_true = w_true / (w_true + np.exp(joint_false - top))
        truth = self.rng.random(self.n_chains) < p_true
        rates = np.where(truth[:, None], t.rate_true, t.rate_false)
        self.state = self.rng.random((self.n_chains, self.n_sources)) < rates
        self._refresh_likelihoods()

    def joints(self) -> tuple:
        """Per-chain joint masses ``(P(s, C=1), P(s, C=0))``, each ``(K,)``."""
        return (
            np.exp(self._like_true + self.tables.log_z),
            np.exp(self._like_false + self.tables.log_1z),
        )


__all__ = ["BlockedGibbsChains", "GibbsTables", "RATE_EPS"]
