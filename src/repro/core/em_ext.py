"""EM-Ext: the dependency-aware maximum-likelihood estimator (Section IV).

The estimator jointly infers the source parameter set
:math:`θ = \\{a_i, b_i, f_i, g_i, z\\}` and the truth posterior of every
assertion from the source-claim matrix ``SC`` and dependency indicators
``D`` alone, by expectation-maximisation:

* **E-step** (Equation 9): compute
  :math:`Z_j = P(C_j = 1 | SC_j; D, θ^{(t)})` for every assertion;
* **M-step** (Equations 10–14): closed-form parameter updates that
  partition each source's cells into the four sets
  :math:`S_iC_{0/1}^{D_{0/1}}` (claim / non-claim × dependent /
  independent) and reweight by the posteriors.

The numerical work lives in the shared estimation engine
(:mod:`repro.engine`).  A dense fit is a one-problem lane pack: its
restarts run as the lanes of one
:class:`~repro.engine.batched.BatchedDenseBackend` program, the same
engine that batches many problems in :func:`fit_em_ext_batch` and in
the serving layer.  CSR input (when no random draws force
densification) runs the scalar :class:`~repro.engine.driver.EMDriver`
loop on the sparse backend.  The sparse and streaming estimators reuse
exactly the same kernels through other backends.

Practical extensions beyond the pseudocode (all standard EM hygiene,
documented in DESIGN.md §5.5):

* parameters are clamped to ``[ε, 1-ε]`` after every M-step;
* sources with an empty partition (e.g. no dependent cells at all) keep
  their previous value for the affected parameter;
* optional multi-restart: run EM from several random initialisations
  and keep the fixed point with the highest observed-data likelihood;
* an informative default initialisation breaks the global label-swap
  symmetry of the likelihood (the mirrored solution where every "true"
  becomes "false" has identical likelihood).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.core.result import EstimationResult
from repro.data.coerce import coerce_problem
from repro.data.protocol import FORMAT_CSR, FORMAT_DENSE, Problem
from repro.engine.backends import CSRBackend, DenseBackend, make_backend
from repro.engine.driver import DriverOutcome, EMDriver, IterationCallback
from repro.engine.initialisation import staged_initialisation, support_initialisation
from repro.utils.errors import DeadlineExceeded, ValidationError
from repro.utils.rng import RandomState, SeedLike
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.batched import BatchedLaneResult
    from repro.resilience.supervisor import Deadline


@dataclass(frozen=True)
class EMConfig:
    """Hyper-parameters of the EM loop.

    Attributes
    ----------
    max_iterations:
        Hard cap on EM iterations per restart.
    tolerance:
        Convergence threshold on the maximum absolute parameter change
        between consecutive iterations (the criterion of Algorithm 2's
        "while {θ} are not convergent").
    epsilon:
        Clamping width keeping probabilities inside ``[ε, 1-ε]``.
    n_restarts:
        Number of random restarts; the best fixed point by observed-data
        log-likelihood wins.  1 reproduces the paper's single run.
    smoothing:
        Hierarchical (empirical-Bayes) pseudo-count ``s``: each M-step
        ratio becomes ``(num_i + s·pooled) / (den_i + s)`` where
        ``pooled`` is the population-level rate (all sources' numerators
        over all denominators).  Sources with rich data keep their own
        estimates; sources with a handful of cells shrink toward the
        population — which is what makes the dependency signal usable on
        field data where most sources make a single claim.  ``0``
        reproduces the paper's plain maximum-likelihood updates.
    init_strategy:
        How the first restart is seeded (later restarts are always
        random):

        * ``"staged"`` (default) — fit the nested independence model on
          the *independent* cells first (dependent cells excluded, the
          EM-Social view), then enrich: one dependency-aware M-step on
          the staged posterior seeds the full model.  This breaks the
          chicken-and-egg between the truth posterior and the dependent
          emission rates ``f, g`` — they are learned from an
          already-calibrated posterior instead of amplifying the initial
          guess.
        * ``"support"`` — a dependency-discounted vote-count posterior
          (assertions with more independent supporters start more
          credible), the classic truth-discovery warm start.
        * ``"random"`` — random source parameters (the paper's
          "initialize parameter set with random probability").
    strict:
        Failure semantics when *every* restart diverges or raises: raise
        :class:`~repro.utils.errors.ConvergenceError` (``True``) or
        degrade gracefully, returning a best-effort result whose
        :class:`~repro.engine.health.RunHealth` records what failed
        (``False``, the default).
    max_wall_seconds:
        Optional wall-clock budget for the whole multi-restart fit; the
        driver stops after the first iteration past the budget instead
        of running to ``max_iterations``.  The clock starts before the
        first initialiser runs, so staged initialisation counts against
        it.  ``None`` (default) disables the budget.

    Restarts of a dense fit run as stacked lanes of one tensor program,
    bit-for-bit the scalar loop's results.
    """

    max_iterations: int = 200
    tolerance: float = 1e-6
    epsilon: float = DEFAULT_EPSILON
    n_restarts: int = 1
    smoothing: float = 0.0
    init_strategy: str = "staged"
    strict: bool = False
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive_int(self.max_iterations, "max_iterations")
        check_positive_int(self.n_restarts, "n_restarts")
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if not 0 < self.epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.smoothing < 0:
            raise ValidationError(f"smoothing must be non-negative, got {self.smoothing}")
        if self.init_strategy not in ("staged", "support", "random"):
            raise ValidationError(
                f"init_strategy must be 'staged', 'support' or 'random', got "
                f"{self.init_strategy!r}"
            )
        if self.max_wall_seconds is not None and not self.max_wall_seconds > 0:
            raise ValidationError(
                f"max_wall_seconds must be positive, got {self.max_wall_seconds}"
            )


class EMExtEstimator:
    """The paper's dependency-aware joint estimator (Algorithm 2).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import EMExtEstimator, SensingProblem
    >>> sc = np.array([[1, 0, 1], [1, 1, 0]])
    >>> d = np.array([[0, 0, 1], [0, 0, 0]])
    >>> result = EMExtEstimator(seed=0).fit(SensingProblem(sc, d))
    >>> result.scores.shape
    (3,)
    """

    algorithm_name = "em-ext"

    def __init__(
        self,
        config: Optional[EMConfig] = None,
        *,
        seed: SeedLike = None,
        initial_parameters: Optional[SourceParameters] = None,
        callbacks: Sequence[IterationCallback] = (),
    ):
        self.config = config or EMConfig()
        self._seed = seed
        self.initial_parameters = initial_parameters
        self.callbacks = tuple(callbacks)

    # -- public API ------------------------------------------------------------

    def fit(self, problem: Problem) -> EstimationResult:
        """Run EM on ``problem`` (dense or CSR) and return the richest result.

        Dense problems run as a one-problem lane pack (restarts are the
        lanes), CSR problems on the sparse backend's scalar loop — same
        update equations, same fixed points.  The one capability gap is
        random initialisation (random restarts or
        ``init_strategy="random"`` without explicit starting
        parameters), which only the dense backend supports; CSR input
        is then densified under the memory budget.

        Callbacks receive the dense fit's :class:`IterationEvent` stream
        after the lanes finish, in restart order, so an early-stop
        request cannot reach them; each event's ``duration_seconds`` is
        the shared pass's wall time.
        """
        # Usage errors surface here, eagerly; inside the restart loop the
        # driver would treat them as per-restart runtime faults.
        if (
            self.initial_parameters is not None
            and self.initial_parameters.n_sources != problem.n_sources
        ):
            raise ValidationError(
                "initial_parameters describe "
                f"{self.initial_parameters.n_sources} sources but the "
                f"problem has {problem.n_sources}"
            )
        needs_random_draws = self.initial_parameters is None and (
            self.config.init_strategy == "random" or self.config.n_restarts > 1
        )
        needs = (
            (FORMAT_DENSE,)
            if needs_random_draws
            else (FORMAT_DENSE, FORMAT_CSR)
        )
        problem = coerce_problem(problem, needs=needs)
        if problem.format == FORMAT_DENSE:
            return fit_em_ext_batch(
                [problem],
                seeds=[self._seed],
                config=self.config,
                initial_parameters=[self.initial_parameters],
                callbacks=self.callbacks,
            )[0]
        backend = make_backend(
            problem,
            smoothing=self.config.smoothing,
            epsilon=self.config.epsilon,
        )
        driver = EMDriver.from_config(self.config, callbacks=self.callbacks)
        return _estimation_result(
            driver.fit(backend, self._initialiser(backend), self._seed)
        )

    # -- internals ---------------------------------------------------------------

    def _initialiser(self, backend: "Union[DenseBackend, CSRBackend]"):
        """Restart ``index`` → starting parameters (driver protocol)."""

        def _init(index: int, rng: np.random.Generator) -> SourceParameters:
            if self.initial_parameters is not None:
                return self.initial_parameters.clamp(self.config.epsilon)
            if index == 0 and self.config.init_strategy == "staged":
                return staged_initialisation(
                    backend, tolerance=self.config.tolerance
                )
            if index == 0 and self.config.init_strategy == "support":
                return support_initialisation(backend)
            return backend.random_params(rng)

        return _init


def _estimation_result(outcome: DriverOutcome) -> EstimationResult:
    """The public result of one selected driver outcome."""
    return EstimationResult(
        algorithm=EMExtEstimator.algorithm_name,
        scores=outcome.posterior,
        decisions=outcome.decisions,
        parameters=outcome.parameters,
        log_likelihood=outcome.log_likelihood,
        converged=outcome.converged,
        n_iterations=outcome.n_iterations,
        trace=outcome.trace,
        health=outcome.health,
    )


def _lane_candidates(
    lanes: Iterator[BatchedLaneResult],
    indices: Sequence[int],
    init_errors: dict,
    n_restarts: int,
    events: list,
) -> Iterator[Tuple[int, Optional[DriverOutcome], Optional[str]]]:
    """One problem's ``(index, outcome, error)`` triples, in restart order.

    Takes the problem's lanes from the shared ``lanes`` stream on the
    first ``next`` and appends their telemetry to ``events``.
    """
    by_index = {index: next(lanes) for index in indices}
    for index in range(n_restarts):
        if index in init_errors:
            yield index, None, init_errors[index]
            continue
        lane = by_index[index]
        events.extend(lane.events)
        yield index, lane.outcome, lane.error


def _batch_lane_outcomes(
    problems: Sequence[Problem],
    seeds: Sequence[SeedLike],
    config: EMConfig,
    *,
    initial_parameters: Optional[Sequence[Optional[SourceParameters]]] = None,
    budget: Optional["Deadline"] = None,
    collect_events: bool = False,
) -> List[Tuple[Optional[EstimationResult], list, Optional[Exception]]]:
    """One ``(result, events, error)`` triple per problem, lane-batched.

    The dense EM-Ext engine behind :meth:`EMExtEstimator.fit` (a
    one-problem pack), :func:`fit_em_ext_batch` and the serving layer.
    Every problem's restarts become lanes of one stacked tensor pass
    (:class:`~repro.engine.batched.BatchedDenseBackend`); each
    problem's lanes then go through
    :meth:`~repro.engine.driver.EMDriver.consume_candidates`, so each
    result is bit-for-bit what the scalar ``EMDriver.fit`` loop returns
    with the same seed.  A problem whose setup or selection raises
    carries the exception in its own triple; a
    :class:`~repro.utils.errors.DeadlineExceeded` from ``budget``
    propagates.  A one-problem pack runs its lanes inside that
    problem's ``em.fit`` span, as a scalar fit runs its ``em.run``.

    ``events`` holds the problem's telemetry in restart order (empty
    unless ``collect_events``), bitwise the scalar run's except
    ``duration_seconds``, the shared pass's wall time.
    ``config.max_wall_seconds`` budgets the whole batch from before the
    first initialiser runs.  ``initial_parameters`` supplies one
    optional warm start per problem (the estimator's
    ``initial_parameters``); ``budget`` is a cooperative
    :class:`~repro.resilience.supervisor.Deadline` checked between
    passes — the serving layer's drain budget.
    """
    from repro.engine.batched import BatchedDenseBackend, run_batched_lanes

    if len(problems) != len(seeds):
        raise ValidationError(
            f"{len(problems)} problems but {len(seeds)} seeds"
        )
    if initial_parameters is not None and len(initial_parameters) != len(problems):
        raise ValidationError(
            f"{len(problems)} problems but {len(initial_parameters)} "
            "initial parameter sets"
        )
    deadline = (
        time.perf_counter() + config.max_wall_seconds
        if config.max_wall_seconds is not None
        else None
    )
    driver = EMDriver.from_config(config)
    lane_backends: List[DenseBackend] = []
    lane_params: List[SourceParameters] = []
    #: Per problem: (prepared restart indices, init errors, setup error).
    staged: List[Tuple[Sequence[int], dict, Optional[Exception]]] = []
    for position, (problem, seed) in enumerate(zip(problems, seeds)):
        warm = (
            initial_parameters[position]
            if initial_parameters is not None
            else None
        )
        try:
            # Mirror EMExtEstimator.fit's eager usage-error check so a
            # mismatched warm start surfaces as the same ValidationError
            # the scalar path raises (not a per-restart init fault).
            if warm is not None and warm.n_sources != problem.n_sources:
                raise ValidationError(
                    "initial_parameters describe "
                    f"{warm.n_sources} sources but the "
                    f"problem has {problem.n_sources}"
                )
            dense = coerce_problem(problem, needs=(FORMAT_DENSE,))
            backend = make_backend(
                dense, smoothing=config.smoothing, epsilon=config.epsilon
            )
            estimator = EMExtEstimator(
                config, seed=seed, initial_parameters=warm
            )
            # Warm starts consume the spawned restart generators in
            # serial order, exactly as EMDriver.fit would.
            prepared, init_errors = driver._prepare_restarts(
                estimator._initialiser(backend), RandomState(seed)
            )
        except Exception as error:
            staged.append(((), {}, error))
            continue
        staged.append(([index for index, _ in prepared], init_errors, None))
        for _, params in prepared:
            lane_backends.append(backend)
            lane_params.append(params)

    def run_lanes() -> Iterator[BatchedLaneResult]:
        if lane_params:
            yield from run_batched_lanes(
                BatchedDenseBackend.from_backends(lane_backends),
                lane_params,
                max_iterations=config.max_iterations,
                tolerance=config.tolerance,
                deadline=deadline,
                budget=budget,
                collect_events=collect_events,
            )

    lanes = run_lanes()
    if len(problems) > 1:
        # A shared pass belongs to no single problem's em.fit span.
        lanes = iter(list(lanes))
    outcomes: List[Tuple[Optional[EstimationResult], list, Optional[Exception]]] = []
    for indices, init_errors, setup_error in staged:
        if setup_error is not None:
            outcomes.append((None, [], setup_error))
            continue
        events: list = []
        try:
            outcome = driver.consume_candidates(
                _lane_candidates(
                    lanes, indices, init_errors, config.n_restarts, events
                )
            )
        except DeadlineExceeded:
            raise
        except Exception as error:
            outcomes.append((None, events, error))
            continue
        outcomes.append((_estimation_result(outcome), events, None))
    return outcomes


def fit_em_ext_batch(
    problems: Sequence[Problem],
    *,
    seeds: Sequence[SeedLike],
    config: Optional[EMConfig] = None,
    initial_parameters: Optional[Sequence[Optional[SourceParameters]]] = None,
    budget: Optional["Deadline"] = None,
    callbacks: Sequence[IterationCallback] = (),
) -> List[EstimationResult]:
    """Fit EM-Ext on many same-shape problems as one batched tensor pass.

    Every problem's restarts become lanes of a single stacked
    ``(B, n, m)`` program (B = problems × restarts); result ``t`` is
    bit-for-bit what ``EMExtEstimator(config, seed=seeds[t],
    initial_parameters=initial_parameters[t]).fit(problems[t])``
    returns — same parameters, posterior, trace, health and restart
    selection (see the parity wall in
    ``tests/engine/test_batched.py``).  ``budget`` optionally bounds
    the whole batch with a cooperative
    :class:`~repro.resilience.supervisor.Deadline` (the serving
    layer's drain budget).  Requires same-shape problems
    (CSR input is densified); a problem whose fit would raise re-raises
    the same exception here, after earlier problems' telemetry has been
    delivered.

    ``callbacks`` receive each problem's :class:`IterationEvent` stream
    after the batch completes, in problem-then-restart order; the
    events carry the scalar run's deltas and log-likelihoods but the
    shared pass's wall time, and an early-stop request cannot reach an
    already-finished lane.
    """
    config = config or EMConfig()
    outcomes = _batch_lane_outcomes(
        problems,
        seeds,
        config,
        initial_parameters=initial_parameters,
        budget=budget,
        collect_events=bool(callbacks),
    )
    results: List[EstimationResult] = []
    for result, events, error in outcomes:
        if callbacks and events:
            from repro.parallel.merge import replay_events

            replay_events(events, callbacks)
        if error is not None:
            raise error
        assert result is not None
        results.append(result)
    return results


def run_em_ext(
    problem: Problem,
    *,
    seed: SeedLike = None,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    n_restarts: int = 1,
    smoothing: float = 0.0,
    init_strategy: str = "staged",
) -> EstimationResult:
    """One-call convenience wrapper around :class:`EMExtEstimator`."""
    config = EMConfig(
        max_iterations=max_iterations,
        tolerance=tolerance,
        n_restarts=n_restarts,
        smoothing=smoothing,
        init_strategy=init_strategy,
    )
    return EMExtEstimator(config, seed=seed).fit(problem)


__all__ = ["EMConfig", "EMExtEstimator", "fit_em_ext_batch", "run_em_ext"]
