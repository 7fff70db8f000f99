"""Micro-benchmarks: optimised kernels vs the frozen pre-optimisation code.

Every hot path that ``repro.kernels`` rewrote is timed here against its
verbatim historical copy from :mod:`repro.kernels.reference` — same
inputs, same seeds, interleaved runs, best-of-N wall clock — and the
results land in ``BENCH_kernels.json`` (path overridable via
``REPRO_BENCH_OUT``) together with :func:`repro.eval.machine_info`.

Agreement is asserted unconditionally, at the tolerance each rewrite
earns:

* dense E-step / M-step / full EM-Ext fits — **bit for bit** (the
  table-gather kernels select the identical float values with the same
  reduction order);
* exact bound — ``1e-10`` (the split enumeration reorders the float
  summation, nothing else);
* Gibbs bound — ``0.02`` (the blocked sampler draws a different, equally
  valid chain than the historical scan sampler).

Speedups are *reported* unconditionally but *enforced* only when
``REPRO_BENCH_ENFORCE=1`` (the CI benchmark job sets it): each measured
speedup must stay within ``REGRESSION_FACTOR`` (1.5x) of the committed
``benchmarks/kernel_baseline.json`` figure, so a change that quietly
gives back the optimisation fails the job without flaking on machines
that are merely slower overall (ratios travel; absolute seconds do not).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from repro import observability
from repro.bounds import GibbsConfig, exact_bound, gibbs_bound
from repro.core.em_ext import EMConfig
from repro.core.model import SourceParameters
from repro.engine import initialisation
from repro.engine.backends import DenseBackend
from repro.engine.driver import EMDriver
from repro.eval import execution_info, machine_info
from repro.kernels.reference import (
    ReferenceDenseBackend,
    reference_exact_bound,
    reference_gibbs_bound,
)
from repro.synthetic import GeneratorConfig, generate_dataset

pytestmark = pytest.mark.slow

SEED = 777
#: n = 24 puts the Gibbs bound at the size Figure 6 uses past the exact
#: cutover; n = 20 keeps the exact bound's 2^n sweep affordable.
GIBBS_N_SOURCES = 24
EXACT_N_SOURCES = 20
#: Fig. 7 estimator sizes (n = 20..50, m = 50 via estimator defaults).
FIT_SIZES = ((20, 50), (35, 50), (50, 50))
GIBBS_CONFIG = GibbsConfig(burn_in=200, min_sweeps=1500, max_sweeps=1500)
GIBBS_TOLERANCE = 0.02
EXACT_TOLERANCE = 1e-10
#: A kernel "regresses" when its speedup falls more than this factor
#: below the committed baseline figure.
REGRESSION_FACTOR = 1.5

_DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")
_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "kernel_baseline.json")


def _time_pair(old_fn, new_fn, reps):
    """Interleave old/new calls; return (old_best, new_best, old, new).

    Interleaving makes both sides see the same thermal / frequency /
    cache conditions; best-of-N discards scheduler noise.  The returned
    outputs come from the final repetition of each side.
    """
    old_best = new_best = math.inf
    old_out = new_out = None
    for _ in range(reps):
        start = time.perf_counter()
        old_out = old_fn()
        old_best = min(old_best, time.perf_counter() - start)
        start = time.perf_counter()
        new_out = new_fn()
        new_best = min(new_best, time.perf_counter() - start)
    return old_best, new_best, old_out, new_out


def _row(old_seconds, new_seconds, parity):
    return {
        "old_seconds": round(old_seconds, 6),
        "new_seconds": round(new_seconds, 6),
        "speedup": round(old_seconds / new_seconds, 3),
        "parity": parity,
    }


def _bound_problem(n_sources):
    config = GeneratorConfig.paper_defaults(
        n_sources=n_sources, n_assertions=50
    )
    dependency = generate_dataset(config, seed=SEED).problem.dependency.values
    params = SourceParameters.random(n_sources, seed=SEED).clamp(1e-3)
    return dependency, params


def _fit(backend, em_config):
    driver = EMDriver.from_config(em_config)
    return driver.fit(
        backend,
        lambda index, rng: initialisation.staged_initialisation(
            backend, tolerance=em_config.tolerance
        ),
        None,
    )


def _bench_gibbs(rows):
    dependency, params = _bound_problem(GIBBS_N_SOURCES)
    old_s, new_s, old, new = _time_pair(
        lambda: reference_gibbs_bound(
            dependency, params, config=GIBBS_CONFIG, seed=SEED
        ),
        lambda: gibbs_bound(dependency, params, config=GIBBS_CONFIG, seed=SEED),
        reps=3,
    )
    diff = abs(old.total - new.total)
    assert diff <= GIBBS_TOLERANCE, (
        f"Gibbs bound drifted from the scan-sampler baseline: "
        f"|{new.total} - {old.total}| = {diff} > {GIBBS_TOLERANCE}"
    )
    rows[f"gibbs_bound_n{GIBBS_N_SOURCES}"] = _row(
        old_s, new_s, f"|total diff| = {diff:.2e} <= {GIBBS_TOLERANCE}"
    )


def _bench_exact(rows):
    dependency, params = _bound_problem(EXACT_N_SOURCES)
    old_s, new_s, old, new = _time_pair(
        lambda: reference_exact_bound(dependency, params),
        lambda: exact_bound(dependency, params),
        reps=3,
    )
    produced = np.array([new.total, new.false_positive, new.false_negative])
    expected = np.array([old.total, old.false_positive, old.false_negative])
    assert np.allclose(produced, expected, atol=EXACT_TOLERANCE, rtol=0), (
        f"exact bound drifted beyond summation-order error: "
        f"max abs diff {np.max(np.abs(produced - expected))}"
    )
    rows[f"exact_bound_n{EXACT_N_SOURCES}"] = _row(
        old_s,
        new_s,
        f"max abs diff = {np.max(np.abs(produced - expected)):.2e} "
        f"<= {EXACT_TOLERANCE}",
    )


def _bench_engine_steps(rows):
    n, m = 50, 50
    config = GeneratorConfig.estimator_defaults(n_sources=n, n_assertions=m)
    problem = generate_dataset(config, seed=SEED).problem
    old_backend = ReferenceDenseBackend(problem)
    new_backend = DenseBackend(problem)
    params = SourceParameters.random(n, seed=SEED).clamp(EMConfig().epsilon)
    epsilon = EMConfig().epsilon

    # A fresh (equal-valued) params object per call keeps the optimised
    # backend's identity-keyed column cache honest: every timed call
    # pays the full table build + gather, never a cache hit.
    old_s, new_s, old, new = _time_pair(
        lambda: old_backend.e_step(params.clamp(epsilon)),
        lambda: new_backend.e_step(params.clamp(epsilon)),
        reps=25,
    )
    assert np.array_equal(old[0], new[0]), "E-step posterior not bitwise equal"
    assert old[1] == new[1], "E-step log likelihood not bitwise equal"
    rows[f"dense_e_step_n{n}_m{m}"] = _row(old_s, new_s, "bitwise")

    posterior = new[0]
    old_s, new_s, old_p, new_p = _time_pair(
        lambda: old_backend.m_step(posterior, params),
        lambda: new_backend.m_step(posterior, params),
        reps=25,
    )
    for name in ("a", "b", "f", "g"):
        assert np.array_equal(getattr(old_p, name), getattr(new_p, name)), (
            f"M-step rate {name} not bitwise equal"
        )
    assert old_p.z == new_p.z, "M-step z not bitwise equal"
    rows[f"dense_m_step_n{n}_m{m}"] = _row(old_s, new_s, "bitwise")


def _bench_fits(rows):
    em_config = EMConfig()
    for n, m in FIT_SIZES:
        config = GeneratorConfig.estimator_defaults(n_sources=n, n_assertions=m)
        problem = generate_dataset(config, seed=SEED + n).problem
        old_backend = ReferenceDenseBackend(problem)
        new_backend = DenseBackend(problem)
        old_s, new_s, old, new = _time_pair(
            lambda: _fit(old_backend, em_config),
            lambda: _fit(new_backend, em_config),
            reps=25,
        )
        assert old.n_iterations == new.n_iterations, (
            f"fit n={n}: iteration counts diverged "
            f"({old.n_iterations} vs {new.n_iterations})"
        )
        assert np.array_equal(old.posterior, new.posterior), (
            f"fit n={n}: posterior not bitwise equal"
        )
        rows[f"fit_em_ext_n{n}_m{m}"] = _row(
            old_s, new_s, f"bitwise ({new.n_iterations} iterations)"
        )


def _enforce_baseline(rows):
    with open(_BASELINE_PATH) as handle:
        baseline = json.load(handle)["speedups"]
    failures = []
    for name, expected in baseline.items():
        measured = rows[name]["speedup"]
        if measured * REGRESSION_FACTOR < expected:
            failures.append(
                f"{name}: measured {measured}x < baseline {expected}x "
                f"/ {REGRESSION_FACTOR}"
            )
    assert not failures, "kernel speedup regression:\n" + "\n".join(failures)


def test_kernel_micro_writes_bench_json():
    rows = {}
    # Collect the run's own metrics (cache hit rates, sweep counts,
    # dedup ratios) alongside the timings — the snapshot rides along in
    # the report under "metrics".
    with observability.observe(root_name="bench.kernels") as session:
        _bench_gibbs(rows)
        _bench_exact(rows)
        _bench_engine_steps(rows)
        _bench_fits(rows)

    report = {
        "experiment": "optimised kernels vs frozen pre-optimisation code",
        "method": "interleaved old/new, best wall-clock over N repetitions",
        "config": {
            "seed": SEED,
            "gibbs": {
                "n_sources": GIBBS_N_SOURCES,
                "burn_in": GIBBS_CONFIG.burn_in,
                "sweeps": GIBBS_CONFIG.max_sweeps,
                "tolerance": GIBBS_TOLERANCE,
            },
            "exact": {
                "n_sources": EXACT_N_SOURCES,
                "tolerance": EXACT_TOLERANCE,
            },
            "fits": [
                {"n_sources": n, "n_assertions": m} for n, m in FIT_SIZES
            ],
        },
        "machine": machine_info(),
        # Scalar, single-process exhibit: the execution block pins that
        # down so its rows compare honestly against batched trajectories.
        "execution": execution_info(),
        "kernels": rows,
        "speedups": {name: row["speedup"] for name, row in rows.items()},
        "metrics": session.metrics_dict(),
    }
    out_path = os.environ.get("REPRO_BENCH_OUT", _DEFAULT_OUT)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print(f"\nkernel micro-benchmarks -> {os.path.abspath(out_path)}")
    for name, row in rows.items():
        print(
            f"  {name:>24}: {row['old_seconds'] * 1e3:9.3f}ms -> "
            f"{row['new_seconds'] * 1e3:9.3f}ms "
            f"({row['speedup']:6.2f}x, {row['parity']})"
        )

    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        _enforce_baseline(rows)
