"""Invariant wall for the exact bound's split enumeration.

The kernel splits the sources into a low and a high half, so its
result must not depend on where that split falls: it has to agree with
a brute-force walk over every claim pattern, whatever the source order,
column order or parity of ``n`` (``n = 1`` leaves the low half empty),
and with rates or the prior sitting exactly on 0/1.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bounds import exact_bound
from repro.core import SourceParameters
from repro.core.likelihood import pattern_log_joint

TOLERANCE = 1e-12

#: Rates with a good share of exact 0/1 entries (impossible patterns).
RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def problems(draw, max_sources=12):
    n = draw(st.integers(1, max_sources))
    k = draw(st.integers(1, 3))
    rates = draw(arrays(np.float64, (4, n), elements=RATE))
    z = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    dependency = draw(arrays(np.int8, (n, k), elements=st.integers(0, 1)))
    params = SourceParameters(a=rates[0], b=rates[1], f=rates[2], g=rates[3], z=z)
    return dependency, params


def _brute_force(dependency, params):
    """(fp, fn) averaged over columns, one pattern_log_joint per pattern."""
    n, m = dependency.shape
    fp = fn = 0.0
    for column in dependency.T:
        for pattern in itertools.product((0, 1), repeat=n):
            log_true, log_false = pattern_log_joint(np.array(pattern), column, params)
            joint_true, joint_false = np.exp(log_true), np.exp(log_false)
            if joint_true > joint_false:
                fp += joint_false
            else:
                fn += joint_true
    return fp / m, fn / m


def _assert_close(result, other):
    assert abs(result.total - other.total) <= TOLERANCE
    assert abs(result.false_positive - other.false_positive) <= TOLERANCE
    assert abs(result.false_negative - other.false_negative) <= TOLERANCE


@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_matches_brute_force_enumeration(problem):
    dependency, params = problem
    result = exact_bound(dependency, params)
    fp, fn = _brute_force(dependency, params)
    assert abs(result.false_positive - fp) <= TOLERANCE
    assert abs(result.false_negative - fn) <= TOLERANCE
    assert abs(result.total - (fp + fn)) <= TOLERANCE


@settings(max_examples=40, deadline=None)
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_invariant_under_source_permutation(problem, seed):
    """The split point moves with the order; the bound must not."""
    dependency, params = problem
    perm = np.random.default_rng(seed).permutation(params.n_sources)
    permuted = exact_bound(dependency[perm], params.restrict(perm))
    _assert_close(permuted, exact_bound(dependency, params))


@settings(max_examples=40, deadline=None)
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_invariant_under_column_permutation(problem, seed):
    dependency, params = problem
    perm = np.random.default_rng(seed).permutation(dependency.shape[1])
    _assert_close(exact_bound(dependency[:, perm], params), exact_bound(dependency, params))


@settings(max_examples=30, deadline=None)
@given(
    rates=st.lists(RATE, min_size=1, max_size=12),
    dependency_seed=st.integers(0, 2**32 - 1),
)
def test_ties_decide_false(rates, dependency_seed):
    """Uninformative sources at z = 0.5 tie on every pattern: all "false"."""
    rate = np.array(rates)
    params = SourceParameters(a=rate, b=rate, f=rate, g=rate, z=0.5)
    rng = np.random.default_rng(dependency_seed)
    dependency = (rng.random((rate.size, 3)) < 0.5).astype(np.int8)
    result = exact_bound(dependency, params)
    assert result.false_positive == 0.0
    assert abs(result.false_negative - 0.5) <= TOLERANCE
