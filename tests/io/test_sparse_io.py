"""Tests for sparse-problem NPZ serialisation."""

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.io import load_sparse_problem, save_sparse_problem
from repro.sparse import SparseSensingProblem
from repro.utils.errors import DataError


@pytest.fixture
def sparse_problem(tiny_problem):
    return SparseSensingProblem.from_dense(tiny_problem)


class TestRoundTrip:
    def test_with_truth(self, sparse_problem, tmp_path):
        path = tmp_path / "problem.npz"
        save_sparse_problem(sparse_problem, path)
        loaded = load_sparse_problem(path)
        assert loaded.n_sources == sparse_problem.n_sources
        assert loaded.n_claims == sparse_problem.n_claims
        np.testing.assert_array_equal(
            np.asarray(loaded.claims.todense()),
            np.asarray(sparse_problem.claims.todense()),
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.dependency.todense()),
            np.asarray(sparse_problem.dependency.todense()),
        )
        np.testing.assert_array_equal(loaded.truth, sparse_problem.truth)

    def test_without_truth(self, sparse_problem, tmp_path):
        path = tmp_path / "blind.npz"
        save_sparse_problem(sparse_problem.without_truth(), path)
        assert not load_sparse_problem(path).has_truth

    def test_large_problem_compact_on_disk(self, tmp_path):
        from scipy import sparse

        claims = sparse.random(
            2000, 3000, density=0.001, format="csr", random_state=0
        )
        claims.data[:] = 1.0
        problem = SparseSensingProblem(claims=claims, dependency=claims * 0)
        path = tmp_path / "big.npz"
        save_sparse_problem(problem, path)
        # 6M cells would be 6 MB even as int8; the archive stays tiny.
        assert path.stat().st_size < 200_000
        loaded = load_sparse_problem(path)
        assert loaded.n_claims == problem.n_claims

    def test_wrong_archive_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, magic=np.array("something-else"))
        with pytest.raises(DataError):
            load_sparse_problem(path)

    @pytest.mark.parametrize("member", ["magic", "has_truth"])
    def test_missing_member_rejected(self, sparse_problem, tmp_path, member):
        path = tmp_path / "problem.npz"
        save_sparse_problem(sparse_problem, path)
        with np.load(path) as archive:
            members = {key: archive[key] for key in archive.files if key != member}
        np.savez(path, **members)
        with pytest.raises(DataError, match=f"problem.npz.*{member}"):
            load_sparse_problem(path)
