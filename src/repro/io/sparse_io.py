"""NPZ serialisation for sparse sensing problems.

JSON is the right interchange format for the dense problems the paper's
experiments use; a full-scale crawl's CSR matrices belong in a binary
container.  One ``.npz`` file holds both matrices (CSR components), the
shape, the axis ids, and optional truth labels.

The claim/dependency *values* are never stored: validation guarantees
they are all ones, so only the CSR structure (``indptr``/``indices``)
goes to disk and load rebuilds an int8 data array — the same 8× saving
over float64 that :class:`~repro.data.csr.CsrProblem` applies in
memory.  Archives written before the data layer carried ids load fine;
their problems get the default ``S{i}``/``C{j}`` ids.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.data.coerce import coerce_problem
from repro.data.csr import CsrProblem
from repro.data.protocol import FORMAT_CSR, Problem
from repro.utils.errors import DataError

PathLike = Union[str, Path]

_MAGIC = "repro-sparse-problem-v1"


def save_sparse_problem(problem: Problem, path: PathLike) -> None:
    """Write a sparse problem to an ``.npz`` file.

    Accepts either storage format; dense input is converted to CSR
    first (always safe — sparsifying never allocates more).
    """
    problem = coerce_problem(problem, needs=FORMAT_CSR)
    claims = problem.claims.tocsr()
    dependency = problem.dependency.tocsr()
    payload = {
        "magic": np.array(_MAGIC),
        "shape": np.array(claims.shape, dtype=np.int64),
        "claims_indptr": claims.indptr,
        "claims_indices": claims.indices,
        "dependency_indptr": dependency.indptr,
        "dependency_indices": dependency.indices,
        "source_ids": np.array(problem.source_ids, dtype=np.str_),
        "assertion_ids": np.array(problem.assertion_ids, dtype=np.str_),
        "has_truth": np.array(problem.has_truth),
    }
    if problem.has_truth:
        payload["truth"] = problem.truth
    np.savez_compressed(path, **payload)


def _optional_ids(archive, key: str) -> Optional[List[str]]:
    if key not in archive.files:
        return None
    return [str(value) for value in archive[key]]


def load_sparse_problem(path: PathLike) -> CsrProblem:
    """Read a sparse problem written by :func:`save_sparse_problem`."""
    with np.load(path, allow_pickle=False) as archive:
        try:
            return _read_archive(path, archive)
        except KeyError as error:
            # NpzFile names the absent member in its KeyError.
            raise DataError(f"{path}: incomplete archive: {error}") from error


def _read_archive(path: PathLike, archive) -> CsrProblem:
    from scipy import sparse

    magic = str(archive["magic"])
    if magic != _MAGIC:
        raise DataError(f"{path}: not a sparse-problem archive ({magic!r})")
    shape = tuple(int(v) for v in archive["shape"])

    def _matrix(prefix: str):
        indptr = archive[f"{prefix}_indptr"]
        indices = archive[f"{prefix}_indices"]
        data = np.ones(indices.shape[0], dtype=np.int8)
        return sparse.csr_matrix((data, indices, indptr), shape=shape)

    truth = archive["truth"] if bool(archive["has_truth"]) else None
    return CsrProblem(
        claims=_matrix("claims"),
        dependency=_matrix("dependency"),
        truth=truth,
        source_ids=_optional_ids(archive, "source_ids"),
        assertion_ids=_optional_ids(archive, "assertion_ids"),
    )


__all__ = ["load_sparse_problem", "save_sparse_problem"]
