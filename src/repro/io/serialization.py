"""Serialisation of problems, results and datasets.

Formats:

* **problem JSON** — a :class:`SensingProblem` with its matrices,
  optional ground truth and ids, self-describing and diff-friendly;
* **result JSON** — a :class:`FactFindingResult` /
  :class:`EstimationResult` including fitted parameters;
* **tweets JSONL** — one tweet per line, the interchange format for the
  Apollo pipeline (and the natural dump of a simulated crawl).

All writers produce stable key order so outputs are reproducible
byte-for-byte given the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

import numpy as np

from repro.core.model import SourceParameters
from repro.data.coerce import coerce_problem
from repro.data.dense import DependencyMatrix, SensingProblem, SourceClaimMatrix
from repro.data.protocol import FORMAT_DENSE, Problem
from repro.core.result import EstimationResult, FactFindingResult
from repro.datasets.schema import Tweet
from repro.utils.errors import DataError

PathLike = Union[str, Path]

#: Format version written into every file for forward compatibility.
FORMAT_VERSION = 1


def _write_json(path: PathLike, payload: dict) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_json(path: PathLike) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise DataError(f"{path}: invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise DataError(
            f"{path}: expected a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return payload


def _field(path: PathLike, payload: dict, key: str):
    """``payload[key]``; a missing field is a :class:`DataError`."""
    try:
        return payload[key]
    except KeyError:
        raise DataError(f"{path}: missing field {key!r}") from None


def _array(path: PathLike, payload: dict, key: str, dtype) -> np.ndarray:
    """``payload[key]`` as an array; a missing or ragged field is a :class:`DataError`."""
    value = _field(path, payload, key)
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as error:
        raise DataError(f"{path}: malformed field {key!r}: {error}") from error


# ---------------------------------------------------------------------------
# SensingProblem
# ---------------------------------------------------------------------------

def save_problem(problem: Problem, path: PathLike) -> None:
    """Write a sensing problem (claims, dependencies, optional truth).

    Accepts either storage format; CSR input is densified under the
    memory budget (JSON is a dense interchange format — use
    :func:`repro.io.sparse_io.save_sparse_problem` for large problems).
    """
    problem = coerce_problem(problem, needs=FORMAT_DENSE)
    payload = {
        "kind": "sensing_problem",
        "claims": problem.claims.values.tolist(),
        "dependency": problem.dependency.values.tolist(),
        "source_ids": list(problem.source_ids),
        "assertion_ids": list(problem.assertion_ids),
        "truth": problem.truth.tolist() if problem.has_truth else None,
    }
    _write_json(path, payload)


def load_problem(path: PathLike) -> SensingProblem:
    """Read a sensing problem written by :func:`save_problem`."""
    payload = _read_json(path)
    if payload.get("kind") != "sensing_problem":
        raise DataError(f"{path}: not a sensing-problem file")
    claims = SourceClaimMatrix(
        _array(path, payload, "claims", np.int8),
        source_ids=payload.get("source_ids"),
        assertion_ids=payload.get("assertion_ids"),
    )
    dependency = DependencyMatrix(_array(path, payload, "dependency", np.int8))
    truth = payload.get("truth")
    return SensingProblem(
        claims=claims,
        dependency=dependency,
        truth=None if truth is None else _array(path, payload, "truth", np.int8),
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def save_result(result: FactFindingResult, path: PathLike) -> None:
    """Write a fact-finding result (scores, decisions, diagnostics)."""
    payload = {
        "kind": "fact_finding_result",
        "algorithm": result.algorithm,
        "scores": result.scores.tolist(),
        "decisions": result.decisions.tolist(),
    }
    if isinstance(result, EstimationResult):
        payload["estimation"] = {
            "log_likelihood": result.log_likelihood,
            "converged": result.converged,
            "n_iterations": result.n_iterations,
            "parameters": (
                result.parameters.to_dict() if result.parameters else None
            ),
        }
    _write_json(path, payload)


def load_result(path: PathLike) -> FactFindingResult:
    """Read a result written by :func:`save_result`."""
    payload = _read_json(path)
    if payload.get("kind") != "fact_finding_result":
        raise DataError(f"{path}: not a fact-finding-result file")
    base = {
        "algorithm": _field(path, payload, "algorithm"),
        "scores": _array(path, payload, "scores", np.float64),
        "decisions": _array(path, payload, "decisions", np.int8),
    }
    estimation = payload.get("estimation")
    if estimation is None:
        return FactFindingResult(**base)
    parameters = estimation.get("parameters")
    return EstimationResult(
        **base,
        parameters=(
            SourceParameters.from_dict(parameters) if parameters else None
        ),
        log_likelihood=_field(path, estimation, "log_likelihood"),
        converged=_field(path, estimation, "converged"),
        n_iterations=_field(path, estimation, "n_iterations"),
    )


# ---------------------------------------------------------------------------
# Tweets (JSONL)
# ---------------------------------------------------------------------------

def save_tweets(tweets: Iterable[Tweet], path: PathLike) -> int:
    """Write tweets as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            record = {
                "tweet_id": tweet.tweet_id,
                "user": tweet.user,
                "time": tweet.time,
                "text": tweet.text,
                "assertion": tweet.assertion,
                "retweet_of": tweet.retweet_of,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def load_tweets(path: PathLike) -> List[Tweet]:
    """Read tweets from a JSONL file written by :func:`save_tweets`."""
    tweets: List[Tweet] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise DataError(f"{path}:{line_number}: invalid JSON") from error
            if not isinstance(record, dict):
                raise DataError(
                    f"{path}:{line_number}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            try:
                tweets.append(
                    Tweet(
                        tweet_id=int(record["tweet_id"]),
                        user=int(record["user"]),
                        time=float(record["time"]),
                        text=str(record["text"]),
                        assertion=int(record["assertion"]),
                        retweet_of=(
                            None
                            if record.get("retweet_of") is None
                            else int(record["retweet_of"])
                        ),
                    )
                )
            except KeyError as error:
                raise DataError(
                    f"{path}:{line_number}: missing field {error}"
                ) from error
            except (TypeError, ValueError) as error:
                raise DataError(
                    f"{path}:{line_number}: malformed field: {error}"
                ) from error
    return tweets


__all__ = [
    "FORMAT_VERSION",
    "load_problem",
    "load_result",
    "load_tweets",
    "save_problem",
    "save_result",
    "save_tweets",
]
