"""Tests for serialisation round-trips."""

import json

import numpy as np
import pytest

from repro.core import EMExtEstimator, FactFindingResult
from repro.datasets import Tweet, simulate_dataset
from repro.io import (
    load_problem,
    load_result,
    load_tweets,
    save_problem,
    save_result,
    save_tweets,
)
from repro.utils.errors import DataError


class TestProblemRoundTrip:
    def test_with_truth(self, tiny_problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(tiny_problem, path)
        loaded = load_problem(path)
        np.testing.assert_array_equal(
            loaded.claims.values, tiny_problem.claims.values
        )
        np.testing.assert_array_equal(
            loaded.dependency.values, tiny_problem.dependency.values
        )
        np.testing.assert_array_equal(loaded.truth, tiny_problem.truth)

    def test_without_truth(self, tiny_problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(tiny_problem.without_truth(), path)
        assert not load_problem(path).has_truth

    def test_ids_preserved(self, tiny_problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(tiny_problem, path)
        loaded = load_problem(path)
        assert loaded.claims.source_ids == tiny_problem.claims.source_ids

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "other"}))
        with pytest.raises(DataError):
            load_problem(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "sensing_problem"}))
        with pytest.raises(DataError):
            load_problem(path)

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps([1, 2, 3]),
            json.dumps({"format_version": 1, "kind": "sensing_problem"}),
            json.dumps(
                {
                    "format_version": 1,
                    "kind": "sensing_problem",
                    "claims": [[1, 0], [1]],
                    "dependency": [[0, 0], [0, 0]],
                }
            ),
        ],
        ids=["invalid-json", "top-level-list", "no-claims", "ragged-claims"],
    )
    def test_malformed_file_is_a_data_error(self, tmp_path, text):
        path = tmp_path / "bogus.json"
        path.write_text(text)
        with pytest.raises(DataError, match="bogus.json"):
            load_problem(path)


class TestResultRoundTrip:
    def test_plain_result(self, tmp_path):
        result = FactFindingResult(
            algorithm="voting",
            scores=np.array([3.0, 1.0]),
            decisions=np.array([1, 0]),
        )
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.algorithm == "voting"
        np.testing.assert_array_equal(loaded.scores, result.scores)
        assert not hasattr(loaded, "parameters") or isinstance(
            loaded, FactFindingResult
        )

    def test_estimation_result(self, synthetic_dataset, tmp_path):
        result = EMExtEstimator(seed=0).fit(synthetic_dataset.problem.without_truth())
        path = tmp_path / "em.json"
        save_result(result, path)
        loaded = load_result(path)
        np.testing.assert_allclose(loaded.scores, result.scores)
        assert loaded.log_likelihood == pytest.approx(result.log_likelihood)
        assert loaded.converged == result.converged
        assert loaded.parameters.max_difference(result.parameters) < 1e-12

    def test_wrong_kind(self, tiny_problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(tiny_problem, path)
        with pytest.raises(DataError):
            load_result(path)

    def test_missing_algorithm(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "kind": "fact_finding_result",
                    "scores": [0.5],
                    "decisions": [1],
                }
            )
        )
        with pytest.raises(DataError, match="result.json.*'algorithm'"):
            load_result(path)


class TestTweetsRoundTrip:
    def test_round_trip(self, tmp_path):
        dataset = simulate_dataset("kirkuk", scale=0.02, seed=0)
        path = tmp_path / "tweets.jsonl"
        count = save_tweets(dataset.tweets, path)
        assert count == len(dataset.tweets)
        loaded = load_tweets(path)
        assert loaded == dataset.tweets

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        tweet = Tweet(tweet_id=0, user=1, time=0.5, text="x", assertion=0)
        save_tweets([tweet], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_tweets(path)) == 1

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(DataError):
            load_tweets(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text(json.dumps({"tweet_id": 0}) + "\n")
        with pytest.raises(DataError):
            load_tweets(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"tweet_id": "x", "user": 1, "time": 0.5, "text": "t", "assertion": 0},
            [1, 2, 3],
        ],
        ids=["non-integer-id", "list-line"],
    )
    def test_malformed_record_names_the_line(self, tmp_path, record):
        path = tmp_path / "tweets.jsonl"
        tweet = Tweet(tweet_id=0, user=1, time=0.5, text="x", assertion=0)
        save_tweets([tweet], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(DataError, match="tweets.jsonl:2:"):
            load_tweets(path)

    def test_deterministic_bytes(self, tmp_path):
        dataset = simulate_dataset("kirkuk", scale=0.02, seed=0)
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        save_tweets(dataset.tweets, path_a)
        save_tweets(dataset.tweets, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
