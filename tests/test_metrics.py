"""Tests for evaluation metrics.

The clipped n-gram scores are checked against an independent positional
enumeration oracle over short sequences from a small alphabet (exact
equality), plus hand-computed anchor values.
"""

import json
import math

import pytest
from hypothesis import given, strategies as st

from oracles import ngram_f1_by_enumeration, restoration_f_by_enumeration
from pickgen.corpus import DialogueSample, LanguageConfig
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.metrics import (
    MetricError,
    bleu_by_length,
    bleu_n,
    evaluate,
    exact_match,
    input_char_length,
    length_difference,
    ngrams,
    picker_f1,
    pickup_ratio,
    restoration_f,
    restored_ngrams,
    rouge_n,
)
from pickgen.synth import generate_corpus

ENGLISH = LanguageConfig.for_language("english")

short_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)


class TestRouge:
    def test_identical(self):
        assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 1) == 1.0
        assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 2) == 1.0

    def test_disjoint(self):
        assert rouge_n(["a"], ["b"], 1) == 0.0

    def test_partial(self):
        # overlap 2 of 3 on both sides
        assert rouge_n(["the", "cat", "sat"], ["the", "cat", "ran"], 1) == (
            pytest.approx(2 / 3)
        )

    def test_clipping(self):
        # pred repeats "a" three times but ref has one: overlap clips to 1,
        # precision 1/3, recall 1, f1 0.5
        assert rouge_n(["a", "a", "a"], ["a"], 1) == 0.5

    def test_no_ngrams_scores_zero(self):
        assert rouge_n(["a"], ["a"], 2) == 0.0
        assert rouge_n([], ["a"], 1) == 0.0
        assert rouge_n(["a"], [], 1) == 0.0

    def test_bad_order(self):
        with pytest.raises(MetricError):
            rouge_n(["a"], ["a"], 0)

    @given(pred=short_tokens, ref=short_tokens, n=st.integers(1, 3))
    def test_matches_positional_enumeration(self, pred, ref, n):
        assert rouge_n(pred, ref, n) == ngram_f1_by_enumeration(pred, ref, n)


class TestBleu:
    def test_hand_case(self):
        # unigram precision 3/4, bigram precision 2/3, no brevity penalty
        score = bleu_n([(list("abcd"), list("abce"))], 2)
        assert score == pytest.approx(0.7071, abs=1e-4)
        assert score == pytest.approx(math.sqrt(0.5))

    def test_perfect(self):
        assert bleu_n([(["x", "y"], ["x", "y"])], 2) == 1.0

    def test_zero_precision_zeroes_score(self):
        # no bigram match and no smoothing
        assert bleu_n([(["a", "b"], ["a", "c"])], 2) == 0.0

    def test_brevity_penalty(self):
        assert bleu_n([(["a"], ["a", "a"])], 1) == pytest.approx(math.exp(-1.0))

    def test_long_predictions_not_rewarded(self):
        assert bleu_n([(["a", "a"], ["a"])], 1) == 0.5

    def test_corpus_level_pooling(self):
        # pooled counts (2+0)/(2+1), not the mean of per-pair scores (0.5)
        pairs = [(["a", "a"], ["a", "a"]), (["b"], ["c"])]
        assert bleu_n(pairs, 1) == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        assert bleu_n([([], ["a"])], 1) == 0.0

    def test_errors(self):
        with pytest.raises(MetricError):
            bleu_n([], 1)
        with pytest.raises(MetricError):
            bleu_n([(["a"], ["a"])], 0)


class TestRestoredNgrams:
    def test_budgeted_positions(self):
        tokens = ["what", "about", "the", "album"]
        restored = restored_ngrams(tokens, ["what", "about"], 1)
        assert restored == {("the",): 1, ("album",): 1}

    def test_bigrams_touching_restored(self):
        tokens = ["what", "about", "the", "album"]
        restored = restored_ngrams(tokens, ["what", "about"], 2)
        assert restored == {("about", "the"): 1, ("the", "album"): 1}

    def test_repeated_token_budget(self):
        # first "a" is carried over, the second exceeds the budget
        restored = restored_ngrams(["a", "a", "b"], ["a"], 1)
        assert restored == {("a",): 1, ("b",): 1}

    def test_everything_restored_when_incomplete_empty(self):
        assert restored_ngrams(["x", "y"], [], 1) == {("x",): 1, ("y",): 1}

    def test_nothing_restored_when_fully_covered(self):
        assert restored_ngrams(["x", "y"], ["y", "x"], 1) == {}


class TestRestorationF:
    def test_perfect(self):
        ref = ["the", "new", "album"]
        assert restoration_f(ref, ref, ["the"], 1) == 1.0
        assert restoration_f(ref, ref, ["the"], 2) == 1.0

    def test_copy_of_incomplete_scores_zero(self):
        inc = ["what", "about", "it"]
        ref = ["what", "about", "the", "album"]
        assert restoration_f(inc, ref, inc, 1) == 0.0

    def test_both_empty_scores_one(self):
        inc = ["what", "about"]
        assert restoration_f(inc, inc, inc, 1) == 1.0

    def test_hand_value(self):
        # pred restores {the, album, x}, ref restores {the, album}:
        # precision 2/3, recall 1, f1 0.8
        score = restoration_f(["the", "album", "x"], ["the", "album"], [], 1)
        assert score == pytest.approx(0.8)

    @given(
        pred=short_tokens,
        ref=short_tokens,
        incomplete=short_tokens,
        n=st.integers(1, 3),
    )
    def test_matches_positional_enumeration(self, pred, ref, incomplete, n):
        assert restoration_f(pred, ref, incomplete, n) == (
            restoration_f_by_enumeration(pred, ref, incomplete, n)
        )


class TestExactMatch:
    def test_whitespace_collapse(self):
        assert exact_match("  a   b ", "a b") == 1

    def test_case_sensitive(self):
        assert exact_match("A", "a") == 0

    def test_mismatch(self):
        assert exact_match("a b", "a c") == 0


class TestPickupRatio:
    def test_any_mode(self):
        items = [
            ({"a"}, frozenset({"a", "b"})),
            ({"x"}, frozenset({"b"})),
            ({"b"}, frozenset({"b"})),
        ]
        assert pickup_ratio(items, "any") == pytest.approx(2 / 3)

    def test_all_mode(self):
        items = [
            ({"a"}, frozenset({"a", "b"})),
            ({"x"}, frozenset({"b"})),
            ({"b"}, frozenset({"b"})),
        ]
        assert pickup_ratio(items, "all") == pytest.approx(1 / 3)

    def test_empty_important_sets_excluded(self):
        items = [({"a"}, frozenset()), ({"a"}, frozenset({"a"}))]
        assert pickup_ratio(items, "any") == 1.0

    def test_all_excluded_is_an_error(self):
        with pytest.raises(MetricError):
            pickup_ratio([({"a"}, frozenset())], "any")

    def test_bad_mode(self):
        with pytest.raises(MetricError):
            pickup_ratio([({"a"}, frozenset({"a"}))], "some")


class TestLengthDifference:
    def test_mean_absolute_gap(self):
        assert length_difference([("ab", "abc"), ("a", "a")]) == 0.5

    def test_whitespace_normalized(self):
        assert length_difference([("a   b", "a b")]) == 0.0

    def test_empty_corpus(self):
        with pytest.raises(MetricError):
            length_difference([])


class TestBleuByLength:
    def test_bucket_boundaries(self):
        triples = [
            (["a"], ["a"], 99),
            (["b"], ["b"], 100),
            (["c"], ["c"], 200),
            (["d"], ["d"], 201),
        ]
        scores, counts = bleu_by_length(triples, 1)
        assert counts == {"<100": 1, "100-200": 2, ">200": 1}
        assert scores == {"<100": 1.0, "100-200": 1.0, ">200": 1.0}

    def test_empty_buckets_absent(self):
        scores, counts = bleu_by_length([(["a"], ["a"], 5)], 1)
        assert set(scores) == set(counts) == {"<100"}

    def test_default_buckets_are_valid(self):
        scores, counts = bleu_by_length([], 1)
        assert scores == {} and counts == {}


class TestInputCharLength:
    def test_counts_joined_characters(self):
        sample = DialogueSample(("hi there",), "you", None, "0")
        assert input_char_length(sample, ENGLISH) == len("hi there you")

    def test_whitespace_squashed(self):
        sample = DialogueSample(("hi   there",), "you", None, "0")
        assert input_char_length(sample, ENGLISH) == len("hi there you")


class TestPickerF1:
    def test_perfect(self):
        assert picker_f1([["B", "I", "O"]], [["B", "I", "O"]]) == 1.0

    def test_all_o_on_both_sides(self):
        assert picker_f1([["O", "O"]], [["O", "O"]]) == 1.0

    def test_positive_class_ignores_b_vs_i(self):
        assert picker_f1([["I"]], [["B"]]) == 1.0

    def test_hand_value(self):
        # tp=1, fp=0, fn=1
        assert picker_f1([["B", "O"]], [["B", "I"]]) == pytest.approx(2 / 3)

    def test_misaligned_rows(self):
        with pytest.raises(MetricError):
            picker_f1([["B"]], [["B", "O"]])


class TestEvaluate:
    def _corpus(self, size=6, seed=0):
        return generate_corpus(size, seed=seed)

    def test_perfect_predictions(self):
        gold = self._corpus()
        predictions = {s.id: s.reference for s in gold}
        report = evaluate(predictions, gold, ENGLISH)
        assert report.rouge1 == 100.0
        assert report.rouge2 == 100.0
        assert report.bleu1 == 100.0
        assert report.bleu2 == 100.0
        assert report.bleu4 == 100.0
        assert report.f1 == 100.0
        assert report.f2 == 100.0
        assert report.f3 == 100.0
        assert report.em == 100.0
        assert report.pickup_ratio == 100.0
        assert report.difference == 0.0
        assert all(v == 100.0 for v in report.bleu_by_length.values())

    def test_copying_the_incomplete_restores_nothing(self):
        gold = self._corpus()
        predictions = {s.id: s.incomplete for s in gold}
        report = evaluate(predictions, gold, ENGLISH)
        assert report.f1 == 0.0
        assert report.f2 == 0.0
        assert report.f3 == 0.0
        assert report.em == 0.0

    def test_bucket_counts_cover_corpus(self):
        gold = self._corpus()
        predictions = {s.id: s.reference for s in gold}
        report = evaluate(predictions, gold, ENGLISH)
        assert sum(report.bucket_counts.values()) == report.sample_count
        assert report.sample_count == len(gold)

    def test_missing_prediction(self):
        gold = self._corpus(size=2)
        with pytest.raises(MetricError, match="missing prediction"):
            evaluate({gold[0].id: "x"}, gold, ENGLISH)

    def test_missing_reference(self):
        gold = [DialogueSample(("a",), "b", None, "0")]
        with pytest.raises(MetricError, match="reference"):
            evaluate({"0": "x"}, gold, ENGLISH)

    def test_empty_gold(self):
        with pytest.raises(MetricError, match="empty"):
            evaluate({}, [], ENGLISH)

    def test_accepts_precomputed_labels(self):
        gold = self._corpus(size=4)
        labeled = label_corpus(gold, "hard", EmbeddingTable(), ENGLISH)
        predictions = {s.id: s.reference for s in gold}
        report = evaluate(predictions, gold, ENGLISH, labeled=labeled)
        assert report.pickup_ratio == 100.0

    def test_precomputed_labels_must_cover_gold(self):
        gold = self._corpus(size=3)
        labeled = label_corpus(gold[:2], "hard", EmbeddingTable(), ENGLISH)
        predictions = {s.id: s.reference for s in gold}
        with pytest.raises(MetricError, match="missing labels"):
            evaluate(predictions, gold, ENGLISH, labeled=labeled)

    def test_json_round_trip(self):
        gold = self._corpus(size=3)
        predictions = {s.id: s.reference for s in gold}
        report = evaluate(predictions, gold, ENGLISH)
        payload = json.loads(report.to_json())
        assert payload["em"] == 100.0
        assert payload["sample_count"] == 3

    def test_table_lists_every_metric(self):
        gold = self._corpus(size=3)
        predictions = {s.id: s.reference for s in gold}
        table = evaluate(predictions, gold, ENGLISH).to_table()
        for name in ("rouge1", "bleu4", "f3", "em", "pickup_ratio",
                     "difference", "samples"):
            assert name in table

    def test_deterministic(self):
        gold = self._corpus(size=4)
        predictions = {s.id: s.reference for s in gold}
        a = evaluate(predictions, gold, ENGLISH).to_json()
        b = evaluate(predictions, gold, ENGLISH).to_json()
        assert a == b
