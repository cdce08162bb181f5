"""Tests for evaluation metrics.

The clipped n-gram scores are checked against an independent positional
enumeration oracle over short sequences from a small alphabet (exact
equality), plus hand-computed anchor values. evaluate's report is checked
byte for byte against the per-metric evaluate in oracles.py, which recounts
every sample for every metric.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    evaluate_per_metric,
    ngram_f1_by_enumeration,
    restoration_f_by_enumeration,
)
from pickgen.corpus import DialogueSample, LanguageConfig
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.metrics import (
    MetricError,
    bleu_n,
    count_ngrams,
    evaluate,
    exact_match,
    input_char_length,
    length_difference,
    picker_f1,
    pickup_ratio,
    restoration_f,
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
    """count_ngrams' restored Counts: (clipped matches, prediction n-grams,
    reference n-grams) over the n-grams holding a restored occurrence."""

    def test_budgeted_positions(self):
        tokens = ["what", "about", "the", "album"]
        _, restored = count_ngrams(tokens, ["the", "album"], ["what", "about"], 0, 1)
        assert restored == [(2, 2, 2)]

    def test_bigrams_touching_restored(self):
        tokens = ["what", "about", "the", "album"]
        _, restored = count_ngrams(
            tokens, ["x", "about", "the", "album"], ["what", "about", "x"], 0, 2
        )
        # bigrams (about, the) and (the, album) on both sides
        assert restored[1] == (2, 2, 2)

    def test_repeated_token_budget(self):
        # first "a" is carried over, the second exceeds the budget
        _, restored = count_ngrams(["a", "a", "b"], ["b", "a"], ["a"], 0, 1)
        assert restored == [(1, 2, 1)]

    def test_everything_restored_when_incomplete_empty(self):
        assert count_ngrams(["x", "y"], ["y"], [], 0, 1)[1] == [(1, 2, 1)]

    def test_nothing_restored_when_fully_covered(self):
        assert count_ngrams(["x", "y"], ["x"], ["y", "x"], 0, 1)[1] == [(0, 0, 0)]

    def test_plain_counts_every_order(self):
        plain, restored = count_ngrams(["a", "b", "a"], ["a", "b"], [], 3)
        assert plain == [(2, 3, 2), (1, 2, 1), (0, 1, 0)]
        assert restored == []


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


def _sample_of_length(length: int, sample_id: str) -> DialogueSample:
    """A sample whose input is `length` characters long; "apple" is in its
    context and reference, so its hard labels mark an important token."""
    context = "apple " + "x" * (length - 8)
    return DialogueSample((context,), "y", "y apple", sample_id)


class TestBleuByLength:
    def test_bucket_boundaries(self):
        gold = [_sample_of_length(n, str(n)) for n in (99, 100, 200, 201)]
        assert [input_char_length(s, ENGLISH) for s in gold] == [99, 100, 200, 201]
        predictions = {s.id: s.reference for s in gold}
        report = evaluate(predictions, gold, ENGLISH, bucket_bleu_n=1)
        assert report.bucket_counts == {"<100": 1, "100-200": 2, ">200": 1}
        assert report.bleu_by_length == {"<100": 100.0, "100-200": 100.0, ">200": 100.0}

    def test_empty_buckets_absent(self):
        gold = [_sample_of_length(20, "0")]
        report = evaluate({"0": "y apple"}, gold, ENGLISH)
        assert set(report.bleu_by_length) == set(report.bucket_counts) == {"<100"}

    def test_rows_in_order_of_first_sample(self):
        gold = [_sample_of_length(n, str(n)) for n in (250, 20, 150, 30)]
        predictions = {s.id: s.reference for s in gold}
        table = evaluate(predictions, gold, ENGLISH).to_table()
        rows = [line.split()[2] for line in table.splitlines() if line.startswith("bleu2 len")]
        assert rows == [">200", "<100", "100-200"]


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

    def test_repeated_gold_id_rejected(self):
        # one prediction must not score two gold samples
        gold = [DialogueSample(("the cat",), "it sat", "the cat sat", "a"),
                DialogueSample(("the dog",), "it ran", "the dog ran", "a")]
        with pytest.raises(MetricError, match="repeated gold sample id 'a'"):
            evaluate({"a": "the cat sat"}, gold, ENGLISH)

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


WORDS = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def eval_corpora(draw):
    """A gold corpus and its predictions over a four-word alphabet, so that
    tokens repeat and predictions share tokens with the incomplete
    utterance; a filler word of 0-240 characters in the context spreads the
    samples over the three length buckets. Predictions may be empty, and
    either side may be shorter than any n-gram order."""
    gold, predictions = [], {}
    for i in range(draw(st.integers(1, 6))):
        context = draw(st.lists(WORDS, min_size=1, max_size=5))
        filler = draw(st.integers(0, 240))
        if filler:
            context.append("z" * filler)
        incomplete = draw(st.lists(WORDS, min_size=1, max_size=4))
        reference = draw(st.lists(WORDS, min_size=1, max_size=7))
        sample_id = f"s{i}"
        gold.append(DialogueSample(
            (" ".join(context),), " ".join(incomplete), " ".join(reference), sample_id))
        predictions[sample_id] = " ".join(draw(st.lists(WORDS, max_size=7)))
    return gold, predictions


def _outcome(evaluate_fn, *args, **kwargs):
    """The report's JSON and table, or the MetricError's message."""
    try:
        report = evaluate_fn(*args, **kwargs)
    except MetricError as exc:
        return "error", str(exc)
    return report.to_json(), report.to_table()


class TestEvaluateMatchesPerMetricOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        corpus=eval_corpora(),
        language=st.sampled_from(["english", "chinese"]),
        labels=st.sampled_from([None, "hard", "soft"]),
        pickup_mode=st.sampled_from(["any", "all"]),
        bucket_bleu_n=st.integers(1, 6),
    )
    def test_report_bytes(self, corpus, language, labels, pickup_mode, bucket_bleu_n):
        gold, predictions = corpus
        cfg = LanguageConfig.for_language(language)
        labeled = None if labels is None else label_corpus(gold, labels, EmbeddingTable(), cfg)
        args = (predictions, gold, cfg)
        kwargs = dict(labeled=labeled, pickup_mode=pickup_mode, bucket_bleu_n=bucket_bleu_n)
        assert _outcome(evaluate, *args, **kwargs) == _outcome(
            evaluate_per_metric, *args, **kwargs)

    def test_real_predictions_score_as_the_oracle_does(self):
        gold = generate_corpus(30, seed=3)
        incompletes = [s.incomplete for s in gold]
        for predictions in (
            {s.id: s.reference for s in gold},
            {s.id: incompletes[i - 1] for i, s in enumerate(gold)},
        ):
            assert _outcome(evaluate, predictions, gold, ENGLISH, bucket_bleu_n=4) == (
                _outcome(evaluate_per_metric, predictions, gold, ENGLISH, bucket_bleu_n=4))


def _malformed_cases():
    gold = generate_corpus(3, seed=0)
    predictions = {s.id: s.reference for s in gold}
    no_ref = DialogueSample(("a b",), "b", None, "n")
    labeled = label_corpus(gold[:2], "hard", EmbeddingTable(), ENGLISH)
    unimportant = [DialogueSample(("a",), "b", "b", "u")]
    return {
        "empty gold": ({}, [], {}),
        "missing prediction": ({gold[0].id: "x"}, gold, {}),
        "missing reference": ({"n": "x"}, [no_ref], {}),
        "reference before a later missing prediction": (
            {"n": "x"}, [no_ref, *gold], {}),
        "missing labels": (predictions, gold, {"labeled": labeled}),
        "missing labels before a bad pickup mode": (
            predictions, gold, {"labeled": labeled, "pickup_mode": "some"}),
        "bad pickup mode": (predictions, gold, {"pickup_mode": "some"}),
        "bad pickup mode before a bad order": (
            predictions, gold, {"pickup_mode": "some", "bucket_bleu_n": 0}),
        "no important tokens": ({"u": "b"}, unimportant, {}),
        "no important tokens before a bad order": (
            {"u": "b"}, unimportant, {"bucket_bleu_n": 0}),
        "bad order": (predictions, gold, {"bucket_bleu_n": 0}),
    }


@pytest.mark.parametrize("case", sorted(_malformed_cases()))
def test_malformed_input_raises_as_the_oracle_does(case):
    predictions, gold, kwargs = _malformed_cases()[case]
    outcome = _outcome(evaluate, predictions, gold, ENGLISH, **kwargs)
    assert outcome[0] == "error"
    assert outcome == _outcome(evaluate_per_metric, predictions, gold, ENGLISH, **kwargs)
