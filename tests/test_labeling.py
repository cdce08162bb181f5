"""Tests for clue extraction, similarity scoring, and label creation.

The hard-label path has an independent oracle: a context word is marked
important iff its normalized form is a member of the clue set. label_sample
tests that membership without word vectors; because non-exact cosine scores
are capped strictly below 1.0, the score-matrix route (hard_labels of
score_matrix) gives the same tags, and is kept here as a second reference.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pickgen.corpus import DialogueSample, LanguageConfig, tokenize
from pickgen.labeling import (
    ClueTokenSet,
    EmbeddingTable,
    LabelError,
    LabeledSample,
    PickerLabels,
    extract_clue_tokens,
    hard_labels,
    important_token_set,
    label_corpus,
    label_sample,
    labeled_to_record,
    load_embeddings,
    load_labeled_corpus,
    marked_word_counts,
    normalize,
    save_labeled_corpus,
    score_matrix,
    soft_labels,
    to_bio,
    _normal_form,
)
from pickgen.synth import generate_corpus

ENGLISH = LanguageConfig.for_language("english")
CHINESE = LanguageConfig.for_language("chinese")

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


from oracles import oracle_hard_rows, similarity


class TestNormalize:
    def test_stopword_then_lemma(self):
        assert normalize(["the", "albums"], ENGLISH) == [(1, "album")]

    def test_chinese_plural_suffix_dropped(self):
        assert normalize(["他", "们"], CHINESE) == [(0, "他")]

    def test_all_stopwords(self):
        assert normalize(["the", "a", "to"], ENGLISH) == []

    def test_surface_indices_preserved(self):
        out = normalize(["when", "did", "paramore", "tour"], ENGLISH)
        assert out == [(2, "paramor"), (3, "tour")]

    def test_uppercase_stopword_dropped(self):
        assert normalize(["The", "Albums"], ENGLISH) == [(1, "album")]

    def test_memo_keeps_configs_apart(self):
        # normal forms are memoized per (token, stemming, stopwords): one
        # token under three configs gives three forms, whichever config
        # looks it up first
        configs = (
            LanguageConfig("english", frozenset({"albums"})),  # a stopword here
            LanguageConfig("english", frozenset()),
            LanguageConfig("other", frozenset()),  # does not stem
        )
        forms = ([], [(0, "album")], [(0, "albums")])
        for order in (range(3), reversed(range(3))):
            _normal_form.cache_clear()
            for k in order:
                assert normalize(["Albums"], configs[k]) == forms[k], configs[k]


class TestExtractClueTokens:
    def test_pipeline_example(self):
        clues = extract_clue_tokens(
            "when did paramore start to tour", "when did they start to tour",
            ENGLISH)
        assert clues.tokens == frozenset({"paramor"})
        assert clues.surface_forms["paramor"] == ("paramore",)

    def test_identical_strings_give_empty_set(self):
        clues = extract_clue_tokens("play the album", "play the album", ENGLISH)
        assert len(clues.tokens) == 0

    def test_ordered_is_sorted(self):
        clues = extract_clue_tokens("zulu alpha", "nothing", ENGLISH)
        assert clues.ordered() == tuple(sorted(clues.ordered()))

    def test_stopword_difference_ignored(self):
        clues = extract_clue_tokens("the tour", "tour", ENGLISH)
        assert len(clues.tokens) == 0


class TestSimilarity:
    def test_hand_value(self):
        v1 = np.array([1.0, 2.0, 2.0])
        v2 = np.array([2.0, 1.0, 2.0])
        assert similarity(v1, v2) == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_zero_vector_scores_zero(self):
        assert similarity(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_self_similarity_is_one(self):
        v = np.array([0.3, -0.7, 2.0])
        assert similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_is_minus_one(self):
        v = np.array([1.0, -2.0])
        assert similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


class TestScoreMatrix:
    def test_exact_match_is_exactly_one(self):
        emb = EmbeddingTable()
        clues = extract_clue_tokens("paramore", "nothing", ENGLISH)
        d = score_matrix(["paramor", "tour"], clues, emb)
        assert d.shape == (2, 1)
        assert d[0, 0] == 1.0
        assert d[1, 0] < 1.0

    def test_non_exact_never_reaches_one(self):
        # parallel vectors under different tokens: cosine computes exactly
        # 1.0 here (powers of two), so only the cap keeps it below 1.0
        emb = EmbeddingTable({"aa": np.array([2.0]), "bb": np.array([4.0])},
                             dim=1)
        clues = extract_clue_tokens("bb", "nothing", ENGLISH)
        d = score_matrix(["aa"], clues, emb)
        assert d[0, 0] < 1.0
        assert d[0, 0] == np.nextafter(1.0, 0.0)

    def test_equals_per_pair_similarity_bit_for_bit(self):
        # score_matrix takes each vector's norm once per matrix; every score
        # keeps the bits of the per-pair formula, zero vectors included
        rng = np.random.default_rng(0)
        vectors = {w: rng.standard_normal(4) * 10.0 ** int(rng.integers(-3, 4))
                   for w in ("aa", "bb", "cc", "dd")}
        vectors["zz"] = np.zeros(4)
        emb = EmbeddingTable(vectors, dim=4)
        clues = ClueTokenSet(frozenset({"bb", "cc", "zz", "qq"}), {})
        words = ["aa", "bb", "zz", "dd", "qq", "xx", "bb"]
        expected = np.array([
            [1.0 if word == clue else
             min(similarity(emb.vector(word), emb.vector(clue)), np.nextafter(1.0, 0.0))
             for clue in clues.ordered()]
            for word in words])
        assert score_matrix(words, clues, emb).tobytes() == expected.tobytes()

    def test_empty_clue_set_gives_zero_columns(self):
        emb = EmbeddingTable()
        clues = extract_clue_tokens("same", "same", ENGLISH)
        d = score_matrix(["a", "b", "c"], clues, emb)
        assert d.shape == (3, 0)


class TestSoftHardReduction:
    def test_soft_clamps_negative_to_zero(self):
        d = np.array([[-0.2], [0.6]])
        assert soft_labels(d).tolist() == [0.0, 0.6]

    def test_soft_takes_row_max(self):
        d = np.array([[0.3, 0.9], [0.2, 0.1]])
        assert soft_labels(d).tolist() == [0.9, 0.2]

    def test_soft_empty_columns(self):
        assert soft_labels(np.zeros((4, 0))).tolist() == [0.0] * 4

    def test_hard_requires_exact_one(self):
        d = np.array([[np.nextafter(1.0, 0.0)], [1.0], [0.2]])
        assert hard_labels(d).tolist() == [0, 1, 0]

    def test_hard_empty_columns(self):
        assert hard_labels(np.zeros((2, 0))).tolist() == [0, 0]

    @given(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                    min_size=1, max_size=6).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_soft_dominates_hard(self, rows):
        d = np.array(rows)
        assert (soft_labels(d) >= hard_labels(d)).all()


class TestToBio:
    @pytest.mark.parametrize(
        "bits,tags",
        [
            ([], []),
            ([0], ["O"]),
            ([1], ["B"]),
            ([1, 1], ["B", "I"]),
            ([1, 0, 1], ["B", "O", "B"]),
            ([0, 1, 1, 0, 1], ["O", "B", "I", "O", "B"]),
            ([1, 1, 1], ["B", "I", "I"]),
        ],
    )
    def test_runs(self, bits, tags):
        assert to_bio(bits) == tags


class TestLabelSample:
    def test_hard_pipeline_example(self):
        sample = DialogueSample(
            ("paramore formed in 2004",),
            "when did they start to tour",
            "when did paramore start to tour", "0")
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        assert labeled.labels.tags == (("B", "O", "O", "O"),)

    def test_soft_stem_match_scores_one(self):
        sample = DialogueSample(
            ("i listened to the albums",),
            "play it",
            "play the album", "0")
        labeled = label_sample(sample, "soft", EmbeddingTable(), ENGLISH)
        scores = labeled.labels.scores[0]
        # "albums" stems to "album", matching the clue exactly
        assert scores[4] == 1.0
        # stopwords and non-clue words score 0 / below 1
        assert scores[0] == 0.0 and scores[2] == 0.0 and scores[3] == 0.0

    def test_adjacent_hits_merge_into_one_span(self):
        sample = DialogueSample(
            ("alpha beta gamma",), "play it", "play alpha beta", "0")
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        assert labeled.labels.tags == (("B", "I", "O"),)

    def test_requires_reference(self):
        sample = DialogueSample(("a",), "u", None, "0")
        with pytest.raises(LabelError):
            label_sample(sample, "hard", EmbeddingTable(), ENGLISH)

    def test_rejects_defined_mode(self):
        sample = DialogueSample(("a",), "u", "r", "0")
        with pytest.raises(LabelError):
            label_sample(sample, "defined", EmbeddingTable(), ENGLISH)

    def test_rows_align_with_context(self):
        sample = DialogueSample(
            ("one two", "three"), "u", "one three", "0")
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        assert labeled.labels.per_utterance_lengths() == (2, 1)

    def test_hard_matches_set_membership_oracle_on_synth(self):
        corpus = generate_corpus(50, seed=7)
        labeled = label_corpus(corpus, "hard", EmbeddingTable(), ENGLISH)
        for item in labeled:
            assert item.labels.tags == oracle_hard_rows(item.sample, ENGLISH), \
                item.sample

    @given(st.lists(WORDS, min_size=1, max_size=5),
           st.lists(WORDS, min_size=1, max_size=4),
           st.lists(WORDS, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_hard_matches_oracle_on_random_words(self, ctx, inc, ref):
        sample = DialogueSample(
            (" ".join(ctx),), " ".join(inc), " ".join(ref), "0")
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        assert labeled.labels.tags == oracle_hard_rows(sample, ENGLISH)

    @given(st.lists(WORDS, min_size=1, max_size=6), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_reference_order_irrelevant(self, ref, rnd):
        sample = DialogueSample(("alpha beta gamma",), "play it",
                                " ".join(ref), "0")
        shuffled = list(ref)
        rnd.shuffle(shuffled)
        permuted = DialogueSample(("alpha beta gamma",), "play it",
                                  " ".join(shuffled), "0")
        emb = EmbeddingTable()
        a = label_sample(sample, "hard", emb, ENGLISH)
        b = label_sample(permuted, "hard", emb, ENGLISH)
        assert a.labels.tags == b.labels.tags

    def test_soft_tracks_hard_exactly_at_one(self):
        corpus = generate_corpus(20, seed=3)
        emb = EmbeddingTable()
        for sample in corpus:
            hard = label_sample(sample, "hard", emb, ENGLISH).labels.tags
            soft = label_sample(sample, "soft", emb, ENGLISH).labels.scores
            for tag_row, score_row in zip(hard, soft):
                for tag, score in zip(tag_row, score_row):
                    assert (score == 1.0) == (tag != "O")


class VectorlessTable(EmbeddingTable):
    def vector(self, token):
        raise AssertionError(f"read the word vector of {token!r}")


def corpus_digest(labeled) -> str:
    lines = (json.dumps(labeled_to_record(item), ensure_ascii=False, sort_keys=True)
             for item in labeled)
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


class TestHardLabelsBySetMembership:
    def test_hard_reads_no_word_vectors(self):
        corpus = generate_corpus(20, seed=3)
        labeled = label_corpus(corpus, "hard", VectorlessTable(), ENGLISH)
        expected = label_corpus(corpus, "hard", EmbeddingTable(), ENGLISH)
        assert [x.labels for x in labeled] == [x.labels for x in expected]
        with pytest.raises(AssertionError, match="word vector"):
            label_sample(corpus[0], "soft", VectorlessTable(), ENGLISH)

    def test_hard_equals_score_matrix_route_row_by_row(self):
        emb = EmbeddingTable()
        for sample in generate_corpus(240, seed=0):
            clues = extract_clue_tokens(sample.reference, sample.incomplete, ENGLISH)
            tags = label_sample(sample, "hard", emb, ENGLISH).labels.tags
            for utterance, row in zip(sample.context, tags, strict=True):
                words = tokenize(utterance, ENGLISH)
                surviving = normalize(words, ENGLISH)
                d = score_matrix([form for _, form in surviving], clues, emb)
                bits = [0] * len(words)
                for (idx, _), bit in zip(surviving, hard_labels(d)):
                    bits[idx] = int(bit)
                assert row == tuple(to_bio(bits)), sample

    @pytest.mark.parametrize("mode, digest", [
        ("hard", "01666bd365a553ce77b7dcc121449684ded17c2294f78903c42d0bc543e63bf7"),
        ("soft", "2c6b45d92daf1198ff6cc4ec36c4c10a4ad414c9031590f13a4f3d1709c9a56a"),
    ])
    def test_labeled_records_keep_their_bytes(self, mode, digest):
        # digests of the records written when hard labels still went
        # through score_matrix
        labeled = label_corpus(generate_corpus(240, seed=0), mode, EmbeddingTable(),
                               ENGLISH)
        assert corpus_digest(labeled) == digest


class TestPickerLabelsValidation:
    def test_i_after_o_rejected(self):
        with pytest.raises(LabelError):
            PickerLabels("hard", tags=(("O", "I"),))

    def test_i_after_b_allowed(self):
        PickerLabels("hard", tags=(("B", "I", "I"),))

    def test_soft_range_checked(self):
        with pytest.raises(LabelError):
            PickerLabels("soft", scores=((1.5,),))

    def test_mode_field_consistency(self):
        with pytest.raises(LabelError):
            PickerLabels("soft", tags=(("O",),))
        with pytest.raises(LabelError):
            PickerLabels("hard", scores=((0.5,),))

    def test_unknown_mode(self):
        with pytest.raises(LabelError):
            PickerLabels("fuzzy", tags=(("O",),))


class TestLabeledIO:
    def test_round_trip_hard(self, tmp_path):
        corpus = generate_corpus(5, seed=1)
        labeled = label_corpus(corpus, "hard", EmbeddingTable(), ENGLISH)
        path = tmp_path / "labeled.jsonl"
        save_labeled_corpus(labeled, path)
        back = load_labeled_corpus(path, ENGLISH)
        assert [b.labels for b in back] == [a.labels for a in labeled]
        assert [b.sample for b in back] == [a.sample for a in labeled]

    def test_round_trip_soft(self, tmp_path):
        corpus = generate_corpus(5, seed=2)
        labeled = label_corpus(corpus, "soft", EmbeddingTable(), ENGLISH)
        path = tmp_path / "labeled.jsonl"
        save_labeled_corpus(labeled, path)
        back = load_labeled_corpus(path, ENGLISH)
        assert [b.labels for b in back] == [a.labels for a in labeled]

    def test_save_is_byte_deterministic(self, tmp_path):
        labeled = label_corpus(generate_corpus(5, seed=1), "hard",
                               EmbeddingTable(), ENGLISH)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_labeled_corpus(labeled, p1)
        save_labeled_corpus(labeled, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_labels_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"context": ["a"], "utterance": "u", "reference": "r"}\n',
            encoding="utf-8")
        with pytest.raises(LabelError, match=r":1:"):
            load_labeled_corpus(path, ENGLISH)

    def test_misaligned_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"context": ["a b"], "utterance": "u", "reference": "r",'
            ' "labels": {"mode": "hard", "tags": [["O"]]}}\n',
            encoding="utf-8")
        with pytest.raises(LabelError, match="1 labels"):
            load_labeled_corpus(path, ENGLISH)

    def test_defined_mode_rejected_with_line(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"context": ["a"], "utterance": "u", "reference": "r",'
            ' "labels": {"mode": "hard", "tags": [["O"]]}}\n'
            '{"context": ["a"], "utterance": "u", "reference": "a u",'
            ' "labels": {"mode": "defined", "tags": [["B"]]}}\n',
            encoding="utf-8")
        with pytest.raises(LabelError, match=r"old\.jsonl:2: .*'defined'"):
            load_labeled_corpus(path, ENGLISH)

    def test_mixed_modes_rejected_with_line(self, tmp_path):
        # the first record's mode is the file's: train reads its mode from it
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"context": ["a"], "utterance": "u", "reference": "r",'
            ' "labels": {"mode": "hard", "tags": [["O"]]}}\n'
            '{"context": ["a"], "utterance": "u", "reference": "a u",'
            ' "labels": {"mode": "soft", "scores": [[1.0]]}}\n',
            encoding="utf-8")
        with pytest.raises(LabelError, match=r"mixed\.jsonl:2: soft labels after hard"):
            load_labeled_corpus(path, ENGLISH)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"context": ["a", "b"], "utterance": "u", "reference": "r",'
            ' "labels": {"mode": "hard", "tags": [["O"]]}}\n',
            encoding="utf-8")
        with pytest.raises(LabelError, match="label rows"):
            load_labeled_corpus(path, ENGLISH)


class TestEmbeddingTable:
    def test_hash_fallback_deterministic(self):
        emb = EmbeddingTable()
        assert np.array_equal(emb.vector("tour"), emb.vector("tour"))
        assert not np.array_equal(emb.vector("tour"), emb.vector("band"))

    def test_hash_vector_is_drawn_once(self):
        emb = EmbeddingTable()
        first = emb.vector("tour")
        assert emb.vector("tour") is first
        assert np.array_equal(first, EmbeddingTable().vector("tour"))
        assert emb == EmbeddingTable()  # drawn vectors are a cache, not state

    def test_seed_changes_hash_vectors(self):
        a = EmbeddingTable(seed=0).vector("tour")
        b = EmbeddingTable(seed=1).vector("tour")
        assert not np.array_equal(a, b)

    def test_known_vectors_win(self):
        vec = np.array([1.0, 2.0])
        emb = EmbeddingTable({"tour": vec}, dim=2)
        assert np.array_equal(emb.vector("tour"), vec)

    def test_load_embeddings(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nalpha 1 0 0\nbeta 0 1 0\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert emb.dim == 3
        assert emb.vector("alpha").tolist() == [1.0, 0.0, 0.0]

    def test_load_embeddings_splits_on_any_whitespace(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nalpha  1\t0 0 \nbeta 0 1 0\r\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert emb.vector("alpha").tolist() == [1.0, 0.0, 0.0]
        assert emb.vector("beta").tolist() == [0.0, 1.0, 0.0]

    def test_word2vec_trailing_spaces_give_the_same_labels(self, tmp_path):
        # the original word2vec tool writes "%lf " after every value
        corpus = generate_corpus(6, seed=0)
        words = sorted({form for s in corpus for u in (*s.context, s.reference)
                        for _, form in normalize(tokenize(u, ENGLISH), ENGLISH)})
        drawn = EmbeddingTable(dim=4, seed=3)
        rows = [[w, *(repr(float(x)) for x in drawn.vector(w))] for w in words]
        header = f"{len(words)} 4\n"
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        plain.write_text(header + "".join(" ".join(r) + "\n" for r in rows))
        spaced.write_text(header + "".join(" ".join(r) + " \n" for r in rows))
        tables = [load_embeddings(path) for path in (plain, spaced)]
        assert tables[0].vectors.keys() == tables[1].vectors.keys() == set(words)
        for w in words:
            assert tables[1].vector(w).tobytes() == tables[0].vector(w).tobytes()
        outputs = [tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"]
        for table, out in zip(tables, outputs):
            save_labeled_corpus(label_corpus(corpus, "soft", table, ENGLISH), out)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_load_embeddings_count_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 3\nalpha 1 0 0\n", encoding="utf-8")
        with pytest.raises(LabelError, match="declared 3"):
            load_embeddings(path)

    def test_load_embeddings_bad_row(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 3\nalpha 1 0\n", encoding="utf-8")
        with pytest.raises(LabelError, match=r":2:"):
            load_embeddings(path)

    @pytest.mark.parametrize("text,where,what", [
        ("1 3\na 1 2 x\n", 2, "'x'"),
        ("x 3\na 1 2 3\n", 1, "header"),
        ("2 1\na 1\na 2\n", 3, "'a' listed twice"),
        ("1 2\na 1 nan\n", 2, "non-finite"),
        ("2 0\na\nb\n", 1, "dimension must be >= 1"),
        (b"2 1\na 1\n\xff\xfe 2\n", 3, "not UTF-8"),
        ("2 1\na 1\n\nb 2\n", 3, "expected token plus 1 values"),
        ("1 1\n \t \n", 2, "expected token plus 1 values"),
    ], ids=["non-numeric value", "non-numeric header", "repeated token",
            "nan value", "zero dimension", "not utf-8", "blank line",
            "whitespace-only line"])
    def test_load_embeddings_names_file_and_line(self, tmp_path, text, where, what):
        path = tmp_path / "vec.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(LabelError, match=rf"vec\.txt:{where}: .*{what}"):
            load_embeddings(path)


class TestDensityAndImportantSet:
    def test_density_hard(self):
        sample = DialogueSample(("paramore formed in 2004",),
                                "when did they start to tour",
                                "when did paramore start to tour", "0")
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        assert marked_word_counts([labeled]) == (1, 4)

    def test_important_token_set(self):
        sample = DialogueSample(("paramore formed in 2004",),
                                "when did they start to tour",
                                "when did paramore start to tour", "0")
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        assert important_token_set(labeled, ENGLISH) == frozenset({"paramor"})

    def test_marked_rule_is_tags_other_than_o_or_scores_above_half(self):
        hard = PickerLabels("hard", tags=(("B", "I", "O"), ("O", "B")))
        soft = PickerLabels("soft", scores=((0.5, 0.51, 1.0), (0.0, 0.2)))
        assert hard.marked() == ((True, True, False), (False, True))
        assert soft.marked() == ((False, True, True), (False, False))
        sample = DialogueSample(("a b c", "d e"), "u", "r", "0")
        samples = [LabeledSample(sample, labels) for labels in (hard, soft)]
        assert marked_word_counts(samples) == (5, 10)
        assert important_token_set(samples[1], ENGLISH) == frozenset({"b", "c"})
