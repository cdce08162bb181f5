"""Tests for the synthetic corpus generator."""

import numpy as np
import pytest

from pickgen.corpus import LanguageConfig
from pickgen.labeling import (
    EmbeddingTable,
    extract_clue_tokens,
    label_corpus,
    marked_word_counts,
)
from pickgen.synth import BANDS, CITIES, TEMPLATES, VERBS, YEARS, _pick, generate_corpus

ENGLISH = LanguageConfig.for_language("english")


class TestGenerateCorpus:
    def test_deterministic(self):
        assert generate_corpus(20, seed=3) == generate_corpus(20, seed=3)

    def test_seed_changes_output(self):
        assert generate_corpus(20, seed=3) != generate_corpus(20, seed=4)

    def test_size_one(self):
        corpus = generate_corpus(1, seed=0)
        assert len(corpus) == 1
        assert corpus[0].id == "0"

    def test_ids_are_sequential(self):
        corpus = generate_corpus(5, seed=1)
        assert [s.id for s in corpus] == ["0", "1", "2", "3", "4"]

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_corpus(0, seed=0)

    def test_template_subset(self):
        corpus = generate_corpus(10, seed=0, templates=(1,))
        assert all(
            s.incomplete == "what album should i try first" for s in corpus
        )

    def test_empty_template_subset_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(1, seed=0, templates=())

    @pytest.mark.parametrize("templates", [(6,), (-1,), (0, 9)],
                             ids=["6", "-1", "0,9"])
    def test_template_index_outside_range_rejected(self, templates):
        # a negative index would silently pick a template from the end
        with pytest.raises(ValueError, match=r"indices in 0\.\.5"):
            generate_corpus(1, seed=0, templates=templates)

    def test_every_template_reachable(self):
        for index in range(len(TEMPLATES)):
            corpus = generate_corpus(3, seed=index, templates=(index,))
            assert len(corpus) == 3

    def test_pick_matches_the_filtered_list_rule(self):
        # _pick makes one draw bounded by the items left and steps past
        # exclude: the same item, and the same generator state, as drawing
        # from the list of items other than exclude
        def list_pick(rng, pool, exclude=None):
            choices = [item for item in pool if item != exclude]
            return choices[int(rng.integers(len(choices)))]

        for pool in (BANDS, YEARS, CITIES, VERBS):
            for exclude in (None, "absent", *pool):
                a = np.random.Generator(np.random.PCG64(len(pool)))
                b = np.random.Generator(np.random.PCG64(len(pool)))
                for _ in range(10):
                    assert _pick(a, pool, exclude) == list_pick(b, pool, exclude)
                    assert a.bit_generator.state == b.bit_generator.state

    def test_references_extend_the_incomplete(self):
        for sample in generate_corpus(50, seed=7):
            assert sample.reference is not None
            assert sample.reference != sample.incomplete


class TestLabelability:
    def test_every_sample_has_clue_tokens(self):
        for sample in generate_corpus(100, seed=5):
            clues = extract_clue_tokens(
                sample.reference, sample.incomplete, ENGLISH
            )
            assert clues.tokens, sample

    def test_hard_labels_mark_something_in_every_sample(self):
        corpus = generate_corpus(50, seed=9)
        labeled = label_corpus(corpus, "hard", EmbeddingTable(), ENGLISH)
        for item in labeled:
            assert any(
                tag != "O" for row in item.labels.tags for tag in row
            ), item.sample

    def test_density_is_sparse_but_nonzero(self):
        corpus = generate_corpus(200, seed=2)
        labeled = label_corpus(corpus, "hard", EmbeddingTable(), ENGLISH)
        marked, total = marked_word_counts(labeled)
        assert 0.05 < marked / total < 0.6
