"""Tests for the text-embedding substrate."""

import numpy as np
import pytest

from repro.embedding import (
    HashedSemanticEmbedder,
    WordAveragingEmbedder,
    create_embedder,
)


@pytest.fixture(params=["sbert", "glove"])
def embedder(request):
    return create_embedder(request.param)


class TestEmbedderContract:
    def test_dimension_and_dtype(self, embedder):
        vector = embedder.embed("Total Sales")
        assert vector.shape == (embedder.dimension,)
        assert vector.dtype == np.float32

    def test_deterministic(self, embedder):
        left = embedder.embed("Quarterly Revenue")
        right = embedder.embed("Quarterly Revenue")
        assert np.allclose(left, right)

    def test_empty_string_is_zero(self, embedder):
        assert np.allclose(embedder.embed(""), 0.0)

    def test_unit_norm_for_nonempty(self, embedder):
        vector = embedder.embed("hello world")
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-5)

    def test_batch_matches_single(self, embedder):
        texts = ["alpha", "beta", "gamma"]
        batch = embedder.embed_batch(texts)
        assert batch.shape == (3, embedder.dimension)
        for row, text in zip(batch, texts):
            assert np.allclose(row, embedder.embed(text))

    def test_empty_batch(self, embedder):
        assert embedder.embed_batch([]).shape == (0, embedder.dimension)


class TestSemanticNeighbourhoods:
    def test_similar_strings_closer_than_dissimilar(self):
        embedder = HashedSemanticEmbedder()
        total_sales = embedder.embed("Total Sales")
        total_revenue = embedder.embed("Total Revenue")
        banana = embedder.embed("banana smoothie recipe")
        sim_related = embedder.cosine_similarity(total_sales, total_revenue)
        sim_unrelated = embedder.cosine_similarity(total_sales, banana)
        assert sim_related > sim_unrelated

    def test_date_like_strings_close(self):
        embedder = HashedSemanticEmbedder()
        sim = embedder.cosine_similarity(
            embedder.embed("2020-01-01"), embedder.embed("2020-01-02")
        )
        assert sim > 0.5

    def test_word_average_shares_words(self):
        embedder = WordAveragingEmbedder()
        sim_related = embedder.cosine_similarity(
            embedder.embed("North region"), embedder.embed("South region")
        )
        sim_unrelated = embedder.cosine_similarity(
            embedder.embed("North region"), embedder.embed("banana smoothie")
        )
        assert sim_related > sim_unrelated

    def test_glove_standin_cheaper_than_sbert_standin(self):
        assert WordAveragingEmbedder().dimension < HashedSemanticEmbedder().dimension


class TestFactory:
    def test_known_names(self):
        assert create_embedder("sentence-bert").name == "sentence-bert"
        assert create_embedder("glove").name == "glove"

    def test_dimension_override(self):
        assert create_embedder("sbert", 128).dimension == 128

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            create_embedder("word2vec")
