import numpy as np
import pytest

from opinionchain.errors import ConfigurationError, InvalidInputError
from opinionchain.features.ngrams import (
    extract_ngrams,
    fit_bong,
    vectorize_bong,
)

from conftest import token_chunk


class TestExtraction:
    def test_great_movie(self):
        assert extract_ngrams(["great", "movie"]) == ["great", "movi", "great_movi"]

    def test_three_tokens_include_trigram(self):
        grams = extract_ngrams(["really", "great", "movie"])
        assert "realli_great_movi" in grams
        assert grams.count("realli") == 1

    def test_lowercased_before_stemming(self):
        assert extract_ngrams(["Movies"]) == ["movi"]

    def test_empty_token_list(self):
        assert extract_ngrams([]) == []

    def test_order_one_only(self):
        assert extract_ngrams(["great", "movie"], max_order=1) == ["great", "movi"]

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_ngrams(["a"], max_order=0)


class TestFit:
    def test_ubiquitous_term_gets_zero_idf(self):
        docs = [["movie", "good"], ["movie", "bad"], ["movie"]]
        vocab = fit_bong(docs, max_order=1)
        assert vocab.idf[vocab.index["movi"]] == 0.0
        assert vocab.idf[vocab.index["good"]] == pytest.approx(np.log(3.0))

    def test_min_df_drops_rare_terms(self):
        docs = [["good", "movie"], ["bad", "movie"]]
        vocab = fit_bong(docs, max_order=1, min_df=2)
        assert vocab.terms == ("movi",)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_bong([[], []])
        with pytest.raises(ConfigurationError):
            fit_bong([])

    def test_terms_sorted_and_df_counted_once_per_doc(self):
        docs = [["good", "good", "plot"], ["plot"]]
        vocab = fit_bong(docs, max_order=1)
        assert vocab.terms == tuple(sorted(vocab.terms))
        assert vocab.doc_freq[vocab.index["good"]] == 1  # two mentions, one doc
        assert vocab.doc_freq[vocab.index["plot"]] == 2


def entries(units, vocab):
    """``vectorize_bong``'s entries for ``units`` (token lists)."""
    return vectorize_bong(token_chunk(units, stems=True), vocab)


def dense_rows(units, vocab):
    """``vectorize_bong``'s entries as one dense row per unit."""
    rows, indices, values = entries(units, vocab)
    for unit in range(len(units)):
        mine = indices[rows == unit].tolist()
        assert mine == sorted(set(mine))
    out = np.zeros((len(units), len(vocab)))
    out[rows, indices] = values
    return out


def dense(tokens, vocab):
    """The dense TF-IDF vector of one unit."""
    return dense_rows([tokens], vocab)[0]


class TestVectorize:
    def test_hand_computed_three_doc_matrix(self):
        """tf * ln(N/df) / token_count, unigrams only."""
        docs = [["good", "movie"], ["bad", "movie"], ["good", "good", "plot"]]
        vocab = fit_bong(docs, max_order=1)
        assert vocab.terms == ("bad", "good", "movi", "plot")
        ln3, ln15 = np.log(3.0), np.log(1.5)
        want = np.array(
            [
                [0.0, ln15 / 2, ln15 / 2, 0.0],
                [ln3 / 2, 0.0, ln15 / 2, 0.0],
                [0.0, 2 * ln15 / 3, 0.0, ln3 / 3],
            ]
        )
        got = np.array([dense(doc, vocab) for doc in docs])
        np.testing.assert_allclose(got, want, atol=1e-12)
        # the three as the units of one document, entries row by row
        assert np.array_equal(dense_rows(docs, vocab), got)
        assert entries(docs, vocab)[0].tolist() == [0, 0, 1, 1, 2, 2]

    def test_out_of_vocabulary_ignored(self):
        vocab = fit_bong([["good"]], max_order=1)
        rows, indices, values = entries([["unseen", "tokens"]], vocab)
        assert rows.size == indices.size == values.size == 0
        np.testing.assert_array_equal(dense(["unseen", "tokens"], vocab), np.zeros(1))

    def test_empty_unit_is_zero_vector(self):
        vocab = fit_bong([["good"]], max_order=1)
        np.testing.assert_array_equal(dense([], vocab), np.zeros(1))

    def test_length_normalization_uses_token_count(self):
        vocab = fit_bong([["good", "plot"], ["bad"]], max_order=1)
        short = dense(["good"], vocab)
        long = dense(["good", "filler", "filler", "filler"], vocab)
        idx = vocab.index["good"]
        assert long[idx] == pytest.approx(short[idx] / 4)

    def test_bigrams_and_trigrams_weighted_like_unigrams(self):
        docs = [["a", "b", "c"], ["a", "c", "b"]]
        vocab = fit_bong(docs, max_order=3)
        vec = dense(["a", "b", "c"], vocab)
        assert vec[vocab.index["a_b_c"]] == pytest.approx(np.log(2.0) / 3)
        assert vec[vocab.index["a"]] == 0.0  # in both docs
