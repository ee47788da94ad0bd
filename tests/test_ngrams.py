import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import ConfigurationError, InvalidInputError
from opinionchain.features.ngrams import NGramVocabulary, fit_bong, vectorize_bong
from opinionchain.features.pipeline import token_chunk

from oracles import extract_ngrams, reference_vocabulary


def fit(docs, max_order=3, min_df=1):
    """``fit_bong`` on ``docs`` (token lists), one unit per document."""
    return fit_bong(token_chunk(docs, stems=True), max_order=max_order, min_df=min_df)


class TestExtraction:
    """The per-occurrence reference that fit and vectorize are checked
    against."""

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
        vocab = fit(docs, max_order=1)
        assert vocab.idf[vocab.index["movi"]] == 0.0
        assert vocab.idf[vocab.index["good"]] == pytest.approx(np.log(3.0))

    def test_min_df_drops_rare_terms(self):
        docs = [["good", "movie"], ["bad", "movie"]]
        vocab = fit(docs, max_order=1, min_df=2)
        assert vocab.terms == ("movi",)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ConfigurationError, match="empty vocabulary after fitting"):
            fit([[], []])
        with pytest.raises(ConfigurationError, match="on zero documents"):
            fit([])

    def test_bad_order_and_min_df_rejected(self):
        with pytest.raises(InvalidInputError, match="max_order must be >= 1"):
            fit([["good"]], max_order=0)
        with pytest.raises(InvalidInputError, match="min_df must be >= 1"):
            fit([["good"]], min_df=0)
        for order in (0, -5):
            with pytest.raises(InvalidInputError, match="max_order must be >= 1"):
                NGramVocabulary(("good",), np.array([1]), 1, max_order=order)

    def test_terms_sorted_and_df_counted_once_per_doc(self):
        docs = [["good", "good", "plot"], ["plot"]]
        vocab = fit(docs, max_order=1)
        assert vocab.terms == tuple(sorted(vocab.terms))
        assert vocab.doc_freq[vocab.index["good"]] == 1  # two mentions, one doc
        assert vocab.doc_freq[vocab.index["plot"]] == 2


# tokens with "_" that join to one term (a_b + c, a + b_c and a, b, c
# all give a_b_c), case variants of one stem, and arbitrary short words
_FIT_TOKEN = st.sampled_from(
    ("a", "b", "c", "a_b", "b_c", "a_b_c", "_", "Movies", "movie", "MOVIE", "movi_a")
) | st.text(alphabet="abcXY_'", min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    docs=st.lists(st.lists(_FIT_TOKEN, max_size=6), min_size=1, max_size=6),
    order=st.integers(1, 3),
    min_df=st.integers(1, 3),
)
def test_fit_bitwise_equals_the_per_occurrence_reference(docs, order, min_df):
    """The vocabulary fitted from a chunk's stem ids is bitwise the
    reference's."""
    terms, doc_freq = reference_vocabulary(docs, order, min_df)
    tokens = token_chunk(docs, stems=True)
    if not terms:
        with pytest.raises(ConfigurationError, match="empty vocabulary"):
            fit_bong(tokens, max_order=order, min_df=min_df)
        return
    vocab = fit_bong(tokens, max_order=order, min_df=min_df)
    assert vocab.terms == terms and vocab.num_docs == len(docs)
    assert vocab.doc_freq.dtype == doc_freq.dtype
    assert vocab.doc_freq.tobytes() == doc_freq.tobytes()
    assert vocab.idf.tobytes() == np.log(len(docs) / doc_freq).tobytes()


def test_joined_duplicates_count_once_per_document():
    docs = [["a_b", "c"], ["a", "b_c"], ["a", "b", "c", "a_b_c"], ["c"]]
    vocab = fit(docs, max_order=3)
    assert vocab.doc_freq[vocab.index["a_b_c"]] == 3
    assert vocab.doc_freq[vocab.index["a_b"]] == 2


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
        vocab = fit(docs, max_order=1)
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
        vocab = fit([["good"]], max_order=1)
        rows, indices, values = entries([["unseen", "tokens"]], vocab)
        assert rows.size == indices.size == values.size == 0
        np.testing.assert_array_equal(dense(["unseen", "tokens"], vocab), np.zeros(1))

    def test_empty_unit_is_zero_vector(self):
        vocab = fit([["good"]], max_order=1)
        np.testing.assert_array_equal(dense([], vocab), np.zeros(1))

    def test_length_normalization_uses_token_count(self):
        vocab = fit([["good", "plot"], ["bad"]], max_order=1)
        short = dense(["good"], vocab)
        long = dense(["good", "filler", "filler", "filler"], vocab)
        idx = vocab.index["good"]
        assert long[idx] == pytest.approx(short[idx] / 4)

    def test_bigrams_and_trigrams_weighted_like_unigrams(self):
        docs = [["a", "b", "c"], ["a", "c", "b"]]
        vocab = fit(docs, max_order=3)
        vec = dense(["a", "b", "c"], vocab)
        assert vec[vocab.index["a_b_c"]] == pytest.approx(np.log(2.0) / 3)
        assert vec[vocab.index["a"]] == 0.0  # in both docs
