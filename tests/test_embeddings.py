import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import FileFormatError, InvalidInputError
from opinionchain.features.embeddings import EmbeddingTable, embed_units, load_embeddings

from conftest import resource_text
from oracles import embed_tokens

NO_STOPWORDS = frozenset()


def table(vectors, dim, lowercase=True):
    return EmbeddingTable(vectors=vectors, dim=dim, lowercase=lowercase)


def embed_one(tokens, t, stopwords):
    """The row ``embed_units`` gives one IPU of ``tokens``."""
    return embed_units([tokens], t, stopwords)[0]


class TestEmbedTokens:
    def test_two_unit_vectors_average(self):
        t = table({"up": [1.0, 0.0], "right": [0.0, 1.0]}, 2)
        out = embed_one(["up", "right"], t, NO_STOPWORDS)
        np.testing.assert_allclose(out, [0.5, 0.5, 1.0])

    def test_all_oov_gives_zero_vector_and_flag_zero(self):
        t = table({"word": [1.0, 2.0]}, 2)
        out = embed_one(["unseen", "missing"], t, NO_STOPWORDS)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_mixed_oov_means_over_covered_subset(self):
        rng = np.random.default_rng(0)
        vecs = {f"w{i}": rng.standard_normal(4) for i in range(6)}
        t = table(vecs, 4)
        tokens = ["w0", "zzz", "w3", "w5", "qqq"]
        covered = [vecs["w0"], vecs["w3"], vecs["w5"]]
        out = embed_one(tokens, t, NO_STOPWORDS)
        np.testing.assert_allclose(out[:4], np.sum(covered, axis=0) / 3)
        assert out[4] == 1.0

    def test_stopwords_excluded(self):
        t = table({"the": [9.0], "film": [1.0]}, 1)
        out = embed_one(["the", "film"], t, frozenset({"the"}))
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_case_folding_policy(self):
        t = table({"Great": [2.0]}, 1, lowercase=True)
        np.testing.assert_allclose(embed_one(["GREAT"], t, NO_STOPWORDS), [2.0, 1.0])
        t2 = table({"Great": [2.0]}, 1, lowercase=False)
        np.testing.assert_array_equal(embed_one(["GREAT"], t2, NO_STOPWORDS), [0.0, 0.0])

    def test_empty_token_list(self):
        t = table({"x": [1.0]}, 1)
        np.testing.assert_array_equal(embed_one([], t, NO_STOPWORDS), [0.0, 0.0])



# IPUs over a small vocabulary: covered words, a stopword, uncovered
# words and case variants, so that runs of each kind and empty IPUs occur
_WORDS = st.sampled_from(("w0", "w1", "W2", "w3", "w4", "w5", "the", "zzz", "QQQ", "W0"))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_WORDS, max_size=40), max_size=12),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_chunk_rows_bitwise_equal_each_ipu_alone(units, seed, lowercase):
    """Each row of ``embed_units`` is bitwise the per-IPU, per-token
    reference, whose ``np.mean`` adds the covered vectors along axis 0:
    empty IPUs and IPUs whose words are all stopwords or all uncovered
    included, and IPUs long enough that a pairwise or tree sum would
    round differently."""
    rng = np.random.default_rng(seed)
    vecs = {f"w{i}": rng.standard_normal(5) * 10.0 ** rng.integers(-3, 4) for i in range(6)}
    vecs["the"] = rng.standard_normal(5)
    t = table(vecs, 5, lowercase=lowercase)
    stopwords = frozenset({"the"})
    units = units + [[], ["the", "the"], ["zzz", "QQQ"]]
    got = embed_units(units, t, stopwords)
    assert got.shape == (len(units), 6)
    for row, tokens in zip(got, units):
        assert np.array_equal(row, embed_tokens(tokens, t, stopwords))
    assert not got[-3:].any()


def test_no_units_give_no_rows():
    t = table({"x": [1.0]}, 1)
    assert embed_units([], t, NO_STOPWORDS).shape == (0, 2)


class TestLoadEmbeddings:
    def test_plain_file(self, embedding_file):
        path, words = embedding_file
        t = load_embeddings(path)
        assert t.dim == 3
        assert len(t) == len(words)
        np.testing.assert_allclose(t.lookup("great"), words["great"])

    def test_count_dim_header_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nfoo 1.0 2.0\nbar 3.0 4.0\n")
        t = load_embeddings(path)
        assert t.dim == 2 and len(t) == 2

    def test_dimension_mismatch_reported(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("foo 1.0 2.0\nbar 3.0\nbaz x y\n")
        with pytest.raises(FileFormatError) as err:
            load_embeddings(path)
        assert len(err.value.problems) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("")
        with pytest.raises(FileFormatError):
            load_embeddings(path)

    def test_constructor_validates_shapes(self):
        with pytest.raises(InvalidInputError):
            EmbeddingTable(vectors={"a": np.zeros(3)}, dim=2)
        with pytest.raises(InvalidInputError):
            EmbeddingTable(vectors={"a": [np.nan]}, dim=1)


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(resource_text((" ", "  ", "\t")), st.booleans())
    def test_only_file_format_errors_escape(self, text, lowercase):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vectors.txt"
            path.write_text(text, encoding="utf-8")
            try:
                loaded = load_embeddings(path, lowercase=lowercase)
            except FileFormatError as exc:
                assert str(path) in str(exc)
            else:
                assert len(loaded) >= 1
