import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.corpus import read_corpus, save_corpus
from opinionchain.errors import InvalidInputError
from opinionchain.features.embeddings import load_embeddings
from opinionchain.synthetic import (
    SyntheticSpec,
    generate_corpus,
    generate_embeddings,
    order_insensitive_bayes_accuracy,
    vocabulary,
    write_embeddings,
)

from conftest import ipus, labels, same_columns, split_documents
from oracles import EnumerationBudgetError, enumerated_bayes_accuracy


def closed_form_bayes(spec: SyntheticSpec) -> float:
    """Independent binomial-sum route to the same optimum.

    Under label +, positives among the free segments ~ Binomial(free, q)
    and the decisive ones add f more; under label -, positives among the
    free segments ~ Binomial(free, 1 - q).
    """
    q = spec.match_prob
    f = spec.decisive_segments
    lengths = list(range(spec.min_segments, spec.max_segments + 1))
    acc = 0.0
    for length in lengths:
        free = length - f
        for n_pos in range(length + 1):
            p_pos = 0.0
            if f <= n_pos <= free + f:
                k = n_pos - f
                p_pos = math.comb(free, k) * q**k * (1 - q) ** (free - k)
            p_neg = 0.0
            if n_pos <= free:
                p_neg = (
                    math.comb(free, n_pos)
                    * (1 - q) ** n_pos
                    * q ** (free - n_pos)
                )
            acc += 0.5 * max(p_pos, p_neg) / len(lengths)
    return acc


class TestBayesOracle:
    def test_zero_noise_is_perfect(self):
        spec = SyntheticSpec(match_prob=1.0)
        assert order_insensitive_bayes_accuracy(spec) == pytest.approx(1.0, abs=1e-12)

    def test_identical_multisets_cap_at_chance(self):
        spec = SyntheticSpec(
            min_segments=2, max_segments=2, decisive_segments=1, match_prob=0.0
        )
        assert order_insensitive_bayes_accuracy(spec) == pytest.approx(0.5, abs=1e-12)

    def test_default_spec_value(self):
        # frozen from two independent computations of the same quantity
        acc = order_insensitive_bayes_accuracy(SyntheticSpec())
        assert acc == pytest.approx(0.66484375, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("f", [1, 2])
    def test_matches_closed_form(self, q, f):
        spec = SyntheticSpec(match_prob=q, decisive_segments=f)
        assert order_insensitive_bayes_accuracy(spec) == pytest.approx(
            closed_form_bayes(spec), abs=1e-12
        )

    def test_more_decisive_segments_help(self):
        accs = [
            order_insensitive_bayes_accuracy(SyntheticSpec(decisive_segments=f))
            for f in (1, 2, 3)
        ]
        assert accs[0] < accs[1] < accs[2]

    def test_budget_guard(self):
        """Only the enumeration oracle has a budget: the bound of a spec
        beyond it is a sum of binomial terms, bounded by the bound of
        the shortest documents, which show the decisive segments the
        least."""
        spec = SyntheticSpec(min_segments=4, max_segments=40)
        with pytest.raises(EnumerationBudgetError):
            enumerated_bayes_accuracy(spec)
        shortest = order_insensitive_bayes_accuracy(
            SyntheticSpec(min_segments=4, max_segments=4)
        )
        assert 0.5 < order_insensitive_bayes_accuracy(spec) < shortest

    def test_spec_beyond_float_range_is_an_input_error(self):
        spec = SyntheticSpec(min_segments=1100, max_segments=1100)
        with pytest.raises(InvalidInputError, match="1099 free segments"):
            order_insensitive_bayes_accuracy(spec)

    def test_default_spec_value_is_the_enumerated_one_bitwise(self):
        spec = SyntheticSpec()
        assert order_insensitive_bayes_accuracy(spec) == enumerated_bayes_accuracy(spec)
        assert order_insensitive_bayes_accuracy(spec) == 0.66484375

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(0, 6),
        st.integers(1, 5),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_agrees_with_the_enumeration(self, min_segments, extra, decisive, match_prob):
        spec = SyntheticSpec(
            min_segments=min_segments,
            max_segments=min_segments + extra,
            decisive_segments=min(decisive, min_segments),
            match_prob=match_prob,
        )
        assert order_insensitive_bayes_accuracy(spec) == pytest.approx(
            enumerated_bayes_accuracy(spec), abs=1e-12
        )

    def test_always_below_one_with_noise(self):
        acc = order_insensitive_bayes_accuracy(SyntheticSpec(match_prob=0.5))
        assert 0.5 < acc < 1.0


class TestSpecValidation:
    def test_decisive_beyond_min_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(min_segments=3, decisive_segments=4)

    def test_no_polar_words_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(num_polar_words=0)

    def test_bad_match_prob_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(match_prob=1.5)

    def test_gap_ordering_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(within_gap_ms=700, between_gap_ms=600)


class TestGenerator:
    def test_deterministic_for_seed(self):
        spec = SyntheticSpec(num_docs_per_label=5)
        assert same_columns(generate_corpus(spec, seed=7), generate_corpus(spec, seed=7))

    def test_seed_changes_output(self):
        spec = SyntheticSpec(num_docs_per_label=5)
        assert not same_columns(generate_corpus(spec, seed=7), generate_corpus(spec, seed=8))

    def test_doc_count_and_alternating_labels(self):
        spec = SyntheticSpec(num_docs_per_label=4)
        corpus = generate_corpus(spec, seed=0)
        assert len(corpus) == 8
        assert labels(corpus) == [1, 0] * 4
        assert corpus.valences[:2] == ((5.0,), (1.0,))
        assert corpus.doc_ids[:2] == ("syn0000", "syn0001")
        assert corpus.marker_texts == [] and corpus.marker_offsets.tolist() == [0] * 9

    def test_segment_structure_recovered_at_standard_thresholds(self):
        spec = SyntheticSpec(num_docs_per_label=10)
        corpus = generate_corpus(spec, seed=3)
        positive, negative, _ = vocabulary(spec)
        for threshold in (150, 300, 500):
            for doc in split_documents(corpus):
                units = ipus(doc, threshold)
                assert spec.min_segments <= len(units) <= spec.max_segments
                for tokens, _ in units:
                    n_pos = sum(t in positive for t in tokens)
                    n_neg = sum(t in negative for t in tokens)
                    # exactly one polarity per segment
                    assert (n_pos, n_neg) in ((1, 0), (0, 1))

    def test_final_segments_always_match_label(self):
        spec = SyntheticSpec(num_docs_per_label=20, decisive_segments=2)
        corpus = generate_corpus(spec, seed=11)
        positive, negative, _ = vocabulary(spec)
        for doc in split_documents(corpus):
            wanted = positive if labels(doc) == [1] else negative
            for tokens, _ in ipus(doc, 300)[-2:]:
                assert any(t in wanted for t in tokens)

    def test_free_segment_match_rate_near_q(self):
        spec = SyntheticSpec(num_docs_per_label=150, match_prob=0.3)
        corpus = generate_corpus(spec, seed=5)
        positive, _, _ = vocabulary(spec)
        matches = total = 0
        for doc in split_documents(corpus):
            for tokens, _ in ipus(doc, 300)[: -spec.decisive_segments]:
                is_pos = any(t in positive for t in tokens)
                matches += is_pos == (labels(doc) == [1])
                total += 1
        rate = matches / total
        assert abs(rate - 0.3) < 0.04

    def test_neutral_token_counts_in_range(self):
        spec = SyntheticSpec(num_docs_per_label=5, neutral_tokens_per_segment=(2, 2))
        corpus = generate_corpus(spec, seed=1)
        for doc in split_documents(corpus):
            for tokens, _ in ipus(doc, 300):
                neutral = [t for t in tokens if t.startswith("neu")]
                assert len(neutral) == 2

    def test_timing_is_well_formed(self, tmp_path):
        """Tokens of a document do not overlap, and the reader's checks
        accept the corpus, which reads back as it was generated."""
        corpus = generate_corpus(SyntheticSpec(num_docs_per_label=3), seed=2)
        for doc in split_documents(corpus):
            assert (doc.starts[1:] >= doc.ends[:-1]).all() and (doc.ends >= doc.starts).all()
        save_corpus(corpus, tmp_path / "c")
        assert same_columns(read_corpus(tmp_path / "c"), corpus)


class TestEmbeddings:
    def test_polar_words_separated_on_first_axis(self):
        spec = SyntheticSpec()
        table = generate_embeddings(spec, seed=0)
        positive, negative, neutral = vocabulary(spec)
        pos_mean = np.mean([table[w][0] for w in positive])
        neg_mean = np.mean([table[w][0] for w in negative])
        neu_mean = np.mean([table[w][0] for w in neutral])
        assert pos_mean > 0.5
        assert neg_mean < -0.5
        assert abs(neu_mean) < 0.5

    def test_round_trip_through_text_format(self, tmp_path):
        spec = SyntheticSpec(num_polar_words=2, num_neutral_words=3, embedding_dim=4)
        table = generate_embeddings(spec, seed=9)
        path = tmp_path / "vectors.txt"
        write_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.dim == 4
        for word, vec in table.items():
            np.testing.assert_array_equal(loaded.lookup(word), vec)

    def test_deterministic(self):
        spec = SyntheticSpec()
        a = generate_embeddings(spec, seed=4)
        b = generate_embeddings(spec, seed=4)
        assert set(a) == set(b)
        for word in a:
            np.testing.assert_array_equal(a[word], b[word])
