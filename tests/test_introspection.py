import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import ConfigurationError, InvalidInputError
from opinionchain.features.embeddings import EmbeddingTable
from opinionchain.features.pipeline import FeatureSchema
from opinionchain.introspection import (
    activation_words,
    build_state_report,
    state_character,
    top_features_per_state,
)
from opinionchain.model import HcrfParameters


def schema_with_embedding(n_bong=2, emb_dim=3, n_pattern=2) -> FeatureSchema:
    names = [f"bong:w{i}" for i in range(n_bong)]
    names += [f"emb:dim{i}" for i in range(emb_dim)] + ["emb:coverage"]
    names += [f"pat:p{i}" for i in range(n_pattern)]
    blocks = (
        ("bong", 0, n_bong),
        ("embedding", n_bong, emb_dim + 1),
        ("pattern", n_bong + emb_dim + 1, n_pattern),
    )
    return FeatureSchema(blocks=blocks, feature_names=tuple(names))


def bong_only_schema(n=4) -> FeatureSchema:
    return FeatureSchema(
        blocks=(("bong", 0, n),), feature_names=tuple(f"bong:w{i}" for i in range(n))
    )


def make_params(theta_obs, theta_state=None, theta_trans=None) -> HcrfParameters:
    theta_obs = np.asarray(theta_obs, dtype=np.float64)
    h, d = theta_obs.shape
    if theta_state is None:
        theta_state = np.zeros((2, h))
    if theta_trans is None:
        theta_trans = np.zeros((2, h, h))
    return HcrfParameters(
        theta_obs=theta_obs,
        theta_state=np.asarray(theta_state, dtype=np.float64),
        theta_trans=np.asarray(theta_trans, dtype=np.float64),
    )


class TestTopFeatures:
    def test_single_positive_entry(self):
        theta = make_params([[0.0, 0.0, 2.5, 0.0], [0.0, 0.0, 0.0, 0.0]])
        ranked = top_features_per_state(theta, bong_only_schema(), k=30)
        assert ranked[0] == [("bong:w2", 2.5)]
        assert ranked[1] == []

    def test_negative_weights_excluded(self):
        theta = make_params([[-1.0, 3.0, -0.5, 1.0]])
        ranked = top_features_per_state(theta, bong_only_schema(), k=30)
        assert ranked[0] == [("bong:w1", 3.0), ("bong:w3", 1.0)]

    def test_k_truncates(self):
        theta = make_params([[4.0, 3.0, 2.0, 1.0]])
        ranked = top_features_per_state(theta, bong_only_schema(), k=2)
        assert ranked[0] == [("bong:w0", 4.0), ("bong:w1", 3.0)]

    def test_tie_breaks_by_index(self):
        theta = make_params([[1.0, 2.0, 2.0, 1.0]])
        ranked = top_features_per_state(theta, bong_only_schema(), k=4)
        assert [n for n, _ in ranked[0]] == ["bong:w1", "bong:w2", "bong:w0", "bong:w3"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_independent_sort(self, seed):
        rng = np.random.default_rng(seed)
        row = rng.standard_normal(7)
        theta = make_params(row[None, :])
        schema = bong_only_schema(7)
        ranked = top_features_per_state(theta, schema, k=7)[0]
        expected = [
            (schema.feature_names[i], float(row[i]))
            for i in np.argsort(-row, kind="stable")
            if row[i] > 0
        ]
        assert ranked == expected

    def test_dimension_mismatch_rejected(self):
        theta = make_params([[1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            top_features_per_state(theta, bong_only_schema(4))

    def test_windowed_columns_named_by_neighbour_offset(self):
        """Under context window 1 the model reads the previous, the own
        and the next IPU's D columns, in that order."""
        schema = bong_only_schema(2).windowed(1)
        assert schema.feature_names == (
            "bong:w0@-1", "bong:w1@-1", "bong:w0@0", "bong:w1@0", "bong:w0@+1", "bong:w1@+1"
        )
        theta = make_params([[0.0, 0.0, 3.0, 0.0, 2.0, 0.0]])
        ranked = top_features_per_state(theta, schema)
        assert ranked[0] == [("bong:w0@0", 3.0), ("bong:w0@+1", 2.0)]
        assert bong_only_schema(2).windowed(0) == bong_only_schema(2)


def table_from(words: dict) -> EmbeddingTable:
    return EmbeddingTable(
        vectors={w: np.asarray(v, dtype=np.float64) for w, v in words.items()}, dim=3
    )


class TestActivationWords:
    def setup_method(self):
        self.schema = schema_with_embedding(n_bong=2, emb_dim=3, n_pattern=2)
        self.table = table_from(
            {
                "alpha": [1.0, 0.0, 0.0],
                "bravo": [0.0, 2.0, 0.0],
                "charlie": [0.0, 0.0, 3.0],
                "delta": [0.5, 0.5, 0.5],
            }
        )

    def params_with_block(self, block_rows):
        # dims: 2 bong + 3 embedding + 1 coverage + 2 pattern = 8
        theta_obs = np.zeros((len(block_rows), 8))
        theta_obs[:, 2:5] = np.asarray(block_rows)
        return make_params(theta_obs)

    def test_unit_vector_ranks_by_coordinate(self):
        theta = self.params_with_block([[0.0, 1.0, 0.0]])
        ranked = activation_words(
            theta, self.schema, 0, self.table, ["alpha", "bravo", "charlie", "delta"], k=4
        )
        assert [w for w, _ in ranked] == ["bravo", "delta", "alpha", "charlie"]
        assert ranked[0][1] == pytest.approx(2.0)

    def test_zero_block_is_lexicographic(self):
        theta = self.params_with_block([[0.0, 0.0, 0.0]])
        ranked = activation_words(
            theta, self.schema, 0, self.table, ["delta", "charlie", "alpha"], k=3
        )
        assert [w for w, _ in ranked] == ["alpha", "charlie", "delta"]
        assert all(score == 0.0 for _, score in ranked)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(3)
        theta = self.params_with_block([direction])
        vocab = ["alpha", "bravo", "charlie", "delta"]
        ranked = activation_words(theta, self.schema, 0, self.table, vocab, k=2)
        brute = sorted(
            ((w, float(self.table.lookup(w) @ direction)) for w in vocab),
            key=lambda kv: (-kv[1], kv[0]),
        )[:2]
        assert ranked == brute

    def test_oov_words_skipped(self):
        theta = self.params_with_block([[1.0, 0.0, 0.0]])
        ranked = activation_words(
            theta, self.schema, 0, self.table, ["alpha", "missing"], k=5
        )
        assert [w for w, _ in ranked] == ["alpha"]

    def test_case_folded_duplicates_collapse(self):
        theta = self.params_with_block([[1.0, 0.0, 0.0]])
        ranked = activation_words(
            theta, self.schema, 0, self.table, ["Alpha", "alpha"], k=5
        )
        assert [w for w, _ in ranked] == ["alpha"]

    def test_missing_embedding_block_rejected(self):
        theta = make_params([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ConfigurationError):
            activation_words(theta, bong_only_schema(), 0, self.table, ["alpha"])

    def test_state_out_of_range(self):
        theta = self.params_with_block([[1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            activation_words(theta, self.schema, 3, self.table, ["alpha"])

    @pytest.mark.parametrize("window", [1, 2])
    def test_windowed_model_reads_the_centre_copy(self, window):
        rng = np.random.default_rng(window)
        theta = self.params_with_block([rng.standard_normal(3)])
        vocab = ["alpha", "bravo", "charlie", "delta"]
        want = activation_words(theta, self.schema, 0, self.table, vocab, k=4)
        copies = [rng.standard_normal((1, 8)) for _ in range(2 * window + 1)]
        copies[window] = theta.theta_obs
        windowed = make_params(np.hstack(copies))
        schema = self.schema.windowed(window)
        assert activation_words(windowed, schema, 0, self.table, vocab, k=4) == want

    def test_invariant_under_other_blocks(self):
        rng = np.random.default_rng(0)
        theta = self.params_with_block([rng.standard_normal(3)])
        vocab = ["alpha", "bravo", "charlie"]
        base = activation_words(theta, self.schema, 0, self.table, vocab, k=3)
        shuffled = HcrfParameters(
            theta_obs=theta.theta_obs,
            theta_state=rng.standard_normal((2, 1)),
            theta_trans=rng.standard_normal((2, 1, 1)),
        )
        assert activation_words(shuffled, self.schema, 0, self.table, vocab, k=3) == base


class TestStateCharacter:
    def test_opposed_states_both_aligned(self):
        theta = make_params(np.zeros((2, 4)), theta_state=[[5.0, -5.0], [-5.0, 5.0]])
        character = state_character(theta)
        assert character.alignments == (0, 1)
        assert character.margin == pytest.approx(5.0)

    def test_all_zero_all_neutral(self):
        theta = make_params(np.zeros((3, 4)))
        character = state_character(theta)
        assert character.alignments == (None, None, None)
        assert character.margin == 0.0

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(7)
        theta = make_params(
            np.zeros((5, 2)), theta_state=rng.standard_normal((2, 5)),
            theta_trans=np.zeros((2, 5, 5)),
        )
        counts = [
            sum(a is not None for a in state_character(theta, margin=tau).alignments)
            for tau in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
        ]
        for a, b in zip(counts, counts[1:]):
            assert b <= a

    def test_transitions_reported_per_label(self):
        trans = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        theta = make_params(np.zeros((2, 3)), theta_trans=trans)
        character = state_character(theta)
        assert character.transitions[1] == ((4.0, 5.0), (6.0, 7.0))

    def test_three_label_model_rejected(self):
        theta = HcrfParameters(
            theta_obs=np.zeros((2, 2)),
            theta_state=np.zeros((3, 2)),
            theta_trans=np.zeros((3, 2, 2)),
        )
        with pytest.raises(InvalidInputError):
            state_character(theta)


class TestStateReport:
    def test_report_structure_and_rendering(self):
        schema = schema_with_embedding()
        rng = np.random.default_rng(4)
        theta = make_params(
            rng.standard_normal((3, 8)),
            theta_state=[[4.0, -4.0, 0.1], [-4.0, 4.0, -0.1]],
            theta_trans=rng.standard_normal((2, 3, 3)),
        )
        table = table_from({"alpha": [1.0, 0.0, 0.0], "bravo": [0.0, 1.0, 0.0]})
        report = build_state_report(
            theta, schema, k=3, embedding_table=table, corpus_vocab=["alpha", "bravo"]
        )
        assert report.states[0].alignment == 0
        assert report.states[1].alignment == 1
        assert report.states[2].alignment is None
        text = report.render_text()
        assert text.startswith("state-report/v1\n")
        assert "aligned:negative" in text
        assert "aligned:positive" in text
        assert "neutral" in text
        # names come from the schema, not raw indices
        assert "bong:w0" in text or "emb:" in text or "pat:" in text
        doc = report.to_jsonable()
        assert doc["format"] == "state-report/v1"
        assert len(doc["states"]) == 3

    def test_report_without_embeddings(self):
        theta = make_params(np.array([[1.0, 0.0], [0.0, 1.0]]))
        report = build_state_report(theta, bong_only_schema(2), k=2)
        assert all(s.top_words == () for s in report.states)
        assert "activation words" not in report.render_text()
