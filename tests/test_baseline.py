import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from opinionchain.baseline import (
    DEFAULT_C_GRID,
    LogRegModel,
    LogRegPredictor,
    document_vectors,
    train_logreg,
)
from opinionchain.errors import InvalidInputError

from conftest import make_block


def one_segment(vec):
    """The rows of a document whose averaged vector is ``vec`` itself."""
    return np.asarray(vec, dtype=float)[None]


def predict(predictor, docs):
    """Each document's argmax label, the documents' rows as one block."""
    return predictor.posterior_blocks([make_block(docs)]).argmax(axis=1).tolist()


def predicted_labels(model, matrix):
    return predict(LogRegPredictor(model), [one_segment(row) for row in matrix])


def blob_dataset(n=60, separation=2.0, seed=0, dim=3):
    rng = np.random.default_rng(seed)
    half = n // 2
    neg = rng.standard_normal((half, dim)) - separation
    pos = rng.standard_normal((n - half, dim)) + separation
    x = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    return x, y


class TestTraining:
    def test_separable_two_points(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_logreg(x, y, c=100.0)
        assert predicted_labels(model, x) == [0, 1]

    def test_heavy_regularization_falls_back_to_majority(self):
        x, y = blob_dataset(n=30)
        y = np.concatenate([np.zeros(10), np.ones(20)])
        model = train_logreg(x, y, c=1e-10)
        assert np.linalg.norm(model.weights) < 1e-4
        assert predicted_labels(model, x) == [1] * 30
        # unpenalized intercept approaches the log-odds of the class balance
        assert model.intercept == pytest.approx(math.log(2.0), abs=1e-3)

    def test_gradient_at_optimum_vanishes(self):
        x, y = blob_dataset()
        model = train_logreg(x, y, c=1.0)
        # direct recomputation, independent of the optimizer internals
        from scipy.special import expit

        z = x @ model.weights + model.intercept
        residual = expit(z) - y
        grad_w = x.T @ residual + model.weights / model.c
        grad_b = residual.sum()
        assert np.max(np.abs(grad_w)) <= 1e-6
        assert abs(grad_b) <= 1e-6

    def test_restarts_reach_same_objective(self):
        x, y = blob_dataset()

        def objective(model):
            z = x @ model.weights + model.intercept
            return float(
                np.sum(np.logaddexp(0.0, z)) - y @ z + model.weights @ model.weights / (2 * model.c)
            )

        objectives = [objective(train_logreg(x, y, c=1.0, seed=s)) for s in (0, 1, 2)]
        assert max(objectives) - min(objectives) <= 1e-6

    def test_weight_norm_monotone_in_c(self):
        x, y = blob_dataset()
        norms = [
            float(np.linalg.norm(train_logreg(x, y, c=c).weights))
            for c in DEFAULT_C_GRID
        ]
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-8

    def test_each_fit_logs_its_outcome(self, caplog):
        x, y = blob_dataset()
        with caplog.at_level(logging.INFO, logger="opinionchain.baseline"):
            train_logreg(x, y, c=1.0, max_iterations=1)
            train_logreg(x, y, c=1.0)
        capped, converged = caplog.records
        assert capped.levelno == logging.WARNING
        assert capped.getMessage().startswith(
            "logreg training max_iterations after 1 iterations and "
        )
        assert converged.levelno == logging.INFO
        assert re.fullmatch(
            r"logreg training converged after \d+ iterations and \d+ evaluations, "
            r"objective -?\d+\.\d{6}",
            converged.getMessage(),
        )

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            train_logreg(np.ones((3, 2)), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            train_logreg(np.empty((0, 2)), np.empty(0))

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            train_logreg(np.ones((2, 1)), np.array([1, 2]))

    def test_nonpositive_c_rejected(self):
        x, y = blob_dataset(n=10)
        with pytest.raises(InvalidInputError):
            train_logreg(x, y, c=0.0)


class TestPrediction:
    def test_zero_model_is_label_zero_at_half(self):
        model = LogRegModel(weights=np.zeros(2), intercept=0.0, c=1.0)
        predictor = LogRegPredictor(model)
        seqs = [one_segment([3.0, -4.0]), [[3.0, -4.0], [1.0, 2.0]]]
        assert predictor.posterior_blocks([make_block(seqs)]).tolist() == [[0.5, 0.5]] * 2
        assert predict(predictor, seqs) == [0, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_predictor_is_argmax_of_posterior(self, margin):
        """P(label 1) is the sigmoid of the margin to a few ulps (scipy's
        ``expit`` is the reference), and P(label 0) is exactly 1 - it."""
        model = LogRegModel(weights=np.array([1.0]), intercept=0.0, c=1.0)
        seq = one_segment([margin])
        predictor = LogRegPredictor(model)
        [[rest, prob]] = predictor.posterior_blocks([make_block([seq])]).tolist()
        assert prob == pytest.approx(float(expit(margin)), rel=1e-15, abs=0)
        assert rest == 1.0 - prob
        assert predict(predictor, [seq]) == [1 if prob > 0.5 else 0]

    def test_log_three_margin_gives_three_quarters(self):
        model = LogRegModel(weights=np.array([math.log(3.0)]), intercept=0.0, c=1.0)
        predictor = LogRegPredictor(model)
        assert predict(predictor, [one_segment([1.0])]) == [1]
        prob = predictor.posterior_blocks([make_block([one_segment([1.0])])])[0, 1]
        assert prob == pytest.approx(0.75, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = LogRegModel(weights=np.zeros(2), intercept=0.0, c=1.0)
        predictor = LogRegPredictor(model)
        with pytest.raises(InvalidInputError, match="dimension 2"):
            predictor.posterior_blocks([make_block([one_segment(np.zeros(3))])])
        with pytest.raises(InvalidInputError, match="dimension 2"):
            blocks = [make_block([one_segment(np.zeros(n))]) for n in (2, 3)]
            predictor.posterior_blocks(blocks)

    def test_nonfinite_model_rejected(self):
        with pytest.raises(InvalidInputError):
            LogRegModel(weights=np.array([np.nan]), intercept=0.0, c=1.0)


class TestPosteriorBatch:
    def test_rows_bitwise_equal_one_by_one(self):
        rng = np.random.default_rng(3)
        model = LogRegModel(weights=rng.standard_normal(4), intercept=0.3, c=1.0)
        predictor = LogRegPredictor(model)
        seqs = [rng.standard_normal((n, 4)) for n in (5, 1, 2, 5, 1, 2, 2)]
        block = make_block(seqs)
        # an iterator of blocks, read once
        blocks = iter([block.subblock(range(4)), block.subblock([4, 5, 6])])
        batch = predictor.posterior_blocks(blocks)
        assert batch.shape == (len(seqs), 2)
        for row, seq in zip(batch, seqs):
            alone = make_block([seq])
            margin = model.weights @ document_vectors(alone)[0] + model.intercept
            assert row[1] == pytest.approx(float(expit(margin)), rel=1e-15, abs=0)
            assert row[0] == 1.0 - row[1]
            assert np.array_equal(row, predictor.posterior_blocks([alone])[0])
        assert predictor.posterior_blocks([]).shape == (0, 2)


class TestAggregation:
    def test_single_segment_is_identity(self):
        seq = make_block([[[1.0, 2.0, 3.0]]])
        np.testing.assert_array_equal(document_vectors(seq), [[1.0, 2.0, 3.0]])

    def test_two_segment_example(self):
        seq = make_block([[[0.0, 2.0], [2.0, 0.0]]])
        np.testing.assert_array_equal(document_vectors(seq), [[1.0, 1.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=6), st.integers(0, 10**6))
    def test_matches_direct_mean(self, length, dim, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((length, dim))
        manual = feats.sum(axis=0) / length
        np.testing.assert_allclose(document_vectors(make_block([feats]))[0], manual, atol=1e-12)
