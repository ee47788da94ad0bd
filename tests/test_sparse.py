"""The sparse bag-of-n-grams path against dense references.

A bong-bearing pipeline keeps a block's bong rows as their nonzero
entries, divided by the standardizer's std, plus one shared offset row,
and the model reads them through gathers and scatter-adds.  Every test
here rebuilds the same rows densely, (L, D) and with the (2w+1) D
context window materialized, and checks the sparse results against
plain matmuls on them.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from opinionchain.baseline import document_vectors
from opinionchain.corpus import polarity
from opinionchain.errors import InvalidInputError
from opinionchain.features import pipeline as feature_pipeline
from opinionchain.features.pipeline import PipelineConfig
from opinionchain.model import HcrfParameters, SparseRows
from opinionchain.synthetic import SyntheticSpec, generate_corpus
from opinionchain.training import (
    HcrfPredictor,
    TrainingConfig,
    group_by_length,
    objective_and_gradient,
    train,
)

from conftest import (
    columns,
    dense_features,
    featurize,
    fit,
    make_block,
    make_transcript,
    posteriors,
    value_and_gradient,
    windowed,
)

BLOCKS = ("bong", "pattern", "paralinguistic")


def training_corpus():
    """Six documents.  "the" is in every one, so its idf is 0 and its
    column is zero in every row; "great_the" spans two IPUs of d0, so it
    is in the vocabulary but in no IPU's row."""
    return [
        make_transcript("d0", ("the", "great", "the", "movie"), gaps=[100, 400, 100],
                        valences=(5.0,), markers=[("*laughing*", 150)]),
        make_transcript("d1", ("the", "awful", "plot", "uh", "awful"), gaps=[100, 100, 500, 100],
                        valences=(1.0,)),
        make_transcript("d2", ("the", "good", "acting"), valences=(4.0,)),
        make_transcript("d3", ("the", "bad", "movie", "bad"), gaps=[100, 600, 100],
                        valences=(2.0,)),
        make_transcript("d4", ("the", "fine", "plot", "great"), gaps=[400, 100, 100],
                        valences=(4.0,)),
        make_transcript("d5", ("the", "terrible", "terrible"), valences=(1.0,)),
    ]


def held_out():
    """Documents with an IPU whose n-grams are all out of vocabulary."""
    return [
        make_transcript("h0", ("zebra", "quagga", "great", "movie"), gaps=[100, 500, 100]),
        make_transcript("h1", ("okapi",)),
        make_transcript("h2", ("bad", "plot", "the", "tapir", "gnu"), gaps=[100, 100, 700, 100]),
    ]


def fitted(standardize):
    return fit(PipelineConfig(blocks=BLOCKS, standardize=standardize), columns(training_corpus()))


def dense_reference(pipeline, doc):
    """The document's standardized (L, D) rows, built densely: the raw
    rows of an unstandardized pipeline of the same vocabulary, then
    ``Standardizer.apply`` on all D columns."""
    raw_config = dataclasses.replace(pipeline.config, standardize=False)
    raw_pipeline = fit(raw_config, columns(training_corpus()))[0]
    assert raw_pipeline.vocabulary.terms == pipeline.vocabulary.terms
    rows = dense_features(featurize(raw_pipeline, doc))
    if pipeline.standardizer is None:
        return rows
    return pipeline.standardizer.apply(rows)


def random_theta(rng, num_hidden, dim, scale=0.5):
    return HcrfParameters(
        scale * rng.standard_normal((num_hidden, dim)),
        scale * rng.standard_normal((2, num_hidden)),
        scale * rng.standard_normal((2, num_hidden, num_hidden)),
    )


def test_the_fixture_has_the_awkward_cases():
    pipeline, block = fitted(standardize=True)
    width = len(pipeline.vocabulary)
    std = pipeline.standardizer.std[:width]
    assert std[pipeline.vocabulary.index["the"]] == 0.0
    assert std[pipeline.vocabulary.index["great_the"]] == 0.0
    x = featurize(pipeline, held_out()[0])
    assert 0 not in x.sparse.rows.tolist()  # "zebra quagga" has no entry
    # one offset row, shared by every block of the pipeline
    assert x.sparse.offset is block.sparse.offset
    assert block.subblock([2, 0]).sparse.offset is block.sparse.offset


@pytest.mark.parametrize("standardize", [True, False])
def test_rows_match_the_dense_standardized_rows(standardize):
    pipeline, _ = fitted(standardize)
    for doc in training_corpus() + held_out():
        x = featurize(pipeline, doc)
        assert x.features.shape[1] == pipeline.schema.dim - len(pipeline.vocabulary)
        np.testing.assert_allclose(
            dense_features(x), dense_reference(pipeline, doc), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("standardize", [True, False])
def test_posteriors_match_the_dense_path(window, standardize):
    pipeline, _ = fitted(standardize)
    docs = training_corpus() + held_out()
    rng = np.random.default_rng(10 * window + standardize)
    theta = random_theta(rng, 3, (2 * window + 1) * pipeline.schema.dim)
    predictor = HcrfPredictor(theta, TrainingConfig(context_window=window))
    got = predictor.posterior_blocks([featurize(pipeline, columns(docs))])
    dense = [windowed(dense_reference(pipeline, doc), window) for doc in docs]
    want = posteriors(dense, theta)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    assert np.abs(got - 0.5).max() > 0.01  # the weights do move the posteriors


@pytest.mark.parametrize("window", [0, 1])
def test_objective_matches_the_dense_path(window):
    pipeline, block = fitted(standardize=True)
    labels = [polarity(doc.valences[0]) for doc in training_corpus()]
    dim = pipeline.schema.dim
    theta = random_theta(np.random.default_rng(3 + window), 2, (2 * window + 1) * dim)
    sparse = group_by_length(block, labels, 2, window)
    dense = [windowed(dense_features(block, i), window) for i in range(len(labels))]
    reference = group_by_length(make_block(dense), labels, 2)
    value, grad = value_and_gradient(sparse, theta, 0.3)
    want_value, want_grad = value_and_gradient(reference, theta, 0.3)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-12)


def test_gradient_matches_central_finite_differences_at_window_one():
    pipeline, block = fitted(standardize=True)
    labels = [polarity(doc.valences[0]) for doc in training_corpus()]
    dim = pipeline.schema.dim
    groups = group_by_length(block, labels, 2, 1)
    theta = random_theta(np.random.default_rng(5), 2, 3 * dim, scale=0.3)
    _, grad = value_and_gradient(groups, theta, 0.2)
    vec, step = theta.as_vector(), 1e-5
    numeric = np.empty_like(vec)
    for k in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[k] += step
        minus[k] -= step
        numeric[k] = (
            objective_and_gradient(groups, plus, 2, 0.2)[0]
            - objective_and_gradient(groups, minus, 2, 0.2)[0]
        ) / (2 * step)
    np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-6)


@pytest.mark.parametrize("window", [0, 1])
def test_batch_rows_bitwise_equal_one_by_one(window, monkeypatch):
    """A corpus is scored a chunk of documents at a time, each chunk's
    sparse rows one block; each row is still bitwise what the document
    alone gives, and a block of another layout (no offset row) in the
    same call is scored on its own."""
    monkeypatch.setattr(feature_pipeline, "SCORING_CHUNK", 4)
    pipeline, _ = fitted(standardize=True)
    unstandardized, _ = fitted(standardize=False)
    docs = training_corpus() + held_out()
    blocks = [*pipeline.blocks(columns(docs))]
    assert len(blocks) == 3
    blocks.append(featurize(unstandardized, docs[0]))
    alone = [featurize(pipeline, doc) for doc in docs] + blocks[-1:]
    theta = random_theta(np.random.default_rng(7), 3, (2 * window + 1) * pipeline.schema.dim)
    predictor = HcrfPredictor(theta, TrainingConfig(context_window=window))
    batch = predictor.posterior_blocks(iter(blocks))
    assert batch.shape == (len(alone), 2)
    for row, x in zip(batch, alone):
        assert np.array_equal(row, predictor.posterior_blocks([x])[0])


def test_document_vector_is_the_mean_of_the_dense_rows():
    pipeline, block = fitted(standardize=True)
    for i, got in enumerate(document_vectors(block)):
        np.testing.assert_allclose(
            got, dense_features(block, i).mean(axis=0), rtol=0, atol=1e-14
        )


def test_document_vectors_add_up_each_sequence_alone():
    """A block's mean vectors are bitwise each sequence's own: its sparse
    columns summed by ``transpose_dot`` over its rows, over its length,
    then its dense mean."""
    pipeline, _ = fitted(standardize=True)
    words = ("great", "movie", "the", "awful", "plot", "bad", "good")
    docs = [make_transcript(f"n{n}", words[:n], gaps=[500] * (n - 1)) for n in (3, 5, 7)]
    block = featurize(pipeline, columns(held_out() + docs))
    for i, got in enumerate(document_vectors(block)):
        x = block.subblock([i])
        length = len(x.features)
        sparse = x.sparse.transpose_dot(np.ones((length, 1)))[0] / length
        assert np.array_equal(got, np.concatenate([sparse, x.features.mean(axis=0)]))
        assert np.array_equal(got, document_vectors(x)[0])


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"rows": [0, 2]}, "outside a"),
        ({"indices": [0, 4]}, "outside a"),
        ({"values": [1.0, np.inf]}, "non-finite"),
        ({"rows": [0]}, "equal-length"),
        ({"offset": np.zeros(3)}, "offset row"),
        ({"offset": np.array([0.0, np.nan, 0.0, 0.0])}, "offset row"),
    ],
)
def test_sparse_rows_validated(kwargs, match):
    args = {"rows": [0, 1], "indices": [0, 3], "values": [1.0, 2.0], "num_rows": 2, "width": 4}
    args.update(kwargs)
    with pytest.raises(InvalidInputError, match=match):
        SparseRows(**args)


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize(
    "fault, match",
    [
        ("index_past_width", "outside a"),
        ("negative_index", "outside a"),
        ("rows_out_of_order", "out of order"),
        ("nan_value", "non-finite sparse"),
        ("nan_dense_row", "non-finite feature"),
    ],
)
def test_transform_rejects_faulty_chunk_rows(monkeypatch, standardize, fault, match):
    """A chunk's rows are checked once, as one block, before its
    sequences are cut from it without checks of their own: bong entries
    that ``vectorize_bong`` returns out of range, out of order or not
    finite, or a dense row that is not finite, still make ``transform``
    raise: ``block``, and ``blocks``, which ``predict`` scores."""
    from opinionchain.features import pipeline as module

    pipeline, _ = fitted(standardize)
    vectorize, patterns = module.vectorize_bong, module.pattern_features

    def faulty_bong(tokens, vocab):
        rows, indices, values = (np.array(a) for a in vectorize(tokens, vocab))
        if fault == "index_past_width":
            indices[-1] = len(vocab)
        elif fault == "negative_index":
            indices[0] = -1
        elif fault == "rows_out_of_order":
            rows[[0, -1]] = rows[[-1, 0]]
        elif fault == "nan_value":
            values[0] = np.nan
        return rows, indices, values

    def faulty_patterns(tokens, tagger, resources):
        rows = patterns(tokens, tagger, resources)
        if fault == "nan_dense_row":
            rows[-1, 0] = np.nan
        return rows

    monkeypatch.setattr(module, "vectorize_bong", faulty_bong)
    monkeypatch.setattr(module, "pattern_features", faulty_patterns)
    with pytest.raises(InvalidInputError, match=match):
        featurize(pipeline, columns(held_out()))
    with pytest.raises(InvalidInputError, match=match):
        list(pipeline.blocks(columns(held_out())))


def test_transform_rejects_a_value_that_overflows_when_standardized(monkeypatch):
    """The chunk's bong values are checked after they are divided by the
    standardizer's std, so a finite value that overflows there is
    still rejected."""
    from opinionchain.features import pipeline as module

    pipeline, _ = fitted(True)
    vectorize = module.vectorize_bong
    divisor = pipeline.standardizer.divisor

    def huge_bong(tokens, vocab):
        rows, indices, values = (np.array(a) for a in vectorize(tokens, vocab))
        small = np.flatnonzero(divisor[indices] < 1)[0]  # the std of a TF-IDF column
        values[small] = np.finfo(np.float64).max
        return rows, indices, values

    monkeypatch.setattr(module, "vectorize_bong", huge_bong)
    with pytest.raises(InvalidInputError, match="non-finite sparse"), np.errstate(over="ignore"):
        featurize(pipeline, columns(held_out()))


def test_default_block_fit_and_train_stay_small():
    """A default-block fit_transform and train on 100 default-spec
    documents (D about 2.4k) peaked at 36.5 MB of traced allocations
    when the bong rows were built densely; the sparse path needs under a
    quarter of that (about 3.6 MB when this test was written)."""
    spec = dataclasses.replace(SyntheticSpec(), num_docs_per_label=50)
    corpus = generate_corpus(spec, seed=3)
    tracemalloc.start()
    try:
        pipeline, block = fit(PipelineConfig(), corpus)
        train(block, list(map(polarity, corpus.valences)), TrainingConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pipeline.schema.dim > 2000
    assert peak < 36.5e6 / 4
