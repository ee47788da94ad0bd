"""The chunk featurizer against the per-IPU reference in ``oracles.py``.

``FeaturePipeline.fit_transform`` and ``FittedFeaturePipeline.block``
featurize a chunk of documents at once from token-type ids, and
``blocks`` a corpus a chunk at a time; every document's dense rows and
bong entries must be bitwise what the per-IPU, per-occurrence reference
builds for it alone, whatever chunk it falls in.
"""

import dataclasses
import itertools
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opinionchain.features import pipeline as feature_pipeline
from opinionchain.features.pipeline import FeaturePipeline, PipelineConfig, SegmentedChunk
from opinionchain.features.standardize import fit_standardizer
from opinionchain.synthetic import SyntheticSpec, generate_corpus

from oracles import reference_rows, reference_vocabulary

_WORDS = (
    "great", "Great", "GREAT", "movie", "Movies", "not", "Never", "very", "slightly",
    "um", "plot", "acting", "zorp", "Boring", "really", "watching", "terribly",
)  # fmt: skip
# in-vocabulary, out-of-vocabulary and capitalized words, word-set members
_TOKEN = st.sampled_from(_WORDS) | st.text(alphabet="abcdeXY'-", min_size=1, max_size=5)
_EVENT = st.sampled_from(
    ("*chuckling*", "*Laughing*", "*shouting*", "*interpretive dance*", "*hum*")
)
# an IPU: its tokens after tokenizing (possibly none) and its markers
_IPU = st.tuples(st.lists(_TOKEN, max_size=6), st.lists(_EVENT, max_size=2))
_DOC = st.lists(_IPU, min_size=1, max_size=4)


def segmented(prefix, docs, config):
    """A chunk of documents, each given by its (tokens, markers) IPUs,
    named ``prefix`` and their index."""
    return SegmentedChunk(
        tuple(f"{prefix}{i}" for i in range(len(docs))),
        [list(tokens) for doc in docs for tokens, _ in doc],
        [tuple(events) for doc in docs for _, events in doc],
        [0, *itertools.accumulate(map(len, docs))],
        config.threshold_ms,
    )


def document_units(chunk):
    """Each document's (words, markers) of its IPUs."""
    bounds = chunk.bounds
    return [
        (chunk.units[lo:hi], chunk.events[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_against_reference(fitted, chunk, blocks):
    """Every sequence of ``blocks``, in order, bitwise the reference's rows
    of that document of ``chunk``, standardized as the fitted pipeline
    does."""
    std = fitted._fixed_standardizer
    sequences = [block.subblock([i]) for block in blocks for i in range(len(block.doc_ids))]
    assert [x.doc_ids[0] for x in sequences] == list(chunk.doc_ids)
    for (units, events), x in zip(document_units(chunk), sequences, strict=True):
        fixed, bong = reference_rows(units, events, fitted)
        assert bitwise(x.features, fixed if std is None else std.apply(fixed))
        rows, indices, values = bong
        if fitted._bong_divisor is not None:
            values = values / fitted._bong_divisor[indices]
        assert bitwise(x.sparse.rows, rows.astype(np.intp))
        assert bitwise(x.sparse.indices, indices.astype(np.intp))
        assert bitwise(x.sparse.values, values)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=60, deadline=None)
@given(
    train=st.lists(_DOC, min_size=1, max_size=5),
    held_out=st.lists(_DOC, max_size=7),
    order=st.integers(1, 3),
    standardize=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 256]),
)
def test_chunks_bitwise_equal_the_per_ipu_reference(train, held_out, order, standardize, chunk):
    """The training documents are one chunk, and the held-out ones are
    featurized ``chunk`` documents at a time."""
    assume(any(tokens for doc in train for tokens, _ in doc))  # some vocabulary
    config = PipelineConfig(bong_max_order=order, standardize=standardize)
    train_docs = segmented("t", train, config)
    held_docs = segmented("h", held_out, config)
    para_log = logging.getLogger("opinionchain.features.paralinguistic")
    got, want = _Messages(), _Messages()
    para_log.addHandler(got)
    try:
        fitted, block = FeaturePipeline(config).fit_transform(train_docs)
        blocks = [block] + [
            fitted.block(held_docs.subchunk(range(lo, min(lo + chunk, len(held_out)))))
            for lo in range(0, len(held_out), chunk)
        ]
        para_log.removeHandler(got)
        para_log.addHandler(want)
        raw = [
            reference_rows(units, events, fitted)
            for chunk_docs in (train_docs, held_docs)
            for units, events in document_units(chunk_docs)
        ]
    finally:
        para_log.removeHandler(got)
        para_log.removeHandler(want)
    # an unknown marker is logged once per occurrence, in document order
    assert got.messages == want.messages
    # the vocabulary counts runs across the IPU boundaries of a document
    terms, doc_freq = reference_vocabulary(
        [[t for tokens in units for t in tokens] for units, _ in document_units(train_docs)],
        order,
        1,
    )
    assert fitted.vocabulary.terms == terms
    assert bitwise(fitted.vocabulary.doc_freq, doc_freq)
    raw = raw[: len(train)]
    if standardize:
        sparse = (
            np.concatenate([bong[1] for _, bong in raw]),
            np.concatenate([bong[2] for _, bong in raw]),
            len(fitted.vocabulary),
        )
        expected = fit_standardizer(np.concatenate([fixed for fixed, _ in raw]), sparse)
        assert bitwise(fitted.standardizer.mean, expected.mean)
        assert bitwise(fitted.standardizer.std, expected.std)
    check_against_reference(fitted, train_docs, blocks[:1])
    check_against_reference(fitted, held_docs, blocks[1:])


@pytest.mark.parametrize("count", [1, 255, 256, 257])
def test_chunk_boundaries_change_nothing(count):
    """Documents on either side of a ``SCORING_CHUNK`` boundary, and the
    last chunk's lone document, featurize as they would alone."""
    assert feature_pipeline.SCORING_CHUNK == 256
    corpus = generate_corpus(dataclasses.replace(SyntheticSpec(), num_docs_per_label=129), seed=4)
    unfitted = FeaturePipeline(PipelineConfig())
    fitted, _ = unfitted.fit_transform(unfitted.segment(corpus.select(range(40))))
    docs = unfitted.segment(corpus.select(range(count)))
    check_against_reference(fitted, docs, list(fitted.blocks(corpus.select(range(count)))))
    for k in {0, count - 1}:  # a chunk of one
        alone = docs.subchunk([k])
        check_against_reference(fitted, alone, [fitted.block(alone)])
