import numpy as np
import pytest
from hypothesis import strategies as st

from opinionchain.corpus import CorpusColumns, polarity
from opinionchain.features.pipeline import FeaturePipeline, SegmentedChunk, token_chunk
from opinionchain.features.segmentation import ipu_indices, segment_into_ipus
from opinionchain.model import (
    ChainLayout,
    HcrfParameters,
    KernelPlan,
    SequenceBlock,
    SparseRows,
    backward,
    forward,
    node_scores,
)
from opinionchain.training import HcrfPredictor, TrainingConfig, objective_and_gradient


def make_transcript(
    doc_id="doc",
    words=("hello", "world"),
    gaps=None,
    valences=None,
    markers=(),
    word_ms=200,
    start_ms=0,
):
    """One document, as ``CorpusColumns``, with the given inter-token
    silent gaps (ms).

    ``gaps[i]`` is the silence between word i and word i+1; default 100.
    ``markers`` is a list of (text, time_ms).
    """
    words = list(words)
    gaps = list(gaps) if gaps is not None else [100] * (len(words) - 1)
    assert len(gaps) == max(0, len(words) - 1)
    starts = []
    t = start_ms
    for i, word in enumerate(words):
        starts.append(t)
        t += word_ms
        if i < len(gaps):
            t += gaps[i]
    starts = np.array(starts, dtype=np.int64)
    return CorpusColumns(
        (doc_id,),
        (valences,),
        words,
        starts,
        starts + word_ms,
        np.array([0, len(words)], dtype=np.intp),
        [text for text, _ in markers],
        [time for _, time in markers],
        np.array([0, len(markers)], dtype=np.intp),
    )


def columns(docs):
    """The corpora ``docs`` (``CorpusColumns``, one document each from
    ``make_transcript`` or more) joined into one, in their order."""
    docs = list(docs)

    def offsets(name):
        return np.cumsum([0, *(n for doc in docs for n in np.diff(getattr(doc, name)))])

    return CorpusColumns(
        tuple(doc_id for doc in docs for doc_id in doc.doc_ids),
        tuple(valences for doc in docs for valences in doc.valences),
        [text for doc in docs for text in doc.texts],
        np.concatenate([doc.starts for doc in docs] or [np.empty(0, np.int64)]),
        np.concatenate([doc.ends for doc in docs] or [np.empty(0, np.int64)]),
        offsets("offsets"),
        [text for doc in docs for text in doc.marker_texts],
        [time for doc in docs for time in doc.marker_times],
        offsets("marker_offsets"),
    )


def split_documents(corpus):
    """Each document of ``corpus`` as columns of its own."""
    return [corpus.select([i]) for i in range(len(corpus))]


def same_columns(a, b):
    """Whether two corpora hold the same documents: ids, valences, token
    texts and times, and markers, each document's in the same order."""
    return (
        (a.doc_ids, a.valences, list(a.texts)) == (b.doc_ids, b.valences, list(b.texts))
        and (list(a.marker_texts), list(a.marker_times))
        == (list(b.marker_texts), list(b.marker_times))
        and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("starts", "ends", "offsets", "marker_offsets")
        )
    )


def ipus(doc, threshold_ms):
    """The (texts, markers) of each IPU of the one-document corpus
    ``doc``, from the bounds and marker IPUs that ``segment_into_ipus``
    gives for it."""
    cuts = segment_into_ipus(doc, threshold_ms)
    bounds = cuts.bounds.tolist()
    assert cuts.docs.tolist() == [0, len(bounds) - 1]
    assert len(cuts.marker_ipus) == len(doc.marker_texts)
    attached = [[] for _ in bounds[1:]]
    for text, ipu in zip(doc.marker_texts, cuts.marker_ipus.tolist()):
        if ipu >= 0:
            attached[ipu].append(text)
    return [
        (tuple(doc.texts[lo:hi]), tuple(markers))
        for lo, hi, markers in zip(bounds, bounds[1:], attached)
    ]


def segmented_chunk(doc_ids, units, events, bounds, threshold_ms):
    """The ``SegmentedChunk`` of documents ``doc_ids`` cut at
    ``threshold_ms``: IPU u's words ``units[u]`` and markers
    ``events[u]``, and document i's IPUs ``bounds[i]:bounds[i + 1]``."""
    return SegmentedChunk(
        tuple(doc_ids),
        token_chunk(units),
        token_chunk(events),
        np.asarray(bounds, dtype=np.intp),
        threshold_ms,
    )


def unit_strings(column):
    """The strings of each unit of ``column`` (a ``TokenChunk``), as one
    list per unit."""
    strings = [column.types[k] for k in column.ids.tolist()]
    at = column.offsets.tolist()
    return [strings[lo:hi] for lo, hi in zip(at, at[1:])]


def ipu_index_per_token(doc, threshold_ms):
    """The IPU index of each token of the one-document corpus ``doc``."""
    return ipu_indices(doc, threshold_ms).tolist()


# fields of the fuzzed lines of a resource file: words, header names,
# numbers, and values that are not finite, not decimal or empty
_FIELD = st.sampled_from(
    ("word", "pos", "neg", "neu", "value", "good", "Good", "1", "2", "0.5", "-3", "1_0",
     "nan", "inf", "1e999", "0x1", "x", "")
)  # fmt: skip


@st.composite
def resource_text(draw, separators):
    """A few lines of fields joined by one of ``separators`` each."""
    lines = [
        draw(st.sampled_from(separators)).join(draw(st.lists(_FIELD, max_size=5)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def zero_params(num_hidden_states, num_labels, feature_dim):
    """All-zero HCRF parameters of the given shape."""
    h, y, d = num_hidden_states, num_labels, feature_dim
    return HcrfParameters(np.zeros((h, d)), np.zeros((y, h)), np.zeros((y, h, h)))


def make_block(docs, doc_ids=None):
    """Hand-made documents as one ``SequenceBlock``: ``docs`` holds each
    document's rows, an (L, D) array, or a ``(features, sparse)`` pair of
    its dense (L, D') rows and its (L, V) ``SparseRows``, all of one
    width and offset row.  The ids default to d0, d1, ...; a one-document
    block is ``make_block([rows])``."""
    parts = [doc if isinstance(doc, tuple) else (doc, None) for doc in docs]
    features = [np.asarray(f, dtype=np.float64) for f, _ in parts]
    bounds = np.cumsum([0] + [len(f) for f in features])
    sparse = None
    if parts[0][1] is not None:
        rows = [part.rows + start for (_, part), start in zip(parts, bounds.tolist())]
        first = parts[0][1]
        sparse = SparseRows(
            np.concatenate(rows),
            np.concatenate([part.indices for _, part in parts]),
            np.concatenate([part.values for _, part in parts]),
            int(bounds[-1]),
            first.width,
            first.offset,
        )
    if doc_ids is None:
        doc_ids = [f"d{i}" for i in range(len(parts))]
    return SequenceBlock(tuple(doc_ids), np.concatenate(features), sparse, bounds)


def fit(config, corpus):
    """A pipeline of ``config`` fit on the columns ``corpus``, and its
    block."""
    unfitted = FeaturePipeline(config)
    return unfitted.fit_transform(unfitted.segment(corpus))


def featurize(pipeline, corpus):
    """The block of the columns ``corpus`` under a fitted pipeline."""
    return pipeline.block(FeaturePipeline(pipeline.config).segment(corpus))


def labels(corpus):
    """The binary label (``polarity``) of each document of ``corpus``."""
    return [polarity(valences) for valences in corpus.valences]


def dense_features(block, i=None):
    """The (U, D) rows of ``block`` as one dense matrix, or sequence i's
    (L, D) rows: the sparse block's rows, offset row included, built
    densely before the dense columns."""
    rows = block.features
    if block.sparse is not None:
        sparse = block.sparse
        dense = np.zeros((sparse.num_rows, sparse.width))
        np.add.at(dense, (sparse.rows, sparse.indices), sparse.values)
        if sparse.offset is not None:
            dense += sparse.offset
        rows = np.hstack([dense, rows])
    if i is None:
        return rows
    return rows[block.bounds[i] : block.bounds[i + 1]]


def same_block(a, b):
    """Whether two blocks hold bitwise the same documents and rows, dense
    and sparse."""
    if a.doc_ids != b.doc_ids or not np.array_equal(a.bounds, b.bounds):
        return False
    if not np.array_equal(a.features, b.features):
        return False
    if a.sparse is None or b.sparse is None:
        return a.sparse is b.sparse
    sa, sb = a.sparse, b.sparse
    return (
        (sa.num_rows, sa.width) == (sb.num_rows, sb.width)
        and all(
            np.array_equal(getattr(sa, name), getattr(sb, name))
            for name in ("rows", "indices", "values")
        )
        and (sa.offset is None) == (sb.offset is None)
        and (sa.offset is None or np.array_equal(sa.offset, sb.offset))
    )


def windowed(rows, window):
    """The (L, D) ``rows`` with the 2w+1 neighbouring vectors of each
    position concatenated, zero-padded at both ends: the dense (2w+1) D
    inputs that a context window of ``window`` stands for."""
    length, dim = rows.shape
    padded = np.zeros((length + 2 * window, dim))
    padded[window : window + length] = rows
    return np.hstack([padded[k : k + length] for k in range(2 * window + 1)])


def packed_kernel(emissions, theta):
    """The packed (H, Y, R) node scores and a fresh kernel plan for
    chains of non-increasing length, from each chain's (L, H) emission
    scores."""
    layout = ChainLayout([emission.shape[0] for emission in emissions])
    rows = np.concatenate(emissions)[layout.packing()]
    plan = KernelPlan(layout, theta.num_hidden_states, theta.num_labels)
    return node_scores(rows, theta.theta_state), plan


def alone(rows, theta, weights):
    """The kernel's results for one chain of (L, D) ``rows`` in a call of
    its own: the forward pass (``log_z`` is (Y, 1)) and the posteriors
    weighted by the (Y, 1) ``weights``.  A weight of 1 gives the plain
    marginals, with ``state`` (L, H, Y, 1) and ``pair`` (L-1, later,
    earlier, Y, 1)."""
    node, plan = packed_kernel([rows @ theta.theta_obs.T], theta)
    chain = forward(node, theta.theta_trans, plan)
    return chain, backward(chain, weights)


def value_and_gradient(grouped, theta, l2_lambda):
    """``objective_and_gradient`` at the parameters ``theta``: the value,
    and the gradient vector taken from its callable."""
    value, gradient = objective_and_gradient(
        grouped, theta.as_vector(), theta.num_hidden_states, l2_lambda
    )
    return value, gradient()


def posterior(rows, theta):
    """P(y | x) of one sequence of (L, D) ``rows``, scored by a predictor
    as a block of its own."""
    return posteriors([rows], theta)[0]


def posteriors(docs, theta):
    """(N, Y) P(y | x) of the sequences of (L, D) rows ``docs``, scored
    by a window-0 predictor as one block."""
    config = TrainingConfig(num_hidden_states=theta.num_hidden_states)
    return HcrfPredictor(theta, config).posterior_blocks([make_block(docs)])


@pytest.fixture
def embedding_file(tmp_path):
    """Small deterministic embedding table written in the text format."""
    words = {
        "great": (1.0, 0.0, 2.0),
        "awful": (-1.0, 0.5, 0.0),
        "movie": (0.0, 1.0, 0.0),
        "plot": (0.5, 0.5, 1.0),
        "acting": (0.25, -0.5, 0.75),
        "good": (0.9, 0.1, 1.1),
        "bad": (-0.8, 0.2, -0.4),
    }
    path = tmp_path / "vectors.txt"
    lines = [f"{w} " + " ".join(str(v) for v in vec) for w, vec in words.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, words


@pytest.fixture
def socal_lexicon_file(tmp_path):
    path = tmp_path / "orientation.tsv"
    rows = [
        "word\tvalue",
        "good\t3",
        "great\t4",
        "bad\t-3",
        "awful\t-4",
        "terrible\t-5",
        "excellent\t5",
        "okay\t0",
        "fine\t1",
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def swn_lexicon_file(tmp_path):
    path = tmp_path / "swn.tsv"
    rows = [
        "word\tpos\tneg\tneu",
        "good\t0.5\t0.125\t0.375",
        "bad\t0.0\t0.875\t0.125",
        "movie\t0.0\t0.0\t1.0",
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
