"""The chunk path of every command against documents scored one at a time.

``LoadedModel.posteriors`` carries a chunk of ``SCORING_CHUNK``
documents from the corpus's columns to its posteriors as one block.  The
reference reads the same corpus with ``oracles.py``'s per-line reader,
cuts each document with its per-token segmenter, and scores each
document alone (``posterior_blocks`` of its one-document block).  The
corpora are ``test_reader.py``'s: records of a document interleaved
across files, blank lines, extra trailing columns, markers, token texts
that tokenize to no word and to two words, and a gap equal to the
threshold.  Cross-validation picks each fold's documents from one
prepared chunk; its held-out predictions are checked against the fold's
predictor scoring each document's own block.  No command builds an
object per document.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opinionchain.archive import load_archive, save_archive
from opinionchain.baseline import LogRegPredictor, document_vectors, train_logreg
from opinionchain.cli import main
from opinionchain.corpus import CorpusColumns, read_corpus, save_corpus
from opinionchain.errors import FileFormatError, InvalidInputError
from opinionchain.evaluation import (
    HcrfLearner,
    LogRegLearner,
    compute_metrics,
    cross_validate,
    stratified_k_fold,
)
from opinionchain.features import pipeline as feature_pipeline
from opinionchain.features.pipeline import PipelineConfig, SegmentedChunk
from opinionchain.model import SequenceBlock, SparseRows
from opinionchain.synthetic import SyntheticSpec, generate_corpus
from opinionchain.training import TrainingConfig, fit_predictor

from conftest import (
    columns,
    featurize,
    fit,
    labels,
    make_transcript,
    same_columns,
    segmented_chunk,
    split_documents,
)
from oracles import reference_load, reference_segment, reference_tokens
from test_corpus import _MUTATIONS, _mutate
from test_reader import THRESHOLD, _write, corpus_files

# words of the generated corpora, so that the archives' n-grams fire
_TRAINING_WORDS = {
    1: ("great", "movie", "don't", "stop", "fine", "well"),
    0: ("uh", "movie", "well", "really", "a-b", "c-d"),
}


def _training_corpus():
    return columns([
        make_transcript(
            f"t{i}",
            _TRAINING_WORDS[i % 2][i % 3 :] + _TRAINING_WORDS[i % 2][: i % 3],
            gaps=(100, 500, 100, 301, 300),
            markers=[("*Laughing*", 700)] if i % 4 else [("*hum*", 0)],
            valences=(5.0,) if i % 2 else (1.0,),
        )
        for i in range(12)
    ])


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Loaded default-block archives: HCRF at context windows 0 and 1,
    and the logistic baseline."""
    root = tmp_path_factory.mktemp("archives")
    docs = _training_corpus()
    pipeline, block = fit(PipelineConfig(threshold_ms=THRESHOLD), docs)
    predictors = {
        f"hcrf-w{window}": fit_predictor(
            block,
            labels(docs),
            TrainingConfig(num_hidden_states=2, context_window=window, max_iterations=30),
        )[0]
        for window in (0, 1)
    }
    predictors["logreg"] = LogRegPredictor(train_logreg(document_vectors(block), labels(docs)))
    loaded = {}
    for name, predictor in predictors.items():
        save_archive(root / f"{name}.json", predictor, pipeline)
        loaded[name] = load_archive(root / f"{name}.json")
    return loaded


def _reference_posteriors(loaded, root):
    """Each document of the corpus at ``root`` read, cut and scored on
    its own, as a one-document chunk, or the InvalidInputError its block
    raises."""
    rows = []
    for doc_id, texts, starts, ends, markers, _ in reference_load(root):
        units = reference_segment(texts, starts, ends, markers, THRESHOLD)
        seg = segmented_chunk(
            (doc_id,),
            [reference_tokens(unit) for unit, _ in units],
            [events for _, events in units],
            [0, len(units)],
            THRESHOLD,
        )
        block = loaded.pipeline.block(seg)
        rows.append(loaded.predictor.posterior_blocks([block])[0])
    return np.array(rows)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    files=corpus_files(),
    chunk=st.sampled_from((1, 3, 256)),
    name=st.sampled_from(("hcrf-w0", "hcrf-w1", "logreg")),
)
def test_chunk_posteriors_equal_each_document_alone(archives, files, chunk, name):
    loaded = archives[name]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "c"
        _write(root, files)
        with patch.object(feature_pipeline, "SCORING_CHUNK", chunk):
            try:
                got = loaded.posteriors(read_corpus(root))
            except InvalidInputError as exc:  # a tokenless document
                with pytest.raises(InvalidInputError) as want:
                    _reference_posteriors(loaded, root)
                assert str(exc) == str(want.value)
                return
            want = _reference_posteriors(loaded, root)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _count_constructions(monkeypatch) -> dict:
    """Constructions of each class a document passes through, counted as
    they happen."""
    counts = {}
    for cls in (CorpusColumns, SegmentedChunk, SequenceBlock, SparseRows):
        original = cls.__init__

        def counting(self, *args, __original=original, __name=cls.__name__, **kwargs):
            counts[__name] = counts.get(__name, 0) + 1
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("name", ["hcrf-w0", "hcrf-w1", "logreg"])
def test_predict_builds_no_object_per_document(archives, tmp_path, monkeypatch, name):
    """``predict`` makes one set of columns, segmented chunk, block and
    sparse block per chunk, however many documents it reads."""
    model = tmp_path / "model.json"
    save_archive(model, archives[name].predictor, archives[name].pipeline)
    seen = []
    for size in (8, 40):
        docs = columns(
            make_transcript(f"p{i}", _TRAINING_WORDS[i % 2], gaps=(100, 500, 100, 301, 300))
            for i in range(size)
        )
        save_corpus(docs, tmp_path / f"c{size}")
        argv = ["predict", "--model", str(model), "--corpus", str(tmp_path / f"c{size}")]
        with monkeypatch.context() as patched:
            counts = _count_constructions(patched)
            assert main(argv + ["--out", str(tmp_path / f"p{size}")]) == 0
        seen.append(counts)
    assert seen[0] == seen[1]


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutations=st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=5))
def test_malformed_corpus_fails_predict_with_the_loaders_problems(archives, mutations):
    """``predict`` lists every problem of a malformed corpus, as
    ``read_corpus`` does, in its one error line and the lines after it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "c"
        corpus = columns(
            make_transcript(
                f"d{i}", ("fine", "words", "here"), valences=(4.0,),
                markers=[("*chuckling*", 250)],
            )
            for i in range(len(mutations))
        )
        save_corpus(corpus, root)
        for i, (doc_id, mutation) in enumerate(zip(corpus.doc_ids, mutations)):
            if mutation:
                _mutate(root, i, doc_id, mutation)
        model = Path(tmp) / "model.json"
        save_archive(model, archives["hcrf-w0"].predictor, archives["hcrf-w0"].pipeline)
        try:
            read_corpus(root)
        except FileFormatError as exc:
            want = (1, f"error: {exc}\n")
        else:
            want = (0, "")
        argv = ["predict", "--model", str(model), "--corpus", str(root), "--out", f"{tmp}/p"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
        assert (status, err.getvalue()) == want


def test_columns_of_transcripts_select_and_rebuild():
    docs = [
        make_transcript("a", ("x", "y"), markers=[("*hum*", 5), ("*hum*", 1)]),
        make_transcript("b", ()),
        make_transcript("c", ("z",), valences=(2.0,)),
    ]
    corpus = columns(docs)
    assert all(map(same_columns, split_documents(corpus), docs))
    assert same_columns(corpus.select([1, 2]), columns(docs[1:]))
    assert same_columns(corpus.select([0, 2]), columns([docs[0], docs[2]]))
    assert same_columns(corpus.select([]), columns([]))


class _Scored:
    """A fold's predictor that keeps what it scores: itself, the blocks
    and the posteriors it gave them."""

    def __init__(self, predictor, folds):
        self.predictor, self.folds = predictor, folds

    def posterior_blocks(self, blocks):
        blocks = list(blocks)
        posteriors = self.predictor.posterior_blocks(blocks)
        self.folds.append((self.predictor, blocks, posteriors))
        return posteriors

    def describe(self):
        return self.predictor.describe()


class _Recording:
    """A learner whose predictors record each fold's held-out scoring."""

    def __init__(self, learner):
        self.learner, self.folds = learner, []

    def fit(self, block, labels):
        return _Scored(self.learner.fit(block, labels), self.folds)


_LEARNERS = {
    "hcrf-w0": HcrfLearner(TrainingConfig(num_hidden_states=2, max_iterations=15)),
    "hcrf-w1": HcrfLearner(
        TrainingConfig(num_hidden_states=2, context_window=1, max_iterations=15)
    ),
    "logreg-grid": LogRegLearner(c_grid=(0.1, 1.0, 10.0)),
}


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    folds=st.sampled_from((2, 3)),
    cv_seed=st.integers(0, 100),
    name=st.sampled_from(sorted(_LEARNERS)),
)
def test_cross_validated_predictions_equal_each_document_scored_alone(seed, folds, cv_seed, name):
    """Each fold's held-out predictions, which the report pools, are
    document by document what the fold's predictor gives the document's
    own one-document block, featurized by a pipeline fit from scratch on
    the fold's training transcripts."""
    spec = dataclasses.replace(
        SyntheticSpec(), num_docs_per_label=6, min_segments=2, max_segments=4
    )
    docs = generate_corpus(spec, seed=seed)
    config = PipelineConfig()
    learner = _Recording(_LEARNERS[name])
    report, details = cross_validate(docs, config, learner, k=folds, seed=cv_seed)
    gold = labels(docs)
    plan = stratified_k_fold(gold, folds, cv_seed)
    pooled = [-1] * len(docs)
    for fold, detail, (predictor, blocks, posteriors) in zip(
        plan.folds, details, learner.folds, strict=True
    ):
        held = set(fold)
        fitted = fit(config, docs.select([i for i in range(len(docs)) if i not in held]))[0]
        assert fitted.state_checksum() == detail.pipeline_checksum
        assert [doc_id for block in blocks for doc_id in block.doc_ids] == [
            docs.doc_ids[i] for i in fold
        ]
        for i, row in zip(fold, posteriors, strict=True):
            alone = predictor.posterior_blocks([featurize(fitted, docs.select([i]))])
            assert np.array_equal(row, alone[0])
            pooled[i] = int(row.argmax())
    assert report.confusion == compute_metrics(pooled, gold).confusion


@pytest.mark.parametrize(
    "command, model",
    [("train", "hcrf"), ("train", "logreg"), ("evaluate", "hcrf"), ("evaluate", "logreg")],
)
def test_train_and_evaluate_build_no_object_per_document(tmp_path, monkeypatch, command, model):
    """``train`` and ``evaluate`` read the corpus as columns, and the
    columns and blocks they build do not grow in number with the corpus:
    8 documents against 40."""
    config = tmp_path / "config.json"
    c_grid = [0.5, 2.0] if command == "train" else [1.0]  # an inner CV needs 3 per class
    config.write_text(
        json.dumps({"training": {"max_iterations": 5}, "logreg": {"c_grid": c_grid}}),
        encoding="utf-8",
    )
    seen = []
    for size in (8, 40):
        docs = columns(
            make_transcript(
                f"p{i}", _TRAINING_WORDS[i % 2], gaps=(100, 500, 100, 301, 300),
                valences=(5.0,) if i % 2 else (1.0,),
            )
            for i in range(size)
        )
        save_corpus(docs, tmp_path / f"c{size}")
        argv = [
            command, "--corpus", str(tmp_path / f"c{size}"), "--model", model,
            "--config", str(config), "--out", str(tmp_path / f"{command}{size}"),
        ]
        if command == "evaluate":
            argv += ["--folds", "2"]
        with monkeypatch.context() as patched:
            counts = _count_constructions(patched)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        seen.append(counts)
    for name in ("CorpusColumns", "SequenceBlock"):
        assert seen[0][name] == seen[1][name]
