"""``predict``'s chunk path against documents scored one at a time.

``LoadedModel.posteriors`` carries a chunk of ``SCORING_CHUNK``
documents from the corpus's columns to its posteriors as one block.  The
reference reads the same corpus with ``oracles.py``'s per-line reader,
cuts each document with its per-token segmenter, and scores each
document alone (``posterior_batch`` of its one sequence).  The corpora
are ``test_reader.py``'s: records of a document interleaved across files,
blank lines, extra trailing columns, markers, token texts that tokenize
to no word and to two words, and a gap equal to the threshold.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opinionchain import training
from opinionchain.archive import load_archive, save_archive
from opinionchain.baseline import LogRegPredictor, document_vectors, train_logreg
from opinionchain.cli import main
from opinionchain.corpus import (
    CorpusColumns,
    Transcript,
    load_corpus,
    read_corpus,
    save_corpus,
)
from opinionchain.errors import FileFormatError, InvalidInputError
from opinionchain.features.pipeline import FeaturePipeline, PipelineConfig, SegmentedDocument
from opinionchain.model import ObservationSequence, SparseRows
from opinionchain.training import TrainingConfig, fit_predictor, sequence_blocks

from conftest import make_transcript
from oracles import reference_load, reference_segment, reference_tokens
from test_corpus import _MUTATIONS, _mutate
from test_reader import THRESHOLD, _write, corpus_files

# words of the generated corpora, so that the archives' n-grams fire
_TRAINING_WORDS = {
    1: ("great", "movie", "don't", "stop", "fine", "well"),
    0: ("uh", "movie", "well", "really", "a-b", "c-d"),
}


def _training_corpus():
    return [
        make_transcript(
            f"t{i}",
            _TRAINING_WORDS[i % 2][i % 3 :] + _TRAINING_WORDS[i % 2][: i % 3],
            gaps=(100, 500, 100, 301, 300),
            markers=[("*Laughing*", 700)] if i % 4 else [("*hum*", 0)],
            valences=(5.0,) if i % 2 else (1.0,),
        )
        for i in range(12)
    ]


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Loaded default-block archives: HCRF at context windows 0 and 1,
    and the logistic baseline."""
    root = tmp_path_factory.mktemp("archives")
    docs = _training_corpus()
    labels = [doc.polarity for doc in docs]
    pipeline, sequences = FeaturePipeline(PipelineConfig(threshold_ms=THRESHOLD)).fit_transform(
        docs
    )
    predictors = {
        f"hcrf-w{window}": fit_predictor(
            list(zip(sequences, labels)),
            TrainingConfig(num_hidden_states=2, context_window=window, max_iterations=30),
        )[0]
        for window in (0, 1)
    }
    matrix = np.concatenate([document_vectors(block) for block in sequence_blocks(sequences)])
    predictors["logreg"] = LogRegPredictor(train_logreg(matrix, labels))
    loaded = {}
    for name, predictor in predictors.items():
        save_archive(root / f"{name}.json", predictor, pipeline)
        loaded[name] = load_archive(root / f"{name}.json")
    return loaded


def _reference_posteriors(loaded, root):
    """Each document of the corpus at ``root`` read, cut and scored on
    its own, or the InvalidInputError its transform raises."""
    rows = []
    for doc_id, texts, starts, ends, markers, _ in reference_load(root):
        units = reference_segment(texts, starts, ends, markers, THRESHOLD)
        seg = SegmentedDocument(
            doc_id,
            tuple(reference_tokens(unit) for unit, _ in units),
            tuple(events for _, events in units),
            THRESHOLD,
        )
        [sequence] = loaded.pipeline.transform([seg])
        rows.append(loaded.predictor.posterior_batch([sequence])[0])
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
        with patch.object(training, "SCORING_CHUNK", chunk):
            try:
                got = loaded.posteriors(read_corpus(root))
            except InvalidInputError as exc:  # a tokenless document
                with pytest.raises(InvalidInputError) as want:
                    _reference_posteriors(loaded, root)
                assert str(exc) == str(want.value)
                return
            want = _reference_posteriors(loaded, root)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # transcripts take the same path
            assert np.array_equal(loaded.posteriors(load_corpus(root)), want)


def _count_constructions(monkeypatch) -> dict:
    """Constructions of each per-document class, counted as they happen."""
    counts = {}
    for cls in (Transcript, SegmentedDocument, ObservationSequence, SparseRows):
        original = cls.__init__

        def counting(self, *args, __original=original, __name=cls.__name__, **kwargs):
            counts[__name] = counts.get(__name, 0) + 1
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("name", ["hcrf-w0", "hcrf-w1", "logreg"])
def test_predict_builds_no_object_per_document(archives, tmp_path, monkeypatch, name):
    """``predict`` makes no transcript, segmented document or sequence,
    and one sparse block per chunk, however many documents it reads."""
    model = tmp_path / "model.json"
    save_archive(model, archives[name].predictor, archives[name].pipeline)
    seen = []
    for size in (8, 40):
        docs = [
            make_transcript(f"p{i}", _TRAINING_WORDS[i % 2], gaps=(100, 500, 100, 301, 300))
            for i in range(size)
        ]
        save_corpus(docs, tmp_path / f"c{size}")
        argv = ["predict", "--model", str(model), "--corpus", str(tmp_path / f"c{size}")]
        with monkeypatch.context() as patched:
            counts = _count_constructions(patched)
            assert main(argv + ["--out", str(tmp_path / f"p{size}")]) == 0
        seen.append(counts)
    assert seen[0] == seen[1]
    assert set(seen[0]) <= {"SparseRows"}


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutations=st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=5))
def test_malformed_corpus_fails_predict_with_the_loaders_problems(archives, mutations):
    """``predict`` lists every problem of a malformed corpus, as
    ``load_corpus`` does, in its one error line and the lines after it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "c"
        corpus = [
            make_transcript(
                f"d{i}", ("fine", "words", "here"), valences=(4.0,),
                markers=[("*chuckling*", 250)],
            )
            for i in range(len(mutations))
        ]
        save_corpus(corpus, root)
        for i, (doc, mutation) in enumerate(zip(corpus, mutations)):
            if mutation:
                _mutate(root, i, doc.doc_id, mutation)
        model = Path(tmp) / "model.json"
        save_archive(model, archives["hcrf-w0"].predictor, archives["hcrf-w0"].pipeline)
        try:
            load_corpus(root)
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
    corpus = CorpusColumns.from_transcripts(docs)
    assert corpus.transcripts() == docs
    assert corpus.select(1, 3).transcripts() == docs[1:]
    assert len(corpus.select(0, 0)) == 0
