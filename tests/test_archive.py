import contextlib
import copy
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import columns, featurize, fit, labels, make_transcript, split_documents
from opinionchain.archive import load_archive, save_archive
from opinionchain.baseline import LogRegPredictor, document_vectors, train_logreg
from opinionchain.cli import main
from opinionchain.corpus import save_corpus
from opinionchain.errors import FileFormatError, canonical_json
from opinionchain.features.pipeline import (
    DEFAULT_BLOCKS,
    PipelineConfig,
    resource_paths,
)
from opinionchain.synthetic import SyntheticSpec, generate_corpus
from opinionchain.training import TrainingConfig, fit_predictor

DATA = Path(__file__).resolve().parent / "data"


def fitted_setup(tmp_path, blocks=("bong",), **config_kwargs):
    docs = []
    words_by_label = {
        1: ("great", "movie", "loved", "it"),
        0: ("awful", "movie", "hated", "it"),
    }
    for i in range(10):
        label = i % 2
        docs.append(
            make_transcript(
                doc_id=f"d{i}",
                words=words_by_label[label],
                gaps=(100, 500, 100),
                valences=(5.0,) if label else (1.0,),
            )
        )
    docs = columns(docs)
    config = PipelineConfig(blocks=blocks, **config_kwargs)
    pipeline = fit(config, docs)[0]
    return docs, pipeline


def train_hcrf(docs, pipeline):
    block = featurize(pipeline, docs)
    predictor, _ = fit_predictor(
        block, labels(docs), TrainingConfig(num_hidden_states=2, max_iterations=30)
    )
    return block, predictor


def train_logreg_on(docs, pipeline, **kwargs):
    matrix = document_vectors(featurize(pipeline, docs))
    return LogRegPredictor(train_logreg(matrix, labels(docs), **kwargs))


class TestHcrfRoundTrip:
    def test_bitwise_reprediction(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        block, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        loaded = load_archive(path)
        assert loaded.kind == "hcrf"
        for i, doc in enumerate(split_documents(docs)):
            posterior = loaded.posteriors(doc)[0]
            assert np.array_equal(posterior, predictor.posterior_blocks([block.subblock([i])])[0])

    def test_save_load_save_identical_bytes(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_archive(first, predictor, pipeline)
        loaded = load_archive(first)
        save_archive(second, loaded.predictor, loaded.pipeline)
        assert first.read_bytes() == second.read_bytes()

    def test_unseen_documents_predict_identically(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        loaded = load_archive(path)
        fresh = make_transcript(doc_id="new", words=("loved", "movie"), valences=None)
        posterior = loaded.posteriors(fresh)[0]
        seq = featurize(pipeline, fresh)
        assert np.array_equal(posterior, predictor.posterior_blocks([seq])[0])

    def test_training_config_preserved(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        loaded = load_archive(path)
        assert loaded.predictor.config == predictor.config


class TestArchiveFromTheDensePipeline:
    """``window1_archive.json`` is a default-block archive (context window
    1) written when the bong rows were still built densely and windowed
    by materializing the (2w+1) D vectors, trained on the synthetic
    corpus below; ``window1_predictions.tsv`` holds what ``predict`` wrote
    with it then."""

    def corpus(self):
        spec = SyntheticSpec(
            num_docs_per_label=8, min_segments=2, max_segments=3, embedding_dim=4,
            num_polar_words=3, num_neutral_words=5,
        )
        return generate_corpus(spec, seed=5)

    def test_predicts_what_it_predicted_then(self):
        loaded = load_archive(DATA / "window1_archive.json")
        lines = (DATA / "window1_predictions.tsv").read_text().splitlines()[2:]
        rows = [line.split("\t") for line in lines]
        corpus = self.corpus()
        assert [row[0] for row in rows] == list(corpus.doc_ids)
        got = loaded.posteriors(corpus)
        want = np.array([[float(p) for p in row[2:]] for row in rows])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert [loaded.label_names[i] for i in got.argmax(axis=1)] == [row[1] for row in rows]

    def test_saved_again_byte_for_byte(self, tmp_path):
        source = DATA / "window1_archive.json"
        loaded = load_archive(source)
        save_archive(tmp_path / "again.json", loaded.predictor, loaded.pipeline)
        assert (tmp_path / "again.json").read_bytes() == source.read_bytes()


class TestLogRegRoundTrip:
    def test_bitwise_reprediction(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        block = featurize(pipeline, docs)
        predictor = train_logreg_on(docs, pipeline, c=10.0)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        loaded = load_archive(path)
        assert loaded.kind == "logreg"
        for i, doc in enumerate(split_documents(docs)):
            posterior = loaded.posteriors(doc)[0]
            assert np.array_equal(posterior, predictor.posterior_blocks([block.subblock([i])])[0])


class TestArchiveFormat:
    def test_canonical_bytes(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        text = path.read_text()
        doc = json.loads(text)
        assert doc["format"] == "model-archive/v1"
        assert text == canonical_json(doc)
        assert text.endswith("\n")

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileFormatError, match="nope.json"):
            load_archive(tmp_path / "nope.json")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/v9"}')
        with pytest.raises(FileFormatError, match="model-archive/v1"):
            load_archive(path)

    def test_unknown_kind_rejected(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        doc = json.loads(path.read_text())
        doc["kind"] = "rnn"
        path.write_text(canonical_json(doc))
        with pytest.raises(FileFormatError, match="rnn"):
            load_archive(path)

    def test_every_structural_problem_listed_at_once(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        doc = json.loads(path.read_text())
        del doc["pipeline"]["schema"]
        del doc["model"]["theta_obs"]
        doc["label_names"] = "negative,positive"
        doc["pipeline"]["standardizer"] = {"mean": [0.0]}
        doc["model"]["theta_trans"] = True
        path.write_text(canonical_json(doc))
        with pytest.raises(FileFormatError) as info:
            load_archive(path)
        assert [msg for _, _, msg in info.value.problems] == [
            "'label_names' must be an array, got a string",
            "missing key 'pipeline.schema'",
            "missing key 'pipeline.standardizer.std'",
            "missing key 'model.theta_obs'",
            "'model.theta_trans' must be an array, got a boolean",
        ]

    @pytest.mark.parametrize("window", [0, 1])
    def test_parts_that_disagree_in_width_listed_together(self, tmp_path, window):
        docs, pipeline = fitted_setup(tmp_path, blocks=("bong", "paralinguistic"))
        predictor, _ = fit_predictor(
            featurize(pipeline, docs),
            labels(docs),
            TrainingConfig(num_hidden_states=2, context_window=window, max_iterations=5),
        )
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        doc = json.loads(path.read_text())
        dim = pipeline.schema.dim
        vocab = doc["pipeline"]["vocabulary"]
        vocab["terms"].pop()
        vocab["doc_freq"].pop()
        doc["pipeline"]["standardizer"]["std"].pop()
        for row in doc["model"]["theta_obs"]:
            row.pop()
        path.write_text(canonical_json(doc))
        with pytest.raises(FileFormatError) as info:
            load_archive(path)
        fixed = dim - len(pipeline.vocabulary)
        width = (2 * window + 1) * dim
        assert [msg for _, _, msg in info.value.problems] == [
            f"vocabulary size {len(pipeline.vocabulary) - 1} + fixed-block widths {fixed} "
            f"!= schema dim {dim}",
            f"'pipeline.standardizer' has {dim} means and {dim - 1} stds for schema dim {dim}",
            f"'model.theta_obs' has {width - 1} columns, but context window {window} "
            f"and schema dim {dim} need {width}",
        ]

    def test_logreg_weights_of_another_width_reported(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        predictor = train_logreg_on(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        doc = json.loads(path.read_text())
        doc["model"]["weights"].append(0.0)
        path.write_text(canonical_json(doc))
        dim = pipeline.schema.dim
        with pytest.raises(FileFormatError) as info:
            load_archive(path)
        assert [msg for _, _, msg in info.value.problems] == [
            f"'model.weights' has {dim + 1} entries for schema dim {dim}"
        ]

    def test_inconsistent_parameter_shapes_reported_by_loader(self, tmp_path):
        docs, pipeline = fitted_setup(tmp_path)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        doc = json.loads(path.read_text())
        doc["model"]["theta_state"] = [[0.0]]
        path.write_text(canonical_json(doc))
        with pytest.raises(FileFormatError, match="malformed archive: inconsistent parameter"):
            load_archive(path)

    @pytest.mark.parametrize(
        "kind, names, problem",
        [
            ("hcrf", ["negative"], "'label_names' has 1 name(s) for a model of 2 labels"),
            ("hcrf", ["neg", "neu", "pos"], "'label_names' has 3 name(s) for a model of 2 labels"),
            ("hcrf", [0, 1], "'label_names' must be non-empty strings, got [0, 1]"),
            ("hcrf", ["", "pos"], "'label_names' must be non-empty strings, got ['', 'pos']"),
            ("hcrf", ["pos", "pos"], "'label_names' must be distinct, got ['pos', 'pos']"),
            ("logreg", ["neg", "neu", "pos"], "'label_names' has 3 name(s) for a model of 2 labels"),
        ],
        ids=["hcrf-too-few", "hcrf-too-many", "integers", "empty", "repeated", "logreg-too-many"],
    )
    def test_bad_label_names_listed_with_the_other_problems(self, tmp_path, kind, names, problem):
        docs, pipeline = fitted_setup(tmp_path)
        if kind == "hcrf":
            _, predictor = train_hcrf(docs, pipeline)
            dropped = "theta_obs"
        else:
            predictor = train_logreg_on(docs, pipeline)
            dropped = "weights"
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        doc = json.loads(path.read_text())
        doc["label_names"] = names
        del doc["model"][dropped]
        path.write_text(canonical_json(doc))
        with pytest.raises(FileFormatError) as info:
            load_archive(path)
        assert [msg for _, _, msg in info.value.problems] == [
            f"missing key 'model.{dropped}'",
            problem,
        ]


class TestResourceDrift:
    def make_embedding_archive(self, tmp_path):
        emb = tmp_path / "vectors.txt"
        emb.write_text(
            "great 1.0 0.0\nawful -1.0 0.0\nmovie 0.1 0.2\nloved 0.9 0.1\nhated -0.8 0.2\nit 0.0 0.1\n"
        )
        docs, pipeline = fitted_setup(
            tmp_path, blocks=("embedding",), embedding_path=str(emb)
        )
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        return path, emb

    def test_drifted_resource_refused(self, tmp_path):
        path, emb = self.make_embedding_archive(tmp_path)
        emb.write_text("great 2.0 0.0\n")
        with pytest.raises(FileFormatError, match="changed since archiving"):
            load_archive(path)

    def test_deleted_resource_refused(self, tmp_path):
        path, emb = self.make_embedding_archive(tmp_path)
        emb.unlink()
        with pytest.raises(FileFormatError, match="not found"):
            load_archive(path)

    def test_intact_resources_load(self, tmp_path):
        path, _ = self.make_embedding_archive(tmp_path)
        assert load_archive(path).kind == "hcrf"

    def test_resource_changed_between_fit_and_save_refused(self, tmp_path):
        """The archive holds the digests of the files the pipeline read,
        not of the files as they are when it is saved."""
        emb = tmp_path / "vectors.txt"
        emb.write_text("great 1.0 0.0\nawful -1.0 0.0\nmovie 0.1 0.2\n")
        docs, pipeline = fitted_setup(tmp_path, blocks=("embedding",), embedding_path=str(emb))
        _, predictor = train_hcrf(docs, pipeline)
        emb.write_text("great -1.0 0.0\nawful 1.0 0.0\nmovie 0.1 0.2\n")
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        with pytest.raises(FileFormatError, match="'embedding' .* changed since archiving"):
            load_archive(path)

    def test_each_resource_is_hashed_once_per_load(self, tmp_path, monkeypatch):
        """Loading checks the digests that the load itself records: each
        of a default archive's six packaged files is hashed once."""
        docs, pipeline = fitted_setup(tmp_path, blocks=DEFAULT_BLOCKS)
        _, predictor = train_hcrf(docs, pipeline)
        path = tmp_path / "model.json"
        save_archive(path, predictor, pipeline)
        hashed = Counter()
        original = Path.read_bytes

        def counting(self):
            hashed[self] += 1
            return original(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        load_archive(path)
        paths = resource_paths(pipeline.config).values()
        assert len(paths) == 6 and hashed == Counter(paths)

    def test_saved_again_byte_for_byte(self, tmp_path):
        path, _ = self.make_embedding_archive(tmp_path)
        loaded = load_archive(path)
        again = tmp_path / "again.json"
        save_archive(again, loaded.predictor, loaded.pipeline)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pipeline", "threshold_ms", True),
        ("pipeline", "bong_min_df", 1.5),
        ("training", "max_iterations", 2.5),
        ("training", "seed", False),
    ],
)
def test_config_value_of_the_wrong_type_is_a_format_error(tmp_path, section, key, value):
    docs, pipeline = fitted_setup(tmp_path)
    _, predictor = train_hcrf(docs, pipeline)
    path = tmp_path / "model.json"
    save_archive(path, predictor, pipeline)
    doc = json.loads(path.read_text())
    config = doc["pipeline"]["config"] if section == "pipeline" else doc["model"]["training"]
    config[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=f"{key} must be an integer"):
        load_archive(path)


# Any JSON value, NaN and the infinities included (Python's json reads
# them), for a mutation to put where the archive held something else.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats()
    | st.text(alphabet="ab:/_-", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="ab_", max_size=3), inner, max_size=2),
    max_leaves=4,
)


def json_paths(value, path=()):
    """The path of every object member and array element in ``value``."""
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate(doc, path, how, value):
    """``doc`` with the member at ``path`` dropped, replaced by ``value``,
    or, for an array, given ``value`` as one more element."""
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    if how == "drop":
        del container[last]
    elif how == "append" and isinstance(container[last], list):
        container[last].append(value)
    else:
        container[last] = value


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small hcrf and a small logreg archive of one default-block
    pipeline, as JSON documents, and a corpus to predict."""
    root = tmp_path_factory.mktemp("fuzz")
    docs, pipeline = fitted_setup(root, blocks=("bong", "pattern", "paralinguistic"))
    _, hcrf = train_hcrf(docs, pipeline)
    logreg = train_logreg_on(docs, pipeline)
    archives = {}
    for kind, predictor in (("hcrf", hcrf), ("logreg", logreg)):
        save_archive(root / "model.json", predictor, pipeline)
        archives[kind] = json.loads((root / "model.json").read_text())
    save_corpus(docs, root / "corpus")
    return root, archives


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(["hcrf", "logreg"]))
def test_mutated_archives_fail_only_with_file_format_errors(fuzz_inputs, data, kind):
    """Dropped members, values of another JSON type, ragged or NaN
    parameter rows, parts of other widths and bad label names, max
    orders or configuration values: ``load_archive`` raises nothing but
    FileFormatError, and ``predict`` of a broken archive prints one
    ``error:`` line and exits 1."""
    root, archives = fuzz_inputs
    doc = copy.deepcopy(archives[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        # the members of objects, and the elements of arrays that are
        # members, drawn as often as a path anywhere (most of which are
        # parameter values)
        shallow = [p for p in paths if all(isinstance(k, str) for k in p[:-1])] or paths
        path = data.draw(st.sampled_from(shallow) | st.sampled_from(paths))
        how = data.draw(st.sampled_from(["drop", "set", "append"]))
        mutate(doc, path, how, data.draw(_JSON))
    model = root / "model.json"
    model.write_text(json.dumps(doc))
    try:
        load_archive(model)
        loaded = True
    except FileFormatError:
        loaded = False
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["predict", "--model", str(model), "--corpus", str(root / "corpus"),
                   "--out", str(root / "p")])  # fmt: skip
    err = err.getvalue()
    if not loaded:
        assert rc == 1
    if rc:
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
