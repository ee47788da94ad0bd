import contextlib
import dataclasses
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opinionchain

from opinionchain.cli import main
from opinionchain.corpus import TRANSCRIPTS_NAME, read_corpus, save_corpus
from opinionchain.features.pipeline import PipelineConfig
from opinionchain.synthetic import SyntheticSpec
from opinionchain.training import TrainingConfig

from conftest import columns, ipus, make_transcript, split_documents


@pytest.fixture
def gen_config(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(
        json.dumps(
            {
                "generator": {
                    "num_docs_per_label": 8,
                    "min_segments": 2,
                    "max_segments": 3,
                    "embedding_dim": 4,
                    "num_polar_words": 3,
                    "num_neutral_words": 5,
                }
            }
        )
    )
    return str(path)


@pytest.fixture
def generated(tmp_path, gen_config):
    out = tmp_path / "gen"
    rc = main(["generate", "--out", str(out), "--seed", "5", "--config", gen_config])
    assert rc == 0
    return out


def train_config_file(tmp_path, generated, extra_training=None):
    path = tmp_path / "train.json"
    training = {"num_hidden_states": 2, "max_iterations": 40}
    training.update(extra_training or {})
    path.write_text(
        json.dumps(
            {
                "pipeline": {
                    "blocks": ["embedding"],
                    "embedding_path": str(generated / "embeddings.txt"),
                },
                "training": training,
            }
        )
    )
    return str(path)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


def dir_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def package_env() -> dict:
    src = str(Path(opinionchain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_does_not_load_scipy(tmp_path, generated):
    """Neither importing the CLI nor running ``train``, ``predict`` and
    ``evaluate`` on the default blocks loads scipy or ``numpy.ma``, with
    either model: the package needs numpy alone."""
    corpus, out = str(generated / "corpus"), tmp_path / "runs"
    cfg = write_config(tmp_path, {"training": {"num_hidden_states": 2, "max_iterations": 5}})
    commands = []
    for model in ("hcrf", "logreg"):
        run = out / model
        commands += [
            ["train", "--model", model, "--corpus", corpus, "--config", cfg,
             "--out", str(run / "t")],
            ["predict", "--model", str(run / "t" / "model.json"), "--corpus", corpus,
             "--out", str(run / "p")],
            ["evaluate", "--model", model, "--folds", "2", "--corpus", corpus, "--config", cfg,
             "--out", str(run / "e")],
        ]
    unwanted = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma')"
    code = (
        "import sys, opinionchain.cli; "
        f"loaded = {unwanted}; "
        f"codes = [opinionchain.cli.main(argv) for argv in {commands!r}]; "
        f"print(loaded, codes, {unwanted})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[] [0, 0, 0, 0, 0, 0] []"


def modules_loaded_by(argv) -> list[str]:
    """The modules of opinionchain, and numpy if it is one, that a fresh
    interpreter has loaded after importing the CLI and running
    ``main(argv)`` (nothing more when ``argv`` is None)."""
    code = (
        "import json, sys, opinionchain.cli; "
        f"argv = {argv!r}; "
        "code = 0 if argv is None else opinionchain.cli.main(argv); "
        "print(code, json.dumps(sorted(m for m in sys.modules "
        "if m == 'numpy' or m.partition('.')[0] == 'opinionchain')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    return json.loads(loaded)


def test_cli_import_loads_only_the_cli_and_errors():
    """The CLI's module imports nothing of the package but ``errors`` and
    no numpy, so that ``--help`` and each command pay only for what they
    run."""
    assert modules_loaded_by(None) == ["opinionchain", "opinionchain.cli", "opinionchain.errors"]


def test_predict_loads_no_training_evaluation_or_generator_code(tmp_path, generated):
    """The read path, from the archive and the corpus to the posteriors,
    needs none of the optimizer, the evaluation protocol, the generator
    or the state report."""
    corpus, model = str(generated / "corpus"), tmp_path / "t"
    assert main(["train", "--corpus", corpus, "--out", str(model)]) == 0
    loaded = modules_loaded_by(
        ["predict", "--model", str(model / "model.json"), "--corpus", corpus,
         "--out", str(tmp_path / "p")]
    )
    assert "opinionchain.archive" in loaded and "opinionchain.training" in loaded
    unwanted = ("evaluation", "optimize", "synthetic", "introspection")
    assert [m for m in loaded if m.removeprefix("opinionchain.") in unwanted] == []


def test_generate_loads_only_the_generator_and_the_corpus_writer(tmp_path, gen_config):
    loaded = modules_loaded_by(
        ["generate", "--out", str(tmp_path / "g"), "--seed", "1", "--config", gen_config]
    )
    assert loaded == [
        "numpy",
        "opinionchain",
        "opinionchain.cli",
        "opinionchain.corpus",
        "opinionchain.errors",
        "opinionchain.synthetic",
    ]


def test_segment_loads_only_the_corpus_and_the_segmenter(tmp_path, generated):
    loaded = modules_loaded_by(
        ["segment", "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "s")]
    )
    assert loaded == [
        "numpy",
        "opinionchain",
        "opinionchain.cli",
        "opinionchain.corpus",
        "opinionchain.errors",
        "opinionchain.features",
        "opinionchain.features.segmentation",
    ]


@pytest.fixture
def segment_counts(monkeypatch):
    """Segmentations of each document id by ``segment_into_ipus``, kept
    apart for the two names the program calls it by: the pipeline's,
    which featurizes, and the segmenter's own.  Each call segments a
    chunk of documents once."""
    from opinionchain.features import pipeline, segmentation

    counts = {"pipeline": Counter(), "segmentation": Counter()}
    original = segmentation.segment_into_ipus
    for name, module in (("pipeline", pipeline), ("segmentation", segmentation)):

        def counting(chunk, threshold_ms, _counts=counts[name]):
            _counts.update(chunk.doc_ids)
            return original(chunk, threshold_ms)

        monkeypatch.setattr(module, "segment_into_ipus", counting)
    return counts


@pytest.mark.parametrize("case", ["transcript", "config", "archive", "embeddings"])
def test_file_that_is_not_utf8_fails_with_one_error_line(tmp_path, generated, capsys, case):
    """A transcript, config, archive or embeddings file ending in byte
    0xff, which starts no UTF-8 sequence, fails its command with one
    error line and no traceback, and the file is named."""
    corpus = tmp_path / "c"
    shutil.copytree(generated / "corpus", corpus)
    embeddings = tmp_path / "vectors.txt"
    shutil.copy(generated / "embeddings.txt", embeddings)
    cfg = Path(write_config(tmp_path, {
        "pipeline": {"blocks": ["embedding"], "embedding_path": str(embeddings)},
        "training": {"num_hidden_states": 2, "max_iterations": 5},
    }))
    train = ["train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(tmp_path / "t")]
    model = tmp_path / "t" / "model.json"
    predict = ["predict", "--model", str(model), "--corpus", str(corpus),
               "--out", str(tmp_path / "p")]
    if case in ("transcript", "archive"):
        assert main(train) == 0
    bad, argv = {
        "transcript": (sorted(corpus.glob("*.txt"))[0], predict),
        "config": (cfg, train),
        "archive": (model, predict),
        "embeddings": (embeddings, train),
    }[case]
    bad.write_bytes(bad.read_bytes() + b"\xff")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert str(bad) in err and "not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block, name, text",
    [
        ("embedding", "vectors.txt", "good 1.0 2.0\nbad 1.0 x\nugly 1.0\n"),
        ("lexicon", "lexicon.tsv", "word\tvalue\tvalue\ngood\t1\t2\n"),
    ],
)
def test_malformed_resource_fails_with_one_error_line(
    tmp_path, generated, capsys, block, name, text
):
    """A malformed embeddings or lexicon file fails ``train`` with one
    error line, the file named and no traceback."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    key = {"embedding": ("embedding_path", str(path)), "lexicon": ("lexicon_paths", [str(path)])}
    cfg = write_config(tmp_path, {"pipeline": {"blocks": [block], key[block][0]: key[block][1]}})
    capsys.readouterr()
    argv = ["train", "--corpus", str(generated / "corpus"), "--config", cfg]
    assert main(argv + ["--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert str(path) in err and "Traceback" not in err


def test_archived_resource_that_became_a_directory_fails_with_one_error_line(
    tmp_path, generated, capsys
):
    """An embedding archive whose embeddings file was replaced by a
    directory fails ``predict`` with one error line, its problem naming
    the archive and the resource's role, and no traceback."""
    embeddings = tmp_path / "emb.txt"
    shutil.copy(generated / "embeddings.txt", embeddings)
    cfg = write_config(tmp_path, {
        "pipeline": {"blocks": ["embedding"], "embedding_path": str(embeddings)},
        "training": {"num_hidden_states": 2, "max_iterations": 5},
    })
    corpus = str(generated / "corpus")
    assert main(["train", "--corpus", corpus, "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    embeddings.unlink()
    embeddings.mkdir()
    model = tmp_path / "t" / "model.json"
    capsys.readouterr()
    argv = ["predict", "--model", str(model), "--corpus", corpus, "--out", str(tmp_path / "p")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: archived resources drifted; re-train on the current resources"
    ]
    assert f"{model}:0: resource 'embedding' at {embeddings} cannot be read" in err
    assert "Traceback" not in err


class TestSegmentationCount:
    @pytest.mark.parametrize(
        "command", [["train"], ["evaluate", "--folds", "2"], ["segment"]]
    )
    def test_commands_segment_each_document_once(
        self, tmp_path, generated, segment_counts, command
    ):
        """Each document is cut once for the IPU count of the "loaded"
        log line, or, in ``segment``, of the index it writes, with no
        tokenizing; ``train`` and ``evaluate`` then featurize each
        labeled document from one more segmentation, by the pipeline."""
        argv = command + ["--corpus", str(generated / "corpus"), "--out", str(tmp_path / "o")]
        featurized = command != ["segment"]
        if featurized:
            argv += ["--config", train_config_file(tmp_path, generated)]
        assert main(argv) == 0
        assert {name: (len(c), set(c.values())) for name, c in segment_counts.items()} == {
            "pipeline": (16, {1}) if featurized else (0, set()),
            "segmentation": (16, {1}),
        }

    @pytest.mark.parametrize("command", [["train"], ["evaluate", "--folds", "2"]])
    def test_loaded_line_counts_the_ipus_of_every_document(self, tmp_path, generated, command):
        """Dropped documents are segmented too, so the count is the whole
        corpus's, as a direct count of every document's IPUs gives."""
        import dataclasses

        from opinionchain.corpus import read_corpus

        corpus = read_corpus(generated / "corpus")
        neutral = dataclasses.replace(
            corpus.select([0]), doc_ids=("neutral",), valences=((3.0,),)
        )
        corpus = columns([corpus, neutral])
        save_corpus(corpus, tmp_path / "with_neutral")
        want = sum(len(ipus(doc, 300)) for doc in split_documents(corpus))
        cfg = train_config_file(tmp_path, generated)
        argv = command + ["--corpus", str(tmp_path / "with_neutral"), "--out", str(tmp_path / "o")]
        assert main(argv + ["--config", cfg]) == 0
        log = (tmp_path / "o" / "run.log").read_text()
        assert "INFO opinionchain.cli: loaded 17 documents (" in log
        assert f" words, {want} IPUs at 300 ms\n" in log
        assert "dropped 1 neutral or unlabeled documents" in log

    def test_cross_validate_segments_each_document_once(self, generated, segment_counts):
        from opinionchain.corpus import read_corpus
        from opinionchain.evaluation import LogRegLearner, cross_validate
        from opinionchain.features.pipeline import PipelineConfig

        corpus = read_corpus(generated / "corpus")
        cross_validate(corpus, PipelineConfig(), LogRegLearner(), k=2)
        assert set(segment_counts["pipeline"].values()) == {1}
        assert len(segment_counts["pipeline"]) == len(corpus)
        assert not segment_counts["segmentation"]


class TestGenerate:
    def test_outputs_present(self, generated):
        assert (generated / "corpus" / "manifest.tsv").exists()
        assert (generated / "embeddings.txt").exists()
        assert (generated / "config.json").exists()
        assert (generated / "run.log").exists()
        stats = json.loads((generated / "generator_stats.json").read_text())
        assert stats["format"] == "generator-stats/v1"
        assert stats["documents"] == 16
        assert 0.5 <= stats["order_insensitive_bayes_accuracy"] <= 1.0

    def test_module_invocation_writes_run_log(self, tmp_path, gen_config):
        out = tmp_path / "m"
        proc = subprocess.run(
            [sys.executable, "-m", "opinionchain.cli", "generate", "--out", str(out),
             "--seed", "5", "--config", gen_config],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        log = (out / "run.log").read_text()
        assert "INFO opinionchain.cli: generated 16 documents" in log

    def test_fixed_seed_reproduces_files(self, tmp_path, gen_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["generate", "--out", str(a), "--seed", "9", "--config", gen_config]) == 0
        assert main(["generate", "--out", str(b), "--seed", "9", "--config", gen_config]) == 0
        assert dir_bytes(a / "corpus") == dir_bytes(b / "corpus")
        assert (a / "embeddings.txt").read_bytes() == (b / "embeddings.txt").read_bytes()
        assert (a / "generator_stats.json").read_bytes() == (b / "generator_stats.json").read_bytes()

    def test_unknown_generator_key_fails(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"generator": {"bogus_knob": 3}}))
        rc = main(["generate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 1

    def test_unknown_section_fails(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"generater": {}}))
        rc = main(["generate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 1


class TestSegment:
    def test_segment_and_idempotence(self, tmp_path, generated):
        seg1 = tmp_path / "seg1"
        rc = main(
            ["segment", "--corpus", str(generated / "corpus"), "--threshold-ms", "300", "--out", str(seg1)]
        )
        assert rc == 0
        seg2 = tmp_path / "seg2"
        rc = main(
            ["segment", "--corpus", str(seg1 / "corpus"), "--threshold-ms", "300", "--out", str(seg2)]
        )
        assert rc == 0
        assert dir_bytes(seg1 / "corpus") == dir_bytes(seg2 / "corpus")

    @pytest.mark.parametrize("threshold", [150, 300])
    def test_segment_cuts_the_corpus_with_one_call(
        self, tmp_path, generated, monkeypatch, threshold
    ):
        """``segment`` cuts the whole corpus's columns with one
        ``segment_into_ipus`` call, and writes the corpus that cutting
        each document alone gives."""
        from opinionchain.corpus import read_corpus
        from opinionchain.features import segmentation

        corpus = read_corpus(generated / "corpus")
        index = [
            i
            for doc in split_documents(corpus)
            for i, (texts, _) in enumerate(ipus(doc, threshold))
            for _ in texts
        ]
        save_corpus(corpus, tmp_path / "want", ipu_index=np.array(index, dtype=np.intp))
        calls = []
        original = segmentation.segment_into_ipus

        def counting(chunk, threshold_ms):
            calls.append(len(chunk))
            return original(chunk, threshold_ms)

        monkeypatch.setattr(segmentation, "segment_into_ipus", counting)
        out = tmp_path / "s"
        argv = ["segment", "--corpus", str(generated / "corpus"), "--threshold-ms", str(threshold)]
        assert main(argv + ["--out", str(out)]) == 0
        assert calls == [len(corpus)]
        assert dir_bytes(out / "corpus") == dir_bytes(tmp_path / "want")

    def test_printed_and_logged_ipu_counts_match_a_direct_count(self, tmp_path, generated, capsys):
        from opinionchain.corpus import read_corpus

        corpus = read_corpus(generated / "corpus")
        want = sum(len(ipus(doc, 150)) for doc in split_documents(corpus))
        out = tmp_path / "s"
        argv = ["segment", "--corpus", str(generated / "corpus"), "--threshold-ms", "150"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == f"segmented 16 documents into {want} IPUs at 150 ms\n"
        assert f"segmented 16 documents into {want} IPUs\n" in (out / "run.log").read_text()

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        rc = main(["segment", "--corpus", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "absent" in capsys.readouterr().err

    def test_every_bad_document_listed_under_one_error_line(self, tmp_path, capsys):
        root = tmp_path / "c"
        save_corpus(
            columns([make_transcript("a", ("x", "y")), make_transcript("b", ("u", "v"))]), root
        )
        path = root / TRANSCRIPTS_NAME  # each second token starts inside the first
        path.write_text(path.read_text().replace("\t300\t500", "\t100\t500"))
        rc = main(["segment", "--corpus", str(root), "--out", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: 2 malformed record(s) in {root}"
        ]
        assert f"{path}:0: a: token times" in err
        assert f"{path}:0: b: token times" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc_id", ["../../escaped", "nul\0id", pytest.param("x" * 300, id="300 x")]
    )
    def test_an_id_that_names_no_file_round_trips(self, tmp_path, doc_id):
        """No file is named after a document id, so one that would name a
        file outside ``--out``, no file at all, or one too long for the
        file system is written like any other and read back the same,
        and the command writes nothing outside ``--out``."""
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text(
            f"corpus-manifest/v1\ndoc_id\tfile\tvalence\nok\tt.txt\t4\n{doc_id}\tt.txt\t2\n"
        )
        (root / "t.txt").write_text(
            f"transcript/v1\ntoken\tok\tgood\t0\t200\ntoken\t{doc_id}\tbad\t0\t200\n"
        )
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "a" / "run"
        assert main(["segment", "--corpus", str(root), "--out", str(out)]) == 0
        written = [path for path in tmp_path.rglob("*") if path not in before]
        corpus = out / "corpus"
        assert sorted(written) == [
            tmp_path / "a", out, out / "config.json", corpus, corpus / "manifest.tsv",
            corpus / TRANSCRIPTS_NAME, out / "run.log",
        ]
        loaded = read_corpus(corpus)
        assert loaded.doc_ids == ("ok", doc_id)
        assert loaded.texts == ["good", "bad"]

    def test_run_log_closed_when_command_returns(self, tmp_path, generated):
        out = tmp_path / "g"
        assert main(["segment", "--corpus", str(generated / "corpus"), "--out", str(out)]) == 0
        before = (out / "run.log").read_text()
        logging.getLogger("opinionchain.training").warning("a later library fit")
        assert (out / "run.log").read_text() == before


class TestTrainPredict:
    def test_train_then_predict_reproduces_training_predictions(self, tmp_path, generated):
        cfg = train_config_file(tmp_path, generated)
        t_dir = tmp_path / "t"
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg]
        )
        assert rc == 0
        model = t_dir / "model.json"
        assert model.exists()
        assert json.loads((t_dir / "config.json").read_text())["command"] == "train"

        p_dir = tmp_path / "p"
        rc = main(
            ["predict", "--model", str(model), "--corpus", str(generated / "corpus"), "--out", str(p_dir)]
        )
        assert rc == 0
        lines = (p_dir / "predictions.tsv").read_text().splitlines()
        assert lines[0] == "predictions/v1"
        assert lines[1] == "doc_id\tpredicted\tp_negative\tp_positive"
        assert len(lines) == 2 + 16

        # library-level re-prediction must agree bitwise with the file
        from opinionchain.archive import load_archive
        from opinionchain.corpus import read_corpus

        loaded = load_archive(model)
        for row, doc in zip(lines[2:], split_documents(read_corpus(generated / "corpus"))):
            doc_id, predicted, p_neg, p_pos = row.split("\t")
            posterior = loaded.posteriors(doc)[0]
            assert (doc_id,) == doc.doc_ids
            assert predicted == loaded.label_names[int(posterior.argmax())]
            assert p_neg == repr(float(posterior[0]))
            assert p_pos == repr(float(posterior[1]))

    def test_train_logreg(self, tmp_path, generated):
        cfg = train_config_file(tmp_path, generated)
        t_dir = tmp_path / "tl"
        rc = main(
            [
                "train", "--corpus", str(generated / "corpus"), "--out", str(t_dir),
                "--config", cfg, "--model", "logreg",
            ]
        )
        assert rc == 0
        doc = json.loads((t_dir / "model.json").read_text())
        assert doc["kind"] == "logreg"

    def test_train_logreg_selects_from_c_grid_like_evaluate(self, tmp_path, generated):
        cfg = json.loads(Path(train_config_file(tmp_path, generated)).read_text())
        cfg["logreg"] = {"c_grid": [0.1, 10.0]}
        cfg = write_config(tmp_path, cfg, "grid.json")
        common = ["--corpus", str(generated / "corpus"), "--config", cfg, "--model", "logreg"]
        t_dir, e_dir = tmp_path / "t", tmp_path / "e"
        assert main(["train", "--out", str(t_dir)] + common) == 0
        assert main(["evaluate", "--out", str(e_dir), "--folds", "2"] + common) == 0
        archive = json.loads((t_dir / "model.json").read_text())
        assert archive["kind"] == "logreg"
        assert archive["model"]["c"] in (0.1, 10.0)
        blocks = [json.loads((d / "config.json").read_text())["logreg"] for d in (t_dir, e_dir)]
        assert blocks[0] == blocks[1] == {"c_grid": [0.1, 10.0], "seed": 0}

    def test_unconverged_fit_logs_a_warning(self, tmp_path, generated):
        cfg = train_config_file(tmp_path, generated, {"max_iterations": 1})
        common = ["--corpus", str(generated / "corpus"), "--config", cfg]
        t_dir, e_dir = tmp_path / "t", tmp_path / "e"
        assert main(["train", "--out", str(t_dir)] + common) == 0
        assert main(["evaluate", "--out", str(e_dir), "--folds", "2"] + common) == 0
        line = "WARNING opinionchain.training: hcrf training max_iterations after 1 iterations"
        for out, fits in ((t_dir, 1), (e_dir, 2)):
            log = (out / "run.log").read_text().splitlines()
            assert len([entry for entry in log if entry.startswith(line)]) == fits
            assert not [entry for entry in log if "INFO opinionchain.training" in entry]

    def test_predict_missing_model(self, tmp_path, generated, capsys):
        rc = main(
            [
                "predict", "--model", str(tmp_path / "no_model.json"),
                "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "p"),
            ]
        )
        assert rc == 1
        assert "no_model.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key", [("pipeline", "schema"), ("model", "theta_obs")]
    )
    def test_broken_archive_fails_with_one_error_line(
        self, tmp_path, generated, capsys, section, key
    ):
        cfg = train_config_file(tmp_path, generated)
        t_dir = tmp_path / "t"
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg]
        )
        assert rc == 0
        model = t_dir / "model.json"
        doc = json.loads(model.read_text())
        del doc[section][key]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            ["predict", "--model", str(model), "--corpus", str(generated / "corpus"),
             "--out", str(tmp_path / "p")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {model}: malformed archive (1 problem(s))"
        ]
        assert f"missing key '{section}.{key}'" in err

    @pytest.mark.parametrize("part", ["theta_obs", "standardizer", "vocabulary"])
    def test_default_archive_of_mismatched_widths_fails_with_one_error_line(
        self, tmp_path, generated, capsys, part
    ):
        """One column fewer in any part of a default-block archive is
        caught when it loads, not at the first document."""
        cfg = write_config(tmp_path, {"training": {"num_hidden_states": 2, "max_iterations": 5}})
        t_dir = tmp_path / "t"
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg]
        )
        assert rc == 0
        model = t_dir / "model.json"
        doc = json.loads(model.read_text())
        if part == "theta_obs":
            for row in doc["model"]["theta_obs"]:
                row.pop()
        elif part == "standardizer":
            doc["pipeline"]["standardizer"]["mean"].pop()
            doc["pipeline"]["standardizer"]["std"].pop()
        else:
            doc["pipeline"]["vocabulary"]["terms"].pop()
            doc["pipeline"]["vocabulary"]["doc_freq"].pop()
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            ["predict", "--model", str(model), "--corpus", str(generated / "corpus"),
             "--out", str(tmp_path / "p")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {model}: malformed archive (1 problem(s))"
        ]
        assert "schema dim" in err and "Traceback" not in err

    @pytest.mark.parametrize("order, config_order", [(0, None), (-5, None), (2, None), (0, 0)])
    def test_bad_vocabulary_order_fails_with_one_error_line(
        self, tmp_path, generated, capsys, order, config_order
    ):
        """An archive whose n-gram order is below 1, or is not the one its
        configuration fitted, is refused when it loads; with the order
        unchecked, predict wrote an empty bong row for every document."""
        cfg = write_config(tmp_path, {"training": {"num_hidden_states": 2, "max_iterations": 5}})
        t_dir = tmp_path / "t"
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg]
        )
        assert rc == 0
        model = t_dir / "model.json"
        doc = json.loads(model.read_text())
        doc["pipeline"]["vocabulary"]["max_order"] = order
        problem = (
            f"'pipeline.vocabulary.max_order' is {order}, "
            "but 'pipeline.config.bong_max_order' is 3"
        )
        if config_order is not None:
            doc["pipeline"]["config"]["bong_max_order"] = config_order
            problem = "malformed archive: max_order must be >= 1"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            ["predict", "--model", str(model), "--corpus", str(generated / "corpus"),
             "--out", str(tmp_path / "p")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "p" / "predictions.tsv").exists()

    def test_non_finite_offset_row_fails_with_one_error_line(self, tmp_path, generated, capsys):
        """A standardizer whose std is positive but so small that -mean/std
        overflows gives a non-finite bong offset row: checked once, when
        the archive's pipeline is built."""
        cfg = write_config(tmp_path, {"training": {"num_hidden_states": 2, "max_iterations": 5}})
        t_dir = tmp_path / "t"
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg]
        )
        assert rc == 0
        model = t_dir / "model.json"
        doc = json.loads(model.read_text())
        doc["pipeline"]["standardizer"]["mean"][0] = 1.0
        doc["pipeline"]["standardizer"]["std"][0] = 5e-324
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            ["predict", "--model", str(model), "--corpus", str(generated / "corpus"),
             "--out", str(tmp_path / "p")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {model}: malformed archive: "
            "the standardizer's bong offset row, -mean/std, is not finite"
        ]

    @pytest.mark.parametrize("names", [["negative"], [0, 1], ["neg", "neu", "pos"]])
    def test_bad_label_names_fail_with_one_error_line(self, tmp_path, generated, capsys, names):
        cfg = train_config_file(tmp_path, generated)
        t_dir = tmp_path / "t"
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg]
        )
        assert rc == 0
        model = t_dir / "model.json"
        doc = json.loads(model.read_text())
        doc["label_names"] = names
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            ["predict", "--model", str(model), "--corpus", str(generated / "corpus"),
             "--out", str(tmp_path / "p")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {model}: malformed archive (1 problem(s))"
        ]
        assert "'label_names'" in err and "Traceback" not in err

    def test_bad_feature_block_fails(self, tmp_path, generated, capsys):
        rc = main(
            [
                "train", "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "t"),
                "--features", "bong,nonsense",
            ]
        )
        assert rc == 1
        assert "nonsense" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_written_and_reproducible(self, tmp_path, generated):
        cfg = train_config_file(tmp_path, generated)
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            rc = main(
                [
                    "evaluate", "--corpus", str(generated / "corpus"), "--out", str(out),
                    "--config", cfg, "--model", "logreg", "--folds", "2", "--seed", "3",
                ]
            )
            assert rc == 0
            outs.append(out)
        for fname in ("report.txt", "report.json", "config.json", "run.log"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        report = json.loads((outs[0] / "report.json").read_text())
        assert report["format"] == "metrics-report/v1"
        assert len(report["folds"]) == 2
        text = (outs[0] / "report.txt").read_text()
        assert text.startswith("metrics-report/v1\n")

    def test_failed_rerun_logs_its_error_line_last_in_run_log(self, tmp_path, generated, capsys):
        """A command that fails after opening its run.log records there
        the error line it prints, as the log's last record."""
        cfg = train_config_file(tmp_path, generated)
        out = tmp_path / "e"
        argv = ["evaluate", "--corpus", str(generated / "corpus"), "--out", str(out),
                "--config", cfg, "--model", "logreg"]
        assert main(argv + ["--folds", "2"]) == 0
        capsys.readouterr()
        assert main(argv + ["--folds", "500"]) == 1
        errors = error_lines(capsys)
        assert errors == ["error: class 0 has 8 members, fewer than k=500"]
        log = (out / "run.log").read_text().splitlines()
        assert log[-1] == f"ERROR opinionchain.cli: {errors[0]}"
        assert sum(line.startswith("ERROR") for line in log) == 1

    def test_unlabeled_corpus_fails(self, tmp_path, capsys):
        docs = [make_transcript(doc_id=f"d{i}", valences=None) for i in range(4)]
        corpus_dir = tmp_path / "c"
        save_corpus(columns(docs), corpus_dir)
        rc = main(
            ["evaluate", "--corpus", str(corpus_dir), "--out", str(tmp_path / "e")]
        )
        assert rc == 1
        assert "labeled" in capsys.readouterr().err


class TestConfigFile:
    @pytest.mark.parametrize(
        "doc, model, section",
        [
            ({"pipeline": 5}, "hcrf", "pipeline"),
            ({"logreg": [1]}, "logreg", "logreg"),
            ({"evaluate": 3}, "hcrf", "evaluate"),
            ({"logreg": {"c_grid": 5}}, "logreg", "logreg"),
            ({"evaluate": {"folds": "x"}}, "hcrf", "evaluate"),
            ({"training": {"num_hidden_states": "3"}}, "hcrf", "training"),
            ({"pipeline": {"threshold_ms": "x"}}, "hcrf", "pipeline"),
        ],
    )
    def test_mistyped_section_fails_with_one_error_line(
        self, tmp_path, generated, capsys, doc, model, section
    ):
        cfg = write_config(tmp_path, doc)
        rc = main(
            ["evaluate", "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "e"),
             "--config", cfg, "--model", model]
        )
        assert rc == 1
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert section in errors[0]

    def test_mistyped_sections_listed_together(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pipeline": 5, "logreg": [1], "bogus": {}})
        rc = main(["generate", "--out", str(tmp_path / "g"), "--config", cfg])
        assert rc == 1
        [error] = error_lines(capsys)
        assert "['logreg', 'pipeline']" in error
        assert "bogus" in error

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_logreg_c_key_rejected_naming_c_grid(self, tmp_path, generated, capsys, command):
        cfg = write_config(tmp_path, {"logreg": {"c": 1.0}})
        rc = main(
            [command, "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "o"),
             "--config", cfg, "--model", "logreg"]
        )
        assert rc == 1
        [error] = error_lines(capsys)
        assert "'c'" in error
        assert "c_grid" in error


    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "model, doc, key",
        [
            ("logreg", {"training": {"num_hiden_states": 3}}, "num_hiden_states"),
            ("hcrf", {"logreg": {"cc_grid": [1]}}, "cc_grid"),
        ],
    )
    def test_other_model_section_is_checked(
        self, tmp_path, generated, capsys, command, model, doc, key
    ):
        cfg = write_config(tmp_path, doc)
        rc = main(
            [command, "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "o"),
             "--config", cfg, "--model", model]
        )
        assert rc == 1
        [error] = error_lines(capsys)
        assert key in error

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"pipeline": {"bong_max_order": 2.5}}, "bong_max_order"),
            ({"training": {"num_hidden_states": 2.5}}, "num_hidden_states"),
            ({"pipeline": {"threshold_ms": True}}, "threshold_ms"),
        ],
    )
    def test_value_of_the_wrong_type_fails_with_one_error_line(
        self, tmp_path, generated, capsys, doc, key
    ):
        cfg = write_config(tmp_path, doc)
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "o"),
             "--config", cfg]
        )
        assert rc == 1
        [error] = error_lines(capsys)
        assert f"{key} must be an integer" in error

    def test_tag_set_leaving_out_a_lexicon_tag_names_tag_set(self, tmp_path, generated, capsys):
        """The packaged tagger lexicon is not to blame: the error names the
        configured ``tag_set``, the tags it leaves out and the lexicon."""
        cfg = write_config(tmp_path, {"pipeline": {"tag_set": []}})
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "o"),
             "--config", cfg]
        )
        assert rc == 1
        [error] = error_lines(capsys)
        assert error.startswith("error: tag_set () leaves out tags ['")
        assert error.endswith("tagger_lexicon.tsv")

    def test_negative_training_seed_fails_with_one_error_line(self, tmp_path, generated, capsys):
        cfg = write_config(tmp_path, {"training": {"seed": -1}})
        rc = main(
            ["train", "--corpus", str(generated / "corpus"), "--out", str(tmp_path / "o"),
             "--config", cfg]
        )
        assert rc == 1
        [error] = error_lines(capsys)
        assert "seed must be >= 0" in error


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
def test_negative_seed_option_is_a_usage_error(tmp_path, capsys, command):
    argv = [command, "--out", str(tmp_path / "o"), "--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ([] if command == "generate" else ["--corpus", "c"]))
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the keys of each config section, and values of every JSON type for them
_SECTION_KEYS = {
    "pipeline": [f.name for f in dataclasses.fields(PipelineConfig)],
    "training": [f.name for f in dataclasses.fields(TrainingConfig)],
    "generator": [f.name for f in dataclasses.fields(SyntheticSpec)],
    "logreg": ["c_grid"],
    "evaluate": ["folds"],
}
_VALUE = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.sampled_from((0.5, 2.5, -1.0, 1e300, float("nan"), float("inf")))
    | st.text(alphabet="ab", max_size=2)
    | st.lists(
        st.sampled_from(("bong", "pattern", "embedding", "NOUN", "a", 1, 0.5, float("nan"), None)),
        max_size=3,
    )
    | st.dictionaries(st.just("a"), st.integers(0, 2), max_size=1)
)


@st.composite
def fuzzed_config(draw, base):
    """``base`` with a few keys set to values of any type or dropped,
    now and then an unknown key or section, or a section or the whole
    file that is not an object."""
    doc = json.loads(json.dumps(base))
    now_and_then = st.integers(0, 19).map(lambda n: n == 19)
    for _ in range(draw(st.integers(1, 3))):
        name = "bogus" if draw(now_and_then) else draw(st.sampled_from(sorted(_SECTION_KEYS)))
        section = doc.setdefault(name, {})
        if draw(now_and_then) or not isinstance(section, dict):
            doc[name] = draw(_VALUE)
            continue
        keys = _SECTION_KEYS.get(name, ["a"])
        key = "bogus" if draw(now_and_then) else draw(st.sampled_from(keys))
        if draw(st.booleans()):
            section[key] = draw(_VALUE)
        else:
            section.pop(key, None)
    return [doc] if draw(now_and_then) else doc


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_fuzzed_config_fails_only_with_one_error_line(tmp_path, generated, data):
    """A config file with values of any type in any section: the command
    either runs or prints one ``error:`` line and exits 1."""
    base = {
        "generator": {"num_docs_per_label": 3, "min_segments": 2, "max_segments": 3},
        "pipeline": {"embedding_path": str(generated / "embeddings.txt")},
        "training": {"max_iterations": 5},
        "evaluate": {"folds": 2},
    }
    cfg = write_config(tmp_path, data.draw(fuzzed_config(base)))
    command = data.draw(st.sampled_from(("generate", "train", "evaluate")))
    argv = [command, "--out", str(tmp_path / "o"), "--config", cfg]
    if command != "generate":
        argv += ["--corpus", str(generated / "corpus")]
        argv += ["--model", data.draw(st.sampled_from(("hcrf", "logreg")))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1)
    if rc:
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "--corpus", "c"],
        ["predict", "--model", "m.json", "--corpus", "c"],
        ["inspect", "--model", "m.json"],
    ],
)
@pytest.mark.parametrize("option", [["--config", "absent.json"], ["--seed", "3"]])
def test_commands_reject_options_they_do_not_read(tmp_path, capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")] + option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestInspect:
    def test_state_report_files(self, tmp_path, generated):
        cfg = train_config_file(tmp_path, generated)
        t_dir = tmp_path / "t"
        assert (
            main(["train", "--corpus", str(generated / "corpus"), "--out", str(t_dir), "--config", cfg])
            == 0
        )
        i_dir = tmp_path / "i"
        rc = main(
            [
                "inspect", "--model", str(t_dir / "model.json"),
                "--corpus", str(generated / "corpus"), "--out", str(i_dir), "--top-k", "3",
            ]
        )
        assert rc == 0
        text = (i_dir / "state_report.txt").read_text()
        assert text.startswith("state-report/v1\n")
        doc = json.loads((i_dir / "state_report.json").read_text())
        assert doc["format"] == "state-report/v1"
        assert len(doc["states"]) == 2

    def test_windowed_archive_reports_offset_names(self, tmp_path):
        """A context-window-1 archive's (2w+1) D columns are named by their
        neighbour offset."""
        model = Path(__file__).resolve().parent / "data" / "window1_archive.json"
        rc = main(["inspect", "--model", str(model), "--out", str(tmp_path / "i")])
        assert rc == 0
        doc = json.loads((tmp_path / "i" / "state_report.json").read_text())
        names = [name for state in doc["states"] for name, _ in state["top_features"]]
        assert names and all(re.search(r"@(-1|0|\+1)$", name) for name in names)

    def test_logreg_archive_rejected(self, tmp_path, generated, capsys):
        cfg = train_config_file(tmp_path, generated)
        t_dir = tmp_path / "tl"
        assert (
            main(
                [
                    "train", "--corpus", str(generated / "corpus"), "--out", str(t_dir),
                    "--config", cfg, "--model", "logreg",
                ]
            )
            == 0
        )
        rc = main(
            ["inspect", "--model", str(t_dir / "model.json"), "--out", str(tmp_path / "i")]
        )
        assert rc == 1
        assert "hcrf" in capsys.readouterr().err
