import pytest

from opinionchain.corpus import (
    Transcript,
    TranscriptToken,
    corpus_stats,
    filter_neutral,
    load_corpus,
    save_corpus,
)
from opinionchain.errors import FileFormatError, InvalidInputError

from conftest import make_transcript


def sample_corpus():
    return [
        make_transcript("neg1", ("terrible", "movie"), valences=(1.0,)),
        make_transcript("neu1", ("saw", "it"), valences=(3.0,)),
        make_transcript(
            "pos1",
            ("great", "stuff"),
            valences=(4.0, 5.0),
            markers=[("*chuckling*", 150)],
        ),
        make_transcript("mixed", ("fine",), valences=(2.0, 4.0)),
        make_transcript("unlabeled", ("hello",), valences=None),
    ]


class TestTranscript:
    def test_non_monotone_times_rejected(self):
        with pytest.raises(InvalidInputError):
            Transcript(
                "d",
                (TranscriptToken("a", 0, 300), TranscriptToken("b", 200, 400)),
            )

    def test_token_end_before_start_rejected(self):
        with pytest.raises(InvalidInputError):
            Transcript("d", (TranscriptToken("a", 500, 100),))

    def test_valence_range_enforced(self):
        with pytest.raises(InvalidInputError):
            make_transcript(valences=(7.0,))

    def test_polarity_derivation(self):
        assert make_transcript(valences=(1.0,)).polarity == 0
        assert make_transcript(valences=(5.0,)).polarity == 1
        assert make_transcript(valences=(3.0,)).polarity is None
        assert make_transcript(valences=(2.0, 4.0)).polarity is None  # mean 3.0
        assert make_transcript(valences=(4.0, 5.0)).polarity == 1
        assert make_transcript(valences=None).polarity is None


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        corpus = sample_corpus()
        save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert loaded == corpus

    def test_ipu_index_column_is_ignored_on_load(self, tmp_path):
        corpus = [make_transcript("d1", ("a", "b", "c"), gaps=[100, 500])]
        save_corpus(corpus, tmp_path / "c", ipu_index={"d1": [0, 0, 1]})
        assert load_corpus(tmp_path / "c") == corpus


class TestLoadValidation:
    def test_empty_directory_loads_empty(self, tmp_path):
        (tmp_path / "c").mkdir()
        assert load_corpus(tmp_path / "c") == []

    def test_out_of_range_valence_reported_with_line(self, tmp_path):
        root = tmp_path / "c"
        save_corpus([make_transcript("d1", ("a",), valences=(2.0,))], root)
        manifest = root / "manifest.tsv"
        manifest.write_text(
            manifest.read_text().replace("d1\td1.txt\t2", "d1\td1.txt\t7")
        )
        with pytest.raises(FileFormatError) as err:
            load_corpus(root)
        assert any(line == 3 and "7" in msg for _, line, msg in err.value.problems)

    def test_all_malformed_records_reported_at_once(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text(
            "corpus-manifest/v1\ndoc_id\tfile\tvalence\n"
            "d1\td1.txt\t4\nd2\td2.txt\t9\n"
        )
        (root / "d1.txt").write_text(
            "transcript/v1\ntoken\td1\thello\tzero\t100\ntoken\td1\tworld\n"
        )
        with pytest.raises(FileFormatError) as err:
            load_corpus(root)
        assert len(err.value.problems) == 3  # bad valence + bad int + short row
        rendered = str(err.value)
        assert "d1.txt" in rendered and "manifest.tsv" in rendered

    def test_missing_version_line_rejected(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text("doc_id\tfile\tvalence\n")
        with pytest.raises(FileFormatError):
            load_corpus(root)

    def test_missing_transcript_file_reported(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text(
            "corpus-manifest/v1\ndoc_id\tfile\tvalence\nd1\tgone.txt\t4\n"
        )
        with pytest.raises(FileFormatError) as err:
            load_corpus(root)
        assert any("missing" in msg for _, _, msg in err.value.problems)


class TestFilterNeutral:
    def test_keeps_only_polar_documents(self):
        kept = filter_neutral(sample_corpus())
        assert [d.doc_id for d in kept] == ["neg1", "pos1"]
        assert [d.polarity for d in kept] == [0, 1]

    def test_idempotent(self):
        once = filter_neutral(sample_corpus())
        assert filter_neutral(once) == once

    def test_all_neutral_gives_empty(self):
        corpus = [make_transcript("n", ("x",), valences=(3.0,))]
        assert filter_neutral(corpus) == []


class TestStats:
    def test_counts(self):
        stats = corpus_stats(sample_corpus())
        assert stats.document_count == 5
        assert stats.class_counts == {
            "negative": 1,
            "neutral": 2,
            "positive": 1,
            "unlabeled": 1,
        }
        assert stats.word_count == 2 + 2 + 2 + 1 + 1
