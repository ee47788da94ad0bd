import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.corpus import (
    Transcript,
    corpus_stats,
    filter_neutral,
    load_corpus,
    polarity,
    save_corpus,
)
from opinionchain.errors import FileFormatError, InvalidInputError

from conftest import columns, make_transcript


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
        with pytest.raises(InvalidInputError, match="not non-decreasing at 'b'"):
            Transcript("d", ("a", "b"), (0, 200), (300, 400))

    def test_token_end_before_start_rejected(self):
        with pytest.raises(InvalidInputError, match="token 'a' ends before it starts"):
            Transcript("d", ("a",), (500,), (100,))

    @pytest.mark.parametrize(
        "starts, ends, message",
        [
            ((0, 200), (300, 100), "token 'b' ends before it starts"),
            ((0, 200, 400), (300, 350, 350), "token times not non-decreasing at 'b'"),
            ((0, 300, 400), (300, 250, 350), "token 'b' ends before it starts"),
        ],
    )
    def test_the_first_offending_token_is_named(self, starts, ends, message):
        """Token by token, an end before its start is found before a
        start before the previous end."""
        with pytest.raises(InvalidInputError, match=f"^d: {message}$"):
            Transcript("d", ("a", "b", "c")[: len(starts)], starts, ends)

    @pytest.mark.parametrize(
        "starts, ends",
        [
            ((0, 1.5), (1, 2)),
            ((0.0,), (1.0,)),
            (("0",), ("1",)),
            ((True,), (True,)),
            ((0,), (2**63,)),
            (np.array([0], dtype=np.uint64), np.array([1], dtype=np.uint64)),
        ],
    )
    def test_times_that_are_not_integers_rejected(self, starts, ends):
        """A float time is not truncated, a numeric string not parsed,
        and an unsigned one that may not fit int64 not wrapped."""
        with pytest.raises(InvalidInputError, match="^d: token times must be int64"):
            Transcript("d", ("a",) * len(starts), starts, ends)

    def test_narrower_integer_times_and_no_tokens_accepted(self):
        doc = Transcript("d", ("a",), np.array([5], dtype=np.uint16), np.array([9], np.int32))
        assert doc.starts.dtype == doc.ends.dtype == np.int64
        assert (doc.starts.tolist(), doc.ends.tolist()) == ([5], [9])
        assert Transcript("d", (), (), []).starts.dtype == np.int64

    def test_equal_transcripts_hash_equal(self):
        """A transcript compares by content and stays hashable."""
        doc = make_transcript("d1", ("a", "b"))
        copy = Transcript(doc.doc_id, doc.texts, doc.starts.tolist(), doc.ends, doc.para_markers)
        assert copy == doc and hash(copy) == hash(doc)
        assert len({doc, copy}) == 1

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

    def test_unreadable_transcript_file_reported(self, tmp_path):
        root = tmp_path / "c"
        save_corpus([make_transcript("d1", ("a",)), make_transcript("d2", ("b",))], root)
        (root / "d1.txt").unlink()
        (root / "d1.txt").mkdir()
        with pytest.raises(FileFormatError) as err:
            load_corpus(root)
        assert [(path, line) for path, line, _ in err.value.problems] == [(str(root / "d1.txt"), 0)]
        assert "cannot read the file" in err.value.problems[0][2]


    def test_token_ending_before_it_starts_reported_at_its_line(self, tmp_path):
        root = tmp_path / "c"
        save_corpus([make_transcript("a", ("x",)), make_transcript("b", ("u", "v"))], root)
        path = root / "b.txt"
        path.write_text(path.read_text().replace("\t0\t200", "\t0\t-5"))
        with pytest.raises(FileFormatError) as err:
            load_corpus(root)
        assert err.value.problems == [(str(path), 2, "endMs -5 < startMs 0")]

    def test_every_document_with_bad_times_reported(self, tmp_path):
        root = tmp_path / "c"
        save_corpus([make_transcript("a", ("x", "y")), make_transcript("b", ("u", "v"))], root)
        for name in ("a", "b"):  # the second token starts inside the first
            path = root / f"{name}.txt"
            path.write_text(path.read_text().replace("\t300\t500", "\t100\t500"))
        with pytest.raises(FileFormatError) as err:
            load_corpus(root)
        assert str(err.value).splitlines()[0] == f"2 malformed record(s) in {root}"
        assert err.value.problems == [
            (str(root / "a.txt"), 0, "a: token times not non-decreasing at 'y'"),
            (str(root / "b.txt"), 0, "b: token times not non-decreasing at 'v'"),
        ]


# Each mutation breaks one document in one way that the loader must
# report as exactly one problem, at a place known in advance.
_MUTATIONS = (
    None,
    "manifest_doc_file_swapped",
    "manifest_file_valence_swapped",
    "missing_file",
    "text_time_swapped",
    "non_integer_time",
    "overlapping_times",
    "unknown_record_kind",
    "transcript_not_utf8",
)


def _mutate(root, index, doc_id, mutation):
    """Apply ``mutation`` to document ``doc_id`` (manifest line
    ``index`` + 3) and return the (path, line) its problem is reported at."""
    manifest = root / "manifest.tsv"
    transcript = root / f"{doc_id}.txt"
    lineno = index + 3
    if mutation and mutation.startswith("manifest_"):
        lines = manifest.read_text().splitlines()
        doc, file, valence = lines[lineno - 1].split("\t")
        if mutation == "manifest_doc_file_swapped":
            lines[lineno - 1] = f"{file}\t{doc}\t{valence}"
            where = (str(root / doc), 0)  # a file named like the doc, missing
        else:
            lines[lineno - 1] = f"{doc}\t{valence}\t{file}"
            where = (str(manifest), lineno)
        manifest.write_text("\n".join(lines) + "\n")
        return where
    if mutation == "missing_file":
        transcript.unlink()
        return (str(transcript), 0)
    if mutation == "transcript_not_utf8":  # byte 0xff starts no UTF-8 sequence
        transcript.write_bytes(transcript.read_bytes().replace(b"words", b"w\xffrds"))
        return (str(transcript), 0)
    lines = transcript.read_text().splitlines()
    parts = lines[2].split("\t")  # the second token, on line 3
    if mutation == "text_time_swapped":
        parts[2], parts[3] = parts[3], parts[2]
    elif mutation == "non_integer_time":
        parts[4] = parts[4] + ".5"
    elif mutation == "overlapping_times":
        parts[3] = lines[1].split("\t")[3]  # starts with the first token
    else:
        parts[0] = "tokn"
    lines[2] = "\t".join(parts)
    transcript.write_text("\n".join(lines) + "\n")
    return (str(transcript), 0 if mutation == "overlapping_times" else 3)


class TestLoaderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=6))
    def test_only_file_format_errors_listing_every_injected_problem(self, mutations):
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
            expected = sorted(
                _mutate(root, i, doc.doc_id, mutation)
                for i, (doc, mutation) in enumerate(zip(corpus, mutations))
                if mutation
            )
            try:
                loaded = load_corpus(root)
            except FileFormatError as exc:
                assert sorted((path, line) for path, line, _ in exc.problems) == expected
                assert str(exc).startswith(f"{len(expected)} malformed record(s) in {root}")
            else:
                assert expected == []
                assert loaded == corpus


class TestFilterNeutral:
    def test_keeps_only_polar_documents(self):
        corpus = sample_corpus()
        kept = filter_neutral(columns(corpus))
        assert kept.doc_ids == ("neg1", "pos1")
        assert [polarity(valences) for valences in kept.valences] == [0, 1]
        assert kept.transcripts() == [corpus[0], corpus[2]]

    def test_idempotent(self):
        once = filter_neutral(columns(sample_corpus()))
        assert filter_neutral(once).transcripts() == once.transcripts()

    def test_all_neutral_gives_empty(self):
        corpus = [make_transcript("n", ("x",), valences=(3.0,))]
        assert filter_neutral(columns(corpus)).transcripts() == []


class TestStats:
    def test_counts(self):
        stats = corpus_stats(columns(sample_corpus()))
        assert stats.document_count == 5
        assert stats.class_counts == {
            "negative": 1,
            "neutral": 2,
            "positive": 1,
            "unlabeled": 1,
        }
        assert stats.word_count == 2 + 2 + 2 + 1 + 1
