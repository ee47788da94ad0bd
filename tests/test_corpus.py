import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.corpus import (
    TRANSCRIPT_VERSION,
    corpus_stats,
    filter_neutral,
    polarity,
    read_corpus,
    save_corpus,
)
from opinionchain.errors import FileFormatError

from conftest import columns, make_transcript, same_columns, split_documents


def sample_corpus():
    return columns([
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
    ])


def _write_corpus(root, starts, ends, doc_id="d1"):
    """A one-document corpus at ``root`` whose tokens a, b, c, ... have
    the time fields ``starts`` and ``ends``, and its transcript file."""
    save_corpus(make_transcript(doc_id, "abcdefgh"[: len(starts)], valences=(4.0,)), root)
    path = root / f"{doc_id}.txt"
    lines = [TRANSCRIPT_VERSION] + [
        f"token\t{doc_id}\t{text}\t{start}\t{end}"
        for text, start, end in zip("abcdefgh", starts, ends)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def _problems(root):
    with pytest.raises(FileFormatError) as err:
        read_corpus(root)
    return err.value.problems


class TestTranscript:
    """The token-time rule of transcript files, and the label rule."""

    def test_non_monotone_times_rejected(self, tmp_path):
        path = _write_corpus(tmp_path / "c", (0, 200), (300, 400))
        assert _problems(tmp_path / "c") == [
            (str(path), 0, "d1: token times not non-decreasing at 'b'")
        ]

    def test_token_end_before_start_rejected(self, tmp_path):
        path = _write_corpus(tmp_path / "c", (500,), (100,))
        assert _problems(tmp_path / "c") == [(str(path), 2, "endMs 100 < startMs 500")]

    @pytest.mark.parametrize(
        "starts, ends, found",
        [
            ((0, 200), (300, 100), [(3, "endMs 100 < startMs 200")]),
            ((0, 200, 400), (300, 350, 350), [
                (0, "d1: token times not non-decreasing at 'b'"),
                (4, "endMs 350 < startMs 400"),
            ]),
            ((0, 500, 200), (300, 100, 250), [
                (0, "d1: token times not non-decreasing at 'c'"),
                (3, "endMs 100 < startMs 500"),
            ]),
            ((0, 200, 250), (300, 400, 500), [(0, "d1: token times not non-decreasing at 'b'")]),
        ],
        ids=["bad-end-at-its-line", "overlap-and-bad-end", "overlap-after-bad-end", "two-overlaps"],
    )  # fmt: skip
    def test_the_first_offending_token_is_named(self, tmp_path, starts, ends, found):
        """A record that ends before it starts is reported at its line and
        left out; of the rest, the first token that starts before the
        previous one ends is named, at line 0."""
        path = _write_corpus(tmp_path / "c", starts, ends)
        assert sorted(_problems(tmp_path / "c")) == [(str(path), *where) for where in found]

    @pytest.mark.parametrize(
        "starts, ends",
        [
            (("0", "1.5"), ("1", "2")),
            (("0.0",), ("1.0",)),
            (("'0'",), ("'1'",)),
            (("True",), ("True",)),
            (("0",), (str(2**63),)),
            (("0",), (str(2**64 - 1),)),
        ],
    )
    def test_times_that_are_not_integers_rejected(self, tmp_path, starts, ends):
        """A float time is not truncated, a quoted number or a bool not
        parsed, and a time outside int64, even one that fits uint64, not
        wrapped: a field that is no integer at its line, and an integer
        outside int64 at line 0."""
        path = _write_corpus(tmp_path / "c", starts, ends)
        [(where, line, message)] = _problems(tmp_path / "c")
        parsed = [s.isdigit() and e.isdigit() for s, e in zip(starts, ends)]
        if all(parsed):
            assert (where, line) == (str(path), 0)
            assert message.startswith("d1: token times must be int64: ")
        else:  # the first token record with a field that is no integer
            assert (where, line) == (str(path), parsed.index(False) + 2)
            assert "is not an integer" in message

    def test_valence_range_enforced(self, tmp_path):
        """Every annotator's valence is in [1, 5], each bad line listed."""
        root = tmp_path / "c"
        docs = [make_transcript(f"d{i}", ("a",), valences=(2.0,)) for i in range(3)]
        save_corpus(columns(docs), root)
        manifest = root / "manifest.tsv"
        text = manifest.read_text().replace("d0.txt\t2", "d0.txt\t0.5")
        manifest.write_text(text.replace("d2.txt\t2", "d2.txt\t2,6"))
        assert _problems(root) == [
            (str(manifest), 3, "valence 0.5 outside [1, 5]"),
            (str(manifest), 5, "valence 6.0 outside [1, 5]"),
        ]

    def test_polarity_derivation(self):
        assert polarity((1.0,)) == 0
        assert polarity((5.0,)) == 1
        assert polarity((3.0,)) is None
        assert polarity((2.0, 4.0)) is None  # mean 3.0
        assert polarity((4.0, 5.0)) == 1
        assert polarity(None) is None


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        corpus = sample_corpus()
        save_corpus(corpus, tmp_path / "c")
        assert same_columns(read_corpus(tmp_path / "c"), corpus)

    def test_ipu_index_column_is_ignored_on_load(self, tmp_path):
        corpus = columns(
            [make_transcript("d1", ("a", "b", "c"), gaps=[100, 500]), make_transcript("d2", ("d",))]
        )
        save_corpus(corpus, tmp_path / "c", ipu_index=np.array([0, 0, 1, 0]))
        assert (tmp_path / "c" / "d1.txt").read_text().splitlines()[1:] == [
            "token\td1\ta\t0\t200\t0", "token\td1\tb\t300\t500\t0", "token\td1\tc\t1000\t1200\t1"
        ]
        assert same_columns(read_corpus(tmp_path / "c"), corpus)


class TestLoadValidation:
    def test_empty_directory_loads_empty(self, tmp_path):
        (tmp_path / "c").mkdir()
        assert same_columns(read_corpus(tmp_path / "c"), columns([]))

    def test_out_of_range_valence_reported_with_line(self, tmp_path):
        root = tmp_path / "c"
        save_corpus(make_transcript("d1", ("a",), valences=(2.0,)), root)
        manifest = root / "manifest.tsv"
        manifest.write_text(
            manifest.read_text().replace("d1\td1.txt\t2", "d1\td1.txt\t7")
        )
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
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
            read_corpus(root)
        assert len(err.value.problems) == 3  # bad valence + bad int + short row
        rendered = str(err.value)
        assert "d1.txt" in rendered and "manifest.tsv" in rendered

    def test_missing_version_line_rejected(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text("doc_id\tfile\tvalence\n")
        with pytest.raises(FileFormatError):
            read_corpus(root)

    def test_missing_transcript_file_reported(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text(
            "corpus-manifest/v1\ndoc_id\tfile\tvalence\nd1\tgone.txt\t4\n"
        )
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
        assert any("missing" in msg for _, _, msg in err.value.problems)

    def test_unreadable_transcript_file_reported(self, tmp_path):
        root = tmp_path / "c"
        save_corpus(columns([make_transcript("d1", ("a",)), make_transcript("d2", ("b",))]), root)
        (root / "d1.txt").unlink()
        (root / "d1.txt").mkdir()
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
        assert [(path, line) for path, line, _ in err.value.problems] == [(str(root / "d1.txt"), 0)]
        assert "cannot read the file" in err.value.problems[0][2]


    def test_token_ending_before_it_starts_reported_at_its_line(self, tmp_path):
        root = tmp_path / "c"
        save_corpus(columns([make_transcript("a", ("x",)), make_transcript("b", ("u", "v"))]), root)
        path = root / "b.txt"
        path.write_text(path.read_text().replace("\t0\t200", "\t0\t-5"))
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
        assert err.value.problems == [(str(path), 2, "endMs -5 < startMs 0")]

    def test_every_document_with_bad_times_reported(self, tmp_path):
        root = tmp_path / "c"
        docs = [make_transcript("a", ("x", "y")), make_transcript("b", ("u", "v"))]
        save_corpus(columns(docs), root)
        for name in ("a", "b"):  # the second token starts inside the first
            path = root / f"{name}.txt"
            path.write_text(path.read_text().replace("\t300\t500", "\t100\t500"))
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
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
    "underscored_time",
    "spaced_time",
    "signed_time",
    "non_ascii_digit_time",
    "signed_marker_time",
    "overlapping_times",
    "unknown_record_kind",
    "transcript_not_utf8",
    "manifest_file_nul",
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
        elif mutation == "manifest_file_nul":  # no file can have this name
            lines[lineno - 1] = f"{doc}\t{file}\0\t{valence}"
            where = (str(manifest), lineno)
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
    lines = transcript.read_text(encoding="utf-8").splitlines()
    if mutation == "signed_marker_time":  # the marker, after the three tokens
        assert lines[4] == f"marker\t{doc_id}\t*chuckling*\t250"
        lines[4] = lines[4].replace("\t250", "\t+250")
        transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return (str(transcript), 5)
    parts = lines[2].split("\t")  # the second token, on line 3, from 300 to 500 ms
    # int() takes each of the next four times, which are not integers
    # of the format: an optional "-" and ASCII digits
    if mutation == "underscored_time":
        parts[4] = "5_00"
    elif mutation == "spaced_time":
        parts[3] = " 300 "
    elif mutation == "signed_time":
        parts[3] = "+300"
    elif mutation == "non_ascii_digit_time":
        parts[4] = "\u0665\u0660\u0660"  # 500 in Arabic-Indic digits
    elif mutation == "text_time_swapped":
        parts[2], parts[3] = parts[3], parts[2]
    elif mutation == "non_integer_time":
        parts[4] = parts[4] + ".5"
    elif mutation == "overlapping_times":
        parts[3] = lines[1].split("\t")[3]  # starts with the first token
    else:
        parts[0] = "tokn"
    lines[2] = "\t".join(parts)
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return (str(transcript), 0 if mutation == "overlapping_times" else 3)


class TestLoaderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=6))
    def test_only_file_format_errors_listing_every_injected_problem(self, mutations):
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
            expected = sorted(
                _mutate(root, i, doc_id, mutation)
                for i, (doc_id, mutation) in enumerate(zip(corpus.doc_ids, mutations))
                if mutation
            )
            try:
                loaded = read_corpus(root)
            except FileFormatError as exc:
                assert sorted((path, line) for path, line, _ in exc.problems) == expected
                assert str(exc).startswith(f"{len(expected)} malformed record(s) in {root}")
            else:
                assert expected == []
                assert same_columns(loaded, corpus)


class TestFilterNeutral:
    def test_keeps_only_polar_documents(self):
        corpus = sample_corpus()
        kept = filter_neutral(corpus)
        assert kept.doc_ids == ("neg1", "pos1")
        assert [polarity(valences) for valences in kept.valences] == [0, 1]
        docs = split_documents(corpus)
        assert same_columns(kept, columns([docs[0], docs[2]]))

    def test_idempotent(self):
        once = filter_neutral(sample_corpus())
        assert same_columns(filter_neutral(once), once)

    def test_all_neutral_gives_empty(self):
        corpus = make_transcript("n", ("x",), valences=(3.0,))
        assert same_columns(filter_neutral(corpus), columns([]))


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
