import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain import corpus as corpus_module
from opinionchain.corpus import (
    REGION_CHARS,
    TRANSCRIPT_VERSION,
    TRANSCRIPTS_NAME,
    corpus_stats,
    filter_neutral,
    polarity,
    read_corpus,
    save_corpus,
)
from opinionchain.errors import FileFormatError, InvalidInputError

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
    path = root / TRANSCRIPTS_NAME
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
        """Every annotator's valence is in [1, 5], each bad line listed,
        and the records of a refused entry's document with it."""
        root = tmp_path / "c"
        docs = [make_transcript(f"d{i}", ("a",), valences=(2.0,)) for i in range(3)]
        save_corpus(columns(docs), root)
        manifest = root / "manifest.tsv"
        text = manifest.read_text().replace(f"d0\t{TRANSCRIPTS_NAME}\t2", f"d0\t{TRANSCRIPTS_NAME}\t0.5")
        manifest.write_text(text.replace(f"d2\t{TRANSCRIPTS_NAME}\t2", f"d2\t{TRANSCRIPTS_NAME}\t2,6"))
        assert _problems(root) == [
            (str(manifest), 3, "valence 0.5 outside [1, 5]"),
            (str(manifest), 5, "valence 6.0 outside [1, 5]"),
            (str(root / TRANSCRIPTS_NAME), 2, "doc_id 'd0' not in manifest"),
            (str(root / TRANSCRIPTS_NAME), 4, "doc_id 'd2' not in manifest"),
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
        assert (tmp_path / "c" / TRANSCRIPTS_NAME).read_text().splitlines()[1:] == [
            "token\td1\ta\t0\t200\t0", "token\td1\tb\t300\t500\t0", "token\td1\tc\t1000\t1200\t1",
            "token\td2\td\t0\t200\t0",
        ]
        assert same_columns(read_corpus(tmp_path / "c"), corpus)


class TestSave:
    """``save_corpus`` writes one transcript file, refuses what
    ``read_corpus`` could not read back, and writes all or nothing."""

    def test_one_transcript_file_tokens_then_markers(self, tmp_path):
        save_corpus(sample_corpus(), tmp_path / "c")
        assert sorted(path.name for path in (tmp_path / "c").iterdir()) == [
            "manifest.tsv", TRANSCRIPTS_NAME
        ]
        manifest = (tmp_path / "c" / "manifest.tsv").read_text().splitlines()
        assert {line.split("\t")[1] for line in manifest[2:]} == {TRANSCRIPTS_NAME}
        lines = (tmp_path / "c" / TRANSCRIPTS_NAME).read_text().splitlines()
        assert [line.split("\t")[:2] for line in lines[1:]] == [
            ["token", "neg1"], ["token", "neg1"], ["token", "neu1"], ["token", "neu1"],
            ["token", "pos1"], ["token", "pos1"], ["token", "mixed"], ["token", "unlabeled"],
            ["marker", "pos1"],
        ]

    def test_every_unreadable_field_listed_writing_nothing(self, tmp_path):
        """Ids holding a TAB or a line break, a repeated id, a token text
        holding a TAB, a lone surrogate or a U+2028, a marker that is
        not *-delimited, valences out of range, NaN or empty, and tokens
        that end before they start: one InvalidInputError names them
        all, and no file is written."""
        docs = [
            make_transcript("a\tb", ("x",), valences=(4.0,)),
            make_transcript("a\nb", ("x",), valences=(7.0,)),
            make_transcript("a\rb", ("x",), valences=(float("nan"),)),
            make_transcript("ok", ("x\ty", "\ud800", "p\u2028q"), valences=()),
            make_transcript("ok", ("x",), markers=[("chuckle", 5)]),
        ]
        corpus = columns(docs)
        corpus.ends[1] = -1  # the second document's token ends before it starts
        with pytest.raises(InvalidInputError) as err:
            save_corpus(corpus, tmp_path / "c")
        assert str(err.value).split("; ") == [
            "document id(s) holding a TAB, a line break or no UTF-8: 'a\\tb', 'a\\nb', 'a\\rb'",
            "token text(s) holding a TAB, a line break or no UTF-8: "
            "'x\\ty', '\\ud800', 'p\\u2028q'",
            "repeated document id(s): 'ok'",
            "valences empty or outside [1, 5] in document(s): 'a\\nb', 'a\\rb', 'ok'",
            "marker text(s) not *-delimited: 'chuckle'",
            "token times ending before they start or overlapping in document(s): 'a\\nb'",
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("valence", [7.0, float("nan"), float("inf"), None])
    def test_a_valence_that_would_not_read_back_refused(self, tmp_path, valence):
        valences = () if valence is None else (4.0, valence)
        with pytest.raises(InvalidInputError, match="valences empty or outside"):
            save_corpus(make_transcript("d", ("x",), valences=valences), tmp_path / "c")

    def test_rewrite_replaces_an_older_layout_whole(self, tmp_path):
        """A corpus written into a directory that holds one leaves none of
        the old files behind, per-document transcripts included."""
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.tsv").write_text("corpus-manifest/v1\ndoc_id\tfile\tvalence\n")
        (root / "old.txt").write_text("transcript/v1\n")
        save_corpus(sample_corpus(), root)
        assert sorted(path.name for path in root.iterdir()) == ["manifest.tsv", TRANSCRIPTS_NAME]
        assert same_columns(read_corpus(root), sample_corpus())
        assert [path.name for path in tmp_path.iterdir()] == ["c"]

    def test_a_failed_write_leaves_the_earlier_corpus(self, tmp_path, monkeypatch):
        root = tmp_path / "c"
        save_corpus(sample_corpus(), root)
        before = {path.name: path.read_bytes() for path in root.iterdir()}

        def full_disk(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_corpus(columns([make_transcript("other", ("z",))]), root)
        monkeypatch.undo()
        assert {path.name: path.read_bytes() for path in root.iterdir()} == before
        assert [path.name for path in tmp_path.iterdir()] == ["c"]

    @pytest.mark.parametrize("kind", ["directory", "file"])
    def test_a_target_that_is_no_corpus_is_not_replaced(self, tmp_path, kind):
        root = tmp_path / "c"
        if kind == "directory":
            root.mkdir()
            (root / "notes.txt").write_text("mine")
        else:
            root.write_text("mine")
        with pytest.raises(InvalidInputError, match="exists and is not a corpus"):
            save_corpus(sample_corpus(), root)
        assert [path.name for path in tmp_path.iterdir()] == ["c"]
        assert (root / "notes.txt" if kind == "directory" else root).read_text() == "mine"

    def test_an_empty_directory_is_written_into(self, tmp_path):
        (tmp_path / "c").mkdir()
        save_corpus(sample_corpus(), tmp_path / "c")
        assert same_columns(read_corpus(tmp_path / "c"), sample_corpus())


class TestLoadValidation:
    def test_empty_directory_loads_empty(self, tmp_path):
        (tmp_path / "c").mkdir()
        assert same_columns(read_corpus(tmp_path / "c"), columns([]))

    def test_out_of_range_valence_reported_with_line(self, tmp_path):
        root = tmp_path / "c"
        save_corpus(make_transcript("d1", ("a",), valences=(2.0,)), root)
        manifest = root / "manifest.tsv"
        manifest.write_text(
            manifest.read_text().replace(f"d1\t{TRANSCRIPTS_NAME}\t2", f"d1\t{TRANSCRIPTS_NAME}\t7")
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
        (root / TRANSCRIPTS_NAME).unlink()
        (root / TRANSCRIPTS_NAME).mkdir()
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
        assert [(path, line) for path, line, _ in err.value.problems] == [
            (str(root / TRANSCRIPTS_NAME), 0)
        ]
        assert "cannot read the file" in err.value.problems[0][2]


    def test_token_ending_before_it_starts_reported_at_its_line(self, tmp_path):
        root = tmp_path / "c"
        save_corpus(columns([make_transcript("a", ("x",)), make_transcript("b", ("u", "v"))]), root)
        path = root / TRANSCRIPTS_NAME  # a's x on line 2, then b's u and v
        path.write_text(path.read_text().replace("b\tu\t0\t200", "b\tu\t0\t-5"))
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
        assert err.value.problems == [(str(path), 3, "endMs -5 < startMs 0")]

    def test_every_document_with_bad_times_reported(self, tmp_path):
        root = tmp_path / "c"
        docs = [make_transcript("a", ("x", "y")), make_transcript("b", ("u", "v"))]
        save_corpus(columns(docs), root)
        path = root / TRANSCRIPTS_NAME  # each second token starts inside the first
        path.write_text(path.read_text().replace("\t300\t500", "\t100\t500"))
        with pytest.raises(FileFormatError) as err:
            read_corpus(root)
        assert str(err.value).splitlines()[0] == f"2 malformed record(s) in {root}"
        assert err.value.problems == [
            (str(path), 0, "a: token times not non-decreasing at 'y'"),
            (str(path), 0, "b: token times not non-decreasing at 'v'"),
        ]


# Each mutation changes one document, of three tokens and a marker in a
# corpus that save_corpus wrote, in one way; the loader must report each
# problem it makes at a place known in advance, and nothing else.
# Mutations of the manifest entry or of a whole file first move the
# document's records into a file of their own; the others change its
# records in the shared file, where no mutation adds or removes a line.
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
    # the shared file's layout: a record's last field moved to the start
    # of the next line (two problems), line ends that str.splitlines
    # reads as "\n", a wider token record, and a document in a file of
    # its own (no problem)
    "fields_misaligned",
    "crlf_line_end",
    "nel_line_end",
    "line_separator_end",
    "token_record_widened",
    "own_file",
)


def _records(doc_id):
    """The token and marker records of a fuzzed document, by text."""
    return {
        "fine": f"token\t{doc_id}\tfine\t0\t200",
        "words": f"token\t{doc_id}\twords\t300\t500",
        "here": f"token\t{doc_id}\there\t600\t800",
        "marker": f"marker\t{doc_id}\t*chuckling*\t250",
    }


def _replace(path, old, new):
    """Replace the one ``old`` of the file at ``path`` with ``new``,
    every other byte (line ends too) kept as it is."""
    text = path.read_bytes().decode("utf-8")
    assert text.count(old) == 1, old
    path.write_bytes(text.replace(old, new).encode("utf-8"))


def _own_file(root, doc_id):
    """Move document ``doc_id``'s records into ``<doc_id>.txt``, named
    by its manifest entry, leaving blank lines in the shared file; the
    new file's path."""
    records = _records(doc_id).values()
    for record in records:
        _replace(root / TRANSCRIPTS_NAME, f"{record}\n", "\n")
    transcript = root / f"{doc_id}.txt"
    transcript.write_text("\n".join([TRANSCRIPT_VERSION, *records]) + "\n", encoding="utf-8")
    _replace(root / "manifest.tsv", f"{doc_id}\t{TRANSCRIPTS_NAME}\t", f"{doc_id}\t{transcript.name}\t")
    return transcript


def _mutate(root, index, doc_id, mutation):
    """Apply ``mutation`` to document ``doc_id`` (manifest line
    ``index`` + 3) and return the (path, line) of each problem it makes."""
    manifest = root / "manifest.tsv"
    if mutation is None:
        return []
    if mutation.startswith("manifest_") or mutation in ("missing_file", "transcript_not_utf8"):
        transcript = _own_file(root, doc_id)
        lineno = index + 3
        lines = manifest.read_text().splitlines()
        doc, file, valence = lines[lineno - 1].split("\t")
        if mutation == "manifest_doc_file_swapped":
            lines[lineno - 1] = f"{file}\t{doc}\t{valence}"
            where = (str(root / doc), 0)  # a file named like the doc, missing
        elif mutation == "manifest_file_nul":  # no file can have this name
            lines[lineno - 1] = f"{doc}\t{file}\0\t{valence}"
            where = (str(manifest), lineno)
        elif mutation == "manifest_file_valence_swapped":
            lines[lineno - 1] = f"{doc}\t{valence}\t{file}"
            where = (str(manifest), lineno)
        elif mutation == "missing_file":
            transcript.unlink()
            return [(str(transcript), 0)]
        else:  # byte 0xff starts no UTF-8 sequence
            transcript.write_bytes(transcript.read_bytes().replace(b"words", b"w\xffrds"))
            return [(str(transcript), 0)]
        manifest.write_text("\n".join(lines) + "\n")
        return [where]
    if mutation == "own_file":
        _own_file(root, doc_id)
        return []
    shared = root / TRANSCRIPTS_NAME
    count = len(manifest.read_text().splitlines()) - 2
    records = _records(doc_id)
    # every token record in manifest order, then every marker record
    first, second, marker = 2 + 3 * index, 3 + 3 * index, 2 + 3 * count + index
    ends = {"crlf_line_end": "\r\n", "nel_line_end": "\x85", "line_separator_end": "\u2028"}
    if mutation in ends:
        _replace(shared, records["fine"] + "\n", records["fine"] + ends[mutation])
        return []
    if mutation == "fields_misaligned":  # a 4-field token record, then a 6-field line
        fine, words = records["fine"], records["words"]
        head, _, last = fine.rpartition("\t")
        _replace(shared, f"{fine}\n{words}", f"{head}\n{last}\t{words}")
        return [(str(shared), first), (str(shared), second)]
    if mutation == "signed_marker_time":
        _replace(shared, records["marker"], records["marker"].replace("\t250", "\t+250"))
        return [(str(shared), marker)]
    parts = records["words"].split("\t")  # the second token, from 300 to 500 ms
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
        parts[3] = "0"  # starts with the first token
    elif mutation == "token_record_widened":
        parts.append("7")
    else:
        parts[0] = "tokn"
    _replace(shared, records["words"], "\t".join(parts))
    if mutation == "token_record_widened":
        return []
    return [(str(shared), 0 if mutation == "overlapping_times" else second)]


class TestLoaderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=6),
        st.sampled_from((1, 40, 100, REGION_CHARS)),
    )
    def test_only_file_format_errors_listing_every_injected_problem(self, mutations, region):
        """Whatever the size of the regions the reader parses at once."""
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus_module, "REGION_CHARS", region):
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
                where
                for i, (doc_id, mutation) in enumerate(zip(corpus.doc_ids, mutations))
                for where in _mutate(root, i, doc_id, mutation)
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
