"""The columnar corpus reader and the index segmenter against the
per-line readers and per-token segmenter in ``oracles.py``.

Random valid corpora are written by hand, not by ``save_corpus``: a
document's records are spread over several files, interleaved with
other documents' records, with blank lines and extra trailing columns.
Every generated corpus also holds one fixed document that has a gap
exactly equal to the threshold, markers before its first token and
after its last, token texts that tokenize to no word and to two words,
and records in another manifest document's file.

Drawn corpus directories, valid or not, are also read with regions of
several sizes and compared with the per-line checking reader: the same
columns or the same problems.
"""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain import corpus as corpus_module
from opinionchain.corpus import REGION_CHARS, read_corpus, save_corpus
from opinionchain.errors import FileFormatError
from opinionchain.features.pipeline import FeaturePipeline, PipelineConfig

from conftest import ipu_index_per_token, ipus, split_documents, unit_strings
from oracles import reference_load, reference_read_corpus, reference_segment, reference_tokens

THRESHOLD = 300
_TEXT = st.sampled_from(
    ("great", "Movie", "", "--", "'", "don't stop", "well,really", "a-b c-d", "uh")
) | st.text(alphabet="ab '-,.", max_size=6)
_GAP = st.sampled_from((0, 1, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 2000))
_MARKER = st.sampled_from(("*hum*", "*Laughing*", "*long pause*"))
_VALENCES = st.sampled_from((None, (1.0,), (5.0,), (2.0, 4.0)))

# gaps 300 (the threshold: no cut), 301 and 0; "--" tokenizes to no word
# and "don't stop" to two; markers 50 ms before the first token and after
# the last
ANCHOR = (
    "anchor",
    ["--", "don't stop", "fine", "well"],
    [1000, 1500, 2001, 2100],
    [1200, 1700, 2100, 2300],
    [("*hum*", 950), ("*Laughing*", 2350)],
    (4.0,),
)


@st.composite
def documents(draw, doc_id):
    starts, ends = [], []
    t = draw(st.integers(-1000, 1000))
    for k in range(draw(st.integers(0, 8))):
        t += draw(_GAP) if k else 0
        starts.append(t)
        t += draw(st.integers(0, 400))
        ends.append(t)
    texts = [draw(_TEXT) for _ in starts]
    lo, hi = (starts[0], ends[-1]) if starts else (0, 0)
    times = st.integers(lo - 500, hi + 500)
    markers = draw(st.lists(st.tuples(_MARKER, times), max_size=3))
    return doc_id, texts, starts, ends, markers, draw(_VALENCES)


@st.composite
def corpus_files(draw):
    """``{file name: text}`` of a valid corpus directory."""
    docs = [ANCHOR] + [draw(documents(f"d{i}")) for i in range(draw(st.integers(1, 3)))]
    names = [f"f{j}.txt" for j in range(draw(st.integers(2, len(docs))))]
    # every file is some document's manifest file, so every file is read;
    # the anchor's is f0, and its last two tokens are in f1, d0's file
    manifest = ["corpus-manifest/v1", "doc_id\tfile\tvalence"]
    for i, (doc_id, *_, valences) in enumerate(docs):
        valence = "-" if valences is None else ",".join(str(int(v)) for v in valences)
        manifest.append(f"{doc_id}\t{names[i % len(names)]}\t{valence}")
    # a document's tokens stay in order: gathered in file-name order, then line order
    queues = {name: {} for name in names}
    for doc_id, texts, starts, ends, markers, _ in docs:
        count = len(texts)
        at = sorted(draw(st.lists(st.sampled_from(names), min_size=count, max_size=count)))
        if doc_id == "anchor":
            at = names[:1] * 2 + names[1:2] * 2
        for name, text, start, end in zip(at, texts, starts, ends):
            extra = draw(st.sampled_from(("", "", "\t7")))
            line = f"token\t{doc_id}\t{text}\t{start}\t{end}{extra}"
            queues[name].setdefault(doc_id, []).append(line)
        for text, time in markers:
            queues[draw(st.sampled_from(names))].setdefault(doc_id, []).append(
                f"marker\t{doc_id}\t{text}\t{time}"
            )
    shuffle = draw(st.randoms(use_true_random=False))
    files = {"manifest.tsv": "\n".join(manifest) + "\n"}
    for name, by_doc in queues.items():
        lines = ["transcript/v1"]
        pending = [queue for queue in by_doc.values() if queue]
        while pending:  # interleave the documents, each one's lines in order
            queue = shuffle.choice(pending)
            lines.append(queue.pop(0))
            if shuffle.random() < 0.1:
                lines.append("")
            pending = [queue for queue in pending if queue]
        files[name] = "\n".join(lines) + "\n"
    return files


def _write(root: Path, files: dict):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def _bytes(root: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@settings(max_examples=80, deadline=None)
@given(corpus_files())
def test_columns_and_ipus_equal_the_per_line_reference(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "c"
        _write(root, files)
        corpus = read_corpus(root)
        reference = reference_load(root)
        loaded = split_documents(corpus)

        assert [
            (
                doc.doc_ids[0],
                tuple(doc.texts),
                tuple(doc.starts.tolist()),
                tuple(doc.ends.tolist()),
                tuple(zip(doc.marker_texts, doc.marker_times)),
                doc.valences[0],
            )
            for doc in loaded
        ] == reference

        chunk = FeaturePipeline(PipelineConfig(threshold_ms=THRESHOLD)).segment(corpus)
        assert chunk.doc_ids == corpus.doc_ids
        bounds = chunk.bounds.tolist()
        words, markers_of = unit_strings(chunk.tokens), unit_strings(chunk.markers)
        for doc, lo, hi, (_, texts, starts, ends, markers, _) in zip(
            loaded, bounds[:-1], bounds[1:], reference, strict=True
        ):
            want = reference_segment(texts, starts, ends, markers, THRESHOLD)
            assert ipus(doc, THRESHOLD) == want
            assert words[lo:hi] == [reference_tokens(unit) for unit, _ in want]
            assert markers_of[lo:hi] == [list(events) for _, events in want]
            assert ipu_index_per_token(doc, THRESHOLD) == [
                i for i, (unit, _) in enumerate(want) for _ in unit
            ]


@settings(max_examples=40, deadline=None)
@given(corpus_files())
def test_save_of_a_loaded_corpus_rewrites_it_byte_for_byte(files):
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp) / "c"
        _write(Path(tmp) / "hand", files)
        save_corpus(read_corpus(Path(tmp) / "hand"), written)
        rewritten = Path(tmp) / "again"
        save_corpus(read_corpus(written), rewritten)
        assert _bytes(rewritten) == _bytes(written)


_IDS = ("d0", "d1", "d2")
# mostly "\n"; CR, CRLF, NEL and LINE SEPARATOR end lines for str.splitlines too
_LINE_END = st.sampled_from(("\n",) * 8 + ("\r\n", "\r", "\x85", "\u2028"))
# a text holding a line end splits its record into two malformed lines
_MESSY_TEXT = _TEXT | st.sampled_from(("token", "a\r\nb", "a\x85b", "a\u2028b", "*hum*"))
_MALFORMED = st.sampled_from((
    "token\td0\ta\t1",  # 4 fields, and then a line of 6 (below)
    "2\ttoken\td0\tb\t3\t4",
    "tokn\td0\ta\t1\t2",
    "token\tghost\ta\t1\t2",
    "token\td1\ta\t1_0\t20",
    "token\td1\ta\t+1\t20",
    "token\td1\ta\t20\t5",
    "token\td2\ta\t1\t",
    f"token\td2\ta\t0\t{2**63}",
    "marker\td0\tnot delimited\t5",
    "marker\td0\t*hum*",
    "",
    "  ",
))


@st.composite
def messy_corpus_files(draw):
    """``{file name: text}`` of a corpus directory, valid or not: the
    records of three documents spread over up to three files, among
    them markers, 5- and 6-field token records, malformed lines, blank
    lines, and line ends of every kind; a document's token times
    increase in reading order unless a malformed line says otherwise."""
    names = [f"f{j}.txt" for j in range(draw(st.integers(1, 3)))]
    manifest = ["corpus-manifest/v1", "doc_id\tfile\tvalence"] + [
        f"{doc_id}\t{draw(st.sampled_from(names))}\t{draw(st.sampled_from(('4', '-', '2,4')))}"
        for doc_id in _IDS
    ]
    clock = dict.fromkeys(_IDS, 0)  # where each document's next token may start
    files = {"manifest.tsv": "\n".join(manifest) + "\n"}
    for name in names:
        text = "transcript/v1" if draw(st.integers(0, 19)) else "transcript/v0"
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(st.sampled_from(("token",) * 5 + ("marker", "malformed")))
            doc_id = draw(st.sampled_from(_IDS))
            if kind == "token":
                start = clock[doc_id] + draw(st.integers(0, 400))
                clock[doc_id] = end = start + draw(st.integers(0, 300))
                extra = draw(st.sampled_from(("", "", "\t7")))
                line = f"token\t{doc_id}\t{draw(_MESSY_TEXT)}\t{start}\t{end}{extra}"
            elif kind == "marker":
                line = f"marker\t{doc_id}\t{draw(_MARKER)}\t{draw(st.integers(-50, 3000))}"
            else:
                line = draw(_MALFORMED)
            text += draw(_LINE_END) + line
        files[name] = text + draw(st.sampled_from(("\n", "\r\n", "")))
    return files


def _outcome(read, root):
    """What ``read`` makes of the corpus at ``root``: its columns, or its
    error and problems."""
    try:
        corpus = read(root)
    except FileFormatError as exc:
        return str(exc), exc.problems
    return (
        corpus.doc_ids, corpus.valences, list(corpus.texts),
        corpus.starts.dtype, corpus.starts.tolist(), corpus.ends.dtype, corpus.ends.tolist(),
        corpus.offsets.tolist(), list(corpus.marker_texts), list(corpus.marker_times),
        corpus.marker_offsets.tolist(),
    )  # fmt: skip


def _write_bytes(root: Path, files: dict):
    root.mkdir()
    for name, text in files.items():  # line ends as they are
        (root / name).write_bytes(text.encode("utf-8"))


@settings(max_examples=150, deadline=None)
@given(messy_corpus_files(), st.sampled_from((1, 5, 40, REGION_CHARS)))
def test_regions_read_what_the_per_line_reader_reads(files, region):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus_module, "REGION_CHARS", region):
        root = Path(tmp) / "c"
        _write_bytes(root, files)
        assert _outcome(read_corpus, root) == _outcome(reference_read_corpus, root)


@pytest.mark.parametrize("region", [1, 20, REGION_CHARS])
def test_misaligned_fields_are_two_problems(tmp_path, region):
    """A 4-field token record and a 6-field line after it hold 10 fields,
    the first and sixth "token": both lines are still problems."""
    root = tmp_path / "c"
    _write_bytes(root, {
        "manifest.tsv": "corpus-manifest/v1\ndoc_id\tfile\tvalence\nd1\tt.txt\t4\n",
        "t.txt": "transcript/v1\ntoken\td1\ta\t1\n2\ttoken\td1\tb\t3\t4\n",
    })
    with mock.patch.object(corpus_module, "REGION_CHARS", region):
        outcome = _outcome(read_corpus, root)
    assert outcome[1] == [
        (str(root / "t.txt"), 2, "token record needs 5 columns, got 4"),
        (str(root / "t.txt"), 3, "unknown record kind '2'"),
    ]
    assert outcome == _outcome(reference_read_corpus, root)
