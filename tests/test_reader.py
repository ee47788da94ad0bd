"""The columnar corpus reader and the index segmenter against the
per-line reader and per-token segmenter in ``oracles.py``.

Random valid corpora are written by hand, not by ``save_corpus``: a
document's records are spread over several files, interleaved with
other documents' records, with blank lines and extra trailing columns.
Every generated corpus also holds one fixed document that has a gap
exactly equal to the threshold, markers before its first token and
after its last, token texts that tokenize to no word and to two words,
and records in another manifest document's file.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.corpus import read_corpus, save_corpus
from opinionchain.features.pipeline import FeaturePipeline, PipelineConfig

from conftest import ipu_index_per_token, ipus, split_documents
from oracles import reference_load, reference_segment, reference_tokens

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
        bounds = chunk.bounds
        for doc, lo, hi, (_, texts, starts, ends, markers, _) in zip(
            loaded, bounds[:-1], bounds[1:], reference, strict=True
        ):
            want = reference_segment(texts, starts, ends, markers, THRESHOLD)
            assert ipus(doc, THRESHOLD) == want
            assert chunk.units[lo:hi] == [reference_tokens(unit) for unit, _ in want]
            assert chunk.events[lo:hi] == [events for _, events in want]
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
