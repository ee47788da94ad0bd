"""The corpus format: reading, validation, writing, class filtering.

A corpus is a directory with a ``manifest.tsv`` and the transcript files
it names.  Both formats are line-oriented TSV with a leading
format-version line so future revisions stay detectable.

manifest.tsv::

    corpus-manifest/v1
    doc_id<TAB>file<TAB>valence
    d001<TAB>transcripts.txt<TAB>4
    d002<TAB>transcripts.txt<TAB>2,3

The valence column holds one value per annotator, comma-separated, each
in [1, 5]; ``-`` marks an unlabeled document.  A transcript file::

    transcript/v1
    token<TAB>d001<TAB>great<TAB>100<TAB>400
    marker<TAB>d001<TAB>*chuckling*<TAB>450

Token and marker times are whole milliseconds, each an optional ``-``
and ASCII digits (int64 for tokens); consecutive tokens must not
overlap.  Extra trailing columns on token/marker lines are ignored, which
lets a segmented corpus (with an appended IPU-index column) reload
cleanly.  A record may name any document of the manifest, whatever file
it is in: a document's tokens are gathered from every file, in file-name
order and then line order.  So any layout of the records reads the same:
one file per document, as earlier versions of ``save_corpus`` wrote, or
one file for the whole corpus, as it writes now (``TRANSCRIPTS_NAME``:
every token record in manifest order, then every marker record, and
every manifest entry naming that file).  Lines end where
``str.splitlines`` ends them: at LF, CR, CRLF and the other Unicode line
boundaries (``\\x85``, ``\\u2028`` and the rest), so a field can hold
none of them, nor a TAB.

``CorpusColumns`` is the one in-memory form of a corpus, from the
synthetic generator to the writer: every token's text, start and end,
each document's offsets into them, and the markers, with no object per
document or token.  ``read_corpus`` reads a corpus directory into it.
Each transcript file is read once and parsed a region of about
``REGION_CHARS`` characters at a time, each region ending just after a
``"\\n"``.  A region whose lines are all token records of one width is
split at once and its time columns converted to int64 there; any other
region is read one line at a time.  Each check is then run once over
the corpus's columns.  The records and documents are looked at one by
one only to list the problems of a malformed corpus.  Training,
evaluation and prediction read those columns; labels come from the
valences through ``polarity``, and ``filter_neutral`` and
``corpus_stats`` read them too.  ``save_corpus`` writes columns back
out, with an optional IPU-index column per token, and refuses a corpus
that ``read_corpus`` could not read back.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidInputError, read_utf8

log = logging.getLogger(__name__)

MANIFEST_VERSION = "corpus-manifest/v1"
TRANSCRIPT_VERSION = "transcript/v1"
MANIFEST_NAME = "manifest.tsv"
TRANSCRIPTS_NAME = "transcripts.txt"  # the one transcript file save_corpus writes

# the characters of a transcript file parsed at once, about: a region
# ends just after the first "\n" at or past this many characters, so
# that the split fields of no more than one region are held at a time.
# Larger regions read no faster, and their fields raise the peak: at
# 1 << 16 a 250-document read peaked above the per-document reader's
REGION_CHARS = 1 << 14

NEGATIVE, POSITIVE = 0, 1
LABEL_NAMES = ("negative", "positive")


def polarity(valences: tuple[float, ...] | None) -> int | None:
    """A document's binary label from its annotators' valences: a mean
    below 3 is negative, above 3 positive; an unlabeled document (None)
    or a mean of exactly 3 has none."""
    if valences is None:
        return None
    mean = sum(valences) / len(valences)
    if mean == 3.0:
        return None
    return NEGATIVE if mean < 3.0 else POSITIVE


@dataclass(frozen=True)
class CorpusStats:
    document_count: int
    class_counts: dict[str, int]  # negative / neutral / positive / unlabeled
    word_count: int

    def __post_init__(self):
        if sum(self.class_counts.values()) != self.document_count:
            raise InvalidInputError("class counts must sum to document count")


def _format_valence(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(float(value))


# a time is an optional "-" and ASCII digits; int() alone would also take
# "1_000", " 5", "+5" and non-ASCII digits
_TIME = re.compile(r"-?[0-9]+")
_NOT_TIME_CHAR = re.compile(r"[^0-9-]")
# TAB, which ends a field, and every character str.splitlines ends a line at
_FIELD_END = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _parse_int(raw: str | int, what: str) -> int:
    """The time ``raw``, a string or an integer parsed already, as an int."""
    if not isinstance(raw, str):
        return int(raw)
    if _TIME.fullmatch(raw) is None:
        raise ValueError(f"{what} is not an integer: {raw!r}")
    return int(raw)


def _times(starts, ends):
    """The columns of start and end time strings as two int64 arrays,
    converted in one call; the strings themselves when one of them is
    not an integer of the format or is outside int64.  The format is
    checked once for both columns, not once per time: a string of ASCII
    digits and "-" alone that int() accepts is an optional "-" and
    digits."""
    raw = [*starts, *ends]
    if _NOT_TIME_CHAR.search("".join(raw)) is None:
        try:
            times = np.array(raw, dtype=np.int64)  # int() of each string
        except (ValueError, OverflowError):
            pass
        else:
            return times[: len(starts)], times[len(starts) :]
    return starts, ends


def _offsets(counts) -> np.ndarray:
    """(N + 1,) bounds of N consecutive runs of ``counts`` items each."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


_NO_TIMES = np.empty(0, dtype=np.int64)
_NO_DOCS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class CorpusColumns:
    """A corpus, or a chunk of one, as columns: N documents, T tokens and
    M markers in all, with no object per document or token.

    Document i is ``doc_ids[i]``, with ``valences[i]``; its tokens are
    ``offsets[i]:offsets[i + 1]`` of the token columns (``texts``,
    ``starts``, ``ends``, the times int64), and its markers
    ``marker_offsets[i]:marker_offsets[i + 1]`` of the marker columns
    (``marker_texts``, ``marker_times``, the times Python ints).
    The constructor checks nothing: ``read_corpus`` checks what it reads,
    and ``synthetic.generate_corpus`` builds only what that check
    accepts."""

    doc_ids: tuple[str, ...]
    valences: tuple[tuple[float, ...] | None, ...]
    texts: list[str]
    starts: np.ndarray
    ends: np.ndarray
    offsets: np.ndarray
    marker_texts: list[str]
    marker_times: list[int]
    marker_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    def select(self, ids) -> "CorpusColumns":
        """Documents ``ids`` (increasing indices) as columns of their
        own.  Each run of consecutive documents is one slice of every
        column, so a range of documents costs one slice each."""
        ids = np.asarray(ids, dtype=np.intp)
        firsts = np.flatnonzero(np.diff(ids, prepend=-2) != 1)  # where each run starts
        los, his = ids[firsts], ids[np.append(firsts, ids.size)[1:] - 1] + 1
        tokens = list(zip(self.offsets[los].tolist(), self.offsets[his].tolist()))
        marks = list(zip(self.marker_offsets[los].tolist(), self.marker_offsets[his].tolist()))

        def gathered(column, runs):
            return list(itertools.chain.from_iterable(column[a:b] for a, b in runs))

        return CorpusColumns(
            tuple(map(self.doc_ids.__getitem__, ids.tolist())),
            tuple(map(self.valences.__getitem__, ids.tolist())),
            gathered(self.texts, tokens),
            np.concatenate([self.starts[a:b] for a, b in tokens] or [_NO_TIMES]),
            np.concatenate([self.ends[a:b] for a, b in tokens] or [_NO_TIMES]),
            _offsets(np.diff(self.offsets)[ids]),
            gathered(self.marker_texts, marks),
            gathered(self.marker_times, marks),
            _offsets(np.diff(self.marker_offsets)[ids]),
        )


def read_corpus(path: str | Path) -> CorpusColumns:
    """Read and check a corpus directory, as columns.

    Each transcript file is read once and parsed a region at a time
    (``_read_transcript_file``): its token records of manifest documents
    become pieces of four columns (document number, text, start, end),
    the times int64 where they parse.  The pieces are then joined and
    checked (each token ends at or after its start, and no token of a
    document starts before the previous one ends) with one comparison
    each over the corpus.  Only when a check fails are the
    records looked at one by one, to list every problem: each malformed
    record at its line, and each document whose other token times break
    the rule (``_document_problem``) at line 0 of its file.  A single
    error reporting all of them is raised; an empty directory loads as
    an empty corpus with a warning.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileFormatError(f"corpus path is not a directory: {root}")
    manifest = root / MANIFEST_NAME
    problems: list[tuple[str, int, str]] = []
    if manifest.exists():
        entries = _read_manifest(manifest, problems)
    elif not any(root.iterdir()):
        log.warning("empty corpus directory %s", root)
        entries = []
    else:
        raise FileFormatError(f"missing {MANIFEST_NAME} in {root}")
    index = {doc_id: i for i, (doc_id, _, _) in enumerate(entries)}
    markers: list[tuple[int, int, str]] = []  # (document, time, text)
    files = []  # (path, pieces of its token records, its other problems) of each file
    for filename in sorted({filename for _, filename, _ in entries}):
        file = os.path.join(root, filename)
        files.append((file, *_read_transcript_file(file, index, markers)))
    pieces = [piece for _, file_pieces, _ in files for piece in file_pieces]
    parsed = all(isinstance(times, np.ndarray) for *_, starts, ends in pieces for times in (starts, ends))
    columns = _token_columns(pieces, len(entries)) if parsed else None
    # a failed check is looked for one record and one document at a time
    documents = [] if columns is not None else _token_problems(root, entries, files)
    for file, _, found in files:
        problems.extend((file, line, message) for line, message in sorted(found))
    problems += documents
    if problems:
        raise FileFormatError(f"{len(problems)} malformed record(s) in {root}", problems)
    markers.sort(key=lambda marker: marker[:2])  # by document, then time
    return CorpusColumns(
        tuple(doc_id for doc_id, _, _ in entries),
        tuple(valences for _, _, valences in entries),
        *columns,
        [text for _, _, text in markers],
        [time for _, time, _ in markers],
        _offsets(np.bincount(np.array([doc for doc, _, _ in markers], dtype=np.intp),
                             minlength=len(entries))),
    )


def _read_manifest(manifest: Path, problems) -> list[tuple[str, str, tuple[float, ...] | None]]:
    """The (doc_id, file, valences) of each well-formed manifest entry;
    the malformed ones are added to ``problems``."""
    entries = []
    seen_ids: set[str] = set()
    parsed: dict[str, tuple[float, ...] | None | str] = {}  # valence field: valences or problem
    lines = read_utf8(manifest).splitlines()
    if not lines or lines[0].strip() != MANIFEST_VERSION:
        raise FileFormatError(f"{manifest}: first line must be {MANIFEST_VERSION!r}")
    if len(lines) < 2 or lines[1].split("\t") != ["doc_id", "file", "valence"]:
        raise FileFormatError(f"{manifest}: second line must be the doc_id/file/valence header")
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            problems.append((str(manifest), lineno, f"expected 3 columns, got {len(parts)}"))
            continue
        doc_id, filename, valence_raw = parts
        if doc_id in seen_ids:
            problems.append((str(manifest), lineno, f"duplicate doc_id {doc_id!r}"))
            continue
        seen_ids.add(doc_id)
        if valence_raw not in parsed:  # a corpus repeats a few valence fields
            try:
                parsed[valence_raw] = _valences(valence_raw)
            except ValueError as exc:
                parsed[valence_raw] = str(exc)
        valences = parsed[valence_raw]
        if isinstance(valences, str):
            problems.append((str(manifest), lineno, valences))
            continue
        if "\0" in filename:  # no file can be named by it
            problems.append((str(manifest), lineno, f"file name {filename!r} holds a NUL byte"))
            continue
        entries.append((doc_id, filename, valences))
    return entries


def _valences(raw: str) -> tuple[float, ...] | None:
    """The valences of a manifest valence field; ValueError saying what
    is wrong with a malformed one."""
    if raw == "-":
        return None
    try:
        valences = tuple(map(float, raw.split(",")))
    except ValueError:
        raise ValueError(f"bad valence {raw!r}") from None
    bad = [v for v in valences if not 1.0 <= v <= 5.0]
    if bad:
        raise ValueError(f"valence {bad[0]} outside [1, 5]")
    return valences


def _read_transcript_file(path: str, index: dict, markers: list):
    """The pieces of the token records of the transcript file at ``path``
    that name a manifest document (in ``index``), and the (line, message)
    of each of its malformed records; its markers are added to
    ``markers``.

    A piece is the (line numbers, document numbers, texts, starts, ends)
    of the token records of one region of the file: the document
    numbers an intp array, and each time column an int64 array, or its
    strings when one of them does not parse.  The file's text after its
    version line is cut into regions, each ending just after the first
    ``"\\n"`` at or past ``REGION_CHARS`` characters, and each region's
    lines are split by ``str.splitlines``; as no line break holds a
    ``"\\n"`` but at its end, the regions' lines are the file's.  Only
    numbers and strings outlive a region: its split lines and fields,
    held for the whole corpus, would make the garbage collector walk
    them over and over, and its time strings take twice the memory of
    int64s."""
    try:
        text = read_utf8(path)
    except FileNotFoundError:
        return [], [(0, "file listed in manifest but missing")]
    except OSError as exc:
        return [], [(0, f"cannot read the file: {exc.strerror}")]
    except FileFormatError:
        return [], [(0, "not UTF-8 text")]
    # the first line ends at or before the first "\n"
    first = (text[: text.find("\n") + 1] or text).splitlines(keepends=True)[:1]
    if not first or first[0].strip() != TRANSCRIPT_VERSION:
        return [], [(1, f"first line must be {TRANSCRIPT_VERSION!r}")]
    pieces, found = [], []
    start, lineno = len(first[0]), 2
    while start < len(text):
        cut = text.find("\n", start + REGION_CHARS - 1)
        end = len(text) if cut < 0 else cut + 1
        lines = text[start:end].splitlines()
        piece = _token_region(lines, index)
        if piece is not None:
            pieces.append((range(lineno, lineno + len(lines)), *piece))
        else:
            pieces.append(_line_region(lines, lineno, index, markers, found))
        lineno += len(lines)
        start = end
    return pieces, found


def _token_region(lines: list[str], index: dict):
    """The (document numbers, texts, starts, ends) of ``lines`` when
    they are all token records of one width that name manifest
    documents; None when they are not.

    The lines are joined and split at once, and each column is a strided
    slice of the fields; every line holding width - 1 TABs, no line's
    fields are read as another's."""
    width = lines[0].count("\t") + 1
    if width < 5 or len(set(map(str.count, lines, itertools.repeat("\t")))) != 1:
        return None
    fields = "\t".join(lines).split("\t")
    if fields[::width].count("token") != len(lines):
        return None
    try:
        docs = np.fromiter(map(index.__getitem__, fields[1::width]), np.intp, len(lines))
    except KeyError:
        return None
    return docs, fields[2::width], *_times(fields[3::width], fields[4::width])


def _line_region(lines: list[str], lineno: int, index: dict, markers: list, found: list):
    """The piece of the token records among ``lines``, the first at line
    ``lineno``, read one line at a time: the markers are added to
    ``markers``, and the (line, message) of each malformed record to
    ``found``."""
    rows, token_lines = [], []
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split("\t")
        if parts[0] == "token" and len(parts) >= 5 and parts[1] in index:
            rows.append(parts)
            token_lines.append(lineno)
        elif line.strip():
            try:
                markers.append(_marker_record(parts, index))
            except ValueError as exc:
                found.append((lineno, str(exc)))
    if not rows:
        return token_lines, _NO_DOCS, [], _NO_TIMES, _NO_TIMES
    _, docs, texts, starts, ends = list(zip(*rows))[:5]
    docs = np.fromiter(map(index.__getitem__, docs), np.intp, len(docs))
    return token_lines, docs, texts, *_times(starts, ends)


def _marker_record(parts: list[str], index: dict) -> tuple[int, int, str]:
    """The (document, time, text) of a marker record; any other record
    that reaches here is malformed and raises ValueError."""
    kind = parts[0]
    if kind == "token":
        if len(parts) < 5:
            raise ValueError(f"token record needs 5 columns, got {len(parts)}")
        raise ValueError(f"doc_id {parts[1]!r} not in manifest")
    if kind != "marker":
        raise ValueError(f"unknown record kind {kind!r}")
    if len(parts) < 4:
        raise ValueError(f"marker record needs 4 columns, got {len(parts)}")
    _, doc_id, text, time_raw = parts[:4]
    if doc_id not in index:
        raise ValueError(f"doc_id {doc_id!r} not in manifest")
    if not _marker_text_ok(text):
        raise ValueError(f"marker text must be *-delimited: {text!r}")
    return index[doc_id], _parse_int(time_raw, "timeMs"), text


def _marker_text_ok(text: str) -> bool:
    return text.startswith("*") and text.endswith("*") and len(text) > 2


def _token_columns(pieces, num_docs: int):
    """The (texts, starts, ends, offsets) columns of the token records of
    ``pieces``, their times parsed, document by document, each
    document's records in their order here; None when a token ends
    before it starts or starts before the previous token of its
    document ends."""
    doc = np.concatenate([docs for _, docs, _, _, _ in pieces] or [_NO_DOCS])
    starts = np.concatenate([starts for *_, starts, _ in pieces] or [_NO_TIMES])
    ends = np.concatenate([ends for *_, ends in pieces] or [_NO_TIMES])
    texts = list(itertools.chain.from_iterable(texts for _, _, texts, _, _ in pieces))
    if (doc[1:] < doc[:-1]).any():  # records of a document in several files
        order = np.argsort(doc, kind="stable")
        doc, starts, ends = doc[order], starts[order], ends[order]
        texts = list(map(texts.__getitem__, order.tolist()))
    if (ends < starts).any() or ((starts[1:] < ends[:-1]) & (doc[1:] == doc[:-1])).any():
        return None
    return texts, starts, ends, _offsets(np.bincount(doc, minlength=num_docs))


def _token_problems(root: Path, entries, files) -> list[tuple[str, int, str]]:
    """The problems of the token records of the pieces of ``files``, one
    record at a time: each malformed one is added at its line to the
    problems of its file, and each document whose remaining token times
    break the rule (``_document_problem``) is returned, at line 0 of its
    manifest file."""
    columns = [([], [], []) for _ in entries]
    for _, pieces, found in files:
        for lines, docs, texts, starts, ends in pieces:
            for lineno, doc, text, start, end in zip(lines, docs.tolist(), texts, starts, ends):
                try:
                    start, end = _parse_int(start, "startMs"), _parse_int(end, "endMs")
                    if end < start:
                        raise ValueError(f"endMs {end} < startMs {start}")
                except ValueError as exc:
                    found.append((lineno, str(exc)))
                    continue
                for column, value in zip(columns[doc], (text, start, end)):
                    column.append(value)
    problems = []
    for (doc_id, filename, _), doc_columns in zip(entries, columns):
        problem = _document_problem(doc_id, *doc_columns)
        if problem is not None:
            problems.append((os.path.join(root, filename), 0, problem))
    return problems


def _document_problem(doc_id: str, texts: list, starts: list, ends: list) -> str | None:
    """What breaks the token-time rule in one document, given the texts
    and int times of its tokens whose records parsed and end at or after
    their start: a time outside int64, or else the first token that
    starts before the previous one ends; None when nothing does."""
    try:
        starts_ms, ends_ms = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
    except OverflowError as exc:
        return f"{doc_id}: token times must be int64: {exc}"
    overlap = np.flatnonzero(starts_ms[1:] < ends_ms[:-1])
    if overlap.size:
        return f"{doc_id}: token times not non-decreasing at {texts[overlap[0] + 1]!r}"
    return None


def _ids(doc_ids) -> str:
    return ", ".join(map(repr, doc_ids))


def _unwritable(strings) -> list[str]:
    """Those of ``strings`` that no field can hold: any with a TAB, a
    line break or a character UTF-8 cannot encode (a lone surrogate).
    The strings are looked at one by one only when their concatenation
    holds one."""

    def encodes(text):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True

    joined = "".join(strings)
    if _FIELD_END.search(joined) is None and (joined.isascii() or encodes(joined)):
        return []
    return [text for text in strings if _FIELD_END.search(text) or not encodes(text)]


def _write_problems(corpus: CorpusColumns, ipu_index) -> list[str]:
    """Why ``read_corpus`` could not read ``corpus`` back as
    ``save_corpus`` would write it: a field holding a TAB or a line
    break, a repeated id, valences it would refuse, a marker text that
    is not *-delimited, or token times that break the rule."""
    problems = []
    for what, strings in (
        ("document id(s)", corpus.doc_ids),
        ("token text(s)", corpus.texts),
        ("marker text(s)", corpus.marker_texts),
    ):
        bad = _unwritable(strings)
        if bad:
            problems.append(f"{what} holding a TAB, a line break or no UTF-8: {_ids(bad)}")
    seen: set[str] = set()
    repeated = [doc_id for doc_id in corpus.doc_ids if doc_id in seen or seen.add(doc_id)]
    if repeated:
        problems.append(f"repeated document id(s): {_ids(repeated)}")
    unlabeled = [
        doc_id
        for doc_id, valences in zip(corpus.doc_ids, corpus.valences)
        if valences is not None and not (valences and all(1.0 <= v <= 5.0 for v in valences))
    ]
    if unlabeled:
        problems.append(f"valences empty or outside [1, 5] in document(s): {_ids(unlabeled)}")
    markers = [text for text in corpus.marker_texts if not _marker_text_ok(text)]
    if markers:
        problems.append(f"marker text(s) not *-delimited: {_ids(markers)}")
    doc = np.repeat(np.arange(len(corpus)), np.diff(corpus.offsets))
    starts, ends = corpus.starts, corpus.ends
    broken = np.union1d(
        np.flatnonzero(ends < starts),
        np.flatnonzero((starts[1:] < ends[:-1]) & (doc[1:] == doc[:-1])) + 1,
    )
    if broken.size:
        bad_docs = map(corpus.doc_ids.__getitem__, np.unique(doc[broken]).tolist())
        problems.append(
            f"token times ending before they start or overlapping in document(s): {_ids(bad_docs)}"
        )
    if ipu_index is not None and len(ipu_index) != len(corpus.texts):
        problems.append(f"{len(ipu_index)} IPU indices for {len(corpus.texts)} tokens")
    return problems


def save_corpus(corpus: CorpusColumns, path: str | Path, ipu_index=None):
    """Write the columns ``corpus`` as a corpus directory: the manifest
    and one transcript file, ``TRANSCRIPTS_NAME``, with every token
    record in manifest order, then every marker record.

    ``ipu_index``, when given, holds each token's IPU index within its
    document, aligned with ``corpus.texts``; it is appended as an extra
    trailing column that the reader ignores.  A corpus that
    ``read_corpus`` could not read back (``_write_problems``) is refused
    before any file is written, all of its problems listed in one
    InvalidInputError.  The directory is written all or nothing: it is
    built beside ``path`` under a temporary name and renamed into place,
    replacing a corpus written there earlier only once it is complete.
    A directory at ``path`` that is neither empty nor a corpus (it has
    no manifest) is refused, not replaced.
    """
    problems = _write_problems(corpus, ipu_index)
    if problems:
        raise InvalidInputError("; ".join(problems))
    root = Path(os.path.abspath(path))
    if root.exists() and not (root / MANIFEST_NAME).is_file():
        if not root.is_dir() or any(root.iterdir()):
            raise InvalidInputError(f"{path} exists and is not a corpus: not replacing it")
    manifest_lines = [MANIFEST_VERSION, "doc_id\tfile\tvalence"]
    for doc_id, valences in zip(corpus.doc_ids, corpus.valences):
        valence = "-" if valences is None else ",".join(map(_format_valence, valences))
        manifest_lines.append(f"{doc_id}\t{TRANSCRIPTS_NAME}\t{valence}")

    def records(kind, offsets, *columns):
        doc = np.repeat(np.arange(len(corpus)), np.diff(offsets)).tolist()
        row = "\t".join([kind] + ["{}"] * (len(columns) + 1))
        return map(row.format, map(corpus.doc_ids.__getitem__, doc), *columns)

    times = corpus.starts.tolist(), corpus.ends.tolist()
    tokens = records("token", corpus.offsets, corpus.texts, *times)
    if ipu_index is not None:
        tokens = map("{}\t{}".format, tokens, ipu_index.tolist())
    markers = records("marker", corpus.marker_offsets, corpus.marker_texts, corpus.marker_times)
    transcript_lines = itertools.chain([TRANSCRIPT_VERSION], tokens, markers)
    root.parent.mkdir(parents=True, exist_ok=True)
    built = _sibling(root, "new")
    built.mkdir()
    try:
        (built / TRANSCRIPTS_NAME).write_text("\n".join(transcript_lines) + "\n", encoding="utf-8")
        (built / MANIFEST_NAME).write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
        _replace_directory(built, root)
    except BaseException:
        shutil.rmtree(built, ignore_errors=True)
        raise


def _sibling(root: Path, what: str) -> Path:
    """A name beside ``root`` that nothing has: hidden, and random."""
    return root.with_name(f".{root.name}.{what}-{os.urandom(6).hex()}")


def _replace_directory(built: Path, root: Path):
    """Rename the directory ``built`` to ``root``; a directory at
    ``root`` is moved aside first, and deleted once ``built`` is in
    place (moved back if it could not be)."""
    if not root.exists():
        built.rename(root)
        return
    old = _sibling(root, "old")
    root.rename(old)
    try:
        built.rename(root)
    except BaseException:
        old.rename(root)
        raise
    shutil.rmtree(old)


def filter_neutral(corpus: CorpusColumns) -> CorpusColumns:
    """The documents with a binary label (``polarity``): unlabeled and
    mean-valence-3 documents are dropped.  Idempotent."""
    kept = [i for i, valences in enumerate(corpus.valences) if polarity(valences) is not None]
    if not kept and len(corpus):
        log.warning("filter_neutral removed every document")
    return corpus.select(kept)


def corpus_stats(corpus: CorpusColumns) -> CorpusStats:
    counts = {"negative": 0, "neutral": 0, "positive": 0, "unlabeled": 0}
    for valences in corpus.valences:
        label = polarity(valences)
        if valences is None:
            counts["unlabeled"] += 1
        elif label is None:
            counts["neutral"] += 1
        else:
            counts[LABEL_NAMES[label]] += 1
    return CorpusStats(
        document_count=len(corpus), class_counts=counts, word_count=len(corpus.texts)
    )
