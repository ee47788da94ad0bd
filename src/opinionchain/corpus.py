"""The corpus format: reading, validation, writing, class filtering.

A corpus is a directory with a ``manifest.tsv`` and one transcript file
per document.  Both formats are line-oriented TSV with a leading
format-version line so future revisions stay detectable.

manifest.tsv::

    corpus-manifest/v1
    doc_id<TAB>file<TAB>valence
    d001<TAB>d001.txt<TAB>4
    d002<TAB>d002.txt<TAB>2,3

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
order and then line order.

``CorpusColumns`` is the one in-memory form of a corpus, from the
synthetic generator to the writer: every token's text, start and end,
each document's offsets into them, and the markers, with no object per
document or token.  ``read_corpus`` reads a corpus directory into it.
Every line is split once, and each file's times are parsed as its
records are gathered; the times are then converted to int64, and each
check run, once over the corpus's columns.  The records and documents
are looked at one by one only to list the problems of a malformed
corpus.  Training, evaluation and prediction read those columns; labels
come from the valences through ``polarity``, and ``filter_neutral`` and
``corpus_stats`` read them too.  ``save_corpus`` writes columns back out,
with an optional IPU-index column per token.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidInputError, read_utf8

log = logging.getLogger(__name__)

MANIFEST_VERSION = "corpus-manifest/v1"
TRANSCRIPT_VERSION = "transcript/v1"
MANIFEST_NAME = "manifest.tsv"

# the longest file name, in bytes, that common file systems (ext4, XFS,
# Btrfs, APFS) allow; save_corpus names each transcript after its id
_NAME_MAX = 255

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
    return str(int(value)) if value == int(value) else repr(value)


# a time is an optional "-" and ASCII digits; int() alone would also take
# "1_000", " 5", "+5" and non-ASCII digits
_TIME = re.compile(r"-?[0-9]+")
_NOT_TIME_CHAR = re.compile(r"[^0-9-]")


def _parse_int(raw: str | int, what: str) -> int:
    """The time ``raw``, a string or an int parsed already, as an int."""
    if isinstance(raw, int):
        return raw
    if _TIME.fullmatch(raw) is None:
        raise ValueError(f"{what} is not an integer: {raw!r}")
    return int(raw)


def _parse_times(raw: tuple[str, ...]) -> list[int]:
    """A file's column of time strings as ints; ValueError if any is
    not an integer of the format.  The format is checked once for the
    whole column, not once per time: a string of ASCII digits and "-"
    alone that int() accepts is an optional "-" and digits."""
    if _NOT_TIME_CHAR.search("".join(raw)):
        raise ValueError("a time is not an integer")
    return list(map(int, raw))


def _offsets(counts) -> np.ndarray:
    """(N + 1,) bounds of N consecutive runs of ``counts`` items each."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


_NO_TIMES = np.empty(0, dtype=np.int64)


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

    Every token record is split once, and its times parsed with those of
    its file; all of them are then converted to int64 at once and
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
    # the document number, text, start and end of every token record of
    # a manifest document, as four columns
    fields: tuple[list, ...] = ([], [], [], [])
    markers: list[tuple[int, int, str]] = []  # (document, time, text)
    files = []  # (path, lines of its token records, its other problems) of each file
    parsed = True  # whether every file's times parsed
    for filename in sorted({filename for _, filename, _ in entries}):
        file = os.path.join(root, filename)
        lines, found, file_parsed = _read_transcript_file(file, index, fields, markers)
        files.append((file, lines, found))
        parsed &= file_parsed

    columns = _token_columns(*fields, len(entries)) if parsed else None
    # a failed check is looked for one record and one document at a time
    documents = [] if columns is not None else _token_problems(root, entries, fields, files)
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
        valences: tuple[float, ...] | None
        if valence_raw == "-":
            valences = None
        else:
            try:
                valences = tuple(float(v) for v in valence_raw.split(","))
            except ValueError:
                problems.append((str(manifest), lineno, f"bad valence {valence_raw!r}"))
                continue
            bad = [v for v in valences if not 1.0 <= v <= 5.0]
            if bad:
                problems.append(
                    (str(manifest), lineno, f"valence {bad[0]} outside [1, 5]")
                )
                continue
        if "\0" in filename:  # no file can be named by it
            problems.append((str(manifest), lineno, f"file name {filename!r} holds a NUL byte"))
            continue
        entries.append((doc_id, filename, valences))
    return entries


def _read_transcript_file(path: str, index: dict, fields: tuple, markers: list):
    """Add the document number (in ``index``), text, start and end of the
    transcript file at ``path``'s token records that name a manifest
    document to the four lists ``fields``, the times as ints if they all
    parse, and its markers to ``markers``; return the lines of those
    token records, the (line, message) of each malformed record, and
    whether the times parsed.
    Only numbers and strings outlive the call: a corpus's split lines,
    held at once, would make the garbage collector walk them over and
    over, and its time strings take twice the memory of ints."""
    try:
        lines = read_utf8(path).splitlines()
    except FileNotFoundError:
        return [], [(0, "file listed in manifest but missing")], True
    except OSError as exc:
        return [], [(0, f"cannot read the file: {exc.strerror}")], True
    except FileFormatError:
        return [], [(0, "not UTF-8 text")], True
    if not lines or lines[0].strip() != TRANSCRIPT_VERSION:
        return [], [(1, f"first line must be {TRANSCRIPT_VERSION!r}")], True
    rows, token_lines, found = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if parts[0] == "token" and len(parts) >= 5 and parts[1] in index:
            rows.append(parts)
            token_lines.append(lineno)
        elif line.strip():
            try:
                markers.append(_marker_record(parts, index))
            except ValueError as exc:
                found.append((lineno, str(exc)))
    parsed = True
    if rows:
        _, docs, texts, starts, ends = list(zip(*rows))[:5]
        try:  # a time that is not an integer is left as it is, to be listed later
            starts, ends = _parse_times(starts), _parse_times(ends)
        except ValueError:
            parsed = False
        for field, values in zip(fields, (map(index.__getitem__, docs), texts, starts, ends)):
            field.extend(values)
    return token_lines, found, parsed


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
    if not (text.startswith("*") and text.endswith("*") and len(text) > 2):
        raise ValueError(f"marker text must be *-delimited: {text!r}")
    return index[doc_id], _parse_int(time_raw, "timeMs"), text


def _token_columns(docs, texts, starts, ends, num_docs: int):
    """The (texts, starts, ends, offsets) columns of the token records
    given by their fields, the times parsed, document by document, each
    document's records in their order here; None when a time is outside
    int64, a token ends before it starts or starts before the previous
    token of its document ends."""
    try:
        starts = np.fromiter(starts, dtype=np.int64, count=len(starts))
        ends = np.fromiter(ends, dtype=np.int64, count=len(ends))
    except OverflowError:
        return None
    doc = np.array(docs, dtype=np.intp)
    if (doc[1:] < doc[:-1]).any():  # records of a document in several files
        order = np.argsort(doc, kind="stable")
        doc, starts, ends = doc[order], starts[order], ends[order]
        texts = list(map(texts.__getitem__, order.tolist()))
    if (ends < starts).any() or ((starts[1:] < ends[:-1]) & (doc[1:] == doc[:-1])).any():
        return None
    return texts, starts, ends, _offsets(np.bincount(doc, minlength=num_docs))


def _token_problems(root: Path, entries, fields, files) -> list[tuple[str, int, str]]:
    """The problems of the token records given by their ``fields``, one
    record at a time: each malformed one is added at its line to the
    problems of its file in ``files``, and each document whose remaining
    token times break the rule (``_document_problem``) is returned, at
    line 0 of its manifest file."""
    columns = [([], [], []) for _ in entries]
    records = zip(*fields)
    for _, lines, found in files:
        for lineno, (doc, text, start, end) in zip(lines, records):
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


def save_corpus(corpus: CorpusColumns, path: str | Path, ipu_index=None):
    """Write the columns ``corpus`` as a corpus directory: the manifest
    and one transcript file per document, ``<doc_id>.txt``.

    ``ipu_index``, when given, holds each token's IPU index within its
    document, aligned with ``corpus.texts``; it is appended as an extra
    trailing column that the reader ignores.  Every document id is
    checked before any file is written, so that no part of a corpus is
    written when one of its ids cannot name a file: one that holds
    ``/`` or NUL cannot name a file in the directory, nor one whose file
    name would be longer than ``_NAME_MAX`` bytes.  All of them are
    listed in one InvalidInputError.
    """
    bad = [doc_id for doc_id in corpus.doc_ids if "/" in doc_id or "\0" in doc_id]
    long = [doc_id for doc_id in corpus.doc_ids if len(os.fsencode(f"{doc_id}.txt")) > _NAME_MAX]
    problems = []
    if bad:
        problems.append(f"document id(s) holding '/' or NUL cannot name a file: {_ids(bad)}")
    if long:
        problems.append(f"document id(s) too long for a {_NAME_MAX}-byte file name: {_ids(long)}")
    if problems:
        raise InvalidInputError("; ".join(problems))
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest_lines = [MANIFEST_VERSION, "doc_id\tfile\tvalence"]
    tails = [""] * len(corpus.texts)
    if ipu_index is not None:
        tails = [f"\t{i}" for i in ipu_index.tolist()]
    times = corpus.starts.tolist(), corpus.ends.tolist()
    tokens = list(zip(corpus.texts, *times, tails, strict=True))
    markers = list(zip(corpus.marker_texts, corpus.marker_times))
    offsets, marks = corpus.offsets.tolist(), corpus.marker_offsets.tolist()
    for doc_id, valences, a, b, p, q in zip(
        corpus.doc_ids, corpus.valences, offsets, offsets[1:], marks, marks[1:]
    ):
        filename = f"{doc_id}.txt"
        valence = "-" if valences is None else ",".join(map(_format_valence, valences))
        manifest_lines.append(f"{doc_id}\t{filename}\t{valence}")
        doc_lines = [TRANSCRIPT_VERSION]
        doc_lines += [f"token\t{doc_id}\t{t}\t{s}\t{e}{tail}" for t, s, e, tail in tokens[a:b]]
        doc_lines += [f"marker\t{doc_id}\t{text}\t{ms}" for text, ms in markers[p:q]]
        (root / filename).write_text("\n".join(doc_lines) + "\n", encoding="utf-8")
    (root / MANIFEST_NAME).write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")


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
