"""Transcript corpus format: loading, validation, saving, class filtering.

A corpus is a directory with a ``manifest.tsv`` and one transcript file
per document.  Both formats are line-oriented TSV with a leading
format-version line so future revisions stay detectable.

manifest.tsv::

    corpus-manifest/v1
    doc_id<TAB>file<TAB>valence
    d001<TAB>d001.txt<TAB>4
    d002<TAB>d002.txt<TAB>2,3

The valence column holds one value per annotator, comma-separated, each
in [1, 5]; ``-`` marks an unlabeled document.  Transcript files::

    transcript/v1
    token<TAB>d001<TAB>great<TAB>100<TAB>400
    marker<TAB>d001<TAB>*chuckling*<TAB>450

Token times are whole milliseconds (int64); consecutive tokens must not
overlap.  Extra trailing columns on token/marker lines are ignored, which
lets a segmented corpus (with an appended IPU-index column) reload
cleanly.  A record may name any document of the manifest, whatever file
it is in: a document's tokens are gathered from every file, in file-name
order and then line order.

A loaded ``Transcript`` holds its tokens as columns (texts, start times,
end times), built from a file's split lines with one conversion of all
of its times; no object is made per token.
"""

from __future__ import annotations

import itertools
import logging
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidInputError, read_utf8

log = logging.getLogger(__name__)

MANIFEST_VERSION = "corpus-manifest/v1"
TRANSCRIPT_VERSION = "transcript/v1"
MANIFEST_NAME = "manifest.tsv"

NEGATIVE, POSITIVE = 0, 1
LABEL_NAMES = ("negative", "positive")


@dataclass(frozen=True)
class ParaMarker:
    text: str  # asterisk-delimited, e.g. "*chuckling*"
    time_ms: int


def _time_column(values) -> np.ndarray:
    """The transcript's own read-only int64 copy of ``values``.  They
    must be integers already: TypeError for any other kind (a float time
    is not rounded, nor a string parsed), or for unsigned ones that may
    not fit."""
    column = np.array(values)
    if not column.size:
        column = column.astype(np.int64)
    if column.dtype.kind not in "iu":
        raise TypeError(f"times of dtype {column.dtype}")
    column = column.astype(np.int64, casting="safe", copy=False)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Transcript:
    """One document: timed tokens, paralinguistic markers, optional valence.

    The tokens are held as columns: token i is ``texts[i]``, spoken from
    ``starts[i]`` to ``ends[i]`` ms.  The times are read-only int64
    arrays, and two transcripts are equal when their contents are; a
    transcript hashes by its id and texts."""

    doc_id: str
    texts: tuple[str, ...]
    starts: np.ndarray
    ends: np.ndarray
    para_markers: tuple[ParaMarker, ...] = ()
    valences: tuple[float, ...] | None = None  # one raw value per annotator

    def __post_init__(self):
        texts = tuple(self.texts)
        try:
            starts, ends = _time_column(self.starts), _time_column(self.ends)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{self.doc_id}: token times must be int64: {exc}") from None
        if not (starts.ndim == ends.ndim == 1 and len(texts) == starts.size == ends.size):
            raise InvalidInputError(
                f"{self.doc_id}: {len(texts)} token texts, {starts.size} start "
                f"and {ends.size} end times"
            )
        early = ends < starts
        overlap = starts[1:] < ends[:-1]
        if early.any() or overlap.any():  # name the first offending token
            i = int(min([*np.flatnonzero(early)[:1], *np.flatnonzero(overlap)[:1] + 1]))
            if early[i]:
                raise InvalidInputError(f"{self.doc_id}: token {texts[i]!r} ends before it starts")
            raise InvalidInputError(
                f"{self.doc_id}: token times not non-decreasing at {texts[i]!r}"
            )
        if self.valences is not None:
            if not self.valences:
                raise InvalidInputError(f"{self.doc_id}: empty valence tuple")
            for v in self.valences:
                if not 1.0 <= v <= 5.0:
                    raise InvalidInputError(f"{self.doc_id}: valence {v} outside [1, 5]")
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        return (
            (self.doc_id, self.texts, self.para_markers, self.valences)
            == (other.doc_id, other.texts, other.para_markers, other.valences)
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
        )

    def __hash__(self):
        return hash((self.doc_id, self.texts))

    @property
    def mean_valence(self) -> float | None:
        if self.valences is None:
            return None
        return sum(self.valences) / len(self.valences)

    @property
    def polarity(self) -> int | None:
        """Derived binary label: < 3 negative, > 3 positive, else None."""
        mean = self.mean_valence
        if mean is None or mean == 3.0:
            return None
        return NEGATIVE if mean < 3.0 else POSITIVE

    @property
    def word_count(self) -> int:
        return len(self.texts)


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


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {raw!r}") from None


def load_corpus(path: str | Path) -> list[Transcript]:
    """Load and validate a corpus directory.

    Any malformed record, and any document whose token times the
    ``Transcript`` constructor rejects (one problem per document, at line
    0 of its file), is collected, and a single error reporting every one
    of them is raised at the end; an empty directory loads as an empty
    corpus with a warning.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileFormatError(f"corpus path is not a directory: {root}")
    manifest = root / MANIFEST_NAME
    if not manifest.exists():
        if not any(root.iterdir()):
            log.warning("empty corpus directory %s", root)
            return []
        raise FileFormatError(f"missing {MANIFEST_NAME} in {root}")

    problems: list[tuple[str, int, str]] = []
    entries: list[tuple[str, str, tuple[float, ...] | None]] = []
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
        entries.append((doc_id, filename, valences))

    # each document's token columns (texts, starts, ends), filled from
    # every file that holds its records, and its markers
    records: dict[str, tuple[list, list, list, list[ParaMarker]]] = {
        doc_id: ([], [], [], []) for doc_id, _, _ in entries
    }
    for filename in sorted({f for _, f, _ in entries}):
        _read_transcript_file(os.path.join(root, filename), records, problems)

    corpus = []
    for doc_id, filename, valences in entries:
        texts, starts, ends, markers = records[doc_id]
        try:
            corpus.append(
                Transcript(
                    doc_id,
                    texts,
                    starts,
                    ends,
                    para_markers=tuple(sorted(markers, key=lambda m: m.time_ms)),
                    valences=valences,
                )
            )
        except InvalidInputError as exc:
            problems.append((os.path.join(root, filename), 0, str(exc)))
    if problems:
        raise FileFormatError(f"{len(problems)} malformed record(s) in {root}", problems)
    return corpus


def _read_transcript_file(path: str, records, problems):
    """Add the records of the transcript file at ``path`` to ``records``
    and its malformed records, in line order, to ``problems``.  A token
    record of a manifest document is only split here; its times are
    converted with those of all the file's tokens (``_add_tokens``)."""
    try:
        lines = read_utf8(path).splitlines()
    except FileNotFoundError:
        problems.append((path, 0, "file listed in manifest but missing"))
        return
    except OSError as exc:
        problems.append((path, 0, f"cannot read the file: {exc.strerror}"))
        return
    except FileFormatError:
        problems.append((path, 0, "not UTF-8 text"))
        return
    if not lines or lines[0].strip() != TRANSCRIPT_VERSION:
        problems.append((path, 1, f"first line must be {TRANSCRIPT_VERSION!r}"))
        return
    found: list[tuple[int, str]] = []  # (line, message) of each malformed record
    tokens, token_lines = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if parts[0] == "token" and len(parts) >= 5 and parts[1] in records:
            tokens.append(parts)
            token_lines.append(lineno)
        elif line.strip():
            try:
                _read_other_record(parts, records)
            except ValueError as exc:
                found.append((lineno, str(exc)))
    found += _add_tokens(tokens, token_lines, records)
    problems.extend((path, lineno, message) for lineno, message in sorted(found))
    # sequencing errors (non-monotone times) are caught by the Transcript
    # constructor, per document, after all files are read, and reported
    # with the records' problems


def _read_other_record(parts: list[str], records):
    """Add a marker record to ``records``; any other record that reaches
    here is malformed and raises ValueError."""
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
    if doc_id not in records:
        raise ValueError(f"doc_id {doc_id!r} not in manifest")
    if not (text.startswith("*") and text.endswith("*") and len(text) > 2):
        raise ValueError(f"marker text must be *-delimited: {text!r}")
    records[doc_id][3].append(ParaMarker(text, _parse_int(time_raw, "timeMs")))


def _add_tokens(rows: list[list[str]], linenos: list[int], records) -> list[tuple[int, str]]:
    """Add a file's token records, the split lines ``rows`` at lines
    ``linenos``, to the columns of their documents, and return the
    (line, message) of each malformed one.  All start and end times are converted at once; only
    when one is not an integer or ends before it starts are the records
    looked at one by one, to find which."""
    if not rows:
        return []
    _, docs, texts, starts, ends = list(zip(*rows))[:5]
    try:
        starts, ends = list(map(int, starts)), list(map(int, ends))
        well_formed = not any(map(operator.lt, ends, starts))
    except ValueError:
        well_formed = False
    if not well_formed:
        found, kept, kept_lines = [], [], []
        for row, lineno in zip(rows, linenos):
            try:
                start, end = _parse_int(row[3], "startMs"), _parse_int(row[4], "endMs")
                if end < start:
                    raise ValueError(f"endMs {end} < startMs {start}")
            except ValueError as exc:
                found.append((lineno, str(exc)))
            else:
                kept.append(row)
                kept_lines.append(lineno)
        return found + _add_tokens(kept, kept_lines, records)
    at = 0
    for doc_id, run in itertools.groupby(docs):  # each run of one document's records
        size = len(list(run))
        columns = records[doc_id]
        for column, values in zip(columns, (texts, starts, ends)):
            column.extend(values[at : at + size])
        at += size
    return []


def save_corpus(corpus: list[Transcript], path: str | Path, ipu_index=None):
    """Write a corpus directory (manifest + one transcript file per doc).

    ``ipu_index``, when given, maps doc_id to a per-token IPU index list;
    it is appended as an extra trailing column that the loader ignores.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest_lines = [MANIFEST_VERSION, "doc_id\tfile\tvalence"]
    for doc in corpus:
        filename = f"{doc.doc_id}.txt"
        valence = (
            "-"
            if doc.valences is None
            else ",".join(_format_valence(v) for v in doc.valences)
        )
        manifest_lines.append(f"{doc.doc_id}\t{filename}\t{valence}")
        doc_lines = [TRANSCRIPT_VERSION]
        index = ipu_index.get(doc.doc_id) if ipu_index else None
        tails = [""] * len(doc.texts) if index is None else [f"\t{i}" for i in index]
        rows = zip(doc.texts, doc.starts.tolist(), doc.ends.tolist(), tails, strict=True)
        doc_lines += [f"token\t{doc.doc_id}\t{t}\t{s}\t{e}{tail}" for t, s, e, tail in rows]
        for marker in doc.para_markers:
            doc_lines.append(f"marker\t{doc.doc_id}\t{marker.text}\t{marker.time_ms}")
        (root / filename).write_text("\n".join(doc_lines) + "\n", encoding="utf-8")
    (root / MANIFEST_NAME).write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")


def filter_neutral(corpus: list[Transcript]) -> list[Transcript]:
    """Drop unlabeled and mean-valence-3 documents; the rest map to a
    binary polarity via the ``polarity`` property.  Idempotent."""
    kept = [doc for doc in corpus if doc.polarity is not None]
    if not kept and corpus:
        log.warning("filter_neutral removed every document")
    return kept


def corpus_stats(corpus: list[Transcript]) -> CorpusStats:
    counts = {"negative": 0, "neutral": 0, "positive": 0, "unlabeled": 0}
    words = 0
    for doc in corpus:
        words += doc.word_count
        if doc.valences is None:
            counts["unlabeled"] += 1
        elif doc.polarity is None:
            counts["neutral"] += 1
        else:
            counts[LABEL_NAMES[doc.polarity]] += 1
    return CorpusStats(document_count=len(corpus), class_counts=counts, word_count=words)
