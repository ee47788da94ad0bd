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

Token times are milliseconds; consecutive tokens must not overlap.
Extra trailing columns on token/marker lines are ignored, which lets a
segmented corpus (with an appended IPU-index column) reload cleanly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import FileFormatError, InvalidInputError, read_utf8

log = logging.getLogger(__name__)

MANIFEST_VERSION = "corpus-manifest/v1"
TRANSCRIPT_VERSION = "transcript/v1"
MANIFEST_NAME = "manifest.tsv"

NEGATIVE, POSITIVE = 0, 1
LABEL_NAMES = ("negative", "positive")


@dataclass(frozen=True)
class TranscriptToken:
    text: str
    start_ms: int
    end_ms: int


@dataclass(frozen=True)
class ParaMarker:
    text: str  # asterisk-delimited, e.g. "*chuckling*"
    time_ms: int


@dataclass(frozen=True)
class Transcript:
    """One document: timed tokens, paralinguistic markers, optional valence."""

    doc_id: str
    tokens: tuple[TranscriptToken, ...]
    para_markers: tuple[ParaMarker, ...] = ()
    valences: tuple[float, ...] | None = None  # one raw value per annotator

    def __post_init__(self):
        prev_end = None
        for tok in self.tokens:
            if tok.end_ms < tok.start_ms:
                raise InvalidInputError(
                    f"{self.doc_id}: token {tok.text!r} ends before it starts"
                )
            if prev_end is not None and tok.start_ms < prev_end:
                raise InvalidInputError(
                    f"{self.doc_id}: token times not non-decreasing at {tok.text!r}"
                )
            prev_end = tok.end_ms
        if self.valences is not None:
            if not self.valences:
                raise InvalidInputError(f"{self.doc_id}: empty valence tuple")
            for v in self.valences:
                if not 1.0 <= v <= 5.0:
                    raise InvalidInputError(f"{self.doc_id}: valence {v} outside [1, 5]")

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
        return len(self.tokens)


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

    records: dict[str, tuple[list[TranscriptToken], list[ParaMarker]]] = {
        doc_id: ([], []) for doc_id, _, _ in entries
    }
    for filename in sorted({f for _, f, _ in entries}):
        _read_transcript_file(root / filename, records, problems)

    corpus = []
    for doc_id, filename, valences in entries:
        tokens, markers = records[doc_id]
        try:
            corpus.append(
                Transcript(
                    doc_id=doc_id,
                    tokens=tuple(tokens),
                    para_markers=tuple(sorted(markers, key=lambda m: m.time_ms)),
                    valences=valences,
                )
            )
        except InvalidInputError as exc:
            problems.append((str(root / filename), 0, str(exc)))
    if problems:
        raise FileFormatError(f"{len(problems)} malformed record(s) in {root}", problems)
    return corpus


def _read_transcript_file(path: Path, records, problems):
    if not path.exists():
        problems.append((str(path), 0, "file listed in manifest but missing"))
        return
    try:
        lines = read_utf8(path).splitlines()
    except FileFormatError:
        problems.append((str(path), 0, "not UTF-8 text"))
        return
    if not lines or lines[0].strip() != TRANSCRIPT_VERSION:
        problems.append((str(path), 1, f"first line must be {TRANSCRIPT_VERSION!r}"))
        return
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        kind = parts[0]
        try:
            if kind == "token":
                if len(parts) < 5:
                    raise ValueError(f"token record needs 5 columns, got {len(parts)}")
                _, doc_id, text, start_raw, end_raw = parts[:5]
                if doc_id not in records:
                    raise ValueError(f"doc_id {doc_id!r} not in manifest")
                start = _parse_int(start_raw, "startMs")
                end = _parse_int(end_raw, "endMs")
                if end < start:
                    raise ValueError(f"endMs {end} < startMs {start}")
                records[doc_id][0].append(TranscriptToken(text, start, end))
            elif kind == "marker":
                if len(parts) < 4:
                    raise ValueError(f"marker record needs 4 columns, got {len(parts)}")
                _, doc_id, text, time_raw = parts[:4]
                if doc_id not in records:
                    raise ValueError(f"doc_id {doc_id!r} not in manifest")
                if not (text.startswith("*") and text.endswith("*") and len(text) > 2):
                    raise ValueError(f"marker text must be *-delimited: {text!r}")
                records[doc_id][1].append(ParaMarker(text, _parse_int(time_raw, "timeMs")))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            problems.append((str(path), lineno, str(exc)))
    # sequencing errors (non-monotone times) are caught by the Transcript
    # constructor, per document, after all files are read, and reported
    # with the records' problems


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
        for pos, tok in enumerate(doc.tokens):
            row = f"token\t{doc.doc_id}\t{tok.text}\t{tok.start_ms}\t{tok.end_ms}"
            if index is not None:
                row += f"\t{index[pos]}"
            doc_lines.append(row)
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
