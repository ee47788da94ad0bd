"""Word-embedding lookup table and the mean-pooled IPU representation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import FileFormatError, InvalidInputError, read_utf8


@dataclass
class EmbeddingTable:
    """word -> vector map with a fixed dimension and a case policy.

    ``lowercase=True`` means both table keys and lookups are folded to
    lower case before matching.
    """

    vectors: dict[str, np.ndarray]
    dim: int
    lowercase: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError("embedding dimension must be >= 1")
        fixed = {}
        for word, vec in self.vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dim,):
                raise InvalidInputError(
                    f"embedding for {word!r} has shape {arr.shape}, want ({self.dim},)"
                )
            if not np.isfinite(arr).all():
                raise InvalidInputError(f"non-finite embedding for {word!r}")
            fixed[word.lower() if self.lowercase else word] = arr
        self.vectors = fixed

    def lookup(self, token: str) -> np.ndarray | None:
        return self.vectors.get(token.lower() if self.lowercase else token)

    def __len__(self):
        return len(self.vectors)


def load_embeddings(path: str | Path, lowercase: bool = True) -> EmbeddingTable:
    """Read a text embedding file: one "word v1 .. vE" record per line,
    optionally preceded by a "count dim" header line."""
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty embedding file")

    start = 0
    header = lines[0].split()
    if len(header) == 2:
        try:
            int(header[0]), int(header[1])
            start = 1
        except ValueError:
            pass

    problems = []
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            problems.append((str(path), lineno, "record needs a word and at least one value"))
            continue
        word = parts[0]
        try:
            values = np.array([float(v) for v in parts[1:]])
        except ValueError:
            problems.append((str(path), lineno, "non-numeric embedding value"))
            continue
        if dim is None:
            dim = values.size
        elif values.size != dim:
            problems.append(
                (str(path), lineno, f"dimension {values.size} != first record's {dim}")
            )
            continue
        if not np.isfinite(values).all():
            problems.append((str(path), lineno, "non-finite embedding value"))
            continue
        vectors[word] = values
    if problems:
        raise FileFormatError(f"{len(problems)} malformed embedding record(s)", problems)
    if not vectors:
        raise FileFormatError(f"{path}: no embedding records")
    return EmbeddingTable(vectors=vectors, dim=int(dim), lowercase=lowercase)


def embed_units(tokens, table: EmbeddingTable, stopwords: frozenset) -> np.ndarray:
    """(U, E + 1) rows of the U IPUs of ``tokens`` (a ``TokenChunk`` of
    words): each IPU's mean of its in-vocabulary, non-stopword token
    vectors, plus a trailing coverage flag (0, and a zero mean, when
    nothing was covered).  Each type is tested against the stopwords and
    looked up once.  Each IPU's covered vectors are then summed in token
    order, starting from the first, and divided by their count, so a row
    is bitwise ``np.mean`` of its vectors along axis 0, which adds them
    in that order.  Rank r of every IPU is added at once, so the loop
    runs once per rank, not once per IPU."""
    found = [None if t.lower() in stopwords else table.lookup(t) for t in tokens.types]
    hits = [k for k, vec in enumerate(found) if vec is not None]
    row_of = np.full(len(found), -1, dtype=np.intp)  # each type's row of ``rows``, or -1
    row_of[hits] = np.arange(len(hits))
    vector_of = row_of[tokens.ids]
    hit = vector_of >= 0
    unit_of, vector_of = tokens.unit[hit], vector_of[hit]  # of each covered token, in order
    num_units = len(tokens)
    out = np.zeros((num_units, table.dim + 1))
    if not unit_of.size:
        return out
    counts = np.bincount(unit_of, minlength=num_units)
    rank = np.arange(unit_of.size) - (np.cumsum(counts) - counts)[unit_of]
    sums, rows = out[:, : table.dim], np.array([found[k] for k in hits])
    for r in range(int(counts.max())):
        at = rank == r
        if r == 0:
            sums[unit_of[at]] = rows[vector_of[at]]
        else:
            sums[unit_of[at]] += rows[vector_of[at]]
    covered = counts > 0
    sums[covered] /= counts[covered, None]
    out[covered, table.dim] = 1.0
    return out
