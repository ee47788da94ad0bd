"""Bag-of-n-grams features: stems, uni/bi/trigrams, TF-IDF, length norm.

Tokens are lowercased and Porter-stemmed; n-grams up to the configured
order are joined with "_".  Fit and transform both enumerate them from
the words of a ``TokenChunk``, stemming each of its types once
(``_runs``).  IDF uses the log(N / df) convention with no smoothing, so
a term present in every fitting document gets weight 0.  Transform
output is tf * idf divided by the unit's token count, given by its
nonzero entries, for all the units of a chunk of documents at once; the
vocabulary and document frequencies come from training folds only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, InvalidInputError
from .stemmer import stem


@dataclass(frozen=True)
class NGramVocabulary:
    """Fitted term index with document frequencies and IDF values."""

    terms: tuple[str, ...]
    doc_freq: np.ndarray  # (V,) ints
    num_docs: int
    max_order: int
    index: dict = field(default_factory=dict, repr=False, compare=False)
    idf: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.max_order < 1:
            raise InvalidInputError("max_order must be >= 1")
        if len(self.terms) != len(set(self.terms)):
            raise InvalidInputError("duplicate vocabulary terms")
        df = np.asarray(self.doc_freq, dtype=np.int64)
        if df.shape != (len(self.terms),):
            raise InvalidInputError("doc_freq length must match terms")
        if self.num_docs < 1 or (df < 1).any() or (df > self.num_docs).any():
            raise InvalidInputError("document frequencies out of range")
        object.__setattr__(self, "doc_freq", df)
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})
        object.__setattr__(self, "idf", np.log(self.num_docs / df))

    def __len__(self):
        return len(self.terms)


def _runs(tokens, max_order: int):
    """The n-grams of ``tokens`` (a ``TokenChunk`` of words), one order
    k = 1..``max_order`` at a time, as ``(units, runs, grams)``:
    ``grams`` the distinct runs of k stems within one unit, each joined
    with "_" once however often it occurs, and ``units`` and ``runs`` the
    unit and the index into ``grams`` of each occurrence.  Each type is
    stemmed once and its stem numbered; the runs are numbered by one
    ``np.unique`` over the pairs (number of the first k-1 stems, last
    stem id), so no key outgrows T * S."""
    numbers: dict[str, int] = {}  # a number for each distinct stem
    stem_of = [numbers.setdefault(stem(word), len(numbers)) for word in tokens.types]
    stems = np.array(stem_of, dtype=np.intp)[tokens.ids]
    unit, names = tokens.unit, list(numbers)
    words = [names[s] for s in stems.tolist()]  # the stem of each token
    prefix = np.zeros(len(stems), dtype=np.int64)  # number of the run before each token
    for order in range(1, max_order + 1):
        count = len(stems) - order + 1
        if count <= 0:
            return
        within = unit[:count] == unit[order - 1 :]
        keys = np.where(within, prefix[:count] * len(names) + stems[order - 1 :], -1)
        distinct, first, number = np.unique(keys, return_index=True, return_inverse=True)
        crossing = int(distinct[0] < 0)  # runs that leave their unit all have number 0
        grams = ["_".join(words[p : p + order]) for p in first[crossing:].tolist()]
        yield unit[:count][within], number[within] - crossing, grams
        prefix = number


def fit_bong(tokens, max_order: int, min_df: int) -> NGramVocabulary:
    """The vocabulary of ``tokens``, a ``TokenChunk`` of words with one
    unit per training document.  A term counts once per document,
    however many runs join to it (tokens may contain "_"); ``min_df``
    drops rare terms, and the terms are indexed in sorted order."""
    if min_df < 1:
        raise InvalidInputError("min_df must be >= 1")
    num_docs = len(tokens)
    if not num_docs:
        raise ConfigurationError("cannot fit an n-gram vocabulary on zero documents")
    if max_order < 1:
        raise InvalidInputError("max_order must be >= 1")
    numbers: dict[str, int] = {}  # a number for each distinct term
    cells = [np.empty(0, dtype=np.int64)]  # term number * num_docs + document
    for units, runs, grams in _runs(tokens, max_order):
        ids = np.array([numbers.setdefault(g, len(numbers)) for g in grams], dtype=np.int64)
        cells.append(ids[runs] * num_docs + units)
    cells = np.sort(np.concatenate(cells))  # not np.unique, whose numpy 2 path imports numpy.ma
    df = np.bincount(cells[np.diff(cells, prepend=-1) > 0] // num_docs, minlength=len(numbers))
    kept = sorted(gram for gram, k in numbers.items() if df[k] >= min_df)
    if not kept:
        raise ConfigurationError(
            "empty vocabulary after fitting; lower min_df or supply non-empty documents"
        )
    return NGramVocabulary(
        terms=tuple(kept),
        doc_freq=df[[numbers[gram] for gram in kept]],
        num_docs=num_docs,
        max_order=max_order,
    )


def vectorize_bong(tokens, vocab: NGramVocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TF-IDF vectors of the U units of ``tokens`` (a ``TokenChunk`` of
    words) over the fitted vocabulary, as their nonzero entries:
    ``(rows, indices, values)``, where ``rows`` is the unit and
    ``indices`` the vocabulary index of each entry, in ascending (row,
    index) order, and ``values`` its tf * idf / the unit's token count (0
    for a term of idf 0).  Out-of-vocabulary n-grams are ignored, so a
    unit with none in the vocabulary has no entries."""
    index, width = vocab.index, len(vocab)
    # unit * width + vocabulary index, one per in-vocabulary n-gram
    cells = [np.empty(0, dtype=np.intp)]
    for units, runs, grams in _runs(tokens, vocab.max_order):
        terms = np.array([index.get(gram, -1) for gram in grams], dtype=np.intp)[runs]
        kept = terms >= 0
        cells.append(units[kept] * width + terms[kept])
    cells, term_freqs = np.unique(np.concatenate(cells), return_counts=True)
    rows, indices = np.divmod(cells, width)
    values = term_freqs * vocab.idf[indices]
    values /= np.maximum(np.diff(tokens.offsets), 1).astype(np.float64)[rows]
    return rows, indices, values
