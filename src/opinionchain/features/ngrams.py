"""Bag-of-n-grams features: stems, uni/bi/trigrams, TF-IDF, length norm.

Tokens are lowercased and Porter-stemmed; n-grams up to the configured
order are joined with "_".  IDF uses the log(N / df) convention with no
smoothing, so a term present in every fitting document gets weight 0.
Transform output is tf * idf divided by the unit's token count, given
by its nonzero entries, for all the units of a chunk of documents at
once; the vocabulary and document frequencies come from training folds
only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, InvalidInputError
from .stemmer import stem

MAX_ORDER = 3


def stem_tokens(tokens) -> list[str]:
    return [stem(tok.lower()) for tok in tokens]


def extract_ngrams(tokens, max_order: int = MAX_ORDER) -> list[str]:
    """All 1..max_order grams over the stemmed token sequence."""
    if max_order < 1:
        raise InvalidInputError("max_order must be >= 1")
    stems = stem_tokens(tokens)
    grams = list(stems)
    for order in range(2, max_order + 1):
        grams.extend(
            "_".join(stems[i : i + order]) for i in range(len(stems) - order + 1)
        )
    return grams


@dataclass(frozen=True)
class NGramVocabulary:
    """Fitted term index with document frequencies and IDF values."""

    terms: tuple[str, ...]
    doc_freq: np.ndarray  # (V,) ints
    num_docs: int
    max_order: int = MAX_ORDER
    index: dict = field(default_factory=dict, repr=False, compare=False)
    idf: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
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


def fit_bong(train_docs, max_order: int = MAX_ORDER, min_df: int = 1) -> NGramVocabulary:
    """Build the vocabulary from training documents (token lists).

    ``min_df`` drops rare terms; terms are indexed in sorted order so the
    fit is independent of document order.
    """
    if min_df < 1:
        raise InvalidInputError("min_df must be >= 1")
    docs = list(train_docs)
    if not docs:
        raise ConfigurationError("cannot fit an n-gram vocabulary on zero documents")
    df = Counter()
    for tokens in docs:
        df.update(set(extract_ngrams(tokens, max_order)))
    terms = tuple(sorted(t for t, c in df.items() if c >= min_df))
    if not terms:
        raise ConfigurationError(
            "empty vocabulary after fitting; lower min_df or supply non-empty documents"
        )
    return NGramVocabulary(
        terms=terms,
        doc_freq=np.array([df[t] for t in terms], dtype=np.int64),
        num_docs=len(docs),
        max_order=max_order,
    )


def vectorize_bong(tokens, vocab: NGramVocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TF-IDF vectors of the U units of ``tokens`` (a ``TokenChunk``
    with stem ids) over the fitted vocabulary, as their nonzero entries:
    ``(rows, indices, values)``, where ``rows`` is the unit and
    ``indices`` the vocabulary index of each entry, in ascending (row,
    index) order, and ``values`` its tf * idf / the unit's token count (0
    for a term of idf 0).  Out-of-vocabulary n-grams are ignored, so a
    unit with none in the vocabulary has no entries.

    An n-gram of order k is a run of k stem ids within one unit.  The
    distinct runs are numbered by one ``np.unique`` over the pairs (the
    number of the run's first k-1 stems, its last stem id), so no key
    outgrows the token count times the stem count, and each is joined
    and looked up in the vocabulary once per call, however often it
    occurs."""
    index, width = vocab.index, len(vocab)
    stems, unit, names = tokens.stems, tokens.unit, tokens.stem_names
    words = [names[s] for s in stems.tolist()]  # the stem of each token
    # unit * width + vocabulary index, one per in-vocabulary n-gram
    cells = [np.empty(0, dtype=np.intp)]
    prefix = np.zeros(len(stems), dtype=np.int64)  # number of the run before each token
    for order in range(1, vocab.max_order + 1):
        count = len(stems) - order + 1
        if count <= 0:
            break
        within = unit[:count] == unit[order - 1 :]
        keys = np.where(within, prefix[:count] * len(names) + stems[order - 1 :], -1)
        distinct, first, number = np.unique(keys, return_index=True, return_inverse=True)
        terms = np.array(
            [
                index.get("_".join(words[p : p + order]), -1)
                if key >= 0
                else -1
                for key, p in zip(distinct.tolist(), first.tolist())
            ],
            dtype=np.intp,
        )[number]
        kept = terms >= 0
        cells.append(unit[:count][kept] * width + terms[kept])
        prefix = number
    cells, term_freqs = np.unique(np.concatenate(cells), return_counts=True)
    rows, indices = np.divmod(cells, width)
    values = term_freqs * vocab.idf[indices]
    values /= np.maximum(tokens.sizes, 1).astype(np.float64)[rows]
    return rows, indices, values
