"""Synthetic opinion-dynamics corpora with a known analytic ceiling.

Each document is a sequence of pause-separated segments.  The final
``decisive_segments`` segments carry the document's true polarity; every
earlier segment matches the label independently with probability
``match_prob``.  A segment holds ``polar_tokens_per_segment`` words
drawn from its polarity's vocabulary plus a few neutral words, so the
label is decided by WHERE the polarity sits, not how much of it there
is.

Because token identities and neutral counts are drawn identically for
both labels given the segment polarities, the whole token multiset tells
an order-insensitive classifier nothing beyond (sequence length, number
of positive segments).  ``order_insensitive_bayes_accuracy`` sums the
binomial mass of each such pair and returns the exact optimum any
order-blind model can reach; sequence-aware models can instead read the
final segment directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusColumns
from .errors import InvalidInputError, check_field_types


@dataclass(frozen=True)
class SyntheticSpec:
    num_docs_per_label: int = 250
    min_segments: int = 4
    max_segments: int = 8
    decisive_segments: int = 1
    match_prob: float = 0.5
    polar_tokens_per_segment: int = 1
    neutral_tokens_per_segment: tuple[int, int] = (1, 3)
    num_polar_words: int = 6  # per polarity
    num_neutral_words: int = 20
    embedding_dim: int = 8
    embedding_separation: float = 1.0
    embedding_noise: float = 0.1
    word_ms: int = 200
    within_gap_ms: int = 100  # below every standard threshold
    between_gap_ms: int = 600  # above every standard threshold

    def __post_init__(self):
        check_field_types(self, InvalidInputError)
        if self.num_docs_per_label < 1:
            raise InvalidInputError("num_docs_per_label must be >= 1")
        if not 1 <= self.min_segments <= self.max_segments:
            raise InvalidInputError("need 1 <= min_segments <= max_segments")
        if not 1 <= self.decisive_segments <= self.min_segments:
            raise InvalidInputError(
                "decisive_segments must be in [1, min_segments]"
            )
        if not 0.0 <= self.match_prob <= 1.0:
            raise InvalidInputError("match_prob must be a probability")
        if self.polar_tokens_per_segment < 1 or self.num_polar_words < 1:
            raise InvalidInputError("spec needs polarity-bearing tokens")
        lo, hi = self.neutral_tokens_per_segment
        if not 0 <= lo <= hi:
            raise InvalidInputError("bad neutral_tokens_per_segment range")
        if hi > 0 and self.num_neutral_words < 1:
            raise InvalidInputError("neutral tokens requested but vocabulary empty")
        if self.embedding_dim < 1:
            raise InvalidInputError("embedding_dim must be >= 1")
        if not 0 < self.within_gap_ms < self.between_gap_ms:
            raise InvalidInputError("need 0 < within_gap_ms < between_gap_ms")


def vocabulary(spec: SyntheticSpec):
    positive = [f"pos{i}" for i in range(spec.num_polar_words)]
    negative = [f"neg{i}" for i in range(spec.num_polar_words)]
    neutral = [f"neu{i}" for i in range(spec.num_neutral_words)]
    return positive, negative, neutral


def _segment_polarities(spec: SyntheticSpec, label: int, rng) -> list[int]:
    """Per-segment polarity (0/1); the final decisive ones equal the label."""
    length = int(rng.integers(spec.min_segments, spec.max_segments + 1))
    free = length - spec.decisive_segments
    matches = rng.random(free) < spec.match_prob
    head = [label if m else 1 - label for m in matches]
    return head + [label] * spec.decisive_segments


def _segment_tokens(spec: SyntheticSpec, polarity: int, rng, words) -> list[str]:
    positive, negative, neutral = words
    pool = positive if polarity == 1 else negative
    polar = [pool[int(i)] for i in rng.integers(len(pool), size=spec.polar_tokens_per_segment)]
    lo, hi = spec.neutral_tokens_per_segment
    n_neutral = int(rng.integers(lo, hi + 1))
    toks = polar + [neutral[int(i)] for i in rng.integers(max(1, len(neutral)), size=n_neutral)]
    rng.shuffle(toks)
    return toks


def generate_corpus(spec: SyntheticSpec, seed: int) -> CorpusColumns:
    """Deterministic labeled corpus, as columns with no markers; positive
    docs get valence 5, negative 1.

    Documents alternate positive/negative in id order.  Within-segment
    gaps stay below and between-segment gaps above all the standard
    pause thresholds, so segmentation recovers the intended segments.
    """
    rng = np.random.default_rng(seed)
    words = vocabulary(spec)
    num_docs = 2 * spec.num_docs_per_label
    texts, starts, offsets = [], [], [0]
    for i in range(num_docs):
        label = 1 if i % 2 == 0 else 0
        polarities = _segment_polarities(spec, label, rng)
        t = 0
        for j, polarity in enumerate(polarities):
            if j > 0:
                t += spec.between_gap_ms
            for k, text in enumerate(_segment_tokens(spec, polarity, rng, words)):
                if k > 0:
                    t += spec.within_gap_ms
                texts.append(text)
                starts.append(t)
                t += spec.word_ms
        offsets.append(len(texts))
    start_ms = np.array(starts, dtype=np.int64)
    return CorpusColumns(
        tuple(f"syn{i:04d}" for i in range(num_docs)),
        tuple((5.0,) if i % 2 == 0 else (1.0,) for i in range(num_docs)),
        texts,
        start_ms,
        start_ms + spec.word_ms,
        np.array(offsets, dtype=np.intp),
        [],
        [],
        np.zeros(num_docs + 1, dtype=np.intp),
    )


def generate_embeddings(spec: SyntheticSpec, seed: int) -> dict:
    """word -> vector table separating the two polar vocabularies along
    the first axis, with isotropic noise; neutral words are pure noise."""
    rng = np.random.default_rng(seed)
    positive, negative, neutral = vocabulary(spec)
    table = {}
    for word in positive + negative + neutral:
        vec = spec.embedding_noise * rng.standard_normal(spec.embedding_dim)
        if word in positive:
            vec[0] += spec.embedding_separation
        elif word in negative:
            vec[0] -= spec.embedding_separation
        table[word] = vec
    return table


def write_embeddings(table: dict, path):
    lines = [
        word + " " + " ".join(repr(float(v)) for v in vec)
        for word, vec in table.items()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def order_insensitive_bayes_accuracy(spec: SyntheticSpec) -> float:
    """Exact optimal accuracy of any classifier blind to segment order.

    Given the per-segment polarities, everything else (token identities,
    neutral counts, timing) is drawn from label-independent
    distributions, so the only label evidence in a bag of tokens is the
    pair (L, number of positive segments); the optimum picks the likelier
    label per pair.  Balanced label prior, ties split 50/50.

    A polarity sequence's probability depends only on the number k of
    its free (non-decisive) segments that match the label, so each pair's
    mass is one binomial term, C(free, k) p^k (1 - p)^(free - k): under
    label 1 the pair has k + decisive positives, under label 0 it has
    free - k.  That is free + 1 terms per length, where there are 2^free
    sequences.  Past about a thousand free segments C(free, k) no longer
    fits in a float, and such a spec is an InvalidInputError.
    """
    p, decisive = spec.match_prob, spec.decisive_segments
    lengths = range(spec.min_segments, spec.max_segments + 1)
    length_prob = 1.0 / len(lengths)
    correct = 0.0
    for length in lengths:
        free = length - decisive
        try:  # mass[k]: probability of the length and of k matching free segments
            mass = [
                length_prob * math.comb(free, k) * p**k * (1.0 - p) ** (free - k)
                for k in range(free + 1)
            ]
        except OverflowError:
            raise InvalidInputError(
                f"no order-insensitive bound for {free} free segments: too many for a float"
            ) from None
        for n_pos in range(length + 1):
            k_pos, k_neg = n_pos - decisive, free - n_pos
            p_pos = mass[k_pos] if 0 <= k_pos <= free else 0.0
            p_neg = mass[k_neg] if 0 <= k_neg else 0.0
            correct += 0.5 * max(p_neg, p_pos)
    return correct
