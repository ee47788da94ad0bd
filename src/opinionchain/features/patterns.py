"""Linguistic pattern counts per IPU and the fallback rule tagger.

The tagger is intentionally small: a closed-class lexicon plus suffix
heuristics, just rich enough for the pattern counters.  It keeps no
memo: ``pattern_features`` tags each type of a chunk's ``TokenChunk``
once, works out its tag column and flags (``token_pattern``), and counts
them over the chunk's units at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError

# default tag set: six content/function classes plus interjections and
# pronouns; configurable because downstream counters just count tags
DEFAULT_TAG_SET = ("ADJ", "ADV", "NOUN", "VERB", "CONJ", "PREP", "INTJ", "PRON")
OTHER_TAG = "OTHER"

_SUFFIX_RULES = (
    ("ly", "ADV"),
    ("ing", "VERB"),
    ("ed", "VERB"),
    ("ize", "VERB"),
    ("ise", "VERB"),
    ("ous", "ADJ"),
    ("ful", "ADJ"),
    ("ive", "ADJ"),
    ("able", "ADJ"),
    ("ible", "ADJ"),
    ("ic", "ADJ"),
    ("al", "ADJ"),
    ("est", "ADJ"),
    ("tion", "NOUN"),
    ("sion", "NOUN"),
    ("ness", "NOUN"),
    ("ment", "NOUN"),
    ("ity", "NOUN"),
    ("er", "NOUN"),
    ("ism", "NOUN"),
)
# the order ``RuleTagger`` tries them in: longest first, ties in table order
_SUFFIXES_LONGEST_FIRST = tuple(sorted(_SUFFIX_RULES, key=lambda r: -len(r[0])))


@dataclass(frozen=True)
class RuleTagger:
    """Lexicon lookup first, then longest-suffix heuristic, else NOUN."""

    lexicon: dict  # lowercased word -> tag
    tag_set: tuple[str, ...] = DEFAULT_TAG_SET

    def __post_init__(self):
        bad = sorted(
            {t for t in self.lexicon.values()} - set(self.tag_set) - {OTHER_TAG}
        )
        if bad:
            raise InvalidInputError(f"tagger lexicon uses unknown tags: {bad}")

    def _tag_token(self, token: str) -> str:
        low = token.lower()
        tag = self.lexicon.get(low)
        if tag is not None:
            return tag
        for suffix, candidate in _SUFFIXES_LONGEST_FIRST:
            if len(low) > len(suffix) + 1 and low.endswith(suffix):
                return candidate
        return "NOUN"

    def tag(self, tokens) -> list[str]:
        return [self._tag_token(token) for token in tokens]


@dataclass(frozen=True)
class PatternResources:
    negations: frozenset
    amplifiers: frozenset
    downtoners: frozenset
    disfluencies: frozenset
    tag_set: tuple[str, ...] = DEFAULT_TAG_SET


def pattern_feature_names(tag_set=DEFAULT_TAG_SET) -> tuple[str, ...]:
    return (
        "adj_noun",
        "negation",
        "amplifier",
        "downtoner",
        "disfluency",
        "capitalized",
    ) + tuple(f"pos_{t.lower()}" for t in tag_set)


# Bits of a token's pattern flags (``token_pattern``).  The first five
# are counted, in this order, after adj_noun; the last two mark its tag.
_NEGATION, _AMPLIFIER, _DOWNTONER, _DISFLUENCY, _CAPITALIZED, _ADJ, _NOUN = (
    1 << k for k in range(7)
)
_COUNTED_FLAGS = 5


def token_pattern(token: str, tag: str, resources: PatternResources) -> tuple[int, int]:
    """What the pattern counts read of one token tagged ``tag``: the
    tag's column in ``resources.tag_set`` (-1 if it has none) and the
    token's flag bits."""
    low = token.lower()
    flags = (
        _NEGATION * (low in resources.negations)
        | _AMPLIFIER * (low in resources.amplifiers)
        | _DOWNTONER * (low in resources.downtoners)
        | _DISFLUENCY * (low in resources.disfluencies)
        | _CAPITALIZED * token[:1].isupper()
        | _ADJ * (tag == "ADJ")
        | _NOUN * (tag == "NOUN")
    )
    column = resources.tag_set.index(tag) if tag in resources.tag_set else -1
    return column, flags


def pattern_features(tokens, tagger: RuleTagger, resources: PatternResources) -> np.ndarray:
    """(U, 6 + len(tag_set)) counts for the U units of ``tokens`` (a
    ``TokenChunk`` of words), each type tagged by ``tagger`` once:
    adjective+noun bigrams within the unit, negations, amplifiers,
    downtoners, disfluencies, capitalized tokens, then one count per
    tag."""
    types = tokens.types
    columns = [token_pattern(t, tag, resources) for t, tag in zip(types, tagger.tag(types))]
    tags, flags = np.array(columns, dtype=np.intp).reshape(-1, 2).T[:, tokens.ids]
    num_units = len(tokens)
    width = 1 + _COUNTED_FLAGS + len(resources.tag_set)
    unit = tokens.unit
    pairs = (flags[:-1] & _ADJ != 0) & (flags[1:] & _NOUN != 0) & (unit[:-1] == unit[1:])
    flagged, bit = np.nonzero((flags[:, None] >> np.arange(_COUNTED_FLAGS)) & 1)
    tagged = tags >= 0
    cells = np.concatenate(
        [
            unit[:-1][pairs] * width,
            unit[flagged] * width + 1 + bit,
            unit[tagged] * width + 1 + _COUNTED_FLAGS + tags[tagged],
        ]
    )
    counts = np.bincount(cells, minlength=num_units * width).reshape(num_units, width)
    # a tag listed twice in the tag set is counted in both of its columns
    first = [1 + _COUNTED_FLAGS + resources.tag_set.index(t) for t in resources.tag_set]
    counts[:, 1 + _COUNTED_FLAGS :] = counts[:, first]
    return counts.astype(np.float64)
