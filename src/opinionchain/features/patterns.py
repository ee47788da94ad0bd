"""Linguistic pattern counts per IPU and the fallback rule tagger.

The tagger is intentionally small: a closed-class lexicon plus suffix
heuristics, just rich enough for the pattern counters.  Any POS tagger
producing the same tag strings can be plugged in instead, and pre-tagged
input is accepted directly by ``pattern_features``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# distinct tokens one tagger remembers; later new tokens are tagged uncached
TAG_MEMO_SIZE = 1 << 16


@dataclass(frozen=True)
class RuleTagger:
    """Lexicon lookup first, then longest-suffix heuristic, else NOUN.

    A token's tag depends on the token alone, so each tagger remembers
    the tag of every distinct token it has seen (up to ``TAG_MEMO_SIZE``).
    """

    lexicon: dict  # lowercased word -> tag
    tag_set: tuple[str, ...] = DEFAULT_TAG_SET
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        memo = self.memo
        out = []
        for token in tokens:
            tag = memo.get(token)
            if tag is None:
                tag = self._tag_token(token)
                if len(memo) < TAG_MEMO_SIZE:
                    memo[token] = tag
            out.append(tag)
        return out


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


def pattern_features(tokens, tags, resources: PatternResources) -> np.ndarray:
    """Counts: adjective+noun bigrams, negations, amplifiers, downtoners,
    disfluencies, capitalized tokens, then one count per tag."""
    tokens = list(tokens)
    tags = list(tags)
    if len(tokens) != len(tags):
        raise InvalidInputError(
            f"{len(tokens)} tokens vs {len(tags)} tags; must align 1:1"
        )
    lows = [t.lower() for t in tokens]
    adj_noun = sum(
        1 for a, b in zip(tags, tags[1:]) if a == "ADJ" and b == "NOUN"
    )
    counts = [
        float(adj_noun),
        float(sum(1 for t in lows if t in resources.negations)),
        float(sum(1 for t in lows if t in resources.amplifiers)),
        float(sum(1 for t in lows if t in resources.downtoners)),
        float(sum(1 for t in lows if t in resources.disfluencies)),
        float(sum(1 for t in tokens if t[:1].isupper())),
    ]
    counts.extend(float(tags.count(tag)) for tag in resources.tag_set)
    return np.array(counts)
