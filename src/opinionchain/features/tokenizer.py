"""Word tokenization.

Rule set: split on whitespace, then keep maximal runs of word
characters, apostrophes, and hyphens; leading/trailing apostrophes and
hyphens are stripped and other punctuation is dropped.  Case is
preserved (capitalization is itself a feature downstream).  A token's
words depend on its string alone, so the pipeline tokenizes each
distinct token string once and reuses its words wherever the string
occurs.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[\w'-]+")


def tokenize(text: str) -> list[str]:
    out = []
    for chunk in _WORD_RE.findall(text):
        word = chunk.strip("'-")
        if word:
            out.append(word)
    return out


def tokenize_many(texts) -> list[list[str]]:
    """The words of each of ``texts``, one list per text."""
    return [tokenize(text) for text in texts]
