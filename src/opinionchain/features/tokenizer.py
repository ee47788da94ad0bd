"""Word tokenization and the pluggable token normalizer.

Rule set: split on whitespace, then keep maximal runs of word
characters, apostrophes, and hyphens; leading/trailing apostrophes and
hyphens are stripped and other punctuation is dropped.  Case is
preserved (capitalization is itself a feature downstream).

The normalizer hook exists so a spell-corrector can be plugged in; the
default is the identity and the only named normalizer shipped.  A
normalizer must be a pure function of its string: the pipeline
tokenizes each distinct token string once and reuses its words
wherever the string occurs.
"""

from __future__ import annotations

import re
from typing import Callable

from ..errors import ConfigurationError

_WORD_RE = re.compile(r"[\w'-]+")

Normalizer = Callable[[str], str]


def identity_normalizer(token: str) -> str:
    return token


NORMALIZERS: dict[str, Normalizer] = {"identity": identity_normalizer}


def get_normalizer(name: str) -> Normalizer:
    try:
        return NORMALIZERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown normalizer {name!r}; available: {sorted(NORMALIZERS)}"
        ) from None


def tokenize(text: str, normalizer: Normalizer = identity_normalizer) -> list[str]:
    out = []
    for chunk in _WORD_RE.findall(text):
        word = chunk.strip("'-")
        if word:
            out.append(normalizer(word))
    return out


def tokenize_many(texts, normalizer: Normalizer = identity_normalizer) -> list[list[str]]:
    """The words of each of ``texts``, one list per text."""
    return [tokenize(text, normalizer) for text in texts]
