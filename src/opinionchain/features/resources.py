"""Loaders for the versioned resource files shipped with the package.

Every resource file starts with a ``<kind>/v1`` line so a stale or
mismatched file fails loudly instead of silently changing features.
The shipped defaults live in ``opinionchain/resources/``; any loader
also accepts an explicit path to a user-supplied replacement.
"""

from __future__ import annotations

import math
from importlib import resources as importlib_resources
from pathlib import Path

from ..errors import ConfigurationError, FileFormatError, read_utf8
from .lexicons import ModifierLists
from .paralinguistic import CATEGORIES
from .patterns import DEFAULT_TAG_SET, OTHER_TAG, PatternResources, RuleTagger

_PACKAGE = "opinionchain.resources"

DEFAULT_FILES = {
    "stopwords": "stopwords.txt",
    "markers": "markers.tsv",
    "negations": "negations.txt",
    "amplifiers": "amplifiers.tsv",
    "downtoners": "downtoners.tsv",
    "disfluencies": "disfluencies.txt",
    "tagger_lexicon": "tagger_lexicon.tsv",
}


def default_resource_path(name: str) -> Path:
    if name not in DEFAULT_FILES:
        raise KeyError(f"unknown resource {name!r}; known: {sorted(DEFAULT_FILES)}")
    return Path(str(importlib_resources.files(_PACKAGE) / DEFAULT_FILES[name]))


def _read_versioned(path: str | Path, version: str) -> list[tuple[int, str]]:
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines or lines[0].strip() != version:
        raise FileFormatError(f"{path}: first line must be {version!r}")
    return [
        (lineno, line)
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.startswith("#")
    ]


def load_word_list(path: str | Path, version: str) -> frozenset:
    """One lowercased word per line after the version line."""
    return frozenset(line.strip().lower() for _, line in _read_versioned(path, version))


def load_word_table(
    path: str | Path, version: str, columns: tuple[str, str], parse=str
) -> dict:
    """Two-column TSV after the version line; the header row is checked.

    A key is lowercased with its asterisks stripped, and ``parse`` turns
    its value into its entry, raising ValueError with the reason for a
    value the table does not allow.  A row of another width, a key
    listed twice and a value ``parse`` rejects are each a problem at its
    line, all raised at once."""
    path = Path(path)
    rows = _read_versioned(path, version)
    if not rows or rows[0][1].split("\t") != list(columns):
        raise FileFormatError(
            f"{path}: header must be {columns[0]!r}<TAB>{columns[1]!r}"
        )
    problems = []
    table = {}
    seen = set()
    for lineno, line in rows[1:]:
        parts = line.split("\t")
        if len(parts) != 2:
            problems.append((str(path), lineno, f"expected 2 columns, got {len(parts)}"))
            continue
        key = parts[0].strip("*").lower()
        if key in seen:
            problems.append((str(path), lineno, f"{columns[0]} {key!r} listed twice"))
            continue
        seen.add(key)
        try:
            table[key] = parse(parts[1])
        except ValueError as exc:
            problems.append((str(path), lineno, f"{columns[0]} {key!r}: {exc}"))
    if problems:
        raise FileFormatError(f"{len(problems)} malformed record(s)", problems)
    return table


def _factor(low: float, high: float):
    """A ``load_word_table`` parser of factors strictly between ``low``
    and ``high``; NaN lies between no bounds."""

    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"non-numeric factor {raw!r}") from None
        if not low < value < high:
            raise ValueError(f"factor {raw!r} must lie in ({low:g}, {high:g})")
        return value

    return parse


def _category(raw: str) -> str:
    """The ``load_word_table`` parser of a marker's category."""
    if raw not in CATEGORIES:
        raise ValueError(f"category {raw!r} not in {CATEGORIES}")
    return raw


def load_stopwords(path=None) -> frozenset:
    return load_word_list(path or default_resource_path("stopwords"), "stopwords/v1")


def load_marker_map(path=None) -> dict:
    path = path or default_resource_path("markers")
    return load_word_table(path, "marker-map/v1", ("marker", "category"), _category)


def load_modifier_lists(
    negations_path=None, amplifiers_path=None, downtoners_path=None
) -> ModifierLists:
    negations = load_word_list(
        negations_path or default_resource_path("negations"), "negations/v1"
    )
    amplifiers = load_word_table(
        amplifiers_path or default_resource_path("amplifiers"),
        "amplifiers/v1",
        ("word", "factor"),
        _factor(1.0, math.inf),
    )
    downtoners = load_word_table(
        downtoners_path or default_resource_path("downtoners"),
        "downtoners/v1",
        ("word", "factor"),
        _factor(0.0, 1.0),
    )
    return ModifierLists(
        negations=negations, amplifiers=amplifiers, downtoners=downtoners
    )


def load_disfluencies(path=None) -> frozenset:
    return load_word_list(
        path or default_resource_path("disfluencies"), "disfluencies/v1"
    )


def load_tagger(path=None, tag_set=DEFAULT_TAG_SET) -> RuleTagger:
    path = path or default_resource_path("tagger_lexicon")
    table = load_word_table(path, "tagger-lexicon/v1", ("word", "tag"))
    bad = sorted(set(table.values()) - set(tag_set) - {OTHER_TAG})
    if not set(bad) <= set(DEFAULT_TAG_SET):  # a tag no tag set has: the lexicon is at fault
        raise FileFormatError(f"{path}: tags {bad} not in {tag_set}")
    if bad:
        raise ConfigurationError(
            f"tag_set {tuple(tag_set)} leaves out tags {bad} of the tagger lexicon {path}"
        )
    return RuleTagger(lexicon=table, tag_set=tuple(tag_set))


def load_pattern_resources(
    tag_set=DEFAULT_TAG_SET,
    negations_path=None,
    amplifiers_path=None,
    downtoners_path=None,
    disfluencies_path=None,
) -> PatternResources:
    modifiers = load_modifier_lists(negations_path, amplifiers_path, downtoners_path)
    return PatternResources(
        negations=modifiers.negations,
        amplifiers=frozenset(modifiers.amplifiers),
        downtoners=frozenset(modifiers.downtoners),
        disfluencies=load_disfluencies(disfluencies_path),
        tag_set=tuple(tag_set),
    )
