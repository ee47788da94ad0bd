"""Lexicon scores per IPU, including semantic-orientation arithmetic.

Two lexicon shapes are supported:

* plain multi-channel lexicons (e.g. pos/neg/neu triples, or
  valence/arousal/dominance): each channel contributes the sum of raw
  scores over matching tokens;
* semantic-orientation lexicons, recognized by their single ``value``
  channel: word values are modified in context (intensifiers multiply,
  negation shifts toward the opposite polarity by a fixed constant) and
  the modified values split into positive / negative / neutral channels.

Modifier arithmetic, applied within one IPU left to right:

* an amplifier or downtoner multiplies every later word's value by its
  factor (factors compound);
* a negation shifts every later nonzero value 4.0 toward the opposite
  sign ("not good" with good = +3 scores -1);
* the scope of every modifier is the remainder of the IPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import FileFormatError, InvalidInputError, read_utf8

NEGATION_SHIFT = 4.0
SO_VALUE_CHANNEL = "value"
SUM_TO_ONE_CHANNELS = ("pos", "neg", "neu")


@dataclass(frozen=True)
class Lexicon:
    name: str
    channels: tuple[str, ...]
    entries: dict  # word -> tuple of channel scores

    def __post_init__(self):
        if not self.channels:
            raise InvalidInputError(f"lexicon {self.name!r} has no channels")
        if len(set(self.channels)) != len(self.channels):
            raise InvalidInputError(f"lexicon {self.name!r} has duplicate channels")

    @property
    def is_semantic_orientation(self) -> bool:
        return self.channels == (SO_VALUE_CHANNEL,)

    @property
    def output_channels(self) -> tuple[str, ...]:
        """Names of the feature dimensions this lexicon produces."""
        if self.is_semantic_orientation:
            return tuple(f"{self.name}_{c}" for c in SUM_TO_ONE_CHANNELS)
        return tuple(f"{self.name}_{c}" for c in self.channels)

    def lookup(self, token: str):
        return self.entries.get(token.lower())


def load_lexicon(path: str | Path, name: str | None = None) -> Lexicon:
    """Read a TSV lexicon: mandatory header "word<TAB>ch1[<TAB>ch2...]",
    one word per following row.  pos/neg/neu triples must sum to 1."""
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty lexicon file")
    header = lines[0].split("\t")
    if len(header) < 2 or header[0] != "word":
        raise FileFormatError(
            f"{path}: header row must be 'word' followed by channel names"
        )
    channels = tuple(header[1:])
    if len(set(channels)) != len(channels):
        raise FileFormatError(f"{path}: duplicate channel names in the header row")
    check_sum = all(c in channels for c in SUM_TO_ONE_CHANNELS)
    sum_idx = [channels.index(c) for c in SUM_TO_ONE_CHANNELS] if check_sum else None

    problems = []
    entries = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != len(header):
            problems.append(
                (str(path), lineno, f"expected {len(header)} columns, got {len(parts)}")
            )
            continue
        word = parts[0].lower()
        try:
            scores = tuple(float(v) for v in parts[1:])
        except ValueError:
            problems.append((str(path), lineno, "non-numeric score"))
            continue
        if not all(np.isfinite(scores)):
            problems.append((str(path), lineno, "non-finite score"))
            continue
        if sum_idx is not None:
            total = sum(scores[i] for i in sum_idx)
            if abs(total - 1.0) > 1e-6:
                problems.append(
                    (str(path), lineno, f"pos+neg+neu = {total}, must sum to 1")
                )
                continue
        if word in entries:
            problems.append((str(path), lineno, f"duplicate word {word!r}"))
            continue
        entries[word] = scores
    if problems:
        raise FileFormatError(f"{len(problems)} malformed lexicon record(s)", problems)
    return Lexicon(name=name or path.stem, channels=channels, entries=entries)


@dataclass(frozen=True)
class ModifierLists:
    """Context modifiers for semantic-orientation scoring."""

    negations: frozenset
    amplifiers: dict  # word -> factor > 1
    downtoners: dict  # word -> factor in (0, 1)

    def __post_init__(self):
        for word, factor in self.amplifiers.items():
            if not 1.0 < factor < np.inf:
                raise InvalidInputError(f"amplifier {word!r} factor must be finite and > 1")
        for word, factor in self.downtoners.items():
            if not 0.0 < factor < 1.0:
                raise InvalidInputError(f"downtoner {word!r} factor must be in (0, 1)")


def semantic_orientation_values(tokens, lexicon: Lexicon, modifiers: ModifierLists):
    """Modified orientation value per lexicon hit, in token order."""
    if not lexicon.is_semantic_orientation:
        raise InvalidInputError(f"{lexicon.name!r} is not a semantic-orientation lexicon")
    multiplier = 1.0
    negated = False
    values = []
    for token in tokens:
        low = token.lower()
        if low in modifiers.negations:
            negated = True
            continue
        factor = modifiers.amplifiers.get(low) or modifiers.downtoners.get(low)
        if factor is not None:
            multiplier *= factor
            continue
        hit = lexicon.lookup(low)
        if hit is None:
            continue
        value = hit[0] * multiplier
        if negated and value != 0.0:
            value = value - NEGATION_SHIFT if value > 0 else value + NEGATION_SHIFT
        values.append(value)
    return values


def lexicon_features(tokens, lexicons, modifiers: ModifierLists) -> np.ndarray:
    """One aggregated score per lexicon output channel, lexicons in the
    given order.  No hits at all produce an all-zero vector."""
    blocks = []
    for lexicon in lexicons:
        if lexicon.is_semantic_orientation:
            values = semantic_orientation_values(tokens, lexicon, modifiers)
            pos = sum(v for v in values if v > 0)
            neg = sum(-v for v in values if v < 0)
            neu = float(sum(1 for v in values if v == 0.0))
            blocks.append(np.array([pos, neg, neu]))
        else:
            acc = np.zeros(len(lexicon.channels))
            for token in tokens:
                hit = lexicon.lookup(token)
                if hit is not None:
                    acc += hit
            blocks.append(acc)
    if not blocks:
        return np.zeros(0)
    return np.concatenate(blocks)
