"""Pause-based segmentation of transcripts into inter-pausal units.

An ``IPU`` keeps only what the feature blocks read of a unit, its tokens
and its paralinguistic markers; its timing stays in the transcript.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass

from ..corpus import Transcript
from ..errors import InvalidInputError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IPU:
    """A maximal run of tokens with no silent gap above the threshold,
    and the paralinguistic markers attached to it: what the feature
    blocks read of the unit."""

    tokens: tuple[str, ...]
    para_events: tuple[str, ...] = ()


def segment_into_ipus(transcript: Transcript, threshold_ms: int) -> list[IPU]:
    """Split at every silent gap strictly longer than ``threshold_ms``.

    The gap between consecutive tokens is ``next.start_ms - prev.end_ms``;
    the strict comparison makes the boundary value itself deterministic.
    Markers attach to the last IPU starting at or before their timestamp
    (the first IPU for earlier timestamps).  A tokenless transcript
    segments to an empty list; its markers, if any, are dropped with a
    warning since there is no unit to attach them to.
    """
    if threshold_ms <= 0:
        raise InvalidInputError("threshold_ms must be positive")
    if not transcript.tokens:
        if transcript.para_markers:
            log.warning(
                "%s: dropping %d markers from tokenless transcript",
                transcript.doc_id,
                len(transcript.para_markers),
            )
        return []

    groups: list[list] = [[transcript.tokens[0]]]
    for prev, cur in zip(transcript.tokens, transcript.tokens[1:]):
        if cur.start_ms - prev.end_ms > threshold_ms:
            groups.append([cur])
        else:
            groups[-1].append(cur)

    starts = [group[0].start_ms for group in groups]  # increasing: each gap is positive
    events: list[list[str]] = [[] for _ in groups]
    for marker in transcript.para_markers:
        events[max(0, bisect_right(starts, marker.time_ms) - 1)].append(marker.text)
    return [
        IPU(tokens=tuple(t.text for t in group), para_events=tuple(attached))
        for group, attached in zip(groups, events)
    ]


def ipu_index_per_token(transcript: Transcript, threshold_ms: int) -> list[int]:
    """Parallel list mapping each transcript token to its IPU index."""
    out = []
    for i, ipu in enumerate(segment_into_ipus(transcript, threshold_ms)):
        out.extend([i] * len(ipu.tokens))
    return out
