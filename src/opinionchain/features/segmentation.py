"""Pause-based segmentation of transcripts into inter-pausal units.

An inter-pausal unit (IPU) is a maximal run of a transcript's tokens
with no silent gap above the threshold.  Segmentation reads the
transcript's time columns and returns where the IPUs start and end in
them, with the paralinguistic markers attached to each IPU; it builds no
object per token or per IPU.
"""

from __future__ import annotations

import logging
from bisect import bisect_right

import numpy as np

from ..corpus import Transcript
from ..errors import InvalidInputError

log = logging.getLogger(__name__)


def segment_into_ipus(
    transcript: Transcript, threshold_ms: int
) -> tuple[list[int], list[tuple[str, ...]]]:
    """The U IPUs of ``transcript``: their U + 1 bounds (IPU i is tokens
    ``bounds[i]:bounds[i + 1]`` of the transcript's columns) and the
    markers attached to each, one tuple per IPU.

    It cuts at every silent gap strictly longer than ``threshold_ms``.
    The gap between consecutive tokens is ``next start - prev end``;
    the strict comparison makes the boundary value itself deterministic.
    Markers attach to the last IPU starting at or before their timestamp
    (the first IPU for earlier timestamps).  A tokenless transcript
    segments to no IPU, bounds ``[0]``; its markers, if any, are dropped
    with a warning since there is no unit to attach them to.
    """
    if threshold_ms <= 0:
        raise InvalidInputError("threshold_ms must be positive")
    starts, ends = transcript.starts, transcript.ends
    if not starts.size:
        if transcript.para_markers:
            log.warning(
                "%s: dropping %d markers from tokenless transcript",
                transcript.doc_id,
                len(transcript.para_markers),
            )
        return [0], []

    # every gap is in [0, 2**64), so its uint64 difference is exact
    gaps = starts[1:].view(np.uint64) - ends[:-1].view(np.uint64)
    cuts = np.flatnonzero(gaps > threshold_ms) + 1
    bounds = [0, *cuts.tolist(), starts.size]
    if not transcript.para_markers:
        return bounds, [()] * (len(bounds) - 1)
    events: list[list[str]] = [[] for _ in range(len(bounds) - 1)]
    ipu_starts = starts[bounds[:-1]].tolist()  # increasing: each gap is positive
    for marker in transcript.para_markers:
        events[max(0, bisect_right(ipu_starts, marker.time_ms) - 1)].append(marker.text)
    return bounds, [tuple(attached) for attached in events]


def ipu_index_per_token(transcript: Transcript, threshold_ms: int) -> list[int]:
    """Parallel list mapping each transcript token to its IPU index."""
    bounds, _ = segment_into_ipus(transcript, threshold_ms)
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)).tolist()
