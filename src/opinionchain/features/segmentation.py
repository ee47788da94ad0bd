"""Pause-based segmentation of transcripts into inter-pausal units.

An inter-pausal unit (IPU) is a maximal run of a transcript's tokens
with no silent gap above the threshold.  Segmentation reads a chunk of
documents' token columns (``corpus.CorpusColumns``) and returns where
the IPUs start and end in them, and the IPU each paralinguistic marker
attaches to: one comparison over the chunk's times finds every cut.  It
builds no object per document, token or IPU.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..corpus import CorpusColumns
from ..errors import InvalidInputError

log = logging.getLogger(__name__)

# the longest silence, in ms, within one IPU when no threshold is given
DEFAULT_THRESHOLD_MS = 300


@dataclass(frozen=True, eq=False)
class IpuCuts:
    """The U IPUs of a chunk of N documents: IPU u is tokens
    ``bounds[u]:bounds[u + 1]`` of the chunk's columns, document i's IPUs
    are ``docs[i]:docs[i + 1]``, and marker m of the chunk attaches to
    IPU ``marker_ipus[m]``, or to none (-1) in a tokenless document."""

    bounds: np.ndarray  # (U + 1,)
    docs: np.ndarray  # (N + 1,)
    marker_ipus: np.ndarray  # (M,)


def segment_into_ipus(chunk: CorpusColumns, threshold_ms: int) -> IpuCuts:
    """The IPUs of the documents of ``chunk``.

    It cuts at every silent gap strictly longer than ``threshold_ms``,
    and before each document's first token.  The gap between consecutive
    tokens is ``next start - prev end``; the strict comparison makes the
    boundary value itself deterministic.  Markers attach to the last IPU
    of their document starting at or before their timestamp (the first
    IPU for earlier timestamps).  A tokenless document segments to no
    IPU; its markers, if any, are dropped with a warning since there is
    no unit to attach them to.
    """
    if threshold_ms <= 0:
        raise InvalidInputError("threshold_ms must be positive")
    starts, ends, offsets = chunk.starts, chunk.ends, chunk.offsets
    first = np.zeros(starts.size, dtype=bool)  # whether token i starts an IPU
    # every gap within a document is in [0, 2**64), so its uint64
    # difference is exact; a gap across documents is cut regardless
    first[1:] = starts[1:].view(np.uint64) - ends[:-1].view(np.uint64) > threshold_ms
    first[offsets[:-1][offsets[:-1] < starts.size]] = True
    firsts = np.flatnonzero(first)
    docs = np.searchsorted(firsts, offsets)
    marker_ipus = _attach_markers(chunk, firsts, docs)
    return IpuCuts(np.append(firsts, starts.size), docs, marker_ipus)


def _attach_markers(chunk: CorpusColumns, firsts: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """The IPU of each marker of ``chunk``, or -1, for IPUs that start at
    tokens ``firsts`` and of which document i has ``docs[i]:docs[i + 1]``."""
    attached = np.full(len(chunk.marker_texts), -1, dtype=np.intp)
    if not attached.size:
        return attached
    ipu_starts, docs = chunk.starts[firsts].tolist(), docs.tolist()
    marks = chunk.marker_offsets.tolist()
    for i in np.flatnonzero(np.diff(marks)).tolist():  # each document with markers
        lo, hi, texts = docs[i], docs[i + 1], chunk.marker_texts[marks[i] : marks[i + 1]]
        if lo == hi:
            log.warning(
                "%s: dropping %d markers from tokenless transcript", chunk.doc_ids[i], len(texts)
            )
            continue
        attached[marks[i] : marks[i + 1]] = [
            max(lo, bisect_right(ipu_starts, time, lo, hi) - 1)
            for time in chunk.marker_times[marks[i] : marks[i + 1]]
        ]
    return attached


def ipu_indices(chunk: CorpusColumns, threshold_ms: int) -> np.ndarray:
    """The index of each token's IPU within its document, aligned with
    ``chunk.texts``, from one ``segment_into_ipus`` call."""
    cuts = segment_into_ipus(chunk, threshold_ms)
    ipu = np.repeat(np.arange(cuts.bounds.size - 1), np.diff(cuts.bounds))
    return ipu - np.repeat(cuts.docs[:-1], np.diff(chunk.offsets))
