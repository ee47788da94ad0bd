"""Counts of paralinguistic events per IPU, bucketed by category.

Markers arrive as asterisk-delimited strings (``*chuckling*``) and map
to one of four categories through a versioned resource file; anything
unmapped lands in the ``other`` bucket with a log line, never an error.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

CATEGORIES = ("intonation", "pronunciation", "laughter", "volume")
OTHER = "other"
FEATURE_NAMES = tuple(f"para_{c}" for c in CATEGORIES + (OTHER,))


def paralinguistic_features(markers, marker_map: dict) -> np.ndarray:
    """(U, 5) counts per category plus an 'other' bucket, in
    FEATURE_NAMES order, for the U units of ``markers`` (a
    ``TokenChunk`` of marker texts), each type mapped once; an unknown
    marker is logged as it is met, in order."""
    categories = CATEGORIES + (OTHER,)
    found = [marker_map.get(text.strip("*").lower()) for text in markers.types]
    column = np.array([categories.index(c or OTHER) for c in found], dtype=np.intp)
    unknown = np.array([c is None for c in found], dtype=bool)
    for k in markers.ids[unknown[markers.ids]].tolist():
        log.info("unknown paralinguistic marker %r counted as other", markers.types[k])
    width, num_units = len(FEATURE_NAMES), len(markers)
    cells = markers.unit * width + column[markers.ids]
    counts = np.bincount(cells, minlength=num_units * width)
    return counts.reshape(num_units, width).astype(np.float64)
