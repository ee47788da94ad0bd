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


def paralinguistic_features(units, marker_map: dict) -> np.ndarray:
    """(U, 5) counts per category plus an 'other' bucket, in
    FEATURE_NAMES order, for the events of each of U units; an unknown
    marker is logged as it is met, in order."""
    columns = {category: i for i, category in enumerate(CATEGORIES + (OTHER,))}
    width = len(FEATURE_NAMES)
    cells = []
    for row, events in enumerate(units):
        for event in events:
            category = marker_map.get(event.strip("*").lower())
            if category is None:
                log.info("unknown paralinguistic marker %r counted as other", event)
                category = OTHER
            cells.append(row * width + columns[category])
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(units) * width)
    return counts.reshape(len(units), width).astype(np.float64)
