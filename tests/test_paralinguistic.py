import numpy as np

from opinionchain.features.paralinguistic import (
    CATEGORIES,
    FEATURE_NAMES,
    paralinguistic_features,
)
from opinionchain.features.resources import load_marker_map

MAP = {
    "chuckling": "laughter",
    "laughing": "laughter",
    "falling intonation": "intonation",
    "word elongation": "pronunciation",
    "shouting": "volume",
}


def test_no_markers_zero_vector():
    np.testing.assert_array_equal(paralinguistic_features([[]], MAP), np.zeros((1, 5)))


def test_single_chuckle():
    out = paralinguistic_features([["*chuckling*"]], MAP)[0]
    assert out[FEATURE_NAMES.index("para_laughter")] == 1.0
    assert out.sum() == 1.0


def test_mixed_markers_recounted():
    events = [
        "*chuckling*",
        "*shouting*",
        "*laughing*",
        "*chuckling*",
        "*falling intonation*",
        "*word elongation*",
    ]
    out = paralinguistic_features([events], MAP)[0]
    recount = {c: 0 for c in CATEGORIES + ("other",)}
    for e in events:
        recount[MAP[e.strip("*")]] += 1
    want = [recount[c] for c in CATEGORIES + ("other",)]
    np.testing.assert_array_equal(out, want)


def test_unknown_marker_lands_in_other_bucket():
    out = paralinguistic_features([["*interpretive dance*"]], MAP)[0]
    assert out[FEATURE_NAMES.index("para_other")] == 1.0
    assert out.sum() == 1.0


def test_shipped_marker_map_loads():
    mapping = load_marker_map()
    assert mapping["chuckling"] == "laughter"
    assert mapping["falling intonation"] == "intonation"
    assert mapping["word elongation"] == "pronunciation"
    assert mapping["shouting"] == "volume"


def test_units_counted_row_by_row_and_unknown_markers_logged_in_order(caplog):
    units = [["*chuckling*", "*hum*"], [], ["*Shouting*", "*sigh*", "*hum*"]]
    with caplog.at_level("INFO", logger="opinionchain.features.paralinguistic"):
        out = paralinguistic_features(units, MAP)
    laughter, volume, other = (
        FEATURE_NAMES.index(n) for n in ("para_laughter", "para_volume", "para_other")
    )
    want = np.zeros((3, 5))
    want[0, [laughter, other]] = 1.0
    want[2, volume], want[2, other] = 1.0, 2.0
    np.testing.assert_array_equal(out, want)
    assert [r.args[0] for r in caplog.records] == ["*hum*", "*sigh*", "*hum*"]
