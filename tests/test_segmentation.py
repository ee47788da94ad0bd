import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import InvalidInputError
from opinionchain.features.segmentation import segment_into_ipus

from conftest import ipu_index_per_token, ipus, make_transcript


class TestBoundaryRule:
    def test_gaps_100_400_200_threshold_300(self):
        doc = make_transcript(words=list("abcd"), gaps=[100, 400, 200])
        units = ipus(doc, 300)
        assert [tokens for tokens, _ in units] == [("a", "b"), ("c", "d")]

    def test_gaps_100_400_200_threshold_150(self):
        doc = make_transcript(words=list("abcd"), gaps=[100, 400, 200])
        units = ipus(doc, 150)
        assert [tokens for tokens, _ in units] == [("a", "b"), ("c",), ("d",)]

    def test_gap_equal_to_threshold_does_not_split(self):
        doc = make_transcript(words=("a", "b"), gaps=[300])
        assert len(ipus(doc, 300)) == 1
        assert len(ipus(doc, 299)) == 2

    def test_empty_transcript_gives_empty_list(self):
        doc = make_transcript(words=())
        cuts = segment_into_ipus(doc, 300)
        assert (cuts.bounds.tolist(), cuts.docs.tolist(), cuts.events) == ([0], [0, 0], [])
        assert ipus(doc, 300) == []

    def test_single_token(self):
        doc = make_transcript(words=("solo",))
        units = ipus(doc, 300)
        assert units == [(("solo",), ())]

    def test_threshold_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            ipus(make_transcript(), 0)


class TestMarkerAttachment:
    def test_marker_inside_ipu_span(self):
        # words at [0,200] and [300,500]; marker at 250 is inside IPU 0's pause
        doc = make_transcript(
            words=("a", "b", "c"),
            gaps=[100, 600],
            markers=[("*chuckling*", 250)],
        )
        units = ipus(doc, 300)
        assert units[0][1] == ("*chuckling*",)
        assert units[1][1] == ()

    def test_marker_in_long_pause_attaches_to_preceding_ipu(self):
        doc = make_transcript(
            words=("a", "b"), gaps=[1000], markers=[("*laughing*", 700)]
        )
        units = ipus(doc, 300)
        assert units[0][1] == ("*laughing*",)

    def test_marker_at_an_ipu_start_attaches_to_that_ipu(self):
        # words at [0,200], [600,800] and [1200,1400]
        doc = make_transcript(
            words=("a", "b", "c"), gaps=[400, 400], markers=[("*hum*", 600), ("*hum*", 599)]
        )
        units = ipus(doc, 300)
        assert [events for _, events in units] == [("*hum*",), ("*hum*",), ()]

    def test_marker_before_first_token_attaches_to_first_ipu(self):
        doc = make_transcript(
            words=("a", "b"), gaps=[1000], markers=[("*shouting*", 0)], start_ms=500
        )
        units = ipus(doc, 300)
        assert units[0][1] == ("*shouting*",)

    def test_tokenless_transcript_drops_markers(self):
        doc = make_transcript(words=(), markers=[("*laughing*", 10)])
        assert ipus(doc, 300) == []


class TestInvariants:
    def test_partition_preserves_token_order(self):
        doc = make_transcript(
            words=[f"w{i}" for i in range(12)],
            gaps=[100, 400, 50, 800, 100, 100, 350, 20, 900, 10, 400],
        )
        units = ipus(doc, 300)
        flat = [tok for tokens, _ in units for tok in tokens]
        assert flat == list(doc.texts)

    def test_ipu_index_matches_segmentation(self):
        doc = make_transcript(words=list("abcde"), gaps=[400, 100, 500, 100])
        assert ipu_index_per_token(doc, 300) == [0, 1, 1, 2, 2]


@st.composite
def gap_transcripts(draw):
    n = draw(st.integers(1, 30))
    gaps = draw(st.lists(st.integers(0, 700), min_size=n - 1, max_size=n - 1))
    return make_transcript(words=[f"w{i}" for i in range(n)], gaps=gaps)


@settings(max_examples=80, deadline=None)
@given(gap_transcripts())
def test_partition_invariant(doc):
    for threshold in (150, 300, 500):
        units = ipus(doc, threshold)
        flat = [tok for tokens, _ in units for tok in tokens]
        assert flat == list(doc.texts)


@settings(max_examples=80, deadline=None)
@given(gap_transcripts())
def test_threshold_monotonicity_and_refinement(doc):
    """Raising the threshold merges IPUs but never re-splits them: every
    coarse IPU is a concatenation of consecutive fine IPUs."""
    counts = {}
    boundaries = {}
    for threshold in (150, 300, 500):
        units = ipus(doc, threshold)
        counts[threshold] = len(units)
        starts = []
        pos = 0
        for tokens, _ in units:
            starts.append(pos)
            pos += len(tokens)
        boundaries[threshold] = set(starts)
    assert counts[150] >= counts[300] >= counts[500]
    assert boundaries[300] >= boundaries[500]
    assert boundaries[150] >= boundaries[300]
