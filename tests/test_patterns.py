import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import InvalidInputError
from opinionchain.features.patterns import (
    _SUFFIX_RULES,
    DEFAULT_TAG_SET,
    PatternResources,
    RuleTagger,
    pattern_feature_names,
    pattern_features,
)
from opinionchain.features.pipeline import token_chunk
from opinionchain.features.resources import (
    load_pattern_resources,
    load_tagger,
)

RES = PatternResources(
    negations=frozenset({"not", "never"}),
    amplifiers=frozenset({"really", "very"}),
    downtoners=frozenset({"slightly"}),
    disfluencies=frozenset({"uh", "um"}),
)


def counts(tokens, tags, resources=RES):
    """``pattern_features`` of one unit, each token tagged as in ``tags``."""
    tagger = RuleTagger(lexicon={t.lower(): tag for t, tag in zip(tokens, tags)})
    return pattern_features(token_chunk([tokens]), tagger, resources)[0]


class TestPatternCounts:
    def test_adjective_noun_bigram(self):
        out = counts(["great", "movie"], ["ADJ", "NOUN"])
        names = pattern_feature_names()
        assert out[names.index("adj_noun")] == 1.0

    def test_negation_and_amplifier(self):
        tokens = ["not", "really", "good"]
        out = counts(tokens, ["ADV", "ADV", "ADJ"])
        names = pattern_feature_names()
        assert out[names.index("negation")] == 1.0
        assert out[names.index("amplifier")] == 1.0
        assert out[names.index("downtoner")] == 0.0

    def test_capitalized_counts_raw_case(self):
        out = counts(["Great", "MOVIE", "plot"], ["ADJ", "NOUN", "NOUN"])
        names = pattern_feature_names()
        assert out[names.index("capitalized")] == 2.0

    def test_twenty_token_recount(self):
        """Independent recount with regex + Counter over the same inputs."""
        tokens = (
            "uh this Movie was not really great um but the Acting was "
            "very very good and never slightly Boring at"
        ).split()
        assert len(tokens) == 20
        tags = [
            "INTJ", "PRON", "NOUN", "VERB", "ADV", "ADV", "ADJ", "INTJ",
            "CONJ", "OTHER", "NOUN", "VERB", "ADV", "ADV", "ADJ", "CONJ",
            "ADV", "ADV", "ADJ", "PREP",
        ]
        out = counts(tokens, tags)
        names = pattern_feature_names()

        lows = [t.lower() for t in tokens]
        expect = {
            "adj_noun": sum(
                tags[i] == "ADJ" and tags[i + 1] == "NOUN" for i in range(19)
            ),
            "negation": sum(t in {"not", "never"} for t in lows),
            "amplifier": sum(t in {"really", "very"} for t in lows),
            "downtoner": sum(t in {"slightly"} for t in lows),
            "disfluency": sum(t in {"uh", "um"} for t in lows),
            "capitalized": len([t for t in tokens if re.match(r"[A-Z]", t)]),
        }
        tag_counts = Counter(tags)
        for tag in DEFAULT_TAG_SET:
            expect[f"pos_{tag.lower()}"] = tag_counts[tag]
        for name, want in expect.items():
            assert out[names.index(name)] == float(want), name

    def test_vector_width_matches_names(self):
        out = counts([], [])
        assert out.shape == (len(pattern_feature_names()),)

    def test_adjective_noun_pairs_stay_within_a_unit(self):
        tagger = RuleTagger(lexicon={"great": "ADJ", "movie": "NOUN"})
        out = pattern_features(token_chunk([["great"], ["movie"]]), tagger, RES)
        assert out[:, pattern_feature_names().index("adj_noun")].tolist() == [0.0, 0.0]

    def test_tag_listed_twice_counted_in_both_columns(self):
        tag_set = ("ADJ", "NOUN", "ADJ")
        res = PatternResources(**{**RES.__dict__, "tag_set": tag_set})
        tagger = RuleTagger(lexicon={"great": "ADJ"}, tag_set=tag_set)
        out = pattern_features(token_chunk([["great", "great"]]), tagger, res)[0]
        assert out[6:].tolist() == [2.0, 0.0, 2.0]


def reference_tags(lexicon, tokens):
    """The tagger's rule, token by token: lexicon, then the longest
    matching suffix, else NOUN."""
    out = []
    for token in tokens:
        low = token.lower()
        tag = lexicon.get(low)
        if tag is None:
            tag = "NOUN"
            for suffix, candidate in sorted(_SUFFIX_RULES, key=lambda r: -len(r[0])):
                if len(low) > len(suffix) + 1 and low.endswith(suffix):
                    tag = candidate
                    break
        out.append(tag)
    return out


_TOKEN = st.sampled_from(
    ("I", "i", "Great", "GREAT", "great", "quickly", "Quickly", "watching", "ally", "zorp")
) | st.text(alphabet="abcdefghijklmnopqrstuvwxyzGINLY'-", max_size=10)


class TestRuleTagger:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TOKEN, max_size=30))
    def test_tags_equal_the_reference_rule(self, tokens):
        lexicon = {"great": "ADJ", "i": "PRON", "quickly": "NOUN"}
        tagger = RuleTagger(lexicon=lexicon)
        assert tagger.tag(tokens) == reference_tags(lexicon, tokens)

    def test_lexicon_hits_win(self):
        tagger = RuleTagger(lexicon={"great": "ADJ", "movie": "NOUN", "i": "PRON"})
        assert tagger.tag(["I", "great", "movie"]) == ["PRON", "ADJ", "NOUN"]

    def test_suffix_fallbacks(self):
        tagger = RuleTagger(lexicon={})
        assert tagger.tag(["quickly"]) == ["ADV"]
        assert tagger.tag(["watching"]) == ["VERB"]
        assert tagger.tag(["spacious"]) == ["ADJ"]
        assert tagger.tag(["resolution"]) == ["NOUN"]

    def test_default_is_noun(self):
        tagger = RuleTagger(lexicon={})
        assert tagger.tag(["zorp"]) == ["NOUN"]

    def test_unknown_lexicon_tag_rejected(self):
        with pytest.raises(InvalidInputError):
            RuleTagger(lexicon={"x": "BANANA"})

    def test_shipped_resources_load(self):
        tagger = load_tagger()
        assert tagger.tag(["i", "watched", "a", "great", "movie"]) == [
            "PRON",
            "VERB",
            "OTHER",
            "ADJ",
            "NOUN",
        ]
        res = load_pattern_resources()
        assert "not" in res.negations
        assert "very" in res.amplifiers
        assert "slightly" in res.downtoners
        assert "um" in res.disfluencies
