import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from opinionchain.errors import FileFormatError, InvalidInputError
from opinionchain.features.lexicons import (
    Lexicon,
    ModifierLists,
    lexicon_features,
    load_lexicon,
    semantic_orientation_values,
)

from conftest import resource_text

MODIFIERS = ModifierLists(
    negations=frozenset({"not", "never"}),
    amplifiers={"very": 1.25, "really": 1.15, "extremely": 1.5},
    downtoners={"slightly": 0.5, "somewhat": 0.7},
)


def so_lexicon(**values):
    return Lexicon(
        name="so", channels=("value",), entries={w: (v,) for w, v in values.items()}
    )


class TestSemanticOrientation:
    def test_not_good_scores_minus_one(self):
        lex = so_lexicon(good=3.0)
        assert semantic_orientation_values(["not", "good"], lex, MODIFIERS) == [-1.0]

    def test_negated_negative_shifts_toward_positive(self):
        lex = so_lexicon(bad=-3.0)
        assert semantic_orientation_values(["not", "bad"], lex, MODIFIERS) == [1.0]

    def test_amplifier_multiplies(self):
        lex = so_lexicon(good=3.0)
        assert semantic_orientation_values(["very", "good"], lex, MODIFIERS) == [3.75]

    def test_amplifiers_compound(self):
        lex = so_lexicon(good=2.0)
        got = semantic_orientation_values(["really", "very", "good"], lex, MODIFIERS)
        assert got == [pytest.approx(2.0 * 1.15 * 1.25)]

    def test_downtoner_shrinks(self):
        lex = so_lexicon(good=4.0)
        assert semantic_orientation_values(["slightly", "good"], lex, MODIFIERS) == [2.0]

    def test_scope_is_remainder_of_ipu(self):
        lex = so_lexicon(good=3.0, bad=-3.0)
        got = semantic_orientation_values(["not", "good", "bad"], lex, MODIFIERS)
        assert got == [-1.0, 1.0]  # negation still active on the second hit

    def test_modifier_before_negation_still_multiplies(self):
        lex = so_lexicon(good=4.0)
        # "very not good": 4 * 1.25 = 5, then shifted: 5 - 4 = 1
        got = semantic_orientation_values(["very", "not", "good"], lex, MODIFIERS)
        assert got == [1.0]

    def test_zero_value_not_shifted(self):
        lex = so_lexicon(okay=0.0)
        assert semantic_orientation_values(["not", "okay"], lex, MODIFIERS) == [0.0]

    def test_plain_lexicon_rejected(self):
        lex = Lexicon(name="x", channels=("pos", "neg"), entries={})
        with pytest.raises(InvalidInputError):
            semantic_orientation_values(["a"], lex, MODIFIERS)


class TestLexiconFeatures:
    def test_no_hits_all_zero(self, swn_lexicon_file, socal_lexicon_file):
        lexicons = [load_lexicon(swn_lexicon_file), load_lexicon(socal_lexicon_file)]
        out = lexicon_features(["unknown", "words"], lexicons, MODIFIERS)
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_single_swn_hit(self, swn_lexicon_file):
        lex = load_lexicon(swn_lexicon_file)
        out = lexicon_features(["good"], [lex], MODIFIERS)
        np.testing.assert_allclose(out, [0.5, 0.125, 0.375])

    def test_swn_sums_over_tokens(self, swn_lexicon_file):
        lex = load_lexicon(swn_lexicon_file)
        out = lexicon_features(["good", "bad", "movie"], [lex], MODIFIERS)
        np.testing.assert_allclose(out, [0.5, 1.0, 1.5])

    def test_not_good_reported_in_negative_channel(self, socal_lexicon_file):
        lex = load_lexicon(socal_lexicon_file)
        out = lexicon_features(["not", "good"], [lex], MODIFIERS)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0])

    def test_so_channels_split_pos_neg_neu(self, socal_lexicon_file):
        lex = load_lexicon(socal_lexicon_file)
        out = lexicon_features(["great", "awful", "okay"], [lex], MODIFIERS)
        np.testing.assert_allclose(out, [4.0, 4.0, 1.0])

    def test_channel_names(self, swn_lexicon_file, socal_lexicon_file):
        swn = load_lexicon(swn_lexicon_file, name="swn")
        so = load_lexicon(socal_lexicon_file, name="so")
        assert swn.output_channels == ("swn_pos", "swn_neg", "swn_neu")
        assert so.output_channels == ("so_pos", "so_neg", "so_neu")


class TestLoadLexicon:
    def test_header_mandatory(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t3\n")
        with pytest.raises(FileFormatError):
            load_lexicon(path)

    def test_sum_to_one_enforced_for_pos_neg_neu(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tpos\tneg\tneu\ngood\t0.5\t0.5\t0.5\n")
        with pytest.raises(FileFormatError) as err:
            load_lexicon(path)
        assert any("sum to 1" in msg for _, _, msg in err.value.problems)

    def test_all_problems_reported(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tvalue\ngood\tx\nbad\t-3\t9\ngood2\t1\ngood2\t2\n")
        with pytest.raises(FileFormatError) as err:
            load_lexicon(path)
        assert len(err.value.problems) == 3  # non-numeric, wrong arity, duplicate

    def test_duplicate_channels_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tvalue\tvalue\ngood\t1\t2\n")
        with pytest.raises(FileFormatError, match="duplicate channel names"):
            load_lexicon(path)

    @settings(max_examples=150, deadline=None)
    @given(resource_text(("\t", "\t", " ")))
    def test_fuzzed_files_raise_only_file_format_errors(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lex.tsv"
            path.write_text(text, encoding="utf-8")
            try:
                lexicon = load_lexicon(path)
            except FileFormatError as exc:
                assert str(path) in str(exc)
            else:
                assert lexicon.channels

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_amplifier_factor_must_be_finite(self, factor):
        with pytest.raises(InvalidInputError):
            ModifierLists(frozenset(), {"odd": factor}, {})

    def test_modifier_factor_ranges_validated(self):
        with pytest.raises(InvalidInputError):
            ModifierLists(frozenset(), {"weak": 0.9}, {})
        with pytest.raises(InvalidInputError):
            ModifierLists(frozenset(), {}, {"strong": 1.5})
