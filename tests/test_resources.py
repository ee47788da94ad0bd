"""The packaged word-list loaders, and the one map of the files the
pipeline reads.

Every word table lists each malformed row (another width, a key given
twice, a value the table does not allow) at its own line, all at once.
"""

import contextlib
import itertools
import math
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain import errors
from opinionchain.errors import ConfigurationError, FileFormatError
from opinionchain.features import embeddings, lexicons
from opinionchain.features import resources as res
from opinionchain.features.pipeline import (
    CANONICAL_BLOCKS,
    PipelineConfig,
    _load_resources,
    resource_paths,
)
from opinionchain.features.resources import (
    load_disfluencies,
    load_marker_map,
    load_modifier_lists,
    load_stopwords,
    load_tagger,
)


def write(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def problem_lines(exc) -> list[int]:
    return [line for _, line, _ in exc.value.problems]


class TestWordTables:
    def test_factors_out_of_range_or_not_finite_listed_at_their_lines(self, tmp_path):
        amplifiers = write(
            tmp_path, "amp.tsv", "amplifiers/v1", "word\tfactor",
            "very\t1.25", "weak\t0.9", "huge\tinf", "odd\tnan", "one\t1", "x\ty",
        )  # fmt: skip
        with pytest.raises(FileFormatError) as exc:
            load_modifier_lists(amplifiers_path=amplifiers)
        assert problem_lines(exc) == [4, 5, 6, 7, 8]
        assert all(path == str(amplifiers) for path, _, _ in exc.value.problems)
        assert "'weak'" in exc.value.problems[0][2]

    def test_downtoner_factors_must_lie_in_the_unit_interval(self, tmp_path):
        downtoners = write(
            tmp_path, "down.tsv", "downtoners/v1", "word\tfactor",
            "slightly\t0.5", "zero\t0", "one\t1.0", "more\t1.5", "nope\t-inf",
        )  # fmt: skip
        with pytest.raises(FileFormatError) as exc:
            load_modifier_lists(downtoners_path=downtoners)
        assert problem_lines(exc) == [4, 5, 6, 7]

    def test_marker_listed_twice_is_a_problem_with_the_others(self, tmp_path):
        markers = write(
            tmp_path, "markers.tsv", "marker-map/v1", "marker\tcategory",
            "laughing\tlaughter", "*Laughing*\tvolume", "shouting\tvolume",
            "humming\tsinging", "one\ttwo\tthree",
        )  # fmt: skip
        with pytest.raises(FileFormatError) as exc:
            load_marker_map(markers)
        assert problem_lines(exc) == [4, 6, 7]
        assert "'laughing' listed twice" in exc.value.problems[0][2]

    def test_tagger_word_listed_twice(self, tmp_path):
        lexicon = write(
            tmp_path, "tagger.tsv", "tagger-lexicon/v1", "word\ttag",
            "movie\tNOUN", "Movie\tNOUN", "um\tOTHER",
        )  # fmt: skip
        with pytest.raises(FileFormatError) as exc:
            load_tagger(lexicon)
        assert problem_lines(exc) == [4]

    def test_tag_set_leaving_out_a_lexicon_tag_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match=r"^tag_set \('ADJ',\) leaves out tags \["):
            load_tagger(tag_set=("ADJ",))

    def test_packaged_tables_load(self):
        modifiers = load_modifier_lists()
        assert all(f > 1 for f in modifiers.amplifiers.values())
        assert all(0 < f < 1 for f in modifiers.downtoners.values())
        assert load_marker_map() and load_tagger().lexicon


# fields of the fuzzed rows of a word list or word table: keys, header
# names, categories, tags and factors, in range and not
_FIELD = st.sampled_from(
    ("word", "factor", "marker", "category", "tag", "very", "Very", "*very*", "um",
     "laughter", "volume", "NOUN", "OTHER", "XYZ", "1.5", "0.5", "1", "0", "-2", "nan",
     "inf", "1e999", "x", "")
)  # fmt: skip
# a row: most often a key and a value, else any fields
_LINE = st.builds("\t".join, st.tuples(_FIELD, _FIELD)) | st.builds(
    lambda sep, fields: sep.join(fields),
    st.sampled_from(("\t", " ")),
    st.lists(_FIELD, max_size=3),
)

# loader, its version line and its header row
_LOADERS = {
    "stopwords": (load_stopwords, "stopwords/v1", None),
    "disfluencies": (load_disfluencies, "disfluencies/v1", None),
    "negations": (lambda p: load_modifier_lists(negations_path=p), "negations/v1", None),
    "markers": (load_marker_map, "marker-map/v1", "marker\tcategory"),
    "amplifiers": (
        lambda p: load_modifier_lists(amplifiers_path=p), "amplifiers/v1", "word\tfactor"
    ),
    "downtoners": (
        lambda p: load_modifier_lists(downtoners_path=p), "downtoners/v1", "word\tfactor"
    ),
    "tagger_lexicon": (load_tagger, "tagger-lexicon/v1", "word\ttag"),
}


@st.composite
def word_list_file(draw):
    """A loader's name and a file for it: mostly the right version line
    and header row, then fuzzed rows."""
    name = draw(st.sampled_from(sorted(_LOADERS)))
    _, version, header = _LOADERS[name]
    lines = [draw(st.sampled_from((version, version, "other/v1", "")))]
    if header is not None:
        lines.append(draw(st.sampled_from((header, header, header, "word", "")) | _LINE))
    lines += draw(st.lists(_LINE, max_size=6))
    return name, "\n".join(lines) + draw(st.sampled_from(("", "\n")))


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(word_list_file())
    def test_only_file_format_errors_escape(self, case):
        name, text = case
        loader = _LOADERS[name][0]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "words.tsv"
            path.write_text(text, encoding="utf-8")
            try:
                loaded = loader(path)
            except FileFormatError as exc:
                assert str(path) in str(exc)
                return
        if name == "amplifiers":
            assert all(1 < f < math.inf for f in loaded.amplifiers.values())
        elif name == "downtoners":
            assert all(0 < f < 1 for f in loaded.downtoners.values())


_READERS = (res, lexicons, embeddings)  # every module that reads a resource file


@pytest.mark.parametrize(
    "blocks",
    [
        blocks
        for size in range(1, len(CANONICAL_BLOCKS) + 1)
        for blocks in itertools.combinations(CANONICAL_BLOCKS, size)
    ],
)
def test_the_resources_read_are_the_mapped_files(
    blocks, embedding_file, socal_lexicon_file, swn_lexicon_file
):
    """``_load_resources`` reads exactly the files ``resource_paths``
    maps, for every block subset, and records the digest of each."""
    config = PipelineConfig(
        blocks=blocks,
        embedding_path=str(embedding_file[0]),
        lexicon_paths=(str(socal_lexicon_file), str(swn_lexicon_file)),
    )
    read = []

    def recording(path):
        read.append(Path(path))
        return errors.read_utf8(path)

    with contextlib.ExitStack() as stack:
        for module in _READERS:
            stack.enter_context(patch.object(module, "read_utf8", recording))
        loaded = _load_resources(config)
    mapped = resource_paths(config)
    assert set(read) == set(mapped.values())
    assert sorted(loaded.digests) == sorted(mapped)
