import numpy as np
import pytest

from opinionchain.errors import ConfigurationError, InvalidInputError
from opinionchain.features.embeddings import load_embeddings
from opinionchain.features.lexicons import lexicon_features, load_lexicon
from opinionchain.features.pipeline import (
    CANONICAL_BLOCKS,
    FeaturePipeline,
    FeatureSchema,
    PipelineConfig,
)
from opinionchain.features.resources import (
    load_marker_map,
    load_modifier_lists,
    load_pattern_resources,
    load_stopwords,
    load_tagger,
)
from opinionchain.features.standardize import fit_standardizer

from conftest import (
    columns,
    dense_features,
    featurize,
    fit,
    ipus,
    make_transcript,
    same_block,
    split_documents,
)
from oracles import embed_tokens, reference_bong, reference_paralinguistic, reference_pattern


def small_corpus():
    return columns([
        make_transcript(
            "d0",
            ("Great", "movie", "really", "great", "acting"),
            gaps=[100, 400, 100, 100],
            valences=(5.0,),
            markers=[("*chuckling*", 150)],
        ),
        make_transcript(
            "d1",
            ("not", "good", "uh", "awful", "plot"),
            gaps=[100, 100, 400, 100],
            valences=(1.0,),
        ),
        make_transcript("d2", ("good", "plot",), valences=(4.0,)),
        make_transcript("d3", ("bad", "acting", "bad", "movie"), gaps=[100, 500, 100],
                        valences=(2.0,)),
        make_transcript("d4", ("fine", "movie"), valences=(4.0,)),
        make_transcript("d5", ("terrible",), valences=(1.0,)),
    ])


class TestConfig:
    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(blocks=("bong", "sparkles"))

    def test_blocks_reordered_canonically(self):
        config = PipelineConfig(blocks=("pattern", "bong"))
        assert config.blocks == ("bong", "pattern")

    def test_embedding_requires_path(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(blocks=("embedding",))

    def test_lexicon_requires_paths(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(blocks=("lexicon",))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(blocks=())


class TestSchema:
    def test_embeddings_only_dimension(self, embedding_file):
        path, _ = embedding_file
        config = PipelineConfig(
            blocks=("embedding",), embedding_path=str(path), standardize=False
        )
        fitted = fit(config, small_corpus())[0]
        assert fitted.schema.dim == 3 + 1
        assert fitted.schema.feature_names[-1] == "emb:coverage"

    def test_all_blocks_dimension_is_sum_of_widths(
        self, embedding_file, socal_lexicon_file, swn_lexicon_file
    ):
        path, _ = embedding_file
        config = PipelineConfig(
            blocks=CANONICAL_BLOCKS,
            embedding_path=str(path),
            lexicon_paths=(str(swn_lexicon_file), str(socal_lexicon_file)),
        )
        fitted = fit(config, small_corpus())[0]
        widths = {name: width for name, _, width in fitted.schema.blocks}
        assert fitted.schema.dim == sum(widths.values())
        assert widths["embedding"] == 4
        assert widths["lexicon"] == 6
        assert widths["paralinguistic"] == 5
        x = featurize(fitted, small_corpus().select([0]))
        assert x.dim == fitted.schema.dim

    def test_contiguity_enforced(self):
        with pytest.raises(ConfigurationError):
            FeatureSchema(blocks=(("a", 0, 2), ("b", 3, 1)), feature_names=("x",) * 4)

    def test_jsonable_round_trip(self):
        schema = FeatureSchema(
            blocks=(("a", 0, 2), ("b", 2, 1)), feature_names=("x", "y", "z")
        )
        assert FeatureSchema.from_jsonable(schema.to_jsonable()) == schema


class TestRecomposition:
    def test_block_slices_equal_individual_extractors(
        self, embedding_file, socal_lexicon_file
    ):
        emb_path, _ = embedding_file
        config = PipelineConfig(
            blocks=CANONICAL_BLOCKS,
            embedding_path=str(emb_path),
            lexicon_paths=(str(socal_lexicon_file),),
            standardize=False,  # raw vectors so block outputs match exactly
        )
        corpus = small_corpus()
        fitted = fit(config, corpus)[0]

        doc = corpus.select([0])
        x = dense_features(featurize(fitted, doc))
        units = ipus(doc, config.threshold_ms)
        stopwords = load_stopwords()
        table = load_embeddings(emb_path)
        lexicons = [load_lexicon(socal_lexicon_file)]
        modifiers = load_modifier_lists()
        tagger = load_tagger()
        pattern_res = load_pattern_resources()
        marker_map = load_marker_map()

        for j, (texts, events) in enumerate(units):
            tokens = list(texts)  # single-word records, no splitting needed
            row = x[j]
            _, indices, values = reference_bong([tokens], fitted.vocabulary)
            bong = np.zeros(len(fitted.vocabulary))
            bong[indices] = values
            np.testing.assert_array_equal(row[fitted.schema.block_slice("bong")], bong)
            np.testing.assert_allclose(
                row[fitted.schema.block_slice("embedding")],
                embed_tokens(tokens, table, stopwords),
            )
            np.testing.assert_allclose(
                row[fitted.schema.block_slice("lexicon")],
                lexicon_features(tokens, lexicons, modifiers),
            )
            np.testing.assert_allclose(
                row[fitted.schema.block_slice("pattern")],
                reference_pattern(tokens, tagger.tag(tokens), pattern_res),
            )
            np.testing.assert_allclose(
                row[fitted.schema.block_slice("paralinguistic")],
                reference_paralinguistic(events, marker_map),
            )


def block_config(block, standardize, embedding_file, socal_lexicon_file):
    paths = {
        "embedding": {"embedding_path": str(embedding_file[0])},
        "lexicon": {"lexicon_paths": (str(socal_lexicon_file),)},
    }
    blocks = CANONICAL_BLOCKS if block == "all" else (block,)
    kwargs = {k: v for b in blocks for k, v in paths.get(b, {}).items()}
    return PipelineConfig(blocks=blocks, standardize=standardize, **kwargs)


class TestFitTransform:
    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("block", CANONICAL_BLOCKS + ("all",))
    def test_matches_fit_then_transform(
        self, block, standardize, embedding_file, socal_lexicon_file
    ):
        config = block_config(block, standardize, embedding_file, socal_lexicon_file)
        corpus = small_corpus()
        fitted, docs = fit(config, corpus)
        alone = fit(config, corpus)[0]
        assert fitted.state_checksum() == alone.state_checksum()
        assert docs.doc_ids == corpus.doc_ids
        for i, doc in enumerate(split_documents(corpus)):
            assert same_block(docs.subblock([i]), featurize(alone, doc))
        if standardize:
            # fit on the raw rows, as an unstandardized pipeline builds them
            raw_config = block_config(block, False, embedding_file, socal_lexicon_file)
            raw = fit(raw_config, corpus)[0]
            rows = dense_features(featurize(raw, corpus))
            want = fit_standardizer(rows)
            width = 0 if fitted.vocabulary is None else len(fitted.vocabulary)
            assert np.array_equal(fitted.standardizer.mean[width:], want.mean[width:])
            assert np.array_equal(fitted.standardizer.std[width:], want.std[width:])
            # the bong columns' statistics are summed from their nonzero
            # entries, in another order than over the dense rows
            for got, expected in [(fitted.standardizer.mean, want.mean),
                                  (fitted.standardizer.std, want.std)]:
                np.testing.assert_allclose(got[:width], expected[:width], rtol=1e-13, atol=0)
        else:
            assert fitted.standardizer is None

    def test_segmented_documents_featurize_like_transcripts(self):
        """A segmented chunk, whole or a document at a time, featurizes
        as the fit gave it and as ``blocks`` reads the corpus's columns."""
        pipeline = FeaturePipeline(PipelineConfig())
        corpus = small_corpus()
        segmented = pipeline.segment(corpus)
        fitted, block = pipeline.fit_transform(segmented)
        [from_columns] = fitted.blocks(corpus)
        assert same_block(block, from_columns)
        assert same_block(fitted.block(segmented), block)
        for i in range(len(corpus)):
            assert same_block(fitted.block(segmented.subchunk([i])), block.subblock([i]))

    def test_segmentation_from_another_threshold_rejected(self):
        seg = FeaturePipeline(PipelineConfig(threshold_ms=200)).segment(
            small_corpus().select([0])
        )
        fitted = fit(PipelineConfig(), small_corpus())[0]
        message = "segmented at 200 ms, but the pipeline uses 300 ms"
        with pytest.raises(InvalidInputError, match=message):
            fitted.block(seg)
        with pytest.raises(InvalidInputError, match=message):
            FeaturePipeline(PipelineConfig()).fit_transform(seg)
        with pytest.raises(InvalidInputError, match=message):
            FeaturePipeline(PipelineConfig()).prepare(seg)

    def test_prepared_documents_featurize_like_transcripts(self):
        pipeline = FeaturePipeline(PipelineConfig())
        corpus = small_corpus()
        prepared = pipeline.prepare(pipeline.segment(corpus))
        fitted, block = pipeline.fit_transform(prepared)
        want_fitted, want = fit(PipelineConfig(), corpus)
        assert fitted.state_checksum() == want_fitted.state_checksum()
        assert same_block(block, want)
        for i, doc in enumerate(split_documents(corpus)):
            expected = want.subblock([i])
            assert same_block(fitted.block(prepared.subchunk([i])), expected)
            assert same_block(featurize(fitted, doc), expected)

    def test_prepared_under_another_configuration_rejected(self):
        other = FeaturePipeline(PipelineConfig(blocks=("pattern",)))
        seg = other.prepare(other.segment(small_corpus().select([0])))
        fitted = fit(PipelineConfig(), small_corpus())[0]
        message = "prepared under another pipeline configuration"
        with pytest.raises(InvalidInputError, match=message):
            fitted.block(seg)
        with pytest.raises(InvalidInputError, match=message):
            FeaturePipeline(PipelineConfig()).fit_transform(seg)

    def test_tokenless_document_rejected_at_prepare(self):
        pipeline = FeaturePipeline(PipelineConfig())
        with pytest.raises(InvalidInputError, match="empty: no IPUs"):
            pipeline.prepare(pipeline.segment(make_transcript("empty", ())))

    def test_sequence_length_matches_ipu_count(self):
        config = PipelineConfig()
        corpus = small_corpus()
        fitted = fit(config, corpus)[0]
        for doc in split_documents(corpus):
            want = len(ipus(doc, config.threshold_ms))
            assert len(featurize(fitted, doc).features) == want

    def test_transform_is_deterministic(self):
        corpus = small_corpus()
        fitted = fit(PipelineConfig(), corpus)[0]
        a = featurize(fitted, corpus.select([1]))
        b = featurize(fitted, corpus.select([1]))
        assert same_block(a, b)

    def test_standardized_train_matrix_statistics(self):
        corpus = small_corpus()
        config = PipelineConfig()
        fitted = fit(config, corpus)[0]
        rows = dense_features(featurize(fitted, corpus))
        assert np.abs(rows.mean(axis=0)).max() <= 1e-12
        stds = rows.std(axis=0, ddof=0)
        nondegenerate = stds > 1e-9
        np.testing.assert_allclose(stds[nondegenerate], 1.0, atol=1e-9)

    def test_fit_state_ignores_held_out_documents(self):
        corpus = small_corpus()
        train, held_out = corpus.select(range(4)), corpus.select(range(4, len(corpus)))
        fitted_a = fit(PipelineConfig(), train)[0]
        fitted_b = fit(PipelineConfig(), train)[0]
        featurize(fitted_b, held_out)  # must not touch fitted state
        assert fitted_a.state_checksum() == fitted_b.state_checksum()
        fitted_c = fit(PipelineConfig(), corpus)[0]
        assert fitted_c.state_checksum() != fitted_a.state_checksum()

    def test_unseen_terms_ignored_at_transform(self):
        train = small_corpus().select([0, 1])
        config = PipelineConfig(blocks=("bong",), standardize=False)
        fitted = fit(config, train)[0]
        unseen = make_transcript("new", ("zebra", "quagga"), valences=(4.0,))
        x = featurize(fitted, unseen)
        assert x.sparse.values.size == 0
        np.testing.assert_array_equal(dense_features(x), np.zeros((1, fitted.schema.dim)))

    def test_tokenless_document_rejected_at_transform(self):
        fitted = fit(PipelineConfig(), small_corpus())[0]
        with pytest.raises(InvalidInputError, match="empty: no IPUs"):
            featurize(fitted, make_transcript("empty", ()))

    def test_fit_requires_documents(self):
        pipeline = FeaturePipeline(PipelineConfig())
        with pytest.raises(InvalidInputError, match="zero documents"):
            pipeline.fit_transform(pipeline.segment(columns([])))
