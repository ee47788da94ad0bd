from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, featurize, fit, labels, make_transcript, same_block
from opinionchain.errors import InvalidInputError
from opinionchain.evaluation import (
    FoldPlan,
    HcrfLearner,
    LogRegLearner,
    compute_metrics,
    cross_validate,
    round_half_up,
    stratified_k_fold,
)
from opinionchain.features.pipeline import PipelineConfig
from opinionchain.training import TrainingConfig


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(77.9468, 78), (49.78, 50), (0.5, 1), (63.8629, 64), (-0.5, 0), (2.49, 2)],
    )
    def test_half_up(self, value, expected):
        assert round_half_up(value) == expected


class TestFoldPlan:
    def test_balanced_small_case(self):
        labels = [0] * 5 + [1] * 5
        plan = stratified_k_fold(labels, k=5, seed=0)
        for fold in plan.folds:
            got = sorted(labels[i] for i in fold)
            assert got == [0, 1]

    def test_same_seed_identical(self):
        labels = [0, 1] * 20
        assert stratified_k_fold(labels, 4, seed=9) == stratified_k_fold(labels, 4, seed=9)

    def test_seed_changes_plan(self):
        labels = [0, 1] * 20
        assert stratified_k_fold(labels, 4, seed=1) != stratified_k_fold(labels, 4, seed=2)

    def test_reference_corpus_shape(self):
        # 205 positive / 116 negative documents split ten ways
        labels = [1] * 205 + [0] * 116
        plan = stratified_k_fold(labels, k=10, seed=3)
        for fold in plan.folds:
            pos = sum(labels[i] for i in fold)
            neg = len(fold) - pos
            assert pos in (20, 21)
            assert neg in (11, 12)
        assert sum(len(fold) for fold in plan.folds) == 321

    def test_disjoint_and_complete(self):
        labels = [0, 1, 1] * 11
        plan = stratified_k_fold(labels, k=3, seed=5)
        flat = sorted(i for fold in plan.folds for i in fold)
        assert flat == list(range(len(labels)))

    def test_small_class_rejected(self):
        with pytest.raises(InvalidInputError):
            stratified_k_fold([0, 0, 0, 1, 1], k=3, seed=0)

    def test_huge_k_rejected_before_its_folds_are_made(self):
        with pytest.raises(InvalidInputError, match="fewer than k"):
            stratified_k_fold([0, 1] * 4, k=10**12, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            stratified_k_fold([0, 1], k=1, seed=0)

    def test_overlapping_plan_rejected(self):
        with pytest.raises(InvalidInputError):
            FoldPlan(folds=((0, 1), (1, 2)), seed=0)


class TestComputeMetrics:
    def test_majority_row(self):
        gold = [1] * 205 + [0] * 116
        pred = [1] * 321
        report = compute_metrics(pred, gold)
        pos = report.per_class[1]
        neg = report.per_class[0]
        p = 205 / 321
        assert pos.f1 == pytest.approx(100 * 2 * p / (1 + p), abs=1e-10)
        assert neg.f1 == 0.0
        assert report.weighted_f1 == pytest.approx(100 * 2 * p * p / (1 + p), abs=1e-10)
        assert report.accuracy == pytest.approx(100 * p, abs=1e-10)
        assert report.rounded() == {
            "accuracy": 64,
            "weighted_f1": 50,
            "f1_negative": 0,
            "f1_positive": 78,
        }

    def test_perfect_predictions(self):
        gold = [0, 1, 0, 1, 1]
        report = compute_metrics(gold, gold)
        assert report.accuracy == 100.0
        assert report.weighted_f1 == pytest.approx(100.0, abs=1e-12)
        assert all(cm.f1 == pytest.approx(100.0) for cm in report.per_class)

    def test_hand_computed_confusion(self):
        # gold 0: three right, one called positive; gold 1: two called negative, four right
        gold = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
        pred = [0, 0, 0, 1, 0, 0, 1, 1, 1, 1]
        report = compute_metrics(pred, gold)
        assert report.confusion == ((3, 1), (2, 4))
        neg, pos = report.per_class
        assert neg.precision == pytest.approx(60.0)
        assert neg.recall == pytest.approx(75.0)
        assert neg.f1 == pytest.approx(2 * 60 * 75 / 135, abs=1e-10)
        assert pos.precision == pytest.approx(80.0)
        assert pos.recall == pytest.approx(100 * 4 / 6, abs=1e-10)
        assert report.accuracy == pytest.approx(70.0)
        expected_wf1 = 0.4 * neg.f1 + 0.6 * pos.f1
        assert report.weighted_f1 == pytest.approx(expected_wf1, abs=1e-10)

    def test_confusion_sums_to_total(self):
        gold = [0, 1, 1, 0, 1]
        pred = [1, 1, 0, 0, 1]
        report = compute_metrics(pred, gold)
        assert sum(map(sum, report.confusion)) == 5

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=40
        ).filter(lambda pairs: len({g for _, g in pairs}) == 2),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, pairs, rnd):
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        base = compute_metrics(pred, gold)
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        again = compute_metrics([p for p, _ in shuffled], [g for _, g in shuffled])
        assert base == again

    def test_explicit_priors_used(self):
        gold = [0, 0, 1, 1]
        pred = [0, 0, 1, 1]
        report = compute_metrics(pred, gold, priors=(0.9, 0.1))
        assert report.priors == (0.9, 0.1)
        assert report.weighted_f1 == pytest.approx(100.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics([0, 1], [0])

    def test_bad_priors_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics([0, 1], [0, 1], priors=(0.7, 0.7))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics([0, 2], [0, 1])

    def test_render_text_versioned(self):
        report = compute_metrics([0, 1], [0, 1])
        text = report.render_text()
        assert text.startswith("metrics-report/v1\n")
        assert "confusion" in text

    def test_jsonable_round_figures(self):
        report = compute_metrics([1, 1, 0], [1, 0, 0])
        doc = report.to_jsonable()
        assert doc["format"] == "metrics-report/v1"
        assert doc["rounded"]["accuracy"] == round_half_up(report.accuracy)


@dataclass(frozen=True)
class _MajorityPredictor:
    label: int

    def posterior_blocks(self, blocks):
        count = sum(len(block.doc_ids) for block in blocks)
        return np.tile(np.eye(2)[self.label], (count, 1))

    def describe(self):
        return {"model": "majority", "label": self.label}


class _MajorityLearner:
    def fit(self, block, labels):
        counts = np.bincount(np.asarray(labels), minlength=2)
        return _MajorityPredictor(int(np.argmax(counts)))


class _RecordingLearner:
    """Keeps every fold's training block and, through its predictor, the
    held-out blocks it scores."""

    def __init__(self):
        self.train, self.held_out = [], []

    def fit(self, block, labels):
        self.train.append(block)
        return _RecordingPredictor(self.held_out)


@dataclass(frozen=True)
class _RecordingPredictor:
    seen: list

    def posterior_blocks(self, blocks):
        blocks = list(blocks)
        self.seen.append(blocks)
        return np.tile([1.0, 0.0], (sum(len(block.doc_ids) for block in blocks), 1))

    def describe(self):
        return {"model": "recording"}


def tiny_corpus(n_pos=8, n_neg=6):
    docs = []
    for i in range(n_pos):
        docs.append(
            make_transcript(
                doc_id=f"p{i}", words=("great", "movie", "loved", "it"), valences=(5.0,)
            )
        )
    for i in range(n_neg):
        docs.append(
            make_transcript(
                doc_id=f"n{i}", words=("awful", "movie", "hated", "it"), valences=(1.0,)
            )
        )
    return docs


class TestCrossValidate:
    def test_majority_learner_reproduces_majority_row(self):
        docs = []
        for i in range(205):
            docs.append(make_transcript(doc_id=f"p{i}", valences=(5.0,)))
        for i in range(116):
            docs.append(make_transcript(doc_id=f"n{i}", valences=(1.0,)))
        config = PipelineConfig(standardize=False)
        report = cross_validate(columns(docs), config, _MajorityLearner(), k=10, seed=0)
        assert report.rounded() == {
            "accuracy": 64,
            "weighted_f1": 50,
            "f1_negative": 0,
            "f1_positive": 78,
        }
        assert len(report.per_fold) == 10

    def test_identical_seeds_identical_reports(self):
        docs = columns(tiny_corpus())
        config = PipelineConfig(blocks=("bong",), standardize=False)
        learner = LogRegLearner(c_grid=(1.0,))
        a = cross_validate(docs, config, learner, k=2, seed=4)
        b = cross_validate(docs, config, learner, k=2, seed=4)
        assert a == b

    def test_separable_corpus_scores_high(self):
        docs = columns(tiny_corpus(n_pos=10, n_neg=10))
        config = PipelineConfig(blocks=("bong",), standardize=False)
        report = cross_validate(docs, config, LogRegLearner(c_grid=(10.0,)), k=2, seed=0)
        assert report.accuracy == 100.0

    def test_unlabeled_document_rejected(self):
        docs = columns(tiny_corpus() + [make_transcript(doc_id="u", valences=None)])
        with pytest.raises(InvalidInputError, match="u: unlabeled or neutral"):
            cross_validate(docs, PipelineConfig(), _MajorityLearner(), k=2, seed=0)

    def test_fitted_resources_ignore_test_fold_content(self):
        docs = tiny_corpus(n_pos=6, n_neg=6)
        config = PipelineConfig(blocks=("bong",), standardize=False)
        _, details_a = cross_validate(
            columns(docs), config, _MajorityLearner(), k=3, seed=1, return_details=True
        )
        # rewrite fold 0's held-out documents with entirely different text;
        # labels stay put so the fold plan is unchanged
        fold0_ids = set(details_a[0].test_doc_ids)
        mutated = [
            make_transcript(
                doc_id=d.doc_ids[0],
                words=("rewritten", "content", "entirely"),
                valences=d.valences[0],
            )
            if d.doc_ids[0] in fold0_ids
            else d
            for d in docs
        ]
        _, details_b = cross_validate(
            columns(mutated), config, _MajorityLearner(), k=3, seed=1, return_details=True
        )
        assert details_a[0].pipeline_checksum == details_b[0].pipeline_checksum
        # sanity: other folds trained on the mutated docs, so they do change
        assert details_a[1].pipeline_checksum != details_b[1].pipeline_checksum

    def test_prepared_folds_bitwise_equal_per_fold_path(
        self, tmp_path, socal_lexicon_file, monkeypatch
    ):
        """Every fold's training and held-out blocks, and its pipeline
        checksum, are bitwise those of a pipeline fit from scratch on the
        fold's transcripts, while every fold-independent block featurizes
        each IPU once across all folds and the embedding table loads once.
        ``embed_units`` and ``paralinguistic_features`` take a chunk of
        IPUs a call, so units are counted, not calls."""
        import dataclasses

        from opinionchain.features import pipeline as pipeline_module
        from opinionchain.features.pipeline import CANONICAL_BLOCKS
        from opinionchain.synthetic import (
            SyntheticSpec,
            generate_corpus,
            generate_embeddings,
            write_embeddings,
        )

        spec = dataclasses.replace(SyntheticSpec(), num_docs_per_label=6)
        corpus = generate_corpus(spec, seed=3)
        write_embeddings(generate_embeddings(spec, seed=3), tmp_path / "emb.txt")
        config = PipelineConfig(
            blocks=CANONICAL_BLOCKS,
            embedding_path=str(tmp_path / "emb.txt"),
            lexicon_paths=(str(socal_lexicon_file),),
        )
        units = Counter()  # IPUs featurized, or files loaded
        sizes = {
            "embed_units": lambda args: len(args[0]),
            "load_embeddings": lambda args: 1,
            "paralinguistic_features": lambda args: len(args[0]),
        }
        for name, size in sizes.items():
            original = getattr(pipeline_module, name)

            def counting(*args, _name=name, _size=size, _original=original, **kwargs):
                units[_name] += _size(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline_module, name, counting)

        learner = _RecordingLearner()
        _, details = cross_validate(
            corpus, config, learner, k=3, seed=2, return_details=True
        )
        num_ipus = sum(len(block.features) for block in [learner.train[0], *learner.held_out[0]])
        assert units == {
            "embed_units": num_ipus,
            "paralinguistic_features": num_ipus,
            "load_embeddings": 1,
        }
        plan = stratified_k_fold(labels(corpus), 3, 2)
        for fold, detail, train, held_out in zip(
            plan.folds, details, learner.train, learner.held_out
        ):
            train_docs = corpus.select([i for i in range(len(corpus)) if i not in set(fold)])
            fitted, want_train = fit(config, train_docs)
            want_held_out = featurize(fitted, corpus.select(fold))
            assert detail.pipeline_checksum == fitted.state_checksum()
            [got_held_out] = held_out
            assert same_block(train, want_train)
            assert same_block(got_held_out, want_held_out)

    def test_segmented_documents_must_match_the_corpus(self):
        from opinionchain.features.pipeline import FeaturePipeline

        docs = columns(tiny_corpus())
        config = PipelineConfig(blocks=("bong",), standardize=False)
        segmented = FeaturePipeline(config).segment(docs)
        reversed_docs = segmented.subchunk(range(len(docs))[::-1])
        with pytest.raises(InvalidInputError, match="do not match the corpus"):
            cross_validate(docs, config, _MajorityLearner(), k=2, segmented=reversed_docs)
        want = cross_validate(docs, config, _MajorityLearner(), k=2)
        assert cross_validate(docs, config, _MajorityLearner(), k=2, segmented=segmented) == want

    def test_hcrf_grid_avoids_crushing_regularizer(self):
        docs = columns(tiny_corpus(n_pos=6, n_neg=6))
        config = PipelineConfig(blocks=("bong",), standardize=False)
        learner = HcrfLearner(
            config=TrainingConfig(num_hidden_states=2, max_iterations=60),
            l2_grid=(1e6, 0.1),
        )
        _, details = cross_validate(
            docs, config, learner, k=2, seed=0, return_details=True
        )
        for detail in details:
            assert detail.selection["l2_lambda"] == 0.1
