"""Cross-validated evaluation: stratified folds and F1 metrics.

Reports carry percentages at full precision together with half-up
rounded integers so they can be compared against published tables.
Hyperparameter grids are resolved by an inner 3-fold cross-validation
on each training fold, selected by pooled prior-weighted F1, so the
outer test folds never inform the choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from .baseline import LogRegPredictor, document_vectors, train_logreg
from .corpus import LABEL_NAMES, CorpusColumns, polarity
from .errors import InvalidInputError
from .features.pipeline import FeaturePipeline, PipelineConfig
from .model import Predictor, SequenceBlock
from .training import HcrfPredictor, TrainingConfig, fit_predictor

# grids swept by the reference protocol
HIDDEN_STATE_GRID = (2, 3, 4, 5)
CONTEXT_WINDOW_GRID = (0, 1, 2)
L2_GRID = (0.01, 0.05, 0.075, 0.1, 0.25, 0.5, 1.0)
INNER_FOLDS = 3  # of the inner cross-validation that selects from a grid


def round_half_up(x: float) -> int:
    """0.5 always rounds away from zero toward +inf (table convention)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[int, ...], ...]
    seed: int

    def __post_init__(self):
        seen: set[int] = set()
        for fold in self.folds:
            if not fold:
                raise InvalidInputError("fold plans must not contain empty folds")
            overlap = seen.intersection(fold)
            if overlap:
                raise InvalidInputError(f"folds overlap on indices {sorted(overlap)}")
            seen.update(fold)


def stratified_k_fold(labels: Sequence[int], k: int, seed: int) -> FoldPlan:
    """Deterministic partition keeping per-fold class counts within one
    document of an even split: each class is shuffled, then dealt
    round-robin starting at fold 0."""
    if k < 2:
        raise InvalidInputError("k must be at least 2")
    arr = np.asarray(labels, dtype=np.int64)
    classes = sorted(set(arr.tolist()))
    by_class = [np.flatnonzero(arr == cls) for cls in classes]
    for cls, members in zip(classes, by_class):  # checked before k folds are made
        if len(members) < k:
            raise InvalidInputError(
                f"class {cls} has {len(members)} members, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for members in by_class:
        rng.shuffle(members)
        for i, idx in enumerate(members.tolist()):
            folds[i % k].append(idx)
    return FoldPlan(folds=tuple(tuple(sorted(f)) for f in folds), seed=seed)


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float  # percent, full precision
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    confusion: tuple[tuple[int, ...], ...]  # rows gold, columns predicted
    per_class: tuple[ClassMetrics, ...]
    priors: tuple[float, ...]
    accuracy: float  # percent
    weighted_f1: float  # percent
    per_fold: tuple["MetricsReport", ...] = ()

    def rounded(self) -> dict:
        out = {"accuracy": round_half_up(self.accuracy), "weighted_f1": round_half_up(self.weighted_f1)}
        for cm in self.per_class:
            out[f"f1_{cm.label}"] = round_half_up(cm.f1)
        return out

    def to_jsonable(self) -> dict:
        doc = {
            "format": "metrics-report/v1",
            "confusion": [list(row) for row in self.confusion],
            "per_class": [
                {
                    "label": cm.label,
                    "precision": cm.precision,
                    "recall": cm.recall,
                    "f1": cm.f1,
                    "support": cm.support,
                }
                for cm in self.per_class
            ],
            "priors": list(self.priors),
            "accuracy": self.accuracy,
            "weighted_f1": self.weighted_f1,
            "rounded": self.rounded(),
        }
        if self.per_fold:
            doc["per_fold"] = [r.to_jsonable() for r in self.per_fold]
            for sub in doc["per_fold"]:
                sub.pop("format")
        return doc

    def render_text(self) -> str:
        lines = ["metrics-report/v1", ""]
        header = f"{'class':<12}{'precision':>11}{'recall':>9}{'F1':>7}{'support':>9}"
        lines.append(header)
        for cm in self.per_class:
            lines.append(
                f"{cm.label:<12}{cm.precision:>10.2f} {cm.recall:>8.2f}"
                f"{cm.f1:>7.2f}{cm.support:>9d}"
            )
        lines.append("")
        lines.append(f"accuracy     {self.accuracy:.2f}  (rounded {round_half_up(self.accuracy)})")
        lines.append(f"weighted F1  {self.weighted_f1:.2f}  (rounded {round_half_up(self.weighted_f1)})")
        lines.append("")
        lines.append("confusion (rows gold, columns predicted)")
        names = [cm.label for cm in self.per_class]
        width = max(len(n) for n in names) + 2
        lines.append(" " * width + "".join(f"{n:>{width}}" for n in names))
        for name, row in zip(names, self.confusion):
            lines.append(f"{name:>{width}}" + "".join(f"{v:>{width}d}" for v in row))
        if self.per_fold:
            lines.append("")
            lines.append(f"{'fold':<6}{'accuracy':>10}{'weighted F1':>13}")
            for i, rep in enumerate(self.per_fold):
                lines.append(f"{i:<6d}{rep.accuracy:>10.2f}{rep.weighted_f1:>13.2f}")
        return "\n".join(lines) + "\n"


def compute_metrics(
    predicted: Sequence[int],
    gold: Sequence[int],
    priors: Sequence[float] | None = None,
) -> MetricsReport:
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(gold, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise InvalidInputError("predictions and golds must be equal-length vectors")
    if pred.size == 0:
        raise InvalidInputError("cannot score an empty prediction list")
    n = len(LABEL_NAMES)
    if pred.min() < 0 or true.min() < 0 or pred.max() >= n or true.max() >= n:
        raise InvalidInputError(f"labels must lie in [0, {n})")

    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (true, pred), 1)

    if priors is None:
        prior_vec = confusion.sum(axis=1) / confusion.sum()
    else:
        prior_vec = np.asarray(priors, dtype=np.float64)
        if prior_vec.shape != (n,) or abs(prior_vec.sum() - 1.0) > 1e-9:
            raise InvalidInputError("priors must be a distribution over the labels")

    per_class = []
    for c in range(n):
        tp = confusion[c, c]
        col = confusion[:, c].sum()
        row = confusion[c, :].sum()
        precision = 100.0 * tp / col if col else 0.0
        recall = 100.0 * tp / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            ClassMetrics(
                label=LABEL_NAMES[c],
                precision=precision,
                recall=recall,
                f1=f1,
                support=int(row),
            )
        )
    accuracy = 100.0 * float(np.trace(confusion)) / float(confusion.sum())
    weighted_f1 = float(sum(p * cm.f1 for p, cm in zip(prior_vec, per_class)))
    return MetricsReport(
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
        per_class=tuple(per_class),
        priors=tuple(float(p) for p in prior_vec),
        accuracy=accuracy,
        weighted_f1=weighted_f1,
    )


class Learner(Protocol):
    def fit(self, block: SequenceBlock, labels: Sequence[int]) -> Predictor: ...


def _select_candidate(candidates, fit_with, block: SequenceBlock, labels, seed):
    """Best candidate by pooled weighted F1 over an inner stratified split
    of the sequences of ``block``, each fold's blocks picked once for all
    candidates; ties keep grid order."""
    if len(candidates) == 1:
        return candidates[0]
    plan = stratified_k_fold(labels, INNER_FOLDS, seed)
    folds = []
    for fold in plan.folds:
        held = set(fold)
        kept = [i for i in range(len(labels)) if i not in held]
        folds.append((block.subblock(kept), [labels[i] for i in kept], block.subblock(fold)))
    gold = [labels[i] for fold in plan.folds for i in fold]
    best, best_score = None, -np.inf
    for cand in candidates:
        pooled: list[int] = []
        for train, train_labels, held_out in folds:
            predictor = fit_with(cand, train, train_labels)
            pooled.extend(predictor.posterior_blocks([held_out]).argmax(axis=1).tolist())
        score = compute_metrics(pooled, gold).weighted_f1
        if score > best_score:
            best, best_score = cand, score
    return best


@dataclass(frozen=True)
class HcrfLearner:
    """Whole-sequence model; optional grids trigger inner-CV selection."""

    config: TrainingConfig = TrainingConfig()
    hidden_state_grid: tuple[int, ...] | None = None
    context_window_grid: tuple[int, ...] | None = None
    l2_grid: tuple[float, ...] | None = None

    def _candidates(self) -> list[TrainingConfig]:
        hs = self.hidden_state_grid or (self.config.num_hidden_states,)
        ws = self.context_window_grid or (self.config.context_window,)
        ls = self.l2_grid or (self.config.l2_lambda,)
        return [
            replace(self.config, num_hidden_states=h, context_window=w, l2_lambda=l)
            for h, w, l in itertools.product(hs, ws, ls)
        ]

    def fit(self, block: SequenceBlock, labels: Sequence[int]) -> HcrfPredictor:
        def fit_with(config, part, labs):
            predictor, _ = fit_predictor(part, labs, config)
            return predictor

        labels = list(labels)
        chosen = _select_candidate(self._candidates(), fit_with, block, labels, self.config.seed)
        return fit_with(chosen, block, labels)


@dataclass(frozen=True)
class LogRegLearner:
    """Doc-level baseline on averaged vectors; optional C grid."""

    c_grid: tuple[float, ...] = (1.0,)
    seed: int = 0

    def fit(self, block: SequenceBlock, labels: Sequence[int]) -> LogRegPredictor:
        def fit_with(c, part, labs):
            matrix = document_vectors(part)
            return LogRegPredictor(train_logreg(matrix, labs, c=c, seed=self.seed))

        labels = list(labels)
        chosen = _select_candidate(list(self.c_grid), fit_with, block, labels, self.seed)
        return fit_with(chosen, block, labels)


@dataclass(frozen=True)
class FoldDetail:
    fold_index: int
    test_doc_ids: tuple[str, ...]
    pipeline_checksum: str
    selection: dict


def cross_validate(
    corpus: CorpusColumns,
    pipeline_config: PipelineConfig,
    learner: Learner,
    k: int = 10,
    seed: int = 0,
) -> tuple[MetricsReport, list[FoldDetail]]:
    """Leakage-safe k-fold protocol over a labeled two-class corpus, read
    as columns (``corpus.filter_neutral`` leaves only such documents).

    Every fold refits the feature pipeline on its training documents
    only, trains via the learner (which may run its own inner grid
    selection), and scores the held-out documents.  Segmentation,
    tokenization and every feature block but bong depend on no fitted
    state, so the corpus is segmented and prepared once for all folds
    (``FeaturePipeline.prepare``); each fold picks its documents from
    the prepared chunk by index (``SegmentedChunk.subchunk``) and builds
    only the bong rows and the standardizer.  Returns the report, which
    pools all held-out predictions with per-fold reports riding along,
    and each fold's ``FoldDetail``.
    """
    labels = []
    for doc_id, valences in zip(corpus.doc_ids, corpus.valences):
        label = polarity(valences)
        if label is None:
            raise InvalidInputError(
                f"{doc_id}: unlabeled or neutral document; filter the corpus first"
            )
        labels.append(label)
    unfitted = FeaturePipeline(pipeline_config)
    segmented = unfitted.segment(corpus)
    plan = stratified_k_fold(labels, k, seed)
    prepared = unfitted.prepare(segmented)
    pooled = np.full(len(corpus), -1, dtype=np.int64)
    fold_reports = []
    details = []
    for fold_index, fold in enumerate(plan.folds):
        held = set(fold)
        kept = [i for i in range(len(labels)) if i not in held]
        pipeline, train_block = unfitted.fit_transform(prepared.subchunk(kept))
        predictor = learner.fit(train_block, [labels[i] for i in kept])
        posteriors = predictor.posterior_blocks([pipeline.block(prepared.subchunk(fold))])
        preds = posteriors.argmax(axis=1).tolist()
        pooled[list(fold)] = preds
        fold_reports.append(compute_metrics(preds, [labels[i] for i in fold]))
        details.append(
            FoldDetail(
                fold_index=fold_index,
                test_doc_ids=tuple(corpus.doc_ids[i] for i in fold),
                pipeline_checksum=pipeline.state_checksum(),
                selection=predictor.describe(),
            )
        )
    report = replace(
        compute_metrics(pooled.tolist(), labels), per_fold=tuple(fold_reports)
    )
    return report, details
