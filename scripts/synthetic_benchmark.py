#!/usr/bin/env python3
"""Benchmark the sequence model against the aggregate baseline on the
synthetic opinion-dynamics corpus.

The generator plants each document's label in its final segments, so a
classifier that ignores segment order is capped by an enumerable Bayes
bound.  The gap between the two cross-validated accuracies below is the
measured value of modeling the sequence.
"""

import argparse
import dataclasses
import tempfile
import time
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.stats import ttest_rel

from opinionchain.errors import InvalidInputError
from opinionchain.evaluation import HcrfLearner, LogRegLearner, MetricsReport, cross_validate
from opinionchain.features.pipeline import PipelineConfig
from opinionchain.synthetic import (
    SyntheticSpec,
    generate_corpus,
    generate_embeddings,
    order_insensitive_bayes_accuracy,
    write_embeddings,
)
from opinionchain.training import TrainingConfig


@dataclasses.dataclass(frozen=True)
class SignificanceResult:
    p_value: float
    statistic: float
    degenerate: bool  # differences had zero variance; statistic is meaningless


def fold_significance(scores_a: Sequence[float], scores_b: Sequence[float]) -> SignificanceResult:
    """Two-sided paired t-test over per-fold scores."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise InvalidInputError("need two equal-length score lists of size >= 2")
    diffs = a - b
    if float(np.std(diffs)) == 0.0:
        return SignificanceResult(p_value=1.0, statistic=0.0, degenerate=True)
    stat, p = ttest_rel(a, b)
    return SignificanceResult(p_value=float(p), statistic=float(stat), degenerate=False)


def fold_scores(report: MetricsReport, metric: str = "accuracy") -> list[float]:
    """Per-fold series for significance testing: 'accuracy', 'weighted_f1',
    or 'f1:<label>'."""
    if not report.per_fold:
        raise InvalidInputError("report carries no per-fold breakdown")
    out = []
    for rep in report.per_fold:
        if metric == "accuracy":
            out.append(rep.accuracy)
        elif metric == "weighted_f1":
            out.append(rep.weighted_f1)
        elif metric.startswith("f1:"):
            name = metric[3:]
            match = [cm for cm in rep.per_class if cm.label == name]
            if not match:
                raise InvalidInputError(f"unknown class {name!r}")
            out.append(match[0].f1)
        else:
            raise InvalidInputError(f"unknown metric {metric!r}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--docs-per-label", type=int, default=250)
    parser.add_argument("--match-prob", type=float, default=0.5,
                        help="probability a non-decisive segment matches the label")
    parser.add_argument("--decisive-segments", type=int, default=1)
    parser.add_argument("--hidden-states", type=int, default=3)
    parser.add_argument("--l2", type=float, default=0.1)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--max-iterations", type=int, default=150)
    args = parser.parse_args()

    spec = dataclasses.replace(
        SyntheticSpec(),
        num_docs_per_label=args.docs_per_label,
        match_prob=args.match_prob,
        decisive_segments=args.decisive_segments,
    )
    bayes = order_insensitive_bayes_accuracy(spec)
    print(f"order-insensitive Bayes bound: {100 * bayes:.2f}%")

    corpus = generate_corpus(spec, seed=args.seed)
    print(f"corpus: {len(corpus)} documents, {args.folds}-fold cross-validation")

    with tempfile.TemporaryDirectory() as tmp:
        emb_path = Path(tmp) / "embeddings.txt"
        write_embeddings(generate_embeddings(spec, seed=args.seed), emb_path)
        config = PipelineConfig(blocks=("embedding",), embedding_path=str(emb_path))

        start = time.perf_counter()
        logreg, _ = cross_validate(
            corpus, config, LogRegLearner(c_grid=(args.c,)), k=args.folds, seed=args.seed
        )
        print(f"logreg done in {time.perf_counter() - start:.1f}s")

        start = time.perf_counter()
        learner = HcrfLearner(
            config=TrainingConfig(
                num_hidden_states=args.hidden_states,
                l2_lambda=args.l2,
                max_iterations=args.max_iterations,
            )
        )
        hcrf, _ = cross_validate(corpus, config, learner, k=args.folds, seed=args.seed)
        print(f"hcrf done in {time.perf_counter() - start:.1f}s")

    print()
    print(f"{'model':<8} {'accuracy':>9} {'weighted F1':>12}")
    for name, report in (("logreg", logreg), ("hcrf", hcrf)):
        print(f"{name:<8} {report.accuracy:>8.2f}% {report.weighted_f1:>11.2f}%")
    print(f"\ngap: {hcrf.accuracy - logreg.accuracy:+.2f} accuracy points")

    sig = fold_significance(fold_scores(hcrf, "accuracy"), fold_scores(logreg, "accuracy"))
    tag = " (degenerate: identical fold scores)" if sig.degenerate else ""
    print(f"paired t-test on fold accuracies: t={sig.statistic:.3f}, p={sig.p_value:.4g}{tag}")


if __name__ == "__main__":
    main()
