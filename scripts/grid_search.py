#!/usr/bin/env python3
"""Cross-validated hyperparameter sweep over a corpus directory.

Unlike the inner selection loop inside evaluation, this runs the full
outer cross-validation once per grid point and prints a ranked table,
so it is the right tool for offline exploration, not for reporting
(selecting on the outer score leaks the test folds).
"""

import argparse
import itertools

from opinionchain.baseline import DEFAULT_C_GRID
from opinionchain.corpus import filter_neutral, read_corpus
from opinionchain.evaluation import (
    CONTEXT_WINDOW_GRID,
    HIDDEN_STATE_GRID,
    L2_GRID,
    HcrfLearner,
    LogRegLearner,
    cross_validate,
)
from opinionchain.features.pipeline import PipelineConfig
from opinionchain.training import TrainingConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, help="corpus directory (manifest.tsv)")
    parser.add_argument("--model", choices=("hcrf", "logreg"), default="hcrf")
    parser.add_argument("--features", default="bong",
                        help="comma-separated feature blocks")
    parser.add_argument("--embedding-path", default=None)
    parser.add_argument("--threshold-ms", type=int, default=300)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=200)
    parser.add_argument("--hidden-states", type=int, nargs="*",
                        default=list(HIDDEN_STATE_GRID))
    parser.add_argument("--context-windows", type=int, nargs="*",
                        default=list(CONTEXT_WINDOW_GRID))
    parser.add_argument("--l2", type=float, nargs="*", default=list(L2_GRID))
    parser.add_argument("--c", type=float, nargs="*", default=list(DEFAULT_C_GRID))
    args = parser.parse_args()

    corpus = filter_neutral(read_corpus(args.corpus))
    print(f"{len(corpus)} labeled documents, {args.folds}-fold cross-validation")

    blocks = tuple(b.strip() for b in args.features.split(",") if b.strip())
    kwargs = {"blocks": blocks, "threshold_ms": args.threshold_ms}
    if args.embedding_path is not None:
        kwargs["embedding_path"] = args.embedding_path
    config = PipelineConfig(**kwargs)

    rows = []
    if args.model == "hcrf":
        grid = list(itertools.product(args.hidden_states, args.context_windows, args.l2))
        for n, (h, w, lam) in enumerate(grid, start=1):
            train_config = TrainingConfig(
                num_hidden_states=h,
                context_window=w,
                l2_lambda=lam,
                max_iterations=args.max_iterations,
            )
            report, _ = cross_validate(
                corpus, config, HcrfLearner(config=train_config),
                k=args.folds, seed=args.seed,
            )
            name = f"H={h} w={w} l2={lam:g}"
            rows.append((name, report))
            print(f"[{n}/{len(grid)}] {name}: "
                  f"acc={report.accuracy:.2f} wF1={report.weighted_f1:.2f}")
    else:
        for n, c in enumerate(args.c, start=1):
            report, _ = cross_validate(
                corpus, config, LogRegLearner(c_grid=(c,)), k=args.folds, seed=args.seed
            )
            name = f"C={c:g}"
            rows.append((name, report))
            print(f"[{n}/{len(args.c)}] {name}: "
                  f"acc={report.accuracy:.2f} wF1={report.weighted_f1:.2f}")

    rows.sort(key=lambda row: -row[1].weighted_f1)
    print()
    print(f"{'configuration':<24} {'accuracy':>9} {'weighted F1':>12} "
          f"{'F1 pos':>7} {'F1 neg':>7}")
    for name, report in rows:
        rounded = report.rounded()
        print(f"{name:<24} {report.accuracy:>8.2f}% {report.weighted_f1:>11.2f}% "
              f"{rounded['f1_positive']:>7} {rounded['f1_negative']:>7}")


if __name__ == "__main__":
    main()
