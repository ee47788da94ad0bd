#!/usr/bin/env python3
"""Time one objective call, with and without its gradient, at the benchmark's two training shapes.

* embedding: the first fold's training documents (200 of 250) of the
  synthetic default spec, featurized with the embedding block alone
  (D=9) and standardized, as `evaluate --features embedding --folds 5`
  does;
* default: 100 documents of the default spec with the default blocks
  (bong, pattern and paralinguistic; D about 2.4k, the bong rows
  sparse), as default-predict's `train` featurizes them.

For each, the script times `training.objective_and_gradient` at fixed
random parameters and prints the minimum and median time of a full call
(the value, then the gradient from its callable, as at the optimizer's
start and accepted steps) as `objective_ms_*`, and beside it of a
value-only call (a rejected line-search trial) as `value_ms_*`, and the
objective value (the default shape's lines prefixed `default_`).  At
the default shape it also prints `default_fit_transform_ms`: the median
over a few passes of a fresh default pipeline's `segment` and
`fit_transform` of the 100 training documents' columns (resource
loading, cutting and tokenizing, n-gram fit, featurizing and
standardizing), and `default_transform_ms_per_doc`: the median over a
few passes of the fitted pipeline's `blocks` of the columns of 1000
held-out documents of another seed, a chunk at a time (cutting,
tokenizing, featurizing), per document.  It also prints
`default_read_ms_per_doc`: the same 1000 documents are saved to a
temporary directory, and the median over a few passes of `read_corpus`
on it (the transcript reader) plus `FeaturePipeline.segment` of the
read columns (cutting IPUs and tokenizing) is printed per document.
`save_corpus` writes one transcript file for the corpus; beside it,
`default_read_ms_per_doc_file_per_doc` times the same records laid out
one transcript file per document, as it wrote them before, so that the
layout's share of a read-time change can be told from the parser's.
Then `default_predict_ms_per_doc`, the median over a few
passes of reading, featurizing and scoring them as `predict` does
(`read_corpus`, then the posteriors of an HCRF fitted on the default
shape's block), per document.  Two checkouts can be compared by
running it with each one's `src/` on PYTHONPATH, alternating between
them.
"""

import argparse
import dataclasses
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from opinionchain.archive import LoadedModel
from opinionchain.corpus import (
    LABEL_NAMES,
    MANIFEST_NAME,
    TRANSCRIPT_VERSION,
    TRANSCRIPTS_NAME,
    polarity,
    read_corpus,
    save_corpus,
)
from opinionchain.evaluation import stratified_k_fold
from opinionchain.features.pipeline import FeaturePipeline, PipelineConfig
from opinionchain.model import HcrfParameters
from opinionchain.synthetic import (
    SyntheticSpec,
    generate_corpus,
    generate_embeddings,
    write_embeddings,
)
from opinionchain.training import (
    TrainingConfig,
    fit_predictor,
    group_by_length,
    objective_and_gradient,
)

FOLDS = 5
HELDOUT_DOCS_PER_LABEL = 500  # default-predict's held-out corpus size
HELDOUT_SEED_OFFSET = 1_000_003
TRANSFORM_PASSES = 5


def fit_transform(config, corpus):
    """A fresh pipeline of ``config`` fit on the columns ``corpus``, and
    their block."""
    unfitted = FeaturePipeline(config)
    return unfitted.fit_transform(unfitted.segment(corpus))


def embedding_shape(seed):
    """The block and labels of the cv-embedding workload's first training fold."""
    spec = dataclasses.replace(SyntheticSpec(), num_docs_per_label=125)
    corpus = generate_corpus(spec, seed=seed)
    labels = list(map(polarity, corpus.valences))
    held = set(stratified_k_fold(labels, FOLDS, seed).folds[0])
    kept = [i for i in range(len(corpus)) if i not in held]
    train_docs = corpus.select(kept)
    with tempfile.TemporaryDirectory() as tmp:
        emb_path = Path(tmp) / "embeddings.txt"
        write_embeddings(generate_embeddings(spec, seed=seed), emb_path)
        config = PipelineConfig(blocks=("embedding",), embedding_path=str(emb_path))
        _, block = fit_transform(config, train_docs)
    return block, [labels[i] for i in kept]


def default_shape(seed):
    """The block and labels of default-predict's default-block training
    corpus, the pipeline fitted on it, and the corpus as columns."""
    spec = dataclasses.replace(SyntheticSpec(), num_docs_per_label=50)
    corpus = generate_corpus(spec, seed=seed)
    pipeline, block = fit_transform(PipelineConfig(), corpus)
    return block, list(map(polarity, corpus.valences)), pipeline, corpus


def time_fit_transform(corpus):
    times = []
    for _ in range(TRANSFORM_PASSES):
        start = time.perf_counter()
        fit_transform(PipelineConfig(), corpus)
        times.append(time.perf_counter() - start)
    print(f"default_fit_transform_ms {1e3 * statistics.median(times):.4f}")


def heldout_corpus(seed):
    spec = dataclasses.replace(SyntheticSpec(), num_docs_per_label=HELDOUT_DOCS_PER_LABEL)
    return generate_corpus(spec, seed=seed + HELDOUT_SEED_OFFSET)


def time_transform(pipeline, corpus):
    times = []
    for _ in range(TRANSFORM_PASSES):
        start = time.perf_counter()
        for _ in pipeline.blocks(corpus):
            pass
        times.append(time.perf_counter() - start)
    per_doc = 1e3 * statistics.median(times) / len(corpus)
    print(f"default_transform_ms_per_doc {per_doc:.4f}")


def write_file_per_document(corpus_dir, out_dir):
    """The corpus ``save_corpus`` wrote at ``corpus_dir`` written again
    at ``out_dir`` with one transcript file per document,
    ``<doc_id>.txt``: the same records in the same order."""
    corpus_dir, out_dir = Path(corpus_dir), Path(out_dir)
    out_dir.mkdir()
    records = {}
    transcript = (corpus_dir / TRANSCRIPTS_NAME).read_text(encoding="utf-8")
    for line in transcript.splitlines()[1:]:
        records.setdefault(line.split("\t")[1], []).append(line)
    manifest = (corpus_dir / MANIFEST_NAME).read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(manifest[2:], start=2):
        doc_id, _, valence = row.split("\t")
        manifest[i] = f"{doc_id}\t{doc_id}.txt\t{valence}"
        lines = [TRANSCRIPT_VERSION, *records.get(doc_id, ())]
        (out_dir / f"{doc_id}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / MANIFEST_NAME).write_text("\n".join(manifest) + "\n", encoding="utf-8")


def time_read_and_predict(corpus, model):
    unfitted = FeaturePipeline(PipelineConfig())
    one_file, per_doc, predict = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        layouts = ((Path(tmp) / "one", one_file), (Path(tmp) / "per_doc", per_doc))
        save_corpus(corpus, layouts[0][0])
        write_file_per_document(*(path for path, _ in layouts))
        for _ in range(TRANSFORM_PASSES):
            for path, times in layouts:
                start = time.perf_counter()
                unfitted.segment(read_corpus(path))
                times.append(time.perf_counter() - start)
            start = time.perf_counter()
            model.posteriors(read_corpus(layouts[0][0]))
            predict.append(time.perf_counter() - start)
    for name, times in (
        ("read_ms_per_doc", one_file),
        ("read_ms_per_doc_file_per_doc", per_doc),
        ("predict_ms_per_doc", predict),
    ):
        print(f"default_{name} {1e3 * statistics.median(times) / len(corpus):.4f}")


def min_and_median_ms(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times), 1e3 * statistics.median(times)


def time_calls(name, prefix, block, labels, args):
    dim = block.dim
    grouped = group_by_length(block, labels, 2)
    rng = np.random.default_rng(args.seed)
    vec = HcrfParameters.random(args.hidden_states, 2, dim, rng, scale=0.5).as_vector()
    lengths = np.diff(block.bounds)
    print(
        f"{name}: {len(labels)} documents, lengths {lengths.min()}-{lengths.max()}, "
        f"D={dim}, H={args.hidden_states}, {args.repeats} calls"
    )
    l2_lambda = TrainingConfig().l2_lambda

    def value():
        return objective_and_gradient(grouped, vec, args.hidden_states, l2_lambda)

    def full():
        value()[1]()

    full()  # warm-up, and the plan laid out
    for kind, call in (("objective", full), ("value", value)):
        fastest, median = min_and_median_ms(call, args.repeats)
        print(f"{prefix}{kind}_ms_min {fastest:.4f}")
        print(f"{prefix}{kind}_ms_median {median:.4f}")
    print(f"{prefix}objective_value {value()[0]!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus, fold and parameter seed")
    parser.add_argument("--repeats", type=int, default=500, help="timed calls per shape")
    parser.add_argument("--hidden-states", type=int, default=TrainingConfig().num_hidden_states)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    time_calls("embedding", "", *embedding_shape(args.seed), args)
    block, labels, pipeline, corpus = default_shape(args.seed)
    time_calls("default", "default_", block, labels, args)
    time_fit_transform(corpus)
    heldout = heldout_corpus(args.seed)
    time_transform(pipeline, heldout)
    predictor, _ = fit_predictor(block, labels, TrainingConfig())
    time_read_and_predict(heldout, LoadedModel("hcrf", pipeline, predictor, LABEL_NAMES))


if __name__ == "__main__":
    main()
