"""Command-line entry point for reproducible batch runs.

Every command takes an --out directory and leaves behind the fully
resolved configuration (config.json), a plain log (run.log, no
timestamps so reruns are byte-comparable), and its outputs.  Flags
override values from an optional --config JSON file, whose sections are
"pipeline", "training", "generator" (keys of the matching dataclasses),
"logreg" (key "c_grid") and "evaluate" (key "folds").  A command that
fails prints one ``error:`` line and, once it has opened its run.log,
logs that line there as well.

Each command imports the modules it runs when it runs: at module level
this imports only the standard library and ``errors``.  So ``--help``
loads no numpy, ``generate`` only ``corpus`` and ``synthetic``, and
``segment`` and ``predict`` none of the training and evaluation code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    ConfigurationError,
    FileFormatError,
    InvalidInputError,
    TrainingDivergedError,
    canonical_json,
    is_finite_number,
    read_utf8,
)

if TYPE_CHECKING:
    from .evaluation import Learner
    from .features.pipeline import FeaturePipeline, PipelineConfig

# Named explicitly: under ``python -m opinionchain.cli`` __name__ is
# "__main__", outside the "opinionchain" logger that run.log records.
log = logging.getLogger("opinionchain.cli")

PREDICTIONS_VERSION = "predictions/v1"

_HANDLED_ERRORS = (
    InvalidInputError,
    ConfigurationError,
    FileFormatError,
    TrainingDivergedError,
    OSError,
)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: config file must hold a JSON object")
    known = {"pipeline", "training", "logreg", "generator", "evaluate"}
    unknown = sorted(set(doc) - known)
    not_objects = sorted(k for k in set(doc) & known if not isinstance(doc[k], dict))
    problems = []
    if unknown:
        problems.append(f"unknown config sections {unknown}; known: {sorted(known)}")
    if not_objects:
        problems.append(f"config sections {not_objects} must be JSON objects")
    if problems:
        raise ConfigurationError(f"{path}: " + "; ".join(problems))
    return doc


@contextlib.contextmanager
def _section_errors(name: str):
    """Values a section's constructor rejects become one ConfigurationError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {name} configuration: {exc}") from None


def _section(file_config: dict, name: str, known, overrides: dict | None = None) -> dict:
    """Section ``name`` with non-None ``overrides`` applied; unknown keys rejected."""
    merged = dict(file_config.get(name, {}))
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(set(merged) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown {name} keys {unknown}; known: {sorted(known)}")
    return merged


def _build_dataclass(cls, file_config: dict, name: str, overrides: dict):
    merged = _section(file_config, name, [f.name for f in dataclasses.fields(cls)], overrides)
    with _section_errors(name):
        return cls(**merged)


def _pipeline_config(args, file_config: dict) -> PipelineConfig:
    from .features.pipeline import PipelineConfig

    overrides = {
        "threshold_ms": args.threshold_ms,
        "blocks": tuple(args.features.split(",")) if args.features else None,
    }
    return _build_dataclass(PipelineConfig, file_config, "pipeline", overrides)


def _learner(args, file_config: dict) -> tuple[Learner, dict]:
    """The learner ``--model`` names and its resolved config block; train
    fits it once, evaluate once per outer fold.  The keys of both model
    sections are checked whichever model runs, so a typo in the other
    one is not silently ignored."""
    from .evaluation import HcrfLearner, LogRegLearner
    from .training import TrainingConfig

    overrides = {
        "num_hidden_states": args.hidden_states,
        "context_window": args.context_window,
        "l2_lambda": args.l2,
        "seed": args.seed,
    }
    training_keys = [f.name for f in dataclasses.fields(TrainingConfig)]
    training = _section(file_config, "training", training_keys, overrides)
    logreg = _section(file_config, "logreg", ["c_grid"])
    if args.model == "hcrf":
        with _section_errors("training"):
            config = TrainingConfig(**training)
        return HcrfLearner(config=config), {"training": dataclasses.asdict(config)}
    c_grid = logreg.get("c_grid", [1.0])
    with _section_errors("logreg"):
        if not isinstance(c_grid, list) or not c_grid or not all(map(is_finite_number, c_grid)):
            raise ValueError(f"c_grid must be a nonempty list of finite numbers, got {c_grid!r}")
        c_grid = tuple(float(c) for c in c_grid)
    seed = args.seed if args.seed is not None else 0
    learner = LogRegLearner(c_grid=c_grid, seed=seed)
    return learner, {"logreg": {"c_grid": list(c_grid), "seed": seed}}


def _prepare_out_dir(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _detach_logging():
    root = logging.getLogger("opinionchain")
    for handler in list(root.handlers):
        root.removeHandler(handler)
        handler.close()


def _configure_logging(out_dir: Path):
    _detach_logging()
    root = logging.getLogger("opinionchain")
    handler = logging.FileHandler(out_dir / "run.log", mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.INFO)


def _write_resolved_config(out_dir: Path, resolved: dict):
    (out_dir / "config.json").write_text(canonical_json(resolved), encoding="utf-8")


def _labeled_corpus(path: str, pipeline: FeaturePipeline):
    """The labeled non-neutral documents of the corpus at ``path``, as
    columns, and the same documents segmented once by ``pipeline``, as
    one chunk.  Every document is segmented, the dropped ones too, for
    the IPU count logged here."""
    from .corpus import corpus_stats, filter_neutral, read_corpus

    corpus = read_corpus(path)
    segmented = pipeline.segment(corpus)
    stats = corpus_stats(corpus)
    log.info(
        "loaded %d documents (%s), %d words, %d IPUs at %d ms",
        stats.document_count,
        ", ".join(f"{v} {k}" for k, v in sorted(stats.class_counts.items())),
        stats.word_count,
        len(segmented.units),
        pipeline.config.threshold_ms,
    )
    labeled = filter_neutral(corpus)
    dropped = len(corpus) - len(labeled)
    if dropped:
        log.info("dropped %d neutral or unlabeled documents", dropped)
    if not len(labeled):
        raise InvalidInputError(f"{path}: no labeled non-neutral documents")
    kept = set(labeled.doc_ids)
    return labeled, segmented.subchunk(
        [i for i, doc_id in enumerate(corpus.doc_ids) if doc_id in kept]
    )


def cmd_generate(args) -> int:
    from .corpus import save_corpus
    from .synthetic import (
        SyntheticSpec,
        generate_corpus,
        generate_embeddings,
        order_insensitive_bayes_accuracy,
        write_embeddings,
    )

    file_config = _load_config_file(args.config)
    spec = _build_dataclass(SyntheticSpec, file_config, "generator", {})
    seed = args.seed if args.seed is not None else 0
    out_dir = _prepare_out_dir(args.out)
    _configure_logging(out_dir)
    resolved = {
        "command": "generate",
        "seed": seed,
        "generator": dataclasses.asdict(spec),
    }
    _write_resolved_config(out_dir, resolved)

    bayes = order_insensitive_bayes_accuracy(spec)
    corpus = generate_corpus(spec, seed=seed)
    save_corpus(corpus, out_dir / "corpus")
    write_embeddings(generate_embeddings(spec, seed=seed), out_dir / "embeddings.txt")
    stats = {
        "format": "generator-stats/v1",
        "documents": len(corpus),
        "order_insensitive_bayes_accuracy": bayes,
        "seed": seed,
        "spec": dataclasses.asdict(spec),
    }
    (out_dir / "generator_stats.json").write_text(canonical_json(stats), encoding="utf-8")
    log.info(
        "generated %d documents; order-insensitive Bayes accuracy %.4f (seed %d)",
        len(corpus),
        bayes,
        seed,
    )
    print(f"generated {len(corpus)} documents into {out_dir / 'corpus'}")
    print(f"order-insensitive Bayes accuracy: {100 * bayes:.2f}%")
    return 0


def cmd_segment(args) -> int:
    from .corpus import read_corpus, save_corpus
    from .features.segmentation import DEFAULT_THRESHOLD_MS, ipu_indices

    out_dir = _prepare_out_dir(args.out)
    _configure_logging(out_dir)
    threshold = args.threshold_ms
    if threshold is None:
        threshold = DEFAULT_THRESHOLD_MS
    _write_resolved_config(
        out_dir, {"command": "segment", "corpus": args.corpus, "threshold_ms": threshold}
    )
    corpus = read_corpus(args.corpus)
    index = ipu_indices(corpus, threshold)
    save_corpus(corpus, out_dir / "corpus", ipu_index=index)
    # every IPU has a token, so a document has one more than its last token's index
    lasts = corpus.offsets[1:][corpus.offsets[1:] > corpus.offsets[:-1]] - 1
    ipu_count = int(index[lasts].sum()) + lasts.size
    log.info("segmented %d documents into %d IPUs", len(corpus), ipu_count)
    print(f"segmented {len(corpus)} documents into {ipu_count} IPUs at {threshold} ms")
    return 0


def cmd_train(args) -> int:
    from .archive import save_archive
    from .corpus import polarity
    from .features.pipeline import FeaturePipeline

    file_config = _load_config_file(args.config)
    out_dir = _prepare_out_dir(args.out)
    _configure_logging(out_dir)
    pipeline_config = _pipeline_config(args, file_config)
    learner, model_resolved = _learner(args, file_config)
    unfitted = FeaturePipeline(pipeline_config)
    labeled, segmented = _labeled_corpus(args.corpus, unfitted)

    pipeline, block = unfitted.fit_transform(segmented)
    log.info("feature dimension %d", pipeline.schema.dim)
    labels = list(map(polarity, labeled.valences))
    predictor = learner.fit(block, labels)

    resolved = {
        "command": "train",
        "corpus": args.corpus,
        "model": args.model,
        "pipeline": dataclasses.asdict(pipeline_config),
        **model_resolved,
    }
    _write_resolved_config(out_dir, resolved)
    model_path = out_dir / "model.json"
    save_archive(model_path, predictor, pipeline)
    predicted = predictor.posterior_blocks([block]).argmax(axis=1).tolist()
    correct = sum(p == y for p, y in zip(predicted, labels))
    log.info("training accuracy %.4f", correct / len(labels))
    print(f"saved model to {model_path} (training accuracy {100 * correct / len(labels):.1f}%)")
    return 0


def cmd_predict(args) -> int:
    from .archive import load_archive
    from .corpus import read_corpus

    out_dir = _prepare_out_dir(args.out)
    _configure_logging(out_dir)
    _write_resolved_config(
        out_dir, {"command": "predict", "corpus": args.corpus, "model": args.model}
    )
    loaded = load_archive(args.model)
    corpus = read_corpus(args.corpus)
    if not len(corpus):
        raise InvalidInputError(f"{args.corpus}: empty corpus")
    names = loaded.label_names
    lines = [PREDICTIONS_VERSION, "doc_id\tpredicted\t" + "\t".join(f"p_{n}" for n in names)]
    posteriors = loaded.posteriors(corpus)
    predicted = posteriors.argmax(axis=1).tolist()
    for doc_id, label, posterior in zip(corpus.doc_ids, predicted, posteriors.tolist()):
        lines.append(f"{doc_id}\t{names[label]}\t" + "\t".join(map(repr, posterior)))
    path = out_dir / "predictions.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("predicted %d documents with the %s model", len(corpus), loaded.kind)
    print(f"wrote {len(corpus)} predictions to {path}")
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import cross_validate
    from .features.pipeline import FeaturePipeline

    file_config = _load_config_file(args.config)
    out_dir = _prepare_out_dir(args.out)
    _configure_logging(out_dir)
    pipeline_config = _pipeline_config(args, file_config)
    learner, model_resolved = _learner(args, file_config)
    evaluate = _section(file_config, "evaluate", ["folds"], {"folds": args.folds})
    folds = evaluate.get("folds", 10)
    with _section_errors("evaluate"):
        if not isinstance(folds, int) or isinstance(folds, bool):
            raise ValueError(f"folds must be an integer, got {folds!r}")
    seed = args.seed if args.seed is not None else 0
    labeled, segmented = _labeled_corpus(args.corpus, FeaturePipeline(pipeline_config))

    resolved = {
        "command": "evaluate",
        "corpus": args.corpus,
        "model": args.model,
        "folds": folds,
        "seed": seed,
        "pipeline": dataclasses.asdict(pipeline_config),
        **model_resolved,
    }
    _write_resolved_config(out_dir, resolved)

    report, details = cross_validate(
        labeled, pipeline_config, learner, k=folds, seed=seed, return_details=True,
        segmented=segmented,
    )
    (out_dir / "report.txt").write_text(report.render_text(), encoding="utf-8")
    report_doc = report.to_jsonable()
    report_doc["folds"] = [
        {
            "fold": d.fold_index,
            "test_doc_ids": list(d.test_doc_ids),
            "pipeline_checksum": d.pipeline_checksum,
            "selection": d.selection,
        }
        for d in details
    ]
    (out_dir / "report.json").write_text(canonical_json(report_doc), encoding="utf-8")
    log.info(
        "%d-fold accuracy %.2f, weighted F1 %.2f", folds, report.accuracy, report.weighted_f1
    )
    print(report.render_text(), end="")
    return 0


def cmd_inspect(args) -> int:
    from .archive import load_archive
    from .corpus import read_corpus
    from .features.pipeline import FeaturePipeline
    from .introspection import build_state_report

    out_dir = _prepare_out_dir(args.out)
    _configure_logging(out_dir)
    _write_resolved_config(
        out_dir,
        {
            "command": "inspect",
            "model": args.model,
            "corpus": args.corpus,
            "top_k": args.top_k,
        },
    )
    loaded = load_archive(args.model)
    if loaded.kind != "hcrf":
        raise ConfigurationError("state reports require an hcrf archive")

    table = loaded.pipeline.embedding_table
    vocab: list[str] = []
    if args.corpus is not None and table is not None:
        segmented = FeaturePipeline(loaded.pipeline.config).segment(read_corpus(args.corpus))
        vocab = sorted({word for words in segmented.units for word in words})
    report = build_state_report(
        loaded.predictor.params,
        loaded.pipeline.schema.windowed(loaded.predictor.config.context_window),
        k=args.top_k,
        embedding_table=table if vocab else None,
        corpus_vocab=vocab,
        label_names=loaded.label_names,
    )
    (out_dir / "state_report.txt").write_text(report.render_text(), encoding="utf-8")
    (out_dir / "state_report.json").write_text(
        canonical_json(report.to_jsonable()), encoding="utf-8"
    )
    print(report.render_text(), end="")
    return 0


def non_negative_int(text: str) -> int:
    """The argparse type of ``--seed``: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opinionchain",
        description="Whole-sequence opinion classification of pause-segmented transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, corpus=True, config=True):
        if corpus:
            p.add_argument("--corpus", required=True, help="corpus directory (manifest.tsv)")
        p.add_argument("--out", required=True, help="run directory for outputs")
        if config:
            p.add_argument("--seed", type=non_negative_int, default=None)
            p.add_argument("--config", default=None, help="JSON config file")

    def add_pipeline_flags(p):
        p.add_argument("--threshold-ms", type=int, default=None, dest="threshold_ms")
        p.add_argument(
            "--features",
            default=None,
            help="comma-separated blocks: bong,embedding,lexicon,pattern,paralinguistic",
        )

    def add_model_flags(p):
        p.add_argument("--model", choices=("hcrf", "logreg"), default="hcrf")
        p.add_argument("--hidden-states", type=int, default=None, dest="hidden_states")
        p.add_argument("--context-window", type=int, default=None, dest="context_window")
        p.add_argument("--l2", type=float, default=None)

    p = sub.add_parser("generate", help="emit a synthetic opinion-dynamics corpus")
    add_common(p, corpus=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("segment", help="materialize IPU indices for a corpus")
    add_common(p, config=False)
    p.add_argument("--threshold-ms", type=int, default=None, dest="threshold_ms")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="fit a model on every labeled document")
    add_common(p)
    add_pipeline_flags(p)
    add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a corpus")
    p.add_argument("--model", required=True, help="model archive (model.json)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="stratified cross-validation with a report")
    add_common(p)
    add_pipeline_flags(p)
    add_model_flags(p)
    p.add_argument("--folds", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="state report for a trained hcrf archive")
    p.add_argument("--model", required=True, help="model archive (model.json)")
    p.add_argument("--corpus", default=None, help="corpus for activation words")
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=10, dest="top_k")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED_ERRORS as exc:
        message = f"error: {exc}"
        print(message, file=sys.stderr)
        if logging.getLogger("opinionchain").handlers:  # the command opened its run.log
            log.error("%s", message)
        return 1
    finally:
        # library calls made after the command must not reach its run.log
        _detach_logging()


if __name__ == "__main__":
    sys.exit(main())
