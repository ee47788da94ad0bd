"""Lossless persistence for trained models and their feature pipelines.

Archives are canonical JSON (``errors.canonical_json``): sorted keys,
two-space indent, no NaN or infinity, one trailing newline.  Floats go
through Python's shortest round-trip repr, so save → load → save
reproduces identical bytes and a loaded model re-predicts any dataset
bitwise.

Static resource files (lexicons, embeddings, word lists) are not copied
into the archive; the configuration that names them is, and the sha256
of each as the fitted pipeline read it.  Which files those are is the
pipeline's ``resource_paths``.  Loading re-reads them and refuses to
proceed when a digest has drifted, since silently changed resources
would break the re-prediction guarantee.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import LogRegModel, LogRegPredictor
from .corpus import LABEL_NAMES, CorpusColumns
from .errors import FileFormatError, canonical_json, read_utf8
from .features.ngrams import NGramVocabulary
from .features.pipeline import (
    FeatureSchema,
    FittedFeaturePipeline,
    PipelineConfig,
    _load_resources,
    resource_paths,
    sha256_file,
)
from .features.standardize import Standardizer
from .model import HcrfParameters, Predictor
from .training import HcrfPredictor, TrainingConfig

ARCHIVE_FORMAT = "model-archive/v1"


def _pipeline_doc(pipeline: FittedFeaturePipeline) -> dict:
    vocab = pipeline.vocabulary
    std = pipeline.standardizer
    return {
        "config": dataclasses.asdict(pipeline.config),
        "schema": pipeline.schema.to_jsonable(),
        "vocabulary": None
        if vocab is None
        else {
            "terms": list(vocab.terms),
            "doc_freq": vocab.doc_freq.tolist(),
            "num_docs": vocab.num_docs,
            "max_order": vocab.max_order,
        },
        "standardizer": None
        if std is None
        else {"mean": std.mean.tolist(), "std": std.std.tolist()},
    }


def _model_doc(predictor: Predictor) -> tuple[str, dict]:
    if isinstance(predictor, HcrfPredictor):
        theta = predictor.params
        return "hcrf", {
            "theta_obs": theta.theta_obs.tolist(),
            "theta_state": theta.theta_state.tolist(),
            "theta_trans": theta.theta_trans.tolist(),
            "training": dataclasses.asdict(predictor.config),
        }
    if isinstance(predictor, LogRegPredictor):
        model = predictor.model
        return "logreg", {
            "weights": model.weights.tolist(),
            "intercept": model.intercept,
            "c": model.c,
        }
    raise FileFormatError(f"cannot archive predictor of type {type(predictor).__name__}")


def save_archive(
    path,
    predictor: Predictor,
    pipeline: FittedFeaturePipeline,
    label_names: tuple[str, ...] = LABEL_NAMES,
) -> None:
    kind, model_doc = _model_doc(predictor)
    doc = {
        "format": ARCHIVE_FORMAT,
        "kind": kind,
        "label_names": list(label_names),
        "pipeline": _pipeline_doc(pipeline),
        "resources": {
            role: {"sha256": digest} for role, digest in pipeline.resource_digests.items()
        },
        "model": model_doc,
    }
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class LoadedModel:
    kind: str  # "hcrf" | "logreg"
    pipeline: FittedFeaturePipeline
    predictor: Predictor
    label_names: tuple[str, ...]

    def posteriors(self, corpus: CorpusColumns) -> np.ndarray:
        """(N, Y) label posteriors of the documents of ``corpus``, read as
        columns (``read_corpus``).  The pipeline carries a chunk of
        documents at a time from its columns to one block of sequences
        (``FittedFeaturePipeline.blocks``), which the predictor scores as
        it reads them, so the corpus's feature matrices are never all
        held at once."""
        return self.predictor.posterior_blocks(self.pipeline.blocks(corpus))


def _check_resource_digests(config: PipelineConfig, stored: dict, archive_path) -> dict:
    """The sha256 of each resource file ``config`` reads, hashed once and
    checked against the archive's ``stored`` digests; every file missing,
    unused, unreadable or changed is a problem, and all of them are
    raised at once."""
    problems, digests = [], {}
    current = resource_paths(config)
    for role in sorted(set(stored) | set(current)):
        if role not in current:
            problems.append((str(archive_path), 0, f"archived resource {role!r} is no longer used"))
            continue
        if role not in stored:
            problems.append((str(archive_path), 0, f"resource {role!r} missing from archive"))
            continue
        path = current[role]
        if not path.exists():
            problems.append((str(archive_path), 0, f"resource {role!r} not found at {path}"))
            continue
        try:
            digest = sha256_file(path)
        except OSError as exc:
            reason = f"resource {role!r} at {path} cannot be read: {exc.strerror}"
            problems.append((str(archive_path), 0, reason))
            continue
        if digest != stored[role]["sha256"]:
            problems.append(
                (str(archive_path), 0, f"resource {role!r} at {path} changed since archiving")
            )
        digests[role] = digest
    if problems:
        raise FileFormatError(
            "archived resources drifted; re-train on the current resources",
            problems,
        )
    return digests


# The JSON structure load_archive expects.  A key maps to the Python type
# (or types) its value must have, or to the spec of a nested object;
# (None, spec) also allows null.
_NUMBER = (int, float)
_PIPELINE_SPEC = {
    "config": dict,
    "schema": {"blocks": list, "feature_names": list},
    "vocabulary": (None, {"terms": list, "doc_freq": list, "num_docs": int, "max_order": int}),
    "standardizer": (None, {"mean": list, "std": list}),
}
_MODEL_SPECS = {
    "hcrf": {"theta_obs": list, "theta_state": list, "theta_trans": list, "training": dict},
    "logreg": {"weights": list, "intercept": _NUMBER, "c": _NUMBER},
}
_ARCHIVE_SPEC = {
    "kind": str,
    "label_names": list,
    "pipeline": _PIPELINE_SPEC,
    "resources": dict,
    "model": dict,
}
_JSON_TYPE_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    _NUMBER: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _spec_problems(doc: dict, spec: dict, prefix: str = "") -> list[str]:
    """Every key of ``spec`` that ``doc`` lacks or holds with the wrong type."""
    problems = []
    for key, want in spec.items():
        name = prefix + key
        if key not in doc:
            problems.append(f"missing key {name!r}")
            continue
        value = doc[key]
        if isinstance(want, tuple) and want[0] is None:
            if value is None:
                continue
            want = want[1]
        if isinstance(want, dict):
            if isinstance(value, dict):
                problems.extend(_spec_problems(value, want, name + "."))
                continue
        elif isinstance(value, want) and not isinstance(value, bool):
            continue
        expected = _JSON_TYPE_NAMES[dict if isinstance(want, dict) else want]
        problems.append(f"{name!r} must be {expected}, got {_JSON_TYPE_NAMES[type(value)]}")
    return problems


def _label_name_problems(names: list, kind, model) -> list[str]:
    """The names must be distinct non-empty strings, one per model label:
    two for logreg, and for hcrf one per row of ``theta_state`` and of
    ``theta_trans`` (blocks that disagree on the label count are the
    parameters' own inconsistent-shapes problem)."""
    problems = []
    if not all(isinstance(name, str) and name for name in names):
        problems.append(f"'label_names' must be non-empty strings, got {names!r}")
    elif len(set(names)) != len(names):
        problems.append(f"'label_names' must be distinct, got {names!r}")
    want = None
    if kind == "logreg":
        want = 2
    elif kind == "hcrf" and isinstance(model, dict):
        state, trans = model.get("theta_state"), model.get("theta_trans")
        if isinstance(state, list) and isinstance(trans, list) and len(state) == len(trans):
            want = len(state)
    if want is not None and len(names) != want:
        problems.append(f"'label_names' has {len(names)} name(s) for a model of {want} labels")
    return problems


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _agreement_problems(doc: dict) -> list[str]:
    """The parts of a structurally sound archive must agree: the
    vocabulary on the configured n-gram order, and all on the feature
    dimension D, the sum of the schema's block widths: the
    vocabulary's terms and the widths of the other blocks add up to D,
    the standardizer has D entries, and the model reads (2w+1) D columns
    under its context window w (D for logreg).  A part too malformed to
    measure is left to the constructors."""
    pipeline, model = doc["pipeline"], doc["model"]
    vocab, problems = pipeline["vocabulary"], []
    order = pipeline["config"].get("bong_max_order", PipelineConfig.bong_max_order)
    if vocab is not None and vocab["max_order"] != order:
        problems.append(
            f"'pipeline.vocabulary.max_order' is {vocab['max_order']}, "
            f"but 'pipeline.config.bong_max_order' is {order!r}"
        )
    blocks = pipeline["schema"]["blocks"]
    if not all(
        isinstance(b, list) and len(b) == 3 and isinstance(b[0], str) and _is_int(b[2])
        for b in blocks
    ):
        return problems
    dim = sum(width for _, _, width in blocks)
    fixed = sum(width for name, _, width in blocks if name != "bong")
    terms = 0 if vocab is None else len(vocab["terms"])
    if terms + fixed != dim:
        problems.append(
            f"vocabulary size {terms} + fixed-block widths {fixed} != schema dim {dim}"
        )
    standardizer = pipeline["standardizer"]
    if standardizer is not None:
        means, stds = len(standardizer["mean"]), len(standardizer["std"])
        if (means, stds) != (dim, dim):
            problems.append(
                f"'pipeline.standardizer' has {means} means and {stds} stds for schema dim {dim}"
            )
    if doc["kind"] == "hcrf":
        window = model["training"].get("context_window", 0)
        rows = model["theta_obs"]
        widths = {len(row) for row in rows if isinstance(row, list)}
        if _is_int(window) and window >= 0 and len(widths) == 1:
            width, want = widths.pop(), (2 * window + 1) * dim
            if width != want:
                problems.append(
                    f"'model.theta_obs' has {width} columns, but context window {window} "
                    f"and schema dim {dim} need {want}"
                )
    elif len(model["weights"]) != dim:
        problems.append(
            f"'model.weights' has {len(model['weights'])} entries for schema dim {dim}"
        )
    return problems


def _archive_problems(doc: dict) -> list[str]:
    problems = _spec_problems(doc, _ARCHIVE_SPEC)
    kind, model = doc.get("kind"), doc.get("model")
    if isinstance(kind, str) and kind not in _MODEL_SPECS:
        problems.append(f"unknown model kind {kind!r}; known: {sorted(_MODEL_SPECS)}")
    elif isinstance(kind, str) and isinstance(model, dict):
        problems.extend(_spec_problems(model, _MODEL_SPECS[kind], "model."))
        if not problems:
            problems.extend(_agreement_problems(doc))
    names = doc.get("label_names")
    if isinstance(names, list):
        problems.extend(_label_name_problems(names, kind, model))
    resources = doc.get("resources")
    if isinstance(resources, dict):
        for role, entry in sorted(resources.items()):
            if not isinstance(entry, dict) or not isinstance(entry.get("sha256"), str):
                problems.append(f"'resources.{role}' must be an object with a string 'sha256'")
    return problems


def _predictor_from_doc(kind: str, model_doc: dict):
    if kind == "hcrf":
        return HcrfPredictor(
            params=HcrfParameters(
                theta_obs=np.array(model_doc["theta_obs"], dtype=np.float64),
                theta_state=np.array(model_doc["theta_state"], dtype=np.float64),
                theta_trans=np.array(model_doc["theta_trans"], dtype=np.float64),
            ),
            config=TrainingConfig(**model_doc["training"]),
        )
    return LogRegPredictor(
        LogRegModel(
            weights=np.array(model_doc["weights"], dtype=np.float64),
            intercept=float(model_doc["intercept"]),
            c=float(model_doc["c"]),
        )
    )


def _fitted_parts(pipe_doc: dict) -> dict:
    """Schema, vocabulary and standardizer of a fitted pipeline."""
    vocab = None
    if pipe_doc["vocabulary"] is not None:
        v = pipe_doc["vocabulary"]
        vocab = NGramVocabulary(
            terms=tuple(v["terms"]),
            doc_freq=np.array(v["doc_freq"], dtype=np.int64),
            num_docs=int(v["num_docs"]),
            max_order=int(v["max_order"]),
        )
    standardizer = None
    if pipe_doc["standardizer"] is not None:
        s = pipe_doc["standardizer"]
        standardizer = Standardizer(
            mean=np.array(s["mean"], dtype=np.float64),
            std=np.array(s["std"], dtype=np.float64),
        )
    return {
        "schema": FeatureSchema.from_jsonable(pipe_doc["schema"]),
        "vocabulary": vocab,
        "standardizer": standardizer,
    }


def load_archive(path) -> LoadedModel:
    """Read an archive written by :func:`save_archive`.

    A structurally broken archive (missing keys, values of the wrong JSON
    type, parts that disagree on the feature dimension, values no
    constructor accepts) raises one FileFormatError that lists every
    structural problem at once.
    """
    path = Path(path)
    try:
        doc = json.loads(read_utf8(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: cannot read archive: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != ARCHIVE_FORMAT:
        raise FileFormatError(f"{path}: not a {ARCHIVE_FORMAT} file")
    problems = _archive_problems(doc)
    if problems:
        raise FileFormatError(
            f"{path}: malformed archive ({len(problems)} problem(s))",
            [(str(path), 0, p) for p in problems],
        )

    pipe_doc = doc["pipeline"]
    try:
        config = PipelineConfig(**pipe_doc["config"])
        parts = _fitted_parts(pipe_doc)
        predictor = _predictor_from_doc(doc["kind"], doc["model"])
        digests = _check_resource_digests(config, doc["resources"], path)
        resources = _load_resources(config, digests)
        pipeline = FittedFeaturePipeline(config=config, **parts, _resources=resources)
    except FileFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # values a constructor rejects
        raise FileFormatError(f"{path}: malformed archive: {exc}") from None
    return LoadedModel(
        kind=doc["kind"],
        pipeline=pipeline,
        predictor=predictor,
        label_names=tuple(doc["label_names"]),
    )
