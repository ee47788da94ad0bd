"""Outside-in spans around opinionchain's public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
replaces each hooked function by a timing wrapper, looking the target up
by attribute at run time in the module that *calls* it (``from x import
f`` binds ``f`` into the caller's namespace, so that is the reference
the program actually uses).  A target that a refactor has moved or
deleted is recorded as absent and its layer metrics read zero; tracing
never makes a run fail.

Spans are kept in memory as (id, parent, name, start, end, note) and
reduced to per-layer metrics by ``layer_metrics`` at the end of a
traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import types
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Hook:
    module: str  # module whose namespace holds the reference the caller uses
    attr: str  # attribute path inside it: "f" or "Class.method"
    span: str  # "<layer>.<operation>"
    note: object = None  # (args, kwargs, result) -> value kept on the span


def _nbytes(args, kwargs, result):
    return int(result.features.nbytes)


def _vocab_terms(args, kwargs, result):
    return len(result)


def _fit_outcome(args, kwargs, result):
    trace = result[1]
    return len(trace.entries) - 1, trace.status


def _doc_id(args, kwargs, result):
    doc = args[0] if args else kwargs["transcript"]
    return doc.doc_id


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


HOOKS = (
    Hook("opinionchain.cli", "load_corpus", "corpus.load"),
    Hook("opinionchain.cli", "cross_validate", "evaluation.cv"),
    Hook("opinionchain.cli", "save_archive", "archive.save", _file_size),
    Hook("opinionchain.cli", "load_archive", "archive.load"),
    Hook("opinionchain.cli", "fit_predictor", "training.fit"),
    Hook("opinionchain.evaluation", "fit_predictor", "training.fit"),
    Hook("opinionchain.training", "train", "training.train", _fit_outcome),
    Hook("opinionchain.training", "objective_and_gradient", "training.objgrad"),
    Hook("opinionchain.training", "minimize", "optimize.minimize"),
    Hook("opinionchain.training", "posterior", "model.posterior"),
    Hook("opinionchain.training", "predict", "model.predict"),
    Hook("opinionchain.model", "posterior", "model.posterior"),
    Hook("opinionchain.cli", "train_logreg", "baseline.fit"),
    Hook("opinionchain.evaluation", "train_logreg", "baseline.fit"),
    Hook("opinionchain.features.pipeline", "FeaturePipeline.fit", "pipeline.fit"),
    Hook(
        "opinionchain.features.pipeline",
        "FittedFeaturePipeline.transform",
        "pipeline.transform",
        _nbytes,
    ),
    Hook("opinionchain.features.resources", "load_stopwords", "resources.load"),
    Hook("opinionchain.features.resources", "load_marker_map", "resources.load"),
    Hook("opinionchain.features.resources", "load_modifier_lists", "resources.load"),
    Hook("opinionchain.features.resources", "load_pattern_resources", "resources.load"),
    Hook("opinionchain.features.resources", "load_tagger", "resources.load"),
    Hook(
        "opinionchain.features.pipeline", "segment_into_ipus", "segmentation.segment", _doc_id
    ),
    Hook(
        "opinionchain.features.segmentation",
        "segment_into_ipus",
        "segmentation.segment",
        _doc_id,
    ),
    Hook("opinionchain.features.pipeline", "tokenize_many", "tokenizer.tokenize"),
    Hook("opinionchain.features.pipeline", "fit_bong", "ngrams.fit", _vocab_terms),
    Hook("opinionchain.features.pipeline", "vectorize_bong", "ngrams.vectorize"),
    Hook("opinionchain.features.pipeline", "embed_tokens", "embeddings.embed"),
    Hook("opinionchain.features.pipeline", "load_embeddings", "embeddings.load"),
    Hook("opinionchain.features.pipeline", "pattern_features", "patterns.features"),
    Hook("opinionchain.features.patterns", "RuleTagger.tag", "patterns.tag"),
    Hook(
        "opinionchain.features.pipeline",
        "paralinguistic_features",
        "paralinguistic.features",
    ),
    Hook("opinionchain.features.pipeline", "fit_standardizer", "standardize.fit"),
    Hook("opinionchain.features.standardize", "Standardizer.apply", "standardize.apply"),
)

# Self time is reported for every layer a hook or a CLI command names.
LAYERS = tuple(dict.fromkeys(["cli"] + [h.span.split(".")[0] for h in HOOKS]))

_NOTE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object, bool]] = []

    def call(self, name, fn, args=(), kwargs=None, note=None):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        span = Span(sid, parent, name, 0.0, 0.0)
        span.start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.spans.append(span)
        if note is not None:
            try:
                span.note = note(args, kwargs or {}, result)
            except _NOTE_ERRORS:
                span.note = None
        return result

    def _wrap(self, hook: Hook, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(hook.span, original, args, kwargs, hook.note)

        return traced

    def install(self, hooks=HOOKS):
        for hook in hooks:
            target = f"{hook.module}.{hook.attr}"
            try:
                owner = importlib.import_module(hook.module)
            except ImportError:
                self.absent.append(target)
                continue
            *path, attr = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = inspect.getattr_static(owner, attr, None) if owner else None
            if not isinstance(original, types.FunctionType):
                self.absent.append(target)
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(hook, original))
            self._undo.append((owner, attr, original, own))

    def uninstall(self):
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def tail(values):
    """(label, value) of the highest of p90/p99/p99.9 that has at least
    ten samples beyond it (nearest rank), or (None, 0.0) when no
    percentile qualifies."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            rank = max(1, math.ceil(pct / 100 * n))
            return f"p{pct:g}", ordered[rank - 1]
    return None, 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Reduce the spans of one traced pass to per-layer metrics.

    Returns (metrics, notes): metrics maps name -> number; notes maps a
    metric name to a human-readable sample description.
    """
    by_id = {s.sid: s for s in spans}
    child_time: dict[int, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def named(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def under(span, ancestor_name):
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == ancestor_name:
                return True
            parent = by_id[parent].parent
        return False

    def root(span):
        while span.parent is not None:
            span = by_id[span.parent]
        return span.sid

    def durations(*names, scale=1.0):
        return [s.duration * scale for s in named(*names)]

    def total(*names):
        return sum(durations(*names))

    m: dict[str, float] = {}
    notes: dict[str, str] = {}

    def per_call(metric, names, scale, with_tail=False):
        values = durations(*names, scale=scale)
        m[metric] = _median(values)
        notes[metric] = f"median of {len(values)}"
        if with_tail:
            label, value = tail(values)
            m[metric + "_tail"] = value
            notes[metric + "_tail"] = (
                f"{label} of {len(values)}" if label else f"n/a, {len(values)} samples"
            )
        return values

    per_call("corpus.load_s", ("corpus.load",), 1.0)
    m["evaluation.cv_s"] = total("evaluation.cv")
    pipeline_fits_in_cv = sum(1 for s in named("pipeline.fit") if under(s, "evaluation.cv"))
    fits_in_cv = sum(
        1 for s in named("training.fit", "baseline.fit") if under(s, "evaluation.cv")
    )
    m["evaluation.inner_fits"] = fits_in_cv - pipeline_fits_in_cv

    per_call("pipeline.fit_s", ("pipeline.fit",), 1.0)
    transforms = per_call("pipeline.transform_ms", ("pipeline.transform",), 1e3, True)
    m["pipeline.transforms"] = len(transforms)
    m["pipeline.feature_mb"] = (
        sum(s.note or 0 for s in named("pipeline.transform")) / 1e6
    )
    m["resources.load_s"] = sum(
        s.duration
        for s in named("resources.load")
        if s.parent is None or by_id[s.parent].name != "resources.load"
    )

    m["segmentation.s"] = total("segmentation.segment")
    # Segmentations per document within one CLI command (a root span),
    # the most of any command in the pass: each train segments every
    # document several times today.
    per_command: dict[int, list] = {}
    for s in named("segmentation.segment"):
        if s.note is not None:
            per_command.setdefault(root(s), []).append(s.note)
    m["segmentation.calls_per_doc"] = max(
        (len(ids) / len(set(ids)) for ids in per_command.values()), default=0.0
    )
    m["tokenizer.s"] = total("tokenizer.tokenize")
    per_call("ngrams.fit_s", ("ngrams.fit",), 1.0)
    m["ngrams.vectorize_s"] = total("ngrams.vectorize")
    m["ngrams.vocab_terms"] = _median([s.note for s in named("ngrams.fit") if s.note])
    m["embeddings.s"] = total("embeddings.embed", "embeddings.load")
    m["patterns.s"] = total("patterns.tag", "patterns.features")
    m["paralinguistic.s"] = total("paralinguistic.features")
    per_call("standardize.fit_s", ("standardize.fit",), 1.0)
    m["standardize.apply_s"] = total("standardize.apply")

    fits = per_call("training.fit_s", ("training.fit",), 1.0)
    m["training.fits"] = len(fits)
    calls = per_call("training.objgrad_ms", ("training.objgrad",), 1e3, True)
    m["training.objgrad_calls"] = len(calls)

    trains = named("training.train")
    outcomes = [s.note for s in trains if s.note is not None]
    iterations = sum(it for it, _ in outcomes)
    evaluations = sum(1 for s in named("training.objgrad") if under(s, "training.train"))
    m["optimize.iterations"] = iterations
    m["optimize.evaluations"] = evaluations
    m["optimize.accept_ratio"] = iterations / evaluations if evaluations else 0.0
    m["optimize.converged_frac"] = (
        sum(1 for _, status in outcomes if status == "converged") / len(outcomes)
        if outcomes
        else 0.0
    )

    posts = per_call("model.posterior_ms", ("model.posterior",), 1e3, True)
    m["model.posterior_calls"] = len(posts)

    baseline = per_call("baseline.fit_ms", ("baseline.fit",), 1e3)
    m["baseline.fits"] = len(baseline)

    per_call("archive.save_s", ("archive.save",), 1.0)
    per_call("archive.load_s", ("archive.load",), 1.0)
    m["archive.bytes"] = _median([s.note for s in named("archive.save") if s.note])

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s.duration - child_time.get(s.sid, 0.0)
            for s in spans
            if s.name.split(".")[0] == layer
        )
    m["trace.spans"] = len(spans)
    return m, notes
