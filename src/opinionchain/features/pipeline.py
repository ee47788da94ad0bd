"""End-to-end featurization: transcripts -> per-IPU observation sequences.

``FeaturePipeline.fit_transform`` learns everything that depends on data
(n-gram vocabulary with IDF, standardizer statistics) from the given
training documents only, and returns their sequences along with the
fitted pipeline; it segments, tokenizes and featurizes each document
once.  The returned ``FittedFeaturePipeline`` is immutable and its
``transform`` is a pure function, so fitting on a training fold and
transforming held-out documents cannot leak fold statistics.

Documents are featurized a chunk at a time (``training.SCORING_CHUNK``
of them, a ``SegmentedChunk``), each chunk's tokens as ids into a type
table of the chunk's own (``token_chunk``), which works out once per
distinct token what the bong and pattern blocks read of it; nothing is
kept between chunks.  The pattern and paralinguistic counts of all the
chunk's IPUs are then one ``np.bincount`` each, and the bong entries one
``np.unique`` (``vectorize_bong``); only the embedding and lexicon rows
are built one IPU at a time.  A chunk's rows are standardized at once
into one ``model.SequenceBlock``, which is checked once; ``transform``
splits it into the documents' sequences.  A document's rows do not
depend on the chunk it is in.  ``fit_bong`` reads a ``TokenChunk`` too:
the training documents are numbered as one chunk, one unit per document.

``FittedFeaturePipeline.blocks`` is ``predict``'s path: it takes a
corpus as columns (``corpus.CorpusColumns``) and carries each chunk of
them to its block with no object made per document.  A chunk's columns
are cut at the indices ``segment_into_ipus`` finds, and tokenization
runs once per distinct token string of the chunk
(``_segment_chunk``).  Transcripts are segmented the same way, as the
columns of one chunk.  Segmentation and tokenization depend only on the
configuration, never on fitted state: ``FeaturePipeline.segment`` does
them once, and both ``fit_transform`` and ``transform`` accept its
``SegmentedDocument`` in place of a transcript.  Of the blocks, only
bong is fitted (its vocabulary), so ``FeaturePipeline.prepare`` also
builds the rows of all the others once; cross-validation prepares each
document once for all of its folds and computes only the bong rows and
the standardizer per fold.

Which static files the pipeline reads is decided in one place,
``resource_paths``: ``_load_resources`` reads every file from it, and
records each file's sha256, which an archive of the fitted pipeline
stores (``FittedFeaturePipeline.resource_digests``); loading an archive
hashes each file once, to check it, and records those digests.

Feature blocks are concatenated in a fixed canonical order (bong |
embedding | lexicon | pattern | paralinguistic) and the layout is
recorded as a ``FeatureSchema`` for downstream introspection.  The bong
block is kept sparse from ``vectorize_bong`` on (see
``FittedFeaturePipeline``): no rows-by-vocabulary array is ever built.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..corpus import CorpusColumns, Transcript
from ..errors import ConfigurationError, InvalidInputError, check_field_types
from ..model import ObservationSequence, SequenceBlock, SparseRows
from ..training import chunked
from . import resources as res
from .embeddings import EmbeddingTable, embed_units, load_embeddings
from .lexicons import Lexicon, lexicon_features, load_lexicon
from .ngrams import NGramVocabulary, fit_bong, vectorize_bong
from .paralinguistic import FEATURE_NAMES as PARA_NAMES
from .paralinguistic import paralinguistic_features
from .patterns import (
    DEFAULT_TAG_SET,
    PatternResources,
    RuleTagger,
    pattern_feature_names,
    pattern_features,
    token_pattern,
)
from .segmentation import segment_into_ipus
from .standardize import Standardizer, fit_standardizer
from .stemmer import stem
from .tokenizer import tokenize_many

CANONICAL_BLOCKS = ("bong", "embedding", "lexicon", "pattern", "paralinguistic")
DEFAULT_BLOCKS = ("bong", "pattern", "paralinguistic")


@dataclass(frozen=True)
class PipelineConfig:
    """What to extract and from which resources.

    Blocks needing external files (``embedding``, ``lexicon``) must be
    pointed at their paths; the remaining resources fall back to the
    files shipped with the package when their path is None.  The one
    normalizer is ``"identity"``: tokens are used as the tokenizer
    gives them.
    """

    threshold_ms: int = 300
    blocks: tuple[str, ...] = DEFAULT_BLOCKS
    normalizer: str = "identity"
    bong_max_order: int = 3
    bong_min_df: int = 1
    embedding_path: str | None = None
    embedding_lowercase: bool = True
    lexicon_paths: tuple[str, ...] = ()
    tag_set: tuple[str, ...] = DEFAULT_TAG_SET
    standardize: bool = True
    stopwords_path: str | None = None
    markers_path: str | None = None
    negations_path: str | None = None
    amplifiers_path: str | None = None
    downtoners_path: str | None = None
    disfluencies_path: str | None = None
    tagger_lexicon_path: str | None = None

    def __post_init__(self):
        check_field_types(self, ConfigurationError)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "lexicon_paths", tuple(self.lexicon_paths))
        object.__setattr__(self, "tag_set", tuple(self.tag_set))
        unknown = sorted(set(self.blocks) - set(CANONICAL_BLOCKS))
        if unknown:
            raise ConfigurationError(
                f"unknown feature blocks {unknown}; known: {list(CANONICAL_BLOCKS)}"
            )
        if not self.blocks:
            raise ConfigurationError("at least one feature block must be enabled")
        if len(set(self.blocks)) != len(self.blocks):
            raise ConfigurationError(f"duplicate feature blocks: {self.blocks}")
        ordered = tuple(b for b in CANONICAL_BLOCKS if b in self.blocks)
        object.__setattr__(self, "blocks", ordered)
        if self.threshold_ms <= 0:
            raise ConfigurationError("threshold_ms must be positive")
        if self.normalizer != "identity":
            raise ConfigurationError(
                f"unknown normalizer {self.normalizer!r}; available: ['identity']"
            )
        if "embedding" in self.blocks and not self.embedding_path:
            raise ConfigurationError("embedding block enabled but embedding_path missing")
        if "lexicon" in self.blocks and not self.lexicon_paths:
            raise ConfigurationError("lexicon block enabled but lexicon_paths empty")


@dataclass(frozen=True)
class FeatureSchema:
    """Block layout of a feature vector: (name, offset, width) triples
    plus one human-readable name per dimension."""

    blocks: tuple[tuple[str, int, int], ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        expected = 0
        for name, offset, width in self.blocks:
            if offset != expected or width < 0:
                raise ConfigurationError(f"schema block {name!r} is not contiguous")
            expected = offset + width
        if len(self.feature_names) != expected:
            raise ConfigurationError(
                f"{len(self.feature_names)} feature names for dimension {expected}"
            )

    @property
    def dim(self) -> int:
        if not self.blocks:
            return 0
        name, offset, width = self.blocks[-1]
        return offset + width

    def windowed(self, window: int) -> "FeatureSchema":
        """The layout of the (2w+1) D columns a model reads under context
        window w, one copy per neighbour offset -w..w: each name gets its
        offset ("bong:movi@-1"), and each block too but the centre's."""
        blocks, names = [], []
        for k, offset in enumerate(range(-window, window + 1)):
            at = f"@{offset:+d}" if offset else "@0"
            blocks += [(b + at if offset else b, o + k * self.dim, w) for b, o, w in self.blocks]
            names += [name + at for name in self.feature_names]
        return FeatureSchema(tuple(blocks), tuple(names)) if window else self

    def block_slice(self, name: str) -> slice:
        for block, offset, width in self.blocks:
            if block == name:
                return slice(offset, offset + width)
        raise KeyError(f"no block named {name!r}")

    def to_jsonable(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "FeatureSchema":
        return cls(
            blocks=tuple((n, int(o), int(w)) for n, o, w in data["blocks"]),
            feature_names=tuple(data["feature_names"]),
        )


@dataclass(frozen=True, eq=False)
class TokenChunk:
    """The tokens of a chunk of U units (IPUs), T tokens in all, each
    given by what the feature blocks read of its type (``token_chunk``).
    A unit's tokens are contiguous and the units are in order."""

    sizes: np.ndarray  # (U,) tokens per unit
    unit: np.ndarray  # (T,) unit of each token
    tags: np.ndarray | None  # (T,) column of each token's tag in the tag set, or -1
    flags: np.ndarray | None  # (T,) pattern flag bits of each token
    stems: np.ndarray | None  # (T,) stem id of each token
    stem_names: list[str]  # the stem of each stem id


def token_chunk(
    units,
    tagger: RuleTagger | None = None,
    pattern: PatternResources | None = None,
    stems: bool = False,
) -> TokenChunk:
    """``units`` (one token list per unit) as a ``TokenChunk``.  Its
    distinct tokens (types) are numbered in a table of this call's own,
    and what the feature blocks read of a type is worked out once: its
    tag column and pattern flags (``token_pattern``) when ``pattern`` is
    given, and its stem when ``stems`` is set.  Everything these blocks
    read of a token depends on the token alone, and a chunk has far
    fewer types than tokens."""
    flat = list(itertools.chain.from_iterable(units))
    types = list(dict.fromkeys(flat))  # in order of first occurrence
    ids = {token: i for i, token in enumerate(types)}
    numbered = np.fromiter(map(ids.__getitem__, flat), dtype=np.intp, count=len(flat))
    sizes = np.fromiter(map(len, units), dtype=np.intp, count=len(units))
    tags = flags = stem_ids = None
    if pattern is not None:
        columns = [token_pattern(t, tag, pattern) for t, tag in zip(types, tagger.tag(types))]
        tags, flags = np.array(columns, dtype=np.intp).reshape(-1, 2).T[:, numbered]
    stem_names: dict[str, int] = {}
    if stems:
        stem_ids = np.array(
            [stem_names.setdefault(stem(t), len(stem_names)) for t in types], dtype=np.intp
        )[numbered]
    return TokenChunk(
        sizes=sizes,
        unit=np.repeat(np.arange(len(sizes)), sizes),
        tags=tags,
        flags=flags,
        stems=stem_ids,
        stem_names=list(stem_names),
    )


def resource_paths(config: PipelineConfig) -> dict[str, Path]:
    """Every static file the pipeline reads under ``config``, keyed by
    role: a configured path, or else the file shipped with the package."""

    def resolved(value, name):
        return Path(value) if value else res.default_resource_path(name)

    paths: dict[str, Path] = {}
    blocks = config.blocks
    if "embedding" in blocks:
        paths["embedding"] = Path(config.embedding_path)
        paths["stopwords"] = resolved(config.stopwords_path, "stopwords")
    for i, lex in enumerate(config.lexicon_paths if "lexicon" in blocks else ()):
        paths[f"lexicon:{i}"] = Path(lex)
    if "lexicon" in blocks or "pattern" in blocks:
        paths["negations"] = resolved(config.negations_path, "negations")
        paths["amplifiers"] = resolved(config.amplifiers_path, "amplifiers")
        paths["downtoners"] = resolved(config.downtoners_path, "downtoners")
    if "pattern" in blocks:
        paths["disfluencies"] = resolved(config.disfluencies_path, "disfluencies")
        paths["tagger_lexicon"] = resolved(config.tagger_lexicon_path, "tagger_lexicon")
    if "paralinguistic" in blocks:
        paths["markers"] = resolved(config.markers_path, "markers")
    return paths


def sha256_file(path) -> str:
    """The hex sha256 of the file at ``path``; OSError passes through."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class _Resources:
    stopwords: frozenset = frozenset()
    marker_map: dict = field(default_factory=dict)
    modifiers: object = None
    pattern: object = None
    tagger: object = None
    embedding: EmbeddingTable | None = None
    lexicons: tuple[Lexicon, ...] = ()
    digests: dict = field(default_factory=dict)  # role -> sha256 of the file read


def _load_resources(config: PipelineConfig, digests: dict[str, str] | None = None) -> _Resources:
    """The resources of ``config``'s blocks, each read from its file in
    ``resource_paths``, with the digest of every file: ``digests`` if
    the caller has hashed them already (an archive checks its stored
    ones before any file is parsed), else each file's as hashed here
    once it is read."""
    paths = resource_paths(config)
    kwargs = {}
    if "embedding" in config.blocks:
        kwargs["embedding"] = load_embeddings(
            paths["embedding"], lowercase=config.embedding_lowercase
        )
        kwargs["stopwords"] = res.load_stopwords(paths["stopwords"])
    if "lexicon" in config.blocks:
        kwargs["lexicons"] = tuple(
            load_lexicon(paths[f"lexicon:{i}"]) for i in range(len(config.lexicon_paths))
        )
        kwargs["modifiers"] = res.load_modifier_lists(
            paths["negations"], paths["amplifiers"], paths["downtoners"]
        )
    if "pattern" in config.blocks:
        kwargs["pattern"] = res.load_pattern_resources(
            tag_set=config.tag_set,
            negations_path=paths["negations"],
            amplifiers_path=paths["amplifiers"],
            downtoners_path=paths["downtoners"],
            disfluencies_path=paths["disfluencies"],
        )
        kwargs["tagger"] = res.load_tagger(paths["tagger_lexicon"], tag_set=config.tag_set)
    if "paralinguistic" in config.blocks:
        kwargs["marker_map"] = res.load_marker_map(paths["markers"])
    if digests is None:
        digests = {role: sha256_file(path) for role, path in paths.items()}
    return _Resources(**kwargs, digests=dict(digests))


@dataclass(frozen=True, eq=False)
class SegmentedDocument:
    """A transcript cut into IPUs: each IPU's tokens and its
    paralinguistic markers, and the threshold that produced them.

    ``FeaturePipeline.prepare`` also attaches ``fixed_rows``: the (L, D')
    rows of every enabled block but bong, none of which is fitted to
    data, built under ``fixed_config``."""

    doc_id: str
    tokens: tuple[list[str], ...]  # one token list per IPU
    para_events: tuple[tuple[str, ...], ...]  # one marker tuple per IPU
    threshold_ms: int
    fixed_rows: np.ndarray | None = None
    fixed_config: PipelineConfig | None = None


@dataclass(frozen=True, eq=False)
class SegmentedChunk:
    """A chunk of N documents cut into U IPUs, the unit the feature blocks
    and the standardizer work on: IPU u's words are ``units[u]`` and its
    markers ``events[u]``, and document i's IPUs are
    ``bounds[i]:bounds[i + 1]``.  ``fixed_rows``, if given, holds the
    (U, D') rows of every enabled block but bong, as
    ``FeaturePipeline.prepare`` built them."""

    doc_ids: tuple[str, ...]
    units: list[list[str]]
    events: list[tuple[str, ...]]
    bounds: list[int]
    fixed_rows: np.ndarray | None = None

    @classmethod
    def of(cls, segs: list[SegmentedDocument]) -> "SegmentedChunk":
        """The documents ``segs`` as one chunk, with their fixed rows if
        every one of them is prepared."""
        prepared = all(seg.fixed_rows is not None for seg in segs)
        return cls(
            tuple(seg.doc_id for seg in segs),
            [tokens for seg in segs for tokens in seg.tokens],
            [events for seg in segs for events in seg.para_events],
            [0, *itertools.accumulate(len(seg.tokens) for seg in segs)],
            np.concatenate([seg.fixed_rows for seg in segs]) if prepared else None,
        )

    def documents(self, threshold_ms: int) -> list[SegmentedDocument]:
        """One ``SegmentedDocument`` per document of the chunk."""
        bounds = self.bounds
        return [
            SegmentedDocument(
                doc_id, tuple(self.units[lo:hi]), tuple(self.events[lo:hi]), threshold_ms
            )
            for doc_id, lo, hi in zip(self.doc_ids, bounds, bounds[1:])
        ]


def _segment_chunk(chunk: CorpusColumns, config: PipelineConfig) -> SegmentedChunk:
    """The documents of ``chunk`` cut into IPUs (``segment_into_ipus``)
    and tokenized.  Each distinct token string of the chunk is tokenized
    once, and the words of all its tokens are laid end to end in one
    list, so an IPU's words are one slice of it."""
    cuts = segment_into_ipus(chunk, config.threshold_ms)
    distinct = list(dict.fromkeys(chunk.texts))
    words = dict(zip(distinct, tokenize_many(distinct)))
    per_token = list(map(words.__getitem__, chunk.texts))
    flat = list(itertools.chain.from_iterable(per_token))
    word_at = list(itertools.accumulate(map(len, per_token), initial=0))  # token i's first word
    at = [word_at[bound] for bound in cuts.bounds.tolist()]
    units = [flat[lo:hi] for lo, hi in zip(at, at[1:])]
    return SegmentedChunk(chunk.doc_ids, units, cuts.events, cuts.docs.tolist())


def _segmented(docs, config: PipelineConfig) -> list[SegmentedDocument]:
    """``docs`` segmented under ``config``.  Their transcripts are
    segmented here, as one chunk (``_segment_chunk``).  A
    ``SegmentedDocument`` must come from the same threshold, and its
    fixed rows, if any, from the same configuration."""
    transcripts = [doc for doc in docs if not isinstance(doc, SegmentedDocument)]
    chunk = _segment_chunk(CorpusColumns.from_transcripts(transcripts), config)
    cut = iter(chunk.documents(config.threshold_ms))
    segmented = []
    for doc in docs:
        if isinstance(doc, SegmentedDocument):
            _check_segmented(doc, config)
            segmented.append(doc)
        else:
            segmented.append(next(cut))
    return segmented


def _check_segmented(doc: SegmentedDocument, config: PipelineConfig):
    if doc.threshold_ms != config.threshold_ms:
        raise InvalidInputError(
            f"{doc.doc_id}: segmented at {doc.threshold_ms} ms, but the pipeline "
            f"uses {config.threshold_ms} ms"
        )
    if doc.fixed_rows is not None and doc.fixed_config != config:
        raise InvalidInputError(
            f"{doc.doc_id}: prepared under another pipeline configuration"
        )


def _require_ipus(chunk: SegmentedChunk):
    """Raise InvalidInputError naming the chunk's first document with no IPU."""
    bounds = chunk.bounds
    for doc_id, lo, hi in zip(chunk.doc_ids, bounds, bounds[1:]):
        if lo == hi:
            raise InvalidInputError(
                f"{doc_id}: no IPUs (tokenless document cannot be featurized)"
            )


def _token_chunk(
    chunk: SegmentedChunk, loaded: _Resources, pattern: bool, stems: bool
) -> TokenChunk:
    """The chunk's IPUs as a ``TokenChunk``, with the pattern block's tag
    columns and flags if ``pattern`` and stem ids if ``stems``."""
    return token_chunk(chunk.units, loaded.tagger, loaded.pattern if pattern else None, stems)


def _fixed_rows(
    chunk: SegmentedChunk,
    config: PipelineConfig,
    loaded: _Resources,
    tokens: TokenChunk | None = None,
) -> np.ndarray:
    """(U, D') rows of every enabled block but bong for the U IPUs of a
    chunk of documents, in canonical order; none of them depends on
    fitted state.  The lexicon rows are built per IPU, the embedding,
    pattern and paralinguistic ones for the whole chunk (the pattern
    rows from ``tokens``, the chunk's ``TokenChunk``, if given)."""
    blocks = []
    if "embedding" in config.blocks:
        blocks.append(embed_units(chunk.units, loaded.embedding, loaded.stopwords))
    if "lexicon" in config.blocks:
        blocks.append(
            np.array(
                [lexicon_features(unit, loaded.lexicons, loaded.modifiers) for unit in chunk.units]
            )
        )
    if "pattern" in config.blocks:
        if tokens is None:
            tokens = _token_chunk(chunk, loaded, pattern=True, stems=False)
        blocks.append(pattern_features(tokens, loaded.pattern))
    if "paralinguistic" in config.blocks:
        blocks.append(paralinguistic_features(chunk.events, loaded.marker_map))
    if not blocks:
        return np.empty((len(chunk.units), 0))
    return np.concatenate(blocks, axis=1)


class FeaturePipeline:
    """Unfitted pipeline; ``fit_transform`` returns the immutable fitted
    form together with the training documents' sequences.  Resources
    (embedding table, lexicons, tagger, ...) are loaded once per
    instance, for all of its fits."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self._loaded: _Resources | None = None

    def _resources(self) -> _Resources:
        if self._loaded is None:
            self._loaded = _load_resources(self.config)
        return self._loaded

    def segment(self, docs: list[Transcript]) -> list[SegmentedDocument]:
        """Segment and tokenize ``docs`` once, for any number of fits and
        transforms under this configuration; each distinct token string
        among them is tokenized once."""
        return _segmented(docs, self.config)

    def prepare(self, docs) -> list[SegmentedDocument]:
        """``docs`` (transcripts or segmented documents) segmented, with
        the rows of their fold-independent blocks built once, for any
        number of fits and transforms under this configuration; only the
        bong rows and the standardizer are then computed per fit."""
        prepared = []
        for part in chunked(docs):
            segs = _segmented(part, self.config)
            chunk = SegmentedChunk.of(segs)
            _require_ipus(chunk)
            rows = _fixed_rows(chunk, self.config, self._resources())
            rows.flags.writeable = False
            bounds = chunk.bounds
            prepared.extend(
                replace(seg, fixed_rows=rows[lo:hi], fixed_config=self.config)
                for seg, lo, hi in zip(segs, bounds, bounds[1:])
            )
        return prepared

    def fit_transform(
        self, train_docs
    ) -> tuple["FittedFeaturePipeline", list[ObservationSequence]]:
        """Fit on ``train_docs`` (transcripts, segmented or prepared
        documents) and return the fitted pipeline with their sequences.

        Each document's raw rows are built once, a chunk of documents at
        a time, the bong block's as its nonzero entries: the standardizer
        is fit on them and then applied to them, which gives the same
        sequences, bit for bit, as the fitted pipeline's ``transform``.
        """
        if not train_docs:
            raise InvalidInputError("cannot fit a pipeline on zero documents")
        config = self.config
        loaded = self._resources()
        segmented = _segmented(train_docs, config)

        vocab = None
        if "bong" in config.blocks:
            doc_tokens = token_chunk(
                [[tok for toks in seg.tokens for tok in toks] for seg in segmented], stems=True
            )
            vocab = fit_bong(
                doc_tokens, max_order=config.bong_max_order, min_df=config.bong_min_df
            )

        fitted = FittedFeaturePipeline(
            config=config,
            schema=_build_schema(config, loaded, vocab),
            vocabulary=vocab,
            standardizer=None,
            _resources=loaded,
        )
        chunks = [SegmentedChunk.of(part) for part in chunked(segmented)]
        for chunk in chunks:
            _require_ipus(chunk)
        raw = [fitted._raw_rows(chunk) for chunk in chunks]
        if config.standardize:
            sparse_columns = None
            if vocab is not None:
                indices = np.concatenate([bong[1] for _, bong in raw])
                values = np.concatenate([bong[2] for _, bong in raw])
                sparse_columns = (indices, values, len(vocab))
            fixed = np.concatenate([rows for rows, _ in raw])
            fitted = replace(fitted, standardizer=fit_standardizer(fixed, sparse_columns))
        sequences = [
            sequence
            for chunk, (fixed, bong) in zip(chunks, raw)
            for sequence in fitted._block(chunk, fixed, bong).sequences()
        ]
        return fitted, sequences


def _build_schema(config, loaded: _Resources, vocab) -> FeatureSchema:
    blocks = []
    names: list[str] = []
    offset = 0
    for block in config.blocks:
        if block == "bong":
            local = [f"bong:{t}" for t in vocab.terms]
        elif block == "embedding":
            table = loaded.embedding
            local = [f"emb:dim{i}" for i in range(table.dim)] + ["emb:coverage"]
        elif block == "lexicon":
            local = [
                f"lex:{channel}"
                for lexicon in loaded.lexicons
                for channel in lexicon.output_channels
            ]
        elif block == "pattern":
            local = [f"pat:{n}" for n in pattern_feature_names(config.tag_set)]
        else:
            local = [f"para:{n.removeprefix('para_')}" for n in PARA_NAMES]
        blocks.append((block, offset, len(local)))
        names.extend(local)
        offset += len(local)
    return FeatureSchema(blocks=tuple(blocks), feature_names=tuple(names))


@dataclass(frozen=True)
class FittedFeaturePipeline:
    """A fitted pipeline; ``transform`` turns documents into their
    observation sequences.

    The bong block, first in canonical order, is never built densely: a
    sequence keeps it as ``SparseRows``, one (index, value) entry per
    in-vocabulary n-gram of an IPU, and its dense ``features`` are the
    other blocks' columns.  Standardizing divides the bong entries by
    the standardizer's std (1 for a zero-variance column, as
    ``Standardizer.apply`` does) and keeps the centering as one offset
    row, -mean/std, shared by every sequence of the pipeline; the other
    blocks are standardized as dense rows.  So a sequence's vectors are
    the standardized rows, and the model's parameters stay in
    standardized space.
    """

    config: PipelineConfig
    schema: FeatureSchema
    vocabulary: NGramVocabulary | None
    standardizer: Standardizer | None
    _resources: _Resources
    _fixed_standardizer: Standardizer | None = field(init=False, repr=False, compare=False)
    _bong_divisor: np.ndarray | None = field(init=False, repr=False, compare=False)
    _bong_offset: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        std, vocab = self.standardizer, self.vocabulary
        names = tuple(name for name, _, _ in self.schema.blocks)
        if names != self.config.blocks or (vocab is not None) != ("bong" in names):
            raise InvalidInputError(
                f"the schema's blocks {list(names)} and the vocabulary must match "
                f"the configured blocks {list(self.config.blocks)}"
            )
        fixed = divisor = offset = None
        if std is not None and vocab is None:
            fixed = std
        elif std is not None:
            width = len(vocab)
            fixed = Standardizer(mean=std.mean[width:], std=std.std[width:])
            divisor = std.divisor[:width]
            with np.errstate(over="ignore"):
                offset = -std.mean[:width] / divisor
            # checked here once; every sequence's SparseRows shares it
            if not np.isfinite(offset).all():
                raise InvalidInputError(
                    "the standardizer's bong offset row, -mean/std, is not finite"
                )
            offset.flags.writeable = False
        object.__setattr__(self, "_fixed_standardizer", fixed)
        object.__setattr__(self, "_bong_divisor", divisor)
        object.__setattr__(self, "_bong_offset", offset)

    def _raw_rows(self, chunk: SegmentedChunk):
        """A chunk's rows before standardizing: the (U, D') rows of every
        block but bong over its U IPUs, and the bong rows as (rows,
        indices, values) of their nonzero entries, None without bong."""
        prepared = chunk.fixed_rows is not None
        tokens = None
        if self.vocabulary is not None:
            tokens = _token_chunk(chunk, self._resources, pattern=not prepared, stems=True)
        fixed = chunk.fixed_rows
        if not prepared:  # a chunk with an unprepared document is built whole
            fixed = _fixed_rows(chunk, self.config, self._resources, tokens)
        bong = None if tokens is None else vectorize_bong(tokens, self.vocabulary)
        return fixed, bong

    def _block(self, chunk: SegmentedChunk, fixed: np.ndarray, bong) -> SequenceBlock:
        """The chunk's sequences as one block, from its raw rows
        (``_raw_rows``): the dense rows standardized at once and the bong
        values divided at once.  The block is checked once, as a whole
        (``SparseRows``, ``SequenceBlock``)."""
        if self._fixed_standardizer is not None:
            fixed = self._fixed_standardizer.apply(fixed)
        sparse = None
        if bong is not None:
            rows, indices, values = bong
            if self._bong_divisor is not None:
                # a column outside the vocabulary is clipped here and
                # rejected by the ``SparseRows`` check
                values = values / self._bong_divisor.take(indices, mode="clip")
            width = len(self.vocabulary)
            sparse = SparseRows(rows, indices, values, len(fixed), width, self._bong_offset)
        return SequenceBlock(chunk.doc_ids, fixed, sparse, chunk.bounds)

    @property
    def resource_digests(self) -> dict[str, str]:
        """The sha256 of each static file the pipeline read, keyed by its
        role in ``resource_paths``: the files as they were when read,
        whatever has happened to them since."""
        return dict(self._resources.digests)

    @property
    def embedding_table(self) -> EmbeddingTable | None:
        """The embedding table the embedding block reads, None without
        that block."""
        return self._resources.embedding

    def transform(self, docs) -> list[ObservationSequence]:
        """The observation sequences of ``docs`` (transcripts or
        ``SegmentedDocument``s), featurized a chunk of documents at a
        time; a document's sequence is the same, bit for bit, whatever
        chunk it is in."""
        sequences = []
        for part in chunked(docs):
            chunk = SegmentedChunk.of(_segmented(part, self.config))
            _require_ipus(chunk)
            sequences += self._block(chunk, *self._raw_rows(chunk)).sequences()
        return sequences

    def blocks(self, corpus: CorpusColumns) -> Iterator[SequenceBlock]:
        """The sequences of the documents of ``corpus``, one block per
        chunk of ``training.SCORING_CHUNK`` documents, in order.  A chunk
        goes from its columns to its block as one set of columns:
        segmented and tokenized (``_segment_chunk``), featurized and
        standardized, with no object made per document; each document's
        rows are bitwise those ``transform`` gives it."""
        for ids in chunked(range(len(corpus))):
            chunk = _segment_chunk(corpus.select(ids[0], ids[-1] + 1), self.config)
            _require_ipus(chunk)
            yield self._block(chunk, *self._raw_rows(chunk))

    def state_checksum(self) -> str:
        """Digest of everything learned from data; used to prove that
        held-out documents do not influence the fit."""
        payload: dict = {"config_blocks": list(self.config.blocks)}
        if self.vocabulary is not None:
            payload["vocab"] = {
                "terms": list(self.vocabulary.terms),
                "doc_freq": self.vocabulary.doc_freq.tolist(),
                "num_docs": self.vocabulary.num_docs,
            }
        if self.standardizer is not None:
            payload["standardizer"] = {
                "mean": self.standardizer.mean.tolist(),
                "std": self.standardizer.std.tolist(),
            }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
