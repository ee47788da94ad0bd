"""End-to-end featurization: corpus columns -> blocks of per-IPU sequences.

The unit from here on is a chunk of documents, never one document.
``FeaturePipeline.segment`` cuts a corpus, read as columns
(``corpus.CorpusColumns``), into IPUs and tokenizes it, as one
``SegmentedChunk``; ``FeaturePipeline.fit_transform`` learns everything
that depends on data (n-gram vocabulary with IDF, standardizer
statistics) from such a chunk of training documents only, and returns
the fitted pipeline with their sequences as one ``model.SequenceBlock``.
The returned ``FittedFeaturePipeline`` is immutable and its ``block``
is a pure function of a chunk, so fitting on a training fold and
featurizing held-out documents cannot leak fold statistics.

A chunk's tokens are numbered in a type table of the chunk's own
(``token_chunk``), which works out once per distinct token what the bong
and pattern blocks read of it; nothing is kept between chunks.  The
embedding, pattern and paralinguistic rows of all the chunk's IPUs are
then a few array operations each, and the bong entries one
``np.unique`` (``vectorize_bong``); only the lexicon rows are built one
IPU at a time.  A chunk's rows are standardized at once into one block,
which is checked once.  A document's rows do not depend on the chunk it
is in.  ``fit_bong`` reads a ``TokenChunk`` too: the training documents
are numbered as one chunk, one unit per document.

``FittedFeaturePipeline.blocks`` is ``predict``'s path: it carries each
``SCORING_CHUNK`` documents of a corpus's columns to their
block, with no object made per document.  A chunk's columns are cut at
the indices ``segment_into_ipus`` finds, and tokenization runs once per
distinct token string of the chunk (``_segment_chunk``).  Segmentation
and tokenization depend only on the configuration, never on fitted
state, and of the blocks only bong is fitted (its vocabulary), so
``FeaturePipeline.prepare`` builds the rows of all the others once for
a segmented chunk.  Cross-validation prepares the corpus once for all
of its folds, picks each fold's documents from the prepared chunk by
index (``SegmentedChunk.subchunk``), and computes only the bong rows
and the standardizer per fold.  A chunk records the threshold that cut
it, and a prepared one the configuration of its rows, so a chunk made
under another configuration is rejected.

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

from ..corpus import CorpusColumns
from ..errors import ConfigurationError, InvalidInputError, check_field_types
from ..model import SequenceBlock, SparseRows, run_indices
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
from .segmentation import DEFAULT_THRESHOLD_MS, segment_into_ipus
from .standardize import Standardizer, fit_standardizer
from .stemmer import stem
from .tokenizer import tokenize_many

CANONICAL_BLOCKS = ("bong", "embedding", "lexicon", "pattern", "paralinguistic")
DEFAULT_BLOCKS = ("bong", "pattern", "paralinguistic")
# documents featurized, and sequences scored, as one block at once:
# enough to amortize numpy's per-call overhead, few enough to hold their
# rows briefly
SCORING_CHUNK = 256


def chunked(items):
    """The items of ``items`` (any iterable, read once) in lists of up to
    ``SCORING_CHUNK``, so that a stream is never held at once."""
    items = iter(items)
    while chunk := list(itertools.islice(items, SCORING_CHUNK)):
        yield chunk


@dataclass(frozen=True)
class PipelineConfig:
    """What to extract and from which resources.

    Blocks needing external files (``embedding``, ``lexicon``) must be
    pointed at their paths; the remaining resources fall back to the
    files shipped with the package when their path is None.  The one
    normalizer is ``"identity"``: tokens are used as the tokenizer
    gives them.
    """

    threshold_ms: int = DEFAULT_THRESHOLD_MS
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
class SegmentedChunk:
    """A chunk of N documents cut into U IPUs at ``threshold_ms``, the
    unit the feature blocks and the standardizer work on: IPU u's words
    are ``units[u]`` and its markers ``events[u]``, and document i's IPUs
    are ``bounds[i]:bounds[i + 1]``.  ``fixed_rows``, if given, holds the
    (U, D') rows of every enabled block but bong, as
    ``FeaturePipeline.prepare`` built them under ``fixed_config``."""

    doc_ids: tuple[str, ...]
    units: list[list[str]]
    events: list[tuple[str, ...]]
    bounds: list[int]
    threshold_ms: int
    fixed_rows: np.ndarray | None = None
    fixed_config: PipelineConfig | None = None

    def subchunk(self, ids) -> "SegmentedChunk":
        """Documents ``ids`` (indices into the chunk, in the order given)
        as a chunk of their own, with their fixed rows if prepared."""
        bounds = self.bounds
        runs = [(bounds[i], bounds[i + 1]) for i in ids]
        fixed = self.fixed_rows
        if fixed is not None:
            lo, hi = np.array(runs, dtype=np.intp).reshape(-1, 2).T
            fixed = fixed[run_indices(lo, hi)]
            fixed.flags.writeable = False
        return replace(
            self,
            doc_ids=tuple(self.doc_ids[i] for i in ids),
            units=[unit for lo, hi in runs for unit in self.units[lo:hi]],
            events=[events for lo, hi in runs for events in self.events[lo:hi]],
            bounds=[0, *itertools.accumulate(hi - lo for lo, hi in runs)],
            fixed_rows=fixed,
        )


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
    return SegmentedChunk(
        chunk.doc_ids, units, cuts.events, cuts.docs.tolist(), config.threshold_ms
    )


def _check_segmented(chunk: SegmentedChunk, config: PipelineConfig):
    if chunk.threshold_ms != config.threshold_ms:
        raise InvalidInputError(
            f"segmented at {chunk.threshold_ms} ms, but the pipeline uses "
            f"{config.threshold_ms} ms"
        )
    if chunk.fixed_rows is not None and chunk.fixed_config != config:
        raise InvalidInputError("prepared under another pipeline configuration")


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
    form together with the training documents' block.  Resources
    (embedding table, lexicons, tagger, ...) are loaded once per
    instance, for all of its fits."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self._loaded: _Resources | None = None

    def _resources(self) -> _Resources:
        if self._loaded is None:
            self._loaded = _load_resources(self.config)
        return self._loaded

    def segment(self, corpus: CorpusColumns) -> SegmentedChunk:
        """Segment and tokenize the documents of ``corpus`` once, as one
        chunk, for any number of fits and featurizations under this
        configuration; each distinct token string among them is
        tokenized once."""
        return _segment_chunk(corpus, self.config)

    def prepare(self, chunk: SegmentedChunk) -> SegmentedChunk:
        """``chunk`` with the rows of its fold-independent blocks built
        once, for any number of fits and featurizations under this
        configuration; only the bong rows and the standardizer are then
        computed per fit."""
        _check_segmented(chunk, self.config)
        _require_ipus(chunk)
        rows = _fixed_rows(chunk, self.config, self._resources())
        rows.flags.writeable = False
        return replace(chunk, fixed_rows=rows, fixed_config=self.config)

    def fit_transform(
        self, chunk: SegmentedChunk
    ) -> tuple["FittedFeaturePipeline", SequenceBlock]:
        """Fit on the documents of ``chunk`` (segmented or prepared under
        this configuration) and return the fitted pipeline with their
        sequences as one block.

        The documents' raw rows are built once, the bong block's as its
        nonzero entries: the standardizer is fit on them and then applied
        to them, which gives the same block, bit for bit, as the fitted
        pipeline's ``block``.
        """
        if not chunk.doc_ids:
            raise InvalidInputError("cannot fit a pipeline on zero documents")
        config = self.config
        _check_segmented(chunk, config)
        loaded = self._resources()

        vocab = None
        if "bong" in config.blocks:
            bounds = chunk.bounds
            words = [
                list(itertools.chain.from_iterable(chunk.units[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])
            ]
            vocab = fit_bong(
                token_chunk(words, stems=True),
                max_order=config.bong_max_order,
                min_df=config.bong_min_df,
            )

        fitted = FittedFeaturePipeline(
            config=config,
            schema=_build_schema(config, loaded, vocab),
            vocabulary=vocab,
            standardizer=None,
            _resources=loaded,
        )
        _require_ipus(chunk)
        fixed, bong = fitted._raw_rows(chunk)
        if config.standardize:
            sparse_columns = None if bong is None else (bong[1], bong[2], len(vocab))
            fitted = replace(fitted, standardizer=fit_standardizer(fixed, sparse_columns))
        return fitted, fitted._block(chunk, fixed, bong)


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
    """A fitted pipeline; ``block`` turns a segmented chunk of documents
    into their sequences, as one ``model.SequenceBlock``, and ``blocks``
    a corpus's columns into one block per chunk.

    The bong block, first in canonical order, is never built densely: a
    block keeps it as ``SparseRows``, one (index, value) entry per
    in-vocabulary n-gram of an IPU, and its dense ``features`` are the
    other blocks' columns.  Standardizing divides the bong entries by
    the standardizer's std (1 for a zero-variance column, as
    ``Standardizer.apply`` does) and keeps the centering as one offset
    row, -mean/std, shared by every block of the pipeline; the other
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
            # checked here once; every block's SparseRows shares it
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
        if not prepared:
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

    def block(self, chunk: SegmentedChunk) -> SequenceBlock:
        """The sequences of the documents of ``chunk`` (segmented or
        prepared under this pipeline's configuration) as one block; a
        document's rows are bitwise the same whatever chunk it is in."""
        _check_segmented(chunk, self.config)
        _require_ipus(chunk)
        return self._block(chunk, *self._raw_rows(chunk))

    def blocks(self, corpus: CorpusColumns) -> Iterator[SequenceBlock]:
        """The sequences of the documents of ``corpus``, one block per
        chunk of ``SCORING_CHUNK`` documents, in order.  A chunk
        goes from its columns to its block as one set of columns:
        segmented and tokenized (``_segment_chunk``), then featurized and
        standardized by ``block``, with no object made per document."""
        for ids in chunked(range(len(corpus))):
            yield self.block(_segment_chunk(corpus.select(ids), self.config))

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
