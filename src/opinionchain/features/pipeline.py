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

A segmented chunk holds one token table (``TokenChunk``): its words as
one column of type ids with per-IPU offsets, next to the chunk's
distinct words (its types), and its markers likewise.  Segmentation
builds it once, tokenizing each distinct token string and numbering
each distinct word once; nothing is kept between chunks.  Each block
works out what it reads of a type once per chunk (the pattern block
its tag column and flags, bong its stem, the embedding block its
vector row, the paralinguistic block a marker's category) and gathers
it by the id column, so the embedding, pattern and paralinguistic rows
of all the chunk's IPUs are a few array operations each, and the bong
entries one ``np.unique`` (``vectorize_bong``); only the lexicon rows
are built one IPU at a time.  ``fit_bong`` reads the training chunk's
table with one unit per document.  A chunk's rows are standardized at
once into one block, which is checked once.  A document's rows do not
depend on the chunk it is in.

``FittedFeaturePipeline.blocks`` is ``predict``'s path: it carries each
``SCORING_CHUNK`` documents of a corpus's columns to their
block, with no object made per document.  A chunk's columns are cut at
the indices ``segment_into_ipus`` finds (``_segment_chunk``).  Segmentation
and tokenization depend only on the configuration, never on fitted
state, and of the blocks only bong is fitted (its vocabulary), so
``FeaturePipeline.prepare`` builds the rows of all the others once for
a segmented chunk.  Cross-validation prepares the corpus once for all
of its folds, picks each fold's documents from the prepared chunk by
index (``SegmentedChunk.subchunk``, whose tables keep only the fold's
types), and computes only the bong rows and the standardizer per fold.
A chunk records the threshold that cut it, and a prepared one the
configuration of its rows, so a chunk made under another configuration
is rejected.

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
from .patterns import DEFAULT_TAG_SET, pattern_feature_names, pattern_features
from .segmentation import DEFAULT_THRESHOLD_MS, segment_into_ipus
from .standardize import Standardizer, fit_standardizer
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
    """A column of strings in U units, such as the words or the markers
    of a chunk's IPUs: unit u's are ``ids[offsets[u]:offsets[u + 1]]``,
    each the number of its string in ``types``, the distinct strings of
    the chunk.  A feature block works out what it reads of a string once
    per type and gathers it by ``ids``."""

    types: list[str]
    ids: np.ndarray  # (T,) type of each string
    offsets: np.ndarray  # (U + 1,)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def unit(self) -> np.ndarray:
        """(T,) the unit of each string."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def select(self, units: np.ndarray) -> "TokenChunk":
        """Units ``units`` (indices, in the order given) as a column of
        their own, numbering only the types they hold."""
        lo, hi = self.offsets[units], self.offsets[units + 1]
        ids = self.ids[run_indices(lo, hi)]
        used = np.zeros(len(self.types), dtype=bool)
        used[ids] = True
        types = [self.types[k] for k in np.flatnonzero(used).tolist()]
        return TokenChunk(types, (np.cumsum(used) - 1)[ids], _starts(hi - lo))


def _starts(sizes: np.ndarray) -> np.ndarray:
    """The offsets of consecutive runs of ``sizes`` items."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))


def token_chunk(units) -> TokenChunk:
    """``units`` (one list of strings per unit) as a ``TokenChunk``,
    its types numbered in order of first occurrence."""
    flat = list(itertools.chain.from_iterable(units))
    number = {string: i for i, string in enumerate(dict.fromkeys(flat))}
    ids = np.fromiter(map(number.__getitem__, flat), dtype=np.intp, count=len(flat))
    sizes = np.fromiter(map(len, units), dtype=np.intp, count=len(units))
    return TokenChunk(list(number), ids, _starts(sizes))


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
    are unit u of ``tokens`` and its markers unit u of ``markers``, and
    document i's IPUs are ``bounds[i]:bounds[i + 1]``.  ``fixed_rows``,
    if given, holds the (U, D') rows of every enabled block but bong, as
    ``FeaturePipeline.prepare`` built them under ``fixed_config``."""

    doc_ids: tuple[str, ...]
    tokens: TokenChunk
    markers: TokenChunk
    bounds: np.ndarray  # (N + 1,)
    threshold_ms: int
    fixed_rows: np.ndarray | None = None
    fixed_config: PipelineConfig | None = None

    def subchunk(self, ids) -> "SegmentedChunk":
        """Documents ``ids`` (indices into the chunk, in the order given)
        as a chunk of their own, with their fixed rows if prepared; its
        columns number only the types its documents hold."""
        ids = np.asarray(ids, dtype=np.intp)
        lo, hi = self.bounds[ids], self.bounds[ids + 1]
        ipus = run_indices(lo, hi)
        fixed = self.fixed_rows
        if fixed is not None:
            fixed = fixed[ipus]
            fixed.flags.writeable = False
        return replace(
            self,
            doc_ids=tuple(self.doc_ids[i] for i in ids.tolist()),
            tokens=self.tokens.select(ipus),
            markers=self.markers.select(ipus),
            bounds=_starts(hi - lo),
            fixed_rows=fixed,
        )


def _segment_chunk(chunk: CorpusColumns, config: PipelineConfig) -> SegmentedChunk:
    """The documents of ``chunk`` cut into IPUs (``segment_into_ipus``)
    and tokenized, their words and markers as two ``TokenChunk``
    columns.  Each distinct token string of the chunk is tokenized once
    and each distinct word numbered once; a token's words are then its
    string's, picked by index."""
    cuts = segment_into_ipus(chunk, config.threshold_ms)
    distinct = {text: i for i, text in enumerate(dict.fromkeys(chunk.texts))}
    at = np.fromiter(map(distinct.__getitem__, chunk.texts), np.intp, len(chunk.texts))
    words = token_chunk(tokenize_many(distinct)).select(at)  # one unit per token
    tokens = replace(words, offsets=words.offsets[cuts.bounds])
    # markers IPU by IPU, each IPU's in the chunk's order; a dropped
    # marker (-1) sorts first
    order = np.argsort(cuts.marker_ipus, kind="stable")
    order = order[np.count_nonzero(cuts.marker_ipus < 0) :]
    markers = token_chunk([[chunk.marker_texts[m] for m in order.tolist()]])
    at = np.searchsorted(cuts.marker_ipus[order], np.arange(cuts.bounds.size))
    return SegmentedChunk(
        chunk.doc_ids, tokens, replace(markers, offsets=at), cuts.docs, config.threshold_ms
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
    empty = np.flatnonzero(np.diff(chunk.bounds) == 0)
    if empty.size:
        raise InvalidInputError(
            f"{chunk.doc_ids[empty[0]]}: no IPUs (tokenless document cannot be featurized)"
        )


def _fixed_rows(chunk: SegmentedChunk, config: PipelineConfig, loaded: _Resources) -> np.ndarray:
    """(U, D') rows of every enabled block but bong for the U IPUs of a
    chunk of documents, in canonical order; none of them depends on
    fitted state.  The lexicon rows are built per IPU, the embedding,
    pattern and paralinguistic ones for the whole chunk from its
    ``TokenChunk`` columns."""
    tokens = chunk.tokens
    blocks = []
    if "embedding" in config.blocks:
        blocks.append(embed_units(tokens, loaded.embedding, loaded.stopwords))
    if "lexicon" in config.blocks:
        words, at = [tokens.types[k] for k in tokens.ids.tolist()], tokens.offsets.tolist()
        blocks.append(
            np.array(
                [
                    lexicon_features(words[lo:hi], loaded.lexicons, loaded.modifiers)
                    for lo, hi in zip(at, at[1:])
                ]
            )
        )
    if "pattern" in config.blocks:
        blocks.append(pattern_features(tokens, loaded.tagger, loaded.pattern))
    if "paralinguistic" in config.blocks:
        blocks.append(paralinguistic_features(chunk.markers, loaded.marker_map))
    if not blocks:
        return np.empty((len(tokens), 0))
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
            # the training documents' words, one unit per document
            documents = replace(chunk.tokens, offsets=chunk.tokens.offsets[chunk.bounds])
            vocab = fit_bong(documents, max_order=config.bong_max_order, min_df=config.bong_min_df)

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
        fixed = chunk.fixed_rows
        if fixed is None:
            fixed = _fixed_rows(chunk, self.config, self._resources)
        bong = None
        if self.vocabulary is not None:
            bong = vectorize_bong(chunk.tokens, self.vocabulary)
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
