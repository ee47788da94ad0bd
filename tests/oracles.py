"""Test oracles, independent of the code they check.

For the corpus reader and the segmenter (``opinionchain.corpus``,
``opinionchain.features.segmentation``):

* The per-line reader: a valid corpus directory read one line and one
  token record at a time, as the loader did before it read columns.
* The per-line checking reader: any corpus directory read as
  ``read_corpus`` did before it parsed a file a region at a time, every
  line of every file split on its own: the same columns, or the same
  problems listed in the same error.
* The per-token segmenter: a document cut one token at a time, as
  ``segment_into_ipus`` did before it cut at indices, and each token
  text tokenized where it occurs, not once per distinct string.

For the chunk featurizer (``opinionchain.features.pipeline``):

* The per-IPU reference: a document's rows built one IPU at a time and
  one token occurrence at a time, as the pipeline did before it counted
  token-type ids: every token tagged, tested against the word sets and
  stemmed, and every n-gram joined and looked up, where it occurs.
* The per-occurrence vocabulary fit: every n-gram of every training
  document stemmed and joined where it occurs, and its document
  frequency counted over the set of a document's joined strings.

For the hidden-state chain model, independent of its kernel, each on
one document's (L, D) feature rows:

* Path enumeration: every latent path is scored explicitly and the
  scores are summed with scipy's logsumexp.  Exact to rounding, but
  exponential in the sequence length, so it refuses more than
  ``BRUTE_FORCE_MAX_PATHS`` paths.
* A log-space forward-backward in ``np.longdouble`` (64-bit mantissa on
  x86-64, eps about 1.1e-19): the same max-shifted recursion as the
  float64 kernel, written per label and per position with no batching,
  so it is linear in the length and cheap enough for 10^4 segments.

For the synthetic generator's order-insensitive Bayes bound
(``opinionchain.synthetic``):

* Pattern enumeration: every free-segment polarity pattern the
  generator can emit, its mass added to the (length, positive count)
  pair it shows each label, as the bound was computed before it summed
  binomial terms.  Exponential in the length, so it refuses more than
  ``BAYES_MAX_PATTERNS`` patterns.

For the training objective (``opinionchain.training``):

* The padded-grid objective: value and gradient computed as training
  did before it read packed rows, with every emission block scattered
  into a zero-padded (position, chain) grid, the windows shifted on the
  grid, node scores transposed to (label, chain, position, state), and
  a forward-backward of its own on fresh arrays, with the label-summed
  state posteriors gathered back from the grid.  Same arithmetic, so
  the packed objective must equal it bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from opinionchain.corpus import (
    MANIFEST_NAME,
    TRANSCRIPT_VERSION,
    CorpusColumns,
    _document_problem,
    _marker_record,
    _offsets,
    _parse_int,
    _read_manifest,
)
from opinionchain.errors import FileFormatError, InvalidInputError, read_utf8
from opinionchain.features.lexicons import lexicon_features
from opinionchain.features.paralinguistic import CATEGORIES, OTHER
from opinionchain.features.stemmer import stem
from opinionchain.features.tokenizer import tokenize
from opinionchain.model import HcrfParameters, emission_blocks, label_log_posteriors

BRUTE_FORCE_MAX_PATHS = 10**6
BAYES_MAX_PATTERNS = 10**6

para_log = logging.getLogger("opinionchain.features.paralinguistic")


class EnumerationBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its guarded budget."""


def reference_load(root):
    """``(doc_id, texts, starts, ends, markers, valences)`` of each
    manifest document of the valid corpus directory ``root``, in
    manifest order: its token columns as tuples, and its markers as
    (text, time) pairs.  Every line is read on its own, and a document's
    records are gathered from every file, in file-name order and then
    line order; its markers are then ordered by time."""
    root = Path(root)
    entries = []
    for line in (root / "manifest.tsv").read_text(encoding="utf-8").splitlines()[2:]:
        if line.strip():
            doc_id, filename, valence = line.split("\t")
            valences = None if valence == "-" else tuple(float(v) for v in valence.split(","))
            entries.append((doc_id, filename, valences))
    records = {doc_id: ([], []) for doc_id, _, _ in entries}
    for filename in sorted({filename for _, filename, _ in entries}):
        for line in (root / filename).read_text(encoding="utf-8").splitlines()[1:]:
            if not line.strip():
                continue
            parts = line.split("\t")
            if parts[0] == "token":
                _, doc_id, text, start, end = parts[:5]
                records[doc_id][0].append((text, int(start), int(end)))
            else:
                _, doc_id, text, time = parts[:4]
                records[doc_id][1].append((text, int(time)))
    corpus = []
    for doc_id, _, valences in entries:
        tokens, markers = records[doc_id]
        texts, starts, ends = (tuple(column) for column in zip(*tokens)) if tokens else ((),) * 3
        markers = tuple(sorted(markers, key=lambda marker: marker[1]))
        corpus.append((doc_id, texts, starts, ends, markers, valences))
    return corpus


_NOT_TIME_CHAR = re.compile(r"[^0-9-]")


def reference_read_corpus(path) -> CorpusColumns:
    """``read_corpus`` as it was before it parsed regions: every line of
    every transcript file split on its own, each file's times parsed as
    its records are gathered, and the records looked at one by one to
    list the problems of a malformed corpus.  The manifest is read, and
    a marker record and a document's times checked, by the reader's own
    helpers, which read one line or one document either way."""
    root = Path(path)
    if not root.is_dir():
        raise FileFormatError(f"corpus path is not a directory: {root}")
    manifest = root / MANIFEST_NAME
    problems = []
    if manifest.exists():
        entries, refused = _read_manifest(manifest, problems)
    elif not any(root.iterdir()):
        entries, refused = [], set()
    else:
        raise FileFormatError(f"missing {MANIFEST_NAME} in {root}")
    index = {doc_id: i for i, (doc_id, _, _) in enumerate(entries)}
    fields = ([], [], [], [])  # document number, text, start, end of each token record
    markers = []  # (document, time, text)
    files = []  # (path, lines of its token records, its other problems)
    parsed = True
    for filename in sorted({filename for _, filename, _ in entries}):
        file = os.path.join(root, filename)
        lines, found, file_parsed = _reference_transcript_file(
            file, index, refused, fields, markers
        )
        files.append((file, lines, found))
        parsed &= file_parsed
    columns = _reference_token_columns(*fields, len(entries)) if parsed else None
    documents = [] if columns is not None else _reference_token_problems(root, entries, fields, files)
    for file, _, found in files:
        problems.extend((file, line, message) for line, message in sorted(found))
    problems += documents
    if problems:
        raise FileFormatError(f"{len(problems)} malformed record(s) in {root}", problems)
    markers.sort(key=lambda marker: marker[:2])
    return CorpusColumns(
        tuple(doc_id for doc_id, _, _ in entries),
        tuple(valences for _, _, valences in entries),
        *columns,
        [text for _, _, text in markers],
        [time for _, time, _ in markers],
        _offsets(np.bincount(np.array([doc for doc, _, _ in markers], dtype=np.intp),
                             minlength=len(entries))),
    )


def _reference_transcript_file(path, index, refused, fields, markers):
    try:
        lines = read_utf8(path).splitlines()
    except FileNotFoundError:
        return [], [(0, "file listed in manifest but missing")], True
    except OSError as exc:
        return [], [(0, f"cannot read the file: {exc.strerror}")], True
    except FileFormatError:
        return [], [(0, "not UTF-8 text")], True
    if not lines or lines[0].strip() != TRANSCRIPT_VERSION:
        return [], [(1, f"first line must be {TRANSCRIPT_VERSION!r}")], True
    rows, token_lines, found = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if parts[0] == "token" and len(parts) >= 5 and parts[1] in index:
            rows.append(parts)
            token_lines.append(lineno)
        elif line.strip():
            try:
                markers.extend(_marker_record(parts, index, refused))
            except ValueError as exc:
                found.append((lineno, str(exc)))
    parsed = True
    if rows:
        _, docs, texts, starts, ends = list(zip(*rows))[:5]
        if _NOT_TIME_CHAR.search("".join(starts + ends)):
            parsed = False
        else:
            try:
                starts, ends = list(map(int, starts)), list(map(int, ends))
            except ValueError:
                parsed = False
        for field, values in zip(fields, (map(index.__getitem__, docs), texts, starts, ends)):
            field.extend(values)
    return token_lines, found, parsed


def _reference_token_columns(docs, texts, starts, ends, num_docs):
    try:
        starts = np.fromiter(starts, dtype=np.int64, count=len(starts))
        ends = np.fromiter(ends, dtype=np.int64, count=len(ends))
    except OverflowError:
        return None
    doc = np.array(docs, dtype=np.intp)
    if (doc[1:] < doc[:-1]).any():
        order = np.argsort(doc, kind="stable")
        doc, starts, ends = doc[order], starts[order], ends[order]
        texts = list(map(texts.__getitem__, order.tolist()))
    if (ends < starts).any() or ((starts[1:] < ends[:-1]) & (doc[1:] == doc[:-1])).any():
        return None
    return texts, starts, ends, _offsets(np.bincount(doc, minlength=num_docs))


def _reference_token_problems(root, entries, fields, files):
    columns = [([], [], []) for _ in entries]
    records = zip(*fields)
    for _, lines, found in files:
        for lineno, (doc, text, start, end) in zip(lines, records):
            try:
                start, end = _parse_int(start, "startMs"), _parse_int(end, "endMs")
                if end < start:
                    raise ValueError(f"endMs {end} < startMs {start}")
            except ValueError as exc:
                found.append((lineno, str(exc)))
                continue
            for column, value in zip(columns[doc], (text, start, end)):
                column.append(value)
    problems = []
    for (doc_id, filename, _), doc_columns in zip(entries, columns):
        problem = _document_problem(doc_id, *doc_columns)
        if problem is not None:
            problems.append((os.path.join(root, filename), 0, problem))
    return problems


def reference_segment(texts, starts, ends, markers, threshold_ms: int):
    """The IPUs of one document's token columns and (text, time)
    markers, cut one token at a time: a new IPU starts at every token
    whose silent gap from the previous token is longer than
    ``threshold_ms``, and a marker attaches to the last IPU that starts
    at or before it (the first IPU if none does).  Each IPU as the tuple
    of its token texts and the tuple of its markers' texts."""
    if not texts:
        return []
    groups = [[0]]
    for i in range(1, len(texts)):
        if starts[i] - ends[i - 1] > threshold_ms:
            groups.append([i])
        else:
            groups[-1].append(i)
    ipu_starts = [starts[group[0]] for group in groups]
    events = [[] for _ in groups]
    for text, time in markers:
        events[max(0, bisect_right(ipu_starts, time) - 1)].append(text)
    return [
        (tuple(texts[i] for i in group), tuple(attached))
        for group, attached in zip(groups, events)
    ]


def reference_tokens(texts) -> list[str]:
    """The words of an IPU's token texts, each text tokenized where it
    occurs."""
    return [word for text in texts for word in tokenize(text)]


def extract_ngrams(tokens, max_order: int = 3) -> list[str]:
    """All 1..max_order grams over the stemmed token sequence."""
    if max_order < 1:
        raise InvalidInputError("max_order must be >= 1")
    stems = [stem(tok.lower()) for tok in tokens]
    grams = list(stems)
    for order in range(2, max_order + 1):
        grams.extend(
            "_".join(stems[i : i + order]) for i in range(len(stems) - order + 1)
        )
    return grams


def reference_vocabulary(docs, max_order: int, min_df: int):
    """``(terms, doc_freq)`` fitted on ``docs`` (token lists): the sorted
    terms held by at least ``min_df`` documents, and how many documents
    hold each."""
    df = Counter()
    for tokens in docs:
        df.update(set(extract_ngrams(tokens, max_order)))
    terms = tuple(sorted(t for t, c in df.items() if c >= min_df))
    return terms, np.array([df[t] for t in terms], dtype=np.int64)


def reference_bong(units, vocab):
    """TF-IDF entries ``(rows, indices, values)`` of ``units`` (token
    lists), one n-gram occurrence at a time: tf * idf / the unit's token
    count, in ascending (row, index) order."""
    index, width = vocab.index, len(vocab)
    cells: list[int] = []
    token_counts = []
    for row, tokens in enumerate(units):
        base = row * width
        grams = extract_ngrams(tokens, vocab.max_order)
        cells += [base + index[gram] for gram in grams if gram in index]
        token_counts.append(max(1, len(tokens)))
    cells, term_freqs = np.unique(np.array(cells, dtype=np.intp), return_counts=True)
    rows, indices = np.divmod(cells, width)
    values = term_freqs * vocab.idf[indices]
    values /= np.array(token_counts, dtype=np.float64)[rows]
    return rows, indices, values


def reference_pattern(tokens, tags, resources) -> np.ndarray:
    """One unit's pattern counts from its tokens and their tags."""
    tokens = list(tokens)
    tags = list(tags)
    if len(tokens) != len(tags):
        raise InvalidInputError(f"{len(tokens)} tokens vs {len(tags)} tags; must align 1:1")
    lows = [t.lower() for t in tokens]
    adj_noun = sum(1 for a, b in zip(tags, tags[1:]) if a == "ADJ" and b == "NOUN")
    counts = [
        float(adj_noun),
        float(sum(1 for t in lows if t in resources.negations)),
        float(sum(1 for t in lows if t in resources.amplifiers)),
        float(sum(1 for t in lows if t in resources.downtoners)),
        float(sum(1 for t in lows if t in resources.disfluencies)),
        float(sum(1 for t in tokens if t[:1].isupper())),
    ]
    counts.extend(float(tags.count(tag)) for tag in resources.tag_set)
    return np.array(counts)


def reference_paralinguistic(para_events, marker_map: dict) -> np.ndarray:
    """One unit's marker counts per category, 'other' last."""
    counts = dict.fromkeys(CATEGORIES + (OTHER,), 0.0)
    for event in para_events:
        category = marker_map.get(event.strip("*").lower())
        if category is None:
            para_log.info("unknown paralinguistic marker %r counted as other", event)
            category = OTHER
        counts[category] += 1.0
    return np.array([counts[c] for c in CATEGORIES + (OTHER,)])


def embed_tokens(tokens, table, stopwords) -> np.ndarray:
    """One IPU's embedding row, one token at a time: the mean of the
    in-vocabulary, non-stopword token vectors, plus a trailing coverage
    flag (0 when nothing was covered).  Width E + 1."""
    vectors = []
    for token in tokens:
        if token.lower() in stopwords:
            continue
        vec = table.lookup(token)
        if vec is not None:
            vectors.append(vec)
    out = np.zeros(table.dim + 1)
    if vectors:
        out[: table.dim] = np.mean(vectors, axis=0)
        out[table.dim] = 1.0
    return out


def reference_rows(units, events_per_unit, pipeline):
    """A document's raw rows under ``pipeline`` (a fitted pipeline), from
    its IPUs' words ``units`` and markers ``events_per_unit``, built one
    IPU at a time: its (L, D') rows of every block but bong, and its bong
    entries (None without a vocabulary)."""
    loaded = pipeline._resources
    rows = []
    for tokens, events in zip(units, events_per_unit):
        parts = []
        for block in pipeline.config.blocks:
            if block == "embedding":
                parts.append(embed_tokens(tokens, loaded.embedding, loaded.stopwords))
            elif block == "lexicon":
                parts.append(lexicon_features(tokens, loaded.lexicons, loaded.modifiers))
            elif block == "pattern":
                tags = loaded.tagger.tag(tokens)
                parts.append(reference_pattern(tokens, tags, loaded.pattern))
            elif block == "paralinguistic":
                parts.append(reference_paralinguistic(events, loaded.marker_map))
        rows.append(np.concatenate(parts) if parts else np.empty(0))
    bong = None
    if pipeline.vocabulary is not None:
        bong = reference_bong(units, pipeline.vocabulary)
    return np.array(rows), bong


def enumerated_bayes_accuracy(spec) -> float:
    """The order-insensitive Bayes bound of a ``SyntheticSpec``, by
    enumerating every polarity pattern of the free segments."""
    lengths = range(spec.min_segments, spec.max_segments + 1)
    total_patterns = sum(2 ** (L - spec.decisive_segments) for L in lengths)
    if total_patterns > BAYES_MAX_PATTERNS:
        raise EnumerationBudgetError(
            f"{total_patterns} polarity sequences exceed the budget {BAYES_MAX_PATTERNS}"
        )
    # mass[(L, n_pos)][y] accumulated by brute enumeration
    mass: dict[tuple[int, int], list[float]] = {}
    length_prob = 1.0 / len(lengths)
    for L in lengths:
        free = L - spec.decisive_segments
        for pattern in itertools.product((True, False), repeat=free):
            n_match = sum(pattern)
            p_pattern = spec.match_prob**n_match * (1.0 - spec.match_prob) ** (free - n_match)
            if p_pattern == 0.0:
                continue
            for y in (0, 1):
                n_pos = n_match + spec.decisive_segments if y == 1 else free - n_match
                mass.setdefault((L, n_pos), [0.0, 0.0])[y] += length_prob * p_pattern
    return sum(0.5 * max(p_neg, p_pos) for p_neg, p_pos in mass.values())


def _check(rows: np.ndarray, theta: HcrfParameters, y: int | None = None) -> np.ndarray:
    """The (L, D) ``rows`` as floats, checked against ``theta``."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise InvalidInputError(f"rows must be a nonempty (L, D) matrix, got {rows.shape}")
    if rows.shape[1] != theta.feature_dim:
        raise InvalidInputError(
            f"feature dim {rows.shape[1]} != model dim {theta.feature_dim}"
        )
    if y is not None and not 0 <= y < theta.num_labels:
        raise InvalidInputError(f"label index {y} out of range [0, {theta.num_labels})")
    return rows


def potential(y: int, hidden_states, rows: np.ndarray, theta: HcrfParameters) -> float:
    """Unnormalized log-score of one (label, latent path, observations)
    triple, for a document's (L, D) feature rows."""
    rows = _check(rows, theta, y)
    length = rows.shape[0]
    h_seq = np.asarray(hidden_states, dtype=np.intp)
    if h_seq.shape != (length,):
        raise InvalidInputError(
            f"hidden path length {h_seq.shape} does not match sequence length {length}"
        )
    if h_seq.min() < 0 or h_seq.max() >= theta.num_hidden_states:
        raise InvalidInputError("hidden state index out of range")
    emis = rows @ theta.theta_obs.T
    score = emis[np.arange(length), h_seq].sum()
    score += theta.theta_state[y, h_seq].sum()
    if length > 1:
        score += theta.theta_trans[y, h_seq[:-1], h_seq[1:]].sum()
    return float(score)


def _enumerate_paths(num_states: int, length: int) -> np.ndarray:
    """All ``num_states**length`` latent paths as a (P, L) index matrix."""
    grids = np.meshgrid(*([np.arange(num_states)] * length), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def brute_force_log_partitions(rows: np.ndarray, theta: HcrfParameters) -> np.ndarray:
    """Per-label log-partitions of a document's (L, D) feature rows, by
    explicit path enumeration."""
    rows = _check(rows, theta)
    length = rows.shape[0]
    num_paths = theta.num_hidden_states**length
    if num_paths > BRUTE_FORCE_MAX_PATHS:
        raise EnumerationBudgetError(
            f"{theta.num_hidden_states}^{length} = {num_paths} paths exceeds "
            f"the enumeration budget of {BRUTE_FORCE_MAX_PATHS}"
        )
    paths = _enumerate_paths(theta.num_hidden_states, length)
    emis = rows @ theta.theta_obs.T
    obs_scores = emis[np.arange(length)[None, :], paths].sum(axis=1)
    log_z = np.empty(theta.num_labels)
    for y in range(theta.num_labels):
        scores = obs_scores + theta.theta_state[y][paths].sum(axis=1)
        if length > 1:
            scores = scores + theta.theta_trans[y][paths[:, :-1], paths[:, 1:]].sum(axis=1)
        log_z[y] = logsumexp(scores)
    return log_z


def brute_force_posterior(rows: np.ndarray, theta: HcrfParameters) -> np.ndarray:
    """Label posterior P(y | x) of a document's (L, D) feature rows via
    explicit enumeration.

    Refuses when ``H**L`` exceeds ``BRUTE_FORCE_MAX_PATHS``.
    """
    log_z = brute_force_log_partitions(rows, theta)
    return np.exp(log_z - logsumexp(log_z))


def shifted_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) with the maximum factored out: exp never overflows."""
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m, axis=axis)


def unshifted_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """The textbook log(sum(exp(a))): overflows once a term passes the
    dtype's largest exponent."""
    return np.log(np.exp(a).sum(axis=axis))


def log_space_reference(
    rows: np.ndarray,
    theta: HcrfParameters,
    dtype=np.longdouble,
    lse=shifted_logsumexp,
) -> tuple[np.ndarray, np.ndarray]:
    """(log-partitions (Y,), state posteriors (Y, L, H)) of a document's
    (L, D) feature rows, by a per-label forward-backward in ``dtype``
    arithmetic.

    The features and weights are float64; the emissions are summed in
    ``dtype`` from the products of their float64 values.
    """
    rows = _check(rows, theta)
    feats = rows.astype(dtype)
    emission = feats @ theta.theta_obs.T.astype(dtype)  # (L, H)
    length = rows.shape[0]
    log_z = np.empty(theta.num_labels, dtype=dtype)
    state = np.empty((theta.num_labels, length, theta.num_hidden_states), dtype=dtype)
    for y in range(theta.num_labels):
        node = emission + theta.theta_state[y].astype(dtype)
        trans = theta.theta_trans[y].astype(dtype)  # (from, to)
        alpha = np.empty_like(node)
        alpha[0] = node[0]
        for j in range(1, length):
            alpha[j] = lse(alpha[j - 1][:, None] + trans, 0) + node[j]
        beta = np.zeros_like(node)
        for j in range(length - 2, -1, -1):
            beta[j] = lse(trans + (node[j + 1] + beta[j + 1])[None, :], 1)
        log_z[y] = lse(alpha[-1], 0)
        state[y] = np.exp(alpha + beta - log_z[y])
    return log_z, state


def _shift_rows(a: np.ndarray, shift: int) -> np.ndarray:
    """``out[j] = a[j + shift]`` along axis 0, and 0 where ``j + shift``
    falls outside ``a``."""
    out = np.zeros(a.shape)
    n = a.shape[0]
    if shift >= 0 and shift < n:
        out[: n - shift] = a[shift:]
    elif shift < 0 and -shift < n:
        out[-shift:] = a[: n + shift]
    return out


def _window_sum(grids: list[np.ndarray], window: int) -> np.ndarray:
    """Emission scores under a context window from the 2w+1 per-shift
    (Lmax, N, H) grids: position j adds grid k's row j + k - w, and
    nothing past either end of the grid, shift by shift in order."""
    if window == 0:
        return grids[0]
    out = _shift_rows(grids[0], -window)
    for k in range(1, len(grids)):
        out += _shift_rows(grids[k], k - window)
    return out


def _padded_node_scores(emission: np.ndarray, theta: HcrfParameters) -> np.ndarray:
    """(Y, N, L, H) node scores of (N, L, H) emissions, stored (L, H, Y, N)."""
    num, length, num_h = emission.shape
    out = np.empty((length, num_h, theta.num_labels, num))
    np.add(emission.transpose(1, 2, 0)[:, :, None], theta.theta_state.T[:, :, None], out=out)
    return out.transpose(2, 3, 0, 1)


def _padded_forward(node, trans, lengths, active):
    """Log-space forward recursion over the padded (Lmax, H, Y, N) grid."""
    node = np.ascontiguousarray(node.transpose(2, 3, 0, 1))  # (Lmax, H, Y, N)
    fwd = trans.transpose(1, 2, 0)[..., None]  # (from, to, Y, 1)
    alpha = np.full(node.shape, -np.inf)
    alpha[0] = node[0]
    factors, sums = [], []
    for j in range(1, node.shape[0]):
        a = active[j]
        scaled = alpha[j - 1, :, None, :, :a] + fwd
        peak = scaled.max(axis=0)
        scaled -= peak
        np.exp(scaled, out=scaled)
        total = scaled.sum(axis=0)
        step = np.log(total, out=alpha[j, ..., :a])
        step += peak
        step += node[j, ..., :a]
        factors.append(scaled)
        sums.append(total)
    cells = np.arange(alpha[0].size).reshape(alpha.shape[1:])  # (H, Y, N)
    last = (lengths - 1) * cells.size + cells
    m = alpha.take(last).max(axis=0)
    log_z = np.log(np.exp(alpha.take(last) - m).sum(axis=0)) + m
    return log_z, alpha, factors, sums, last


def _padded_backward(forward_pass, weights, active):
    """Weighted state and pair posteriors on the padded grid, 0 on padding."""
    log_z, alpha, factors, sums, last = forward_pass
    state = np.zeros(alpha.shape)
    pair = np.zeros((alpha.shape[0] - 1,) + alpha.shape[1:2] + alpha.shape[1:])
    seed = np.exp(alpha.take(last) - log_z)
    seed *= weights
    state.reshape(-1)[last] = seed
    for j in range(len(factors), 0, -1):
        a = active[j]
        ahead = state[j, ..., :a] / sums[j - 1]
        joint = np.multiply(
            factors[j - 1].transpose(1, 0, 2, 3), ahead[:, None], out=pair[j - 1, ..., :a]
        )
        joint.sum(axis=0, out=state[j - 1, ..., :a])
    return state, pair


def padded_objective_and_gradient(grouped, theta: HcrfParameters, l2_lambda: float):
    """Value and gradient vector of the regularized NLL over ``grouped``
    (a ``training.LengthGroups``) at ``theta``, on the padded grid."""
    lengths, active, window = grouped.layout.lengths, grouped.layout.active, grouped.window
    num, max_len = lengths.shape[0], len(active) - 1
    filled = np.arange(num) < np.array(active[:-1])[:, None]  # (Lmax, N)
    blocks = emission_blocks([grouped.features], grouped.sparse, theta.theta_obs, window)
    grids = []
    for block in blocks:
        grid = np.zeros((max_len, num, theta.num_hidden_states))
        grid[filled] = block
        grids.append(grid)
    emission = _window_sum(grids, window)
    node = _padded_node_scores(emission.transpose(1, 0, 2), theta)
    forward_pass = _padded_forward(node, theta.theta_trans, lengths, active)
    log_post = label_log_posteriors(forward_pass[0])  # (Y, N)
    labels, chains = grouped.labels, np.arange(num)
    nll = float(-log_post[labels, chains].sum())
    coeff = np.exp(log_post)
    coeff[labels, chains] -= 1.0
    state, pair = _padded_backward(forward_pass, coeff, active)

    grad_state = state.sum(axis=(0, 3)).T  # (Y, H)
    grad_trans = pair.sum(axis=(0, 4)).transpose(2, 1, 0)  # (Y, from, to)
    node_weight = state.sum(axis=2).transpose(0, 2, 1)  # (Lmax, N, H), over labels
    grad_blocks = []
    for k in range(2 * window + 1):
        shifted = node_weight if window == 0 else _shift_rows(node_weight, window - k)
        row_weight = shifted[filled]
        if grouped.sparse is not None:
            grad_blocks.append(grouped.sparse.transpose_dot(row_weight))
        grad_blocks.append(row_weight.T @ grouped.features)
    grad_obs = np.concatenate(grad_blocks, axis=1)

    sq_norm = float(
        (theta.theta_obs**2).sum() + (theta.theta_state**2).sum() + (theta.theta_trans**2).sum()
    )
    grad = np.concatenate(
        [
            (grad_obs + l2_lambda * theta.theta_obs).ravel(),
            (grad_state + l2_lambda * theta.theta_state).ravel(),
            (grad_trans + l2_lambda * theta.theta_trans).ravel(),
        ]
    )
    return nll + 0.5 * l2_lambda * sq_norm, grad
