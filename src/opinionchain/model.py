"""Hidden-state chain model for whole-sequence classification.

A sequence of observation vectors is scored jointly with a latent state
sequence and a single output label.  The unnormalized log-score of a
configuration ``(y, h, x)`` is

    score(y, h, x) = sum_j <x_j, W_obs[h_j]>
                   + sum_j W_state[y, h_j]
                   + sum_{j<L} W_trans[y, h_j, h_{j+1}]

and the label posterior marginalizes the latent states per label.
Sequences travel stacked, as a :class:`SequenceBlock` checked once for
all of them: training fits on one, cross-validation picks documents
from one by index (``SequenceBlock.subblock``), and prediction scores
one per chunk of documents; every trained model is a :class:`Predictor`
of such blocks.  A fit and a prediction lay a block's chains out alike
(:meth:`ChainLayout.by_length`): sorted by non-increasing length, their
rows packed position-major with no padding, so each position's are one
slice of them.  The emission scores ``<x_j, W_obs[h]>`` come from
:func:`emission_blocks`, one array per shift of a context window, which
reads the block's sparse rows (:class:`SparseRows`) by one
gather-and-sum; one gather at the layout's neighbours
(:meth:`ChainLayout.neighbours`, :func:`neighbour_rows`) adds the shifts
up, so neither the dense rows nor the windowed ones are built.  All
inference goes through one kernel, batched over labels and over chains
of any mix of lengths: :func:`forward` gives the log-partitions, which
is all the label posteriors (:func:`label_log_posteriors`) need, and
:func:`backward` turns a forward pass and one weight per (label, chain)
into weighted state and pair posteriors.  Training weights them by
P(y|x) - 1[y = gold], so the likelihood gradient is a plain sum of the
backward pass's outputs; a weight of 1 gives the plain posteriors.  Both recursions run on the
arrays and views of a :class:`KernelPlan`, laid out once per layout, so
the calls of a fit reuse them.  The recursions run position-major, on
(position, state, label, sequence) arrays, so every reduction sums the
leading state axis over contiguous slices.

The forward recursion runs in log space: sequences of hundreds of
segments, or weights in the thousands, would underflow or overflow a
probability-space pass.  Each of its steps shifts the exponentials of a
log-sum-exp by their maximum, so every factor it forms lies in [0, 1]
and each sum of them in [1, H]; it keeps both.  The backward recursion
is the reverse-mode derivative of the forward one (forward-backward is
backprop through the forward pass): it starts from each chain's
weighted end-state posteriors and carries them back one step at a time
through those stored factors, with multiplies, divides and sums alone.
That sweep is in probability space, yet safe: every value it forms is a
weighted posterior, bounded by the weight, and every step's factors are
at most 1, so nothing overflows, and a value that underflows to 0 was
below 1e-307 in absolute terms.  The brute-force enumeration oracles
live with the tests.

Conventions fixed here and relied on elsewhere:

* the transition sum ranges over the L-1 adjacent pairs, so a length-1
  sequence has no transition term;
* no begin/end boundary states and no bias feature are added;
* the predicted label is the argmax of a row of
  :meth:`Predictor.posterior_blocks`, so exact ties go to the lowest
  label index.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field
from typing import Protocol

import numpy as np

from .errors import InvalidInputError


def scatter_add(cells: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size,) sums of ``values`` by cell; float zeros for no values, for
    which ``np.bincount`` would return integers."""
    return np.bincount(cells, values, minlength=size).astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class SparseRows:
    """A (num_rows, width) block of feature rows kept sparse: entry i is
    ``values[i]`` in column ``indices[i]`` of row ``rows[i]`` (a column
    may repeat within a row; its entries add), and every row also adds
    the dense ``offset`` row, if there is one.

    The bag-of-n-grams block is kept this way.  Its TF-IDF rows are
    almost all zero, and centering them would make every entry nonzero,
    so a standardized pipeline divides the entries by the standardizer's
    std and keeps the centering as one offset row, -mean/std, shared by
    every row it builds."""

    rows: np.ndarray  # (nnz,)
    indices: np.ndarray  # (nnz,)
    values: np.ndarray  # (nnz,)
    num_rows: int
    width: int
    offset: np.ndarray | None = None  # (width,)
    # set by a caller that cuts these entries, and ``offset``, out of a
    # block already checked (``SequenceBlock.subblock``)
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        rows = np.asarray(self.rows, dtype=np.intp)
        indices = np.asarray(self.indices, dtype=np.intp)
        values = np.asarray(self.values, dtype=np.float64)
        if not rows.ndim == indices.ndim == values.ndim == 1 or not (
            rows.shape == indices.shape == values.shape
        ):
            raise InvalidInputError(
                "sparse rows, indices and values must be equal-length vectors"
            )
        if not checked:
            num_rows, width = self.num_rows, self.width
            if rows.size and (
                rows.min() < 0 or rows.max() >= num_rows or indices.min() < 0
                or indices.max() >= width
            ):
                raise InvalidInputError(f"sparse entries outside a ({num_rows}, {width}) block")
            if not np.isfinite(values).all():
                raise InvalidInputError("non-finite sparse feature values")
        if self.offset is not None and not checked:
            offset = np.asarray(self.offset, dtype=np.float64)
            if offset.shape != (self.width,) or not np.isfinite(offset).all():
                raise InvalidInputError(f"the offset row must be {self.width} finite values")
            object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    def dot(self, weights: np.ndarray) -> np.ndarray:
        """(num_rows, K) products of the rows with the K rows of the
        (K, width) ``weights``: each entry's weight columns, gathered,
        scaled and summed into its row, plus offset · weightsᵀ."""
        num_k = weights.shape[0]
        terms = weights[:, self.indices] * self.values  # (K, nnz)
        cells = (self.rows + self.num_rows * np.arange(num_k)[:, None]).ravel()
        out = scatter_add(cells, terms.ravel(), num_k * self.num_rows)
        out = out.reshape(num_k, self.num_rows).T
        if self.offset is not None:
            out += weights @ self.offset
        return out

    def transpose_dot(self, row_weights: np.ndarray) -> np.ndarray:
        """(K, width) sum over the rows of ``row_weights[r]`` ⊗ row r, for
        (num_rows, K) ``row_weights``: each entry's weighted value added
        into its column (one scatter-add), plus the summed row weights ⊗
        offset."""
        num_k = row_weights.shape[1]
        terms = row_weights[self.rows].T * self.values  # (K, nnz)
        cells = (self.indices + self.width * np.arange(num_k)[:, None]).ravel()
        out = scatter_add(cells, terms.ravel(), num_k * self.width)
        out = out.reshape(num_k, self.width)
        if self.offset is not None:
            out += np.outer(row_weights.sum(axis=0), self.offset)
        return out


@dataclass
class HcrfParameters:
    """Model weights: observation, label-state, and label-transition blocks.

    Shapes: ``theta_obs`` is (H, D), ``theta_state`` is (Y, H) and
    ``theta_trans`` is (Y, H, H); all entries must be finite.
    """

    theta_obs: np.ndarray
    theta_state: np.ndarray
    theta_trans: np.ndarray

    def __post_init__(self):
        self.theta_obs = np.asarray(self.theta_obs, dtype=np.float64)
        self.theta_state = np.asarray(self.theta_state, dtype=np.float64)
        self.theta_trans = np.asarray(self.theta_trans, dtype=np.float64)
        if self.theta_obs.ndim != 2 or self.theta_state.ndim != 2 or self.theta_trans.ndim != 3:
            raise InvalidInputError("parameter blocks have wrong rank")
        h, _ = self.theta_obs.shape
        y, h2 = self.theta_state.shape
        if h2 != h or self.theta_trans.shape != (y, h, h):
            raise InvalidInputError(
                "inconsistent parameter shapes: "
                f"obs {self.theta_obs.shape}, state {self.theta_state.shape}, "
                f"trans {self.theta_trans.shape}"
            )
        if h < 1 or y < 2:
            raise InvalidInputError("need at least 1 hidden state and 2 labels")
        for block in (self.theta_obs, self.theta_state, self.theta_trans):
            if not np.isfinite(block).all():
                raise InvalidInputError("non-finite parameter values")

    @property
    def num_hidden_states(self) -> int:
        return self.theta_obs.shape[0]

    @property
    def num_labels(self) -> int:
        return self.theta_state.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.theta_obs.shape[1]

    @classmethod
    def random(
        cls,
        num_hidden_states: int,
        num_labels: int,
        feature_dim: int,
        rng: np.random.Generator,
        scale: float = 0.01,
    ) -> "HcrfParameters":
        """Small symmetric-uniform init; all-zero is a saddle of the
        hidden-state exchange symmetry, so training starts here."""
        h, y, d = num_hidden_states, num_labels, feature_dim
        return cls(
            rng.uniform(-scale, scale, size=(h, d)),
            rng.uniform(-scale, scale, size=(y, h)),
            rng.uniform(-scale, scale, size=(y, h, h)),
        )

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.theta_obs.ravel(), self.theta_state.ravel(), self.theta_trans.ravel()]
        )

    @staticmethod
    def split_vector(
        vec: np.ndarray, num_hidden_states: int, num_labels: int, feature_dim: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (H, D) observation, (Y, H) state and (Y, H, H) transition
        blocks of a flat vector in ``as_vector`` order, as views of it;
        only the vector's length is checked."""
        h, y, d = num_hidden_states, num_labels, feature_dim
        sizes = (h * d, y * h, y * h * h)
        if vec.shape != (sum(sizes),):
            raise InvalidInputError(
                f"a vector of shape {vec.shape} and parameters for {h} states, {y} labels "
                f"and dim {d} do not match"
            )
        a, b = sizes[0], sizes[0] + sizes[1]
        return vec[:a].reshape(h, d), vec[a:b].reshape(y, h), vec[b:].reshape(y, h, h)

    @classmethod
    def from_vector(
        cls, vec: np.ndarray, num_hidden_states: int, num_labels: int, feature_dim: int
    ) -> "HcrfParameters":
        return cls(*cls.split_vector(vec, num_hidden_states, num_labels, feature_dim))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 0, shifted by the maximum so the largest
    term is exp(0) = 1: finite and exact to rounding for any finite input,
    however large its magnitude.  Reducing the leading axis lets numpy
    add whole trailing slices elementwise, in index order."""
    m = a.max(axis=0)
    return np.log(np.exp(a - m).sum(axis=0)) + m


def emission_blocks(
    parts: list[np.ndarray], sparse: SparseRows | None, theta_obs: np.ndarray, window: int
) -> list[np.ndarray]:
    """Scores ``x_r · W_kᵀ`` of rows against each of the 2w+1 column
    blocks ``W_k`` of the (H, (2w+1) D) ``theta_obs``: ``blocks[k]`` is
    the (R, H) scores of the R rows of ``parts`` stacked in order,
    consecutive runs of rows each given by its dense (R_i, D') columns;
    ``sparse``, if given, holds their (R, V) columns that come first.
    The sparse block is scored in one call, whose rows add their entries
    in the same order however the parts are stacked, and each part's
    dense rows get a matmul of their own, so a part's scores are bitwise
    what it gives alone; a single dense part's product is the block
    itself.  Block k scores the rows as the neighbours at offset k - w
    of the positions :meth:`ChainLayout.neighbours` gathers them into,
    so the (2w+1) D windowed vectors are never built."""
    width = 0 if sparse is None else sparse.width
    dim = width + parts[0].shape[1]
    blocks = []
    for k in range(2 * window + 1):
        weights = theta_obs if window == 0 else theta_obs[:, k * dim : (k + 1) * dim]
        if sparse is None:
            products = [part @ weights.T for part in parts]
            blocks.append(products[0] if len(parts) == 1 else np.concatenate(products))
            continue
        scores = sparse.dot(weights[:, :width])
        dense = weights[:, width:].T
        start = 0
        for part in parts:
            scores[start : start + part.shape[0]] += part @ dense
            start += part.shape[0]
        blocks.append(scores)
    return blocks


def neighbour_rows(blocks: list[np.ndarray], neighbours: np.ndarray) -> np.ndarray:
    """(K, R, H) rows of the K (R', H) ``blocks`` at the (K, R)
    ``neighbours`` of :meth:`ChainLayout.neighbours`: ``out[k, r]`` is
    row ``neighbours[k, r]`` of ``blocks[k]``, and zero where that index
    is R', one past the last row.  Summed over k, the per-shift scores of
    :func:`emission_blocks` give the emission scores under a context
    window, added shift by shift in order."""
    num_rows, num_h = blocks[0].shape
    padded = np.zeros((len(blocks), num_rows + 1, num_h))
    for k, block in enumerate(blocks):
        padded[k, :num_rows] = block
    return padded[np.arange(len(blocks))[:, None], neighbours]


def run_indices(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The indices of the runs ``starts[i]:stops[i]``, laid end to end."""
    counts = stops - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


@dataclass(frozen=True, eq=False)
class SequenceBlock:
    """N sequences stacked, the one unit that passes from the feature
    pipeline to the learners and predictors: sequence i, named
    ``doc_ids[i]``, is rows ``bounds[i]:bounds[i + 1]`` of the dense
    (U, D') ``features`` and of the (U, V) ``sparse`` block, if there is
    one, whose columns come first, so a vector is the sparse block's row
    followed by the dense row and D = V + D'.

    The block is checked once at construction, for all of its
    sequences: every sequence has at least one row, every dense value is
    finite, and the sparse entries are in row order, so that each
    sequence's entries are one run of them (``SparseRows`` checks their
    columns and values)."""

    doc_ids: tuple[str, ...]
    features: np.ndarray
    sparse: SparseRows | None
    bounds: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        bounds = np.asarray(self.bounds, dtype=np.intp)
        if feats.ndim != 2:
            raise InvalidInputError(f"features must be 2-D (U, D), got shape {feats.shape}")
        if bounds.shape != (len(self.doc_ids) + 1,) or bounds[0] != 0 or bounds[-1] != len(feats):
            raise InvalidInputError(
                f"sequence bounds {bounds.tolist()} do not split {len(feats)} rows "
                f"into {len(self.doc_ids)} sequences"
            )
        empty = np.flatnonzero(bounds[1:] <= bounds[:-1])
        if empty.size:
            raise InvalidInputError(
                f"{self.doc_ids[empty[0]]}: a sequence needs at least one segment"
            )
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if bad.size:
            doc = np.searchsorted(bounds, bad[0], side="right") - 1
            raise InvalidInputError(f"{self.doc_ids[doc]}: non-finite feature values")
        sparse = self.sparse
        if sparse is not None:
            if sparse.num_rows != len(feats):
                raise InvalidInputError(
                    f"{sparse.num_rows} sparse rows for {len(feats)} segments"
                )
            if (sparse.rows[1:] < sparse.rows[:-1]).any():
                raise InvalidInputError("sparse entries out of order")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "bounds", bounds)

    @property
    def dim(self) -> int:
        width = 0 if self.sparse is None else self.sparse.width
        return width + self.features.shape[1]

    def subblock(self, ids) -> "SequenceBlock":
        """Sequences ``ids`` (indices into the block, in the order given)
        as a block of their own: their rows, and their runs of the sparse
        entries, which this block has checked already."""
        ids = np.asarray(ids, dtype=np.intp)
        lo, hi = self.bounds[ids], self.bounds[ids + 1]
        bounds = np.zeros(ids.size + 1, dtype=np.intp)
        np.cumsum(hi - lo, out=bounds[1:])
        sparse = self.sparse
        if sparse is not None:
            cuts = np.searchsorted(sparse.rows, self.bounds)
            entries = run_indices(cuts[ids], cuts[ids + 1])
            shift = np.repeat(lo - bounds[:-1], cuts[ids + 1] - cuts[ids])
            sparse = SparseRows(
                sparse.rows[entries] - shift,
                sparse.indices[entries],
                sparse.values[entries],
                int(bounds[-1]),
                sparse.width,
                sparse.offset,
                checked=True,
            )
        doc_ids = tuple(map(self.doc_ids.__getitem__, ids.tolist()))
        return SequenceBlock(doc_ids, self.features[run_indices(lo, hi)], sparse, bounds)


class Predictor(Protocol):
    """What every trained model offers: the (N, Y) label posteriors of
    the sequences of ``SequenceBlock``s, one row per sequence, whose
    argmax is the prediction (exact ties go to the lowest label index),
    and the hyperparameters it was fit with."""

    def posterior_blocks(self, blocks: Iterable[SequenceBlock]) -> np.ndarray: ...

    def describe(self) -> dict: ...


def node_scores(emission: np.ndarray, theta_state: np.ndarray) -> np.ndarray:
    """(H, Y, R) per-label node scores of R packed rows from their (R, H)
    emission scores: each row's emission plus the (Y, H) label-state
    weight of each hidden state.  The rows keep their packed order
    (:class:`ChainLayout`), so :func:`forward` reads position j's block
    as one slice of the last axis."""
    num_rows, num_h = emission.shape
    out = np.empty((num_h, theta_state.shape[0], num_rows))
    np.add(emission.T[:, None], theta_state.T[:, :, None], out=out)
    return out


@dataclass(frozen=True, eq=False)
class ChainLayout:
    """N chains sorted by non-increasing length, as the kernel lays them
    out: ``active[j]``, for j in [0, Lmax], counts the chains still
    running at position j, which are the first ``active[j]`` chains.
    Their R = sum of lengths rows are packed position-major: rows
    ``starts[j]:starts[j + 1]`` hold position j of those ``active[j]``
    chains, in chain order, so nothing pads them.  Validated at
    construction; a training fit builds it once, and prediction once per
    block, both by :meth:`by_length`."""

    lengths: np.ndarray  # (N,) non-increasing, all >= 1
    active: tuple[int, ...] = field(init=False)
    starts: tuple[int, ...] = field(init=False)  # (Lmax + 1,), starts[-1] = R

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.intp)
        if (
            lengths.ndim != 1
            or lengths.shape[0] < 1
            or (lengths[1:] > lengths[:-1]).any()
            or lengths[-1] < 1
        ):
            raise InvalidInputError(
                f"chain lengths must be a non-increasing vector of positive lengths, "
                f"got {lengths.tolist()}"
            )
        object.__setattr__(self, "lengths", lengths)
        active = np.searchsorted(-lengths, -np.arange(lengths[0] + 1))
        object.__setattr__(self, "active", tuple(active.tolist()))
        object.__setattr__(self, "starts", (0, *np.cumsum(active[:-1]).tolist()))

    @classmethod
    def by_length(cls, lengths: np.ndarray) -> tuple[np.ndarray, "ChainLayout"]:
        """The order that sorts chains of ``lengths`` by non-increasing
        length, stably, and the layout of the chains in that order."""
        order = np.argsort(-lengths, kind="stable")
        return order, cls(lengths[order])

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The (R,) position and (R,) chain of each packed row."""
        running = np.array(self.active[:-1])
        return np.nonzero(np.arange(self.lengths.shape[0]) < running[:, None])

    def packing(self) -> np.ndarray:
        """(R,) index of each packed row among the chains' rows stacked
        chain by chain (chain 0's rows in order, then chain 1's, ...)."""
        positions, chains = self.rows()
        return (np.cumsum(self.lengths) - self.lengths)[chains] + positions

    def neighbours(self, window: int) -> np.ndarray:
        """(2w+1, R) context window of each packed row: ``[k, r]`` is the
        packed row of the same chain k - w positions on from row r, or R
        where that falls past either end of the chain."""
        positions, chains = self.rows()
        target = positions + np.arange(-window, window + 1)[:, None]
        inside = (target >= 0) & (target < self.lengths[chains])
        rows = np.array(self.starts)[np.where(inside, target, 0)] + chains
        return np.where(inside, rows, self.starts[-1])


class KernelPlan:
    """The arrays of :func:`forward` and :func:`backward` for H states and
    Y labels on the chains of ``layout``, and each step's views into
    them, laid out once, so that the calls of a training fit reuse them
    and look nothing up.

    ``alpha`` is (Lmax, H, Y, N) and -inf on padding; step j (positions
    j-1 to j, over the ``a = active[j]`` running chains) has its own
    contiguous (H, H, Y, a) factors and (H, Y, a) sums and peaks.  The
    backward arrays, (Lmax, H, Y, N) ``state`` and (Lmax-1, H, H, Y, N)
    ``pair``, are made at the first backward call, so a plan used only
    to predict never holds them; their padding is 0.  Padding is filled
    when an array is made and never written after.  ``last`` holds the
    (H, Y, N) flat indices into ``alpha`` of each chain's last position.

    A forward call overwrites what the last one on the plan left, so a
    :class:`ForwardPass` holds only until the next forward call on its
    plan, and :func:`backward` refuses one that a later call has
    overwritten."""

    def __init__(self, layout: ChainLayout, num_hidden_states: int, num_labels: int):
        if num_hidden_states < 1 or num_labels < 1:
            raise InvalidInputError("a plan needs at least 1 hidden state and 1 label")
        lengths, active, starts = layout.lengths, layout.active, layout.starts
        num_h, num_y, num = num_hidden_states, num_labels, lengths.shape[0]
        max_len = len(active) - 1
        self.layout = layout
        self.num_hidden_states, self.num_labels = num_h, num_y
        self.alpha = alpha = np.full((max_len, num_h, num_y, num), -np.inf)
        cells = np.arange(num_h * num_y * num).reshape(num_h, num_y, num)
        self.last = (lengths - 1) * cells.size + cells
        running = active[1:max_len]
        self.factors = tuple(np.empty((num_h, num_h, num_y, a)) for a in running)
        self.sums = tuple(np.empty((num_h, num_y, a)) for a in running)
        self.forward_steps = tuple(
            (
                alpha[j - 1, :, None, :, :a],
                factors,
                np.empty((num_h, num_y, a)),
                sums,
                alpha[j, ..., :a],
                slice(starts[j], starts[j] + a),
            )
            for j, a, factors, sums in zip(range(1, max_len), running, self.factors, self.sums)
        )
        self.calls = 0  # forward calls made on the plan
        self._backward = None
        self._row_cells = None

    def row_cells(self) -> np.ndarray:
        """(R, H) flat indices, into an (Lmax, H, N) array, of the H cells
        of each packed row, so that ``a.take(row_cells())`` packs a
        position-major per-state array such as ``state.sum(axis=2)``;
        made at the first call."""
        if self._row_cells is None:
            positions, chains = self.layout.rows()
            num_h, num = self.num_hidden_states, self.layout.lengths.shape[0]
            first = positions * (num_h * num) + chains
            self._row_cells = first[:, None] + num * np.arange(num_h)
        return self._row_cells

    def backward_arrays(self):
        """``state``, ``pair`` and the backward steps' views, last step
        first; made at the first call."""
        if self._backward is None:
            alpha, active = self.alpha, self.layout.active
            state = np.zeros(alpha.shape)
            pair = np.zeros((alpha.shape[0] - 1, self.num_hidden_states) + alpha.shape[1:])
            steps = []
            for j in range(alpha.shape[0] - 1, 0, -1):
                a = active[j]
                ahead = np.empty((self.num_hidden_states, self.num_labels, a))
                steps.append(
                    (
                        state[j, ..., :a],
                        self.sums[j - 1],
                        ahead,
                        ahead[:, None],
                        self.factors[j - 1].transpose(1, 0, 2, 3),
                        pair[j - 1, ..., :a],
                        state[j - 1, ..., :a],
                    )
                )
            self._backward = state, pair, tuple(steps)
        return self._backward


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """The forward recursion's results for Y labels times the N chains of
    its ``plan``, kept there for :func:`backward`.  ``alpha`` is
    position-major (Lmax, H, Y, N) and -inf on padding.  Step j
    (positions j-1 to j) of the recursion keeps, for its ``a =
    active[j]`` chains only,

    * ``factors[j-1]``, (from, to, Y, a): ``exp(alpha[j-1, f] + trans[f, t]
      - peak[t])``, with ``peak[t]`` the maximum over f, so every factor
      is in [0, 1];
    * ``sums[j-1]``, (to, Y, a): their sum over f, in [1, H];

    so that ``alpha[j, t] = log(sums[j-1][t]) + peak[t] + node[j, t]``."""

    log_z: np.ndarray  # (Y, N): log sum over latent paths
    alpha: np.ndarray
    factors: tuple[np.ndarray, ...]  # Lmax-1 steps
    sums: tuple[np.ndarray, ...]
    plan: KernelPlan
    call: int  # which forward call on the plan made the pass


@dataclass(frozen=True)
class ChainPosteriors:
    """Latent-state posteriors of every (label, chain), each scaled by
    that pair's weight, position-major and exactly 0 on padding:

    * ``state[j, h, y, n] = w[y, n] * P(h_j = h | y, x_n)``;
    * ``pair[j, k, h, y, n] = w[y, n] * P(h_j = h, h_{j+1} = k | y, x_n)``,
      the later state first.
    """

    state: np.ndarray  # (Lmax, H, Y, N)
    pair: np.ndarray  # (Lmax-1, H, H, Y, N)


def forward(node: np.ndarray, trans: np.ndarray, plan: KernelPlan) -> ForwardPass:
    """Log-space forward recursion over every label and chain at once.

    ``node`` is the (H, Y, R) scores of the packed rows of the plan's
    layout, from :func:`node_scores`; ``trans`` is the (Y, H, H)
    transition block.  Since the chains still running at position j are
    the prefix ``[:active[j]]``, and position j's rows are one slice of
    ``node``, each step updates ``alpha[j, ..., :active[j]]`` with no
    mask and no arithmetic on padding, and ``log_z`` gathers each
    chain's ``alpha`` at its own last position.  Every per-chain value
    comes from the same elementwise operations as for that chain alone,
    so it is bitwise what a one-chain call gives.

    The recursion runs position-major, with the transitions held as
    (from, to, Y, 1); every log-sum-exp reduces the leading state axis.
    Each step forms its max-shifted exponentials and their sums in the
    plan's arrays for that step, which :func:`backward` reads as the
    pass's ``factors`` and ``sums``.
    """
    num_h, num_y, rows = plan.num_hidden_states, plan.num_labels, plan.layout.starts[-1]
    if node.shape != (num_h, num_y, rows) or trans.shape != (num_y, num_h, num_h):
        raise InvalidInputError(
            f"chain lengths {plan.layout.lengths.tolist()} ({rows} rows), {num_h} states and "
            f"{num_y} labels do not fit node scores of shape {node.shape} and transitions "
            f"of shape {trans.shape}"
        )
    alpha = plan.alpha
    alpha[0] = node[..., : alpha.shape[3]]
    fwd = trans.transpose(1, 2, 0)[..., None]  # (from, to, Y, 1)
    for prev, scaled, peak, total, out, rows in plan.forward_steps:
        np.add(prev, fwd, out=scaled)
        scaled.max(axis=0, out=peak)
        scaled -= peak
        np.exp(scaled, out=scaled)
        scaled.sum(axis=0, out=total)
        np.log(total, out=out)
        out += peak
        out += node[..., rows]
    log_z = _logsumexp(alpha.take(plan.last))  # (Y, N)
    plan.calls += 1
    return ForwardPass(log_z, alpha, plan.factors, plan.sums, plan, plan.calls)


def backward(fwd: ForwardPass, weights: np.ndarray) -> ChainPosteriors:
    """The reverse-mode adjoint of :func:`forward`: weighted posteriors.

    ``weights`` is (Y, N), one weight per label and chain: training
    passes P(y | x) - 1[y = gold], so the posteriors sum straight into
    the likelihood gradient, and a weight of 1 gives the plain ones.
    Each chain's last position is seeded with ``w * exp(alpha - log Z)``,
    its weighted end-state posteriors.  Step j then runs back over the
    ``active[j]`` chains still running at position j: since
    ``alpha[j, t]`` depends on ``alpha[j-1, f]`` through
    ``factors[j-1][f, t] / sums[j-1][t]``, the weighted pair posterior is
    ``factors[j-1][f, t] * state[j, t] / sums[j-1][t]`` and its sum over
    t is ``state[j-1, f]``.  That is one divide, one multiply and one sum
    per step, with no exp, log or max, on values no larger than the
    weight in magnitude.  Nothing writes padding, which stays exactly 0,
    and like :func:`forward` every chain's outputs are bitwise what it
    gives alone.  The outputs are the plan's arrays, overwritten by the
    next backward call on it.
    """
    plan = fwd.plan
    if fwd.call != plan.calls:
        raise InvalidInputError("a later forward call on the plan has overwritten this pass")
    if weights.shape != fwd.log_z.shape:
        raise InvalidInputError(f"weights of shape {weights.shape}, expected {fwd.log_z.shape}")
    state, pair, steps = plan.backward_arrays()
    seed = np.exp(fwd.alpha.take(plan.last) - fwd.log_z)
    seed *= weights
    state.reshape(-1)[plan.last] = seed
    for later, sums, ahead, spread, factors, joint, earlier in steps:
        np.divide(later, sums, out=ahead)
        np.multiply(factors, spread, out=joint)
        joint.sum(axis=0, out=earlier)
    return ChainPosteriors(state, pair)


def label_log_posteriors(log_z: np.ndarray) -> np.ndarray:
    """log P(y | x) from (Y, ...) per-label log-partitions, along axis 0."""
    return log_z - _logsumexp(log_z)
