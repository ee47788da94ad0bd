"""Regularized sequence-likelihood training.

The objective is the negative log-likelihood of the gold labels plus
(lambda/2) * squared Frobenius norm over all parameter blocks, so the
regularizer's gradient is exactly lambda * theta.  The likelihood
gradient is the usual expected-count difference: conditional state and
pair posteriors weighted by (P(y|x) - 1[y = gold]).

``train`` takes the training documents as one ``model.SequenceBlock``
with their labels, validates them and lays them out once per fit
(:func:`group_by_length`): one ragged batch of every sequence, sorted by
non-increasing length, with the block's feature rows kept once,
position by position and unpadded, a sparse block's as its entries, and
the kernel's work arrays (``model.KernelPlan``) made for that layout.
Every objective call reuses both.  It reads the parameters as views of
the optimizer's flat vector, and is value first, as the optimizer asks:
one matmul gives every emission of the packed rows (plus a
gather-and-sum over a sparse block's entries, and one block per shift
of a context window, each shift a gather of the packed rows), from
which the (H, Y, rows) node scores are one sum; the forward recursion
(``model.forward``, the kernel that also computes the label posteriors
at prediction time) gives the log-partitions, and from them the value.
The gradient, taken only when the optimizer asks for it, weights the
same forward pass by P(y|x) - 1[y = gold]: the weighted backward
recursion (``model.backward``, the forward pass's reverse-mode adjoint,
run back through the factors the forward pass kept) returns the
weighted state and pair posteriors of every sequence, and the gradient
blocks are sums of those: the state and transition blocks directly, the
observation block by one matmul of the label-summed state posteriors,
gathered into the packed rows, with the feature rows (a scatter-add
into a sparse block's columns, and one product per shift of a context
window).  The gradient comes back as one flat vector, in
``HcrfParameters.as_vector`` order, which is what the optimizer reads.
Results are bitwise reproducible.

Prediction (``HcrfPredictor.posterior_blocks``) scores blocks of
sequences: one per chunk of ``features.pipeline.SCORING_CHUNK``
documents, as ``predict`` builds them from a corpus's columns, or a
fold's held-out documents.  It never loads the optimizer, which
``train`` imports when it runs.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, check_field_types
from .model import (
    ChainLayout,
    HcrfParameters,
    KernelPlan,
    SequenceBlock,
    SparseRows,
    backward,
    emission_blocks,
    emission_scores,
    forward,
    label_log_posteriors,
    label_posteriors,
    node_scores,
)

if TYPE_CHECKING:
    from .optimize import TraceEntry

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for one training run.

    Reference grids swept elsewhere: hidden states {2..5}, context
    window {0,1,2}, lambda {0.01, 0.05, 0.075, 0.1, 0.25, 0.5, 1}.
    None of the grids is enforced here.
    """

    num_hidden_states: int = 3
    context_window: int = 0
    l2_lambda: float = 0.1
    max_iterations: int = 200
    grad_tolerance: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, InvalidInputError)
        if self.num_hidden_states < 1:
            raise InvalidInputError("num_hidden_states must be >= 1")
        if self.context_window < 0:
            raise InvalidInputError("context_window must be >= 0")
        if self.l2_lambda <= 0:
            raise InvalidInputError("l2_lambda must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.grad_tolerance <= 0:
            raise InvalidInputError("grad_tolerance must be positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")


@dataclass
class TrainingTrace:
    entries: list[TraceEntry]  # accepted iterates; entry 0 is the start
    status: str
    evaluations: int  # objective values taken, backtracks included


@dataclass(frozen=True, eq=False)
class LengthGroups:
    """A validated training set in the packed layout of the
    ``model.forward``/``model.backward`` kernel.

    The chain axis holds every sequence by non-increasing length, in
    block order among equal lengths; ``labels`` (N,) and ``layout``
    (lengths, active-chain counts and each position's first row) follow
    that order.  ``features`` and ``sparse`` are the only copy of the
    training features kept: their (R, ...) rows, R the sum of lengths,
    position-major with no padding, so the block of position j holds the
    rows of the ``active[j]`` chains still running there, in chain
    order; ``sparse`` is None when the sequences have no sparse block.
    ``feature_dim`` is the sequences' dimension D and ``window`` the
    context window the parameters are fit under, so they are
    (H, (2w+1) D).  Under a window, ``neighbours[k]`` (R,) indexes, for
    each row, the row of the same chain k - w positions on, or R (a zero
    row the caller appends) where that is past either end of the chain.
    Built once per fit by :func:`group_by_length`; every objective call
    reuses it, and the kernel plan ``plan(H)`` makes for H states.
    """

    features: np.ndarray
    sparse: SparseRows | None
    labels: np.ndarray
    layout: ChainLayout
    num_labels: int
    feature_dim: int
    window: int = 0
    neighbours: tuple[np.ndarray, ...] = ()
    plans: dict[int, KernelPlan] = field(default_factory=dict, init=False, repr=False)

    def plan(self, num_hidden_states: int) -> KernelPlan:
        """The kernel plan for ``num_hidden_states`` states on this
        layout, made at the first call and reused after."""
        plan = self.plans.get(num_hidden_states)
        if plan is None:
            plan = self.plans[num_hidden_states] = KernelPlan(
                self.layout, num_hidden_states, self.num_labels
            )
        return plan


def group_by_length(
    block: SequenceBlock, labels, num_labels: int, window: int = 0
) -> LengthGroups:
    """Check every document's label, one per sequence of ``block``, then
    lay the block out for :func:`objective_and_gradient` under a context
    window of ``window``: its sequences stacked by non-increasing length
    (``SequenceBlock.subblock``), their rows packed position-major and
    their sparse entries kept in that stacked order, each entry moved to
    its row's packed place."""
    labels = np.asarray(labels, dtype=np.intp)
    if not block.doc_ids:
        raise InvalidInputError("dataset must be nonempty")
    if window < 0:
        raise InvalidInputError("window must be >= 0")
    if labels.shape != (len(block.doc_ids),):
        raise InvalidInputError(
            f"{labels.size} labels for {len(block.doc_ids)} sequences"
        )
    bad = np.flatnonzero((labels < 0) | (labels >= num_labels))
    if bad.size:
        raise InvalidInputError(
            f"{block.doc_ids[bad[0]]}: label {labels[bad[0]]} out of range [0, {num_labels})"
        )
    lengths = np.diff(block.bounds)
    order = np.argsort(-lengths, kind="stable")
    layout = ChainLayout(lengths[order])
    stacked = block.subblock(order)
    packing = layout.packing()
    features = stacked.features[packing]
    starts = np.array(layout.starts)
    sparse = stacked.sparse
    if sparse is not None:
        packed_at = np.empty_like(packing)
        packed_at[packing] = np.arange(packing.size)
        sparse = SparseRows(
            packed_at[sparse.rows],
            sparse.indices,
            sparse.values,
            sparse.num_rows,
            sparse.width,
            sparse.offset,
            checked=True,
        )
    labels = labels[order]
    neighbours = ()
    if window:
        positions, chains = layout.rows()
        ends = layout.lengths[chains]
        neighbours = []
        for offset in range(-window, window + 1):
            target = positions + offset
            inside = (target >= 0) & (target < ends)
            rows = starts[np.where(inside, target, 0)] + chains
            neighbours.append(np.where(inside, rows, len(features)))
        neighbours = tuple(neighbours)
    return LengthGroups(
        features, sparse, labels, layout, num_labels, block.dim, window, neighbours
    )


def _shifted(rows: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """(R, K) rows of ``rows`` gathered by ``neighbours``; index R reads
    zeros."""
    padded = np.concatenate([rows, np.zeros((1, rows.shape[1]))])
    return padded[neighbours]


def _emission_rows(grouped: LengthGroups, theta_obs: np.ndarray) -> np.ndarray:
    """(R, H) emission scores of the packed rows under the context
    window: position j adds block k's score of the row k - w positions
    on, and nothing for a neighbour past either end of the chain, as if
    the windowed vectors were zero-padded there."""
    window = grouped.window
    blocks = emission_blocks([grouped.features], grouped.sparse, theta_obs, window)
    if window == 0:
        return blocks[0][0]
    out = _shifted(blocks[0][0], grouped.neighbours[0])
    for (block,), neighbours in zip(blocks[1:], grouped.neighbours[1:]):
        out += _shifted(block, neighbours)
    return out


def _observation_gradient(grouped: LengthGroups, node_weight: np.ndarray) -> np.ndarray:
    """(H, (2w+1) D) likelihood gradient of ``theta_obs`` from the
    label-summed state posteriors ``node_weight`` (R, H) of the packed
    rows.  Column block k scores the row at offset k - w of each
    position, so its row weights are the node weights of the row
    w - k positions on, zero past the chain ends."""
    feats, sparse, window = grouped.features, grouped.sparse, grouped.window
    blocks = []
    for k in range(2 * window + 1):
        row_weight = (
            node_weight if window == 0
            else _shifted(node_weight, grouped.neighbours[2 * window - k])
        )
        if sparse is None:
            blocks.append(row_weight.T @ feats)
        else:
            blocks.append(sparse.transpose_dot(row_weight))
            blocks.append(row_weight.T @ feats)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def objective_and_gradient(
    grouped: LengthGroups, vec: np.ndarray, num_hidden_states: int, l2_lambda: float
) -> tuple[float, Callable[[], np.ndarray]]:
    """Value of the regularized NLL at the flat parameter vector ``vec``
    (``HcrfParameters.as_vector`` order, ``num_hidden_states`` states)
    over a training set laid out by :func:`group_by_length`, and a
    callable of no arguments for the gradient there, as one vector in
    the same order.  The callable reads the forward pass this call left
    in the layout's kernel plan, so it must be called before the next
    call on the same layout (it raises otherwise), and ``vec`` must not
    change in between."""
    if l2_lambda < 0:
        raise InvalidInputError("l2_lambda must be >= 0")
    model_dim = (2 * grouped.window + 1) * grouped.feature_dim
    theta_obs, theta_state, theta_trans = HcrfParameters.split_vector(
        vec, num_hidden_states, grouped.num_labels, model_dim
    )
    plan = grouped.plan(num_hidden_states)
    labels = grouped.labels
    node = node_scores(_emission_rows(grouped, theta_obs), theta_state)
    chain = forward(node, theta_trans, plan)
    log_post = label_log_posteriors(chain.log_z)  # (Y, N)
    chains = np.arange(labels.shape[0])
    nll = float(-log_post[labels, chains].sum())
    sq_norm = float((theta_obs**2).sum() + (theta_state**2).sum() + (theta_trans**2).sum())
    value = nll + 0.5 * l2_lambda * sq_norm

    def gradient() -> np.ndarray:
        coeff = np.exp(log_post)  # P(y | x) - 1[y = gold], (Y, N)
        coeff[labels, chains] -= 1.0
        post = backward(chain, coeff)
        grad_state = post.state.sum(axis=(0, 3)).T  # (Y, H)
        grad_trans = post.pair.sum(axis=(0, 4)).transpose(2, 1, 0)  # (Y, from, to)
        node_weight = post.state.sum(axis=2).take(plan.row_cells())  # (R, H), over labels
        grad_obs = _observation_gradient(grouped, node_weight)
        grad = np.concatenate([grad_obs.ravel(), grad_state.ravel(), grad_trans.ravel()])
        grad += l2_lambda * vec
        return grad

    return value, gradient


def train(
    block: SequenceBlock, labels, config: TrainingConfig
) -> tuple[HcrfParameters, TrainingTrace]:
    """Fit parameters by quasi-Newton minimization of the objective, on
    the sequences of ``block`` with ``labels``, one per sequence.

    The context window from ``config`` is applied to the emissions, so
    the returned parameters are (H, (2w+1) D) for sequences of dimension
    D, and predicting replays the window.  The model
    has max(2, largest label + 1) labels, and every one of them must
    occur in the training set.
    """
    labels = list(labels)
    if not labels:
        raise InvalidInputError("dataset must be nonempty")
    num_labels = max(2, max(labels) + 1)
    missing = sorted(set(range(num_labels)) - set(labels))
    if missing:
        raise InvalidInputError(f"no training example for label(s) {missing}")

    window = config.context_window
    grouped = group_by_length(block, labels, num_labels, window)
    dim = (2 * window + 1) * grouped.feature_dim
    num_h = config.num_hidden_states

    from .optimize import minimize  # only a fit needs the optimizer

    rng = np.random.default_rng(config.seed)
    init = HcrfParameters.random(num_h, num_labels, dim, rng)

    def fun(vec: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        return objective_and_gradient(grouped, vec, num_h, config.l2_lambda)

    result = minimize(
        fun,
        init.as_vector(),
        max_iterations=config.max_iterations,
        grad_tolerance=config.grad_tolerance,
    )
    theta = HcrfParameters.from_vector(result.x, num_h, num_labels, dim)
    return theta, TrainingTrace(
        entries=result.trace, status=result.status, evaluations=result.evaluations
    )


@dataclass(frozen=True, eq=False)
class HcrfPredictor:
    """Trained parameters plus the context window they were fit under.

    The window is replayed at prediction time, so callers hand in
    blocks with the raw pipeline dimension.
    """

    params: HcrfParameters
    config: TrainingConfig

    def posterior_blocks(self, blocks) -> np.ndarray:
        """(N, Y) label posteriors of the sequences of ``blocks`` (any
        iterable of ``SequenceBlock``s, read once), in order.  Each block's
        dimension is checked once and its emission scores taken by one
        ``emission_scores`` call; only those are kept, so the blocks are
        never held at once.  One kernel call then covers every sequence,
        and each row is bitwise what the sequence alone gives."""
        window, theta_obs = self.config.context_window, self.params.theta_obs
        emissions = []
        for block in blocks:
            if (2 * window + 1) * block.dim != self.params.feature_dim:
                raise InvalidInputError(
                    f"{block.doc_ids[0]}: windowed dim {(2 * window + 1) * block.dim} != "
                    f"model dim {self.params.feature_dim}"
                )
            emissions.extend(emission_scores(block, theta_obs, window))
        return label_posteriors(emissions, self.params)

    def describe(self) -> dict:
        return {
            "model": "hcrf",
            "num_hidden_states": self.config.num_hidden_states,
            "context_window": self.config.context_window,
            "l2_lambda": self.config.l2_lambda,
        }


def fit_predictor(
    block: SequenceBlock, labels, config: TrainingConfig
) -> tuple[HcrfPredictor, TrainingTrace]:
    """train() packaged with the window replay needed at prediction time.

    Logs one line per fit, at WARNING when the optimizer did not converge.
    """
    theta, trace = train(block, labels, config)
    log.log(
        logging.INFO if trace.status == "converged" else logging.WARNING,
        "hcrf training %s after %d iterations and %d evaluations, objective %.6f",
        trace.status,
        len(trace.entries) - 1,
        trace.evaluations,
        trace.entries[-1].objective,
    )
    return HcrfPredictor(params=theta, config=config), trace
