"""Document-level logistic regression over averaged sequence features.

The baseline collapses each sequence of a ``model.SequenceBlock`` to the
mean of its per-segment vectors (``document_vectors``) and fits a binary
ℓ2-regularized logistic model with the shared quasi-Newton optimizer.
The intercept is left out of the penalty so that heavy regularization
falls back to the majority class rather than to a coin flip.  Each fit
logs one line with the optimizer's status, at WARNING when it did not
converge.  The sigmoid is computed in numpy (``_sigmoid``), so the
baseline needs nothing else.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import SequenceBlock, scatter_add

log = logging.getLogger(__name__)

# inverse regularization strengths swept by the reference protocol
DEFAULT_C_GRID = (0.1, 0.5, 1.0, 10.0, 100.0)


@dataclass(frozen=True, eq=False)
class LogRegModel:
    weights: np.ndarray  # (D,)
    intercept: float
    c: float  # inverse regularization strength used to fit

    def __post_init__(self):
        if self.weights.ndim != 1:
            raise InvalidInputError("weights must be one-dimensional")
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.intercept):
            raise InvalidInputError("logistic model has non-finite parameters")
        if self.c <= 0:
            raise InvalidInputError("inverse regularization strength must be positive")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def document_vectors(block: SequenceBlock) -> np.ndarray:
    """(N, D) mean vectors of the N sequences of ``block``: a sparse
    block's column sums, added up from its entries in their order, plus
    the offset row times the sequence's length, over the length, then
    the dense rows' mean.  Each row is bitwise what the sequence gives
    in a block of its own."""
    features, sparse, bounds = block.features, block.sparse, block.bounds
    runs = bounds.tolist()
    means = np.array([features[lo:hi].mean(axis=0) for lo, hi in zip(runs, runs[1:])])
    means = means.reshape(len(runs) - 1, features.shape[1])
    if sparse is None:
        return means
    num, width, lengths = len(runs) - 1, sparse.width, np.diff(bounds).astype(np.float64)
    run = np.repeat(np.arange(num), np.diff(bounds))[sparse.rows]
    sums = scatter_add(run * width + sparse.indices, sparse.values, num * width)
    sums = sums.reshape(num, width)
    if sparse.offset is not None:
        sums += np.outer(lengths, sparse.offset)
    return np.concatenate([sums / lengths[:, None], means], axis=1)


def _sigmoid(z):
    """1 / (1 + exp(-z)), elementwise, with exp taken only of -|z|, so
    it neither overflows nor warns."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _objective_factory(matrix, targets, c):
    """The objective in the optimizer's value-first form: the residual
    and ``matrix.T @ residual`` are formed only when the gradient is
    asked for."""
    n_features = matrix.shape[1]

    def fun(x):
        w, b = x[:n_features], x[n_features]
        z = matrix @ w + b
        value = float(np.sum(np.logaddexp(0.0, z)) - targets @ z)
        value += 0.5 / c * float(w @ w)

        def gradient():
            residual = _sigmoid(z) - targets
            grad = np.empty_like(x)
            grad[:n_features] = matrix.T @ residual + w / c
            grad[n_features] = residual.sum()
            return grad

        return value, gradient

    return fun


def train_logreg(
    doc_vectors: np.ndarray,
    labels,
    c: float = 1.0,
    seed: int = 0,
    max_iterations: int = 500,
) -> LogRegModel:
    """Fit by minimizing cross-entropy + ‖w‖²/(2c), intercept unpenalized."""
    matrix = np.asarray(doc_vectors, dtype=np.float64)
    targets = np.asarray(labels, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise InvalidInputError("doc_vectors must be a nonempty (N, D) matrix")
    if targets.shape != (matrix.shape[0],):
        raise InvalidInputError("labels must align with doc_vectors rows")
    present = set(targets.tolist())
    if not present <= {0.0, 1.0}:
        raise InvalidInputError("labels must be 0 or 1")
    if len(present) < 2:
        raise InvalidInputError("training data contains a single class")
    if c <= 0:
        raise InvalidInputError("inverse regularization strength must be positive")

    from .optimize import minimize  # only a fit needs the optimizer

    rng = np.random.default_rng(seed)
    x0 = 0.01 * rng.standard_normal(matrix.shape[1] + 1)
    result = minimize(
        _objective_factory(matrix, targets, c),
        x0,
        max_iterations=max_iterations,
        grad_tolerance=1e-8,
    )
    log.log(
        logging.INFO if result.status == "converged" else logging.WARNING,
        "logreg training %s after %d iterations and %d evaluations, objective %.6f",
        result.status,
        len(result.trace) - 1,
        result.evaluations,
        result.trace[-1].objective,
    )
    return LogRegModel(
        weights=result.x[:-1].copy(), intercept=float(result.x[-1]), c=float(c)
    )


@dataclass(frozen=True, eq=False)
class LogRegPredictor:
    """Block-in, label-out wrapper: average each sequence's segments,
    then score."""

    model: LogRegModel

    def posterior_blocks(self, blocks) -> np.ndarray:
        """(N, 2) rows [P(label 0), P(label 1)], one per sequence of
        ``blocks`` (any iterable of ``SequenceBlock``s, read once); exact
        0.5 gives label 0 as the argmax.  Each document is scored on its
        own averaged vector: a matrix-vector product over all of them
        could round differently."""
        model = self.model
        probs = []
        for block in blocks:
            if block.dim != model.dim:
                raise InvalidInputError(
                    f"expected a vector of dimension {model.dim}, got shape {(block.dim,)}"
                )
            for vec in document_vectors(block):
                probs.append(float(_sigmoid(model.weights @ vec + model.intercept)))
        probs = np.array(probs)
        return np.stack([1.0 - probs, probs], axis=1)

    def describe(self) -> dict:
        return {"model": "logreg", "c": self.model.c}
