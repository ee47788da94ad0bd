"""Per-dimension z-scoring fitted on training folds only.

Population standard deviation (ddof = 0); zero-variance dimensions are
centered but not scaled, so constant columns map to exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # 0.0 marks a centered-only dimension

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise InvalidInputError("mean and std must be equal-length vectors")
        if (std < 0).any() or not np.isfinite(mean).all() or not np.isfinite(std).all():
            raise InvalidInputError("std must be finite and non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def divisor(self) -> np.ndarray:
        """What each dimension is divided by: its std, or 1 if that is 0."""
        return np.where(self.std > 0, self.std, 1.0)

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[-1] != self.dim:
            raise InvalidInputError(
                f"matrix width {matrix.shape[-1]} != standardizer dim {self.dim}"
            )
        centered = matrix - self.mean
        return centered / self.divisor


def fit_standardizer(train_matrix: np.ndarray, sparse_columns=None) -> Standardizer:
    """Fit on the rows of ``train_matrix``.  ``sparse_columns``, if given,
    is ``(indices, values, width)``: ``width`` more columns that come
    before the matrix's, over the same rows, given by their nonzero
    entries' column indices and values.  Their statistics are computed
    from the entries alone, each of the other rows counting as a 0."""
    matrix = np.asarray(train_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise InvalidInputError("need a nonempty 2-D matrix to fit")
    mean, std = matrix.mean(axis=0), matrix.std(axis=0, ddof=0)
    if sparse_columns is not None:
        indices, values, width = sparse_columns
        num_rows = matrix.shape[0]
        sparse_mean = np.bincount(indices, values, minlength=width) / num_rows
        deviation = values - sparse_mean[indices]
        zeros = num_rows - np.bincount(indices, minlength=width)
        squares = np.bincount(indices, deviation * deviation, minlength=width)
        squares = squares + zeros * sparse_mean**2  # bincount gives integers for no entries
        mean = np.concatenate([sparse_mean, mean])
        std = np.concatenate([np.sqrt(squares / num_rows), std])
    return Standardizer(mean=mean, std=std)
