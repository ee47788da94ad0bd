import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import InvalidInputError
from opinionchain.features.standardize import Standardizer, fit_standardizer


def test_constant_column_maps_to_zeros():
    matrix = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
    std = fit_standardizer(matrix)
    out = std.apply(matrix)
    np.testing.assert_array_equal(out[:, 0], np.zeros(3))


def test_two_point_column_population_convention():
    std = fit_standardizer(np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(std.apply(np.array([[0.0], [2.0]])), [[-1.0], [1.0]])


def test_train_statistics_after_apply():
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((200, 7)) * rng.uniform(0.5, 4.0, 7) + rng.uniform(
        -3, 3, 7
    )
    std = fit_standardizer(matrix)
    out = std.apply(matrix)
    assert np.abs(out.mean(axis=0)).max() <= 1e-12
    np.testing.assert_allclose(out.std(axis=0, ddof=0), np.ones(7), atol=1e-9)


def test_apply_to_new_rows_uses_training_statistics():
    train = np.array([[0.0], [2.0]])
    std = fit_standardizer(train)
    np.testing.assert_allclose(std.apply(np.array([[4.0]])), [[3.0]])


def test_width_mismatch_rejected():
    std = fit_standardizer(np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        std.apply(np.zeros((3, 5)))


def test_constructor_validation():
    with pytest.raises(InvalidInputError):
        Standardizer(mean=np.zeros(2), std=np.array([-1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        Standardizer(mean=np.zeros(2), std=np.zeros(3))
    with pytest.raises(InvalidInputError):
        fit_standardizer(np.zeros((0, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6))
def test_apply_is_affine_and_fit_centers(seed, rows, cols):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols))
    std = fit_standardizer(matrix)
    out = std.apply(matrix)
    assert np.abs(out.mean(axis=0)).max() <= 1e-10
    nondegenerate = matrix.std(axis=0) > 0
    if nondegenerate.any():
        np.testing.assert_allclose(
            out[:, nondegenerate].std(axis=0), 1.0, atol=1e-9
        )


def test_sparse_columns_fit_like_their_dense_rows():
    """Leading columns given by their nonzero entries get the statistics
    of the same columns built densely, to rounding; a column with no
    entry gets mean and std exactly 0."""
    rng = np.random.default_rng(4)
    num_rows, width = 40, 6
    present = rng.uniform(size=(num_rows, width)) < 0.3
    sparse = np.where(present, rng.uniform(0, 2, (num_rows, width)), 0.0)
    sparse[:, 2] = 0.0
    rest = rng.standard_normal((num_rows, 3))
    rows, indices = np.nonzero(sparse)
    got = fit_standardizer(rest, (indices, sparse[rows, indices], width))
    want = fit_standardizer(np.hstack([sparse, rest]))
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.std, want.std, rtol=1e-13, atol=0)
    assert got.mean[2] == got.std[2] == 0.0
    assert np.array_equal(got.mean[width:], want.mean[width:])
    empty = fit_standardizer(rest, (np.zeros(0, dtype=np.intp), np.zeros(0), width))
    assert np.array_equal(empty.mean[:width], np.zeros(width))
    assert np.array_equal(empty.std[:width], np.zeros(width))
