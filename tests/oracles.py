"""Test oracles for the hidden-state chain model, independent of its kernel.

* Path enumeration: every latent path is scored explicitly and the
  scores are summed with scipy's logsumexp.  Exact to rounding, but
  exponential in the sequence length, so it refuses more than
  ``BRUTE_FORCE_MAX_PATHS`` paths.
* A log-space forward-backward in ``np.longdouble`` (64-bit mantissa on
  x86-64, eps about 1.1e-19): the same max-shifted recursion as the
  float64 kernel, written per label and per position with no batching,
  so it is linear in the length and cheap enough for 10^4 segments.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from opinionchain.errors import EnumerationBudgetError, InvalidInputError
from opinionchain.model import HcrfParameters, ObservationSequence

BRUTE_FORCE_MAX_PATHS = 10**6


def _check(x: ObservationSequence, theta: HcrfParameters, y: int | None = None):
    if x.dim != theta.feature_dim:
        raise InvalidInputError(
            f"{x.doc_id}: feature dim {x.dim} != model dim {theta.feature_dim}"
        )
    if y is not None and not 0 <= y < theta.num_labels:
        raise InvalidInputError(f"label index {y} out of range [0, {theta.num_labels})")


def potential(y: int, hidden_states, x: ObservationSequence, theta: HcrfParameters) -> float:
    """Unnormalized log-score of one (label, latent path, observations) triple."""
    _check(x, theta, y)
    h_seq = np.asarray(hidden_states, dtype=np.intp)
    if h_seq.shape != (x.length,):
        raise InvalidInputError(
            f"hidden path length {h_seq.shape} does not match sequence length {x.length}"
        )
    if h_seq.min() < 0 or h_seq.max() >= theta.num_hidden_states:
        raise InvalidInputError("hidden state index out of range")
    emis = x.features @ theta.theta_obs.T
    score = emis[np.arange(x.length), h_seq].sum()
    score += theta.theta_state[y, h_seq].sum()
    if x.length > 1:
        score += theta.theta_trans[y, h_seq[:-1], h_seq[1:]].sum()
    return float(score)


def _enumerate_paths(num_states: int, length: int) -> np.ndarray:
    """All ``num_states**length`` latent paths as a (P, L) index matrix."""
    grids = np.meshgrid(*([np.arange(num_states)] * length), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def brute_force_log_partitions(x: ObservationSequence, theta: HcrfParameters) -> np.ndarray:
    """Per-label log-partitions by explicit path enumeration."""
    _check(x, theta)
    num_paths = theta.num_hidden_states**x.length
    if num_paths > BRUTE_FORCE_MAX_PATHS:
        raise EnumerationBudgetError(
            f"{theta.num_hidden_states}^{x.length} = {num_paths} paths exceeds "
            f"the enumeration budget of {BRUTE_FORCE_MAX_PATHS}"
        )
    paths = _enumerate_paths(theta.num_hidden_states, x.length)
    emis = x.features @ theta.theta_obs.T
    obs_scores = emis[np.arange(x.length)[None, :], paths].sum(axis=1)
    log_z = np.empty(theta.num_labels)
    for y in range(theta.num_labels):
        scores = obs_scores + theta.theta_state[y][paths].sum(axis=1)
        if x.length > 1:
            scores = scores + theta.theta_trans[y][paths[:, :-1], paths[:, 1:]].sum(axis=1)
        log_z[y] = logsumexp(scores)
    return log_z


def brute_force_posterior(x: ObservationSequence, theta: HcrfParameters) -> np.ndarray:
    """Label posterior P(y | x) via explicit enumeration.

    Refuses when ``H**L`` exceeds ``BRUTE_FORCE_MAX_PATHS``.
    """
    log_z = brute_force_log_partitions(x, theta)
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
    x: ObservationSequence,
    theta: HcrfParameters,
    dtype=np.longdouble,
    lse=shifted_logsumexp,
) -> tuple[np.ndarray, np.ndarray]:
    """(log-partitions (Y,), state posteriors (Y, L, H)) of one sequence,
    by a per-label forward-backward in ``dtype`` arithmetic.

    The features and weights are float64; the emissions are summed in
    ``dtype`` from the products of their float64 values.
    """
    _check(x, theta)
    feats = x.features.astype(dtype)
    emission = feats @ theta.theta_obs.T.astype(dtype)  # (L, H)
    length = x.length
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
