"""The log-space kernel against a 30-digit mpmath reference.

The reference runs forward-backward in probability space on mpmath
numbers, whose exponent range is unbounded, so exp(10^6) neither
overflows nor underflows.  It shares no code with the float64 kernel.
Cases reach L = 500 segments, |theta| = 10^3 and H = 8 states.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

from opinionchain.model import (
    HcrfParameters,
    ObservationSequence,
    log_partition_per_label,
    log_partitions,
    posterior,
)
from opinionchain.training import group_by_length, objective_and_gradient

mp.dps = 30


def mp_reference(features, theta, gold):
    """(log-partitions, posterior, NLL gradient blocks) in mpmath."""
    length, dim = features.shape
    num_h, num_y = theta.num_hidden_states, theta.num_labels
    x = [[mpf(float(v)) for v in row] for row in features]
    w_obs = [[mpf(float(v)) for v in row] for row in theta.theta_obs]
    emission = [[sum(a * b for a, b in zip(x[j], w_obs[h])) for h in range(num_h)]
                for j in range(length)]

    log_z, state_counts, pair_counts = [], [], []
    for y in range(num_y):
        node = [[mp.exp(emission[j][h] + mpf(float(theta.theta_state[y, h])))
                 for h in range(num_h)] for j in range(length)]
        trans = [[mp.exp(mpf(float(v))) for v in row] for row in theta.theta_trans[y]]
        alpha = [node[0]]
        for j in range(1, length):
            prev = alpha[-1]
            alpha.append([node[j][k] * sum(prev[i] * trans[i][k] for i in range(num_h))
                          for k in range(num_h)])
        beta = [[mpf(1)] * num_h]
        for j in range(length - 2, -1, -1):
            ahead = [node[j + 1][k] * beta[0][k] for k in range(num_h)]
            beta.insert(0, [sum(trans[i][k] * ahead[k] for k in range(num_h))
                            for i in range(num_h)])
        z = sum(alpha[-1])
        log_z.append(mp.log(z))
        state_counts.append([[alpha[j][h] * beta[j][h] / z for h in range(num_h)]
                             for j in range(length)])
        pair = [[mpf(0)] * num_h for _ in range(num_h)]
        for j in range(length - 1):
            for i in range(num_h):
                for k in range(num_h):
                    pair[i][k] += alpha[j][i] * trans[i][k] * node[j + 1][k] * beta[j + 1][k] / z
        pair_counts.append(pair)

    top = max(log_z)
    total = top + mp.log(sum(mp.exp(v - top) for v in log_z))
    post = [mp.exp(v - total) for v in log_z]
    coeff = [post[y] - (1 if y == gold else 0) for y in range(num_y)]
    grad_obs = [[sum(coeff[y] * state_counts[y][j][h] * x[j][d]
                     for y in range(num_y) for j in range(length))
                 for d in range(dim)] for h in range(num_h)]
    grad_state = [[coeff[y] * sum(state_counts[y][j][h] for j in range(length))
                   for h in range(num_h)] for y in range(num_y)]
    grad_trans = [[[coeff[y] * pair_counts[y][i][k] for k in range(num_h)]
                   for i in range(num_h)] for y in range(num_y)]

    def as_float(nested):
        return np.array(nested, dtype=object).astype(float)

    return (
        as_float(log_z),
        as_float(post),
        np.concatenate([as_float(g).ravel() for g in (grad_obs, grad_state, grad_trans)]),
    )


def instance(seed, length, num_hidden, scale, dim=3, num_labels=2):
    rng = np.random.default_rng(seed)
    x = ObservationSequence("p", rng.standard_normal((length, dim)))
    theta = HcrfParameters(
        scale * rng.standard_normal((num_hidden, dim)),
        scale * rng.standard_normal((num_labels, num_hidden)),
        scale * rng.standard_normal((num_labels, num_hidden, num_hidden)),
    )
    return x, theta


# (seed, L, H, |theta| scale): long chains, many states, huge weights, and
# a small-weight case whose posterior is not saturated.
CASES = [
    (0, 500, 8, 1.0),
    (1, 500, 3, 1e3),
    (2, 60, 8, 1e3),
    (3, 200, 4, 0.05),
]


@pytest.mark.parametrize("seed, length, num_hidden, scale", CASES)
def test_kernel_matches_mpmath(seed, length, num_hidden, scale):
    x, theta = instance(seed, length, num_hidden, scale)
    gold = 1
    want_log_z, want_post, want_grad = mp_reference(x.features, theta, gold)

    got_log_z = log_partitions(x, theta)
    assert np.isfinite(got_log_z).all()
    np.testing.assert_allclose(got_log_z, want_log_z, rtol=1e-13, atol=0)
    for y in range(theta.num_labels):
        assert log_partition_per_label(y, x, theta) == got_log_z[y]

    # float64 log-partitions of magnitude M carry an absolute error of
    # about M * 1e-16, which is what the log-odds and so the posterior
    # and the gradient's coefficients inherit.
    log_odds_error = 1e-14 * max(1.0, float(np.abs(want_log_z).max()))
    np.testing.assert_allclose(posterior(x, theta), want_post, rtol=0, atol=log_odds_error)

    grouped = group_by_length([(x, gold)], theta.num_labels, theta.feature_dim)
    _, grad = objective_and_gradient(grouped, theta, 0.0)
    got_grad = grad.as_vector()
    count_scale = length * max(1.0, float(np.abs(x.features).max()))
    np.testing.assert_allclose(
        got_grad, want_grad, rtol=0, atol=max(1e-12, log_odds_error) * count_scale
    )
