"""The log-space kernel against high-precision references.

The 30-digit mpmath reference runs forward-backward in probability space
on mpmath numbers, whose exponent range is unbounded, so exp(10^6)
neither overflows nor underflows.  It shares no code with the float64
kernel.  Cases reach L = 500 segments, |theta| = 10^3 and H = 8 states.

mpmath is too slow for longer chains, so the ``np.longdouble`` log-space
recursion of ``oracles.py`` is first checked against it, then used as
the reference for a chain of 10^4 segments batched with short ones.
"""

from functools import lru_cache

import numpy as np
import pytest
from mpmath import mp, mpf

from opinionchain.model import HcrfParameters, backward, forward
from opinionchain.training import group_by_length

from conftest import alone, make_block, packed_kernel, posterior, value_and_gradient
from oracles import log_space_reference, unshifted_logsumexp

mp.dps = 30


def mp_reference(features, theta, gold):
    """(log-partitions, posterior, NLL gradient blocks) as float64, and
    the log-partitions as 30-digit mpmath numbers."""
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
        log_z,
    )


def instance(seed, length, num_hidden, scale, dim=3, num_labels=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((length, dim))
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


@lru_cache(maxsize=None)
def reference(seed, length, num_hidden, scale, gold=1):
    """One case's instance and its mpmath reference, computed once."""
    x, theta = instance(seed, length, num_hidden, scale)
    return x, theta, mp_reference(x, theta, gold)


@pytest.mark.parametrize("seed, length, num_hidden, scale", CASES)
def test_kernel_matches_mpmath(seed, length, num_hidden, scale):
    x, theta, (want_log_z, want_post, want_grad, _) = reference(seed, length, num_hidden, scale)
    gold = 1

    got_log_z = alone(x, theta, np.ones((theta.num_labels, 1)))[0].log_z[:, 0]
    assert np.isfinite(got_log_z).all()
    np.testing.assert_allclose(got_log_z, want_log_z, rtol=1e-13, atol=0)

    # float64 log-partitions of magnitude M carry an absolute error of
    # about M * 1e-16, which is what the log-odds and so the posterior
    # and the gradient's coefficients inherit.
    log_odds_error = 1e-14 * max(1.0, float(np.abs(want_log_z).max()))
    np.testing.assert_allclose(posterior(x, theta), want_post, rtol=0, atol=log_odds_error)

    grouped = group_by_length(make_block([x]), [gold], theta.num_labels)
    _, got_grad = value_and_gradient(grouped, theta, 0.0)
    count_scale = length * max(1.0, float(np.abs(x).max()))
    np.testing.assert_allclose(
        got_grad, want_grad, rtol=0, atol=max(1e-12, log_odds_error) * count_scale
    )


LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)


@pytest.mark.skipif(
    LONGDOUBLE_EPS > 1e-18, reason="np.longdouble is no wider than float64 on this platform"
)
@pytest.mark.parametrize("seed, length, num_hidden, scale", [c for c in CASES if c[2] == 8])
def test_longdouble_reference_matches_mpmath(seed, length, num_hidden, scale):
    """The longdouble recursion agrees with mpmath to 1e-17 relative, a
    hundred times closer than float64 rounding (1.1e-16).  Measured: at
    most 7.9e-19 over the four mpmath cases (L = 500, H = 8 included),
    about 7 longdouble ulps on x86-64 (eps 1.1e-19)."""
    x, theta, (*_, want) = reference(seed, length, num_hidden, scale)
    got, state = log_space_reference(x, theta)
    for g, w in zip(got, want):
        assert abs(mpf(str(g)) - w) <= 1e-17 * abs(w)
    # each position's posteriors sum to 1 up to the log-partition's
    # absolute rounding, |log Z| * L * eps (measured 1.9e-15 and 4.3e-14)
    drift = np.abs(state.sum(axis=-1) - 1).max()
    assert drift <= float(np.abs(got).max()) * length * LONGDOUBLE_EPS


LONG_LENGTHS = (10_000, 7, 3, 1)  # one long chain batched with short ones


@pytest.mark.skipif(
    LONGDOUBLE_EPS > 1e-18, reason="np.longdouble is no wider than float64 on this platform"
)
def test_ragged_kernel_on_ten_thousand_segments_matches_longdouble():
    """float64 sums one rounding error per position into alpha, so a
    log-partition of L segments may be off by about L * eps64 relative;
    the test allows exactly that (1.1e-12 at L = 10^4).  Measured over
    three seeds: at most 1.4e-13 for the long chain and 2.9e-16 for the
    short ones.  The state posteriors are allowed the log-partition's
    absolute error (|log Z| * L * eps64, about 2e-5 here), which a
    backward recursion in log space inherits (measured 1.2e-6 to 2.5e-6
    over the three seeds).  The backward sweep carries posteriors back
    through the forward pass's normalised factors instead, which hold
    only each step's local rounding, so the test also holds the state
    posteriors to 1e-8 absolute: measured 0.4e-9 to 1.3e-9 over the same
    seeds.  The same recursion with an unshifted log-sum-exp overflows
    to inf at these weights, in float64 and in longdouble alike, and so
    fails the same check."""
    rng = np.random.default_rng(0)
    num_hidden, dim, scale = 4, 3, 1e3
    theta = HcrfParameters(
        scale * rng.standard_normal((num_hidden, dim)),
        scale * rng.standard_normal((2, num_hidden)),
        scale * rng.standard_normal((2, num_hidden, num_hidden)),
    )
    chains = [rng.standard_normal((n, dim)) for n in LONG_LENGTHS]
    node, plan = packed_kernel([x @ theta.theta_obs.T for x in chains], theta)
    chain = forward(node, theta.theta_trans, plan)
    state = backward(chain, np.ones_like(chain.log_z)).state  # (Lmax, H, Y, N)
    eps64 = float(np.finfo(np.float64).eps)

    def within_tolerance(got_log_z, got_state, want_log_z, want_state, length):
        log_z_error = np.abs(got_log_z - want_log_z)
        state_error = np.abs(got_state - want_state)
        with np.errstate(invalid="ignore"):
            return bool(
                np.all(log_z_error <= length * eps64 * np.abs(want_log_z))
                and np.all(state_error <= length * eps64 * np.abs(want_log_z).max())
            )

    # the lengths are sorted and distinct, so row n holds chains[n]; shortest first
    for row in reversed(range(len(chains))):
        x = chains[row]
        want_log_z, want_state = log_space_reference(x, theta)
        got_state = state[: len(x), :, :, row].transpose(2, 0, 1)  # (Y, L, H)
        assert within_tolerance(
            chain.log_z[:, row], got_state, want_log_z, want_state, len(x)
        ), len(x)
        assert np.abs(got_state - want_state).max() <= 1e-8, len(x)

    long_chain = chains[0]
    assert x is long_chain  # the last row checked is the longest: its references are at hand
    for dtype in (np.float64, np.longdouble):
        with np.errstate(over="ignore", invalid="ignore"):
            naive_log_z, naive_state = log_space_reference(
                long_chain, theta, dtype=dtype, lse=unshifted_logsumexp
            )
        assert not within_tolerance(
            naive_log_z, naive_state, want_log_z, want_state, len(long_chain)
        )
