import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.errors import InvalidInputError
from opinionchain.model import (
    ChainLayout,
    HcrfParameters,
    KernelPlan,
    backward,
    forward,
)
from opinionchain.training import HcrfPredictor, TrainingConfig

from conftest import alone, make_block, packed_kernel, posterior, zero_params
from oracles import (
    BRUTE_FORCE_MAX_PATHS,
    EnumerationBudgetError,
    brute_force_log_partitions,
    brute_force_posterior,
    potential,
)


def copy_params(theta):
    return HcrfParameters(
        theta.theta_obs.copy(), theta.theta_state.copy(), theta.theta_trans.copy()
    )


def seq(features, doc_id="t"):
    """One hand-made document's (L, D) rows, checked as a one-document
    block."""
    return make_block([features], [doc_id]).features


def random_instance(rng, length=None, num_hidden=None, dim=None, num_labels=2, scale=0.8):
    length = length or int(rng.integers(1, 7))
    num_hidden = num_hidden or int(rng.integers(1, 5))
    dim = dim or int(rng.integers(1, 6))
    x = seq(rng.standard_normal((length, dim)))
    theta = HcrfParameters(
        scale * rng.standard_normal((num_hidden, dim)),
        scale * rng.standard_normal((num_labels, num_hidden)),
        scale * rng.standard_normal((num_labels, num_hidden, num_hidden)),
    )
    return x, theta


# small-strategy instances for hypothesis: everything derived from one seed so
# shrinking stays meaningful
instance_params = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),  # L
    st.integers(1, 4),  # H
    st.integers(1, 5),  # D
    st.integers(2, 3),  # Y
)


def build(params):
    seed, length, num_hidden, dim, num_labels = params
    rng = np.random.default_rng(seed)
    return random_instance(rng, length, num_hidden, dim, num_labels)


def log_partitions(x, theta):
    """(Y,) log-partitions of one chain, in a kernel call of its own."""
    return alone(x, theta, np.ones((theta.num_labels, 1)))[0].log_z[:, 0]


def marginals(y, x, theta):
    """(state (L, H), pair (L-1, from, to)) posteriors of one chain given
    label ``y``: its weight-1 posteriors, alone in a kernel call."""
    post = alone(x, theta, np.ones((theta.num_labels, 1)))[1]
    return post.state[:, :, y, 0], post.pair[..., y, 0].transpose(0, 2, 1)


def predict(x, theta):
    """The label a predictor reads off the posteriors of ``x``'s block."""
    config = TrainingConfig(num_hidden_states=theta.num_hidden_states)
    posteriors = HcrfPredictor(theta, config).posterior_blocks([make_block([x])])
    return int(posteriors.argmax(axis=1)[0])


class TestConstruction:
    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            seq(np.zeros((0, 3)))

    def test_non_finite_features_rejected(self):
        with pytest.raises(InvalidInputError):
            seq([[np.nan, 0.0]])

    def test_wrong_rank_rejected(self):
        with pytest.raises(InvalidInputError):
            seq(np.zeros(4))

    def test_inconsistent_parameter_shapes_rejected(self):
        with pytest.raises(InvalidInputError):
            HcrfParameters(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3, 3)))

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            HcrfParameters(np.full((1, 1), np.inf), np.zeros((2, 1)), np.zeros((2, 1, 1)))

    def test_vector_round_trip(self):
        rng = np.random.default_rng(3)
        theta = HcrfParameters.random(3, 2, 4, rng)
        back = HcrfParameters.from_vector(theta.as_vector(), 3, 2, 4)
        assert np.array_equal(back.theta_obs, theta.theta_obs)
        assert np.array_equal(back.theta_state, theta.theta_state)
        assert np.array_equal(back.theta_trans, theta.theta_trans)


class TestPotential:
    def test_zero_parameters_score_zero(self):
        theta = zero_params(3, 2, 4)
        x = seq(np.random.default_rng(0).standard_normal((5, 4)))
        assert potential(1, [0, 2, 1, 1, 0], x, theta) == 0.0

    def test_single_segment_has_no_transition_term(self):
        rng = np.random.default_rng(1)
        theta = HcrfParameters.random(2, 2, 3, rng, scale=1.0)
        x = seq(rng.standard_normal((1, 3)))
        expected = float(x[0] @ theta.theta_obs[1] + theta.theta_state[0, 1])
        assert potential(0, [1], x, theta) == pytest.approx(expected, abs=1e-12)

    def test_hand_evaluated_two_segment_score(self):
        """Term-by-term evaluation of a small integer-valued instance."""
        theta = HcrfParameters(
            np.array([[1.0, 2.0], [3.0, -1.0]]),
            np.array([[1.0, -1.0], [2.0, 0.0]]),
            np.array([[[0.0, 1.0], [2.0, 3.0]], [[-1.0, 0.0], [1.0, 2.0]]]),
        )
        x = seq([[1.0, 0.0], [0.0, 2.0]])
        # y=1, h=(0,1): obs 1 + (-2), state 2 + 0, trans 0
        assert potential(1, [0, 1], x, theta) == pytest.approx(1.0, abs=1e-12)
        # y=0, h=(1,1): obs 3 + (-2), state -1 + -1, trans 3
        assert potential(0, [1, 1], x, theta) == pytest.approx(2.0, abs=1e-12)

    def test_bad_hidden_path_rejected(self):
        theta = zero_params(2, 2, 2)
        x = seq([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            potential(0, [0], x, theta)
        with pytest.raises(InvalidInputError):
            potential(0, [0, 2], x, theta)
        with pytest.raises(InvalidInputError):
            potential(2, [0, 0], x, theta)

    def test_dimension_mismatch_rejected(self):
        theta = zero_params(2, 2, 3)
        with pytest.raises(InvalidInputError):
            potential(0, [0, 0], seq([[0.0, 0.0], [0.0, 0.0]]), theta)


class TestLogPartition:
    def test_zero_parameters_give_length_log_states(self):
        theta = zero_params(3, 2, 2)
        x = seq(np.random.default_rng(0).standard_normal((4, 2)))
        for log_z in log_partitions(x, theta):
            assert log_z == pytest.approx(4 * np.log(3), abs=1e-12)

    def test_single_hidden_state_is_single_path_score(self):
        rng = np.random.default_rng(2)
        theta = HcrfParameters.random(1, 2, 3, rng, scale=1.0)
        x = seq(rng.standard_normal((5, 3)))
        want = potential(1, [0] * 5, x, theta)
        assert log_partitions(x, theta)[1] == pytest.approx(want, abs=1e-12)

    def test_matches_explicit_path_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x, theta = random_instance(rng)
            want = brute_force_log_partitions(x, theta)
            got = log_partitions(x, theta)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestPosterior:
    def test_zero_parameters_uniform(self):
        theta = zero_params(2, 2, 3)
        x = seq(np.random.default_rng(5).standard_normal((6, 3)))
        np.testing.assert_allclose(posterior(x, theta), [0.5, 0.5], atol=1e-12)

    def test_single_state_label_symmetric_parameters_ignore_observations(self):
        theta = HcrfParameters(
            np.array([[1.5, -2.0]]),
            np.array([[0.7], [0.7]]),
            np.array([[[0.3]], [[0.3]]]),
        )
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = seq(rng.standard_normal((4, 2)))
            np.testing.assert_allclose(posterior(x, theta), [0.5, 0.5], atol=1e-12)

    def test_single_state_posterior_independent_of_observations(self):
        rng = np.random.default_rng(11)
        theta = HcrfParameters.random(1, 2, 3, rng, scale=1.0)
        a = posterior(seq(rng.standard_normal((4, 3))), theta)
        b = posterior(seq(100.0 * rng.standard_normal((4, 3))), theta)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            x, theta = random_instance(rng)
            np.testing.assert_allclose(
                posterior(x, theta), brute_force_posterior(x, theta), atol=1e-10
            )


class TestPredict:
    def test_clear_argmax(self):
        theta = HcrfParameters(
            np.zeros((1, 1)), np.array([[2.0], [-2.0]]), np.zeros((2, 1, 1))
        )
        assert predict(seq([[0.0], [0.0]]), theta) == 0

    def test_exact_tie_goes_to_lowest_index(self):
        theta = zero_params(2, 2, 1)
        assert predict(seq([[1.0]]), theta) == 0

    def test_state_bias_shift_preserves_prediction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, theta = random_instance(rng)
            shifted = copy_params(theta)
            shifted.theta_state = shifted.theta_state + 3.7
            assert predict(x, theta) == predict(x, shifted)


class TestMarginals:
    def test_zero_parameters_uniform(self):
        theta = zero_params(3, 2, 2)
        x = seq(np.random.default_rng(0).standard_normal((4, 2)))
        state, pair = marginals(0, x, theta)
        np.testing.assert_allclose(state, 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(pair, 1.0 / 9.0, atol=1e-12)

    def test_single_state_all_ones(self):
        rng = np.random.default_rng(4)
        theta = HcrfParameters.random(1, 2, 2, rng, scale=1.0)
        state, pair = marginals(1, seq(rng.standard_normal((3, 2))), theta)
        np.testing.assert_allclose(state, 1.0, atol=1e-12)
        np.testing.assert_allclose(pair, 1.0, atol=1e-12)

    def test_matches_brute_force_path_sums(self):
        """Normalize explicit path scores and accumulate state/pair counts."""
        rng = np.random.default_rng(10)
        for _ in range(15):
            x, theta = random_instance(rng)
            y = int(rng.integers(theta.num_labels))
            want_state, want_pair = path_sum_marginals(y, x, theta)
            state, pair = marginals(y, x, theta)
            np.testing.assert_allclose(state, want_state, atol=1e-10)
            if len(x) > 1:
                np.testing.assert_allclose(pair, want_pair, atol=1e-10)


def path_sum_marginals(y, x, theta):
    """(state (L, H), pair (L-1, H, H)) posteriors given label ``y``, by
    normalizing the explicit score of every latent path."""
    from itertools import product

    num_h = theta.num_hidden_states
    paths = list(product(range(num_h), repeat=len(x)))
    scores = np.array([potential(y, p, x, theta) for p in paths])
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    state = np.zeros((len(x), num_h))
    pair = np.zeros((len(x) - 1, num_h, num_h))
    for w, p in zip(weights, paths):
        for j, h in enumerate(p):
            state[j, h] += w
        for j in range(len(x) - 1):
            pair[j, p[j], p[j + 1]] += w
    return state, pair


class TestBatchedKernel:
    """One forward and one backward pass over N same-length chains with
    Y=3 labels and H=4 states, so no two of the label, chain and state
    axes share a size, and random asymmetric transitions."""

    NUM_LABELS, NUM_HIDDEN, NUM_CHAINS, DIM = 3, 4, 5, 2

    def batch(self, rng, length):
        theta = HcrfParameters(
            rng.standard_normal((self.NUM_HIDDEN, self.DIM)),
            rng.standard_normal((self.NUM_LABELS, self.NUM_HIDDEN)),
            2.0 * rng.standard_normal((self.NUM_LABELS, self.NUM_HIDDEN, self.NUM_HIDDEN)),
        )
        feats = rng.standard_normal((self.NUM_CHAINS, length, self.DIM))
        node, plan = packed_kernel([f @ theta.theta_obs.T for f in feats], theta)
        chain = forward(node, theta.theta_trans, plan)
        post = backward(chain, np.ones_like(chain.log_z))
        return theta, [seq(f, f"c{n}") for n, f in enumerate(feats)], node, chain, post

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_shapes_are_label_chain_position_state_and_contiguous(self, length):
        """The node scores go in as (state, label, packed row); the
        posteriors come out position-major, as the recursions hold them."""
        _, _, node, chain, post = self.batch(np.random.default_rng(length), length)
        y, n, h = self.NUM_LABELS, self.NUM_CHAINS, self.NUM_HIDDEN
        assert node.shape == (h, y, n * length)
        assert chain.log_z.shape == (y, n)
        assert post.state.shape == (length, h, y, n)
        assert post.pair.shape == (length - 1, h, h, y, n)
        for block in (chain.log_z, post.state, post.pair):
            assert block.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_each_chain_log_partition_matches_enumeration(self, length):
        theta, chains, _, chain, _ = self.batch(np.random.default_rng(20 + length), length)
        for n, x in enumerate(chains):
            np.testing.assert_allclose(
                chain.log_z[:, n], brute_force_log_partitions(x, theta), rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_each_chain_marginals_match_single_chain_marginals(self, length):
        theta, chains, _, _, post = self.batch(np.random.default_rng(40 + length), length)
        state, pair = post.state, post.pair
        for n, x in enumerate(chains):
            single = alone(x, theta, np.ones((self.NUM_LABELS, 1)))[1]
            np.testing.assert_allclose(state[..., n], single.state[..., 0], atol=1e-12)
            np.testing.assert_allclose(pair[..., n], single.pair[..., 0], atol=1e-12)
        np.testing.assert_allclose(state.sum(axis=1), 1.0, atol=1e-12)
        if length > 1:
            # summing out the later state leaves the earlier one's posterior
            np.testing.assert_allclose(pair.sum(axis=1), state[:-1], atol=1e-12)


# mixed lengths, each repeated, out of order, plus one long chain
RAGGED_LENGTHS = (5, 1, 2, 5, 1, 2, 2, 300)


def ragged_batch(rng, lengths, num_labels, num_hidden, dim=3):
    """Random parameters and chains of the given lengths, laid out for one
    ragged kernel call: ``order[row]`` is the chain in row ``row`` of the
    layout, and ``node`` holds their packed rows for a fresh ``plan``."""
    theta = HcrfParameters(
        rng.standard_normal((num_hidden, dim)),
        rng.standard_normal((num_labels, num_hidden)),
        rng.standard_normal((num_labels, num_hidden, num_hidden)),
    )
    chains = [seq(rng.standard_normal((n, dim)), f"c{i}") for i, n in enumerate(lengths)]
    order = sorted(range(len(chains)), key=lambda i: -len(chains[i]))  # stable
    node, plan = packed_kernel([chains[i] @ theta.theta_obs.T for i in order], theta)
    return theta, chains, order, node, plan


def assert_each_chain_bitwise_alone(theta, chains, order, chain, post, weights):
    """Every chain's log-partitions and weighted posteriors are bitwise
    those of the chain alone, and its padding is exactly 0."""
    assert sorted(order) == list(range(len(chains)))
    for row, i in enumerate(order):
        x = chains[i]
        single_chain, single = alone(x, theta, weights[:, row : row + 1])
        assert np.array_equal(chain.log_z[:, row], single_chain.log_z[:, 0])
        assert np.array_equal(post.state[: len(x), ..., row], single.state[..., 0])
        assert np.array_equal(post.pair[: len(x) - 1, ..., row], single.pair[..., 0])
        assert not post.state[len(x) :, ..., row].any()
        assert not post.pair[len(x) - 1 :, ..., row].any()


def random_weights(rng, chain):
    """(Y, N) weights of both signs, as training's P(y|x) - 1[y = gold]."""
    return rng.uniform(-1.0, 1.0, size=chain.log_z.shape)


class TestRaggedKernel:
    """One forward and one backward pass over chains of mixed lengths:
    every chain's results must be bitwise those of the chain alone."""

    @pytest.mark.parametrize("num_hidden", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("num_labels", [2, 3])
    def test_mixed_lengths_bitwise_equal_each_chain_alone(self, num_labels, num_hidden):
        rng = np.random.default_rng(100 * num_labels + num_hidden)
        theta, chains, order, node, plan = ragged_batch(
            rng, RAGGED_LENGTHS, num_labels, num_hidden
        )
        # sorted lengths 300, 5, 5, 2, 2, 2, 1, 1
        layout = plan.layout
        assert layout.active[:7] == (8, 6, 3, 3, 3, 1, 1)
        assert len(layout.active) == 301 and layout.active[-1] == 0
        assert layout.starts[:4] == (0, 8, 14, 17) and layout.starts[-1] == 318
        chain = forward(node, theta.theta_trans, plan)
        weights = random_weights(rng, chain)
        post = backward(chain, weights)
        assert_each_chain_bitwise_alone(theta, chains, order, chain, post, weights)
        for row, i in enumerate(order):
            x = chains[i]
            if len(x) <= 10 and num_hidden**len(x) <= BRUTE_FORCE_MAX_PATHS:
                np.testing.assert_allclose(
                    chain.log_z[:, row], brute_force_log_partitions(x, theta), rtol=0, atol=1e-10
                )
        # the weights scale each (label, chain) column of the plain posteriors
        weighted_state, weighted_pair = post.state.copy(), post.pair.copy()
        plain = backward(chain, np.ones_like(weights))
        np.testing.assert_allclose(weighted_state, plain.state * weights, rtol=1e-14, atol=0)
        np.testing.assert_allclose(weighted_pair, plain.pair * weights, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("num_hidden", [8, 9, 16])
    def test_bitwise_equality_holds_from_eight_states(self, num_hidden):
        """Every log-sum-exp reduces the leading axis by adding whole
        slices in index order, whatever H is, so no pairwise summation
        changes the rounding between a batch and a chain alone."""
        rng = np.random.default_rng(num_hidden)
        theta, chains, order, node, plan = ragged_batch(rng, RAGGED_LENGTHS, 2, num_hidden)
        chain = forward(node, theta.theta_trans, plan)
        weights = random_weights(rng, chain)
        post = backward(chain, weights)
        assert_each_chain_bitwise_alone(theta, chains, order, chain, post, weights)

    @pytest.mark.parametrize("num_labels", [2, 3])
    def test_all_length_one_batch_has_no_pairs(self, num_labels):
        rng = np.random.default_rng(7 + num_labels)
        theta, chains, order, node, plan = ragged_batch(rng, (1,) * 4, num_labels, 3)
        chain = forward(node, theta.theta_trans, plan)
        weights = random_weights(rng, chain)
        post = backward(chain, weights)
        assert post.pair.shape == (0, 3, 3, num_labels, 4)
        assert_each_chain_bitwise_alone(theta, chains, order, chain, post, weights)
        for row, i in enumerate(order):
            np.testing.assert_allclose(
                chain.log_z[:, row], brute_force_log_partitions(chains[i], theta), atol=1e-10
            )

    def test_weighted_posteriors_match_enumeration(self):
        """Y=3 and H=4 on mixed lengths: each (label, chain) block of the
        weighted posteriors is its weight times the path-sum marginals."""
        rng = np.random.default_rng(11)
        theta, chains, order, node, plan = ragged_batch(rng, (5, 1, 2, 5, 1, 2, 2), 3, 4)
        chain = forward(node, theta.theta_trans, plan)
        weights = random_weights(rng, chain)
        post = backward(chain, weights)
        for row, i in enumerate(order):
            x = chains[i]
            for y in range(theta.num_labels):
                state, pair = path_sum_marginals(y, x, theta)
                w = weights[y, row]
                np.testing.assert_allclose(
                    post.state[: len(x), :, y, row], w * state, rtol=0, atol=1e-10
                )
                np.testing.assert_allclose(
                    post.pair[: len(x) - 1, :, :, y, row].transpose(0, 2, 1),
                    w * pair,
                    rtol=0,
                    atol=1e-10,
                )

    def test_plan_reuse_matches_fresh_arrays(self):
        """A plan reused over calls with other scores and weights gives
        bitwise the results of a fresh plan, in the same memory each
        call."""
        for seed, lengths in [(1, RAGGED_LENGTHS), (3, (4, 2, 1)), (4, (3,))]:
            rng = np.random.default_rng(seed)
            theta, _, _, node, plan = ragged_batch(rng, lengths, 3, 4)
            kept = []
            for scale in (1.0, 5.0, 0.1):
                scaled = HcrfParameters(
                    theta.theta_obs, scale * theta.theta_state, scale * theta.theta_trans
                )
                weights = rng.uniform(-1.0, 1.0, size=(3, len(lengths)))
                fresh_plan = KernelPlan(plan.layout, 4, 3)
                fresh_chain = forward(scale * node, scaled.theta_trans, fresh_plan)
                fresh = backward(fresh_chain, weights)
                chain = forward(scale * node, scaled.theta_trans, plan)
                post = backward(chain, weights)
                assert np.array_equal(chain.log_z, fresh_chain.log_z)
                assert np.array_equal(chain.alpha, fresh_chain.alpha)
                assert np.array_equal(post.state, fresh.state)
                assert np.array_equal(post.pair, fresh.pair)
                kept.append((chain.alpha, post.state, post.pair, *chain.factors))
            for a, b in zip(kept[0], kept[-1]):
                assert a is b

    def test_nan_left_in_a_plan_is_never_read(self):
        """A plan whose work arrays hold NaN wherever a call writes, and
        whose ``alpha`` holds NaN on padding too, still gives bitwise the
        results of a fresh plan: nothing reads what an earlier call left,
        and nothing reads ``alpha``'s padding."""
        rng = np.random.default_rng(5)
        theta, _, _, node, plan = ragged_batch(rng, RAGGED_LENGTHS, 3, 4)
        weights = rng.uniform(-1.0, 1.0, size=(3, len(RAGGED_LENGTHS)))
        chain = forward(node, theta.theta_trans, plan)
        fresh = backward(chain, weights)
        want_log_z, want_state, want_pair = chain.log_z, fresh.state.copy(), fresh.pair.copy()
        state, pair, steps = plan.backward_arrays()
        running = np.arange(len(plan.alpha))[:, None] < plan.layout.lengths  # (Lmax, N)
        plan.alpha.fill(np.nan)
        for array in (*plan.factors, *plan.sums, *(step[2] for step in plan.forward_steps)):
            array.fill(np.nan)
        for step in steps:
            step[2].fill(np.nan)
        state.transpose(0, 3, 1, 2)[running] = np.nan
        pair.transpose(0, 4, 1, 2, 3)[running[1:]] = np.nan
        chain = forward(node, theta.theta_trans, plan)
        post = backward(chain, weights)
        assert np.isnan(chain.alpha.transpose(0, 3, 1, 2)[~running]).all()
        assert np.array_equal(chain.log_z, want_log_z)
        assert np.array_equal(post.state, want_state)
        assert np.array_equal(post.pair, want_pair)

    def test_stored_factors_are_normalised_and_rebuild_alpha(self):
        """Step j keeps max-shifted exponentials in [0, 1], whose sum over
        the earlier state is in [1, H] and gives alpha[j] back."""
        rng = np.random.default_rng(6)
        theta, _, _, node, plan = ragged_batch(rng, (6, 4, 4, 1), 2, 3)
        layout = plan.layout
        chain = forward(node, theta.theta_trans, plan)
        assert len(chain.factors) == len(chain.sums) == 5
        for j in range(1, len(layout.active) - 1):
            a, start = layout.active[j], layout.starts[j]
            factors, sums = chain.factors[j - 1], chain.sums[j - 1]
            assert factors.shape == (3, 3, 2, a) and sums.shape == (3, 2, a)
            assert factors.min() >= 0.0 and factors.max() == 1.0
            assert np.array_equal(factors.max(axis=0), np.ones_like(sums))
            assert np.array_equal(factors.sum(axis=0), sums)
            assert (sums >= 1.0).all() and (sums <= 3.0).all()
            trans = theta.theta_trans.transpose(1, 2, 0)[..., None]  # (from, to, Y, 1)
            peak = (chain.alpha[j - 1, :, None, :, :a] + trans).max(axis=0)
            np.testing.assert_allclose(
                chain.alpha[j, ..., :a],
                np.log(sums) + peak + node[..., start : start + a],
                rtol=1e-15,
                atol=0,
            )

    def test_summing_out_the_later_state_gives_the_earlier_state(self):
        """The sweep forms each weighted state posterior as the sum of the
        pair posteriors after it, so where a chain runs on the two agree
        bit for bit; summing out the earlier state gives the later one to
        rounding."""
        rng = np.random.default_rng(8)
        theta, _, _, node, plan = ragged_batch(rng, RAGGED_LENGTHS, 3, 4)
        chain = forward(node, theta.theta_trans, plan)
        post = backward(chain, random_weights(rng, chain))
        for j in range(1, len(plan.layout.active) - 1):
            a = plan.layout.active[j]
            pair = post.pair[j - 1, ..., :a]  # (to, from, Y, a)
            assert np.array_equal(pair.sum(axis=0), post.state[j - 1, ..., :a])
            later = post.state[j, ..., :a]
            np.testing.assert_allclose(pair.sum(axis=1), later, rtol=0, atol=1e-14)

    def test_zero_weights_give_zero_posteriors(self):
        rng = np.random.default_rng(9)
        theta, _, _, node, plan = ragged_batch(rng, (5, 3, 1), 2, 3)
        chain = forward(node, theta.theta_trans, plan)
        weights = random_weights(rng, chain)
        weights[1] = 0.0
        post = backward(chain, weights)
        assert not post.state[:, :, 1].any() and not post.pair[..., 1, :].any()
        assert post.state[:, :, 0].any()

    @pytest.mark.parametrize(
        "lengths", [[2, 3, 1], [4, 3, 3], [3, 3, 0], [3, 3], [3, 2, 2, 1], [[3, 3, 2]]]
    )
    def test_rejects_lengths_out_of_order_or_range(self, lengths):
        theta = zero_params(2, 2, 1)
        node = np.zeros((2, 2, 9))
        with pytest.raises(InvalidInputError, match="chain lengths"):
            forward(node, theta.theta_trans, KernelPlan(ChainLayout(lengths), 2, 2))

    def test_rejects_node_scores_of_another_shape(self):
        rng = np.random.default_rng(4)
        theta, _, _, node, plan = ragged_batch(rng, (3, 2), 2, 2)
        for bad in (node[..., :-1], node[:1], node.transpose(1, 0, 2)[:, :, :4]):
            with pytest.raises(InvalidInputError, match="do not fit node scores"):
                forward(bad, theta.theta_trans, plan)
        with pytest.raises(InvalidInputError, match="do not fit node scores"):
            forward(node, theta.theta_trans[:, :1, :1], plan)

    def test_rejects_weights_of_another_shape(self):
        rng = np.random.default_rng(2)
        theta, _, _, node, plan = ragged_batch(rng, (3, 2), 2, 2)
        chain = forward(node, theta.theta_trans, plan)
        with pytest.raises(InvalidInputError, match="weights"):
            backward(chain, np.ones((2, 3)))

    def test_rejects_a_pass_that_a_later_call_overwrote(self):
        """A forward pass lives in its plan's arrays, so once a later call
        on the plan has overwritten them, its backward pass is refused."""
        rng = np.random.default_rng(12)
        theta, _, _, node, plan = ragged_batch(rng, (4, 2, 1), 2, 3)
        first = forward(node, theta.theta_trans, plan)
        second = forward(2.0 * node, theta.theta_trans, plan)
        with pytest.raises(InvalidInputError, match="overwritten"):
            backward(first, random_weights(rng, first))
        backward(second, random_weights(rng, second))

    def test_padding_is_never_read(self):
        """Position j reads only its ``active[j]`` running chains: node
        rows cut to the layout's R rows give the results, and ``alpha`` is
        -inf past each chain's end, where no step writes."""
        rng = np.random.default_rng(3)
        theta, chains, order, node, plan = ragged_batch(rng, (4, 2, 1), 2, 3)
        assert node.shape[2] == sum(len(x) for x in chains) == plan.layout.starts[-1]
        chain = forward(node, theta.theta_trans, plan)
        weights = random_weights(rng, chain)
        post = backward(chain, weights)
        assert_each_chain_bitwise_alone(theta, chains, order, chain, post, weights)
        for row, length in enumerate(plan.layout.lengths):
            assert (chain.alpha[length:, ..., row] == -np.inf).all()


class TestBruteForceGuard:
    def test_budget_exceeded_refused(self):
        theta = zero_params(4, 2, 1)
        x = seq(np.zeros((11, 1)))
        with pytest.raises(EnumerationBudgetError):
            brute_force_posterior(x, theta)

    def test_budget_boundary_allowed(self):
        # 4^10 = 1048576 > 10^6 refused; 2^10 well inside
        theta = zero_params(2, 2, 1)
        x = seq(np.zeros((10, 1)))
        np.testing.assert_allclose(brute_force_posterior(x, theta), [0.5, 0.5], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(instance_params)
def test_posterior_normalizes(params):
    x, theta = build(params)
    assert abs(posterior(x, theta).sum() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(instance_params)
def test_posterior_matches_brute_force(params):
    x, theta = build(params)
    np.testing.assert_allclose(posterior(x, theta), brute_force_posterior(x, theta), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(instance_params)
def test_marginal_consistency(params):
    x, theta = build(params)
    state, pair = marginals(0, x, theta)
    np.testing.assert_allclose(state.sum(axis=1), 1.0, atol=1e-10)
    for j in range(len(x) - 1):
        np.testing.assert_allclose(pair[j].sum(axis=1), state[j], atol=1e-10)
        np.testing.assert_allclose(pair[j].sum(axis=0), state[j + 1], atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(instance_params, st.integers(0, 2**32 - 1))
def test_label_permutation_symmetry(params, perm_seed):
    x, theta = build(params)
    num_labels = theta.num_labels
    perm = np.random.default_rng(perm_seed).permutation(num_labels)
    permuted = HcrfParameters(
        theta.theta_obs, theta.theta_state[perm], theta.theta_trans[perm]
    )
    base = posterior(x, theta)
    np.testing.assert_allclose(posterior(x, permuted), base[perm], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(instance_params, st.floats(-5.0, 5.0, allow_nan=False))
def test_state_bias_shift_invariance(params, shift):
    x, theta = build(params)
    shifted = copy_params(theta)
    shifted.theta_state = shifted.theta_state + shift
    np.testing.assert_allclose(posterior(x, shifted), posterior(x, theta), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(instance_params, st.integers(0, 2**32 - 1))
def test_hidden_state_permutation_invariance(params, perm_seed):
    """Relabelling the latent states is a symmetry of the model."""
    x, theta = build(params)
    perm = np.random.default_rng(perm_seed).permutation(theta.num_hidden_states)
    permuted = HcrfParameters(
        theta.theta_obs[perm],
        theta.theta_state[:, perm],
        theta.theta_trans[:, perm][:, :, perm],
    )
    np.testing.assert_allclose(posterior(x, permuted), posterior(x, theta), atol=1e-12)
    for y in range(theta.num_labels):
        (state, pair), (p_state, p_pair) = marginals(y, x, theta), marginals(y, x, permuted)
        np.testing.assert_allclose(p_state, state[:, perm], atol=1e-12)
        np.testing.assert_allclose(p_pair, pair[:, perm][:, :, perm], atol=1e-12)
