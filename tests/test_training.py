import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain import training
from opinionchain.errors import InvalidInputError
from opinionchain.model import (
    HcrfParameters,
    SequenceBlock,
    SparseRows,
    backward,
    emission_blocks,
    emission_scores,
    forward,
    label_log_posteriors,
    window_sum,
)
from opinionchain.training import (
    HcrfPredictor,
    TrainingConfig,
    group_by_length,
    objective_and_gradient,
    train,
)

from conftest import (
    alone,
    make_block,
    packed_kernel,
    posterior,
    value_and_gradient,
    windowed,
    zero_params,
)
from oracles import brute_force_posterior, padded_objective_and_gradient


def seq(features, doc_id="t"):
    """One hand-made document's (L, D) rows, checked as a one-document
    block."""
    return make_block([features], [doc_id]).features


def as_block(dataset):
    """A list of (rows, label) pairs as one block and its labels."""
    return make_block([x for x, _ in dataset]), [y for _, y in dataset]


def scores(x, weights, window):
    """``emission_scores`` of the rows ``x``, as a block of their own."""
    [out] = emission_scores(make_block([x]), weights, window)
    return out


def random_dataset(rng, size=6, dim=3, max_len=5, num_labels=2):
    out = []
    for i in range(size):
        length = int(rng.integers(1, max_len + 1))
        out.append(
            (seq(rng.standard_normal((length, dim)), f"d{i}"), int(rng.integers(num_labels)))
        )
    return out


def grouped(dataset, theta):
    """``dataset`` grouped for the labels of ``theta``."""
    return group_by_length(*as_block(dataset), theta.num_labels)


def random_theta(rng, num_hidden, num_labels, dim, scale=0.5):
    return HcrfParameters(
        scale * rng.standard_normal((num_hidden, dim)),
        scale * rng.standard_normal((num_labels, num_hidden)),
        scale * rng.standard_normal((num_labels, num_hidden, num_hidden)),
    )


def fd_gradient(dataset, theta, lam, step=1e-5):
    vec = theta.as_vector()
    h = theta.num_hidden_states
    groups = grouped(dataset, theta)
    out = np.empty_like(vec)
    for k in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[k] += step
        minus[k] -= step
        out[k] = (
            objective_and_gradient(groups, plus, h, lam)[0]
            - objective_and_gradient(groups, minus, h, lam)[0]
        ) / (2 * step)
    return out


def separable_dataset(rng, per_label=10, dim=2):
    """Labels decided by the sign of the first coordinate, margin 2."""
    data = []
    for i in range(per_label):
        length = int(rng.integers(2, 5))
        pos = rng.standard_normal((length, dim)) * 0.1
        pos[:, 0] += 2.0
        neg = rng.standard_normal((length, dim)) * 0.1
        neg[:, 0] -= 2.0
        data.append((seq(pos, f"p{i}"), 1))
        data.append((seq(neg, f"n{i}"), 0))
    return data


class TestObjective:
    def test_zero_parameters_give_n_log_2(self):
        rng = np.random.default_rng(0)
        dataset = random_dataset(rng, size=7)
        theta = zero_params(3, 2, 3)
        value, _ = value_and_gradient(grouped(dataset, theta), theta, 0.0)
        assert value == pytest.approx(7 * np.log(2), abs=1e-12)

    def test_zero_lambda_is_pure_likelihood(self):
        rng = np.random.default_rng(1)
        dataset = random_dataset(rng, size=5)
        theta = random_theta(rng, 2, 2, 3)
        nll = -sum(np.log(posterior(x, theta)[y]) for x, y in dataset)
        value, _ = value_and_gradient(grouped(dataset, theta), theta, 0.0)
        assert value == pytest.approx(nll, rel=1e-12)

    def test_matches_brute_force_plus_regularizer(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            dataset = random_dataset(rng, size=4, dim=2, max_len=4)
            theta = random_theta(rng, 3, 2, 2)
            lam = float(rng.uniform(0.0, 1.0))
            want = -sum(np.log(brute_force_posterior(x, theta)[y]) for x, y in dataset)
            want += 0.5 * lam * float((theta.as_vector() ** 2).sum())
            value, _ = value_and_gradient(grouped(dataset, theta), theta, lam)
            assert value == pytest.approx(want, rel=1e-10)

    def test_rejects_empty_dataset(self):
        empty = SequenceBlock((), np.empty((0, 2)), None, [0])
        with pytest.raises(InvalidInputError, match="nonempty"):
            group_by_length(empty, [], 2)

    def test_rejects_dimension_mismatch(self):
        theta = zero_params(2, 2, 3)
        with pytest.raises(InvalidInputError):
            value_and_gradient(grouped([(seq([[1.0, 2.0]]), 0)], theta), theta, 0.1)


class TestGradient:
    def test_regularizer_vanishes_at_zero(self):
        rng = np.random.default_rng(3)
        dataset = random_dataset(rng, size=3)
        theta = zero_params(2, 2, 3)
        g0 = value_and_gradient(grouped(dataset, theta), theta, 0.0)[1]
        g1 = value_and_gradient(grouped(dataset, theta), theta, 5.0)[1]
        np.testing.assert_array_equal(g0, g1)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_matches_central_finite_differences(self, lam):
        rng = np.random.default_rng(4)
        for _ in range(6):
            dataset = random_dataset(rng, size=4, dim=3, max_len=5)
            theta = random_theta(rng, 3, 2, 3)
            analytic = value_and_gradient(grouped(dataset, theta), theta, lam)[1]
            numeric = fd_gradient(dataset, theta, lam)
            denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-6

    def test_saturated_posterior_has_tiny_likelihood_gradient(self):
        theta = HcrfParameters(
            np.zeros((1, 2)), np.array([[50.0], [-50.0]]), np.zeros((2, 1, 1))
        )
        dataset = [(seq([[0.3, -0.2], [0.1, 0.4]]), 0)]
        g = value_and_gradient(grouped(dataset, theta), theta, 0.0)[1]
        assert np.linalg.norm(g) <= 1e-8

    def test_matches_per_sequence_reference(self):
        """The grouped implementation must agree with a plain per-sequence
        expected-count computation on mixed-length data."""
        rng = np.random.default_rng(5)
        dataset = random_dataset(rng, size=8, dim=2, max_len=6)
        theta = random_theta(rng, 3, 2, 2)
        assert_matches_per_sequence_reference(dataset, theta, 0.25)

    def test_matches_per_sequence_reference_three_labels_four_states(self):
        """Y=3 and H=4 differ from each other and from the group sizes,
        so a mix-up of the label, state and chain axes cannot cancel."""
        rng = np.random.default_rng(13)
        dataset = random_dataset(rng, size=12, dim=3, max_len=4, num_labels=3)
        assert {len(x) for x, _ in dataset} >= {1, 2}
        theta = random_theta(rng, 4, 3, 3)
        assert_matches_per_sequence_reference(dataset, theta, 0.25)


def assert_matches_per_sequence_reference(dataset, theta, lam):
    ref_obs = lam * theta.theta_obs.copy()
    ref_state = lam * theta.theta_state.copy()
    ref_trans = lam * theta.theta_trans.copy()
    for x, gold in dataset:
        post = posterior(x, theta)
        plain = alone(x, theta, np.ones((theta.num_labels, 1)))[1]
        for y in range(theta.num_labels):
            state = plain.state[:, :, y, 0]  # (L, H)
            pair = plain.pair[..., y, 0].transpose(0, 2, 1)  # (L-1, from, to)
            coeff = post[y] - (1.0 if y == gold else 0.0)
            ref_obs += coeff * (state.T @ x)
            ref_state[y] += coeff * state.sum(axis=0)
            if len(x) > 1:
                ref_trans[y] += coeff * pair.sum(axis=0)

    _, got = value_and_gradient(grouped(dataset, theta), theta, lam)
    got = HcrfParameters.from_vector(
        got, theta.num_hidden_states, theta.num_labels, theta.feature_dim
    )
    np.testing.assert_allclose(got.theta_obs, ref_obs, atol=1e-12)
    np.testing.assert_allclose(got.theta_state, ref_state, atol=1e-12)
    np.testing.assert_allclose(got.theta_trans, ref_trans, atol=1e-12)


def per_group_objective_and_gradient(dataset, theta, l2_lambda):
    """The objective with one forward-backward call per length group,
    each group's plain posteriors reduced on their own by expected-count
    einsums, groups in ascending length: the reference for the single
    ragged call, which weights the posteriors inside the backward pass."""
    by_length = {}
    for x, y in dataset:
        by_length.setdefault(len(x), []).append((x, y))
    grad_obs = np.zeros_like(theta.theta_obs)
    grad_state = np.zeros_like(theta.theta_state)
    grad_trans = np.zeros_like(theta.theta_trans)
    nll = 0.0
    for length in sorted(by_length):
        feats = np.stack([f for f, _ in by_length[length]])
        labels = np.array([y for _, y in by_length[length]])
        num, _, dim = feats.shape
        node, plan = packed_kernel(list(feats @ theta.theta_obs.T), theta)
        chain = forward(node, theta.theta_trans, plan)
        plain = backward(chain, np.ones_like(chain.log_z))
        state = plain.state.transpose(2, 3, 0, 1)  # (Y, N, L, H)
        pair = plain.pair.transpose(3, 4, 0, 2, 1)  # (Y, N, L-1, from, to)
        log_post = label_log_posteriors(chain.log_z)  # (Y, N)
        nll += float(-log_post[labels, np.arange(num)].sum())
        coeff = np.exp(log_post)
        coeff[labels, np.arange(num)] -= 1.0
        grad_state += np.einsum("yn,ynlh->yh", coeff, state)
        grad_trans += np.einsum("yn,ynjhk->yhk", coeff, pair)
        weighted = np.einsum("yn,ynlh->nlh", coeff, state).reshape(num * length, -1)
        grad_obs += weighted.T @ feats.reshape(num * length, dim)
    sq_norm = float(
        (theta.theta_obs**2).sum() + (theta.theta_state**2).sum() + (theta.theta_trans**2).sum()
    )
    grad = HcrfParameters(
        grad_obs + l2_lambda * theta.theta_obs,
        grad_state + l2_lambda * theta.theta_state,
        grad_trans + l2_lambda * theta.theta_trans,
    )
    return nll + 0.5 * l2_lambda * sq_norm, grad


class TestRaggedObjective:
    @pytest.mark.parametrize("window", [0, 1])
    @pytest.mark.parametrize("num_hidden", [1, 2, 3, 5, 7, 8, 9])
    def test_bitwise_equal_to_per_group_reference(self, num_hidden, window):
        """The fused reduction sums in another order than the per-group
        einsums, so the two agree to rounding, not bit for bit: within
        1e-12 relative, and 1e-12 absolute (the per-sequence reference's
        bound) for gradient entries that cancel to near zero."""
        rng = np.random.default_rng(10 * num_hidden + window)
        for trial in range(4):
            num_labels = 2 + trial % 2
            dataset = random_dataset(rng, size=25, dim=3, max_len=9, num_labels=num_labels)
            assert len({len(x) for x, _ in dataset}) >= 4
            scale = (0.1, 1.0, 5.0, 0.5)[trial]
            theta = random_theta(rng, num_hidden, num_labels, (2 * window + 1) * 3, scale)
            lam = float(rng.uniform(0.0, 1.0))
            groups = group_by_length(*as_block(dataset), num_labels, window)
            value, grad = value_and_gradient(groups, theta, lam)
            reference = [(windowed(x, window), y) for x, y in dataset]
            want_value, want_grad = per_group_objective_and_gradient(reference, theta, lam)
            assert value == pytest.approx(want_value, rel=1e-12, abs=0)
            np.testing.assert_allclose(grad, want_grad.as_vector(), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("num_labels", [2, 3])
    def test_nan_padding_leaves_objective_bitwise_unchanged(self, num_labels):
        """The training features are kept without padding, and the kernel
        plan's forward arrays are padded only past each chain's end: NaN
        written there, and into every work array each call overwrites,
        reaches neither the value nor the gradient."""
        rng = np.random.default_rng(20 + num_labels)
        dataset = random_dataset(rng, size=15, dim=3, max_len=7, num_labels=num_labels)
        theta = random_theta(rng, 3, num_labels, 3)
        groups = grouped(dataset, theta)
        value, grad = value_and_gradient(groups, theta, 0.3)

        plan = groups.plan(theta.num_hidden_states)
        lengths = groups.layout.lengths
        padding = np.arange(len(plan.alpha))[:, None] >= lengths  # (Lmax, N)
        assert padding.any()
        plan.alpha.fill(np.nan)
        state, pair, steps = plan.backward_arrays()
        for array in (*plan.factors, *plan.sums, *(step[2] for step in plan.forward_steps)):
            array.fill(np.nan)
        for step in steps:
            step[2].fill(np.nan)  # the divided weights
        state.transpose(0, 3, 1, 2)[~padding] = np.nan
        pair.transpose(0, 4, 1, 2, 3)[~padding[1:]] = np.nan
        got_value, got_grad = value_and_gradient(groups, theta, 0.3)
        assert np.isnan(plan.alpha.transpose(0, 3, 1, 2)[padding]).all()
        assert got_value == value
        assert np.array_equal(got_grad, grad)

    def test_repeated_calls_match_a_fresh_layout(self):
        """The layout's work arrays carry nothing from one call to the next."""
        rng = np.random.default_rng(30)
        dataset = random_dataset(rng, size=12, dim=3, max_len=6, num_labels=3)
        reused = group_by_length(*as_block(dataset), 3)
        for scale in (0.5, 3.0, 0.1):
            theta = random_theta(rng, 4, 3, 3, scale)
            value, grad = value_and_gradient(reused, theta, 0.2)
            fresh = group_by_length(*as_block(dataset), 3)
            want_value, want_grad = value_and_gradient(fresh, theta, 0.2)
            assert value == want_value
            assert np.array_equal(grad, want_grad)


def objective_case(rng, num_labels, window, rows, lengths):
    """A dataset of dimension 3 (plus 4 sparse columns unless ``rows`` is
    "dense", with an offset row if it is "offset"), grouped under
    ``window``: sequences of mixed lengths 1-12, of one length, or a
    single sequence (``lengths``)."""
    size = {"mixed": 9, "equal": 6, "single": 1}[lengths]
    common = int(rng.integers(1, 13))
    offset = rng.standard_normal(4) if rows == "offset" else None
    dataset = []
    for i in range(size):
        length = int(rng.integers(1, 13)) if lengths == "mixed" else common
        sparse = None
        if rows != "dense":
            nnz = int(rng.integers(0, 3 * length + 1))
            sparse = SparseRows(
                np.sort(rng.integers(0, length, nnz)), rng.integers(0, 4, nnz),
                rng.standard_normal(nnz), length, 4, offset,
            )
        x = rng.standard_normal((length, 3))
        dataset.append(((x, sparse) if sparse is not None else x, i % num_labels))
    block, labels = as_block(dataset)
    return group_by_length(block, labels, num_labels, window), block.dim


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
    st.sampled_from(["dense", "sparse", "offset"]),
    st.sampled_from(["mixed", "equal", "single"]),
    st.integers(1, 4),
    st.integers(2, 3),
)
def test_objective_bitwise_equals_padded_grid_reference(
    seed, window, rows, lengths, num_hidden, num_labels
):
    """The packed objective does the padded-grid reference's arithmetic
    on the same numbers, so value and gradient are equal bit for bit,
    for two parameter draws in a row on one layout."""
    rng = np.random.default_rng(seed)
    groups, dim = objective_case(rng, num_labels, window, rows, lengths)
    for scale in (float(rng.choice([0.1, 1.0, 5.0])), 0.5):
        theta = random_theta(rng, num_hidden, num_labels, (2 * window + 1) * dim, scale)
        lam = float(rng.uniform(0.0, 1.0))
        value, grad = value_and_gradient(groups, theta, lam)
        want_value, want_grad = padded_objective_and_gradient(groups, theta, lam)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


def fit_in_a_row(case: int) -> bytes:
    """The fitted parameters and trace of fit ``case`` of two on datasets
    of different layouts (the second with three labels and a window),
    as bytes."""
    rng = np.random.default_rng(40 + case)
    if case == 0:
        data = random_dataset(rng, size=10, dim=3, max_len=6)
        config = TrainingConfig(num_hidden_states=3, max_iterations=25)
    else:
        data = random_dataset(rng, size=14, dim=3, max_len=9, num_labels=3)
        config = TrainingConfig(num_hidden_states=2, context_window=1, max_iterations=25)
    theta, trace = train(*as_block(data), config)
    entries = [(e.objective, e.gradient_norm, e.step_size) for e in trace.entries]
    return theta.as_vector().tobytes() + repr((entries, trace.status, trace.evaluations)).encode()


def test_fits_in_a_row_match_fits_in_fresh_processes():
    """Two fits in a row, on different layouts, give bitwise what each
    gives in a process of its own: no kernel plan or other state carries
    over from one fit to the next."""
    in_a_row = [fit_in_a_row(0), fit_in_a_row(1)]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    for case, want in enumerate(in_a_row):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, test_training; sys.stdout.buffer.write(test_training.fit_in_a_row({case}))"],
            env=env, capture_output=True, timeout=120, check=True,
        )  # fmt: skip
        assert proc.stdout == want


class TestLengthGroups:
    def test_ascending_lengths_in_dataset_order(self):
        """Read from the last chain up, the lengths ascend; chains of one
        length keep dataset order, and each position's block of rows
        holds the chains still running there, longest first."""
        dataset = [
            (seq([[10.0 * (i + 1) + j, -j] for j in range(length)], f"d{i}"), i % 2)
            for i, length in enumerate([3, 1, 3, 2, 1])
        ]
        groups = group_by_length(*as_block(dataset), 2)
        assert groups.layout.lengths[::-1].tolist() == [1, 1, 2, 3, 3]
        assert groups.features.shape == (10, 2)  # 3 + 1 + 3 + 2 + 1 rows, no padding
        # chains d0, d2, d3, d1, d4; positions 0, 1, 2 hold 5, 3 and 2 of them
        assert groups.features[:, 0].tolist() == [10, 30, 40, 20, 50, 11, 31, 41, 12, 32]
        assert groups.features[:, 1].tolist() == [0] * 5 + [-1] * 3 + [-2] * 2

    def test_ragged_layout_longest_first(self):
        dataset = [
            (seq(np.full((length, 2), float(i)), f"d{i}"), i % 2)
            for i, length in enumerate([3, 1, 3, 2, 1])
        ]
        grouped = group_by_length(*as_block(dataset), 2)
        assert grouped.layout.lengths.tolist() == [3, 3, 2, 1, 1]
        assert grouped.layout.active == (5, 3, 2, 0)
        assert grouped.labels.tolist() == [0, 0, 1, 1, 0]  # d0, d2, d3, d1, d4
        assert grouped.layout.starts == (0, 5, 8, 10)
        positions, chains = grouped.layout.rows()
        assert positions.tolist() == [0] * 5 + [1] * 3 + [2] * 2
        assert chains.tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 0, 1]

    def test_rejects_out_of_range_label(self):
        with pytest.raises(InvalidInputError, match="label 2"):
            group_by_length(make_block([[[1.0]]]), [2], 2)

    def test_objective_rejects_parameters_of_another_shape(self):
        dataset = [(seq([[1.0, 2.0]]), 0)]
        with pytest.raises(InvalidInputError, match="do not match"):
            objective_and_gradient(
                group_by_length(*as_block(dataset), 2), zero_params(2, 3, 2).as_vector(), 2, 0.1
            )

    def test_train_groups_once_per_fit(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return group_by_length(*args)

        monkeypatch.setattr(training, "group_by_length", counting)
        data = separable_dataset(np.random.default_rng(14), per_label=3)
        train(*as_block(data), TrainingConfig(num_hidden_states=2, max_iterations=20))
        assert len(calls) == 1

    def test_trace_counts_every_objective_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return objective_and_gradient(*args)

        monkeypatch.setattr(training, "objective_and_gradient", counting)
        data = separable_dataset(np.random.default_rng(15), per_label=3)
        _, trace = train(*as_block(data), TrainingConfig(num_hidden_states=2, max_iterations=20))
        assert trace.evaluations == len(calls)
        assert trace.evaluations >= len(trace.entries)


class TestContextWindow:
    """The window is applied to per-shift emission blocks; each test
    checks them against the (2w+1) D windowed vectors they stand for."""

    def test_zero_window_is_identity(self):
        x = seq([[1.0, 2.0], [3.0, 4.0]])
        weights = np.array([[0.5, -1.0], [2.0, 0.25]])
        blocks = emission_blocks([x], None, weights, 0)
        assert window_sum(blocks[0], 0) is blocks[0][0]
        assert np.array_equal(scores(x, weights, 0), x @ weights.T)

    def test_window_one_boundary_padding(self):
        a, b, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
        weights = np.arange(12.0).reshape(2, 6) - 5.0
        got = scores(seq([a, b, c]), weights, 1)
        rows = [[0.0, 0.0] + a + b, a + b + c, b + c + [0.0, 0.0]]
        np.testing.assert_array_equal(got, np.array(rows) @ weights.T)

    def test_window_two_single_segment(self):
        weights = np.arange(10.0).reshape(2, 5)
        got = scores(seq([[7.0]]), weights, 2)
        np.testing.assert_array_equal(got, [[7.0 * 2.0, 7.0 * 7.0]])

    def test_center_slice_is_original(self):
        rng = np.random.default_rng(6)
        x = seq(rng.standard_normal((5, 3)))
        for w in (1, 2, 3):
            weights = np.zeros((2, (2 * w + 1) * 3))
            weights[:, w * 3 : (w + 1) * 3] = rng.standard_normal((2, 3))
            got = scores(x, weights, w)
            np.testing.assert_allclose(
                got, x @ weights[:, w * 3 : (w + 1) * 3].T, rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(got, windowed(x, w) @ weights.T, rtol=0, atol=1e-15)


class TestTrain:
    def test_separable_data_fits(self):
        rng = np.random.default_rng(7)
        data = separable_dataset(rng)
        config = TrainingConfig(num_hidden_states=2, l2_lambda=0.01, seed=1)
        block, labels = as_block(data)
        theta, trace = train(block, labels, config)
        posteriors = HcrfPredictor(theta, config).posterior_blocks([block])
        correct = sum(p == y for p, y in zip(posteriors.argmax(axis=1).tolist(), labels))
        assert correct / len(data) >= 0.95
        assert trace.status in ("converged", "max_iterations", "stalled")

    def test_huge_lambda_shrinks_parameters(self):
        rng = np.random.default_rng(8)
        data = separable_dataset(rng, per_label=5)
        config = TrainingConfig(num_hidden_states=2, l2_lambda=1e4, seed=1)
        theta, _ = train(*as_block(data), config)
        assert np.linalg.norm(theta.as_vector()) <= 1e-2
        post = posterior(data[0][0], theta)
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-2)

    def test_identical_seed_and_data_bitwise_identical(self):
        rng = np.random.default_rng(9)
        data = separable_dataset(rng, per_label=4)
        config = TrainingConfig(num_hidden_states=2, l2_lambda=0.1, seed=3)
        theta_a, trace_a = train(*as_block(data), config)
        theta_b, trace_b = train(*as_block(data), config)
        assert np.array_equal(theta_a.as_vector(), theta_b.as_vector())
        assert trace_a.entries == trace_b.entries

    def test_trace_objective_non_increasing(self):
        rng = np.random.default_rng(10)
        data = separable_dataset(rng, per_label=4)
        config = TrainingConfig(num_hidden_states=2, l2_lambda=0.1, seed=0)
        _, trace = train(*as_block(data), config)
        objs = [entry.objective for entry in trace.entries]
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        assert all(np.isfinite(o) for o in objs)

    def test_regularization_path_monotone(self):
        rng = np.random.default_rng(11)
        data = separable_dataset(rng, per_label=4)
        grid = [0.01, 0.05, 0.075, 0.1, 0.25, 0.5, 1.0]
        norms = []
        for lam in grid:
            theta, _ = train(
                *as_block(data),
                TrainingConfig(
                    num_hidden_states=2, l2_lambda=lam, seed=2, max_iterations=300,
                    grad_tolerance=1e-7,
                ),
            )
            norms.append(float(np.linalg.norm(theta.as_vector())))
        assert all(b <= a * (1 + 1e-6) for a, b in zip(norms, norms[1:]))

    def test_context_window_changes_model_dimension(self):
        rng = np.random.default_rng(12)
        data = separable_dataset(rng, per_label=3)
        theta, _ = train(
            *as_block(data),
            TrainingConfig(num_hidden_states=2, context_window=1, l2_lambda=0.1, seed=0,
                           max_iterations=30),
        )
        assert theta.feature_dim == 6

    def test_missing_label_rejected(self):
        data = [(seq([[1.0, 0.0]]), 1), (seq([[0.5, 0.2]]), 1)]
        with pytest.raises(InvalidInputError):
            train(*as_block(data), TrainingConfig())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            TrainingConfig(l2_lambda=0.0)
        with pytest.raises(InvalidInputError):
            TrainingConfig(num_hidden_states=0)
        with pytest.raises(InvalidInputError):
            TrainingConfig(context_window=-1)


# mixed lengths, each repeated, out of order
BATCH_LENGTHS = (5, 1, 2, 5, 1, 2, 2)


class TestPosteriorBatch:
    @pytest.mark.parametrize("num_labels", [2, 3])
    @pytest.mark.parametrize("window", [0, 1])
    def test_rows_bitwise_equal_one_by_one(self, window, num_labels):
        rng = np.random.default_rng(40 + window)
        dim = 4
        theta = random_theta(rng, 3, num_labels, (2 * window + 1) * dim)
        predictor = HcrfPredictor(theta, TrainingConfig(context_window=window))
        seqs = [rng.standard_normal((n, dim)) for n in BATCH_LENGTHS]
        block = make_block(seqs)
        # an iterator of blocks, read once
        blocks = iter([block.subblock(range(3)), block.subblock([3, 4, 5, 6])])
        batch = predictor.posterior_blocks(blocks)
        assert batch.shape == (len(seqs), num_labels)
        for row, x in zip(batch, seqs):
            dense = windowed(x, window)
            assert np.array_equal(row, predictor.posterior_blocks([make_block([x])])[0])
            if window == 0:
                assert np.array_equal(row, posterior(dense, theta))
            else:
                # the shifted emission blocks add in another order than
                # one matmul of the windowed vectors
                np.testing.assert_allclose(row, posterior(dense, theta), rtol=0, atol=1e-15)
            # the kernel's log-partitions for this chain alone, and enumeration
            log_z = alone(dense, theta, np.ones((num_labels, 1)))[0].log_z[:, 0]
            np.testing.assert_allclose(
                row, np.exp(label_log_posteriors(log_z)), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                row, brute_force_posterior(dense, theta), rtol=0, atol=1e-10
            )

    def test_empty_batch(self):
        theta = random_theta(np.random.default_rng(0), 2, 2, 3)
        predictor = HcrfPredictor(theta, TrainingConfig())
        assert predictor.posterior_blocks([]).shape == (0, 2)

    def test_dimension_mismatch_rejected(self):
        theta = random_theta(np.random.default_rng(0), 2, 2, 3)
        predictor = HcrfPredictor(theta, TrainingConfig(context_window=1))
        with pytest.raises(InvalidInputError, match="windowed dim"):
            predictor.posterior_blocks([make_block([np.zeros((2, 3))])])
