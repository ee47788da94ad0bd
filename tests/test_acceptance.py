"""End-to-end guarantees, one test per guarantee.

Every tolerance and time budget in this file is contractual: code that
needs one loosened has changed behavior, and the fix belongs in the code,
not here.  The oracles are deliberately independent of the library
internals (path enumeration, central differences, hand-counted metrics).
"""

import itertools
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from opinionchain import cli
from opinionchain.corpus import LABEL_NAMES
from opinionchain.evaluation import (
    HcrfLearner,
    LogRegLearner,
    compute_metrics,
    cross_validate,
)
from opinionchain.features.embeddings import load_embeddings
from opinionchain.features.pipeline import PipelineConfig
from opinionchain.introspection import activation_words, state_character
from opinionchain.model import HcrfParameters
from opinionchain.synthetic import (
    SyntheticSpec,
    generate_corpus,
    generate_embeddings,
    order_insensitive_bayes_accuracy,
    vocabulary,
    write_embeddings,
)
from opinionchain.training import (
    TrainingConfig,
    fit_predictor,
    group_by_length,
    objective_and_gradient,
)

from conftest import (
    alone,
    fit,
    ipu_index_per_token,
    labels,
    make_block,
    make_transcript,
    posterior,
    split_documents,
    value_and_gradient,
)


def _enumerated_posterior(x: np.ndarray, theta: HcrfParameters) -> np.ndarray:
    """Label posterior of the (L, D) rows ``x`` by summing every
    hidden-state path explicitly."""
    log_zs = []
    for y in range(theta.num_labels):
        scores = []
        for path in itertools.product(range(theta.num_hidden_states), repeat=len(x)):
            s = 0.0
            for j, h in enumerate(path):
                s += float(x[j] @ theta.theta_obs[h])
                s += float(theta.theta_state[y, h])
            for j in range(len(x) - 1):
                s += float(theta.theta_trans[y, path[j], path[j + 1]])
            scores.append(s)
        peak = max(scores)
        log_zs.append(peak + np.log(np.sum(np.exp(np.array(scores) - peak))))
    log_zs = np.array(log_zs)
    weights = np.exp(log_zs - log_zs.max())
    return weights / weights.sum()


def _random_instance(rng, max_len=6, max_hidden=4, max_dim=5, max_labels=3):
    length = int(rng.integers(1, max_len + 1))
    hidden = int(rng.integers(1, max_hidden + 1))
    dim = int(rng.integers(1, max_dim + 1))
    labels = int(rng.integers(2, max_labels + 1))
    theta = HcrfParameters(
        rng.normal(size=(hidden, dim)),
        rng.normal(size=(labels, hidden)),
        rng.normal(size=(labels, hidden, hidden)),
    )
    x = rng.normal(size=(length, dim))
    return x, theta


def test_posterior_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        x, theta = _random_instance(rng)
        diff = np.abs(posterior(x, theta) - _enumerated_posterior(x, theta)).max()
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        hidden = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        lam = 0.0 if i % 2 == 0 else 0.1
        dataset = []
        for j in range(int(rng.integers(1, 4))):
            length = int(rng.integers(1, 6))
            dataset.append((rng.normal(size=(length, dim)), int(rng.integers(0, 2))))
        theta = HcrfParameters(
            0.5 * rng.normal(size=(hidden, dim)),
            0.5 * rng.normal(size=(2, hidden)),
            0.5 * rng.normal(size=(2, hidden, hidden)),
        )
        block = make_block([x for x, _ in dataset])
        grouped = group_by_length(block, [y for _, y in dataset], 2)
        analytic = value_and_gradient(grouped, theta, lam)[1]
        vec = theta.as_vector()
        step = 1e-5
        for k in range(vec.size):
            bumped = vec.copy()
            bumped[k] = vec[k] + step
            plus = objective_and_gradient(grouped, bumped, hidden, lam)[0]
            bumped[k] = vec[k] - step
            minus = objective_and_gradient(grouped, bumped, hidden, lam)[0]
            fd = (plus - minus) / (2 * step)
            rel = abs(analytic[k] - fd) / max(1.0, abs(analytic[k]), abs(fd))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_posterior_calibration_and_invariances():
    rng = np.random.default_rng(37)
    for _ in range(100):
        x, theta = _random_instance(rng)
        post = posterior(x, theta)
        assert abs(float(post.sum()) - 1.0) <= 1e-12

        plain = alone(x, theta, np.ones((theta.num_labels, 1)))[1]
        for y in range(theta.num_labels):
            state = plain.state[:, :, y, 0]
            pair = plain.pair[..., y, 0].transpose(0, 2, 1)
            row_err = np.abs(state.sum(axis=1) - 1.0).max()
            assert row_err <= 1e-10
            if len(x) > 1:
                # pair[j, a, b] = P(h_j = a, h_{j+1} = b); both one-sided
                # sums must reproduce the unary tables.
                left = pair.sum(axis=2)
                right = pair.sum(axis=1)
                assert np.abs(left - state[:-1]).max() <= 1e-10
                assert np.abs(right - state[1:]).max() <= 1e-10

        shifted = HcrfParameters(
            theta.theta_obs, theta.theta_state + 3.75, theta.theta_trans
        )
        assert np.abs(posterior(x, shifted) - post).max() <= 1e-12


def test_majority_baseline_metrics_on_reference_split():
    positive = LABEL_NAMES.index("positive")
    negative = LABEL_NAMES.index("negative")
    gold = [positive] * 205 + [negative] * 116
    predicted = [positive] * 321

    report = compute_metrics(predicted, gold)
    rounded = report.rounded()
    assert rounded["f1_positive"] == 78
    assert rounded["f1_negative"] == 0
    assert rounded["weighted_f1"] == 50
    assert report.accuracy == pytest.approx(100 * 205 / 321, abs=1e-9)


@pytest.fixture(scope="module")
def synthetic_setup(tmp_path_factory):
    spec = SyntheticSpec()
    corpus = generate_corpus(spec, seed=0)
    emb_path = tmp_path_factory.mktemp("acceptance") / "embeddings.txt"
    write_embeddings(generate_embeddings(spec, seed=0), emb_path)
    config = PipelineConfig(blocks=("embedding",), embedding_path=str(emb_path))
    return SimpleNamespace(spec=spec, corpus=corpus, config=config, emb_path=emb_path)


def test_sequence_model_beats_aggregate_baseline_on_synthetic_corpus(synthetic_setup):
    start = time.perf_counter()
    setup = synthetic_setup
    assert len(setup.corpus) == 500

    # The enumeration bound comes first: the corpus is only a valid
    # benchmark if order-insensitive classifiers are provably capped.
    bayes = order_insensitive_bayes_accuracy(setup.spec)
    assert bayes == pytest.approx(0.66484375, abs=1e-12)

    corpus = setup.corpus
    logreg, _ = cross_validate(corpus, setup.config, LogRegLearner(c_grid=(1.0,)), k=5, seed=0)
    learner = HcrfLearner(
        config=TrainingConfig(num_hidden_states=3, l2_lambda=0.1, max_iterations=150)
    )
    hcrf, _ = cross_validate(corpus, setup.config, learner, k=5, seed=0)

    assert logreg.accuracy <= 100 * bayes + 7.5
    assert hcrf.accuracy - logreg.accuracy >= 10.0
    assert time.perf_counter() - start < 300.0


def test_pause_threshold_ladder_is_monotone_and_nested(synthetic_setup):
    rng = np.random.default_rng(53)
    # Gap pool straddles each threshold, including exact boundary values.
    pool = [40, 120, 150, 151, 299, 300, 301, 499, 500, 501, 650, 900]
    docs = split_documents(synthetic_setup.corpus.select(range(10)))
    for i in range(40):
        n_gaps = int(rng.integers(1, 12))
        gaps = [pool[int(g)] for g in rng.integers(0, len(pool), size=n_gaps)]
        words = [f"w{k}" for k in range(n_gaps + 1)]
        docs.append(make_transcript(f"gaps{i}", words, gaps=gaps))

    def boundaries(indices):
        return {i for i in range(len(indices) - 1) if indices[i] != indices[i + 1]}

    for doc in docs:
        by_threshold = {t: ipu_index_per_token(doc, t) for t in (150, 300, 500)}
        counts = {t: max(ix) + 1 for t, ix in by_threshold.items()}
        assert counts[150] >= counts[300] >= counts[500]
        coarse, mid, fine = (boundaries(by_threshold[t]) for t in (500, 300, 150))
        assert coarse <= mid <= fine


def test_repeated_evaluation_runs_are_byte_identical(tmp_path):
    gen_dir = tmp_path / "gen"
    config = {
        "generator": {
            "num_docs_per_label": 10,
            "min_segments": 2,
            "max_segments": 4,
            "embedding_dim": 4,
            "num_polar_words": 3,
            "num_neutral_words": 5,
        },
        "pipeline": {
            "blocks": ["embedding"],
            "embedding_path": str(gen_dir / "embeddings.txt"),
        },
        "training": {"num_hidden_states": 2, "max_iterations": 60},
        "evaluate": {"folds": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    rc = cli.main(
        ["generate", "--out", str(gen_dir), "--seed", "3", "--config", str(config_path)]
    )
    assert rc == 0

    runs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli.main(
            [
                "evaluate",
                "--corpus", str(gen_dir / "corpus"),
                "--out", str(out),
                "--seed", "7",
                "--config", str(config_path),
                "--model", "hcrf",
            ]
        )
        assert rc == 0
        runs.append(out)

    for fname in ("report.txt", "report.json", "config.json", "run.log"):
        first, second = (run / fname for run in runs)
        assert first.read_bytes() == second.read_bytes(), fname


def test_trained_states_align_with_generator_polarity(synthetic_setup):
    setup = synthetic_setup
    fitted, block = fit(setup.config, setup.corpus)
    train_config = TrainingConfig(
        num_hidden_states=3, l2_lambda=0.1, max_iterations=150, seed=0
    )
    predictor, _ = fit_predictor(block, labels(setup.corpus), train_config)

    character = state_character(predictor.params)
    aligned = {
        y: [h for h, a in enumerate(character.alignments) if a == y] for y in (0, 1)
    }
    assert aligned[0], "no state aligned with the negative label"
    assert aligned[1], "no state aligned with the positive label"

    table = load_embeddings(setup.emb_path)
    pos_words, neg_words, neu_words = vocabulary(setup.spec)
    corpus_vocab = [*pos_words, *neg_words, *neu_words]
    matching = {
        LABEL_NAMES.index("positive"): set(pos_words),
        LABEL_NAMES.index("negative"): set(neg_words),
    }
    for label, states in aligned.items():
        for state in states:
            top = activation_words(
                predictor.params, fitted.schema, state, table, corpus_vocab, k=5
            )
            hits = sum(word in matching[label] for word, _ in top)
            assert hits / 5 >= 0.8, (label, state, top)
