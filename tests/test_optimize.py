import numpy as np
import pytest

from opinionchain.errors import TrainingDivergedError
from opinionchain.optimize import minimize


def quadratic(center, scales):
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def fun(x):
        d = x - center
        return float(0.5 * (scales * d * d).sum()), lambda: scales * d

    return fun


def rosenbrock_value(x):
    a, b = x
    return float((1 - a) ** 2 + 100 * (b - a * a) ** 2)


def rosenbrock_gradient(x):
    a, b = x
    return np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])


def eager_rosenbrock(x):
    """The gradient computed with the value, its callable only handing it
    back."""
    grad = rosenbrock_gradient(x)
    return rosenbrock_value(x), lambda: grad


def test_converges_on_quadratic():
    fun = quadratic([1.0, -2.0, 3.0], [1.0, 10.0, 0.5])
    res = minimize(fun, np.zeros(3), max_iterations=100, grad_tolerance=1e-8)
    assert res.status == "converged"
    np.testing.assert_allclose(res.x, [1.0, -2.0, 3.0], atol=1e-6)
    assert res.gradient_norm <= 1e-8


def test_trace_starts_at_initial_point_and_decreases():
    fun = quadratic([2.0], [3.0])
    res = minimize(fun, np.array([0.0]), max_iterations=50, grad_tolerance=1e-10)
    first = res.trace[0]
    assert first.iteration == 0
    assert first.step_size == 0.0
    assert first.objective == pytest.approx(0.5 * 3.0 * 4.0)
    objectives = [e.objective for e in res.trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_rosenbrock():
    res = minimize(eager_rosenbrock, np.array([-1.2, 1.0]), max_iterations=500, grad_tolerance=1e-8)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_max_iterations_status():
    fun = quadratic(np.arange(20.0), np.linspace(0.1, 5.0, 20))
    res = minimize(fun, np.zeros(20), max_iterations=2, grad_tolerance=1e-12)
    assert res.status == "max_iterations"
    assert len(res.trace) == 3  # initial point + 2 accepted steps


def test_already_converged_at_start():
    fun = quadratic([0.0, 0.0], [1.0, 1.0])
    res = minimize(fun, np.zeros(2), max_iterations=10, grad_tolerance=1e-6)
    assert res.status == "converged"
    assert len(res.trace) == 1


def test_bitwise_deterministic():
    rng = np.random.default_rng(0)
    scales = rng.uniform(0.1, 4.0, size=12)
    center = rng.standard_normal(12)
    x0 = rng.standard_normal(12)
    a = minimize(quadratic(center, scales), x0, max_iterations=60, grad_tolerance=1e-10)
    b = minimize(quadratic(center, scales), x0, max_iterations=60, grad_tolerance=1e-10)
    assert np.array_equal(a.x, b.x)
    assert a.trace == b.trace


def test_non_finite_objective_aborts():
    def fun(x):
        if abs(x[0]) > 1.0:
            return float("nan"), lambda: np.array([float("nan")])
        return float(-(x[0] ** 2)), lambda: np.array([-2 * x[0]])  # runs downhill to the cliff

    with pytest.raises(TrainingDivergedError, match="objective"):
        minimize(fun, np.array([0.9]), max_iterations=50, grad_tolerance=1e-12)


def test_non_finite_gradient_aborts_where_it_is_taken():
    """A gradient is checked when it is computed: at an accepted step a
    non-finite one raises, while the gradient of a rejected trial is
    never computed, so it cannot."""

    def at_accepted(x):
        d = x - 3.0
        grad = d if x[0] < 2.0 else np.array([np.inf])
        return float(0.5 * d @ d), lambda: grad

    with pytest.raises(TrainingDivergedError, match="gradient"):
        minimize(at_accepted, np.array([0.0]), max_iterations=50, grad_tolerance=1e-12)

    def only_at_rejected(x):
        d = x - 1.0
        value = float(0.5 * d @ d)
        return value, (lambda: d) if value <= 0.5 else (lambda: np.array([np.nan]))

    res = minimize(only_at_rejected, np.array([0.0]), max_iterations=50, grad_tolerance=1e-10)
    assert res.status == "converged"


@pytest.mark.parametrize("start", [np.array([-1.2, 1.0]), np.array([3.0, -2.0])])
def test_evaluations_count_every_call_including_backtracks(start):
    calls = []

    def rosenbrock(x):
        calls.append(x.copy())
        return eager_rosenbrock(x)

    res = minimize(rosenbrock, start, max_iterations=500, grad_tolerance=1e-8)
    iterations = len(res.trace) - 1
    assert res.evaluations == len(calls)
    assert res.evaluations >= iterations + 1
    assert res.evaluations > iterations + 1  # the line search backtracked at least once


@pytest.mark.parametrize("max_iterations", [500, 30])
@pytest.mark.parametrize("start", [np.array([-1.2, 1.0]), np.array([3.0, -2.0])])
def test_gradient_taken_at_start_and_each_accepted_step_only(start, max_iterations):
    """The gradient callable of the start point and of each accepted
    candidate runs exactly once, before the next value is asked for, and
    no other runs; the trace, the evaluation count and ``x`` are bitwise
    those of a run whose gradients are all computed with their values."""
    events = []  # ("value" | "gradient", point)

    def lazy(x):
        events.append(("value", x.copy()))

        def gradient():
            events.append(("gradient", x.copy()))
            return rosenbrock_gradient(x)

        return rosenbrock_value(x), gradient

    got = minimize(lazy, start, max_iterations=max_iterations, grad_tolerance=1e-8)
    want = minimize(eager_rosenbrock, start, max_iterations=max_iterations, grad_tolerance=1e-8)
    assert got.trace == want.trace
    assert np.array_equal(got.x, want.x)
    assert got.status == want.status
    kinds = [kind for kind, _ in events]
    assert got.evaluations == want.evaluations == kinds.count("value")
    assert got.evaluations > len(got.trace)  # the line search backtracked

    gradients = [i for i, kind in enumerate(kinds) if kind == "gradient"]
    assert len(gradients) == len(got.trace)
    for i in gradients:  # right after its own value call
        assert kinds[i - 1] == "value" and np.array_equal(events[i - 1][1], events[i][1])
    taken = [events[i][1] for i in gradients]
    assert [rosenbrock_value(x) for x in taken] == [e.objective for e in got.trace]
    assert np.array_equal(taken[-1], got.x)
