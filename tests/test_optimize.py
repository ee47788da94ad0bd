import numpy as np
import pytest

from opinionchain.errors import TrainingDivergedError
from opinionchain.optimize import minimize


def quadratic(center, scales):
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def fun(x):
        d = x - center
        return float(0.5 * (scales * d * d).sum()), scales * d

    return fun


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
    def fun(x):
        a, b = x
        val = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return float(val), grad

    res = minimize(fun, np.array([-1.2, 1.0]), max_iterations=500, grad_tolerance=1e-8)
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
            return float("nan"), np.array([float("nan")])
        return float(-(x[0] ** 2)), np.array([-2 * x[0]])  # runs downhill to the cliff

    with pytest.raises(TrainingDivergedError):
        minimize(fun, np.array([0.9]), max_iterations=50, grad_tolerance=1e-12)


@pytest.mark.parametrize("start", [np.array([-1.2, 1.0]), np.array([3.0, -2.0])])
def test_evaluations_count_every_call_including_backtracks(start):
    calls = []

    def rosenbrock(x):
        calls.append(x.copy())
        a, b = x
        val = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return float(val), grad

    res = minimize(rosenbrock, start, max_iterations=500, grad_tolerance=1e-8)
    iterations = len(res.trace) - 1
    assert res.evaluations == len(calls)
    assert res.evaluations >= iterations + 1
    assert res.evaluations > iterations + 1  # the line search backtracked at least once
