"""Quasi-Newton minimizer with a deterministic per-iteration trace.

Limited-memory BFGS (two-loop recursion, history 10) with Armijo
backtracking.  Contract, not implementation detail: accepted iterations
have non-increasing objective, the stop rule is an inf-norm gradient
threshold, and identical inputs give bitwise-identical traces.

The objective is value first: ``fun(x)`` returns the value at ``x`` and
a callable of no arguments that returns the gradient there.  The line
search compares values alone, so the minimizer calls the gradient only
at the start point and at each accepted step, and a rejected trial
costs one value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError

HISTORY = 10
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class TraceEntry:
    """One accepted iterate.  Entry 0 is the initial point (step 0.0)."""

    iteration: int
    objective: float
    gradient_norm: float
    step_size: float


@dataclass
class OptimizationResult:
    x: np.ndarray
    objective: float
    gradient_norm: float
    status: str  # converged | max_iterations | stalled
    evaluations: int  # calls of ``fun``, backtracks included
    trace: list[TraceEntry] = field(default_factory=list)


Objective = Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]]


def _check_value(value: float):
    if not np.isfinite(value):
        raise TrainingDivergedError("objective became non-finite")


def _gradient(gradient: Callable[[], np.ndarray]) -> np.ndarray:
    grad = gradient()
    if not np.isfinite(grad).all():
        raise TrainingDivergedError("gradient became non-finite")
    return grad


def minimize(
    fun: Objective,
    x0: np.ndarray,
    max_iterations: int = 200,
    grad_tolerance: float = 1e-5,
) -> OptimizationResult:
    """Minimize ``fun`` from ``x0``; ``fun(x)`` returns the value at ``x``
    and a zero-argument callable for the gradient at ``x``, which is
    called for the start point and for each accepted step only, before
    the next call of ``fun``.

    Stops when the gradient inf-norm drops to ``grad_tolerance``, after
    ``max_iterations`` accepted steps, or when the line search cannot
    find sufficient decrease (status ``stalled``).  The result counts
    every call of ``fun``, rejected line-search trials included.  A
    non-finite value, or a non-finite gradient where one is taken,
    raises ``TrainingDivergedError``.
    """
    if max_iterations < 1:
        raise InvalidInputError("max_iterations must be >= 1")
    if grad_tolerance <= 0:
        raise InvalidInputError("grad_tolerance must be positive")

    x = np.asarray(x0, dtype=np.float64).copy()
    value, gradient = fun(x)
    evaluations = 1
    _check_value(value)
    grad = _gradient(gradient)
    grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
    trace = [TraceEntry(0, float(value), grad_norm, 0.0)]

    s_hist: deque[np.ndarray] = deque(maxlen=HISTORY)
    y_hist: deque[np.ndarray] = deque(maxlen=HISTORY)
    rho_hist: deque[float] = deque(maxlen=HISTORY)

    status = "max_iterations"
    for iteration in range(1, max_iterations + 1):
        if grad_norm <= grad_tolerance:
            status = "converged"
            break

        direction = _two_loop_direction(grad, s_hist, y_hist, rho_hist)
        slope = float(grad @ direction)
        if slope >= 0.0:
            # curvature information went bad; restart from steepest descent
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            direction = -grad
            slope = float(grad @ direction)

        # conservative first guess before any curvature is known
        step = min(1.0, 1.0 / float(np.abs(grad).sum())) if not s_hist else 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = x + step * direction
            cand_value, cand_gradient = fun(candidate)
            evaluations += 1
            _check_value(cand_value)
            if cand_value <= value + ARMIJO_C1 * step * slope:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            status = "stalled"
            break
        cand_grad = _gradient(cand_gradient)

        s = candidate - x
        y = cand_grad - grad
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)

        x, value, grad = candidate, cand_value, cand_grad
        grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
        trace.append(TraceEntry(iteration, float(value), grad_norm, float(step)))
    else:
        if grad_norm <= grad_tolerance:
            status = "converged"

    return OptimizationResult(
        x=x,
        objective=float(value),
        gradient_norm=grad_norm,
        status=status,
        evaluations=evaluations,
        trace=trace,
    )


def _two_loop_direction(grad, s_hist, y_hist, rho_hist) -> np.ndarray:
    if not s_hist:
        return -grad
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    s_last, y_last = s_hist[-1], y_hist[-1]
    gamma = float(s_last @ y_last) / float(y_last @ y_last)
    q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q
