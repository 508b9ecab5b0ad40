"""Tanh-sinh quadrature with an evaluation budget.

Every integral in this package has an endpoint ``b`` where its integrand
behaves like ``(b - s)^power``, and goes through :func:`integrate_power_upper`:
the off-diagonal log-pow volterra-g pairs, the criterion-8 brackets and the
Volterra isometry check.  It substitutes ``s = b - (b - a) w^q`` at that
endpoint, which turns the power into ``w^2``, and integrates over ``w`` in
``[0, 1]`` by the double-exponential (tanh-sinh) rule of Takahasi and Mori
(1974): the trapezoidal rule in ``t`` after ``w = 1/(1 + exp(-pi sinh t))``,
whose nodes crowd both ends of ``[0, 1]``.  Each level halves the step and adds
the odd multiples of the new step to the nodes already summed; an integral is
done when two levels agree within the absolute ``tol``.  Where ``b - s``
would underflow, the integrand in ``w`` is its ``w^2`` model, scaled to its
value at the smallest ``w`` where it does not, and a node there is evaluated
at that ``w``.  So ``evals`` counts nodes, each one point of the integrand.
Every integral of a batch uses the same nodes: a level evaluates the live
integrals in integrand calls of at most ``_POINTS`` (integral, node) pairs,
while each integral keeps its own stopping test, budget and result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import NumericalError, ParameterError

__all__ = ["DEFAULT_BUDGET", "DEFAULT_TOL", "QuadResult", "check_quadrature_args", "integrate_power_upper"]

DEFAULT_BUDGET = 1 << 20
DEFAULT_TOL = 1e-10
_POINTS = 1 << 14  # (integral, node) pairs per integrand call: the one bound on a call's arrays
# level 0 has step 1/2 on t in [-6, 3.5], where w runs from 1e-275 to 1 - 3e-23: the
# tails left out hold 3e-27 of the integral of w^-0.9 near 0 and 3e-23 times the bound
# of a g bounded near 1
_STEP = 0.5
_T_LO, _T_HI = -6.0, 3.5
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral with an absolute error estimate and the number of
    integrand evaluations spent on it; for a batch of integrals, each field is
    an array with one entry per integral."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evals: int | np.ndarray


def check_quadrature_args(tol: float, budget: int) -> None:
    """Refuse a ``tol`` that is not positive and finite or a ``budget`` that is not an integer >= 1."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ParameterError(f"quadrature tolerance must be positive and finite, got {tol!r}")
    if not (isinstance(budget, (int, np.integer)) and not isinstance(budget, bool) and budget >= 1):
        raise ParameterError(f"quadrature budget must be an integer >= 1, got {budget!r}")


@cache
def _level(level: int):
    """(w, dw/dt, step) of the nodes that ``level`` adds: every multiple of the step on
    level 0, the odd multiples of the halved step on each level after it.  Cached, so
    every call shares the arrays, which nothing writes to."""
    h = _STEP / 2**level
    n = round((_T_HI - _T_LO) / h)
    t = _T_LO + h * (np.arange(n + 1) if level == 0 else np.arange(1, n, 2))
    u = np.pi * np.sinh(t)
    w, w_rest = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))  # w and 1 - w, each without cancellation
    return w, np.pi * np.cosh(t) * w * w_rest, h


def _tanh_sinh(f2, a: np.ndarray, b: np.ndarray, q: float, tol: float, budget: int):
    """Integrate ``f2`` over every ``[a[i], b[i]]``; returns (values, errors, evals).

    In ``w`` the integrand is ``g(w) = f2(s, dist, i) (b - a) q w^(q-1)`` with
    ``dist = (b - a) w^q`` and ``s = b - dist``.  Below ``w_lo``, where ``dist`` (or
    ``w^q``) would fall under the smallest normal double, a node takes the ``w^2`` model
    ``g(w_lo) (w/w_lo)^2``, so ``g`` is called at ``w_lo`` in its place.  Each level is
    evaluated in slices of at most ``_POINTS`` (integral, node) pairs (at least one
    integral), so no integrand call's arrays grow with the batch.  An integral stops at
    the first level whose estimate is within ``tol`` of the level before.
    """
    span = b - a
    n = span.size
    values, errors = np.zeros(n), np.zeros(n)
    evals = np.zeros(n, dtype=np.int64)
    live = np.flatnonzero(span)
    w_lo = np.maximum((_TINY / np.clip(np.abs(span), _TINY, 1.0)) ** (1.0 / q), _TINY)
    sums, prev = np.zeros(n), np.full(n, np.nan)  # level 0 has no level before it: nan agrees with nothing

    def g(w, i):
        """The substituted integrand at ``w[j]`` of integral ``i[j]``."""
        dist_per_w = span[i] * w ** (q - 1.0)
        dist = dist_per_w * w
        with np.errstate(all="ignore"):  # every non-finite value is reported below
            out = f2(b[i] - dist, dist, i) * (q * dist_per_w)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            j = bad[0]
            raise NumericalError(f"non-finite integrand encountered at s={b[i[j]] - dist[j]:.17g} "
                                 f"(b - s = {dist[j]:.17g})")
        return out

    level, nodes = 0, 0
    while live.size:
        w, dw, h = _level(level)
        nodes += w.size  # every integral still live has been evaluated at every node so far
        if nodes > budget:
            raise NumericalError(
                f"quadrature budget of {budget} evaluations exhausted (tolerance {tol:g} unachievable)"
            )
        evals[live] = nodes
        rows = max(1, _POINTS // w.size)
        for part in (live[i:i + rows] for i in range(0, live.size, rows)):
            lo = w_lo[part, None]
            at_nodes = g(np.maximum(w, lo).ravel(), np.repeat(part, w.size)).reshape(part.size, w.size)
            sums[part] += (at_nodes * np.minimum(w / lo, 1.0) ** 2 * dw).sum(axis=1)
        estimate = h * sums[live]
        error = np.abs(estimate - prev[live])
        done = error <= tol
        values[live[done]], errors[live[done]] = estimate[done], error[done]
        prev[live] = estimate
        live = live[~done]
        level += 1
    return values, errors, evals


def integrate_power_upper(
    f2: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    power: float,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate over ``[a, b]`` when the integrand behaves like ``(b - s)^power``
    (possibly times slowly varying log factors) near ``b``.

    ``f2(s, dist, owner)`` evaluates integral ``owner[j]``'s integrand at
    ``s[j]``, with ``dist[j] = b - s[j]`` computed without cancellation.  The
    rule is tanh-sinh in ``w`` after ``s = b - (b - a) w^q``, ``q = 3/(1 + power)``,
    which makes a pure power ``w^2``; where ``(b - a) w^q`` would underflow, the
    integrand in ``w`` is taken to be that ``w^2`` power, scaled to its value at
    the smallest ``w`` where it does not (exact for a pure power).  An integral is
    done when two levels agree within the absolute ``tol``; its result is the
    finer level, with their difference as its error estimate.  ``evals`` counts
    the points at which ``f2`` was called for that integral, one per node.

    ``a`` and ``b`` are scalars or arrays, broadcast to one integral per entry
    and integrated together, each on the same nodes with its own stopping test
    and ``budget``, so an entry is what its integral gives alone.  Scalar ``a``
    and ``b`` give Python scalars in the result, arrays give arrays; an empty
    interval gives 0 with 0 evaluations.  Raises :class:`NumericalError` for
    ``power <= -1``, for a non-finite integrand value (naming the first one
    met), or when any integral's next level would take it past ``budget``, and
    :class:`ParameterError`, before any evaluation, for a ``tol`` that is not
    positive and finite or a ``budget`` that is not an integer >= 1.
    """
    check_quadrature_args(tol, budget)
    if power <= -1.0:
        raise NumericalError(f"endpoint power {power} is not integrable")
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    a, b = (np.ravel(x).astype(float) for x in np.broadcast_arrays(a, b))
    q = 3.0 / (1.0 + power)
    out = _tanh_sinh(f2, a, b, q, tol, budget)
    return QuadResult(*(x.item() if shape == () else x.reshape(shape) for x in out))
