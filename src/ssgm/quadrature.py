"""Adaptive Simpson quadrature with an evaluation budget.

Every integral in this package has an endpoint ``b`` where its integrand
behaves like ``(b - s)^power``, and goes through :func:`integrate_power_upper`:
the off-diagonal log-pow volterra-g pairs, the criterion-8 brackets and the
Volterra isometry check.  It substitutes ``w^q`` at that endpoint and hands
its integrals, up to 1024 at a time, to one refinement loop, which processes
whole batches of numpy-vectorized subintervals per pass instead of recursing
one interval at a time: each live subinterval carries the index of the
integral it belongs to, and every integral keeps its own mesh, acceptance
test, budget and result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ParameterError

__all__ = ["DEFAULT_BUDGET", "QuadResult", "check_quadrature_args", "integrate_power_upper"]

DEFAULT_BUDGET = 1 << 20
_MIN_WIDTH_FACTOR = 1e-13
# integrals per refinement loop: bounds the live subintervals of a large batch
# (a log-pow Gram's pairs) while keeping the numpy calls per pass few
_BLOCK = 1024


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


def _simpson(f, a: np.ndarray, b: np.ndarray, tol: float, budget: int):
    """Integrate over every ``[a[i], b[i]]`` at once; returns (values, errors, evals).

    ``f(x, owner)`` evaluates integral ``owner[j]``'s integrand at ``x[j]``.
    A subinterval is accepted once its Richardson error estimate
    ``(S2 - S1)/15`` is at most its integral's tolerance share
    ``tol * width / span``, and the budget counts each integral's own
    evaluations, so every integral refines exactly as it would alone.
    """
    check_quadrature_args(tol, budget)
    n = a.size
    span = np.abs(b - a)
    owner = np.flatnonzero(span)
    values, errors = np.zeros(n), np.zeros(n)
    evals = np.zeros(n, dtype=np.int64)
    if not owner.size:
        return values, errors, evals
    evals[owner] = 3
    k = owner.size
    lo, hi = a[owner], b[owner]
    x = np.concatenate([lo, 0.5 * (lo + hi), hi])
    fx = np.asarray(f(x, np.concatenate([owner, owner, owner])), dtype=float)
    s_whole = (hi - lo) / 6.0 * (fx[:k] + 4.0 * fx[k:2 * k] + fx[2 * k:])
    # one column per live subinterval; rows lo, mid, hi, f(lo), f(mid), f(hi) and its Simpson
    # estimate, so rows [0:2] and [1:3] are the (lo, mid) and (mid, hi) of its two halves
    state = np.concatenate([x, fx, s_whole]).reshape(7, k)

    while True:
        evals += 2 * np.bincount(owner, minlength=n)
        if evals.max() > budget:
            raise NumericalError(
                f"quadrature budget of {budget} evaluations exhausted "
                f"(tolerance {tol:g} unachievable)"
            )
        k = owner.size
        ends, f_ends = state[0:3], state[3:6]
        mids = 0.5 * (ends[:2] + ends[1:])
        f_mids = np.asarray(f(mids.ravel(), np.concatenate([owner, owner])), dtype=float).reshape(2, k)
        halves = (ends[1:] - ends[:2]) / 6.0 * (f_ends[:2] + 4.0 * f_mids + f_ends[1:])
        err = (halves[0] + halves[1] - state[6]) / 15.0
        if not np.isfinite(err).all():
            raise NumericalError(
                "non-finite integrand encountered near "
                f"x={ends[1][~np.isfinite(err)][0]:.17g}"
            )
        width = np.abs(ends[2] - ends[0])
        own_span = span[owner]
        done = (np.abs(err) <= tol * width / own_span) | (width <= own_span * _MIN_WIDTH_FACTOR)

        finished = owner[done]
        values += np.bincount(finished, weights=(halves[0] + halves[1] + err)[done], minlength=n)
        errors += np.bincount(finished, weights=np.abs(err[done]), minlength=n)

        keep = ~done
        owner = owner[keep]
        if not owner.size:
            return values, errors, evals
        owner = np.concatenate([owner, owner])
        # every refined interval's halves become columns: all left halves, then all right halves
        state = np.array([ends[:2], mids, ends[1:], f_ends[:2], f_mids, f_ends[1:], halves])[:, :, keep]
        state = state.reshape(7, owner.size)


def _upper_substitution(f2, a: np.ndarray, b: np.ndarray, power: float):
    """``f2(s, dist, owner)`` on ``[a, b]`` as an integrand ``g(w, owner)`` on ``[0, 1]``.

    Substituting ``s = b - (b - a) w^q`` with ``q = 3/(1 + power)`` turns an
    endpoint behaviour ``(b - s)^power`` into ``w^2``; ``g`` is pinned to 0 at
    ``w = 0``.  ``a`` and ``b`` hold one entry per integral, selected by ``owner``.
    """
    if power <= -1.0:
        raise NumericalError(f"endpoint power {power} is not integrable")
    span = b - a
    q = 3.0 / (1.0 + power)

    def g(w, owner):
        pos = w > 0.0
        if not pos.all():
            out = np.zeros_like(w)
            out[pos] = g(w[pos], owner[pos])
            return out
        dist = span[owner] * w**q
        return f2(b[owner] - dist, dist, owner) * (span[owner] * q) * w ** (q - 1.0)

    return g


def integrate_power_upper(
    f2: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    power: float,
    tol: float = 1e-10,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate over ``[a, b]`` when the integrand behaves like ``(b - s)^power``
    (possibly times slowly varying log factors) near ``b``.

    ``a`` and ``b`` are scalars or arrays, broadcast to one integral per entry
    and refined together in blocks of up to 1024; each keeps its own mesh,
    tolerance share and ``budget``, so an entry is what its integral gives
    alone.
    ``f2(s, dist, owner)`` evaluates integral ``owner[j]``'s integrand at
    ``s[j]``, with ``dist[j] = b - s[j]`` computed without cancellation.
    Scalar ``a`` and ``b`` give Python scalars in the result, arrays give
    arrays; an empty interval gives 0 with 0 evaluations.  Raises
    :class:`NumericalError` for ``power <= -1`` or when any integral exhausts
    ``budget`` (the first failing block's error), and :class:`ParameterError`,
    before any evaluation, for a ``tol`` that is not positive and finite or a
    ``budget`` that is not an integer >= 1.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    a, b = (np.ravel(x).astype(float) for x in np.broadcast_arrays(a, b))
    g = _upper_substitution(f2, a, b, power)
    blocks = []
    for start in range(0, max(a.size, 1), _BLOCK):  # an empty batch still makes one call, which checks tol
        ends = (a[start:start + _BLOCK] != b[start:start + _BLOCK]).astype(float)
        blocks.append(_simpson(lambda w, owner: g(w, owner + start), np.zeros(ends.size), ends, tol, budget))
    out = (np.concatenate(field) for field in zip(*blocks))
    return QuadResult(*(x.item() if shape == () else x.reshape(shape) for x in out))
