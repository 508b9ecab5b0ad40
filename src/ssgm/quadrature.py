"""Adaptive Simpson quadrature with an evaluation budget.

All integrands used in this package are numpy-vectorized callables, so the
adaptive refinement processes whole batches of subintervals per pass instead
of recursing one interval at a time.  One refinement loop serves any number of
integrals at once: each live subinterval carries the index of the integral it
belongs to, and every integral keeps its own mesh, acceptance test, budget and
result.  :func:`adaptive_simpson` is its one-integral case;
:func:`integrate_power_upper_batch` runs many endpoint-substituted integrals
(e.g. all off-diagonal pairs of one log-pow volterra-g Gram) in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ParameterError

DEFAULT_BUDGET = 1 << 20
_MIN_WIDTH_FACTOR = 1e-13


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral with an absolute error estimate and the number of
    integrand evaluations spent on it; for a batch of integrals, each field is
    an array with one entry per integral."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evals: int | np.ndarray


def _simpson(f, a: np.ndarray, b: np.ndarray, tol: float, budget: int):
    """Integrate over every ``[a[i], b[i]]`` at once; returns (values, errors, evals).

    ``f(x, owner)`` evaluates integral ``owner[j]``'s integrand at ``x[j]``.
    A subinterval is accepted once its Richardson error estimate
    ``(S2 - S1)/15`` is at most its integral's tolerance share
    ``tol * width / span``, and the budget counts each integral's own
    evaluations, so every integral refines exactly as it would alone.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ParameterError(f"quadrature tolerance must be positive and finite, got {tol!r}")
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


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``f`` must accept and return numpy arrays.  Each subinterval is accepted
    once the Richardson error estimate ``(S2 - S1)/15`` falls below the
    tolerance share proportional to its width.  Raises
    :class:`ParameterError` for a tolerance that is not positive and finite,
    and :class:`NumericalError` when more than ``budget`` evaluations would
    be needed.
    """
    ends = np.array([a, b], dtype=float)
    values, errors, evals = _simpson(lambda x, _: f(x), ends[:1], ends[1:], tol, budget)
    return QuadResult(float(values[0]), float(errors[0]), int(evals[0]))


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
    f2: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    power: float,
    tol: float = 1e-10,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate over ``[a, b]`` when the integrand behaves like
    ``(b - s)^power`` (possibly times slowly varying log factors) near ``b``.

    ``f2(s, dist)`` receives both the abscissa and ``dist = b - s`` computed
    without cancellation.  Substituting ``s = b - (b - a) w^q`` with
    ``q = 3/(1 + power)`` turns the endpoint behaviour into ``w^2``, which the
    Simpson rule handles comfortably; the transformed integrand is pinned to 0
    at ``w = 0``.
    """
    g = _upper_substitution(lambda s, dist, _: f2(s, dist), np.array([a], dtype=float),
                            np.array([b], dtype=float), power)
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    return adaptive_simpson(lambda w: g(w, np.zeros(np.shape(w), dtype=np.intp)), 0.0, 1.0, tol, budget)


def integrate_power_upper_batch(
    f2: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    power: float,
    tol: float = 1e-10,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """:func:`integrate_power_upper` over every ``[a[i], b[i]]`` in one adaptive pass.

    ``f2(s, dist, owner)`` evaluates integral ``owner[j]``'s integrand at
    ``s[j]``, with ``dist[j] = b[owner[j]] - s[j]``.  Each integral keeps its
    own mesh, tolerance share and ``budget``, so entry ``i`` of each result
    array (value, error estimate, evaluation count) is what
    :func:`integrate_power_upper` gives for that integral alone; any one
    integral that cannot meet ``tol`` within ``budget`` raises
    :class:`NumericalError` for the whole batch.
    """
    a, b = (np.ravel(x).astype(float) for x in np.broadcast_arrays(a, b))
    g = _upper_substitution(f2, a, b, power)
    return QuadResult(*_simpson(g, np.zeros(a.size), (a != b).astype(float), tol, budget))
