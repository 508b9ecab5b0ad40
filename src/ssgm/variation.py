"""p-variation, ergodic increment averages, and weighted-kernel limits.

For an H-self-similar process with stationary (or asymptotically stationary,
nondegenerate) increments, the dyadic sums S_n = sum |Z_{(k+1)/n} - Z_{k/n}|^p
scale like n^(1 - pH): they vanish for p > 1/H, settle at E|J|^p for
p = 1/H, and diverge for p < 1/H.  The trichotomy estimator below fits the
log-log slope of mean S_n and classifies accordingly.  As in Levy's
quadratic variation of Brownian motion, S_n follows the same paths along
refining partitions: one ensemble is drawn on the finest dyadic grid (with
``seed`` itself) and every coarser level reads its sub-grid columns, block
by block where the rows are drawn, each level's increments reduced in one
pass in the front of the block's spent normals.

The quadrature side evaluates, for F(x) = (1-x)^beta g(x),

* ``increment_variance`` - the displayed increment-variance expression
  int F^2 + 2 (t+1)^H t^H int F(s) [F(s) - sqrt(t/(1+t)) F((1-1/(t+1)) s)] ds,
  whose second term vanishes as t grows, so the value settles at int F^2;
* ``int_limit_residual`` - t int F [F - F((1-1/t) s)] ds + (1/2) int F^2,
  which tends to 0.

Note: the empirical variance of the simulated increments Z_{t+1} - Z_t is a
different quantity; for beta > 0 and H <= 1/2 it decays to zero like
t^(2H-2), so ergodic averages of f(increments) track f(0) rather than the
moments of a variable with variance int F^2.  ``ergodic_average`` reports
both the empirical average and that closed-form target so the gap is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterError, check_integer
from .gram import TimeGrid, check_array_size
from .kernels import Family, GFunction, ProcessSpec, volterra_g_variance
from .quadrature import DEFAULT_BUDGET, integrate_power_upper
from .samplers import reduce_blocks

__all__ = [
    "VariationReport",
    "IncrementVariance",
    "ErgodicAverage",
    "pvariation_sum",
    "pvariation_trichotomy",
    "ergodic_average",
    "increment_variance",
    "int_limit_residual",
    "gaussian_abs_moment",
    "variation_to_csv",
]

_SLOPE_BAND = 0.1
_ERGODIC_INNER_STEPS = 64  # midpoint volterra cells per unit time in ergodic_average
_LIMIT_TOL = 1e-12  # quadrature tolerance of increment_variance and int_limit_residual


@dataclass(frozen=True, eq=False)
class VariationReport:
    spec: ProcessSpec
    p: float
    n_values: tuple
    mean_sums: np.ndarray
    se_sums: np.ndarray
    slope_estimate: float
    verdict: str  # "VanishingTo0" | "FiniteLimit" | "Diverging"
    limit_value: Optional[float]
    sigmaJ_sq: Optional[float]
    proven_regime: bool = True


@dataclass(frozen=True)
class IncrementVariance:
    """Increment-variance diagnostics at one time t.

    ``value`` is the displayed expression whose limit is ``limit_value``
    (= int F^2); ``ito_exact`` is the exact Ito second moment
    E[(Z_{t+1} - Z_t)^2], which carries ((t+1)^H - t^H)^2 int F^2 as its
    first term instead of int F^2 and therefore decays to zero in the
    beta > 0, H <= 1/2 regime.
    """

    value: float
    abs_error_estimate: float
    limit_value: float
    ito_exact: float


@dataclass(frozen=True)
class ErgodicAverage:
    average: float
    target: float
    sigmaJ_sq: float
    n: int
    n_paths: int
    proven_regime: bool


def _check_p(p: float) -> None:
    if not (p >= 1 and math.isfinite(p)):
        raise ParameterError(f"p must be finite and >= 1, got {p!r}")


def _pvariation_sums(values: np.ndarray, p: float, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_k |Z_{k+1} - Z_k|^p along each row of a 2-D array of paths.

    The increments of all rows go through one buffer in one pass: the front
    of ``scratch`` when it is given, a flat float64 array of at least
    ``len(values) * (values.shape[1] - 1)`` values (the callers pass a drawn
    block's spent normals), else a new array of that size.  The increments
    are ``np.diff``'s bytes, the power is taken in place with the same fast
    paths as ``incr ** p`` (at p = 2 on the signed increments, since x**2 is
    |x|**2 bytewise), and every row is summed on its own, so the sums are
    bytewise those of ``np.sum(np.abs(np.diff(values, axis=1)) ** p, axis=1)``.
    """
    shape = (values.shape[0], values.shape[1] - 1)
    incr = np.empty(shape) if scratch is None else scratch[:shape[0] * shape[1]].reshape(shape)
    np.subtract(values[:, 1:], values[:, :-1], out=incr)
    if p != 2.0:
        np.abs(incr, out=incr)
    incr **= p
    return np.sum(incr, axis=1)


def pvariation_sum(values, p: float) -> float:
    """sum |Z_{(k+1)/n} - Z_{k/n}|^p for one path on the dyadic grid of [0,1].

    ``values`` holds the n+1 points Z_0, Z_{1/n}, ..., Z_1 with n a power of
    two; ``p`` must be finite and >= 1.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ParameterError("path must be a 1-D array with at least two points")
    n = v.size - 1
    if n & (n - 1):
        raise ParameterError(f"grid must have 2^k + 1 points, got {v.size}")
    _check_p(p)
    return float(_pvariation_sums(v[None, :], p)[0])


def _dyadic_grid(n: int) -> TimeGrid:
    check_array_size(n + 1, f"the dyadic grid of n = {n}")
    return TimeGrid(np.arange(n + 1, dtype=float) / n)


def _sigma_j_sq(spec: ProcessSpec) -> Optional[float]:
    """Reference increment-scale sigma_J^2, where one is documented."""
    if spec.family == Family.FBM:
        return 1.0
    if spec.family == Family.CANONICAL:
        if abs(spec.H - 0.5) < 1e-12 and abs(spec.c + 1.0) < 1e-12:
            return 1.0  # Brownian motion
        return None
    if spec.family == Family.VOLTERRA_G:
        return volterra_g_variance(spec)
    return None


def pvariation_trichotomy(
    spec: ProcessSpec,
    p: float,
    n_list: Sequence[int],
    n_paths: int,
    seed: int,
) -> VariationReport:
    """Estimate the scaling of mean S_n across dyadic resolutions.

    Draws one ensemble of ``n_paths`` paths on the finest grid
    k / max(n_list) with ``sample_spec``'s default scheme and substream
    family ``seed`` itself, not ``seed`` + level index (time change for
    canonical, circulant embedding for fBm, whose dyadic grids are uniform,
    the exact polynomial-kernel modes, one cumulative sum each, for
    volterra-g with constant g and integer beta >= 0, discretized Volterra
    for other volterra-g,
    Cholesky otherwise).  ``reduce_blocks`` draws its blocks, each from the
    SFC64 stream of ``SeedSequence(seed, spawn_key=(b,))``, on the block
    runner's threads and reduces each to its per-level sums where it is
    drawn, so the ensemble is never held whole, and the report has the same
    bytes for any CPU count.  Level n reads the columns
    ``rows[:, ::max(n_list) // n]``: the sub-grid k / n of the same paths,
    so the levels' means are correlated.  For the exact schemes,
    the restriction of an exact sample to a sub-grid is an exact sample there,
    so each level's mean and SE keep their meaning; for the midpoint
    ``volterra`` scheme a coarse level comes from cells at least as fine as
    a run on its own grid would use.  ``p`` must be finite and >= 1.

    Fits the log-log slope of mean S_n over the top half of ``n_list``.
    Slopes within +-0.1 of zero classify as FiniteLimit with the largest-n
    mean as the limit estimate; the self-similar stationary-increment
    benchmark slope is 1 - pH.  A level whose mean is not positive and
    finite (its sums underflow to 0 or overflow) leaves the slope undefined
    and raises :class:`NumericalError` naming it.
    """
    n_list = [check_integer(n, "n_list entry", 2) for n in n_list]
    if len(n_list) < 2 or any(n & (n - 1) for n in n_list):
        raise ParameterError("n_list must hold at least two powers of two")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ParameterError("n_list must be increasing")
    _check_p(p)
    n_max = n_list[-1]
    sigma_j_sq = _sigma_j_sq(spec)

    def level_sums(rows, scratch):  # one block's sums, one row per level
        with np.errstate(over="ignore"):  # a sum that overflows is refused below
            return np.array([_pvariation_sums(rows[:, ::n_max // n], p, scratch) for n in n_list])

    sums = np.concatenate(reduce_blocks(spec, _dyadic_grid(n_max), n_paths, seed, level_sums), axis=1)
    means_arr = np.array([float(np.mean(level)) for level in sums])
    for n, mean in zip(n_list, means_arr):
        if not 0 < mean < math.inf:
            raise NumericalError(f"the mean p-variation sum at n = {n} is {float(mean)!r}, not positive and finite, "
                                 f"so the log-log slope is undefined")
    ses_arr = np.array([float(np.std(level, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
                        for level in sums])
    half = min(len(n_list) // 2, len(n_list) - 2)
    xs = np.log(np.array(n_list[half:], dtype=float))
    ys = np.log(means_arr[half:])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope <= -_SLOPE_BAND:
        verdict, limit = "VanishingTo0", None
    elif slope >= _SLOPE_BAND:
        verdict, limit = "Diverging", None
    else:
        verdict, limit = "FiniteLimit", float(means_arr[-1])
    return VariationReport(
        spec=spec,
        p=p,
        n_values=tuple(n_list),
        mean_sums=means_arr,
        se_sums=ses_arr,
        slope_estimate=slope,
        verdict=verdict,
        limit_value=limit,
        sigmaJ_sq=sigma_j_sq,
        proven_regime=spec.proven_regime,
    )


def gaussian_abs_moment(sigma_sq: float, p: float) -> float:
    """E|N(0, sigma^2)|^p = sigma^p 2^(p/2) Gamma((p+1)/2) / sqrt(pi).

    ``sigma_sq`` must be finite and >= 0 and ``p`` finite; it diverges for p <= -1, and for p < 0 at zero
    variance (:class:`ParameterError`).  Where float64 cannot hold a factor or the value, NumericalError names p.
    """
    if not 0 <= sigma_sq < math.inf:
        raise ParameterError(f"sigma_sq must be nonnegative and finite, got {sigma_sq!r}")
    if not math.isfinite(p):
        raise ParameterError(f"p must be finite, got {p!r}")
    if p <= -1 or (sigma_sq == 0 and p < 0):
        raise ParameterError(f"E|N(0, {sigma_sq!r})|^p diverges at p = {p!r}")
    if sigma_sq == 0 and p > 0:  # exactly 0, also where Gamma((p+1)/2) overflows
        return 0.0
    try:
        value = sigma_sq ** (p / 2.0) * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    except OverflowError:  # sigma^p, 2^(p/2) or Gamma((p+1)/2) too large
        value = math.inf
    if not value < math.inf:
        raise NumericalError(f"E|N(0, {sigma_sq!r})|^p at p = {p!r} is not representable in float64")
    return value


def ergodic_average(
    spec: ProcessSpec,
    f: str,
    n: int,
    n_paths: int,
    seed: int,
    p: float = 1.0,
) -> ErgodicAverage:
    """Running average (1/n) sum f(Z_{k+1} - Z_k) along integer-time paths.

    ``f`` is "square" or "abs-pow" (with exponent ``p``, finite and > 0);
    ``n`` is an integer >= 2.  The paths are those of ``sample_spec`` on the
    integer grid 0, 1, ..., n: exact ``poly`` paths for constant g with
    integer beta >= 0, otherwise the midpoint ``volterra`` scheme with 64
    cells per unit time.  ``reduce_blocks`` draws their blocks, each from the
    SFC64 stream of ``SeedSequence(seed, spawn_key=(b,))``, on the block
    runner's threads (the midpoint ones on the calling thread alone, as that
    transform holds the GIL), and reduces each to its per-path sums as it is
    drawn, so the ensemble is never held whole.  The
    target is E[f(J)] for J ~ N(0, int_0^1 F^2), evaluated in closed form.
    """
    if spec.family != Family.VOLTERRA_G:
        raise ParameterError("ergodic averages run on the volterra-g family")
    n = check_integer(n, "n", 2)
    if f not in ("square", "abs-pow"):
        raise ParameterError(f"f must be 'square' or 'abs-pow', got {f!r}")
    if f == "abs-pow" and not (p > 0 and math.isfinite(p)):
        raise ParameterError(f"p must be finite and > 0, got {p!r}")
    check_array_size(n + 1, f"the integer grid 0..{n}")
    grid = TimeGrid(np.arange(n + 1, dtype=float))
    power = 2.0 if f == "square" else p  # |x|^2 is x^2 bytewise
    blocks = reduce_blocks(spec, grid, n_paths, seed, lambda rows, scratch: _pvariation_sums(rows, power, scratch),
                           inner_steps=_ERGODIC_INNER_STEPS)
    average = float(np.mean(np.concatenate(blocks) / n))  # sum_k f(Z_{k+1} - Z_k) for each path, over n

    sigma_sq = volterra_g_variance(spec)
    target = sigma_sq if f == "square" else gaussian_abs_moment(sigma_sq, p)
    return ErgodicAverage(average, float(target), float(sigma_sq), n, n_paths, spec.proven_regime)


# ---------------------------------------------------------------------------
# quadrature limits
# ---------------------------------------------------------------------------

def _bracket(spec: ProcessSpec, d: float, root: float):
    """int_0^1 F(s) [F(s) - root F((1-1/d) s)] ds in one quadrature; 1 - (1-1/d) s = dist + s/d."""
    F = spec.weight_at_gap

    def f2(s, dist, _):
        fs = F(dist)
        return fs * (fs - root * F(dist + s / d))

    # near s = 1 the integrand behaves like dist^beta for beta >= 0, but for beta < 0 its
    # F(s)^2 term ~ dist^(2 beta) dominates
    return integrate_power_upper(f2, 0.0, 1.0, min(spec.beta, 2.0 * spec.beta), _LIMIT_TOL, DEFAULT_BUDGET)


def increment_variance(H: float, beta: float, g: GFunction, t: float) -> IncrementVariance:
    """Increment-variance expression at time t, with its limit int_0^1 F^2.

    Evaluates int F^2 + 2 (t+1)^H t^H J(t) with
    J(t) = int F(s) [F(s) - sqrt(t/(1+t)) F((1-1/(t+1)) s)] ds as a single
    quadrature (the bracket is formed pointwise, so there is no catastrophic
    cancellation between separately computed integrals) at tolerance 1e-12
    with the default budget ``DEFAULT_BUDGET``.
    """
    if not 0 < t < math.inf:
        raise ParameterError(f"t must be positive and finite, got {t!r}")
    spec = ProcessSpec.volterra_g(H, beta, g)  # validates H, beta
    bracket = _bracket(spec, t + 1.0, math.sqrt(t / (1.0 + t)))
    limit = volterra_g_variance(spec)
    cross = 2.0 * (t + 1.0) ** H * t**H * bracket.value
    value = limit + cross
    ito = ((t + 1.0) ** H - t**H) ** 2 * limit + cross
    err = 2.0 * (t + 1.0) ** H * t**H * bracket.abs_error_estimate
    return IncrementVariance(float(value), float(err), float(limit), float(ito))


def int_limit_residual(beta: float, g: GFunction, t: float) -> float:
    """t int_0^1 F(s) [F(s) - F((1-1/t) s)] ds + (1/2) int_0^1 F^2 ds.

    Tends to 0 as t grows when F(1) = 0 (beta > 0).  For beta = 0 with
    constant g the bracket vanishes identically and the residual equals
    (1/2) int F^2 exactly; such specs are outside the proven regime and are
    only reported, never asserted.  The bracket is one quadrature at
    tolerance 1e-12 with the default budget ``DEFAULT_BUDGET``.
    """
    if not 2 <= t < math.inf:
        raise ParameterError(f"t must be >= 2 and finite, got {t!r}")
    spec = ProcessSpec.volterra_g(0.25, beta, g)  # validates beta/g only
    bracket = _bracket(spec, t, 1.0)
    half_var = 0.5 * volterra_g_variance(spec)
    return float(t * bracket.value + half_var)


def variation_to_csv(report: VariationReport) -> str:
    """CSV text with columns n, mean_S_n, se_S_n; 17 significant digits."""
    lines = ["n,mean_S_n,se_S_n"]
    for n, m, s in zip(report.n_values, report.mean_sums, report.se_sums):
        lines.append(f"{n},{m:.16e},{s:.16e}")
    return "\n".join(lines) + "\n"
