"""Path generation for every process family, with reproducible substreams.

Randomness discipline: paths are drawn in blocks of ``_BLOCK`` = 1024.
Block ``b`` (paths ``b * 1024`` onward) fills a ``(rows, n_draws)`` array
of standard normals from the counter-based Philox generator keyed by
``(seed, b)``, one row per path in grid order, and each sampler maps that
array to paths with one vectorised transform.  Matrix products go to BLAS
in slices of exactly ``_TILE`` rows, so a path's values depend only on
``(seed, path index)``: a longer run extends a shorter one.  Sampling runs
in the calling thread, so a run is reproducible for any ``--threads``
setting.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, ParameterError
from .gram import TimeGrid, build_gram
from .kernels import CovKernel, Family, GFunction, ProcessSpec, make_kernel, parse_spec_string

__all__ = [
    "PathEnsemble",
    "EmpiricalCov",
    "SelfSimReport",
    "sample_timechange",
    "sample_whitenoise",
    "sample_cholesky",
    "sample_circulant",
    "sample_volterra_zg",
    "sample_volterra_poly",
    "sample_spec",
    "empirical_cov",
    "selfsim_check",
    "set_max_workers",
    "get_max_workers",
    "ensemble_to_csv",
    "save_ensemble",
    "load_ensemble",
]

_BLOCK = 1024  # paths per Philox stream
_TILE = 8  # rows per BLAS call; divides _BLOCK
_RNG_LAYOUT = "philox-block-v1"  # recorded in ensemble sidecars
_max_workers = 1


def set_max_workers(n: Optional[int]) -> None:
    """Record a worker cap (None or <=1 means 1); sampling output never depends on it."""
    global _max_workers
    _max_workers = max(1, int(n)) if n else 1


def get_max_workers() -> int:
    env = os.environ.get("SSGM_THREADS")
    if _max_workers > 1:
        return _max_workers
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def _sample_blocks(
    seed: int, n_paths: int, n_draws: int, d: int, transform: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Fill an (n_paths, d) array one block of ``_BLOCK`` paths at a time.

    Block ``b`` draws ``standard_normal((rows, n_draws))`` from Philox keyed
    ``(seed, b)``, pads it with zero rows to whole ``_TILE``-row tiles and
    stores the first ``rows`` rows of ``transform`` of it.  A transform that
    returns ``d - 1`` columns leaves the leading t = 0 column zero.
    """
    values = np.zeros((n_paths, d))
    for b, lo in enumerate(range(0, n_paths, _BLOCK)):
        rows = min(_BLOCK, n_paths - lo)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        z = np.zeros((-(-rows // _TILE) * _TILE, n_draws))
        rng.standard_normal(out=z[:rows])
        x = transform(z)[:rows]
        values[lo:lo + rows, d - x.shape[1]:] = x
    return values


def _tiled(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``z @ w`` in calls of exactly ``_TILE`` rows of ``z``.

    BLAS picks its kernel, and with it the summation order, from the operand
    shapes, so fixed-shape calls keep each row's result independent of how
    many rows a run has.
    """
    return np.concatenate([z[i:i + _TILE] @ w for i in range(0, len(z), _TILE)])


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Sampled paths on a grid plus full seeding metadata."""

    spec: ProcessSpec
    grid: TimeGrid
    values: np.ndarray  # n_paths x d
    seed: int
    # "timechange" | "cholesky" | "circulant" | "poly" | "whitenoise", or "volterra",
    # the midpoint scheme of volterra-g
    scheme: str
    inner_steps: Optional[int] = None
    jitter: float = 0.0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.grid):
            raise ParameterError("values must be n_paths x len(grid)")

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class EmpiricalCov:
    """Sample mean/covariance with delta-method standard errors."""

    grid: TimeGrid
    mean: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    n_paths: int


def _check_sampling_args(n_paths: int, seed: int) -> None:
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths!r}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _positive_times(grid: TimeGrid) -> np.ndarray:
    """The times after an optional leading t = 0 (a zero column); TimeGrid makes them positive."""
    times = grid.times
    return times[1:] if times[0] == 0.0 else times


def sample_timechange(H: float, c: float, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Exact sampler X_t = t^(2H+c) W(t^(-2H-2c)) for finite c <= -H.

    The time change tau(t) = t^(-2H-2c) is nondecreasing, so W is built from
    independent Gaussian increments in grid order.  At c = -H all tau
    coincide and every path is the rank-one t^H W(1).
    """
    spec = ProcessSpec.canonical(H, c)
    if math.isinf(c):
        raise ParameterError("time-change sampler requires finite c; use sample_whitenoise")
    _check_sampling_args(n_paths, seed)
    pos = _positive_times(grid)
    tau = pos ** (-2.0 * H - 2.0 * c)
    dtau = np.diff(np.concatenate([[0.0], tau]))
    if np.any(dtau < 0):  # theoretically impossible for c <= -H
        raise NumericalError("time change is not monotone")
    sqrt_dtau = np.sqrt(dtau)
    scale = pos ** (2.0 * H + c)

    def transform(z):
        # in place on the block's normals: scale * cumsum(sqrt_dtau * z), no full-size temporaries
        np.multiply(z, sqrt_dtau, out=z)
        np.cumsum(z, axis=1, out=z)
        return np.multiply(z, scale, out=z)

    values = _sample_blocks(seed, n_paths, pos.size, len(grid), transform)
    return PathEnsemble(spec, grid, values, seed, "timechange")


def sample_whitenoise(H: float, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Independent N(0, t^(2H)) draws per grid point per path."""
    spec = ProcessSpec.white_noise(H)
    _check_sampling_args(n_paths, seed)
    times = grid.times
    sd = times**H  # zero at t = 0
    values = _sample_blocks(seed, n_paths, times.size, times.size, lambda z: sd * z)
    return PathEnsemble(spec, grid, values, seed, "whitenoise")


_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


def _cholesky_with_jitter(G: np.ndarray):
    """Lower factor of G, escalating a trace-scaled diagonal jitter if needed."""
    d = G.shape[0]
    base = float(np.trace(G)) / d if d else 0.0
    delta = 0.0
    while True:
        try:
            L = np.linalg.cholesky(G + delta * base * np.eye(d)) if delta else np.linalg.cholesky(G)
            return L, delta
        except np.linalg.LinAlgError:
            delta = _JITTER_START if delta == 0.0 else delta * 10.0
            if delta > _JITTER_MAX:
                eigs = np.linalg.eigvalsh(G)
                raise NumericalError(
                    "covariance factorization failed after maximal jitter "
                    f"{_JITTER_MAX:g}; min eigenvalue {eigs[0]:.3e}, "
                    f"max diagonal {np.max(np.diag(G)):.3e}, d={d}"
                )


def sample_cholesky(kernel: CovKernel, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Generic Gaussian sampler from a factorized Gram matrix.

    Paths have exactly the Gram covariance up to the recorded factorization
    jitter.  A leading t = 0 grid point maps to an identically zero column.
    """
    _check_sampling_args(n_paths, seed)
    pos = _positive_times(grid)
    G = build_gram(kernel, TimeGrid(pos)).entries if pos.size else np.zeros((0, 0))
    L, jitter = _cholesky_with_jitter(G)
    values = _sample_blocks(seed, n_paths, pos.size, len(grid), lambda z: _tiled(z, L.T))
    return PathEnsemble(kernel.spec, grid, values, seed, "cholesky", jitter=jitter)


def _uniform_step(pos: np.ndarray) -> Optional[float]:
    """The step h when the positive grid times ``pos`` are k*h, k = 1..n, else None.

    The test is max |t_k - k*h| <= 4 eps t_max with h = t_max / n; no
    positive time means no step.
    """
    if pos.size == 0:
        return None
    h = pos[-1] / pos.size
    k = np.arange(1, pos.size + 1)
    return float(h) if np.max(np.abs(pos - k * h)) <= 4.0 * np.finfo(float).eps * pos[-1] else None


def _circulant_transform(H: float, n: int, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """Map rows of 2n standard normals to fBm at h, 2h, ..., nh (Davies-Harte).

    The fGn autocovariance r(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 is
    embedded in a symmetric circulant of size 2n, whose eigenvalues are one
    rfft.  A row's first n + 1 normals are the real parts of the rfft
    coefficients 0..n, the last n - 1 the imaginary parts of 1..n-1; the
    first n values of their irfft are exact fGn, and their cumulative sum
    times h^H is fBm.
    """
    k = np.arange(1, n + 1, dtype=float)
    r = np.ones(n + 1)
    # r(k) = k^2H ((1+1/k)^2H + (1-1/k)^2H - 2) / 2 without the cancellation of the raw form
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1
        r[1:] = 0.5 * k ** (2.0 * H) * (np.expm1(2.0 * H * np.log1p(1.0 / k))
                                         + np.expm1(2.0 * H * np.log1p(-1.0 / k)))
    lam = np.fft.rfft(np.concatenate([r, r[-2:0:-1]])).real
    if np.min(lam) < 0:
        raise NumericalError(
            f"circulant embedding of fGn is not PSD: min eigenvalue {np.min(lam):.3e} "
            f"(H={H!r}, n={n})"
        )
    scale = np.sqrt(lam / 2.0) * h**H  # complex coefficients split their variance
    scale[[0, n]] *= math.sqrt(2.0)  # ... except the real ones at 0 and n

    def transform(z):
        w = scale * (z[:, :n + 1] + 1j * np.pad(z[:, n + 1:], ((0, 0), (1, 1))))
        return np.cumsum(np.fft.irfft(w, 2 * n, axis=1, norm="ortho")[:, :n], axis=1)

    return transform


def sample_circulant(H: float, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Exact fBm sampler on a uniform grid by circulant embedding, O(n log n) per path.

    The grid must be h, 2h, ..., nh, optionally with a leading t = 0 (a zero
    column).  Each path draws 2n normals; its covariance is exactly the fBm
    covariance on the grid, up to rounding.  A negative circulant eigenvalue
    raises :class:`NumericalError`; there is no fallback.
    """
    spec = ProcessSpec.fbm(H)
    _check_sampling_args(n_paths, seed)
    pos = _positive_times(grid)
    h = _uniform_step(pos)
    if h is None:
        raise ParameterError("circulant scheme needs a uniform grid t_k = k*h (optionally with a leading 0)")
    values = _sample_blocks(seed, n_paths, 2 * pos.size, len(grid), _circulant_transform(H, pos.size, h))
    return PathEnsemble(spec, grid, values, seed, "circulant")


def _zg_discrete_var(spec: ProcessSpec, inner_steps: int) -> float:
    """Discretized Var(Z_1) for the resolution-doubling policy."""
    m = np.arange(inner_steps) / inner_steps + 0.5 / inner_steps
    F = spec.weight_at_gap(1.0 - m)
    return float(np.sum(F * F) / inner_steps)


def _volterra_transform(spec: ProcessSpec, pos: np.ndarray, inner_steps: int) -> tuple[int, Callable]:
    """(n_cells, transform) of the midpoint scheme at the positive times ``pos``.

    Cells of width w_k and midpoint m_k end at every 1/inner_steps lattice
    point and grid time up to max pos.  ``transform`` maps rows of n_cells
    normals, dB_k = sqrt(w_k) z_k, to Z_{t_j} = t_j^(H-1/2) sum_k F(m_k / t_j)
    dB_k over the cells inside [0, t_j], the first searchsorted(bounds, t_j).
    """
    t_max = float(pos.max(initial=0.0))
    lattice = np.arange(int(np.ceil(t_max * inner_steps)) + 1, dtype=float) / inner_steps
    bounds = np.union1d(lattice[lattice <= t_max], pos)
    sqrt_w = np.sqrt(np.diff(bounds))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    cut = np.searchsorted(bounds, pos)  # exact: bounds holds every grid time

    def transform(z):
        dB = z * sqrt_w
        x = np.empty((len(z), pos.size))
        for j, (t, k) in enumerate(zip(pos, cut)):
            x[:, j] = t ** (spec.H - 0.5) * _tiled(dB[:, :k], spec.weight_at_gap(1.0 - mids[:k] / t))
        return x

    return sqrt_w.size, transform


def sample_volterra_zg(
    H: float,
    beta: float,
    g: GFunction,
    grid: TimeGrid,
    inner_steps: Optional[int] = None,
    n_paths: int = 1,
    seed: int = 0,
) -> PathEnsemble:
    """Discretized Z_t = t^(H-1/2) integral_0^t (1-s/t)^beta g(s/t) dB_s.

    The midpoint scheme of ``_volterra_transform``, on cells no wider than
    1/inner_steps that never straddle a grid time.  When ``inner_steps`` is
    None it starts at 256 per unit time and doubles until the Var(Z_1)-style
    Richardson gap between consecutive resolutions is below 1%.  ``beta <=
    0`` is permitted but flagged: the asymptotic-stationarity theory behind
    downstream diagnostics is only proved for beta > 0.
    """
    spec = ProcessSpec.volterra_g(H, beta, g)
    _check_sampling_args(n_paths, seed)
    if inner_steps is None:
        inner_steps = 256
        while inner_steps < 4096:
            v1 = _zg_discrete_var(spec, inner_steps)
            v2 = _zg_discrete_var(spec, 2 * inner_steps)
            if abs(v2 - v1) <= 0.01 * max(abs(v2), 1e-300):
                break
            inner_steps *= 2
    if inner_steps < 64:
        raise ParameterError("inner_steps must be >= 64")
    n_cells, transform = _volterra_transform(spec, _positive_times(grid), inner_steps)
    values = _sample_blocks(seed, n_paths, n_cells, len(grid), transform)
    return PathEnsemble(spec, grid, values, seed, "volterra", inner_steps=inner_steps)


def _poly_degree(beta: float, g: GFunction) -> Optional[int]:
    """beta as an int when the volterra-g weight (1-x)^beta g(x) is a polynomial, else None."""
    return int(beta) if g.kind == "const" and float(beta).is_integer() and beta >= 0 else None


def _hilbert_cholesky(K: int) -> np.ndarray:
    """Lower Cholesky factor of the K x K Hilbert matrix 1/(k+l+1), in closed form.

    Row k holds the coefficients of v^k in the orthonormal shifted Legendre
    basis sqrt(2m+1) P_m(2v-1) of L^2[0, 1]:
    L_km = sqrt(2m+1) k!^2 / ((k+m+1)! (k-m)!).
    """
    f = math.factorial
    return np.array([[math.sqrt(2 * m + 1) * (f(k) ** 2 / (f(k + m + 1) * f(k - m))) if m <= k else 0.0
                      for m in range(K)] for k in range(K)])


def _poly_transform(H: float, beta: int, a: float, times: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map rows of (beta+1) d standard normals to Z at the d positive ``times``, exactly.

    Z_t = a t^(H-1/2-beta) Y_beta(t) with Y_k(t) = int_0^t (t-u)^k dB_u.  The
    state X_k(t) = t^-(k+1/2) Y_k(t), k = 0..beta, is Gaussian Markov: from
    t to t' = t + h, with rho = t/t' and q = h/t',

        X_k(t') = sum_i C(k,i) q^(k-i) rho^(i+1/2) X_i(t) + q^(k+1/2) (L z)_k,

    since (t'-u)^k = sum_i C(k,i) h^(k-i) (t-u)^i and the new increments'
    moments int_0^h v^(k+l) dv = h^(k+l+1) / (k+l+1) are a scaled Hilbert
    matrix with factor ``_hilbert_cholesky``.  This is the transition
    Y(t+h) = P(h) Y(t) + C(h) z conjugated by diag(t^(k+1/2)), so the state
    stays O(1) and Z_t = a t^H X_beta(t).  Step j uses normals
    z[:, j(beta+1):(j+1)(beta+1)]; each step is elementwise in fixed order,
    so a row's result does not depend on how many rows there are.
    """
    K = beta + 1
    k = np.arange(K)
    prev = np.concatenate([[0.0], times[:-1]])
    rho = (prev / times)[:, None, None]
    q = ((times - prev) / times)[:, None, None]
    binom = np.array([[math.comb(r, c) for c in range(K)] for r in range(K)], dtype=float)
    P = binom * q ** np.maximum(k[:, None] - k, 0) * rho ** (k + 0.5)  # (d, K, K), lower triangular
    C = q ** (k[:, None] + 0.5) * _hilbert_cholesky(K)  # (d, K, K)
    scale = a * times**H

    def transform(z):
        z = z.reshape(len(z), times.size, K)
        noise = z[:, :, :1] * C[:, :, 0]
        for m in range(1, K):
            noise += z[:, :, m:m + 1] * C[:, :, m]
        x = np.zeros((len(z), K))
        out = np.empty((len(z), times.size))
        for j in range(times.size):
            new = noise[:, j]
            for i in range(K):
                new = new + x[:, i:i + 1] * P[j, :, i]
            x = new
            out[:, j] = x[:, beta]
        return scale * out

    return transform


def sample_volterra_poly(
    H: float, beta: float, a: float, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """Exact sampler for constant-g volterra-g, g = a, with integer beta >= 0.

    (t-u)^beta is a polynomial in u, so Z_t is a linear function of the
    (beta+1)-dimensional Gaussian Markov state described in
    ``_poly_transform``.  Each path draws (beta+1) normals per positive grid
    point and costs O(d (beta+1)^2); there is no Gram matrix, factorization
    or ``inner_steps``.  Any positive grid works, with or without a leading
    t = 0 (a zero column), and the covariance equals ``make_kernel``'s up to
    rounding.
    """
    spec = ProcessSpec.volterra_g(H, beta, GFunction.const(a))
    degree = _poly_degree(spec.beta, spec.g)
    if degree is None:
        raise ParameterError(f"poly scheme needs an integer beta >= 0, got beta={beta!r}")
    _check_sampling_args(n_paths, seed)
    pos = _positive_times(grid)
    values = _sample_blocks(seed, n_paths, (degree + 1) * pos.size, len(grid),
                            _poly_transform(spec.H, degree, spec.g.a, pos))
    return PathEnsemble(spec, grid, values, seed, "poly")


def sample_spec(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: Optional[str] = None,
    inner_steps: Optional[int] = None,
) -> PathEnsemble:
    """Sample a spec with its family-appropriate (or requested) scheme.

    The canonical family goes through the exact ``timechange`` scheme.  fBm
    goes through ``circulant`` on a uniform grid and ``cholesky`` on any
    other grid.  Volterra-g goes through the exact ``poly`` scheme when g is
    constant and beta an integer >= 0, and through the midpoint ``volterra``
    scheme otherwise.  ``volterra`` applies to volterra-g only, and
    ``inner_steps`` reaches only that scheme.
    """
    fam = spec.family
    if scheme is None:
        scheme = {
            Family.CANONICAL: "timechange",
            Family.WHITE_NOISE: "whitenoise",
            Family.VOLTERRA_G: "volterra",
        }.get(fam, "cholesky")
        if fam == Family.CANONICAL and math.isinf(spec.c):
            scheme = "whitenoise"
        if fam == Family.FBM and _uniform_step(_positive_times(grid)) is not None:
            scheme = "circulant"
        if fam == Family.VOLTERRA_G and _poly_degree(spec.beta, spec.g) is not None:
            scheme = "poly"
    if scheme == "timechange":
        if fam != Family.CANONICAL:
            raise ParameterError("timechange scheme applies to the canonical family")
        return sample_timechange(spec.H, spec.c, grid, n_paths, seed)
    if scheme == "whitenoise":
        if fam != Family.WHITE_NOISE and not (fam == Family.CANONICAL and math.isinf(spec.c)):
            raise ParameterError("whitenoise scheme applies to the white-noise family")
        return sample_whitenoise(spec.H, grid, n_paths, seed)
    if scheme == "volterra":
        if fam != Family.VOLTERRA_G:
            raise ParameterError("volterra scheme applies to volterra-g specs")
        return sample_volterra_zg(spec.H, spec.beta, spec.g, grid, inner_steps, n_paths, seed)
    if scheme == "poly":
        if fam != Family.VOLTERRA_G or spec.g.kind != "const":
            raise ParameterError("poly scheme applies to volterra-g specs with constant g")
        return sample_volterra_poly(spec.H, spec.beta, spec.g.a, grid, n_paths, seed)
    if scheme == "circulant":
        if fam != Family.FBM:
            raise ParameterError("circulant scheme applies to the fbm family")
        return sample_circulant(spec.H, grid, n_paths, seed)
    if scheme == "cholesky":
        return sample_cholesky(make_kernel(spec), grid, n_paths, seed)
    raise ParameterError(f"unknown sampling scheme {scheme!r}")


def empirical_cov(ensemble: PathEnsemble) -> EmpiricalCov:
    """Unbiased sample covariance with delta-method standard errors.

    The standard error of cov[i, j] uses the Gaussian fourth-moment formula
    (c_ii c_jj + c_ij^2) / n with the estimated covariance plugged in.
    The covariance is one centred einsum contraction, which sums in a fixed
    order and so gives the same bytes for any BLAS thread count.
    """
    n = ensemble.n_paths
    if n < 2:
        raise ParameterError("empirical covariance requires n_paths >= 2")
    X = ensemble.values
    mean = X.mean(axis=0)
    C = X - mean
    cov = np.einsum("ni,nj->ij", C, C) / (n - 1)
    var = np.diag(cov)
    se = np.sqrt(np.maximum(np.outer(var, var) + cov**2, 0.0) / n)
    return EmpiricalCov(ensemble.grid, mean, cov, se, n)


@dataclass(frozen=True, eq=False)
class SelfSimReport:
    """Elementwise scaling check between grids g and a*g."""

    a: float
    H: float
    ratios: np.ndarray  # |cov_a - a^(2H) cov| / (4 * combined SE)
    max_ratio: float
    n_exceed: int


def selfsim_check(
    spec: ProcessSpec,
    a: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: Optional[str] = None,
) -> SelfSimReport:
    """Compare sampled covariance on a*grid against a^(2H) times grid's.

    The two ensembles use independent substream families (seed and seed+1).
    Reported ratios are |difference| / (4 * combined SE); values <= 1 are
    within the design tolerance.
    """
    if not a > 0:
        raise ParameterError("a must be positive")
    base = empirical_cov(sample_spec(spec, grid, n_paths, seed, scheme=scheme))
    scaled = empirical_cov(sample_spec(spec, grid.scaled(a), n_paths, seed + 1, scheme=scheme))
    factor = a ** (2.0 * spec.H)
    diff = np.abs(scaled.cov - factor * base.cov)
    combined = np.sqrt(scaled.se**2 + (factor * base.se) ** 2)
    denom = 4.0 * np.where(combined > 0, combined, np.inf)
    ratios = diff / denom
    return SelfSimReport(a, spec.H, ratios, float(np.max(ratios)), int(np.sum(ratios > 1.0)))


# ---------------------------------------------------------------------------
# ensemble export
# ---------------------------------------------------------------------------

def ensemble_to_csv(ensemble: PathEnsemble) -> str:
    """CSV text: header = grid times, one row per path; 17 significant digits."""
    lines = [",".join(f"{x:.16e}" for x in ensemble.grid.times)]
    for row in ensemble.values:
        lines.append(",".join(f"{x:.16e}" for x in row))
    return "\n".join(lines) + "\n"


def save_ensemble(ensemble: PathEnsemble, path) -> None:
    """Write a column-major float64 matrix file plus a JSON sidecar."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(np.asfortranarray(ensemble.values).tobytes(order="F"))
    sidecar = {
        "spec": ensemble.spec.label(),
        "grid": [float(t) for t in ensemble.grid.times],
        "seed": ensemble.seed,
        "scheme": ensemble.scheme,
        "inner_steps": ensemble.inner_steps,
        "jitter": ensemble.jitter,
        "shape": list(ensemble.values.shape),
        "dtype": "float64",
        "order": "F",
        "rng": _RNG_LAYOUT,
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_ensemble(path) -> PathEnsemble:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    shape = tuple(sidecar["shape"])
    data = path.read_bytes()
    if len(data) != 8 * math.prod(shape):
        raise ParameterError(
            f"{path}: {len(data)} bytes, but the sidecar shape {list(shape)} needs "
            f"{8 * math.prod(shape)} float64 bytes"
        )
    values = np.frombuffer(data, dtype=np.float64).reshape(shape, order="F")
    return PathEnsemble(
        parse_spec_string(sidecar["spec"]),
        TimeGrid(np.asarray(sidecar["grid"], dtype=float)),
        values,
        int(sidecar["seed"]),
        sidecar["scheme"],
        inner_steps=sidecar.get("inner_steps"),
        jitter=float(sidecar.get("jitter", 0.0)),
    )
