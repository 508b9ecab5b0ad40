"""Path generation for every process family, with reproducible substreams.

Every draw checks the path count and seed, picks a scheme (the family's
default unless one of ``SCHEMES`` is asked for) and runs that scheme's
builder on the positive grid times, so a leading t = 0 is a zero column in
every scheme.  A builder refuses a spec or grid it does not fit; otherwise
its ``_Plan`` says how to draw.  ``sample_spec`` draws the paths into one
``PathEnsemble``; ``reduce_blocks`` draws the same paths and reduces each
block where it is drawn, so a reducer (the p-variation trichotomy, the
ergodic average) never holds the ensemble.

Randomness discipline: a plan's paths are drawn in blocks of
P = min(1024, max(min_rows, 2^17 // n_draws)) paths, about 2^17 normals
(at least ``min_rows`` = 64 rows for the midpoint transform, which loops
over grid times in Python; 1 for every other).  Block ``b`` (paths ``b * P`` onward)
draws ``n_draws`` standard normals per path, one row per path in grid
order, in one call of an SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(b,))`` (``_block_generator``, numpy's route
to independent parallel streams; the seeded sequence reads no OS entropy),
and one call of the sampler's vectorised, row-independent transform maps
the rows of normals to paths.  Ensemble sidecars record this layout as
``"rng": "sfc64-block-v4"``.  Matrix products go to BLAS as one stacked
``np.matmul`` over zero-padded slices of exactly ``_TILE`` rows
(``_tiled``), one call of the same shape per slice, so a path's values
depend only on ``(seed, path index)``: a longer run extends a shorter one.
The canonical ``timechange`` transform is such a product with the
closed-form triangular factor of its Markov covariance where a row holds
at most ``_BLOCK_NORMALS // _BLOCK`` (128) normals, and an in-place
cumulative sum on longer rows; both read the same normals in the same
layout, so the sidecar tag is the same for either.  P depends only
on the plan, so this holds for any CPU count.  Blocks are independent
streams that write disjoint rows, so ``_draw_blocks``, the one place that
builds a block's generator and starts threads, draws them on the calling
thread plus up to one pool thread per further CPU in the process's
affinity mask (no option sets that count); each thread draws the blocks it
takes through one normals buffer and one rows buffer, and the bytes are the
same for any CPU count.  ``_drawing_threads`` caps the threads so that their buffers
hold about 2^18 normals at most (one thread where a block holds more),
whatever the CPU count, and draws the midpoint blocks on the calling
thread alone.  ``empirical_cov`` and ``selfsim_check`` reduce each
block to its moments (``selfsim_check`` where the block is drawn) and merge
them in block order, so ``selfsim_check`` holds no ensemble.  The Cholesky
factor, the blocks' transforms and their moments run inside
``gram.one_blas_thread``, so where numpy's BLAS is an OpenBLAS it can find,
paths and covariances are also the same bytes for any
``OPENBLAS_NUM_THREADS``; with another BLAS its thread count may change
their last bits.
"""

from __future__ import annotations

import json
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import NumericalError, ParameterError
from .gram import TimeGrid, build_gram, check_array_size, one_blas_thread
from .kernels import Family, GFunction, ProcessSpec, make_kernel, parse_spec_string

__all__ = [
    "PathEnsemble",
    "EmpiricalCov",
    "SelfSimReport",
    "SCHEMES",
    "sample_spec",
    "sample_timechange",
    "empirical_cov",
    "selfsim_check",
    "get_max_workers",
    "ensemble_csv_lines",
    "save_ensemble",
    "load_ensemble",
]

_BLOCK = 1024  # most paths per block stream
_BLOCK_NORMALS = 2**17  # normals per block stream, rounded down to whole rows (at least min_rows)
_TILE = 8  # rows per BLAS call
_LOOP_ROWS = 64  # least rows per call of the midpoint transform, which loops over grid times in Python
_DRAW_NORMALS = 2 * _BLOCK_NORMALS  # most normals in the drawing threads' buffers at once
_RNG_LAYOUT = "sfc64-block-v4"  # recorded in ensemble sidecars


# perfbench/spans.py looks this name up in Tracer.install(): deleting it makes every traced run raise KeyError
def get_max_workers() -> int:
    """1: no worker count is settable; ``sample_spec`` counts the CPUs itself."""
    return 1


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _tiled(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``z @ w`` as one stacked ``np.matmul`` over tiles of exactly ``_TILE`` rows of ``z``.

    A last partial tile is padded with zero rows.  BLAS picks its kernel, and
    with it the summation order, from the operand shapes, and the stacked
    product makes one call of the same shape per tile, so each row's result
    does not depend on how many rows a run has: the bytes are those of one
    ``@`` per tile.  The tile count is explicit, so ``z`` may have no columns.
    """
    n = len(z)
    if n % _TILE:
        z = np.concatenate([z, np.zeros((-n % _TILE, z.shape[1]))])
    tiles = z.reshape(len(z) // _TILE, _TILE, z.shape[1])
    return np.matmul(tiles, w).reshape(len(z), *w.shape[1:])[:n]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Sampled paths on a grid plus full seeding metadata."""

    spec: ProcessSpec
    grid: TimeGrid
    values: np.ndarray  # n_paths x d
    seed: int  # seed and inner_steps are held as Python ints (a float is refused), jitter as a float
    scheme: str  # one of SCHEMES; "volterra" is the midpoint scheme of volterra-g
    inner_steps: Optional[int] = None
    jitter: float = 0.0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.grid):
            raise ParameterError("values must be n_paths x len(grid)")
        inner = self.inner_steps
        object.__setattr__(self, "seed", operator.index(self.seed))
        object.__setattr__(self, "inner_steps", None if inner is None else operator.index(inner))
        object.__setattr__(self, "jitter", float(self.jitter))

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


def _check_sampling_args(n_paths: int, seed: int, d: int) -> None:
    # bool is an int subclass, but True is neither a path count nor a seed
    if not isinstance(n_paths, (int, np.integer)) or isinstance(n_paths, bool):
        raise ParameterError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths!r}")
    check_array_size(int(n_paths) * d, f"an ensemble of {n_paths} paths x {d} grid points")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _positive_times(grid: TimeGrid) -> np.ndarray:
    """The times after an optional leading t = 0 (a zero column); TimeGrid makes them positive."""
    times = grid.times
    return times[1:] if times[0] == 0.0 else times


class _Plan(NamedTuple):
    """A builder's answer: how ``_draw_blocks`` draws, and what the ensemble records."""

    n_draws: int
    transform: Callable[[np.ndarray], np.ndarray]
    min_rows: int = 1
    inner_steps: Optional[int] = None
    jitter: float = 0.0


def _timechange(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Exact X_t = t^(2H+c) W(t^(-2H-2c)) for the canonical family with finite c <= -H.

    The time change tau(t) = t^(-2H-2c) is nondecreasing, so W is built from
    independent Gaussian increments in grid order.  At c = -H all tau
    coincide and every path is the rank-one t^H W(1).

    A path is x_j = t_j^(2H+c) sum_{i<=j} sqrt(dtau_i) z_i, that is z @ A with
    the closed-form upper-triangular factor A[i, j] = sqrt(dtau_i) t_j^(2H+c),
    i <= j, of the Markov covariance A^T A = (s v t)^(2H+c) (s ^ t)^(-c).
    Rows of at most ``_BLOCK_NORMALS // _BLOCK`` (128) positive times, whose
    blocks hold 1024 paths, are mapped as ``_tiled(z, A)``, one stacked BLAS
    product; longer rows, where the d^2 product costs more than a cumulative
    sum, keep ``scale * cumsum(sqrt_dtau * z)`` in place on the normals.
    """
    if spec.family != Family.CANONICAL:
        raise ParameterError("timechange scheme applies to the canonical family with finite c; "
                             "its c = -inf limit, white noise, takes the whitenoise scheme")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        tau = pos ** (-2.0 * spec.H - 2.0 * spec.c)
        dtau = np.diff(np.concatenate([[0.0], tau]))
        scale = pos ** (2.0 * spec.H + spec.c)
    # nan fails each test; dtau < 0, impossible for c <= -H in exact arithmetic, would be rounding
    bad = ~((dtau >= 0) & (dtau < math.inf) & (scale < math.inf))
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericalError(f"time change at t = {float(pos[j])!r} is not finite and nondecreasing: "
                             f"dtau = {float(dtau[j])!r}, t^(2H+c) = {float(scale[j])!r}")
    sqrt_dtau = np.sqrt(dtau)
    if pos.size <= _BLOCK_NORMALS // _BLOCK:
        factor = np.triu(np.outer(sqrt_dtau, scale))
        return _Plan(pos.size, lambda z: _tiled(z, factor))

    def transform(z):
        # long rows, in place on the block's normals: scale * cumsum(sqrt_dtau * z), no full-size temporaries
        np.multiply(z, sqrt_dtau, out=z)
        np.cumsum(z, axis=1, out=z)
        return np.multiply(z, scale, out=z)

    return _Plan(pos.size, transform)


def _whitenoise(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Independent N(0, t^(2H)) draws per positive grid time, for the white-noise family.

    ``ProcessSpec`` makes a canonical spec given c = -inf the white-noise spec
    of its H, so the canonical limit arrives here as that spec.
    """
    if spec.family != Family.WHITE_NOISE:
        raise ParameterError("whitenoise scheme applies to the white-noise family")
    sd = pos**spec.H
    return _Plan(pos.size, lambda z: sd * z)


_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


def _cholesky_with_jitter(G: np.ndarray):
    """Lower factor of G, escalating a trace-scaled diagonal jitter if needed."""
    d = G.shape[0]
    base = float(np.trace(G)) / d if d else 0.0
    delta = 0.0
    with one_blas_thread():
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


def _cholesky(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Any family, from the factorized ``make_kernel`` Gram matrix at the positive times.

    Paths have exactly the Gram covariance up to the recorded factorization
    jitter.
    """
    G = build_gram(make_kernel(spec), TimeGrid(pos)).entries if pos.size else np.zeros((0, 0))
    L, jitter = _cholesky_with_jitter(G)
    return _Plan(pos.size, lambda z: _tiled(z, L.T), jitter=jitter)


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
        w = np.zeros((len(z), n + 1), dtype=complex)  # the coefficients, built in place
        w.real = z[:, :n + 1]
        w.imag[:, 1:n] = z[:, n + 1:]
        w *= scale
        return np.cumsum(np.fft.irfft(w, 2 * n, axis=1, norm="ortho")[:, :n], axis=1)

    return transform


def _circulant(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Exact fBm on a uniform grid h, 2h, ..., nh by circulant embedding, O(n log n) per path.

    Each path draws 2n normals.  A negative circulant eigenvalue raises
    :class:`NumericalError`; there is no fallback.
    """
    if spec.family != Family.FBM:
        raise ParameterError("circulant scheme applies to the fbm family")
    h = _uniform_step(pos)
    if h is None:
        raise ParameterError("circulant scheme needs a uniform grid t_k = k*h (optionally with a leading 0)")
    return _Plan(2 * pos.size, _circulant_transform(spec.H, pos.size, h))


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
    n_lattice = int(np.ceil(t_max * inner_steps)) + 1
    check_array_size(n_lattice, f"the midpoint lattice at inner_steps = {inner_steps}")
    lattice = np.arange(n_lattice, dtype=float) / inner_steps
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


def _volterra(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Discretized Z_t = t^(H-1/2) integral_0^t (1-s/t)^beta g(s/t) dB_s for volterra-g.

    The midpoint scheme of ``_volterra_transform``, on cells no wider than
    1/inner_steps that never straddle a grid time.  When ``inner_steps`` is
    None it starts at 256 per unit time and doubles until the Var(Z_1)-style
    Richardson gap between consecutive resolutions is below 1%; a grid with
    no positive time draws no cell, so it picks none and records None.
    ``beta <= 0`` is permitted but flagged: the asymptotic-stationarity
    theory behind downstream diagnostics is only proved for beta > 0.
    """
    if spec.family != Family.VOLTERRA_G:
        raise ParameterError("volterra scheme applies to volterra-g specs")
    if not pos.size:  # the grid {0}: one zero column
        return _Plan(0, lambda z: z, inner_steps=inner_steps)
    if inner_steps is None:
        inner_steps = 256
        v1 = _zg_discrete_var(spec, inner_steps)
        while inner_steps < 4096:
            v2 = _zg_discrete_var(spec, 2 * inner_steps)
            if abs(v2 - v1) <= 0.01 * max(abs(v2), 1e-300):
                break
            inner_steps, v1 = 2 * inner_steps, v2
    n_cells, transform = _volterra_transform(spec, pos, inner_steps)
    return _Plan(n_cells, transform, _LOOP_ROWS, inner_steps)


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

    Z_t = a t^(H-1/2-beta) Y_beta(t) with Y_k(t) = int_0^t (t-u)^k dB_u.  Over
    the cell (t_{j-1}, t_j] of width h, (t_j-u)^k = sum_i C(k,i) h^(k-i)
    (t_{j-1}-u)^i expands about the cell's start, so

        Y_k(t_j) = Y_k(t_{j-1}) + sum_{i<k} C(k,i) h^(k-i) Y_i(t_{j-1}) + h^(k+1/2) (L z_j)_k,

    where the cell's moments int_0^h v^(k+l) dv = h^(k+l+1) / (k+l+1) are a
    scaled Hilbert matrix with factor L = ``_hilbert_cholesky``.  Every
    coefficient is positive, so the expansion cancels nothing (one about
    u = 0 has alternating binomial terms and loses about 2^beta eps), and
    once the modes below k are known each Y_k is one cumulative sum along the
    grid.  The sums run in units of a segment's last time T, Y_k / T^(k+1/2);
    a new segment starts only where (t/T)^(beta+1/2) would fall below the
    smallest normal float64, so most grids are one segment, and the state is
    carried into the next segment's unit at its start.  Cell j uses normals
    z[:, j(beta+1):(j+1)(beta+1)]; every operation is elementwise in a fixed
    order, so a row's result does not depend on how many rows there are.
    """
    K, d = beta + 1, times.size
    L = _hilbert_cholesky(K)
    tiny = float(np.finfo(float).tiny)
    floor = max(tiny ** (1.0 / (beta + 0.5)), tiny)  # least t / T in a segment; t / T itself stays normal
    ends = [0]
    while ends[-1] < d:
        ends.append(int(np.searchsorted(floor * times, times[ends[-1]], side="right")))
    last = times[np.array(ends[1:], dtype=int) - 1]  # each segment's unit T
    unit = np.repeat(last, np.diff(ends))
    step = np.diff(times, prepend=0.0) / unit
    k = np.arange(K)[:, None]
    step_pow = step**k  # (K, d): h^n of the drift C(k,i) h^(k-i), n = k - i >= 1
    noise_scale = step ** (k + 0.5)  # (K, d)
    carry = (last[:-1] / last[1:]) ** (k + 0.5)  # (K, segments - 1): Y_k into the next segment's unit
    out_scale = (unit / times) ** (beta + 0.5)  # Y_beta / t^(beta+1/2), the O(1) state, before a t^H
    scale = a * times**H

    def transform(z):
        zt = z.reshape(len(z), d, K)
        Y = np.empty((K, len(z), d + 1))  # Y[k, :, j + 1] is mode k at times[j], Y[:, :, 0] the state at t = 0
        Y[:, :, 0] = 0.0
        x = np.empty((len(z), d))  # the terms' buffer, then each segment's Z
        for m in range(K):  # every cell's noise h^(m+1/2) (L z)_m
            y = Y[m, :, 1:]
            np.multiply(zt[:, :, 0], L[m, 0], out=y)
            for n in range(1, m + 1):
                y += np.multiply(zt[:, :, n], L[m, n], out=x)
            y *= noise_scale[m]
        for s, (lo, hi) in enumerate(zip(ends, ends[1:])):
            if s:
                Y[:, :, lo] *= carry[:, s - 1:s]
            for m in range(K):  # mode m adds the drift of the modes below it, then sums along the grid
                y, terms = Y[m, :, lo + 1:hi + 1], x[:, lo:hi]
                for i in range(m):
                    y += np.multiply(Y[i, :, lo:hi], math.comb(m, i) * step_pow[m - i, lo:hi], out=terms)
                np.cumsum(Y[m, :, lo:hi + 1], axis=1, out=Y[m, :, lo:hi + 1])
            np.multiply(Y[beta, :, lo + 1:hi + 1], out_scale[lo:hi], out=x[:, lo:hi])
        x *= scale
        return x

    return transform


def _poly(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Exact volterra-g with constant g = a and integer beta >= 0.

    (t-u)^beta is a polynomial in u, so Z_t is a linear function of the
    (beta+1)-dimensional Gaussian Markov state Y_0..Y_beta of
    ``_poly_transform``, each mode one cumulative sum along the grid.  Each
    path draws (beta+1) normals per positive grid point and costs
    O(d (beta+1)^2); there is no Gram matrix, factorization or
    ``inner_steps``.  Any positive grid works, and the covariance equals
    ``make_kernel``'s up to rounding.  The transform is vectorised over the
    grid, so its blocks are ordinary ones of about 2^17 normals.
    """
    if spec.family != Family.VOLTERRA_G or spec.g.kind != "const":
        raise ParameterError("poly scheme applies to volterra-g specs with constant g")
    degree = _poly_degree(spec.beta, spec.g)
    if degree is None:
        raise ParameterError(f"poly scheme needs an integer beta >= 0, got beta={spec.beta!r}")
    return _Plan((degree + 1) * pos.size, _poly_transform(spec.H, degree, spec.g.a, pos))


# scheme name -> builder (spec, positive times, inner_steps) -> _Plan; the order is the CLI's
_SCHEMES = {"timechange": _timechange, "cholesky": _cholesky, "circulant": _circulant,
            "whitenoise": _whitenoise, "volterra": _volterra, "poly": _poly}
SCHEMES = tuple(_SCHEMES)


def _default_scheme(spec: ProcessSpec, pos: np.ndarray) -> str:
    fam = spec.family
    if fam == Family.CANONICAL:
        return "timechange"
    if fam == Family.WHITE_NOISE:
        return "whitenoise"
    if fam == Family.VOLTERRA_G:
        return "volterra" if _poly_degree(spec.beta, spec.g) is None else "poly"
    return "circulant" if fam == Family.FBM and _uniform_step(pos) is not None else "cholesky"


def _plan(spec: ProcessSpec, grid: TimeGrid, n_paths: int, seed: int, scheme: Optional[str],
          inner_steps: Optional[int]) -> tuple[str, _Plan]:
    """Check the path count, seed and ``inner_steps``, pick the scheme and run its builder: (scheme, plan).

    ``inner_steps`` is None or an integer >= 64 for every scheme, also those
    that do not read it.
    """
    _check_sampling_args(n_paths, seed, len(grid))
    if inner_steps is not None:
        if not isinstance(inner_steps, (int, np.integer)) or isinstance(inner_steps, bool) or inner_steps < 64:
            raise ParameterError(f"inner_steps must be None or an integer >= 64, got {inner_steps!r}")
    pos = _positive_times(grid)
    if scheme is None:
        scheme = _default_scheme(spec, pos)
    if scheme not in _SCHEMES:
        raise ParameterError(f"unknown sampling scheme {scheme!r}")
    return scheme, _SCHEMES[scheme](spec, pos, inner_steps)


def _block_rows(plan: _Plan) -> int:
    """P, the paths of each block of ``plan``: about ``_BLOCK_NORMALS`` normals, at least ``min_rows``."""
    return min(_BLOCK, max(plan.min_rows, _BLOCK_NORMALS // max(1, plan.n_draws)))


def _drawing_threads(plan: _Plan) -> int:
    """The most threads that draw ``plan``'s blocks, whatever the CPU count.

    Each holds one block of normals and one of rows, so together they hold
    about ``_DRAW_NORMALS`` normals at most, or one block where a block
    holds more (two threads for blocks of
    ``_BLOCK_NORMALS``, sixteen for 1024 rows of 16), and the peak does not
    grow with the CPU count.  The midpoint transform (the one plan with
    ``min_rows`` > 1) loops over grid times in Python and holds the GIL, so
    a second thread adds CPU time and no speed: its blocks are drawn on the
    calling thread.
    """
    if plan.min_rows > 1:
        return 1
    return max(1, _DRAW_NORMALS // (_block_rows(plan) * max(1, plan.n_draws)))


def _block_generator(seed: int, b: int) -> np.random.Generator:
    """Block ``b``'s generator: SFC64 seeded by ``SeedSequence(seed, spawn_key=(b,))``.

    The seeded sequence hashes ``(seed, b)`` into SFC64's state and reads no
    OS entropy, so block ``b`` of ``seed`` draws the same normals on any
    thread and any CPU count.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def _draw_blocks(plan: _Plan, seed: int, n_paths: int, d: int,
                 reduce: Callable[[np.ndarray, np.ndarray], object], out: Optional[np.ndarray] = None) -> list:
    """``[reduce(rows, scratch) for each block]`` in block order, each block reduced by the thread that drew it.

    Block ``b`` holds paths ``b * P`` onward, P = ``_block_rows(plan)`` (fewer
    in the last block).  It draws its rows of ``n_draws`` normals in one call
    of ``_block_generator(seed, b)`` and maps them with one ``transform`` call;
    a transform that returns ``d - 1`` columns leaves the leading t = 0
    column zero.  ``rows`` holds the block's paths as whole grid rows: in
    ``out`` when a zero array of all ``n_paths`` rows is given (path ``i`` in
    row ``i``), else in the thread's rows buffer, which its next block
    overwrites.  ``scratch`` is the thread's normals buffer, flat, which
    ``reduce`` may overwrite: at least ``len(rows) * (d - 1)`` values, since
    every plan draws at least one normal per positive grid time.

    The block numbers are handed out in order from one shared iterator to
    ``min(blocks, CPUs, _drawing_threads(plan)) - 1`` pool threads and the
    calling thread, which draws too, all inside one ``gram.one_blas_thread``
    that the transforms' and reducers' BLAS calls run in.  After a block
    fails no block is handed out; every thread is joined, and the error of
    the lowest-numbered failed block is raised.  Every block below it was
    handed out before it, so that is the error a serial run raises.
    """
    P = _block_rows(plan)
    n_blocks = -(-n_paths // P)
    results: list = [None] * n_blocks
    failed: dict[int, BaseException] = {}
    order = iter(range(n_blocks))
    lock = threading.Lock()

    def worker():
        b = -1  # the block this thread holds; -1 before the first
        try:
            z = np.empty((min(P, n_paths), plan.n_draws))
            buf = np.zeros((min(P, n_paths), d)) if out is None else None
            while True:
                with lock:
                    b = None if failed else next(order, None)
                if b is None:
                    return
                lo, rows = b * P, min(P, n_paths - b * P)
                _block_generator(seed, b).standard_normal(out=z[:rows])
                x = plan.transform(z[:rows])
                dest = buf[:rows] if out is None else out[lo:lo + rows]
                dest[:, d - x.shape[1]:] = x
                results[b] = reduce(dest, z.reshape(-1))
        except BaseException as exc:  # raised in the caller once every thread is joined
            with lock:
                failed[b] = exc

    helpers = min(n_blocks, _cpu_count(), _drawing_threads(plan)) - 1
    # a pool starts a thread per submit only; worker records its own errors, and leaving joins the threads
    with one_blas_thread(), ThreadPoolExecutor(max(1, helpers)) as pool:
        for _ in range(helpers):
            pool.submit(worker)
        worker()
    if failed:
        raise failed[min(failed)]
    return results


def reduce_blocks(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    reduce: Callable[[np.ndarray, np.ndarray], object],
    inner_steps: Optional[int] = None,
) -> list:
    """``reduce(rows, scratch)`` for each block of ``sample_spec(...)``'s paths, in block order.

    The blocks are drawn by ``_draw_blocks`` as ``sample_spec`` draws them
    with the family's default scheme (``inner_steps`` reaches only the
    midpoint one), and each is reduced by the thread that drew it, so the
    results are the same bytes for any CPU count when ``reduce`` is a
    function of its rows alone.  ``rows`` holds the block's paths as whole
    rows of ``len(grid)`` values, a leading t = 0 column included: a
    C-contiguous view of a buffer that its thread's next block overwrites.
    ``scratch`` is a flat float64 buffer of at least
    ``len(rows) * (len(grid) - 1)`` values (the block's spent normals) that
    ``reduce`` may overwrite.  Beside the plan, each drawing thread holds
    about two blocks (the ``poly`` transform's modes a third), and
    ``_drawing_threads`` caps the threads by that size.  ``selfsim_check``
    and the reducers of ``variation`` draw through it; it is not in
    ``__all__`` and ``ssgm`` does not export it.
    """
    plan = _plan(spec, grid, n_paths, seed, None, inner_steps)[1]
    return _draw_blocks(plan, seed, n_paths, len(grid), reduce)


def sample_spec(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: Optional[str] = None,
    inner_steps: Optional[int] = None,
) -> PathEnsemble:
    """Sample a spec with its family's default scheme, or the requested one of ``SCHEMES``.

    The canonical family goes through the exact ``timechange`` scheme, and
    white noise, which is also what a canonical spec given c = -inf is,
    through ``whitenoise``.  fBm goes through ``circulant`` on
    a uniform grid and ``cholesky``, which fits every family, on any other
    grid.  Volterra-g goes through the exact ``poly`` scheme when g is
    constant and beta an integer >= 0, and through the midpoint ``volterra``
    scheme otherwise; ``inner_steps`` reaches only that scheme.  A scheme
    that does not fit the spec or the grid raises :class:`ParameterError`.
    ``_draw_blocks`` draws the SFC64 blocks straight into the ensemble, with
    the same bytes for any CPU count.
    """
    scheme, plan = _plan(spec, grid, n_paths, seed, scheme, inner_steps)
    values = np.zeros((n_paths, len(grid)))
    _draw_blocks(plan, seed, n_paths, len(grid), lambda rows, scratch: None, values)
    return PathEnsemble(spec, grid, values, seed, scheme, plan.inner_steps, plan.jitter)


def sample_timechange(H: float, c: float, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """``sample_spec`` of the canonical spec (H, c) with the exact ``timechange`` scheme."""
    return sample_spec(ProcessSpec.canonical(H, c), grid, n_paths, seed, scheme="timechange")


def _moments(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n_b, mean_b, C_b^T C_b)`` of a C-contiguous block, ``C_b`` its rows less ``mean_b``.

    Both are BLAS products, run by the callers inside ``one_blas_thread``:
    the mean ``ones @ rows / n_b`` and the exactly symmetric ``C_b.T @ C_b``.
    """
    n_b = len(rows)
    mean = np.ones(n_b) @ rows / n_b
    centred = rows - mean
    return n_b, mean, centred.T @ centred


def _merged_cov(grid: TimeGrid, moments: list) -> EmpiricalCov:
    """The ``EmpiricalCov`` of per-block ``_moments``, merged in block order.

    ``mean = sum n_b mean_b / n`` and ``M2 = sum_b [C_b^T C_b + n_b d_b d_b^T]``
    with ``d_b = mean_b - mean`` (Chan, Golub & LeVeque 1983), so the bytes
    depend only on the blocks' bytes.
    """
    n = sum(n_b for n_b, _, _ in moments)
    if n < 2:
        raise ParameterError("empirical covariance requires n_paths >= 2")
    mean = sum(n_b * mean_b for n_b, mean_b, _ in moments) / n
    m2 = sum(ctc + n_b * np.outer(mean_b - mean, mean_b - mean) for n_b, mean_b, ctc in moments)
    cov = m2 / (n - 1)
    var = np.diag(cov)
    se = np.sqrt(np.maximum(np.outer(var, var) + cov**2, 0.0) / n)
    return EmpiricalCov(grid, mean, cov, se, n)


def empirical_cov(ensemble: PathEnsemble) -> EmpiricalCov:
    """Unbiased sample covariance with delta-method standard errors.

    The standard error of cov[i, j] uses the Gaussian fourth-moment formula
    (c_ii c_jj + c_ij^2) / n with the estimated covariance plugged in.
    Each ``_BLOCK``-path block of rows, taken C-contiguous, is reduced in
    turn on the calling thread to its count, mean and centred
    cross-product, and the blocks are merged in order.  (A 1024 x 16
    block's moments take about 50 us, too short for a second thread to
    gain.)  The covariance is exactly symmetric, and its bytes are the same
    for a fresh or a loaded (column-major) ensemble and, where numpy's BLAS
    is an OpenBLAS, any ``OPENBLAS_NUM_THREADS``.
    """
    values = ensemble.values
    with one_blas_thread():
        moments = [_moments(np.ascontiguousarray(values[lo:lo + _BLOCK])) for lo in range(0, len(values), _BLOCK)]
    return _merged_cov(ensemble.grid, moments)


@dataclass(frozen=True, eq=False)
class SelfSimReport:
    """Elementwise scaling check between grids g and a*g."""

    a: float
    H: float
    ratios: np.ndarray  # |cov_a - a^(2H) cov| / (4 * combined SE)
    max_ratio: float
    n_exceed: int


def selfsim_check(spec: ProcessSpec, a: float, grid: TimeGrid, n_paths: int, seed: int) -> SelfSimReport:
    """Compare sampled covariance on a*grid against a^(2H) times grid's.

    Both are drawn with the family's default scheme, from independent
    substream families (seed and seed+1), so ``seed`` must be below
    2^64 - 1.  Reported ratios are |difference| / (4 * combined SE); values
    <= 1 are within the design tolerance.  Each ensemble is drawn by
    ``reduce_blocks``, each block reduced to its moments as it is drawn, so
    no ensemble is held.  Where a block holds ``_BLOCK``
    paths (rows of at most 128 normals), the two covariances have the bytes
    of ``empirical_cov(sample_spec(...))``, which merges ``_BLOCK``-row
    blocks; with longer rows they are the same numbers merged from smaller
    blocks.
    """
    if not a > 0:
        raise ParameterError("a must be positive")
    _check_sampling_args(n_paths, seed, len(grid))
    seed = int(seed)
    if seed == 2**64 - 1:
        raise ParameterError(f"seed must be below 2^64 - 1, as the scaled grid's ensemble draws with seed + 1, "
                             f"got {seed}")
    grids, seeds = (grid, grid.scaled(a)), (seed, seed + 1)
    base, scaled = (_merged_cov(g, reduce_blocks(spec, g, n_paths, s, lambda rows, scratch: _moments(rows)))
                    for g, s in zip(grids, seeds))
    factor = a ** (2.0 * spec.H)
    diff = np.abs(scaled.cov - factor * base.cov)
    combined = np.sqrt(scaled.se**2 + (factor * base.se) ** 2)
    denom = 4.0 * np.where(combined > 0, combined, np.inf)
    ratios = diff / denom
    return SelfSimReport(a, spec.H, ratios, float(np.max(ratios)), int(np.sum(ratios > 1.0)))


# ---------------------------------------------------------------------------
# ensemble export
# ---------------------------------------------------------------------------

def ensemble_csv_lines(ensemble: PathEnsemble) -> Iterator[str]:
    """CSV lines, each with its newline, formatted one at a time: a header of grid times, then
    one row per path, 17 significant digits."""
    yield ",".join(f"{x:.16e}" for x in ensemble.grid.times) + "\n"
    for row in ensemble.values:
        yield ",".join(f"{x:.16e}" for x in row) + "\n"


# every sidecar carries these; "rng", "inner_steps" and "jitter" are optional
_SIDECAR_KEYS = frozenset({"spec", "grid", "seed", "scheme", "shape", "dtype", "order"})


def save_ensemble(ensemble: PathEnsemble, path) -> None:
    """Write a column-major float64 matrix file plus a JSON sidecar, whose text is made before either is written."""
    path = Path(path)
    values = ensemble.values
    cols = values.T  # its row-major bytes are the file's column-major ones
    if not cols.flags.c_contiguous:  # a loaded ensemble is already column-major
        # a block of rows at a time stays in cache: about 3x faster than one strided copy
        cols = np.empty_like(cols, order="C")
        for lo in range(0, len(values), _BLOCK):
            cols[:, lo:lo + _BLOCK] = values[lo:lo + _BLOCK].T
    sidecar = json.dumps({
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
    }, indent=2) + "\n"
    with open(path, "wb") as fh:
        fh.write(cols)
    path.with_suffix(path.suffix + ".json").write_text(sidecar)


def load_ensemble(path) -> PathEnsemble:
    """Read what :func:`save_ensemble` wrote; a missing file, or a sidecar that
    lacks a key, holds a malformed value or does not describe a float64
    column-major file, is refused naming it.  Unknown scheme names, a
    missing "rng" key, the Philox tags "philox-block-v1" and
    "philox-block-v2" and the SFC64 tag "sfc64-block-v3" load, as older
    files carry them."""
    path = Path(path)
    side = path.with_suffix(path.suffix + ".json")
    try:
        text, data = side.read_bytes(), path.read_bytes()
    except OSError as exc:  # missing, a directory, unreadable
        raise ParameterError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    try:
        sidecar = json.loads(text)
    except ValueError as exc:  # truncated or not JSON
        raise ParameterError(f"{side}: malformed sidecar: {exc}") from exc
    missing = _SIDECAR_KEYS - sidecar.keys() if isinstance(sidecar, dict) else _SIDECAR_KEYS
    if missing:
        raise ParameterError(f"{side}: sidecar lacks {', '.join(sorted(missing))}")
    if (sidecar["dtype"], sidecar["order"]) != ("float64", "F"):
        raise ParameterError(f"{side}: sidecar says dtype {sidecar['dtype']!r}, order {sidecar['order']!r}; "
                             "ensemble files are float64 in column-major (F) order")
    shape, seed, inner, jitter = (sidecar["shape"], sidecar["seed"], sidecar.get("inner_steps"),
                                  sidecar.get("jitter", 0.0))
    try:  # TypeError, ValueError: grid entries that are not numbers
        grid = TimeGrid(np.asarray(sidecar["grid"], dtype=float))
        if not (isinstance(shape, list) and len(shape) == 2 and shape[1] == len(grid)):
            raise ParameterError(f"shape {shape!r} is not [n_paths, {len(grid)}] for its grid")
        _check_sampling_args(shape[0], seed, len(grid))
        if not (inner is None or type(inner) is int and inner >= 1):
            raise ParameterError(f"inner_steps {inner!r} is not null or an integer >= 1")
        if not (type(jitter) in (int, float) and 0 <= jitter < math.inf):
            raise ParameterError(f"jitter {jitter!r} is not a finite number >= 0")
        if not (isinstance(sidecar["spec"], str) and isinstance(sidecar["scheme"], str)):
            raise ParameterError(f"spec {sidecar['spec']!r} or scheme {sidecar['scheme']!r} is not a string")
        spec = parse_spec_string(sidecar["spec"])
    except (ParameterError, TypeError, ValueError) as exc:
        raise ParameterError(f"{side}: malformed sidecar: {exc}") from exc
    shape = [shape[0], len(grid)]  # the grid's own int length: a float 12.0 passes == 12 but cannot reshape
    if len(data) != 8 * math.prod(shape):
        raise ParameterError(
            f"{path}: {len(data)} bytes, but the sidecar shape {shape} needs "
            f"{8 * math.prod(shape)} float64 bytes"
        )
    values = np.frombuffer(data, dtype=np.float64).reshape(shape, order="F")
    return PathEnsemble(spec, grid, values, seed, sidecar["scheme"], inner_steps=inner, jitter=jitter)
