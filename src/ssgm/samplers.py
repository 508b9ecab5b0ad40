"""Path generation for every process family, with reproducible substreams.

``sample_chunks`` is the one draw: it checks the path count and seed, picks
a scheme (the family's default unless one of ``SCHEMES`` is asked for) and
runs that scheme's builder on the positive grid times, so a leading t = 0
is a zero column in every scheme.  A builder refuses a spec or grid it does
not fit; otherwise its ``_Plan`` says how to draw.  The iterator it returns
yields the paths in consecutive ``(start, rows)`` chunks of whole grid
rows, so a reducer (the p-variation trichotomy, the ergodic average) never
holds the ensemble; ``sample_spec`` writes the same chunks straight into
one ``PathEnsemble``.

Randomness discipline: paths are drawn in blocks of ``_BLOCK`` = 1024.
Block ``b`` (paths ``b * 1024`` onward) draws ``n_draws`` standard normals
per path, one row per path in grid order, from the counter-based Philox
generator keyed by ``(seed, b)``, and each sampler maps rows of normals to
paths with a vectorised, row-independent transform.  A block's rows are
drawn and transformed in consecutive chunks of whole ``_TILE``-row tiles,
about ``_CHUNK`` normals each (at least ``_LOOP_ROWS`` rows for the
``poly`` and midpoint transforms, which loop over grid times in Python),
through one reused buffer.  Consecutive draws from one generator continue
the same stream, so the normals, and the paths, are the bytes one draw of
the whole block would give, while the memory beside the output stays one
chunk per drawing thread.  Matrix products go to BLAS in slices of exactly
``_TILE`` rows, so a path's values depend only on ``(seed, path index)``: a
longer run extends a shorter one.  Blocks are independent streams that
write disjoint rows, so ``_run_blocks``, the one place that starts
threads, runs the blocks of ``sample_spec`` and ``selfsim_check`` on the
calling thread plus up to one pool thread per further CPU in the
process's affinity mask (no option sets that count), and the bytes are
the same for any CPU count.  ``empirical_cov`` and ``selfsim_check``
reduce each block to its moments (``selfsim_check`` where the block is
drawn) and merge them in block order, so ``selfsim_check`` holds no
ensemble.
``sample_chunks`` yields its chunks in order from the calling thread.  The
Cholesky factor, each chunk's transform and each block's moments run
inside ``gram.one_blas_thread``, so where numpy's BLAS is an OpenBLAS it
can find, paths and covariances are also the same bytes for any
``OPENBLAS_NUM_THREADS``; with another BLAS its thread count may change
their last bits.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
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
    "sample_chunks",
    "sample_spec",
    "sample_timechange",
    "empirical_cov",
    "selfsim_check",
    "get_max_workers",
    "ensemble_to_csv",
    "ensemble_csv_lines",
    "save_ensemble",
    "load_ensemble",
]

_BLOCK = 1024  # paths per Philox stream
_TILE = 8  # rows per BLAS call; divides _BLOCK
_CHUNK = 2**18  # normals per transform call, rounded to whole tiles (at least one)
_LOOP_ROWS = 64  # least rows per call of a transform that loops over grid times in Python
_RNG_LAYOUT = "philox-block-v1"  # recorded in ensemble sidecars


# perfbench/spans.py looks this name up in Tracer.install(): deleting it makes every traced run raise KeyError
def get_max_workers() -> int:
    """1: no worker count is settable; ``sample_spec`` counts the CPUs itself."""
    return 1


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    scheme: str  # one of SCHEMES; "volterra" is the midpoint scheme of volterra-g
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
    """A builder's answer: how ``_chunks`` draws, and what the ensemble records."""

    spec: ProcessSpec
    n_draws: int
    transform: Callable[[np.ndarray], np.ndarray]
    min_rows: int = _TILE
    inner_steps: Optional[int] = None
    jitter: float = 0.0


def _timechange(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Exact X_t = t^(2H+c) W(t^(-2H-2c)) for the canonical family with finite c <= -H.

    The time change tau(t) = t^(-2H-2c) is nondecreasing, so W is built from
    independent Gaussian increments in grid order.  At c = -H all tau
    coincide and every path is the rank-one t^H W(1).
    """
    if spec.family != Family.CANONICAL:
        raise ParameterError("timechange scheme applies to the canonical family")
    if math.isinf(spec.c):
        raise ParameterError("time-change sampler requires finite c; use the whitenoise scheme")
    tau = pos ** (-2.0 * spec.H - 2.0 * spec.c)
    dtau = np.diff(np.concatenate([[0.0], tau]))
    if np.any(dtau < 0):  # theoretically impossible for c <= -H
        raise NumericalError("time change is not monotone")
    sqrt_dtau = np.sqrt(dtau)
    scale = pos ** (2.0 * spec.H + spec.c)

    def transform(z):
        # in place on the block's normals: scale * cumsum(sqrt_dtau * z), no full-size temporaries
        np.multiply(z, sqrt_dtau, out=z)
        np.cumsum(z, axis=1, out=z)
        return np.multiply(z, scale, out=z)

    return _Plan(spec, pos.size, transform)


def _whitenoise(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Independent N(0, t^(2H)) draws per positive grid time; also the canonical c = -inf limit."""
    if spec.family != Family.WHITE_NOISE and not (spec.family == Family.CANONICAL and math.isinf(spec.c)):
        raise ParameterError("whitenoise scheme applies to the white-noise family")
    sd = pos**spec.H
    return _Plan(ProcessSpec.white_noise(spec.H), pos.size, lambda z: sd * z)


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
    return _Plan(spec, pos.size, lambda z: _tiled(z, L.T), jitter=jitter)


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
    return _Plan(spec, 2 * pos.size, _circulant_transform(spec.H, pos.size, h))


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
    if inner_steps is not None and inner_steps < 64:
        raise ParameterError("inner_steps must be >= 64")
    if not pos.size:  # the grid {0}: one zero column
        return _Plan(spec, 0, lambda z: z, inner_steps=inner_steps)
    if inner_steps is None:
        inner_steps = 256
        v1 = _zg_discrete_var(spec, inner_steps)
        while inner_steps < 4096:
            v2 = _zg_discrete_var(spec, 2 * inner_steps)
            if abs(v2 - v1) <= 0.01 * max(abs(v2), 1e-300):
                break
            inner_steps, v1 = 2 * inner_steps, v2
    n_cells, transform = _volterra_transform(spec, pos, inner_steps)
    return _Plan(spec, n_cells, transform, _LOOP_ROWS, inner_steps)


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
        zt = z.reshape(len(z), times.size, K).transpose(1, 2, 0)  # (d, K, rows) view
        # the noise (C z)_k of every step, laid out (d, K, rows) so that each step is contiguous;
        # step j's state then overwrites its noise in place
        state = np.multiply(zt[:, :1], C[:, :, :1], out=np.empty((times.size, K, len(z))))
        for m in range(1, K):
            state += zt[:, m:m + 1] * C[:, :, m:m + 1]
        x = np.zeros((K, len(z)))
        prod = np.empty((K, K, len(z)))
        for new, Pj in zip(state, P[:, :, :, None]):
            np.multiply(x, Pj, out=prod)  # prod[k, i] = P[j, k, i] x_i
            for i in range(K):
                new += prod[:, i]
            x = new
        return scale * state[:, beta].T

    return transform


def _poly(spec: ProcessSpec, pos: np.ndarray, inner_steps: Optional[int]) -> _Plan:
    """Exact volterra-g with constant g = a and integer beta >= 0.

    (t-u)^beta is a polynomial in u, so Z_t is a linear function of the
    (beta+1)-dimensional Gaussian Markov state described in
    ``_poly_transform``.  Each path draws (beta+1) normals per positive grid
    point and costs O(d (beta+1)^2); there is no Gram matrix, factorization
    or ``inner_steps``.  Any positive grid works, and the covariance equals
    ``make_kernel``'s up to rounding.
    """
    if spec.family != Family.VOLTERRA_G or spec.g.kind != "const":
        raise ParameterError("poly scheme applies to volterra-g specs with constant g")
    degree = _poly_degree(spec.beta, spec.g)
    if degree is None:
        raise ParameterError(f"poly scheme needs an integer beta >= 0, got beta={spec.beta!r}")
    return _Plan(spec, (degree + 1) * pos.size, _poly_transform(spec.H, degree, spec.g.a, pos), _LOOP_ROWS)


# scheme name -> builder (spec, positive times, inner_steps) -> _Plan; the order is the CLI's
_SCHEMES = {"timechange": _timechange, "cholesky": _cholesky, "circulant": _circulant,
            "whitenoise": _whitenoise, "volterra": _volterra, "poly": _poly}
SCHEMES = tuple(_SCHEMES)


def _default_scheme(spec: ProcessSpec, pos: np.ndarray) -> str:
    fam = spec.family
    if fam == Family.CANONICAL and not math.isinf(spec.c):
        return "timechange"
    if fam in (Family.CANONICAL, Family.WHITE_NOISE):
        return "whitenoise"
    if fam == Family.VOLTERRA_G:
        return "volterra" if _poly_degree(spec.beta, spec.g) is None else "poly"
    return "circulant" if fam == Family.FBM and _uniform_step(pos) is not None else "cholesky"


def _plan(spec: ProcessSpec, grid: TimeGrid, n_paths: int, seed: int, scheme: Optional[str],
          inner_steps: Optional[int]) -> tuple[str, _Plan]:
    """Check the path count and seed, pick the scheme and run its builder: (scheme, plan)."""
    _check_sampling_args(n_paths, seed, len(grid))
    pos = _positive_times(grid)
    if scheme is None:
        scheme = _default_scheme(spec, pos)
    if scheme not in _SCHEMES:
        raise ParameterError(f"unknown sampling scheme {scheme!r}")
    return scheme, _SCHEMES[scheme](spec, pos, inner_steps)


def _chunks(plan: _Plan, seed: int, n_paths: int, d: int, out: Optional[np.ndarray] = None,
            blocks: Optional[range] = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, rows)``: paths ``start, start + 1, ...`` as whole grid rows.

    Block ``b`` of ``blocks`` (every block of ``n_paths`` when None) draws
    its rows of ``n_draws`` normals from Philox keyed ``(seed, b)`` in
    consecutive chunks of ``step`` rows (fewer at the block's end): whole
    ``_TILE``-row tiles holding about ``_CHUNK`` normals, but at least
    ``min_rows`` rows, a multiple of ``_TILE``, for transforms whose cost
    per call does not shrink with the row count.  Each chunk is padded with
    zero rows to whole tiles, and the first rows of ``transform`` of it are
    kept.  A transform that returns ``d - 1`` columns leaves the leading
    t = 0 column zero.  The rows are written into ``out`` when a zero array
    with one row per path of ``blocks`` is given (path ``start`` in row
    ``start - blocks[0] * _BLOCK``), else into one reused chunk buffer that
    the next chunk overwrites.
    """
    if blocks is None:
        blocks = range(-(-n_paths // _BLOCK))
    step = min(_BLOCK, max(plan.min_rows, _TILE * (_CHUNK // (_TILE * max(1, plan.n_draws)))))
    z = np.empty((min(step, -(-n_paths // _TILE) * _TILE), plan.n_draws))  # reused by every chunk
    buf = np.zeros((min(step, n_paths), d)) if out is None else None
    first = blocks[0] * _BLOCK  # the path in out's first row
    for b in blocks:
        lo = b * _BLOCK
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        for start in range(lo, min(lo + _BLOCK, n_paths), step):
            rows = min(step, lo + _BLOCK - start, n_paths - start)
            padded = -(-rows // _TILE) * _TILE
            rng.standard_normal(out=z[:rows])  # continues the block's stream
            z[rows:padded] = 0.0
            with one_blas_thread():
                x = plan.transform(z[:padded])[:rows]
            dest = buf[:rows] if out is None else out[start - first:start - first + rows]
            dest[:, d - x.shape[1]:] = x
            yield start, dest


def sample_chunks(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: Optional[str] = None,
    inner_steps: Optional[int] = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The paths ``sample_spec`` would return, as consecutive ``(start, rows)`` chunks.

    ``rows`` holds paths ``start`` onward as whole rows of ``len(grid)``
    values, a leading t = 0 column included, with the bytes of the same rows
    of ``sample_spec(...).values``; it is a view of one buffer that the next
    chunk overwrites, so a consumer reduces or copies it before moving on.
    The arguments are checked and the scheme's plan is built (a Gram matrix
    factorized, say) when this is called, not when the first chunk is
    taken.  Beside the plan, the iterator holds about two chunks: the
    normals and the rows.
    """
    return _chunks(_plan(spec, grid, n_paths, seed, scheme, inner_steps)[1], seed, n_paths, len(grid))


def _draw_block(plan: _Plan, seed: int, n_paths: int, b: int, rows: np.ndarray) -> np.ndarray:
    """Block ``b`` of the ``n_paths`` paths, drawn into ``rows``, which it returns.

    ``rows`` is a C-contiguous zero array of the block's rows, paths
    ``b * _BLOCK`` onward; a row slice of a C-contiguous ensemble is one.
    """
    deque(_chunks(plan, seed, n_paths, rows.shape[1], rows, range(b, b + 1)), maxlen=0)
    return rows


def _run_blocks(n_jobs: int, job: Callable[[int], object]) -> list:
    """``[job(k) for k in range(n_jobs)]``, on the calling thread and up to one pool thread per further CPU.

    The jobs are handed out in order from one shared iterator to
    ``min(n_jobs, CPUs) - 1`` pool threads and the calling thread, which
    takes jobs too, all inside one ``gram.one_blas_thread``.  After a job
    fails no job is handed out; every thread is joined, and the error of
    the lowest-numbered failed job is raised.  Every job below it was
    handed out before it, so that is the error a serial run raises.
    """
    results: list = [None] * n_jobs
    failed: dict[int, BaseException] = {}
    order = iter(range(n_jobs))
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                k = None if failed else next(order, None)
            if k is None:
                return
            try:
                results[k] = job(k)
            except BaseException as exc:  # raised in the caller once every thread is joined
                with lock:
                    failed[k] = exc
                return

    helpers = min(n_jobs, _cpu_count()) - 1
    # held for the whole run, so that each chunk's entry nests instead of setting OpenBLAS's
    # thread count anew; the jobs' own BLAS calls (selfsim_check's block moments) run inside it
    with one_blas_thread():
        if helpers > 0:
            with ThreadPoolExecutor(helpers) as pool:  # leaving joins its threads
                futures = [pool.submit(take) for _ in range(helpers)]
                take()
            for future in futures:
                future.result()
        else:
            take()
    if failed:
        raise failed[min(failed)]
    return results


def sample_spec(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: Optional[str] = None,
    inner_steps: Optional[int] = None,
) -> PathEnsemble:
    """Sample a spec with its family's default scheme, or the requested one of ``SCHEMES``.

    The canonical family goes through the exact ``timechange`` scheme, its
    c = -inf limit through ``whitenoise``.  fBm goes through ``circulant`` on
    a uniform grid and ``cholesky``, which fits every family, on any other
    grid.  Volterra-g goes through the exact ``poly`` scheme when g is
    constant and beta an integer >= 0, and through the midpoint ``volterra``
    scheme otherwise; ``inner_steps`` reaches only that scheme.  A scheme
    that does not fit the spec or the grid raises :class:`ParameterError`.
    The chunks of ``sample_chunks`` are written straight into the ensemble,
    block by block on ``_run_blocks``, with the same bytes for any CPU count.
    """
    scheme, plan = _plan(spec, grid, n_paths, seed, scheme, inner_steps)
    values = np.zeros((n_paths, len(grid)))
    _run_blocks(-(-n_paths // _BLOCK),
                lambda b: _draw_block(plan, seed, n_paths, b, values[b * _BLOCK:(b + 1) * _BLOCK]))
    return PathEnsemble(plan.spec, grid, values, seed, scheme, plan.inner_steps, plan.jitter)


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
    substream families (seed and seed+1).  Reported ratios are |difference|
    / (4 * combined SE); values <= 1 are within the design tolerance.  The
    blocks of both ensembles run in one ``_run_blocks`` pass, each reduced
    to its moments as it is drawn, so no ensemble is held; the two
    covariances have the bytes of ``empirical_cov(sample_spec(...))``.
    """
    if not a > 0:
        raise ParameterError("a must be positive")
    grids, seeds = (grid, grid.scaled(a)), (seed, seed + 1)
    plans = [_plan(spec, g, n_paths, s, None, None)[1] for g, s in zip(grids, seeds)]
    blocks = -(-n_paths // _BLOCK)

    def block_moments(k):  # job k: block k % blocks of ensemble k // blocks
        e, b = divmod(k, blocks)
        rows = np.zeros((min(_BLOCK, n_paths - b * _BLOCK), len(grid)))
        return _moments(_draw_block(plans[e], seeds[e], n_paths, b, rows))

    moments = _run_blocks(2 * blocks, block_moments)
    base, scaled = _merged_cov(grids[0], moments[:blocks]), _merged_cov(grids[1], moments[blocks:])
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
    """The lines of ``ensemble_to_csv``, each with its newline, formatted one at a time."""
    yield ",".join(f"{x:.16e}" for x in ensemble.grid.times) + "\n"
    for row in ensemble.values:
        yield ",".join(f"{x:.16e}" for x in row) + "\n"


def ensemble_to_csv(ensemble: PathEnsemble) -> str:
    """CSV text: header = grid times, one row per path; 17 significant digits."""
    return "".join(ensemble_csv_lines(ensemble))


# every sidecar carries these; "rng", "inner_steps" and "jitter" are optional
_SIDECAR_KEYS = frozenset({"spec", "grid", "seed", "scheme", "shape", "dtype", "order"})


def save_ensemble(ensemble: PathEnsemble, path) -> None:
    """Write a column-major float64 matrix file plus a JSON sidecar."""
    path = Path(path)
    values = ensemble.values
    cols = values.T  # its row-major bytes are the file's column-major ones
    if not cols.flags.c_contiguous:  # a loaded ensemble is already column-major
        # a block of rows at a time stays in cache: about 3x faster than one strided copy
        cols = np.empty_like(cols, order="C")
        for lo in range(0, len(values), _BLOCK):
            cols[:, lo:lo + _BLOCK] = values[lo:lo + _BLOCK].T
    with open(path, "wb") as fh:
        fh.write(cols)
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
    """Read what :func:`save_ensemble` wrote; a missing file, or a sidecar that
    lacks a key, holds a malformed value or does not describe a float64
    column-major file, is refused naming it.  Unknown scheme names and a
    missing "rng" key load, as older files carry them."""
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
    return PathEnsemble(spec, grid, values, seed, sidecar["scheme"], inner_steps=inner, jitter=float(jitter))
