import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import ssgm
from ssgm import (SCHEMES, GFunction, ProcessSpec, TimeGrid, build_gram, empirical_cov,
                  ensemble_to_csv, increment_variance,
                  load_ensemble, make_kernel, parse_spec_string, pvariation_trichotomy, sample_chunks,
                  sample_spec, sample_timechange, save_ensemble, selfsim_check)
from ssgm.errors import NumericalError, ParameterError
from ssgm.samplers import (_circulant_transform, _hilbert_cholesky, _poly_transform, _uniform_step,
                           _volterra_transform, _zg_discrete_var)

GRID = TimeGrid.geometric(0.1, 2.0, 12)
UNIFORM = TimeGrid(np.arange(1, 13) * 0.3)
SPEC = ProcessSpec.canonical(0.7, -1.5)


def _exact(spec, grid):
    return build_gram(make_kernel(spec), grid).entries


def _max_z(spec, ens):
    emp = empirical_cov(ens)
    return float(np.max(np.abs(emp.cov - _exact(spec, ens.grid)) / emp.se))


# ---------------------------------------------------------------------------
# determinism and worker independence
# ---------------------------------------------------------------------------

def test_bitwise_determinism():
    a = sample_timechange(0.7, -1.5, GRID, 300, 42)
    b = sample_timechange(0.7, -1.5, GRID, 300, 42)
    assert np.array_equal(a.values, b.values)


def _sha(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("lead0", [False, True], ids=["positive", "with_t0"])
@pytest.mark.parametrize("n_paths", [1025, 2500])
def test_block_threads_keep_bytes(monkeypatch, n_paths, lead0):
    # one, two or three threads draw the blocks of every scheme into the same bytes, and those
    # are the rows sample_chunks yields in order from the calling thread; the block moments
    # of empirical_cov and selfsim_check merge into the same bytes too
    assert {scheme for _, _, scheme, _ in _LEAF_SAMPLERS.values()} == set(SCHEMES)
    for spec, grid, scheme, inner_steps in _LEAF_SAMPLERS.values():
        if lead0:
            grid = TimeGrid(np.concatenate([[0.0], grid.times]))
        rows = np.concatenate([r.copy() for _, r in sample_chunks(spec, grid, n_paths, 5, scheme, inner_steps)])
        digests, covs, ratios = set(), set(), set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda workers=workers: workers)
            ens = sample_spec(spec, grid, n_paths, 5, scheme, inner_steps)
            digests.add(_sha(ens.values))
            emp = empirical_cov(ens)
            covs.add((_sha(emp.mean), _sha(emp.cov), _sha(emp.se)))
            ratios.add(_sha(selfsim_check(spec, 2.0, grid, n_paths, 5).ratios))
        assert digests == {_sha(rows)}, scheme
        assert len(covs) == 1 and len(ratios) == 1, scheme


def test_block_threads_stress(monkeypatch):
    # eight threads switching every microsecond, each chunk entering the shared one_blas_thread
    # count inside the one the block runner holds: the paths and the merged moments keep their
    # bytes, and the OpenBLAS thread counts come back
    spec, grid, scheme, _ = _LEAF_SAMPLERS["cholesky"]
    monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda: 1)
    serial = sample_spec(spec, grid, 8200, 5, scheme)
    serial_cov = empirical_cov(serial).cov
    counts = [get() for get, _ in ssgm.gram._openblas_thread_controls()]
    monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sample_spec(spec, grid, 8200, 5, scheme)
        threaded_cov = empirical_cov(threaded).cov
    finally:
        sys.setswitchinterval(interval)
    assert threaded.values.tobytes() == serial.values.tobytes()
    assert threaded_cov.tobytes() == serial_cov.tobytes()
    assert [get() for get, _ in ssgm.gram._openblas_thread_controls()] == counts


def test_block_threads_end_with_the_call(monkeypatch):
    monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda: 3)
    before = threading.active_count()
    sample_spec(SPEC, GRID, 2500, 5)
    assert threading.active_count() == before


def _fail_in_block_1(monkeypatch, seed):
    """Make the timechange scheme's transform raise on the chunk that starts block 1 of ``seed``."""
    first = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))).standard_normal()
    real = ssgm.samplers._SCHEMES["timechange"]

    def builder(spec, pos, inner_steps):
        plan = real(spec, pos, inner_steps)

        def transform(z):
            if z[0, 0] == first:
                raise NumericalError("transform failed in block 1")
            return plan.transform(z)

        return plan._replace(transform=transform)

    monkeypatch.setitem(ssgm.samplers._SCHEMES, "timechange", builder)
    monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda: 2)


def test_block_error_reaches_the_caller(monkeypatch):
    _fail_in_block_1(monkeypatch, 5)
    before = threading.active_count()
    with pytest.raises(NumericalError, match=r"^transform failed in block 1$"):
        sample_spec(SPEC, GRID, 2500, 5)
    assert threading.active_count() == before
    # selfsim_check draws the blocks of seed 5 and then those of seed 6 in one pass
    with pytest.raises(NumericalError, match=r"^transform failed in block 1$"):
        selfsim_check(SPEC, 2.0, GRID, 2500, 5)
    assert threading.active_count() == before
    sample_spec(SPEC, GRID, 1024, 5)  # block 0 alone draws


def test_block_error_exits_3(monkeypatch, capsys):
    from ssgm.cli import main

    _fail_in_block_1(monkeypatch, 5)
    assert main(["sample", "--spec", SPEC.label(), "--grid", "geometric:0.1,2,12", "--paths", "2500",
                 "--seed", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ssgm: numerical failure: transform failed in block 1\n"


def test_different_seeds_differ():
    a = sample_timechange(0.7, -1.5, GRID, 10, 1)
    b = sample_timechange(0.7, -1.5, GRID, 10, 2)
    assert not np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# time-change sampler
# ---------------------------------------------------------------------------

def test_timechange_brownian_cov():
    grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
    ens = sample_timechange(0.5, -1.0, grid, 40000, 11)
    emp = empirical_cov(ens)
    bm = np.minimum.outer(grid.times, grid.times)
    assert np.max(np.abs(emp.cov - bm) / emp.se) < 4.0


def test_timechange_matches_kernel():
    ens = sample_timechange(0.7, -1.5, GRID, 40000, 12)
    assert _max_z(SPEC, ens) < 4.0


def test_timechange_degenerate_rank_one():
    # c = -H: all columns are t^H * W(1), correlation exactly 1
    ens = sample_timechange(0.7, -0.7, GRID, 200, 13)
    v = ens.values
    for j in range(1, v.shape[1]):
        corr = np.corrcoef(v[:, 0], v[:, j])[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)
    ratio = v[:, 3] / v[:, 0]
    assert np.allclose(ratio, (GRID.times[3] / GRID.times[0]) ** 0.7, rtol=1e-12)


def test_timechange_zero_column():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    ens = sample_timechange(0.6, -1.0, grid, 50, 14)
    assert np.all(ens.values[:, 0] == 0.0)


def test_timechange_rejects_infinite_c():
    with pytest.raises(ParameterError):
        sample_timechange(0.5, float("-inf"), GRID, 10, 1)


# ---------------------------------------------------------------------------
# white-noise sampler
# ---------------------------------------------------------------------------

def test_whitenoise_moments():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 2.0]))
    ens = sample_spec(ProcessSpec.white_noise(0.6), grid, 30000, 15, scheme="whitenoise")
    emp = empirical_cov(ens)
    target = np.diag(grid.times**1.2)
    assert np.all(ens.values[:, 0] == 0.0)
    diag_z = np.abs(np.diag(emp.cov)[1:] - grid.times[1:] ** 1.2) / np.diag(emp.se)[1:]
    assert np.max(diag_z) < 4.0
    off = np.abs(emp.cov - target)
    denom = np.where(emp.se > 0, emp.se, np.inf)
    np.fill_diagonal(off, 0.0)
    assert np.max(off / denom) < 4.0


# ---------------------------------------------------------------------------
# Cholesky sampler
# ---------------------------------------------------------------------------

def test_cholesky_cross_checks_timechange():
    grid = TimeGrid(np.array([0.25, 0.5, 1.0, 2.0]))
    e1 = empirical_cov(sample_spec(ProcessSpec.canonical(0.5, -1.0), grid, 30000, 16, scheme="cholesky"))
    e2 = empirical_cov(sample_timechange(0.5, -1.0, grid, 30000, 17))
    combined = np.sqrt(e1.se**2 + e2.se**2)
    assert np.max(np.abs(e1.cov - e2.cov) / combined) < 4.0


def test_cholesky_matches_kernel_nonbrownian():
    ens = sample_spec(SPEC, GRID, 30000, 33, scheme="cholesky")
    assert _max_z(SPEC, ens) < 4.0


def test_cholesky_sfbm_r11():
    grid = TimeGrid(np.array([0.5, 1.0]))
    emp = empirical_cov(sample_spec(ProcessSpec.sub_fbm(0.25), grid, 40000, 18, scheme="cholesky"))
    target = 2.0 - 2.0 ** (-0.5)
    assert abs(emp.cov[1, 1] - target) < 4.0 * emp.se[1, 1]


def test_cholesky_degenerate_needs_jitter():
    ens = sample_spec(ProcessSpec.canonical(0.7, -0.7), GRID, 100, 19, scheme="cholesky")
    assert ens.jitter > 0.0
    assert ens.jitter <= 1e-6


def test_cholesky_zero_column():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    ens = sample_spec(ProcessSpec.fbm(0.3), grid, 64, 20, scheme="cholesky")
    assert np.all(ens.values[:, 0] == 0.0)


@pytest.mark.parametrize("label, scheme", [
    ("fbm:H=0.3", "cholesky"),
    ("sfbm:H=0.3", "cholesky"),
    ("bfbm:htilde=0.6,ktilde=0.5", "cholesky"),
    ("rl:H=0.25", "cholesky"),
    ("canonical:H=0.7,c=-1.5", "timechange"),
    ("white-noise:H=0.4", "whitenoise"),
    ("volterra-g:H=0.25,beta=1,g=const:1.0", "poly"),
    ("volterra-g:H=0.25,beta=0.5,g=const:1.0", "volterra"),
    ("volterra-g:H=0.25,beta=0.5,g=log-pow:1", "volterra"),
])
def test_default_scheme_on_zero_only_grid_gives_zero_column(label, scheme):
    # t = 0 is the only time: every scheme leaves its column zero and draws nothing
    ens = sample_spec(parse_spec_string(label), TimeGrid(np.array([0.0])), 3, 1)
    assert ens.scheme == scheme
    np.testing.assert_array_equal(ens.values, np.zeros((3, 1)))


@pytest.mark.parametrize("label", [
    "canonical:H=0.7,c=-1.5", "canonical:H=0.4,c=-inf", "white-noise:H=0.6", "fbm:H=0.3", "sfbm:H=0.3",
    "volterra-g:H=0.25,beta=1,g=const:1.0", "volterra-g:H=0.25,beta=0.5,g=const:1.0",
])
def test_default_scheme_t0_column_is_positive_zero(label):
    # every scheme draws only for positive times, so t = 0 is +0.0 and the CSV never shows -0.0
    ens = sample_spec(parse_spec_string(label), TimeGrid(np.array([0.0, 0.5, 1.0])), 8, 1)
    assert not np.any(np.signbit(ens.values[:, 0]))
    assert "-0.0" not in ensemble_to_csv(ens)


# ---------------------------------------------------------------------------
# circulant (Davies-Harte) sampler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lead0", [False, True], ids=["no_zero", "leading_zero"])
@pytest.mark.parametrize("H", [0.05, 0.25, 0.5, 0.75, 0.99])
def test_circulant_exact_covariance(H, lead0):
    # the transform is linear: on identity rows it is the matrix A with Cov = A^T A
    times = np.arange(0 if lead0 else 1, 17) * 0.3
    h = _uniform_step(times[int(lead0):])
    assert h == pytest.approx(0.3, rel=1e-15)
    A = np.zeros((32, times.size))
    A[:, int(lead0):] = _circulant_transform(H, 16, h)(np.eye(32))
    exact = make_kernel(ProcessSpec.fbm(H))(times[:, None], times[None, :])
    assert np.max(np.abs(A.T @ A - exact)) <= 1e-12 * np.max(exact)


def test_circulant_zero_column():
    grid = TimeGrid(np.arange(0, 65) / 64.0)
    ens = sample_spec(ProcessSpec.fbm(0.3), grid, 64, 20, scheme="circulant")
    assert ens.scheme == "circulant"
    assert np.all(ens.values[:, 0] == 0.0)
    assert ens.spec == ProcessSpec.fbm(0.3)


@pytest.mark.parametrize("times", [[0.1, 0.2, 0.4], [0.0, 0.5, 1.5], [0.0]])
def test_circulant_rejects_nonuniform_grid(times):
    with pytest.raises(ParameterError, match="uniform grid"):
        sample_spec(ProcessSpec.fbm(0.3), TimeGrid(np.array(times)), 4, 1, scheme="circulant")


def test_circulant_negative_eigenvalue_raises(monkeypatch):
    # no silent fallback: a non-PSD embedding is a numerical failure, also via sample_spec
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda c: -rfft(c))
    with pytest.raises(NumericalError, match="min eigenvalue"):
        sample_spec(ProcessSpec.fbm(0.3), UNIFORM, 4, 1)


# ---------------------------------------------------------------------------
# Volterra samplers
# ---------------------------------------------------------------------------

def test_volterra_zg_brownian():
    grid = TimeGrid(np.array([0.25, 0.5, 1.0]))
    bm_spec = ProcessSpec.volterra_g(0.5, 0.0, GFunction.const(1.0))
    ens = sample_spec(bm_spec, grid, 20000, 22, scheme="volterra", inner_steps=256)
    emp = empirical_cov(ens)
    bm = np.minimum.outer(grid.times, grid.times)
    assert np.max(np.abs(emp.cov - bm) / emp.se) < 4.0


def test_volterra_zg_variance_refines():
    # Var(Z_1) -> 1/3 as inner_steps grows (beta=1, g=1)
    grid = TimeGrid(np.array([1.0]))
    spec = ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0))
    gaps = []
    for steps in (64, 256, 1024):
        ens = sample_spec(spec, grid, 30000, 23, scheme="volterra", inner_steps=steps)
        gaps.append(abs(np.var(ens.values[:, 0], ddof=1) - 1.0 / 3.0))
    assert gaps[-1] < 0.01
    # discretized variance itself converges: compare deterministic weights
    from ssgm.samplers import _zg_discrete_var

    dv = [abs(_zg_discrete_var(spec, s) - 1.0 / 3.0) for s in (64, 256, 1024)]
    assert dv[0] > dv[1] > dv[2]


def test_volterra_zg_log_weight_variance():
    # quadrature oracle: integral (1-x) log(1/(1-x))^2 dx = 1/4 exactly
    spec = ProcessSpec.volterra_g(0.25, 0.5, GFunction.log_pow(1))
    from ssgm import volterra_g_variance

    assert volterra_g_variance(spec) == pytest.approx(0.25, abs=1e-9)
    ens = sample_spec(spec, TimeGrid(np.array([1.0])), 30000, 24, scheme="volterra", inner_steps=1024)
    v = float(np.var(ens.values[:, 0], ddof=1))
    se = 0.25 * np.sqrt(2.0 / 30000)
    assert abs(v - 0.25) < 4.0 * se + 0.01  # MC + discretization tolerance


def test_volterra_zg_auto_steps():
    spec = ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0))
    ens = sample_spec(spec, TimeGrid(np.array([1.0])), 5, 25, scheme="volterra")
    assert ens.inner_steps >= 256


@pytest.mark.parametrize("inner_steps", [None, 64])
def test_volterra_zg_zero_only_grid_gives_zero_column(inner_steps, monkeypatch):
    # like the exact schemes: no positive time, so no cells and one zero column; the doubling
    # policy does not run, and without inner_steps none is recorded, as for poly
    calls = []
    monkeypatch.setattr(ssgm.samplers, "_zg_discrete_var", lambda *a: calls.append(a) or 1.0)
    spec = ProcessSpec.volterra_g(0.25, 0.5, GFunction.const(1.0))
    ens = sample_spec(spec, TimeGrid(np.array([0.0])), 3, 1, scheme="volterra", inner_steps=inner_steps)
    np.testing.assert_array_equal(ens.values, np.zeros((3, 1)))
    assert calls == [] and ens.inner_steps == inner_steps


@pytest.mark.parametrize("inner_steps", [64, None])
@pytest.mark.parametrize("g", [GFunction.const(1.0), GFunction.log_pow(1)], ids=["const", "log-pow"])
def test_volterra_zg_grid_time_just_below_lattice_point(g, inner_steps):
    # 0.7 - 0.2 is one ulp below the lattice point 1/2: the cell ending at 1/2 lies past t
    grid = TimeGrid(np.array([0.7 - 0.2, 1.0]))
    spec = ProcessSpec.volterra_g(0.25, 0.5, g)
    ens = sample_spec(spec, grid, 3, 1, scheme="volterra", inner_steps=inner_steps)
    assert np.all(np.isfinite(ens.values))


def _midpoint_cov(spec, pos, inner_steps):
    """The midpoint scheme's covariance, summed cell by cell over an independently built partition."""
    t_max = float(pos[-1])
    lattice = {k / inner_steps for k in range(int(t_max * inner_steps) + 2) if k / inner_steps <= t_max}
    edges = sorted(lattice | {float(t) for t in pos})
    cells = list(zip(edges[:-1], edges[1:]))

    def F(x):
        return (1.0 - x) ** spec.beta * float(spec.g(x))

    cov = np.zeros((pos.size, pos.size))
    for i, s in enumerate(pos):
        for j, t in enumerate(pos):
            inside = [(b - a, 0.5 * (a + b)) for a, b in cells if b <= min(s, t)]
            cov[i, j] = (s * t) ** (spec.H - 0.5) * sum(w * F(m / s) * F(m / t) for w, m in inside)
    return len(cells), cov


@pytest.mark.parametrize("times", [
    np.array([0.25, 0.5, 1.0]),
    np.geomspace(0.1, 2.0, 7),
    np.array([0.7 - 0.2, 0.6, 1.0, 1.7]),
], ids=["lattice", "geometric", "ulp_below_lattice"])
@pytest.mark.parametrize("beta", [-0.25, 0.5, 1.0])
@pytest.mark.parametrize("g", [GFunction.const(0.7), GFunction.log_pow(2)], ids=["const", "log-pow"])
def test_volterra_midpoint_exact_covariance(g, beta, times):
    # the transform is linear: on identity rows it is the matrix A with Cov = A^T A
    spec = ProcessSpec.volterra_g(0.3, beta, g)
    n_cells, transform = _volterra_transform(spec, times, 64)
    expected_cells, exact = _midpoint_cov(spec, times, 64)
    assert n_cells == expected_cells
    A = transform(np.eye(n_cells))
    np.testing.assert_allclose(A.T @ A, exact, rtol=1e-12, atol=0.0)


def test_volterra_zg_unproven_regime_allowed():
    spec = ProcessSpec.volterra_g(0.25, -0.25, GFunction.const(1.0))
    ens = sample_spec(spec, TimeGrid(np.array([0.5, 1.0])), 5, 26, scheme="volterra", inner_steps=128)
    assert not ens.spec.proven_regime


# ---------------------------------------------------------------------------
# exact polynomial-kernel volterra-g sampler
# ---------------------------------------------------------------------------

def _poly_matrix(H, beta, a, times):
    """The linear map A of the poly transform on identity rows, so that Cov = A^T A."""
    pos = times[1:] if times[0] == 0.0 else times
    A = np.zeros(((beta + 1) * pos.size, times.size))
    A[:, times.size - pos.size:] = _poly_transform(H, beta, a, pos)(np.eye(len(A)))
    return A


@pytest.mark.parametrize("lead0", [False, True], ids=["no_zero", "leading_zero"])
@pytest.mark.parametrize("positive", [UNIFORM.times, GRID.times], ids=["uniform", "geometric"])
@pytest.mark.parametrize("beta", [0, 1, 2, 3, 8])
def test_poly_exact_covariance(beta, positive, lead0):
    times = np.concatenate([[0.0], positive]) if lead0 else positive
    for H in (0.1, 0.25, 0.5, 0.9):
        for a in (1.0, 0.7):
            A = _poly_matrix(H, beta, a, times)
            spec = ProcessSpec.volterra_g(H, float(beta), GFunction.const(a))
            exact = build_gram(make_kernel(spec), TimeGrid(times)).entries
            assert np.max(np.abs(A.T @ A - exact)) <= 1e-12 * np.max(exact), (H, a)
    if beta == 0:  # H = 1/2, g = 1 is Brownian motion
        A = _poly_matrix(0.5, 0, 1.0, times)
        bm = np.minimum.outer(times, times)
        assert np.max(np.abs(A.T @ A - bm)) <= 1e-12 * np.max(bm)


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0, 1000.0])
@pytest.mark.parametrize("beta, H", [(1, 0.25), (2, 0.4), (3, 0.1)])
def test_poly_increment_variance_matches_ito_exact(beta, H, t):
    # the t^(2H-2) decay of E[(Z_{t+1} - Z_t)^2], against its quadrature value
    A = _poly_matrix(H, beta, 1.0, np.array([t, t + 1.0]))
    var = float(np.sum((A[:, 1] - A[:, 0]) ** 2))
    ito = increment_variance(H, float(beta), GFunction.const(1.0), t).ito_exact
    assert var == pytest.approx(ito, rel=1e-6)


def test_poly_zero_column_and_metadata():
    grid = TimeGrid(np.array([0.0, 0.5, 1.5, 4.0]))
    ens = sample_spec(ProcessSpec.volterra_g(0.25, 2, GFunction.const(0.7)), grid, 16, 9, scheme="poly")
    assert ens.scheme == "poly"
    assert ens.inner_steps is None
    assert ens.spec == ProcessSpec.volterra_g(0.25, 2.0, GFunction.const(0.7))
    assert np.all(ens.values[:, 0] == 0.0)
    assert np.all(ens.values[:, 1:] != 0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0 + 1e-12])
def test_poly_rejects_non_integer_beta(beta):
    with pytest.raises(ParameterError, match="integer beta"):
        sample_spec(ProcessSpec.volterra_g(0.25, beta, GFunction.const(1.0)), GRID, 4, 1, scheme="poly")


def _poly_stepwise(H, beta, a, times, z):
    """The poly recursion on (rows, K) states, one grid step and one term at a time."""
    K = beta + 1
    k = np.arange(K)
    prev = np.concatenate([[0.0], times[:-1]])
    rho = (prev / times)[:, None, None]
    q = ((times - prev) / times)[:, None, None]
    binom = np.array([[math.comb(r, c) for c in range(K)] for r in range(K)], dtype=float)
    P = binom * q ** np.maximum(k[:, None] - k, 0) * rho ** (k + 0.5)
    C = q ** (k[:, None] + 0.5) * _hilbert_cholesky(K)
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
    return a * times**H * out


@pytest.mark.parametrize("beta", [0, 1, 3, 8])
def test_poly_transform_matches_stepwise_reference(beta):
    times = GRID.times
    z = np.random.default_rng(beta).standard_normal((13, (beta + 1) * times.size))
    expected = _poly_stepwise(0.3, beta, 0.7, times, z)
    got = _poly_transform(0.3, beta, 0.7, times)(z.copy())
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# empirical_cov / selfsim_check
# ---------------------------------------------------------------------------

def test_empirical_cov_basic():
    ens = sample_spec(ProcessSpec.white_noise(0.5), TimeGrid(np.array([1.0, 2.0])), 5000, 27)
    emp = empirical_cov(ens)
    assert emp.cov.shape == (2, 2)
    assert np.all(emp.se >= 0.0)
    assert emp.cov[0, 1] == emp.cov[1, 0]
    assert emp.n_paths == 5000


def test_empirical_cov_matches_einsum():
    # merged block moments, exactly symmetric, within a few ulps of the centred einsum contraction
    ens = sample_spec(SPEC, TimeGrid.geometric(0.1, 2.0, 16), 5000, 31)
    emp = empirical_cov(ens)
    C = ens.values - ens.values.mean(axis=0)
    ref = np.einsum("ni,nj->ij", C, C) / (ens.n_paths - 1)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(emp.cov - ref) <= 1e-13 * scale)
    assert np.array_equal(emp.cov, emp.cov.T)


def test_empirical_cov_needs_two_paths():
    ens = sample_spec(ProcessSpec.white_noise(0.5), TimeGrid(np.array([1.0])), 1, 28)
    with pytest.raises(ParameterError):
        empirical_cov(ens)


def test_empirical_cov_same_bytes_for_a_loaded_ensemble(tmp_path):
    # load_ensemble returns column-major values; the blocks are taken C-contiguous, so the
    # mean and the products reduce in the order a fresh ensemble's do
    ens = sample_spec(SPEC, TimeGrid.geometric(0.1, 2.0, 16), 50000, 35)
    save_ensemble(ens, tmp_path / "e.bin")
    loaded = load_ensemble(tmp_path / "e.bin")
    assert not loaded.values.flags.c_contiguous
    fresh, again = empirical_cov(ens), empirical_cov(loaded)
    for field in ("mean", "cov", "se"):
        assert getattr(again, field).tobytes() == getattr(fresh, field).tobytes(), field


def test_selfsim_ratios_are_those_of_its_ensembles():
    # the two covariances are empirical_cov(sample_spec(...)) of the same arguments, bytewise
    spec, a, grid, n_paths, seed = ProcessSpec.fbm(0.3), 3.0, TimeGrid.geometric(0.2, 1.5, 8), 2500, 36
    base = empirical_cov(sample_spec(spec, grid, n_paths, seed))
    scaled = empirical_cov(sample_spec(spec, grid.scaled(a), n_paths, seed + 1))
    factor = a ** (2.0 * spec.H)
    combined = np.sqrt(scaled.se**2 + (factor * base.se) ** 2)
    ratios = np.abs(scaled.cov - factor * base.cov) / (4.0 * np.where(combined > 0, combined, np.inf))
    assert selfsim_check(spec, a, grid, n_paths, seed).ratios.tobytes() == ratios.tobytes()


def test_selfsim_holds_no_ensemble(monkeypatch):
    # two drawing threads, as on a 2-CPU host: each holds one block's rows, normals and
    # centred copy (about 0.4 MiB here), where the two 50,000 x 16 ensembles took 12.3 MiB
    import tracemalloc

    monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda: 2)
    tracemalloc.start()
    try:
        selfsim_check(SPEC, 2.0, TimeGrid.geometric(0.1, 2.0, 16), 50000, 37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_selfsim_identity_scale():
    rep = selfsim_check(SPEC, 1.0, GRID, 4000, 29)
    assert rep.max_ratio < 1.5  # two independent runs of the same law


def test_selfsim_canonical():
    rep = selfsim_check(ProcessSpec.canonical(0.6, -1.0), 2.0, GRID, 20000, 30)
    assert rep.max_ratio <= 1.0
    assert rep.n_exceed == 0


def test_selfsim_fbm_nonmarkov_still_selfsimilar():
    rep = selfsim_check(ProcessSpec.fbm(0.75), 3.0, TimeGrid.geometric(0.2, 1.5, 8), 20000, 31)
    assert rep.max_ratio <= 1.0


# ---------------------------------------------------------------------------
# scheme dispatch and export
# ---------------------------------------------------------------------------

def test_sample_spec_dispatch():
    assert sample_spec(SPEC, GRID, 5, 1).scheme == "timechange"
    assert sample_spec(ProcessSpec.white_noise(0.5), GRID, 5, 1).scheme == "whitenoise"
    assert sample_spec(ProcessSpec.fbm(0.3), GRID, 5, 1).scheme == "cholesky"
    assert sample_spec(ProcessSpec.fbm(0.3), UNIFORM, 5, 1).scheme == "circulant"
    zero_led = TimeGrid(np.concatenate([[0.0], UNIFORM.times]))
    assert sample_spec(ProcessSpec.fbm(0.3), zero_led, 5, 1).scheme == "circulant"
    assert sample_spec(ProcessSpec.fbm(0.3), UNIFORM, 5, 1, scheme="cholesky").scheme == "cholesky"
    assert sample_spec(ProcessSpec.sub_fbm(0.3), UNIFORM, 5, 1).scheme == "cholesky"
    nearly = UNIFORM.times.copy()
    nearly[5] *= 1.0 + 1e-9  # far above the 4 eps t_max rounding allowance
    assert sample_spec(ProcessSpec.fbm(0.3), TimeGrid(nearly), 5, 1).scheme == "cholesky"
    wn_limit = ProcessSpec.canonical(0.5, float("-inf"))
    assert sample_spec(wn_limit, GRID, 5, 1).scheme == "whitenoise"
    vg = ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0))
    assert sample_spec(vg, TimeGrid(np.array([1.0])), 5, 1).scheme == "poly"
    assert sample_spec(vg, GRID, 5, 1, inner_steps=64).inner_steps is None
    forced = sample_spec(vg, TimeGrid(np.array([1.0])), 5, 1, scheme="volterra", inner_steps=64)
    assert (forced.scheme, forced.inner_steps) == ("volterra", 64)
    log_pow = ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))
    half = ProcessSpec.volterra_g(0.25, 0.5, GFunction.const(1.0))
    for midpoint_only in (log_pow, half):
        assert sample_spec(midpoint_only, TimeGrid(np.array([1.0])), 5, 1, inner_steps=64).scheme == "volterra"
        with pytest.raises(ParameterError):
            sample_spec(midpoint_only, GRID, 5, 1, scheme="poly")
    with pytest.raises(ParameterError, match="volterra-g"):
        sample_spec(ProcessSpec.fbm(0.3), GRID, 5, 1, scheme="poly")
    with pytest.raises(ParameterError):
        sample_spec(ProcessSpec.fbm(0.3), GRID, 5, 1, scheme="timechange")
    with pytest.raises(ParameterError, match="fbm family"):
        sample_spec(ProcessSpec.sub_fbm(0.3), UNIFORM, 5, 1, scheme="circulant")


@pytest.mark.parametrize("spec", [SPEC, ProcessSpec.canonical(0.5, -1.0), ProcessSpec.fbm(0.3)],
                         ids=lambda s: s.label())
def test_volterra_scheme_is_volterra_g_only(spec):
    # the canonical family has one sampler, the exact time change
    with pytest.raises(ParameterError, match="volterra-g"):
        sample_spec(spec, GRID, 5, 1, scheme="volterra", inner_steps=64)


def test_csv_export_format():
    ens = sample_timechange(0.5, -1.0, TimeGrid(np.array([1.0, 2.0])), 3, 5)
    text = ensemble_to_csv(ens)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "1.0000000000000000e+00,2.0000000000000000e+00"


def test_binary_round_trip(tmp_path):
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    back = load_ensemble(path)
    assert np.array_equal(back.values, ens.values)
    assert back.spec == ens.spec
    assert back.seed == ens.seed
    assert back.scheme == ens.scheme
    assert np.array_equal(back.grid.times, ens.grid.times)


def test_saved_bytes_are_column_major_values(tmp_path):
    # a C-ordered ensemble as sampled and an F-ordered one as loaded write the same column-major bytes
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_ensemble(ens, first)
    save_ensemble(load_ensemble(first), second)
    expected = np.asfortranarray(ens.values).tobytes(order="F")
    assert first.read_bytes() == expected
    assert second.read_bytes() == expected


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("n_paths", [1, 1023, 1025, 3000])
def test_saved_bytes_for_any_shape_and_order(tmp_path, n_paths, d, order):
    # row blocks of the transpose end inside the last block, or fill it, or are the whole ensemble
    values = np.asarray(np.random.default_rng(n_paths + d).standard_normal((n_paths, d)), order=order)
    ens = ssgm.PathEnsemble(SPEC, TimeGrid(np.arange(1.0, d + 1.0)), values, 1, "timechange")
    save_ensemble(ens, tmp_path / "e.bin")
    assert (tmp_path / "e.bin").read_bytes() == np.asfortranarray(values).tobytes(order="F")


@pytest.mark.parametrize("keep_rng", [True, False], ids=["new_sidecar", "old_sidecar"])
def test_sidecar_rng_marker(tmp_path, keep_rng):
    # sidecars written before the block layout carry no "rng" key and still load
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    side = tmp_path / "ens.bin.json"
    sidecar = json.loads(side.read_text())
    assert sidecar["rng"] == "philox-block-v1"
    if not keep_rng:
        del sidecar["rng"]
        side.write_text(json.dumps(sidecar))
    assert np.array_equal(load_ensemble(path).values, ens.values)


def test_load_accepts_older_sidecar(tmp_path):
    # older files name schemes since retired and carry no "rng", "inner_steps" or "jitter"
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    side = tmp_path / "ens.bin.json"
    sidecar = json.loads(side.read_text())
    for key in ("rng", "inner_steps", "jitter"):
        del sidecar[key]
    side.write_text(json.dumps({**sidecar, "scheme": "volterra-canonical"}))
    loaded = load_ensemble(path)
    assert np.array_equal(loaded.values, ens.values)
    assert (loaded.scheme, loaded.inner_steps, loaded.jitter) == ("volterra-canonical", None, 0.0)


@pytest.mark.parametrize("extra", [-8, 8], ids=["truncated", "over_long"])
def test_load_rejects_size_mismatch(tmp_path, extra):
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    data = path.read_bytes()
    path.write_bytes(data[:extra] if extra < 0 else data + bytes(extra))
    with pytest.raises(ParameterError, match="ens.bin"):
        load_ensemble(path)


@pytest.mark.parametrize("edit", [
    lambda side: side.update(dtype="float32"),
    lambda side: side.update(order="C"),
    lambda side: side.pop("seed"),
    lambda side: side.pop("dtype"),
    lambda side: side.update(shape=[1.5, 4]),
    lambda side: side.update(shape="32"),
    lambda side: side.update(shape=[-3, -2]),
    lambda side: side.update(shape=[3, 1, 2]),
    lambda side: side.update(shape=[84, 1]),
    lambda side: side.update(seed="abc"),
    lambda side: side.update(seed=-1),
    lambda side: side.update(seed=2**64),
    lambda side: side.update(seed=True),
    lambda side: side.update(grid=["a", "b"]),
    lambda side: side.update(grid=[1.0]),
    lambda side: side.update(grid=[2.0, 1.0]),
    lambda side: side.update(grid="1,2"),
    lambda side: side.update(jitter="x"),
    lambda side: side.update(jitter=float("nan")),
    lambda side: side.update(inner_steps="abc"),
    lambda side: side.update(inner_steps=0),
    lambda side: side.update(spec=5),
    lambda side: side.update(spec="fbm:H=nope"),
    lambda side: side.update(scheme=None),
], ids=["float32", "C_order", "no_seed", "no_dtype", "shape_float", "shape_string", "shape_negative",
        "shape_three_axes", "shape_not_grid", "seed_string", "seed_negative", "seed_2_64", "seed_bool",
        "grid_strings", "grid_short", "grid_decreasing", "grid_string", "jitter_string", "jitter_nan",
        "inner_steps_string", "inner_steps_zero", "spec_number", "spec_unparsable", "scheme_null"])
def test_load_rejects_inconsistent_sidecar(tmp_path, edit):
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    side = tmp_path / "ens.bin.json"
    sidecar = json.loads(side.read_text())
    edit(sidecar)
    side.write_text(json.dumps(sidecar))
    with pytest.raises(ParameterError, match="ens.bin.json"):
        load_ensemble(path)


@pytest.mark.parametrize("missing", ["ens.bin", "ens.bin.json"], ids=["no_matrix", "no_sidecar"])
def test_load_names_missing_file(tmp_path, missing):
    save_ensemble(sample_timechange(0.7, -1.5, GRID, 7, 77), tmp_path / "ens.bin")
    (tmp_path / missing).unlink()
    with pytest.raises(ParameterError, match=re.escape(f"cannot read {tmp_path / missing}:")):
        load_ensemble(tmp_path / "ens.bin")


@pytest.mark.parametrize("text", ["", '{"spec": "fbm:H=0.3", "grid": [1', "[1, 2]"],
                         ids=["empty", "truncated", "not_an_object"])
def test_load_rejects_malformed_sidecar(tmp_path, text):
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    (tmp_path / "ens.bin.json").write_text(text)
    with pytest.raises(ParameterError, match="ens.bin.json"):
        load_ensemble(path)


# ---------------------------------------------------------------------------
# block layout, seed range, empirical_cov reference
# ---------------------------------------------------------------------------

# one (spec, grid, scheme, inner_steps) case per scheme; the midpoint scheme's id is volterra_zg
_LEAF_SAMPLERS = {
    "timechange": (SPEC, GRID, "timechange", None),
    "whitenoise": (ProcessSpec.white_noise(0.6), GRID, "whitenoise", None),
    "cholesky": (ProcessSpec.fbm(0.3), GRID, "cholesky", None),
    "circulant": (ProcessSpec.fbm(0.3), UNIFORM, "circulant", None),
    "volterra_zg": (ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)), GRID, "volterra", 64),
    "poly": (ProcessSpec.volterra_g(0.25, 3.0, GFunction.const(0.7)), GRID, "poly", None),
}


def _leaf(name, n_paths):
    spec, grid, scheme, inner_steps = _LEAF_SAMPLERS[name]
    return sample_spec(spec, grid, n_paths, 5, scheme=scheme, inner_steps=inner_steps)


@pytest.mark.parametrize("name", sorted(_LEAF_SAMPLERS))
def test_paths_depend_only_on_seed_and_index(name):
    # 1025 paths end one row into the second block; 1500 fill more of it
    short = _leaf(name, 1025).values
    long = _leaf(name, 1500).values
    assert np.array_equal(long[:1025], short)


@pytest.mark.parametrize("chunk, loop_rows", [(1, 8), (2**10, 40), (2**40, 64)],
                         ids=["8_rows", "mid", "whole_block"])
@pytest.mark.parametrize("name", sorted(_LEAF_SAMPLERS))
def test_row_chunks_keep_bytes(monkeypatch, name, chunk, loop_rows):
    # 8-row chunks end the second block on a partial tile; 40-row chunks do not divide a block
    default = _leaf(name, 1500).values
    monkeypatch.setattr(ssgm.samplers, "_CHUNK", chunk)
    monkeypatch.setattr(ssgm.samplers, "_LOOP_ROWS", loop_rows)
    assert _leaf(name, 1500).values.tobytes() == default.tobytes()


@pytest.mark.parametrize("name", sorted(_LEAF_SAMPLERS))
def test_chunks_are_the_ensemble_rows(monkeypatch, name):
    # 1500 paths in 40-row chunks: several chunks per block, and a partial one ending each block
    spec, grid, scheme, inner_steps = _LEAF_SAMPLERS[name]
    grid = TimeGrid(np.concatenate([[0.0], grid.times]))  # chunks carry the t = 0 column too
    monkeypatch.setattr(ssgm.samplers, "_CHUNK", 2**10)
    monkeypatch.setattr(ssgm.samplers, "_LOOP_ROWS", 40)
    ens = sample_spec(spec, grid, 1500, 5, scheme=scheme, inner_steps=inner_steps)
    starts, parts = [], []
    for start, rows in sample_chunks(spec, grid, 1500, 5, scheme=scheme, inner_steps=inner_steps):
        starts.append(start)
        parts.append(rows.copy())  # the next chunk reuses the buffer
    assert starts == list(np.cumsum([0] + [len(p) for p in parts[:-1]]))
    assert all(start // 1024 == (start + len(p) - 1) // 1024 for start, p in zip(starts, parts))
    assert len(parts) > 2 and len({len(p) for p in parts}) > 1  # a partial chunk ends each block
    assert np.concatenate(parts).tobytes() == ens.values.tobytes()


@pytest.mark.parametrize("args, match", [
    ((SPEC, GRID, 2.5, 1), "n_paths must be an integer"),
    ((SPEC, GRID, True, 1), "n_paths must be an integer"),
    ((SPEC, GRID, 0, 1), "n_paths must be >= 1"),
    ((SPEC, GRID, 3, -1), "seed"),
    ((SPEC, GRID, 3, True), "seed"),
    ((SPEC, GRID, 3, 1, "gibbs"), "unknown sampling scheme"),
    ((SPEC, GRID, 3, 1, "circulant"), "circulant scheme applies"),
], ids=["non_integer_n_paths", "bool_n_paths", "no_paths", "bad_seed", "bool_seed", "unknown_scheme",
        "unfitting_scheme"])
def test_sample_chunks_checks_when_called(args, match):
    # the iterator is not started: every fault shows at the call, before any chunk is taken
    with pytest.raises(ParameterError, match=match):
        sample_chunks(*args)


def test_cli_csv_streams_rows(tmp_path):
    # --csv holds about one row's text at a time, and writes the bytes of ensemble_to_csv
    import tracemalloc

    from ssgm.cli import main

    d = 2**14 + 1
    argv = ["sample", "--spec", "canonical:H=0.5,c=-1", "--grid", ",".join(repr(k / (d - 1)) for k in range(d)),
            "--paths", "16", "--seed", "3"]
    peaks = []
    for extra in ([], ["--csv", str(tmp_path / "e.csv")]):
        tracemalloc.start()
        try:
            assert main(argv + extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    text = ensemble_to_csv(sample_spec(ProcessSpec.canonical(0.5, -1.0), TimeGrid(np.arange(d) / (d - 1)), 16, 3))
    assert (tmp_path / "e.csv").read_bytes() == text.encode()
    row_text = len(text) / 17
    assert peaks[1] - peaks[0] <= 6 * row_text, (peaks, row_text)


def test_midpoint_doubling_evaluates_each_resolution_once(monkeypatch):
    calls = []

    def counting(spec, inner_steps):
        calls.append(inner_steps)
        return _zg_discrete_var(spec, inner_steps)

    monkeypatch.setattr(ssgm.samplers, "_zg_discrete_var", counting)
    grid = TimeGrid(np.array([0.7 - 0.2, 0.6, 1.0, 1.7]))  # a grid of the exact-covariance test
    for g in (GFunction.const(0.7), GFunction.log_pow(2)):
        for beta in (-0.25, 0.5, 1.0):
            spec = ProcessSpec.volterra_g(0.3, beta, g)
            expected = 256  # the policy as first written, which evaluated v1 afresh at every step
            while expected < 4096:
                v1, v2 = _zg_discrete_var(spec, expected), _zg_discrete_var(spec, 2 * expected)
                if abs(v2 - v1) <= 0.01 * max(abs(v2), 1e-300):
                    break
                expected *= 2
            calls.clear()
            ens = sample_spec(spec, grid, 5, 8, scheme="volterra")
            assert ens.inner_steps == expected
            assert len(calls) == len(set(calls)), calls
            pinned = sample_spec(spec, grid, 5, 8, scheme="volterra", inner_steps=expected)
            assert ens.values.tobytes() == pinned.values.tobytes()


@pytest.mark.parametrize("n_paths", [2.5, 3.0, "3", True])
def test_non_integer_n_paths_rejected(n_paths):
    # refused like a bad seed, before anything is drawn
    with pytest.raises(ParameterError, match="n_paths must be an integer"):
        sample_spec(SPEC, GRID, n_paths, 1)
    with pytest.raises(ParameterError, match="n_paths must be an integer"):
        pvariation_trichotomy(ProcessSpec.fbm(0.3), 2.0, [4, 8], n_paths, 1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ParameterError, match="seed"):
        sample_timechange(0.7, -1.5, GRID, 3, seed)
    with pytest.raises(ParameterError, match="seed"):
        sample_spec(SPEC, GRID, 3, seed)


def test_largest_seed_accepted():
    assert sample_timechange(0.7, -1.5, GRID, 3, 2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("n_paths", [2, 300, 1025, 3000])  # 1025: a one-row last block
def test_empirical_cov_matches_two_loop_reference(n_paths):
    ens = sample_spec(ProcessSpec.fbm(0.3), GRID, n_paths, 34, scheme="cholesky")
    X = ens.values
    n, d = X.shape
    mean = [sum(X[:, i]) / n for i in range(d)]
    ref = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            ref[i, j] = sum((X[:, i] - mean[i]) * (X[:, j] - mean[j])) / (n - 1)
    emp = empirical_cov(ens)
    assert np.max(np.abs(emp.cov - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.allclose(emp.mean, mean, rtol=1e-12, atol=0.0)


_COV_BYTES = """
import hashlib
import numpy as np
from ssgm import ProcessSpec, TimeGrid, empirical_cov, sample_spec
ens = sample_spec(ProcessSpec.white_noise(0.3), TimeGrid(np.arange(1, 514) / 512.0), 64, 3)
print(hashlib.sha256(empirical_cov(ens).cov.tobytes()).hexdigest())
"""


# the Cholesky factor of this d = 200 Gram differs in its last bits between one and two
# OpenBLAS threads, and so do the paths it maps normals to
_CHOLESKY_BYTES = """
import hashlib
from ssgm import ProcessSpec, TimeGrid, sample_spec
ens = sample_spec(ProcessSpec.sub_fbm(0.3), TimeGrid.geometric(0.05, 5, 200), 64, 1)
print(ens.scheme, hashlib.sha256(ens.values.tobytes()).hexdigest())
"""

# threaded, the tridiagonal reduction gives 0.009441285417944178, one thread ...51806
_PSD_BYTES = """
from ssgm import ProcessSpec, TimeGrid, build_gram, make_kernel, psd_check
gram = build_gram(make_kernel(ProcessSpec.fbm(0.25)), TimeGrid.geometric(0.05, 5, 400))
print(repr(psd_check(gram).min_eigenvalue_bound))
"""


def _outputs_across_blas_threads(snippet: str) -> list:
    """The stdout of ``snippet`` run in a fresh interpreter under OPENBLAS_NUM_THREADS=1 and =2."""
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(out.stdout.strip())
    return outputs


def test_empirical_cov_bytes_independent_of_blas_threads():
    digests = _outputs_across_blas_threads(_COV_BYTES)
    assert digests[0] == digests[1]


def test_cholesky_paths_bytes_independent_of_blas_threads():
    digests = _outputs_across_blas_threads(_CHOLESKY_BYTES)
    assert digests[0].startswith("cholesky ")
    assert digests[0] == digests[1]


def test_psd_eigenvalue_bytes_independent_of_blas_threads():
    values = _outputs_across_blas_threads(_PSD_BYTES)
    assert values[0] == values[1]
