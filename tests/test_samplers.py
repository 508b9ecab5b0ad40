import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ssgm
from ssgm import (GFunction, ProcessSpec, TimeGrid, build_gram, empirical_cov,
                  ensemble_to_csv, eval_fbm, increment_variance,
                  load_ensemble, make_kernel, parse_spec_string, sample_cholesky,
                  sample_circulant, sample_spec, sample_timechange,
                  sample_volterra_poly, sample_volterra_zg,
                  sample_whitenoise, save_ensemble, selfsim_check,
                  set_max_workers)
from ssgm.errors import NumericalError, ParameterError
from ssgm.samplers import _circulant_transform, _poly_transform, _uniform_step, _volterra_transform

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


def test_worker_count_independence():
    a = sample_timechange(0.7, -1.5, GRID, 500, 42)
    try:
        set_max_workers(4)
        b = sample_timechange(0.7, -1.5, GRID, 500, 42)
        set_max_workers(8)
        c = sample_timechange(0.7, -1.5, GRID, 500, 42)
    finally:
        set_max_workers(1)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)


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
    ens = sample_whitenoise(0.6, grid, 30000, 15)
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
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    e1 = empirical_cov(sample_cholesky(k, grid, 30000, 16))
    e2 = empirical_cov(sample_timechange(0.5, -1.0, grid, 30000, 17))
    combined = np.sqrt(e1.se**2 + e2.se**2)
    assert np.max(np.abs(e1.cov - e2.cov) / combined) < 4.0


def test_cholesky_matches_kernel_nonbrownian():
    k = make_kernel(SPEC)
    ens = sample_cholesky(k, GRID, 30000, 33)
    assert _max_z(SPEC, ens) < 4.0


def test_cholesky_sfbm_r11():
    grid = TimeGrid(np.array([0.5, 1.0]))
    k = make_kernel(ProcessSpec.sub_fbm(0.25))
    emp = empirical_cov(sample_cholesky(k, grid, 40000, 18))
    target = 2.0 - 2.0 ** (-0.5)
    assert abs(emp.cov[1, 1] - target) < 4.0 * emp.se[1, 1]


def test_cholesky_degenerate_needs_jitter():
    k = make_kernel(ProcessSpec.canonical(0.7, -0.7))
    ens = sample_cholesky(k, GRID, 100, 19)
    assert ens.jitter > 0.0
    assert ens.jitter <= 1e-6


def test_cholesky_zero_column():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    k = make_kernel(ProcessSpec.fbm(0.3))
    ens = sample_cholesky(k, grid, 64, 20)
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
    exact = eval_fbm(H, times[:, None], times[None, :])
    assert np.max(np.abs(A.T @ A - exact)) <= 1e-12 * np.max(exact)


def test_circulant_zero_column():
    grid = TimeGrid(np.arange(0, 65) / 64.0)
    ens = sample_circulant(0.3, grid, 64, 20)
    assert ens.scheme == "circulant"
    assert np.all(ens.values[:, 0] == 0.0)
    assert ens.spec == ProcessSpec.fbm(0.3)


@pytest.mark.parametrize("times", [[0.1, 0.2, 0.4], [0.0, 0.5, 1.5], [0.0]])
def test_circulant_rejects_nonuniform_grid(times):
    with pytest.raises(ParameterError, match="uniform grid"):
        sample_circulant(0.3, TimeGrid(np.array(times)), 4, 1)


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
    ens = sample_volterra_zg(0.5, 0.0, GFunction.const(1.0), grid, 256, 20000, 22)
    emp = empirical_cov(ens)
    bm = np.minimum.outer(grid.times, grid.times)
    assert np.max(np.abs(emp.cov - bm) / emp.se) < 4.0


def test_volterra_zg_variance_refines():
    # Var(Z_1) -> 1/3 as inner_steps grows (beta=1, g=1)
    grid = TimeGrid(np.array([1.0]))
    gaps = []
    for steps in (64, 256, 1024):
        ens = sample_volterra_zg(0.25, 1.0, GFunction.const(1.0), grid, steps, 30000, 23)
        gaps.append(abs(np.var(ens.values[:, 0], ddof=1) - 1.0 / 3.0))
    assert gaps[-1] < 0.01
    # discretized variance itself converges: compare deterministic weights
    from ssgm.samplers import _zg_discrete_var

    spec = ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0))
    dv = [abs(_zg_discrete_var(spec, s) - 1.0 / 3.0) for s in (64, 256, 1024)]
    assert dv[0] > dv[1] > dv[2]


def test_volterra_zg_log_weight_variance():
    # quadrature oracle: integral (1-x) log(1/(1-x))^2 dx = 1/4 exactly
    spec = ProcessSpec.volterra_g(0.25, 0.5, GFunction.log_pow(1))
    from ssgm import volterra_g_variance

    assert volterra_g_variance(spec) == pytest.approx(0.25, abs=1e-9)
    ens = sample_volterra_zg(0.25, 0.5, GFunction.log_pow(1), TimeGrid(np.array([1.0])), 1024, 30000, 24)
    v = float(np.var(ens.values[:, 0], ddof=1))
    se = 0.25 * np.sqrt(2.0 / 30000)
    assert abs(v - 0.25) < 4.0 * se + 0.01  # MC + discretization tolerance


def test_volterra_zg_auto_steps():
    ens = sample_volterra_zg(0.25, 1.0, GFunction.const(1.0), TimeGrid(np.array([1.0])), None, 5, 25)
    assert ens.inner_steps >= 256


@pytest.mark.parametrize("inner_steps", [None, 64])
def test_volterra_zg_zero_only_grid_gives_zero_column(inner_steps):
    # like the exact schemes: no positive time, so no cells and one zero column
    ens = sample_volterra_zg(0.25, 0.5, GFunction.const(1.0), TimeGrid(np.array([0.0])), inner_steps, 3, 1)
    np.testing.assert_array_equal(ens.values, np.zeros((3, 1)))


@pytest.mark.parametrize("inner_steps", [64, None])
@pytest.mark.parametrize("g", [GFunction.const(1.0), GFunction.log_pow(1)], ids=["const", "log-pow"])
def test_volterra_zg_grid_time_just_below_lattice_point(g, inner_steps):
    # 0.7 - 0.2 is one ulp below the lattice point 1/2: the cell ending at 1/2 lies past t
    grid = TimeGrid(np.array([0.7 - 0.2, 1.0]))
    ens = sample_volterra_zg(0.25, 0.5, g, grid, inner_steps, 3, 1)
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
    ens = sample_volterra_zg(0.25, -0.25, GFunction.const(1.0), TimeGrid(np.array([0.5, 1.0])), 128, 5, 26)
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
    ens = sample_volterra_poly(0.25, 2, 0.7, grid, 16, 9)
    assert ens.scheme == "poly"
    assert ens.inner_steps is None
    assert ens.spec == ProcessSpec.volterra_g(0.25, 2.0, GFunction.const(0.7))
    assert np.all(ens.values[:, 0] == 0.0)
    assert np.all(ens.values[:, 1:] != 0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0 + 1e-12])
def test_poly_rejects_non_integer_beta(beta):
    with pytest.raises(ParameterError, match="integer beta"):
        sample_volterra_poly(0.25, beta, 1.0, GRID, 4, 1)


# ---------------------------------------------------------------------------
# empirical_cov / selfsim_check
# ---------------------------------------------------------------------------

def test_empirical_cov_basic():
    ens = sample_whitenoise(0.5, TimeGrid(np.array([1.0, 2.0])), 5000, 27)
    emp = empirical_cov(ens)
    assert emp.cov.shape == (2, 2)
    assert np.all(emp.se >= 0.0)
    assert emp.cov[0, 1] == emp.cov[1, 0]
    assert emp.n_paths == 5000


def test_empirical_cov_needs_two_paths():
    ens = sample_whitenoise(0.5, TimeGrid(np.array([1.0])), 1, 28)
    with pytest.raises(ParameterError):
        empirical_cov(ens)


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


@pytest.mark.parametrize("extra", [-8, 8], ids=["truncated", "over_long"])
def test_load_rejects_size_mismatch(tmp_path, extra):
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    data = path.read_bytes()
    path.write_bytes(data[:extra] if extra < 0 else data + bytes(extra))
    with pytest.raises(ParameterError, match="ens.bin"):
        load_ensemble(path)


# ---------------------------------------------------------------------------
# block layout, seed range, empirical_cov reference
# ---------------------------------------------------------------------------

_LEAF_SAMPLERS = {
    "timechange": lambda n: sample_timechange(0.7, -1.5, GRID, n, 5),
    "whitenoise": lambda n: sample_whitenoise(0.6, GRID, n, 5),
    "cholesky": lambda n: sample_cholesky(make_kernel(ProcessSpec.fbm(0.3)), GRID, n, 5),
    "circulant": lambda n: sample_circulant(0.3, UNIFORM, n, 5),
    "volterra_zg": lambda n: sample_volterra_zg(0.25, 1.0, GFunction.const(1.0), GRID, 64, n, 5),
    "poly": lambda n: sample_volterra_poly(0.25, 3, 0.7, GRID, n, 5),
}


@pytest.mark.parametrize("name", sorted(_LEAF_SAMPLERS))
def test_paths_depend_only_on_seed_and_index(name):
    # 1025 paths end one row into the second block; 1500 fill more of it
    short = _LEAF_SAMPLERS[name](1025).values
    long = _LEAF_SAMPLERS[name](1500).values
    assert np.array_equal(long[:1025], short)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ParameterError, match="seed"):
        sample_timechange(0.7, -1.5, GRID, 3, seed)


def test_largest_seed_accepted():
    assert sample_timechange(0.7, -1.5, GRID, 3, 2**64 - 1).seed == 2**64 - 1


def test_empirical_cov_matches_two_loop_reference():
    ens = sample_cholesky(make_kernel(ProcessSpec.fbm(0.3)), GRID, 300, 34)
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
from ssgm import TimeGrid, empirical_cov, sample_whitenoise
ens = sample_whitenoise(0.3, TimeGrid(np.arange(1, 514) / 512.0), 64, 3)
print(hashlib.sha256(empirical_cov(ens).cov.tobytes()).hexdigest())
"""


def test_empirical_cov_bytes_independent_of_blas_threads():
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _COV_BYTES], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
