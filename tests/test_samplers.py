import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import ssgm
from ssgm import (SCHEMES, GFunction, PathEnsemble, ProcessSpec, TimeGrid, build_gram, empirical_cov,
                  ensemble_csv_lines, ergodic_average, increment_variance,
                  load_ensemble, make_kernel, parse_spec_string, pvariation_trichotomy, sample_spec,
                  sample_timechange, save_ensemble, selfsim_check)
from ssgm.errors import NumericalError, ParameterError
from ssgm.samplers import (_circulant_transform, _hilbert_cholesky, _poly_transform, _uniform_step,
                           _volterra_transform, _zg_discrete_var)

GRID = TimeGrid.geometric(0.1, 2.0, 12)
UNIFORM = TimeGrid(np.arange(1, 13) * 0.3)
SPEC = ProcessSpec.canonical(0.7, -1.5)
SPEC_BM = ProcessSpec.canonical(0.5, -1.0)
SPEC_POLY = ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0))


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


def test_blocks_are_block_generator_streams():
    # block b of sample_spec is the transform of block b's normals from _block_generator(seed, b):
    # 2500 paths of 12 grid times are blocks of 1024, 1024 and 452
    seed, n_paths = 7, 2500
    ens = sample_spec(SPEC, GRID, n_paths, seed)
    plan = ssgm.samplers._plan(SPEC, GRID, n_paths, seed, None, None)[1]
    P = ssgm.samplers._block_rows(plan)
    assert P == 1024
    for b, lo in enumerate(range(0, n_paths, P)):
        rows = min(P, n_paths - lo)
        z = ssgm.samplers._block_generator(seed, b).standard_normal((rows, plan.n_draws))
        assert ens.values[lo:lo + rows].tobytes() == plan.transform(z).tobytes(), b


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "max"])
def test_extreme_seeds_draw(seed):
    # 1030 paths are two blocks, two streams of the same seed
    ens = sample_spec(SPEC, GRID, 1030, seed)
    assert np.all(np.isfinite(ens.values)) and ens.seed == seed
    assert not np.array_equal(ens.values[:6], ens.values[1024:])


def test_block_generators_read_no_os_entropy(monkeypatch):
    # the seeded SeedSequence hashes (seed, b) alone: no block reads os.urandom, which an unseeded
    # SeedSequence reads through random._urandom
    import random

    calls = []
    real = random._urandom

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(random, "_urandom", counted)
    np.random.SeedSequence()
    assert len(calls) == 1  # the counter sees an unseeded sequence's read
    calls.clear()
    for seed, b in ((0, 0), (5, 3), (2**64 - 1, 10**6)):
        rng = ssgm.samplers._block_generator(seed, b)
        seed_seq = rng.bit_generator.seed_seq
        assert isinstance(rng.bit_generator, np.random.SFC64)
        assert (seed_seq.entropy, seed_seq.spawn_key) == (seed, (b,))
    sample_spec(SPEC, GRID, 2500, 5)
    assert calls == []


def test_block_streams_uncorrelated():
    # the normals of (seed, 0), (seed, 1) and (seed + 1, 0): pairwise sample correlations within
    # 5 / sqrt(n), and each stream's moments those of N(0, 1)
    n = 2**17
    streams = [ssgm.samplers._block_generator(seed, b).standard_normal(n)
               for seed, b in ((11, 0), (11, 1), (12, 0))]
    for i in range(3):
        assert abs(np.mean(streams[i])) <= 5 / math.sqrt(n)
        assert abs(np.var(streams[i]) - 1.0) <= 5 * math.sqrt(2.0 / n)
        for j in range(i):
            assert abs(np.corrcoef(streams[i], streams[j])[0, 1]) <= 5 / math.sqrt(n), (i, j)


@pytest.mark.parametrize("lead0", [False, True], ids=["positive", "with_t0"])
@pytest.mark.parametrize("n_paths", [1025, 2500])
def test_block_threads_keep_bytes(monkeypatch, n_paths, lead0):
    # one, two or three threads draw the blocks of every scheme into the same bytes, those of
    # the calling thread alone; the block moments of empirical_cov and selfsim_check merge into
    # the same bytes too, and so do the per-path sums of multi-block trichotomy and ergodic runs
    assert {scheme for _, _, scheme, _ in _LEAF_SAMPLERS.values()} == set(SCHEMES)
    for spec, grid, scheme, inner_steps in _LEAF_SAMPLERS.values():
        if lead0:
            grid = TimeGrid(np.concatenate([[0.0], grid.times]))
        digests, covs, ratios = set(), set(), set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda workers=workers: workers)
            ens = sample_spec(spec, grid, n_paths, 5, scheme, inner_steps)
            digests.add(_sha(ens.values))
            emp = empirical_cov(ens)
            covs.add((_sha(emp.mean), _sha(emp.cov), _sha(emp.se)))
            ratios.add(_sha(selfsim_check(spec, 2.0, grid, n_paths, 5).ratios))
        assert len(digests) == 1 and len(covs) == 1 and len(ratios) == 1, scheme
    if lead0:  # the reducers' grids start at t = 0
        reports = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda workers=workers: workers)
            # 32-path blocks on 2^12 + 1 points; 64-path blocks of the poly and midpoint schemes
            tri = pvariation_trichotomy(SPEC_BM, 2.0, [2**10, 2**11, 2**12], n_paths // 10, 5)
            poly = ergodic_average(ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)), "square",
                                   2**10, n_paths // 10, 5)
            mid = ergodic_average(ProcessSpec.volterra_g(0.3, 0.5, GFunction.const(1.0)), "abs-pow",
                                  40, n_paths // 10, 5, p=1.5)
            reports.add((_sha(tri.mean_sums), _sha(tri.se_sums), tri.slope_estimate, poly.average, mid.average))
        assert len(reports) == 1


def test_block_threads_stress(monkeypatch):
    # eight threads switching every microsecond inside the one one_blas_thread the block drawer
    # holds: the paths and the merged moments keep their bytes, and the OpenBLAS thread counts
    # come back
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


def _drawing_thread_ids(monkeypatch, cpus, spec, grid, n_paths):
    """The threads that reduce the blocks of ``reduce_blocks`` with ``_cpu_count`` patched to ``cpus``."""
    monkeypatch.setattr(ssgm.samplers, "_cpu_count", lambda: cpus)
    ids = set()

    def reduce(rows, scratch):
        ids.add(threading.get_ident())
        time.sleep(0.002)  # so that a thread the runner starts takes a block too

    ssgm.samplers.reduce_blocks(spec, grid, n_paths, 5, reduce)
    return ids


def test_drawing_threads_capped_by_buffer_size(monkeypatch):
    # the drawing threads' buffers hold about 2^18 normals at most, whatever the CPU count:
    # two threads for blocks of 2^17 normals, sixteen for 1024 rows of 16, and two for the poly
    # scheme's blocks of 64 rows of 2048 normals; one block is drawn on the calling thread alone
    long_grid, poly_grid = TimeGrid(np.arange(2**14 + 1, dtype=float)), TimeGrid(np.arange(1025.0))
    for spec, grid, threads in ((SPEC_BM, long_grid, 2), (SPEC, TimeGrid.geometric(0.1, 2.0, 16), 16),
                                (SPEC_POLY, poly_grid, 2)):
        assert ssgm.samplers._drawing_threads(ssgm.samplers._plan(spec, grid, 64, 5, None, None)[1]) == threads
    # 64 Brownian paths on 2^14 + 1 points are eight blocks of 8, 150 poly paths on 1025 three of 64
    assert 1 <= len(_drawing_thread_ids(monkeypatch, 8, SPEC_BM, long_grid, 64)) <= 2
    assert 1 <= len(_drawing_thread_ids(monkeypatch, 8, SPEC_POLY, poly_grid, 150)) <= 2
    assert _drawing_thread_ids(monkeypatch, 8, SPEC_BM, long_grid, 8) == {threading.get_ident()}


@pytest.mark.parametrize("spec, n", [(ProcessSpec.volterra_g(0.3, 0.5, GFunction.const(1.0)), 8)],
                         ids=["midpoint"])
def test_loop_transforms_draw_on_the_calling_thread(monkeypatch, spec, n):
    # the midpoint transform holds the GIL, so a second thread would add CPU time and no speed:
    # its 64-path blocks (rows of 2048 normals, three blocks here, which the buffer cap alone
    # would let two threads draw) are all drawn by the calling thread
    grid = TimeGrid(np.arange(n + 1.0))
    plan = ssgm.samplers._plan(spec, grid, 150, 5, None, None)[1]
    assert ssgm.samplers._block_rows(plan) == 64 and ssgm.samplers._drawing_threads(plan) == 1
    assert _drawing_thread_ids(monkeypatch, 4, spec, grid, 150) == {threading.get_ident()}


def _fail_in_block_1(monkeypatch, seed):
    """Make the timechange scheme's transform raise on block 1 of ``seed``."""
    first = ssgm.samplers._block_generator(seed, 1).standard_normal()
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
    # selfsim_check draws the blocks of seed 5 and then those of seed 6
    with pytest.raises(NumericalError, match=r"^transform failed in block 1$"):
        selfsim_check(SPEC, 2.0, GRID, 2500, 5)
    assert threading.active_count() == before
    # 64 Brownian paths on 2^12 + 1 points are two blocks of 32, reduced where they are drawn
    with pytest.raises(NumericalError, match=r"^transform failed in block 1$"):
        pvariation_trichotomy(SPEC_BM, 2.0, [2**10, 2**12], 64, 5)
    assert threading.active_count() == before
    sample_spec(SPEC, GRID, 1024, 5)  # block 0 alone draws
    pvariation_trichotomy(SPEC_BM, 2.0, [2**10, 2**12], 32, 5)


def test_block_error_exits_3(monkeypatch, capsys):
    from ssgm.cli import main

    _fail_in_block_1(monkeypatch, 5)
    assert main(["sample", "--spec", SPEC.label(), "--grid", "geometric:0.1,2,12", "--paths", "2500",
                 "--seed", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ssgm: numerical failure: transform failed in block 1\n"
    assert main(["variation", "--spec", SPEC_BM.label(), "--p", "2", "--n", "2^10..2^12", "--paths", "64",
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
    with pytest.raises(ParameterError, match="whitenoise scheme"):
        sample_timechange(0.5, float("-inf"), GRID, 10, 1)


def _timechange_plan(spec, d):
    """(times, plan) of the timechange scheme on d geometric positive times in [0.05, 3]."""
    grid = TimeGrid.geometric(0.05, 3.0, d)
    return grid.times, ssgm.samplers._plan(spec, grid, 1, 5, "timechange", None)[1]


def _cumsum_form(spec, t, z):
    """t^(2H+c) cumsum(sqrt(dtau) z) with tau = t^(-2H-2c), the time change written out."""
    tau = t ** (-2.0 * spec.H - 2.0 * spec.c)
    return t ** (2.0 * spec.H + spec.c) * np.cumsum(np.sqrt(np.diff(tau, prepend=0.0)) * z, axis=1)


@pytest.mark.parametrize("d", [16, 128, 129])
@pytest.mark.parametrize("spec", [SPEC, SPEC_BM, ProcessSpec.canonical(0.3, -0.9)], ids=["H07", "bm", "H03"])
def test_timechange_factor_is_the_markov_cholesky_factor(spec, d):
    # the transform of the identity's rows is its factor A, upper triangular, and A^T A is the
    # closed form (s v t)^(2H+c) (s ^ t)^(-c) and the kernel's Gram to 1e-13, in either form
    t, plan = _timechange_plan(spec, d)
    A = plan.transform(np.eye(d))
    assert np.array_equal(A, np.triu(A))
    closed = np.maximum.outer(t, t) ** (2.0 * spec.H + spec.c) * np.minimum.outer(t, t) ** -spec.c
    np.testing.assert_allclose(A.T @ A, closed, rtol=1e-13, atol=0)
    np.testing.assert_allclose(A.T @ A, _exact(spec, TimeGrid(t)), rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [16, 128, 129])
def test_timechange_product_matches_cumsum(d):
    # rows of at most 128 normals are one stacked product with the factor, which agrees with the
    # cumulative sum on the same normals column-relatively within 1e-14; 129 take the sum itself
    t, plan = _timechange_plan(SPEC, d)
    z = np.random.default_rng(8).standard_normal((1000, d))
    ref = _cumsum_form(SPEC, t, z)
    x = plan.transform(z.copy())
    if d <= 128:
        assert x.tobytes() == ssgm.samplers._tiled(z, plan.transform(np.eye(d))).tobytes()
        assert np.max(np.abs(x - ref) / np.max(np.abs(ref), axis=0)) <= 1e-14
    else:
        assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [16, 129])
def test_timechange_forms_keep_row_bytes_and_zero_column(d):
    # both forms map a row alone to the bytes it gets among 100, and a leading t = 0 is a +0.0
    # column in front of the bytes drawn without it
    t, plan = _timechange_plan(SPEC, d)
    z = np.random.default_rng(9).standard_normal((100, d))
    by_row = np.concatenate([plan.transform(z[i:i + 1].copy()) for i in range(len(z))])
    assert plan.transform(z.copy()).tobytes() == by_row.tobytes()
    values = sample_spec(SPEC, TimeGrid(np.concatenate([[0.0], t])), 20, 3).values
    assert np.all(values[:, 0] == 0.0) and not np.any(np.signbit(values[:, 0]))
    assert values[:, 1:].tobytes() == sample_spec(SPEC, TimeGrid(t), 20, 3).values.tobytes()


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
    assert "-0.0" not in "".join(ensemble_csv_lines(ens))


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

    def F(x):  # F(x) = (1-x)^beta g(x), with g written out here: a, or log(1/(1-x))^k
        g = spec.g.a if spec.g.kind == "const" else np.log1p(x / (1.0 - x)) ** spec.g.k
        return (1.0 - x) ** spec.beta * g

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
@pytest.mark.parametrize("beta", [0, 1, 2, 3, 8, 16, 30])
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
    # no positive time: one zero column and no normals
    ens = sample_spec(ProcessSpec.volterra_g(0.25, 2, GFunction.const(0.7)), TimeGrid(np.array([0.0])), 3, 9)
    assert ens.scheme == "poly" and ens.values.tobytes() == np.zeros((3, 1)).tobytes()


@pytest.mark.parametrize("beta", [0.5, 1.0 + 1e-12])
def test_poly_rejects_non_integer_beta(beta):
    with pytest.raises(ParameterError, match="integer beta"):
        sample_spec(ProcessSpec.volterra_g(0.25, beta, GFunction.const(1.0)), GRID, 4, 1, scheme="poly")


def _poly_stepwise(H, beta, a, times, z):
    """The state recursion the poly scheme used before its cumulative sums, one grid step and one term at a time.

    X_k(t) = t^-(k+1/2) Y_k(t) steps from t to t' = t + h with rho = t/t' and q = h/t' as
    X_k(t') = sum_i C(k,i) q^(k-i) rho^(i+1/2) X_i(t) + q^(k+1/2) (L z)_k, and Z_t = a t^H X_beta(t).
    """
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


def _poly_sums_stepwise(H, beta, a, times, z):
    """``_poly_transform``'s cumulative sums one grid time and one term at a time, in its order.

    The constants are its expressions on the same arrays; the segments are found by a scan.
    """
    K = beta + 1
    L = _hilbert_cholesky(K)
    tiny = float(np.finfo(float).tiny)
    floor = max(tiny ** (1.0 / (beta + 0.5)), tiny)
    unit = np.empty(times.size)  # each time's segment's last time: a segment holds the times up to its first / floor
    lo = 0
    while lo < times.size:
        hi = lo
        while hi < times.size and floor * times[hi] <= times[lo]:
            hi += 1
        unit[lo:hi] = times[hi - 1]
        lo = hi
    last = np.unique(unit)
    step = np.diff(times, prepend=0.0) / unit
    k = np.arange(K)[:, None]
    step_pow, noise_scale = step**k, step ** (k + 0.5)
    carry = (last[:-1] / last[1:]) ** (k + 0.5)
    out_scale = (unit / times) ** (beta + 0.5)
    z = z.reshape(len(z), times.size, K)
    y = np.zeros((K, len(z)))
    out = np.empty((len(z), times.size))
    segment = 0
    for j in range(times.size):
        if j and unit[j] != unit[j - 1]:  # into the next segment's unit
            y = y * carry[:, segment:segment + 1]
            segment += 1
        new = np.empty_like(y)
        for m in range(K):
            noise = z[:, j, 0] * L[m, 0]
            for n in range(1, m + 1):
                noise = noise + z[:, j, n] * L[m, n]
            inc = noise * noise_scale[m, j]
            for i in range(m):
                inc = inc + y[i] * (math.comb(m, i) * step_pow[m - i, j])
            new[m] = y[m] + inc
        y = new
        out[:, j] = y[beta] * out_scale[j]
    return out * (a * times**H)


_EXTREME_GRIDS = {"from_1e-300": np.geomspace(1e-300, 1.0, 40), "from_1e-12": np.geomspace(1e-12, 1.0, 40)}


@pytest.mark.parametrize("beta", [0, 1, 3, 8])
def test_poly_transform_matches_stepwise_reference(beta):
    # bytewise, on one segment and on several (the grid from 1e-300 is two at beta >= 1)
    for times in (GRID.times, _EXTREME_GRIDS["from_1e-300"]):
        z = np.random.default_rng(beta).standard_normal((13, (beta + 1) * times.size))
        expected = _poly_sums_stepwise(0.3, beta, 0.7, times, z)
        got = _poly_transform(0.3, beta, 0.7, times)(z.copy())
        assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("times", [GRID.times, UNIFORM.times, *_EXTREME_GRIDS.values()],
                         ids=["geometric", "uniform", *_EXTREME_GRIDS])
@pytest.mark.parametrize("beta", [0, 1, 3, 8, 16, 30])
def test_poly_transform_matches_state_recursion(beta, times):
    # the cumulative sums against the recursion they replaced, each column relative to its largest
    # value: 1e-13 bounds them (5e-15 at most was seen), also where unsegmented sums would under-
    # flow t^(beta+1/2) (from 1e-300 at beta >= 1, from 1e-12 at beta = 30) and give inf or nan
    z = np.random.default_rng(beta).standard_normal((13, (beta + 1) * times.size))
    old = _poly_stepwise(0.3, beta, 0.7, times, z)
    new = _poly_transform(0.3, beta, 0.7, times)(z.copy())
    assert np.all(np.isfinite(new))
    assert np.max(np.abs(new - old) / np.max(np.abs(old), axis=0)) <= 1e-13


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
    text = "".join(ensemble_csv_lines(ens))
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


def test_numpy_scalar_spec_round_trip(tmp_path):
    # a spec built from numpy scalars writes a sidecar label that load_ensemble parses back
    spec = ProcessSpec(ssgm.Family.CANONICAL, np.float64(0.7), c=np.float64(-1.5))
    ens = ssgm.PathEnsemble(spec, GRID, np.zeros((2, len(GRID))), 1, "timechange")
    save_ensemble(ens, tmp_path / "e.bin")
    back = load_ensemble(tmp_path / "e.bin")
    assert back.spec == spec
    assert np.array_equal(back.values, ens.values)
    g_spec = ProcessSpec(ssgm.Family.VOLTERRA_G, np.float64(0.25), beta=np.float64(1.0),
                         g=GFunction("const", a=np.float64(2.0)))
    save_ensemble(sample_spec(g_spec, UNIFORM, 3, 5), tmp_path / "g.bin")
    assert load_ensemble(tmp_path / "g.bin").spec == g_spec


@pytest.mark.parametrize("spec", [
    ProcessSpec.canonical(0.7, -1.5),
    ProcessSpec.canonical(0.4, float("-inf")),
    ProcessSpec.white_noise(0.6),
    ProcessSpec.fbm(0.3),
    ProcessSpec.sub_fbm(0.3),
    ProcessSpec(ssgm.Family.BIFBM, 0.125 + 1e-14, htilde=0.25, ktilde=0.5),
    ProcessSpec.riemann_liouville(0.25),
    ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(2.0)),
    ProcessSpec.volterra_g(0.25, 0.5, GFunction.log_pow(1)),
], ids=lambda s: s.label())
def test_saved_spec_loads_equal(spec, tmp_path):
    # every family's spec, however it was spelled, is the spec load_ensemble reads back from its sidecar
    ens = sample_spec(spec, TimeGrid(np.array([0.5, 1.0])), 2, 3, inner_steps=64)
    save_ensemble(ens, tmp_path / "e.bin")
    assert load_ensemble(tmp_path / "e.bin").spec == ens.spec == spec


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


@pytest.mark.parametrize("rng", ["sfc64-block-v4", None, "philox-block-v1", "philox-block-v2", "sfc64-block-v3"],
                         ids=["new_sidecar", "old_sidecar", "v1_sidecar", "v2_sidecar", "v3_sidecar"])
def test_sidecar_rng_marker(tmp_path, rng):
    # sidecars written before the block layout carry no "rng" key, those of 1024-path Philox
    # blocks "philox-block-v1", those of Philox blocks of about 2^17 normals "philox-block-v2",
    # those of SFC64 blocks with at least 64 poly rows "sfc64-block-v3"; all still load
    ens = sample_timechange(0.7, -1.5, GRID, 7, 77)
    path = tmp_path / "ens.bin"
    save_ensemble(ens, path)
    side = tmp_path / "ens.bin.json"
    sidecar = json.loads(side.read_text())
    assert sidecar["rng"] == "sfc64-block-v4"
    if rng != sidecar["rng"]:
        if rng is None:
            del sidecar["rng"]
        else:
            sidecar["rng"] = rng
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


# the same cases on grids whose rows hold more than 128 normals, so that a block holds fewer than 1024 paths
_LONG_ROWS = {
    "timechange": TimeGrid(np.arange(1, 2**12 + 1) / 2**11),
    "whitenoise": TimeGrid(np.arange(1, 2**12 + 1) / 2**11),
    "cholesky": TimeGrid.geometric(0.01, 3.0, 1000),
    "circulant": TimeGrid(np.arange(1, 2**11 + 1) / 2**10),
    "volterra_zg": TimeGrid.geometric(0.1, 8.0, 12),
    "poly": TimeGrid.geometric(0.01, 3.0, 1024),
}


def _case(name, long_rows=False):
    spec, grid, scheme, inner_steps = _LEAF_SAMPLERS[name]
    return spec, _LONG_ROWS[name] if long_rows else grid, scheme, inner_steps


def _block_rows(spec, grid, scheme, inner_steps):
    """P, the paths per Philox block of the case's plan."""
    return ssgm.samplers._block_rows(ssgm.samplers._plan(spec, grid, 1, 5, scheme, inner_steps)[1])


@pytest.mark.parametrize("name, long_rows",
                         [(name, False) for name in sorted(_LEAF_SAMPLERS)]
                         + [(name, True) for name in sorted(_LEAF_SAMPLERS)],
                         ids=sorted(_LEAF_SAMPLERS) + [f"{name}-long_rows" for name in sorted(_LEAF_SAMPLERS)])
def test_paths_depend_only_on_seed_and_index(name, long_rows):
    # ensembles that end one row short of a block, on it, one row into the next, and five rows
    # into the fourth are prefixes of one another
    spec, grid, scheme, inner_steps = case = _case(name, long_rows)
    P = _block_rows(*case)
    assert (P < 1024) == (long_rows or name == "volterra_zg"), P  # the midpoint GRID case has 140 cells
    longest = sample_spec(spec, grid, 3 * P + 5, 5, scheme, inner_steps).values
    for n_paths in (1, P - 1, P, P + 1):
        values = sample_spec(spec, grid, n_paths, 5, scheme, inner_steps).values
        assert values.tobytes() == longest[:n_paths].tobytes(), n_paths


@pytest.mark.parametrize("rows", [*range(1, 10), 1000])
def test_tiled_pads_its_last_tile(rows):
    # a partial last tile goes to BLAS padded with zero rows: the rows give the bytes of one `@`
    # per padded 8-row tile (125 tiles for 1000 rows), and the first rows of the product of
    # 1001 rows, for a matrix and for a vector; z is a column slice, as the midpoint scheme
    # passes, and may have no columns, as on the grid {0}
    rng = np.random.default_rng(3)
    for k in (300, 0):
        z = rng.standard_normal((1001, k + 5))[:, :k]
        padded = np.concatenate([z[:rows], np.zeros((-rows % 8, k))])
        for w in (rng.standard_normal((k, 40)), rng.standard_normal(k)):
            expected = np.concatenate([padded[i:i + 8] @ w for i in range(0, len(padded), 8)])[:rows]
            assert ssgm.samplers._tiled(z[:rows], w).shape == expected.shape
            assert ssgm.samplers._tiled(z[:rows], w).tobytes() == expected.tobytes()
            assert ssgm.samplers._tiled(z, w)[:rows].tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk", [8, 40, None], ids=["8_rows", "mid", "whole_block"])
@pytest.mark.parametrize("name", sorted(_LEAF_SAMPLERS))
def test_row_chunks_keep_bytes(name, chunk):
    # every scheme's transform is row-independent: 100 rows of normals (a partial last tile)
    # mapped in 8-row calls, 40-row calls (a partial last call) or one call give the bytes of
    # one call per row, so a block's rows do not depend on how many paths share it
    spec, grid, scheme, inner_steps = _case(name)
    plan = ssgm.samplers._plan(spec, grid, 1, 5, scheme, inner_steps)[1]
    z = np.random.default_rng(7).standard_normal((100, plan.n_draws))
    by_row = np.concatenate([plan.transform(z[i:i + 1].copy()) for i in range(len(z))])
    step = chunk or len(z)
    chunked = np.concatenate([plan.transform(z[i:i + step].copy()) for i in range(0, len(z), step)])
    assert chunked.tobytes() == by_row.tobytes()


@pytest.mark.parametrize("name", sorted(_LEAF_SAMPLERS))
def test_chunks_are_the_ensemble_rows(name):
    # 3P + 5 paths on long rows: the block drawer reduces one Philox block of P rows at a time,
    # the last one five rows, in its rows buffer; in block order they are the ensemble's bytes
    spec, grid, scheme, inner_steps = _case(name, long_rows=True)
    grid = TimeGrid(np.concatenate([[0.0], grid.times]))  # blocks carry the t = 0 column too
    P = _block_rows(spec, grid, scheme, inner_steps)
    ens = sample_spec(spec, grid, 3 * P + 5, 5, scheme=scheme, inner_steps=inner_steps)
    plan = ssgm.samplers._plan(spec, grid, 3 * P + 5, 5, scheme, inner_steps)[1]
    copy = lambda rows, scratch: rows.copy()  # the thread's next block reuses the buffer
    parts = ssgm.samplers._draw_blocks(plan, 5, 3 * P + 5, len(grid), copy)
    assert [len(p) for p in parts] == [P, P, P, 5]
    assert np.concatenate(parts).tobytes() == ens.values.tobytes()


@pytest.mark.parametrize("args, match", [
    ((SPEC, GRID, 2.5, 1), "n_paths must be an integer"),
    ((SPEC, GRID, True, 1), "n_paths must be an integer"),
    ((SPEC, GRID, 0, 1), "n_paths must be an integer >= 1"),
    ((SPEC, GRID, 3, -1), "seed"),
    ((SPEC, GRID, 3, True), "seed"),
    ((SPEC, GRID, 3, 1, "gibbs"), "unknown sampling scheme"),
    ((SPEC, GRID, 3, 1, "circulant"), "circulant scheme applies"),
], ids=["non_integer_n_paths", "bool_n_paths", "no_paths", "bad_seed", "bool_seed", "unknown_scheme",
        "unfitting_scheme"])
def test_sample_chunks_checks_when_called(args, match):
    # sample_spec, the one library sampler, refuses every fault before any block is drawn; the
    # test keeps the name of the removed block iterator whose checks it first held
    with pytest.raises(ParameterError, match=match):
        sample_spec(*args)


def test_cli_csv_streams_rows(tmp_path):
    # --csv holds about one row's text at a time, and writes the bytes of ensemble_csv_lines
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
    text = "".join(ensemble_csv_lines(sample_spec(ProcessSpec.canonical(0.5, -1.0), TimeGrid(np.arange(d) / (d - 1)),
                                                  16, 3)))
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


def test_selfsim_refuses_the_largest_seed():
    # its second ensemble draws with seed + 1, so the message names the seed it was given
    with pytest.raises(ParameterError, match=r"got 18446744073709551615$"):
        selfsim_check(SPEC, 2.0, GRID, 3, 2**64 - 1)


def _ensemble_with(**metadata):
    return PathEnsemble(SPEC, GRID, np.zeros((2, len(GRID))), **{"seed": 1, "scheme": "timechange", **metadata})


@pytest.mark.parametrize("call, message", [
    (lambda: selfsim_check(SPEC, 0.0, GRID, 3, 1), "scale factor must be positive"),
    (lambda: selfsim_check(SPEC, math.nan, GRID, 3, 1), "scale factor must be positive"),
    (lambda: sample_spec(ProcessSpec.fbm(0.3), GRID, 3, 1, scheme="whitenoise"),
     "whitenoise scheme applies to the white-noise family"),
    (lambda: PathEnsemble(SPEC, GRID, np.zeros((3, len(GRID) + 1)), 1, "timechange"),
     "values must be n_paths x len(grid)"),
    (lambda: PathEnsemble(SPEC, GRID, np.zeros(len(GRID)), 1, "timechange"), "values must be n_paths x len(grid)"),
    # an ensemble refuses its metadata when built, so save_ensemble writes no sidecar that load_ensemble refuses
    (lambda: _ensemble_with(seed=2**64),
     "seed must be an integer in [0, 18446744073709551616), got 18446744073709551616"),
    (lambda: _ensemble_with(jitter=math.nan), "jitter must be a finite number >= 0, got nan"),
    (lambda: _ensemble_with(jitter=math.inf), "jitter must be a finite number >= 0, got inf"),
    (lambda: _ensemble_with(jitter=-1e-9), "jitter must be a finite number >= 0, got -1e-09"),
    (lambda: _ensemble_with(jitter=True), "jitter must be a finite number >= 0, got True"),
    (lambda: _ensemble_with(jitter="0.1"), "jitter must be a finite number >= 0, got '0.1'"),
    (lambda: _ensemble_with(scheme=None), "scheme must be a string, got None"),
], ids=["selfsim_a_zero", "selfsim_a_nan", "whitenoise_on_fbm", "ensemble_columns", "ensemble_1d", "ensemble_seed_2_64",
        "ensemble_jitter_nan", "ensemble_jitter_inf", "ensemble_jitter_negative", "ensemble_jitter_bool",
        "ensemble_jitter_string", "ensemble_scheme_none"])
def test_refusals_name_the_rule(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        call()


def test_cholesky_refuses_an_indefinite_covariance():
    # no jitter up to 1e-6 times the mean diagonal makes [[1, 2], [2, 1]] (eigenvalues -1, 3) factor
    with pytest.raises(NumericalError, match=r"^covariance factorization failed after maximal jitter 1e-06; "
                                             r"min eigenvalue -1\.000e\+00, max diagonal 1\.000e\+00, d=2$"):
        ssgm.samplers._cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_numpy_integer_seed_round_trips(tmp_path):
    # the ensemble records a Python int, so the sidecar is written and loads
    ens = sample_spec(ProcessSpec.fbm(0.3), TimeGrid(np.array([0.5, 1.0])), 2, np.int64(1))
    assert type(ens.seed) is int
    save_ensemble(ens, tmp_path / "e.bin")
    loaded = load_ensemble(tmp_path / "e.bin")
    assert loaded.seed == 1 and loaded.values.tobytes() == ens.values.tobytes()


def test_directly_built_ensemble_records_python_numbers(tmp_path):
    # PathEnsemble converts its metadata, so an ensemble not drawn by sample_spec saves both files and loads
    values = np.zeros((2, 2))
    ens = PathEnsemble(ProcessSpec.fbm(0.3), TimeGrid(np.array([0.5, 1.0])), values, np.int64(1), "cholesky",
                       np.int64(64), np.float64(0.0))
    assert (type(ens.seed), type(ens.inner_steps), type(ens.jitter)) == (int, int, float)
    save_ensemble(ens, tmp_path / "e.bin")
    loaded = load_ensemble(tmp_path / "e.bin")
    assert (loaded.seed, loaded.inner_steps, loaded.values.tobytes()) == (1, 64, values.tobytes())
    with pytest.raises(ParameterError):
        PathEnsemble(ens.spec, ens.grid, values, 1.0, "cholesky")


def test_timechange_refuses_a_time_change_float64_cannot_hold():
    # c = -1e308 puts t^(2H+c) at inf and tau at 0 or inf: refused naming the first time, not NaN paths
    with pytest.raises(NumericalError, match=r"^time change at t = 0\.5 is not finite and nondecreasing"):
        sample_spec(ProcessSpec.canonical(0.5, -1e308), TimeGrid(np.array([0.5, 2.0])), 3, 1)


@pytest.mark.parametrize("inner_steps", [100.0, 100.5, 63, -5, True, "128"])
@pytest.mark.parametrize("spec", [ProcessSpec.fbm(0.3), ProcessSpec.volterra_g(0.3, 0.5, GFunction.const(1.0))],
                         ids=["fbm", "midpoint"])
def test_bad_inner_steps_rejected_for_every_scheme(spec, inner_steps):
    # checked once for every scheme, also those that do not read it: a float 100.0 would
    # otherwise sample and save a sidecar that load_ensemble refuses
    with pytest.raises(ParameterError, match="inner_steps must be an integer >= 64"):
        sample_spec(spec, TimeGrid(np.array([0.5, 1.0])), 2, 1, inner_steps=inner_steps)


def test_numpy_integer_inner_steps_recorded_as_int(tmp_path):
    spec = ProcessSpec.volterra_g(0.3, 0.5, GFunction.const(1.0))
    ens = sample_spec(spec, TimeGrid(np.array([0.5, 1.0])), 2, 1, inner_steps=np.int64(64))
    assert type(ens.inner_steps) is int
    save_ensemble(ens, tmp_path / "e.bin")
    assert load_ensemble(tmp_path / "e.bin").inner_steps == 64


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
