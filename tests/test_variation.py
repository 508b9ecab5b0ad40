import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import ssgm.variation
from ssgm import (GFunction, ProcessSpec, TimeGrid, ergodic_average,
                  gaussian_abs_moment, increment_variance, int_limit_residual,
                  pvariation_sum, pvariation_trichotomy, sample_chunks, sample_spec,
                  variation_to_csv)
from ssgm.errors import ParameterError

G1 = GFunction.const(1.0)


# ---------------------------------------------------------------------------
# pvariation_sum
# ---------------------------------------------------------------------------

def test_sum_constant_path():
    assert pvariation_sum(np.ones(17), 2.0) == 0.0


def test_sum_linear_path():
    for n in (4, 8, 64):
        path = np.linspace(0.0, 1.0, n + 1)
        assert pvariation_sum(path, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_sum_grid_validation():
    with pytest.raises(ParameterError):
        pvariation_sum(np.zeros(6), 2.0)  # 5 increments, not a power of two
    with pytest.raises(ParameterError):
        pvariation_sum(np.zeros(9), 0.5)  # p < 1


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_sum_rejects_nonfinite_p(p):
    with pytest.raises(ParameterError, match="p must be finite"):
        pvariation_sum(np.linspace(0.0, 1.0, 9), p)


def test_sum_bm_quadratic_variation():
    # one long Brownian path: S_n ~ 1 within MC fluctuation
    from ssgm import sample_timechange

    n = 2**14
    grid = TimeGrid(np.arange(n + 1, dtype=float) / n)
    ens = sample_timechange(0.5, -1.0, grid, 4, 99)
    sums = [pvariation_sum(row, 2.0) for row in ens.values]
    assert np.mean(sums) == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# trichotomy
# ---------------------------------------------------------------------------

def test_trichotomy_bm_finite_limit():
    rep = pvariation_trichotomy(ProcessSpec.canonical(0.5, -1.0), 2.0,
                                [2**10, 2**11, 2**12, 2**13], 48, 101)
    assert rep.verdict == "FiniteLimit"
    assert abs(rep.slope_estimate) < 0.05
    assert rep.limit_value == pytest.approx(1.0, abs=0.05)
    assert rep.sigmaJ_sq == 1.0


@pytest.mark.parametrize(
    "H,p,expected",
    [
        (0.25, 1.0, "Diverging"),
        (0.25, 2.0, "Diverging"),
        (0.25, 4.0, "FiniteLimit"),
        (0.5, 1.0, "Diverging"),
        (0.5, 2.0, "FiniteLimit"),
        (0.75, 2.0, "VanishingTo0"),
        (0.75, 4.0 / 3.0, "FiniteLimit"),
        (0.75, 1.0, "Diverging"),
    ],
)
def test_trichotomy_fbm_verdicts(H, p, expected):
    rep = pvariation_trichotomy(ProcessSpec.fbm(H), p, [2**7, 2**8, 2**9, 2**10], 64, 103)
    assert rep.verdict == expected, f"H={H} p={p}: slope {rep.slope_estimate:+.3f}"
    # stationary-increment scaling: slope tracks 1 - pH
    assert rep.slope_estimate == pytest.approx(1.0 - p * H, abs=0.05)


def test_trichotomy_canonical_is_locally_diffusive():
    # X_t = t^(2H+c) W(t^(-2H-2c)) is a time-changed Brownian motion, so its
    # quadratic variation scales like n^(1 - p/2) regardless of H; the
    # 1 - pH law needs stationary increments and holds only at H = 1/2
    rep = pvariation_trichotomy(ProcessSpec.canonical(0.75, -1.5), 2.0,
                                [2**9, 2**10, 2**11, 2**12], 64, 300)
    assert rep.verdict == "FiniteLimit"
    assert abs(rep.slope_estimate) < 0.05
    assert rep.sigmaJ_sq is None  # no stationary increment law to report


def test_trichotomy_finite_limit_value_is_moment():
    # at p = 1/H the limit is E|J|^p with J standard normal (fbm increments)
    H = 0.75
    p = 1.0 / H
    rep = pvariation_trichotomy(ProcessSpec.fbm(H), p, [2**7, 2**8, 2**9, 2**10], 64, 104)
    assert rep.verdict == "FiniteLimit"
    assert rep.limit_value == pytest.approx(gaussian_abs_moment(1.0, p), rel=0.1)


def test_trichotomy_validation():
    with pytest.raises(ParameterError):
        pvariation_trichotomy(ProcessSpec.fbm(0.5), 2.0, [100, 200], 8, 1)
    with pytest.raises(ParameterError):
        pvariation_trichotomy(ProcessSpec.fbm(0.5), 2.0, [256], 8, 1)


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_trichotomy_rejects_nonfinite_p_before_sampling(monkeypatch, p):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking p")

    monkeypatch.setattr(ssgm.variation, "sample_chunks", no_sampling)
    with pytest.raises(ParameterError, match="p must be finite"):
        pvariation_trichotomy(ProcessSpec.fbm(0.75), p, [2**7, 2**8], 4, 1)


@pytest.mark.parametrize("spec,scheme", [
    (ProcessSpec.canonical(0.5, -1.0), "timechange"),
    (ProcessSpec.fbm(0.3), "circulant"),
    (ProcessSpec.volterra_g(0.25, 1.0, G1), "poly"),
], ids=lambda x: getattr(x, "label", lambda: x)())
def test_trichotomy_levels_are_subgrids_of_one_ensemble(spec, scheme):
    # level n is the sub-grid k/n of the paths drawn on the finest grid with the trichotomy's own seed
    n_list, n_paths, seed, p = [2**4, 2**5, 2**7], 6, 41, 2.0
    n_max = n_list[-1]
    ens = sample_spec(spec, TimeGrid(np.arange(n_max + 1, dtype=float) / n_max), n_paths, seed)
    assert ens.scheme == scheme
    rep = pvariation_trichotomy(spec, p, n_list, n_paths, seed)
    for j, n in enumerate(n_list):
        sums = [pvariation_sum(row[::n_max // n], p) for row in ens.values]
        assert rep.mean_sums[j] == np.mean(sums)
        assert rep.se_sums[j] == np.std(sums, ddof=1) / np.sqrt(n_paths)


def test_trichotomy_samples_once(monkeypatch):
    calls = []

    def counting(spec, grid, *args, **kwargs):
        calls.append(len(grid))
        return sample_chunks(spec, grid, *args, **kwargs)

    monkeypatch.setattr(ssgm.variation, "sample_chunks", counting)
    pvariation_trichotomy(ProcessSpec.fbm(0.75), 2.0, [2**6, 2**7, 2**8, 2**9], 4, 5)
    assert calls == [2**9 + 1]


@pytest.mark.parametrize("shape, stride", [((3, 2**17 + 1), 1), ((200, 1001), 1), ((50, 17), 1),
                                           ((40, 4097), 4)],
                         ids=["row_per_chunk", "partial_last_chunk", "one_chunk", "strided"])
def test_chunked_sums_match_unchunked(shape, stride):
    paths = np.cumsum(np.random.default_rng(shape[1]).standard_normal(shape), axis=1)
    v = paths[:, ::stride]
    for p in (1.0, 4.0 / 3.0, 2.0, 2.5):
        expected = np.sum(np.abs(np.diff(v, axis=1)) ** p, axis=1)
        assert ssgm.variation._pvariation_sums(v, p).tobytes() == expected.tobytes(), p


def test_trichotomy_memory_bounded_by_ensemble():
    # the Brownian trichotomy of criterion 7 reduces its 64 x 65537 ensemble as it is drawn and peaks
    # far below it; this loose bound stays, and test_trichotomy_memory_fixed_in_path_count is the tight one
    tracemalloc.start()
    try:
        pvariation_trichotomy(ProcessSpec.canonical(0.5, -1.0), 2.0, [2**13, 2**14, 2**15, 2**16], 64, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 64 * 65537 * 8, peak / (64 * 65537 * 8)


def test_trichotomy_memory_fixed_in_path_count():
    # reduced as drawn: 64 and 1024 Brownian paths on 2^14 + 1 points (8 and 128 MiB ensembles) peak
    # within one fixed amount, about three chunks of 2^18 normals, plus the 4 per-level sums of a path
    fixed = 3 * 2**18 * 8
    for n_paths in (64, 1024):
        tracemalloc.start()
        try:
            pvariation_trichotomy(ProcessSpec.canonical(0.5, -1.0), 2.0, [2**11, 2**12, 2**13, 2**14], n_paths, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fixed + 4 * 8 * n_paths, (n_paths, peak / fixed)


def _trichotomy_of_ensemble(values, p, n_list):
    # the reference: every level's sums and statistics from the whole ensemble held at once
    n_max, n_paths = n_list[-1], len(values)
    sums = [np.sum(np.abs(np.diff(values[:, ::n_max // n], axis=1)) ** p, axis=1) for n in n_list]
    return (np.array([float(np.mean(s)) for s in sums]),
            np.array([float(np.std(s, ddof=1) / np.sqrt(n_paths)) for s in sums]))


@pytest.mark.parametrize("spec, scheme", [
    (ProcessSpec.canonical(0.5, -1.0), "timechange"),
    (ProcessSpec.white_noise(0.3), "whitenoise"),
    (ProcessSpec.fbm(0.3), "circulant"),
    (ProcessSpec.sub_fbm(0.3), "cholesky"),
    (ProcessSpec.volterra_g(0.3, 0.5, G1), "volterra"),
    (ProcessSpec.volterra_g(0.25, 1.0, G1), "poly"),
], ids=lambda x: getattr(x, "label", lambda: x)())
def test_streamed_trichotomy_matches_ensemble(spec, scheme):
    # 1030 paths: a full first block in one or more chunks, then a partial chunk of 6 rows
    n_list, n_paths, seed = [2**6, 2**7, 2**8], 1030, 23
    grid = TimeGrid(np.arange(2**8 + 1, dtype=float) / 2**8)
    ens = sample_spec(spec, grid, n_paths, seed)
    assert ens.scheme == scheme
    for p in (1.0, 2.0, 2.5):
        rep = pvariation_trichotomy(spec, p, n_list, n_paths, seed)
        means, ses = _trichotomy_of_ensemble(ens.values, p, n_list)
        assert rep.mean_sums.tobytes() == means.tobytes(), p
        assert rep.se_sums.tobytes() == ses.tobytes(), p


@pytest.mark.parametrize("spec", [ProcessSpec.volterra_g(0.25, 1.0, G1), ProcessSpec.volterra_g(0.3, 0.5, G1)],
                         ids=["poly", "volterra"])
@pytest.mark.parametrize("f, p", [("square", 1.0), ("abs-pow", 1.0), ("abs-pow", 2.5)])
def test_streamed_ergodic_matches_ensemble(spec, f, p):
    n, n_paths, seed = 40, 1030, 29
    z = sample_spec(spec, TimeGrid(np.arange(n + 1, dtype=float)), n_paths, seed, inner_steps=64).values
    incr = np.diff(z, axis=1)
    vals = incr**2 if f == "square" else np.abs(incr) ** p
    res = ergodic_average(spec, f, n, n_paths, seed, p=p)
    assert res.average == float(np.mean(np.sum(vals, axis=1) / n))


def test_variation_csv():
    rep = pvariation_trichotomy(ProcessSpec.canonical(0.5, -1.0), 2.0, [256, 512], 8, 7)
    text = variation_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "n,mean_S_n,se_S_n"
    assert lines[1].startswith("256,")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# ergodic average
# ---------------------------------------------------------------------------

def _ito_increment_var(t, H, I0=1.0 / 3.0):
    # exact E[(Z_{t+1}-Z_t)^2] for F = 1-s via the three-term expansion
    d = 1.0 / (t + 1.0)
    Id = I0 + d / 6.0
    return (t + 1.0) ** (2 * H) * I0 + t ** (2 * H) * I0 \
        - 2.0 * (t + 1.0) ** (H - 0.5) * t ** (H + 0.5) * Id


def test_ergodic_average_tracks_true_moments():
    # the empirical mean of squared increments matches the exact covariance
    # arithmetic of the sampled process (which decays, see module docstring)
    spec = ProcessSpec.volterra_g(0.25, 1.0, G1)
    res = ergodic_average(spec, "square", 300, 60, 111)
    expected = (1.0 / 3.0 + sum(_ito_increment_var(float(k), 0.25) for k in range(1, 300))) / 300
    assert res.average == pytest.approx(expected, abs=6e-4)
    assert res.target == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert res.sigmaJ_sq == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_ergodic_abs_pow_target():
    spec = ProcessSpec.volterra_g(0.25, 1.0, G1)
    res = ergodic_average(spec, "abs-pow", 50, 5, 112, p=1.0)
    assert res.target == pytest.approx(math.sqrt(2.0 / (3.0 * math.pi)), rel=1e-12)


def test_ergodic_bm_unit_variance():
    # beta=0, g=1, H=1/2 is Brownian motion: unit-variance increments
    spec = ProcessSpec.volterra_g(0.5, 0.0, G1)
    res = ergodic_average(spec, "square", 400, 30, 113)
    assert res.average == pytest.approx(1.0, abs=0.05)
    assert not res.proven_regime  # beta = 0 sits outside the proved range


def test_ergodic_validation():
    with pytest.raises(ParameterError):
        ergodic_average(ProcessSpec.fbm(0.5), "square", 100, 5, 1)
    with pytest.raises(ParameterError):
        ergodic_average(ProcessSpec.volterra_g(0.25, 1.0, G1), "cube", 100, 5, 1)


def test_ergodic_refuses_a_grid_no_array_holds():
    # refused naming the size before numpy is asked for the integer grid
    with pytest.raises(ParameterError, match=rf"^the integer grid 0\.\.{2**70} needs {2**70 + 1} float64 values"):
        ergodic_average(ProcessSpec.volterra_g(0.25, 1.0, G1), "square", 2**70, 2, 1)


def test_gaussian_abs_moment_identities():
    assert gaussian_abs_moment(4.0, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert gaussian_abs_moment(1.0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert gaussian_abs_moment(1.0 / 3.0, 1.0) == pytest.approx(math.sqrt(2.0 / (3.0 * math.pi)), rel=1e-14)


# ---------------------------------------------------------------------------
# increment variance (quadrature)
# ---------------------------------------------------------------------------

def _displayed_oracle(t, H, I0=1.0 / 3.0):
    # closed form of the displayed expression for F = 1-s
    d = 1.0 / (t + 1.0)
    Id = I0 + d / 6.0
    root = math.sqrt(t / (1.0 + t))
    return I0 + 2.0 * (t + 1.0) ** H * t**H * (I0 - root * Id)


def test_increment_variance_closed_form_oracle():
    for t in (10.0, 100.0, 1e3, 1e4):
        iv = increment_variance(0.25, 1.0, G1, t)
        assert iv.value == pytest.approx(_displayed_oracle(t, 0.25), abs=1e-10)
        assert iv.limit_value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert iv.ito_exact == pytest.approx(_ito_increment_var(t, 0.25), abs=1e-10)


def test_increment_variance_monotone_approach():
    gaps = [abs(increment_variance(0.25, 1.0, G1, t).value - 1.0 / 3.0)
            for t in (10.0, 1e2, 1e3, 1e4)]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[3] <= 0.005 * (1.0 / 3.0)


def test_increment_variance_brownian_ito_is_one():
    # H=1/2, beta=0: the exact Ito moment is 1 for every t (BM increments)
    for t in (2.0, 10.0, 1e3):
        iv = increment_variance(0.5, 0.0, G1, t)
        assert iv.ito_exact == pytest.approx(1.0, abs=1e-10)


def test_increment_variance_log_weight_limit():
    # limit = integral (1-s) log(1/(1-s))^2 ds = 1/4
    iv = increment_variance(0.25, 0.5, GFunction.log_pow(1), 1e4)
    assert iv.limit_value == pytest.approx(0.25, abs=1e-9)
    assert iv.value == pytest.approx(0.25, rel=0.005)


def _log_weight_oracle(beta, k, shrink, root):
    """(integral F^2, integral F(s) [F(s) - root F(shrink s)] ds) by QUADPACK for
    F(1 - y) = y^beta (log 1/y)^k, in v = log 1/(1 - s) so the log singularity
    at s = 1 sits at v = inf."""
    def F_gap(y):
        return y**beta * (-math.log(y)) ** k

    def on_v(f):
        return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    int_f2 = on_v(lambda v: math.exp(-(2 * beta + 1) * v) * v ** (2 * k))
    bracket = on_v(lambda v: math.exp(-(beta + 1) * v) * v**k * (
        math.exp(-beta * v) * v**k - root * F_gap(1.0 - shrink * (1.0 - math.exp(-v)))))
    return int_f2, bracket


@pytest.mark.parametrize("beta, k", [(0.0, 1), (0.5, 2)])
@pytest.mark.parametrize("t", [3.0, 100.0])
def test_log_weight_limits_match_quadrature_oracle(beta, k, t):
    # beta = 0 used to round g(1 - dist) to g(1) = inf and exit with a NumericalError
    g, H = GFunction.log_pow(k), 0.25
    int_f2, bracket = _log_weight_oracle(beta, k, 1.0 - 1.0 / (t + 1.0), math.sqrt(t / (1.0 + t)))
    iv = increment_variance(H, beta, g, t)
    assert iv.limit_value == pytest.approx(int_f2, rel=1e-12)
    assert iv.value == pytest.approx(int_f2 + 2.0 * (t + 1.0) ** H * t**H * bracket, rel=1e-8)
    int_f2, bracket = _log_weight_oracle(beta, k, 1.0 - 1.0 / t, 1.0)
    assert int_limit_residual(beta, g, t) == pytest.approx(t * bracket + 0.5 * int_f2, rel=1e-8)


# ---------------------------------------------------------------------------
# integral limit residual
# ---------------------------------------------------------------------------

def test_int_limit_beta1_exactly_zero():
    # F = 1-s: t*integral F (F - F((1-1/t)s)) ds = -1/6 for every t
    for t in (10.0, 1e2, 1e4):
        assert abs(int_limit_residual(1.0, G1, t)) <= 1e-9
    assert abs(int_limit_residual(1.0, G1, 1e4)) <= 0.01 * (1.0 / 6.0)


def test_int_limit_log_weight_decreasing():
    vals = [abs(int_limit_residual(0.5, GFunction.log_pow(1), t)) for t in (1e2, 1e3, 1e4)]
    assert vals[0] > vals[1] > vals[2]


def test_int_limit_beta_zero_degenerate():
    # the bracket vanishes identically, leaving (1/2) int F^2 = 1/2 exactly
    assert int_limit_residual(0.0, G1, 100.0) == pytest.approx(0.5, abs=1e-12)


def test_int_limit_validation():
    with pytest.raises(ParameterError):
        int_limit_residual(1.0, G1, 1.0)  # t < 2
