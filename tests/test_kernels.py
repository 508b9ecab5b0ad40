import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

import ssgm.kernels
from ssgm import (Family, GFunction, ProcessSpec, TimeGrid, build_gram, eval_l,
                  format_spec_string, isometry_residual, make_kernel,
                  parse_spec_string, standard_grid, volterra_g_variance,
                  volterra_kernel)
from ssgm.errors import NumericalError, ParameterError
from ssgm.quadrature import integrate_power_upper

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# canonical kernel
# ---------------------------------------------------------------------------

def test_canonical_brownian():
    # H=1/2, c=-1 reduces to s ^ t
    assert make_kernel(ProcessSpec.canonical(0.5, -1.0))(2.0, 3.0) == pytest.approx(2.0, abs=1e-15)


def test_canonical_axis_zero():
    assert make_kernel(ProcessSpec.canonical(0.8, -2.0))(0.0, 5.0) == 0.0


def test_canonical_direct_substitution():
    assert make_kernel(ProcessSpec.canonical(1.0, -2.0))(2.0, 3.0) == pytest.approx(4.0, abs=1e-14)


def test_canonical_white_noise_branch():
    k = make_kernel(ProcessSpec.canonical(0.6, NEG_INF))
    assert k(2.0, 2.0) == pytest.approx(2.0**1.2, rel=1e-15)
    assert k(1.0, 2.0) == 0.0


def test_canonical_domain_errors():
    with pytest.raises(ParameterError):
        make_kernel(ProcessSpec.canonical(0.5, -0.2))(1.0, 2.0)  # c > -H
    with pytest.raises(ParameterError):
        make_kernel(ProcessSpec.canonical(-0.5, -1.0))(1.0, 2.0)
    with pytest.raises(ParameterError):
        make_kernel(ProcessSpec.canonical(0.5, -1.0))(-1.0, 2.0)


# ---------------------------------------------------------------------------
# fbm / sfbm / bfbm
# ---------------------------------------------------------------------------

def test_fbm_brownian_case():
    assert make_kernel(ProcessSpec.fbm(0.5))(2.0, 3.0) == pytest.approx(2.0, abs=1e-15)


def test_sfbm_r11():
    for H in (0.25, 0.5, 0.75):
        k = make_kernel(ProcessSpec.sub_fbm(H))
        assert k(1.0, 1.0) == pytest.approx(2.0 - 2.0 ** (2 * H - 1), rel=1e-15)


def test_bfbm_r11():
    for ht, kt in [(0.25, 0.5), (0.5, 1.0), (0.75, 0.3)]:
        assert make_kernel(ProcessSpec.bi_fbm(ht, kt))(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_bfbm_reduces_to_brownian():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s, t = rng.uniform(0.1, 5.0, size=2)
        assert make_kernel(ProcessSpec.bi_fbm(0.5, 1.0))(s, t) == pytest.approx(min(s, t), rel=1e-14)


def test_parameter_domains():
    with pytest.raises(ParameterError):
        make_kernel(ProcessSpec.fbm(1.2))(1.0, 2.0)
    with pytest.raises(ParameterError):
        make_kernel(ProcessSpec.bi_fbm(0.5, 1.5))(1.0, 2.0)
    with pytest.raises(ParameterError):
        ProcessSpec.volterra_g(0.25, -0.6, GFunction.const(1.0))


# ---------------------------------------------------------------------------
# Riemann-Liouville
# ---------------------------------------------------------------------------

def test_rl_brownian_case():
    assert make_kernel(ProcessSpec.riemann_liouville(0.5))(2.0, 3.0) == pytest.approx(2.0, abs=1e-10)


def test_rl_zero_time():
    assert make_kernel(ProcessSpec.riemann_liouville(0.25))(0.0, 3.0) == 0.0


def test_rl_r11_closed_form():
    for H in (0.25, 0.4, 0.75):
        expected = 1.0 / (2.0 * H * gamma(H + 0.5) ** 2)
        k = make_kernel(ProcessSpec.riemann_liouville(H))
        assert k(1.0, 1.0) == pytest.approx(expected, rel=1e-10)
        assert k.r11 == pytest.approx(expected, rel=1e-15)


def _alg_quad(f, a, b, wvar):
    """integral_a^b f(x) (x - a)^wvar[0] (b - x)^wvar[1] dx by QUADPACK's "alg" weight."""
    val, _ = quad(f, a, b, weight="alg", wvar=wvar, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def _rl_oracle(H, s, t):
    # Gamma(H+1/2)^-2 integral_0^m (M - r)^(H-1/2) (m - r)^(H-1/2) dr
    m, big = min(s, t), max(s, t)
    if s == t:
        val = _alg_quad(lambda r: 1.0, 0.0, m, (0.0, 2 * H - 1.0))
    else:
        val = _alg_quad(lambda r: (big - r) ** (H - 0.5), 0.0, m, (0.0, H - 0.5))
    return val / gamma(H + 0.5) ** 2


def test_rl_closed_form_matches_quadrature_oracle():
    t = standard_grid().times
    # diagonal and off-diagonal pairs; at H = 2.5, R(t[0], t[1]) = 2.83e-8 is
    # so small that an absolute-tolerance quadrature gets it 7e-4 off relatively
    pairs = [(t[0], t[1])] + [(t[i], t[j]) for i in range(0, 20, 3) for j in range(i, 20, 4)]
    for H in (0.1, 0.25, 0.5, 0.75, 1.3, 2.5):
        k = make_kernel(ProcessSpec.riemann_liouville(H))
        for s, u in pairs:
            assert k(s, u) == pytest.approx(_rl_oracle(H, s, u), rel=1e-9)


def test_rl_near_diagonal_matches_mpmath():
    # scipy's 2F1(1/2-H, 1; H+3/2; z) is up to ~100% off (H = 0.01) for 1 - z
    # in [1e-16, 1e-14]; relative gaps 1e-4 down to one ulp above the diagonal
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    tops = [1.0 + 10.0**-k for k in range(4, 16)] + [np.nextafter(1.0, 2.0), 1.0]
    for H in (0.01, 0.1, 0.25, 0.45, 0.75, 1.3):
        h = mp.mpf(H)
        k = make_kernel(ProcessSpec.riemann_liouville(H))
        for top in tops:
            z = mp.mpf(1.0) / mp.mpf(top)
            exact = (mp.mpf(top) ** (h - 0.5) * mp.hyp2f1(0.5 - h, 1, h + 1.5, z)
                     / ((h + 0.5) * mp.gamma(h + 0.5) ** 2))
            assert k(1.0, top) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_rl_direct_form_above_half_matches_mpmath():
    # for H >= 1/2 the direct 2F1(1/2-H, 1; H+3/2; z) runs up to z = 1: pairs with
    # s/t in (1/2, 1) for RL and for constant-g volterra-g at beta = 1/2 (RL at H = 1)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ratios = [0.5001, 0.6, 0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9]
    pairs = [(s, s / r) for s in (0.3, 1.0, 7.0) for r in ratios]
    for H in (0.75, 1.0, 1.25, 2.3):
        k, h = make_kernel(ProcessSpec.riemann_liouville(H)), mp.mpf(H)
        for s, t in pairs:
            S, T = mp.mpf(s), mp.mpf(t)
            exact = (S ** (h + 0.5) * T ** (h - 0.5) * mp.hyp2f1(0.5 - h, 1, h + 1.5, S / T)
                     / ((h + 0.5) * mp.gamma(h + 0.5) ** 2))
            assert k(s, t) == pytest.approx(float(exact), rel=1e-12, abs=0.0), (H, s, t)
    H, beta = 0.25, 0.5
    k = make_kernel(ProcessSpec.volterra_g(H, beta, GFunction.const(1.0)))
    for s, t in pairs:
        S, T = mp.mpf(s), mp.mpf(t)
        exact = (S * T) ** (H - 0.5) * mp.quad(lambda u: ((1 - u / S) * (1 - u / T)) ** beta, [0, S])
        assert k(s, t) == pytest.approx(float(exact), rel=1e-12, abs=0.0), (s, t)


# RL and constant-g volterra-g (RL at H = beta + 1/2) through both 2F1 forms: the
# direct form 2F1(1/2-h, 1; h+3/2; z) for z = m/M <= 1/2, the z -> 1 - z connection
# 2F1(1/2-h, 1; 1-2h; eps), eps = (M-m)/M, for z > 1/2
_RL_SPLIT_SPECS = [ProcessSpec.riemann_liouville(0.1), ProcessSpec.riemann_liouville(0.25),
                   ProcessSpec.riemann_liouville(0.49),
                   ProcessSpec.volterra_g(0.3, -0.25, GFunction.const(1.0))]


def _rl_h(spec):
    return spec.H if spec.family == Family.RIEMANN_LIOUVILLE else spec.beta + 0.5


def _mixed_pairs():
    """s <= t = s(1+u) near the diagonal and far from it (u up to 1e12), z = 1/2 exactly at u = 1."""
    u = np.concatenate([np.geomspace(1e-12, 1e12, 49), [0.0, 0.25, 0.5, 1.0, 2.0]])
    s = np.resize([0.7, 1.0, 3.0], u.size)
    return s, s * (1.0 + u)


@pytest.mark.parametrize("spec", _RL_SPLIT_SPECS, ids=lambda s: s.label())
def test_rl_evaluates_each_2f1_form_only_where_kept(spec, monkeypatch):
    calls = []
    real = ssgm.kernels.hyp2f1

    def recording(a, b, c, z):
        calls.append((c, np.array(z, dtype=float).ravel()))
        return real(a, b, c, z)

    monkeypatch.setattr(ssgm.kernels, "hyp2f1", recording)
    s, t = _mixed_pairs()
    z = s / t
    make_kernel(spec)(s, t)
    h = _rl_h(spec)
    direct = np.concatenate([arg for c, arg in calls if c == h + 1.5])
    reflected = np.concatenate([arg for c, arg in calls if c == 1.0 - 2.0 * h])
    assert direct.size + reflected.size == sum(arg.size for _, arg in calls) == s.size
    assert np.array_equal(np.sort(direct), np.sort(z[z <= 0.5]))
    assert np.array_equal(np.sort(reflected), np.sort(((t - s) / t)[z > 0.5]))


@pytest.mark.parametrize("spec", _RL_SPLIT_SPECS, ids=lambda s: s.label())
def test_rl_vectorised_values_equal_pointwise(spec):
    k = make_kernel(spec)
    s, t = _mixed_pairs()
    vec = k(s, t)
    alone = np.concatenate([k(s[i:i + 1], t[i:i + 1]) for i in range(s.size)])
    assert vec.tobytes() == alone.tobytes()
    near = s / t > 0.5
    for part in (near, ~near):  # all near or all far: the other form's subset is empty
        assert k(s[part], t[part]).tobytes() == vec[part].tobytes()
    assert k(np.empty(0), np.empty(0)).shape == (0,)
    if spec.family == Family.RIEMANN_LIOUVILLE:
        u = t / s - 1.0
        lvec = eval_l(spec, u)
        assert lvec.tobytes() == np.concatenate([eval_l(spec, u[i:i + 1]) for i in range(u.size)]).tobytes()


@pytest.mark.parametrize("spec", _RL_SPLIT_SPECS, ids=lambda s: s.label())
def test_rl_scalar_and_0d_times_give_float(spec):
    k = make_kernel(spec)
    for s, t in ((1.0, 1.5), (1.0, 1.0 + 1e-12), (1.0, 2.0), (2.0, 1.0 + 1e-12), (0.3, 3e11)):
        vec = float(k(np.array([s]), np.array([t]))[0])
        for args in ((s, t), (np.array(s), np.array(t))):
            value = k(*args)
            assert type(value) is float
            assert value == pytest.approx(vec, rel=1e-14, abs=0.0)
    if spec.family == Family.RIEMANN_LIOUVILLE:
        for u in (1e-12, 0.5, 1.0, 1e12):
            assert type(eval_l(spec, u)) is float
            assert eval_l(spec, np.array(u)) == pytest.approx(eval_l(spec, np.array([u]))[0], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# volterra-g
# ---------------------------------------------------------------------------

def _volterra_const_oracle(H, beta, a, s, t):
    # a^2 (st)^(H-1/2) integral_0^m (1-u/s)^beta (1-u/t)^beta du, (m-u)^beta as the "alg" weight
    m, big = min(s, t), max(s, t)
    if s == t:
        val = _alg_quad(lambda u: 1.0, 0.0, m, (0.0, 2 * beta)) / m ** (2 * beta)
    else:
        val = _alg_quad(lambda u: (1.0 - u / big) ** beta, 0.0, m, (0.0, beta)) / m**beta
    return a * a * (s * t) ** (H - 0.5) * val


@pytest.mark.parametrize("H, beta, a", [(0.25, 1.0, 1.0), (0.3, 0.5, 2.0), (0.75, -0.25, 0.7),
                                        (0.1, 2.7, 1.0), (1.3, -0.45, 1.0), (0.5, 0.0, 1.0)])
def test_volterra_g_const_matches_quadrature_oracle(H, beta, a):
    grid = standard_grid()
    G = build_gram(make_kernel(ProcessSpec.volterra_g(H, beta, GFunction.const(a))), grid).entries
    t = grid.times
    for i in range(len(t)):
        for j in range(i, len(t)):
            assert G[i, j] == pytest.approx(_volterra_const_oracle(H, beta, a, t[i], t[j]), rel=1e-12)


def _exp_quad(f):
    """integral_0^inf f(v) dv; with y = e^-v this is where the log-pow oracles
    put integral_0^1 ... dy, moving the (log 1/y)^k endpoint singularity to infinity."""
    return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]


@pytest.mark.parametrize("beta, g", [(1.0, GFunction.const(1.0)), (-0.25, GFunction.const(0.7)),
                                     (2.7, GFunction.const(2.0)), (0.5, GFunction.log_pow(1)),
                                     (0.0, GFunction.log_pow(1)), (-0.25, GFunction.log_pow(3)),
                                     (2.7, GFunction.log_pow(2))])
def test_volterra_g_variance_matches_quadrature_oracle(beta, g):
    # integral_0^1 F^2 with F(1 - y) = y^beta g(1 - y); g(1 - y) = (log 1/y)^k for log-pow
    if g.kind == "const":
        oracle = g.a**2 * _alg_quad(lambda y: 1.0, 0.0, 1.0, (2 * beta, 0.0))
    else:
        oracle = _exp_quad(lambda v: math.exp(-(2 * beta + 1) * v) * v ** (2 * g.k))
    assert volterra_g_variance(ProcessSpec.volterra_g(0.25, beta, g)) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("g", [GFunction.log_pow(86), GFunction.const(1e200)], ids=["log-pow:86", "const:1e200"])
def test_volterra_g_variance_refuses_unrepresentable(g):
    # 172! and (1e200)^2 do not fit a float64: refused naming the spec, not an OverflowError
    spec = ProcessSpec.volterra_g(0.25, 1.0, g)
    with pytest.raises(NumericalError, match=rf"^int_0\^1 F\^2 of {re.escape(spec.label())} is not representable"):
        volterra_g_variance(spec)


@pytest.mark.parametrize("beta, k", [(0.0, 1), (-0.25, 3), (1.0, 1)])
def test_volterra_g_log_pow_pair_matches_quadrature_oracle(beta, k):
    # R(1, 2) = 2^(H-1/2) integral_0^1 F(u) F(u/2) du; with u = 1 - y the second
    # gap is 1 - u/2 = (1 + y)/2.  beta <= 0 used to round g(1 - dist) to g(1) = inf
    def F(y):
        return y**beta * (-math.log(y)) ** k

    val = _exp_quad(lambda v: math.exp(-(beta + 1) * v) * v**k * F(0.5 * (1.0 + math.exp(-v))))
    kernel = make_kernel(ProcessSpec.volterra_g(0.25, beta, GFunction.log_pow(k)))
    assert kernel(1.0, 2.0) == pytest.approx(2.0**-0.25 * val, rel=1e-8)
    assert kernel(2.0, 2.0) == pytest.approx(2.0**0.5 * kernel.r11, rel=1e-15)


def _log_pow_f2(beta, k, m, big):
    """The pair integrand F(u/m) F(u/M) of a log-pow volterra-g entry, from the gap dist = m - u."""
    F = ProcessSpec.volterra_g(0.25, beta, GFunction.log_pow(k)).weight_at_gap
    return lambda u, dist, _: F(dist / m) * F((big - m + dist) / big)


def _log_pow_pair_alone(H, beta, k, s, t):
    """One off-diagonal log-pow pair as its own scalar quadrature, (R(s, t), evaluations)."""
    m, big = min(s, t), max(s, t)
    res = integrate_power_upper(_log_pow_f2(beta, k, m, big), 0.0, m, beta)
    return (s * t) ** (H - 0.5) * res.value, res.evals


@pytest.mark.parametrize("beta, k", [(1.0, 1), (0.5, 2), (0.0, 1), (-0.25, 3)])
def test_volterra_g_log_pow_batch_matches_pairs_alone(beta, k):
    # the Gram's one batched pass gives every pair what its own quadrature gives,
    # with the same number of integrand evaluations
    H = 0.25
    t = standard_grid().times
    G = build_gram(make_kernel(ProcessSpec.volterra_g(H, beta, GFunction.log_pow(k))), standard_grid()).entries
    iu, ju = np.triu_indices(t.size, 1)
    alone = [_log_pow_pair_alone(H, beta, k, t[i], t[j]) for i, j in zip(iu, ju)]
    np.testing.assert_allclose(G[iu, ju], [v for v, _ in alone], rtol=1e-14, atol=0.0)

    m, big = t[iu], t[ju]
    batch = integrate_power_upper(
        lambda u, dist, i: _log_pow_f2(beta, k, m[i], big[i])(u, dist, i), 0.0, m, beta)
    assert list(batch.evals) == [n for _, n in alone]


def test_volterra_g_log_pow_entries_across_block_boundary():
    # k/64 has 2016 off-diagonal pairs, refined in blocks of 1024: the entries on both
    # sides of the boundary, and the first and last, are each pair's own scalar evaluation
    kernel = make_kernel(ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1)))
    t = np.arange(1, 65) / 64.0
    G = build_gram(kernel, TimeGrid(t)).entries
    iu, ju = np.triu_indices(t.size, 1)
    for n in (0, 1021, 1022, 1023, 1024, 1025, 1026, iu.size - 1):
        i, j = iu[n], ju[n]
        assert G[i, j].tobytes() == np.float64(kernel(float(t[i]), float(t[j]))).tobytes(), n


def test_volterra_g_log_pow_near_diagonal_pairs_meet_tol():
    # the 5334 pairs s < t of k/32, k = 1..256, with t/s < 1.2, where F(u/t) is nearly
    # singular just past u = s: every entry within 10 tol of QUADPACK.  With y = s - u = s x,
    # F(y/s) = -x log x is quad's algebraic-log weight, so the oracle integrates F((t-s+y)/t)
    H = 0.25
    t = np.arange(1, 257) / 32.0
    iu, ju = np.triu_indices(t.size, 1)
    near = t[ju] / t[iu] < 1.2
    m, big = t[iu][near], t[ju][near]

    def F(z):
        return z * -math.log(z)

    oracle = [-(a * b) ** (H - 0.5) * a * quad(lambda x: F((b - a + a * x) / b), 0.0, 1.0, weight="alg-loga",
                                               wvar=(1.0, 0.0), epsabs=1e-15, epsrel=1e-14, limit=500)[0]
              for a, b in zip(m, big)]
    spec = ProcessSpec.volterra_g(H, 1.0, GFunction.log_pow(1))
    assert (6.25, 7.28125) in zip(m, big)
    for tol in (1e-6, 1e-8):
        np.testing.assert_array_less(np.abs(make_kernel(spec, tol=tol)(m, big) - oracle), 10.0 * tol)


def test_volterra_g_log_pow_gram_matches_quadrature_oracle():
    # beta = 0.5, log-pow:2 on the standard grid at the default tol: every entry, the
    # small ones near t = 0.05 included, within 1e-10 relative of QUADPACK
    H, beta, k = 0.25, 0.5, 2
    t = standard_grid().times
    G = build_gram(make_kernel(ProcessSpec.volterra_g(H, beta, GFunction.log_pow(k))), standard_grid()).entries

    def F(z):
        return z**beta * (-math.log(z)) ** k if z > 0.0 else 0.0

    for i, j in zip(*np.triu_indices(t.size)):
        m, big = t[i], t[j]
        # y = m - u = m e^-v puts F(y/m) = e^(-beta v) v^k on [0, inf)
        val = m * _exp_quad(lambda v: math.exp(-(beta + 1.0) * v) * v**k * F((big - m + m * math.exp(-v)) / big))
        assert G[i, j] == pytest.approx((m * big) ** (H - 0.5) * val, rel=1e-10, abs=0.0), (i, j)


def test_volterra_g_log_pow_gram_memory_bounded():
    # the 8128 pairs of k/128 are one batch whose integrand calls hold at most _POINTS
    # (integral, node) pairs each, so the peak stays far below one call over every pair
    kernel = make_kernel(ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1)))
    grid = TimeGrid(np.arange(1, 129) / 128.0)
    tracemalloc.start()
    try:
        build_gram(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, peak / 2**20


def test_volterra_g_log_pow_gram_peak_pinned():
    # the 32,640 pairs of k/32, k = 1..256: about 7.2 MiB at a 2^14-pair bound per integrand
    # call, where 1024-integral blocks of 2^20-pair calls peaked at 10.9 MiB
    kernel = make_kernel(parse_spec_string("volterra-g:H=0.25,beta=1,g=log-pow:1"))
    grid = TimeGrid(np.arange(1, 257) / 32.0)
    tracemalloc.start()
    try:
        build_gram(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20, peak / 2**20


def test_volterra_g_log_pow_axes_and_diagonal():
    # a leading 0 and a repeated time: exact zeros on the axes, s^(2H) int F^2 on the diagonal
    spec = ProcessSpec.volterra_g(0.3, 0.5, GFunction.log_pow(2))
    kernel = make_kernel(spec)
    times = np.array([0.0, 0.5, 1.0, 1.0, 2.0])
    s, t = np.meshgrid(times, times, indexing="ij")
    R = kernel(s, t)
    assert np.all(R[(s == 0) | (t == 0)] == 0.0)
    diag = (s == t) & (s > 0)
    np.testing.assert_array_equal(R[diag], volterra_g_variance(spec) * s[diag] ** (2 * spec.H))
    assert R[2, 3] == R[3, 3] == R[2, 2]
    for i, j in zip(*np.nonzero((s != t) & (s > 0) & (t > 0))):
        value, _ = _log_pow_pair_alone(spec.H, spec.beta, 2, s[i, j], t[i, j])
        assert R[i, j] == pytest.approx(value, rel=1e-14)
    assert kernel(0.0, 1.0) == 0.0 and kernel(1.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# l profile
# ---------------------------------------------------------------------------

def test_l_at_zero_is_one():
    # l(0) = R(1, 1) / R(1, 1) exactly, also where R(1, 1) is not 1.0: bfbm (0.01, 0.05)
    # and sfbm 0.022 read 1 + 1 ulp when the profile is a restated closed form
    specs = ([ProcessSpec.fbm(0.7), ProcessSpec.riemann_liouville(0.1), ProcessSpec.riemann_liouville(0.25),
              ProcessSpec.bi_fbm(0.01, 0.05), ProcessSpec.sub_fbm(0.022)]
             + [ProcessSpec.sub_fbm(H) for H in np.arange(1, 1000, 3) / 1000]
             + [ProcessSpec.bi_fbm(h, k) for h in np.arange(1, 100, 7) / 100 for k in np.arange(1, 21) / 20])
    u = np.array([0.0, 0.5, 0.0, 1e-12, 3.0, 0.0])
    for spec in specs:
        assert eval_l(spec, 0.0) == 1.0, spec.label()
        assert np.all(eval_l(spec, u)[u == 0] == 1.0), spec.label()


@pytest.mark.parametrize("H", [0.1, 0.25])
def test_rl_l_matches_mpmath(H):
    # l(u) = 2H/(H+1/2) t^(H-1/2) 2F1(1/2-H, 1; H+3/2; 1/t) at t = 1 + u; the gap u
    # reaches the formula exactly, not as fl(1 + u) - 1 (5.5e-8 off at H = 0.1, u = 1e-12)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    h = mp.mpf(H)
    us = [10.0**-k for k in range(12, 0, -1)] + [1.0, 10.0, 1e3, 1e6]
    got = eval_l(ProcessSpec.riemann_liouville(H), np.array(us))
    for u, value in zip(us, got):
        t = 1 + mp.mpf(u)
        exact = float(2 * h / (h + 0.5) * t ** (h - 0.5) * mp.hyp2f1(0.5 - h, 1, h + 1.5, 1 / t))
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert eval_l(ProcessSpec.riemann_liouville(H), u) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_sfbm_l_is_one_at_half():
    # hand algebra: 1 + (1+u) - ((2+u) + u)/2 = 1 and R(1,1) = 1
    rng = np.random.default_rng(2)
    for u in rng.uniform(0.0, 50.0, size=10):
        assert eval_l(ProcessSpec.sub_fbm(0.5), float(u)) == pytest.approx(1.0, abs=1e-13)


def test_rl_l_consistency_contract():
    # R(s, s(1+u)) = r11 * s^(2H) * l(u), cross-checked against the rl kernel
    spec = ProcessSpec.riemann_liouville(0.25)
    k = make_kernel(spec)
    # quadrature oracle for l(100) = 2H integral_0^1 ((v+u) v)^(H-1/2) dv
    l100 = eval_l(spec, 100.0)
    oracle = 0.5 * _alg_quad(lambda v: (v + 100.0) ** -0.25, 0.0, 1.0, (-0.25, 0.0))
    assert l100 == pytest.approx(oracle, rel=1e-9)
    for s in (0.6, 1.3):
        lhs = k(s, s * 101.0)
        rhs = k.r11 * s**0.5 * l100
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_l_form_consistency_closed_families():
    rng = np.random.default_rng(3)
    specs = [ProcessSpec.fbm(0.75), ProcessSpec.sub_fbm(0.25), ProcessSpec.bi_fbm(0.6, 0.5)]
    for spec in specs:
        k = make_kernel(spec)
        for _ in range(50):
            s = rng.uniform(0.1, 3.0)
            u = rng.uniform(0.0, 10.0)
            lhs = k(s, s * (1.0 + u))
            rhs = k.r11 * s ** (2 * spec.H) * eval_l(spec, u)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("u", [math.nan, math.inf, np.array([0.0, 1.0, math.inf]), np.array([math.nan])],
                         ids=["nan", "inf", "inf_in_array", "nan_in_array"])
@pytest.mark.parametrize("spec", [ProcessSpec.fbm(0.3), ProcessSpec.riemann_liouville(0.25)],
                         ids=lambda s: s.label())
def test_l_rejects_nonfinite_u(spec, u):
    with pytest.raises(ParameterError, match="u must be nonnegative and finite"):
        eval_l(spec, u)


def test_l_unsupported_family():
    with pytest.raises(ParameterError):
        eval_l(ProcessSpec.canonical(0.5, -1.0), 1.0)


# ---------------------------------------------------------------------------
# Volterra kernel and isometry
# ---------------------------------------------------------------------------

def test_volterra_brownian_kernel_is_one():
    for s, t in [(0.5, 2.0), (1.0, 1.0), (1e-8, 3.0)]:
        assert volterra_kernel(0.5, -1.0, s, t) == pytest.approx(1.0, rel=1e-14)


def test_volterra_zero_start():
    # exponent -c-H-1/2 > 0 gives K(0, t) = 0
    assert volterra_kernel(0.3, -1.0, 0.0, 2.0) == 0.0


def test_volterra_coefficient():
    # H=0.3, c=-1: K(t, t) = sqrt(1.4) * t^(H-1/2)
    for t in (0.5, 1.0, 2.0):
        assert volterra_kernel(0.3, -1.0, t, t) == pytest.approx(
            math.sqrt(1.4) * t ** (-0.2), rel=1e-14
        )


def test_volterra_domain_errors():
    with pytest.raises(ParameterError):
        volterra_kernel(0.5, -0.5, 1.0, 2.0)  # c = -H not allowed
    with pytest.raises(ParameterError):
        volterra_kernel(0.5, -1.0, 3.0, 2.0)  # s > t


@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (math.inf, 1.0),
                                  (np.array([0.5, math.nan]), np.array([1.0, 2.0]))],
                         ids=["s_nan", "t_nan", "t_inf", "s_inf", "array_nan"])
def test_volterra_refuses_non_finite_times(s, t):
    # every check is written so that nan fails it
    with pytest.raises(ParameterError):
        volterra_kernel(0.5, -1.0, s, t)


def test_isometry_brownian_exact():
    assert isometry_residual(0.5, -1.0, 2.0, 3.0) <= 1e-12


def test_isometry_closed_form_oracle():
    # the integrand is a pure power; compare the kernel integral with the
    # closed-form antiderivative before asserting residuals
    H, c, s, t = 0.3, -1.0, 1.0, 4.0
    q = -2.0 * (c + H)
    m = min(s, t)
    closed = (-2.0 * (c + H)) * (s * t) ** (c + 2 * H) * m**q / q
    assert closed == pytest.approx(make_kernel(ProcessSpec.canonical(H, c))(s, t), rel=1e-14)
    assert isometry_residual(H, c, s, t) <= 1e-10


def test_isometry_near_degenerate():
    assert isometry_residual(0.7, -0.71, 1.0, 1.0) <= 1e-10


def test_isometry_sweep():
    rng = np.random.default_rng(4)
    for H in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5):
        for c in (-H - 0.01, -2.0 * H, -5.0):
            s, t = rng.uniform(0.2, 4.0, size=2)
            assert isometry_residual(H, c, float(s), float(t)) <= 1e-8


@pytest.mark.parametrize("c", [-0.51, -0.503, -0.502, -0.5001, -0.5 - 1e-12])
def test_isometry_near_minus_h(c):
    # q = -2(c + H) near 0: up to all but a sliver of the integral of u^(q-1) lies where
    # u underflows, which the substituted integrand's w^2 model carries exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isometry_residual(0.5, c, 1.0, 2.0) <= 1e-10


# ---------------------------------------------------------------------------
# shared kernel properties
# ---------------------------------------------------------------------------

ALL_SPECS = [
    ProcessSpec.canonical(0.7, -0.9),
    ProcessSpec.canonical(0.5, -1.0),
    ProcessSpec.canonical(1.2, -5.0),
    ProcessSpec.white_noise(0.6),
    ProcessSpec.fbm(0.25),
    ProcessSpec.fbm(0.75),
    ProcessSpec.sub_fbm(0.25),
    ProcessSpec.bi_fbm(0.5, 0.5),
    ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)),
    ProcessSpec.volterra_g(0.75, -0.25, GFunction.const(0.7)),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_symmetry(spec):
    k = make_kernel(spec)
    rng = np.random.default_rng(5)
    s = rng.uniform(0.05, 5.0, size=1000)
    t = rng.uniform(0.05, 5.0, size=1000)
    a = np.asarray(k(s, t))
    b = np.asarray(k(t, s))
    assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(np.abs(a), 1e-300))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_self_similarity_scaling(spec):
    k = make_kernel(spec)
    rng = np.random.default_rng(6)
    H = spec.H
    for _ in range(200):
        a = rng.uniform(0.1, 10.0)
        s, t = rng.uniform(0.1, 4.0, size=2)
        lhs = k(a * s, a * t)
        rhs = a ** (2 * H) * k(s, t)
        assert abs(lhs - rhs) <= 1e-10 * max(a ** (2 * H) * abs(k(s, t)), 1e-300)


@pytest.mark.parametrize("spec", ALL_SPECS + [ProcessSpec.riemann_liouville(0.25),
                                              ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))],
                         ids=lambda s: s.label())
def test_make_kernel_rejects_bad_tolerance(spec):
    # every family, closed form or not, refuses the tolerance before any evaluation
    for tol in (0.0, -1e-10, float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="quadrature tolerance"):
            make_kernel(spec, tol=tol)


@pytest.mark.parametrize("spec", ALL_SPECS + [ProcessSpec.riemann_liouville(0.25),
                                              ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))],
                         ids=lambda s: s.label())
def test_make_kernel_rejects_bad_budget(spec):
    # the budget is checked where the tolerance is, for every family
    for budget in (0, -5, 2.5, 20.0, float("nan"), float("inf"), True, "20"):
        with pytest.raises(ParameterError, match="quadrature budget"):
            make_kernel(spec, budget=budget)


@pytest.mark.parametrize("spec", ALL_SPECS + [ProcessSpec.riemann_liouville(0.25),
                                              ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))],
                         ids=lambda s: s.label())
def test_every_evaluator_rejects_negative_and_nonfinite_times(spec):
    # one front end: every family refuses the same times, as a scalar or inside an array
    k = make_kernel(spec)
    for bad in (-1.0, math.nan, math.inf):
        for s, t in ((bad, 2.0), (2.0, bad), (np.array([1.0, bad]), np.array([2.0, 2.0]))):
            with pytest.raises(ParameterError, match="times must be nonnegative and finite"):
                k(s, t)


@pytest.mark.parametrize("build", [
    lambda: ProcessSpec.canonical(0.5, math.nan),
    lambda: ProcessSpec.canonical(math.inf, NEG_INF),
    lambda: ProcessSpec.white_noise(math.inf),
    lambda: ProcessSpec.riemann_liouville(math.inf),
    lambda: ProcessSpec.volterra_g(0.25, math.inf, GFunction.const(1.0)),
    lambda: ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(math.inf)),
    lambda: GFunction.const(math.nan),
    lambda: GFunction("log-pow", k=math.inf),
], ids=["canonical_c_nan", "canonical_H_inf", "white_noise_H_inf", "rl_H_inf", "volterra_g_beta_inf",
        "const_g_inf", "const_g_nan", "log_pow_k_inf"])
def test_nonfinite_parameters_rejected(build):
    # only the canonical c may be infinite, and only -inf
    with pytest.raises(ParameterError):
        build()


def test_rl_self_similarity():
    k = make_kernel(ProcessSpec.riemann_liouville(0.25))
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(0.5, 2.0)
        s, t = rng.uniform(0.2, 2.0, size=2)
        assert k(a * s, a * t) == pytest.approx(a**0.5 * k(s, t), rel=1e-8)


def test_axes_vanish():
    for spec in ALL_SPECS:
        k = make_kernel(spec)
        assert k(0.0, 2.0) == 0.0
        assert k(0.0, 0.0) == 0.0


def test_r11_matches_evaluator():
    # R(1, 1) is the kernel at (1, 1) to the last bit: a closed form such as 2 - 2^(2H-1)
    # (sfbm), Gamma(H+1/2)^-2 / (2H) (rl) or int F^2 (volterra-g) is not, on this sweep
    specs = (ALL_SPECS + [ProcessSpec.sub_fbm(k / 1000) for k in range(1, 1000)]
             + [ProcessSpec.riemann_liouville(k / 100) for k in range(1, 300)]
             + [ProcessSpec.bi_fbm(h / 20, k / 20) for h in range(1, 20) for k in range(1, 21)]
             + [ProcessSpec.volterra_g(H / 10, beta, g) for H in range(1, 10)
                for beta in (-0.4, -0.2, 0.0, 0.3, 0.5, 1.0, 2.0)
                for g in (GFunction.const(1.0), GFunction.const(0.3), GFunction.log_pow(1), GFunction.log_pow(2))]
             + [ProcessSpec.fbm(k / 100) for k in range(1, 100)])
    misses = [spec.label() for spec in specs if make_kernel(spec).r11 != make_kernel(spec)(1.0, 1.0)]
    assert misses == []


_POINT_SPECS = ALL_SPECS + [ProcessSpec.riemann_liouville(0.25),
                            ProcessSpec.riemann_liouville(0.4999), ProcessSpec.riemann_liouville(0.75),
                            ProcessSpec.bi_fbm(0.3, 0.5), ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))]


@pytest.mark.parametrize("spec", _POINT_SPECS, ids=lambda s: s.label())
def test_point_is_its_gram_entry(spec):
    # scalar times reach the formula as 1-element arrays, so a point has the bytes of its
    # Gram entry: kernel-eval --s --t prints what kernel-eval --grid holds at (s, t)
    k = make_kernel(spec)
    grid = standard_grid()
    iu, ju = np.triu_indices(len(grid))
    points = np.array([k(float(grid.times[i]), float(grid.times[j])) for i, j in zip(iu, ju)])
    assert points.tobytes() == build_gram(k, grid).entries[iu, ju].tobytes()
    assert k.r11 == k(1.0, 1.0) == build_gram(k, TimeGrid(np.array([1.0]))).entries[0, 0]


def test_rl_point_near_half_is_its_gram_entry():
    # numpy's scalar ** gave ...886 here, one ulp from every Gram's (1, 1.5) entry
    k = make_kernel(ProcessSpec.riemann_liouville(0.4999))
    assert k(1.0, 1.5) == build_gram(k, TimeGrid(np.array([1.0, 1.5]))).entries[0, 1] == 0.9999890716420888


@pytest.mark.parametrize("spec", [ProcessSpec.fbm(0.1), ProcessSpec.sub_fbm(0.3), ProcessSpec.bi_fbm(0.7, 0.9),
                                  ProcessSpec.riemann_liouville(0.3), ProcessSpec.riemann_liouville(0.4999)],
                         ids=lambda s: s.label())
def test_eval_l_scalar_is_its_array_entry(spec):
    u = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 60)])
    assert np.array([eval_l(spec, float(x)) for x in u]).tobytes() == eval_l(spec, u).tobytes()


def test_cauchy_schwarz_fails_above_boundary():
    # for c > -H the formula is not a covariance: search a geometric grid
    H = 0.5
    c = -H + 0.1

    def raw(s, t):
        lo, hi = min(s, t), max(s, t)
        return hi ** (2 * H + c) * lo ** (-c)

    grid = np.geomspace(0.1, 10.0, 25)
    found = any(
        raw(s, t) ** 2 > raw(s, s) * raw(t, t) * (1.0 + 1e-12)
        for i, s in enumerate(grid)
        for t in grid[i + 1:]
    )
    assert found


# ---------------------------------------------------------------------------
# GFunction catalog and spec round-trips
# ---------------------------------------------------------------------------

def test_gfunction_values_and_derivs():
    # g is evaluated through weight_at_gap: F(1 - y) = y^beta g(1 - y), g = a or log(1/(1-x))^k,
    # finite where 1 - y rounds to 1
    y = np.array([1.0, 0.5, 0.1, 1e-12, 1e-20])
    log_pow = ProcessSpec.volterra_g(0.3, 0.5, GFunction.log_pow(2))
    np.testing.assert_allclose(log_pow.weight_at_gap(y), np.sqrt(y) * np.log(1.0 / y) ** 2, rtol=1e-14, atol=0.0)
    const = ProcessSpec.volterra_g(0.3, 1.0, GFunction.const(3.0))
    np.testing.assert_allclose(const.weight_at_gap(y), 3.0 * y, rtol=1e-15, atol=0.0)


def test_gfunction_subpower_growth():
    # g has sub-power growth: (1-x)^eps |g| and (1-x)^(1+eps) |g'| stay bounded as x -> 1.
    # g(1 - u) is the beta = 0 weight at gap u; the worst catalog member, log^3,
    # peaks at u^0.1 (ln 1/u)^3 <= (30/e)^3 ~ 1.35e3
    eps = 0.1
    u = np.geomspace(1e-12, 0.5, 40)
    for g in (GFunction.const(2.0), GFunction.log_pow(1), GFunction.log_pow(3)):
        assert np.all(u**eps * np.abs(ProcessSpec.volterra_g(0.3, 0.0, g).weight_at_gap(u)) < 2e3)


def test_spec_string_round_trip():
    specs = [
        ProcessSpec.canonical(0.7, -0.9),
        ProcessSpec.canonical(0.5, NEG_INF),
        ProcessSpec.white_noise(0.6),
        ProcessSpec.fbm(0.25),
        ProcessSpec.sub_fbm(0.75),
        ProcessSpec.bi_fbm(0.25, 0.5),
        ProcessSpec.riemann_liouville(0.4),
        ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)),
        ProcessSpec.volterra_g(0.3, 0.5, GFunction.log_pow(2)),
    ]
    for spec in specs:
        text = format_spec_string(spec)
        assert parse_spec_string(text) == spec


def test_spec_label_of_numpy_scalars_parses_back():
    # numpy scalar fields are held as Python numbers, so the label is the repr of a float
    f = np.float64
    specs = [
        ProcessSpec(Family.CANONICAL, f(0.7), c=f(-0.9)),
        ProcessSpec(Family.CANONICAL, f(0.5), c=f(NEG_INF)),
        ProcessSpec(Family.WHITE_NOISE, f(0.6)),
        ProcessSpec(Family.FBM, f(0.3)),
        ProcessSpec(Family.SUBFBM, np.float32(0.75)),
        ProcessSpec(Family.BIFBM, f(0.25) * f(0.5), htilde=f(0.25), ktilde=f(0.5)),
        ProcessSpec(Family.BIFBM, f(0.125 + 1e-14), htilde=f(0.25), ktilde=f(0.5)),  # passes the 1e-12 check
        ProcessSpec(Family.RIEMANN_LIOUVILLE, f(0.4)),
        ProcessSpec(Family.VOLTERRA_G, f(0.25), beta=f(1.0), g=GFunction("const", a=f(2.0))),
        ProcessSpec(Family.VOLTERRA_G, f(0.3), beta=np.int64(0), g=GFunction("log-pow", k=np.int64(2))),
    ]
    assert specs[3].label() == "fbm:H=0.3"
    assert specs[6].label() == "bfbm:H=0.125,htilde=0.25,ktilde=0.5"
    assert specs[8].g.label() == "const:2.0"
    for spec in specs:
        assert parse_spec_string(spec.label()) == spec, spec.label()
        assert "np." not in spec.label()


@pytest.mark.parametrize("text, key", [
    ("fbm:H=0.3,c=5", "'c'"),
    ("white-noise:H=0.6,beta=1", "'beta'"),
    ("canonical:H=0.7,c=-0.9,htilde=0.5", "'htilde'"),
    ("bfbm:htilde=0.5,ktilde=0.5,g=const:1.0", "'g'"),
    ("volterra-g:H=0.25,beta=1.0,g=const:1.0,k=2", "'k'"),
    ("rl:H=0.25,h=0.3", "'h'"),
])
def test_spec_string_refuses_keys_the_family_does_not_take(text, key):
    with pytest.raises(ParameterError, match=f"unknown parameter {key} for family"):
        parse_spec_string(text)


@pytest.mark.parametrize("text, key", [
    ("fbm:H=0.3,H=0.9", "'H'"),
    ("volterra-g:H=0.25,beta=1.0,g=const:1.0,beta=2.0", "'beta'"),
    ("fbm:family=sfbm,H=0.3", "'family'"),
])
def test_spec_string_refuses_repeated_keys(text, key):
    with pytest.raises(ParameterError, match=f"spec key {key} given twice"):
        parse_spec_string(text)


def test_spec_string_bfbm_given_H_is_checked():
    # H is what the spec writes for bfbm, so it may be given, but it must be htilde * ktilde
    assert parse_spec_string("bfbm:H=0.25,htilde=0.5,ktilde=0.5") == ProcessSpec.bi_fbm(0.5, 0.5)
    with pytest.raises(ParameterError, match="H = htilde"):
        parse_spec_string("bfbm:H=0.9,htilde=0.5,ktilde=0.5")


def test_spec_string_minus_inf_spelling():
    # c=-inf still parses, checked against the keys of the family as written; the spec is
    # the white-noise spec of its H, and that is what its label says
    spec = parse_spec_string("canonical:H=0.5,c=-inf")
    assert spec == ProcessSpec.white_noise(0.5)
    assert format_spec_string(spec) == "white-noise:H=0.5"
    with pytest.raises(ParameterError, match="unknown parameter 'c' for family white-noise"):
        parse_spec_string("white-noise:H=0.5,c=-inf")


def test_white_noise_conversion_is_explicit():
    # no conversion is left to do: a canonical spec given c = -inf is the white-noise spec
    spec = ProcessSpec.canonical(0.5, NEG_INF)
    assert spec == ProcessSpec.white_noise(0.5)
    assert (spec.family, spec.c) == (Family.WHITE_NOISE, None)
    assert not hasattr(spec, "to_white_noise")
    assert ProcessSpec.canonical(0.5, -1.0).family == Family.CANONICAL


@pytest.mark.parametrize("build, message", [
    (lambda: ProcessSpec(Family.FBM, 0.3, c=-1.0), "fbm takes no c"),
    (lambda: ProcessSpec(Family.FBM, 0.3, c=NEG_INF), "fbm takes no c"),
    (lambda: ProcessSpec(Family.WHITE_NOISE, 0.3, beta=1.0), "white-noise takes no beta"),
    (lambda: ProcessSpec(Family.CANONICAL, 0.5, c=-1.0, htilde=0.5), "canonical takes no htilde"),
    (lambda: ProcessSpec(Family.BIFBM, 0.25, htilde=0.5, ktilde=0.5, g=GFunction.const()), "bfbm takes no g"),
    (lambda: ProcessSpec(Family.RIEMANN_LIOUVILLE, 0.3, c=-1.0, ktilde=0.5), "rl takes no c or ktilde"),
    (lambda: ProcessSpec(Family.VOLTERRA_G, 0.3, c=-1.0, beta=1.0, g=GFunction.const()), "volterra-g takes no c"),
    (lambda: GFunction("const", a=2.0, k=5), "const g takes no k"),
    (lambda: GFunction("log-pow", a=2.0, k=2), "log-pow g takes no a"),
], ids=["fbm_c", "fbm_c_minus_inf", "white_noise_beta", "canonical_htilde", "bfbm_g", "rl_c_ktilde",
        "volterra_g_c", "const_g_k", "log_pow_g_a"])
def test_stray_fields_are_refused_by_name(build, message):
    # a spec is what its label says: a field the family (or g kind) does not take would be dropped by it
    with pytest.raises(ParameterError, match=f"^{message}"):
        build()


def test_proven_regime_flag():
    assert ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)).proven_regime
    assert not ProcessSpec.volterra_g(0.25, -0.25, GFunction.const(1.0)).proven_regime
    assert not ProcessSpec.volterra_g(0.75, 1.0, GFunction.const(1.0)).proven_regime
