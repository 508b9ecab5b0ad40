import math

import numpy as np
import pytest

import ssgm.markov
from ssgm import (GFunction, MarkovReport, ProcessSpec, TimeGrid, asym_coeff_estimate, build_gram,
                  doob_residual, fit_canonical, gf_factorize, make_kernel,
                  markov_test, multiplicative_check, sqrt_diag_profile,
                  standard_grid)
from ssgm.errors import NumericalError, ParameterError

# brute-force oracle: 0.5*(s^2H + t^2H - |s-t|^2H) at the four pairs of the
# triple (1, 2, 3) with H = 3/4, evaluated once and frozen
FBM34_DOOB_NUMERATOR = 0.2044450422655908


def _fbm34(s, t):
    return 0.5 * (s**1.5 + t**1.5 - abs(s - t) ** 1.5)


def test_frozen_oracle_matches_brute_force():
    num = abs(_fbm34(1, 3) * _fbm34(2, 2) - _fbm34(1, 2) * _fbm34(2, 3))
    assert num == pytest.approx(FBM34_DOOB_NUMERATOR, abs=1e-15)


# ---------------------------------------------------------------------------
# doob_residual
# ---------------------------------------------------------------------------

def test_doob_canonical_exact():
    k = make_kernel(ProcessSpec.canonical(0.7, -0.9))
    dmax, dmean = doob_residual(k, standard_grid())
    assert dmax <= 1e-12
    assert 0.0 <= dmean <= dmax


def test_doob_brownian_triple_zero():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    dmax, _ = doob_residual(k, TimeGrid(np.array([1.0, 2.0, 3.0])))
    assert dmax == 0.0


def test_doob_fbm_numerator_matches_oracle():
    k = make_kernel(ProcessSpec.fbm(0.75))
    G = build_gram(k, TimeGrid(np.array([1.0, 2.0, 3.0]))).entries
    numerator = abs(G[0, 2] * G[1, 1] - G[0, 1] * G[1, 2])
    assert numerator == pytest.approx(FBM34_DOOB_NUMERATOR, abs=1e-6)


def test_doob_white_noise_zero():
    k = make_kernel(ProcessSpec.white_noise(0.6))
    dmax, _ = doob_residual(k, standard_grid())
    assert dmax == 0.0


def test_doob_matches_triple_loop_reference():
    grid = TimeGrid.geometric(0.1, 4.0, 8)
    for spec in (ProcessSpec.fbm(0.3), ProcessSpec.riemann_liouville(0.25),
                 ProcessSpec.sub_fbm(0.75), ProcessSpec.white_noise(0.6)):
        k = make_kernel(spec)
        G = build_gram(k, grid).entries
        rels = []
        for i in range(8):
            for j in range(i, 8):
                for l in range(j, 8):
                    a = G[i, l] * G[j, j]
                    b = G[i, j] * G[j, l]
                    rels.append(abs(a - b) / max(abs(a), abs(b), 1e-300))
        dmax, dmean = doob_residual(k, grid)
        assert dmax == pytest.approx(max(rels), rel=1e-12, abs=1e-300)
        assert dmean == pytest.approx(sum(rels) / len(rels), rel=1e-12, abs=1e-300)


def test_doob_needs_three_points():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    with pytest.raises(ParameterError):
        doob_residual(k, TimeGrid(np.array([1.0, 2.0])))


# ---------------------------------------------------------------------------
# fit_canonical
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_canonical():
    k = make_kernel(ProcessSpec.canonical(0.6, -1.3))
    fit = fit_canonical(k)
    assert fit.c_hat == pytest.approx(-1.3, abs=1e-10)
    assert fit.r11_hat == pytest.approx(1.0, abs=1e-10)
    assert fit.regression_residual <= 1e-12


def test_fit_white_noise_branch():
    fit = fit_canonical(make_kernel(ProcessSpec.white_noise(0.7)))
    assert math.isinf(fit.c_hat) and fit.c_hat < 0


def test_fit_fbm_is_not_a_power():
    fit = fit_canonical(make_kernel(ProcessSpec.fbm(0.75)))
    assert fit.regression_residual > 1e-3


def test_fit_round_trip_on_c_sweep():
    for c in (-0.5, -1.0, -2.5, -4.0):
        k = make_kernel(ProcessSpec.canonical(0.5, c))
        fit = fit_canonical(k)
        assert fit.c_hat == pytest.approx(c, abs=1e-9)


# ---------------------------------------------------------------------------
# multiplicative_check
# ---------------------------------------------------------------------------

def test_mult_canonical_tiny():
    assert multiplicative_check(make_kernel(ProcessSpec.canonical(0.7, -0.9))) <= 1e-12


def _mult_169(kernel):
    """The residual from g at the 13 x and the 169 sums x + y, each evaluated as given."""
    r11 = kernel.r11
    x = np.linspace(0.0, 3.0, 13)

    def g(z):
        return np.asarray(kernel(np.exp(-z), np.ones_like(z)), dtype=float) / r11

    gxy = g(np.add.outer(x, x).ravel()).reshape(13, 13)
    return float(np.max(np.abs(gxy - np.outer(g(x), g(x)))))


@pytest.mark.parametrize("spec", [
    ProcessSpec.canonical(0.7, -0.9), ProcessSpec.white_noise(0.6), ProcessSpec.fbm(0.3), ProcessSpec.sub_fbm(0.25),
    ProcessSpec.bi_fbm(0.5, 0.5), ProcessSpec.riemann_liouville(0.25),
    ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(2.0)), ProcessSpec.volterra_g(0.25, 0.5, GFunction.log_pow(1)),
], ids=lambda s: s.label())
def test_mult_reads_each_sum_once(spec):
    # the 25 distinct sums k/4 are exact, so evaluating g once at each gives the bytes of the 169-point form
    k = make_kernel(spec)
    assert np.float64(multiplicative_check(k)).tobytes() == np.float64(_mult_169(k)).tobytes()


def test_mult_zero_arguments():
    # any kernel has zero residual on the x = 0 or y = 0 line since g(0) = 1
    k = make_kernel(ProcessSpec.sub_fbm(0.25))
    r11 = float(k(1.0, 1.0))

    def g(z):
        return float(k(math.exp(-z), 1.0)) / r11

    for y in (0.0, 0.4, 1.7):
        assert abs(g(0.0 + y) - g(0.0) * g(y)) <= 1e-14


def test_mult_sfbm_violates():
    assert multiplicative_check(make_kernel(ProcessSpec.sub_fbm(0.25))) > 1e-3


# ---------------------------------------------------------------------------
# gf_factorize
# ---------------------------------------------------------------------------

def test_factorize_brownian():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    res = gf_factorize(k, TimeGrid(np.array([1.0, 2.0, 4.0])))
    assert res.max_residual <= 1e-14
    # G proportional to t, F constant (up to the anchor constant)
    assert np.allclose(res.G_values / res.G_values[0], [1.0, 2.0, 4.0], rtol=1e-12)
    assert np.allclose(res.F_values / res.F_values[0], 1.0, rtol=1e-12)
    assert res.g_over_f_nondecreasing


def test_factorize_canonical_powers():
    H, c = 0.7, -1.2
    k = make_kernel(ProcessSpec.canonical(H, c))
    grid = standard_grid()
    res = gf_factorize(k, grid)
    assert res.max_residual <= 1e-12
    t = grid.times
    assert np.allclose(res.G_values / res.G_values[0], (t / t[0]) ** (-c), rtol=1e-10)
    assert np.allclose(res.F_values / res.F_values[0], (t / t[0]) ** (2 * H + c), rtol=1e-10)
    assert res.g_over_f_nondecreasing


def test_factorize_fbm_fails_loudly():
    res = gf_factorize(make_kernel(ProcessSpec.fbm(0.75)), TimeGrid(np.array([1.0, 2.0, 3.0, 4.0])))
    assert res.max_residual > 1e-3


def test_factorize_requires_positivity():
    with pytest.raises(ParameterError):
        gf_factorize(make_kernel(ProcessSpec.white_noise(0.5)), TimeGrid(np.array([1.0, 2.0])))


# ---------------------------------------------------------------------------
# sqrt_diag_profile
# ---------------------------------------------------------------------------

def test_profile_canonical_single_power():
    for H, c in [(0.7, -0.9), (0.3, -1.5), (1.2, -5.0)]:
        k = make_kernel(ProcessSpec.canonical(H, c))
        rep = sqrt_diag_profile(k, np.geomspace(1e4, 1e10, 49))
        assert not rep.two_power_flag
        assert rep.coefficient == pytest.approx(1.0, rel=1e-10)
        assert rep.exponent == pytest.approx(2 * H + c / 2.0, abs=1e-10)


def test_profile_bfbm_two_powers():
    k = make_kernel(ProcessSpec.bi_fbm(0.5, 0.5))
    rep = sqrt_diag_profile(k, np.geomspace(1e2, 1e6, 61))
    assert rep.two_power_flag


def test_profile_fbm_two_powers():
    k = make_kernel(ProcessSpec.fbm(0.75))
    rep = sqrt_diag_profile(k, np.geomspace(1e8, 1e13, 61))
    assert rep.two_power_flag


def test_profile_white_noise_all_zero():
    rep = sqrt_diag_profile(make_kernel(ProcessSpec.white_noise(0.5)), np.geomspace(1e4, 1e10, 49))
    assert rep.all_zero and not rep.two_power_flag


def test_profile_alpha_parameter():
    # R(t^a, t) = t^(2H + c(1-a)) for the canonical family
    H, c, a = 0.6, -1.0, 0.3
    k = make_kernel(ProcessSpec.canonical(H, c))
    rep = sqrt_diag_profile(k, np.geomspace(1e4, 1e10, 49), alpha=a)
    assert rep.exponent == pytest.approx(2 * H + c * (1 - a), abs=1e-9)


def test_profile_range_validation():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    with pytest.raises(ParameterError):
        sqrt_diag_profile(k, np.geomspace(1.0, 100.0, 30))  # < 4 decades


# ---------------------------------------------------------------------------
# asym_coeff_estimate
# ---------------------------------------------------------------------------

U_DEFAULT = np.geomspace(1e3, 1e6, 49)


def test_asym_rl_quarter():
    rep = asym_coeff_estimate(ProcessSpec.riemann_liouville(0.25), U_DEFAULT)
    assert rep.coefficient == pytest.approx(2.0 / 3.0, rel=0.01)
    assert rep.exponent == pytest.approx(-0.25, abs=0.02)
    assert rep.predicted_coefficient == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep.predicted_exponent == -0.25


def test_asym_rl_diverging():
    rep = asym_coeff_estimate(ProcessSpec.riemann_liouville(0.75), U_DEFAULT)
    assert rep.exponent == pytest.approx(0.25, abs=0.02)
    assert rep.coefficient == pytest.approx(1.2, rel=0.01)


def test_asym_bfbm_half_half():
    rep = asym_coeff_estimate(ProcessSpec.bi_fbm(0.5, 0.5), U_DEFAULT)
    assert rep.exponent == pytest.approx(-0.5, abs=0.02)
    assert rep.coefficient == pytest.approx(2.0 ** (-0.5), rel=0.01)


@pytest.mark.parametrize("ht,expected_exp", [(0.25, -0.25), (0.75, -0.25)])
def test_asym_bfbm_side_regimes(ht, expected_exp):
    rep = asym_coeff_estimate(ProcessSpec.bi_fbm(ht, 0.5), U_DEFAULT)
    assert rep.exponent == pytest.approx(expected_exp, abs=0.02)


def test_asym_sfbm_quarter():
    rep = asym_coeff_estimate(ProcessSpec.sub_fbm(0.25), U_DEFAULT)
    assert rep.exponent == pytest.approx(-1.5, abs=0.05)
    # constant term is 1/R(1,1); the displayed expansion omits it, so the
    # artifact records rather than asserts the printed coefficient
    assert rep.constant_term == pytest.approx(1.0 / (2.0 - 2.0 ** (-0.5)), rel=1e-6)
    assert rep.coefficient is not None


def test_asym_fbm_brownian_below_noise():
    rep = asym_coeff_estimate(ProcessSpec.fbm(0.5), U_DEFAULT)
    assert rep.remainder_below_noise
    assert rep.constant_term == pytest.approx(1.0, abs=1e-9)


_BROWNIAN = {ProcessSpec.riemann_liouville(0.5), ProcessSpec.sub_fbm(0.5), ProcessSpec.fbm(0.5),
             ProcessSpec.bi_fbm(0.5, 1.0)}
_ORACLE_SPECS = ([ProcessSpec.riemann_liouville(H) for H in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0, 1.5)]
                 + [ProcessSpec.sub_fbm(H) for H in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)]
                 + [ProcessSpec.fbm(H) for H in (0.1, 0.25, 0.5, 0.75, 0.9)]
                 + [ProcessSpec.bi_fbm(h, k) for h in (0.25, 0.5, 0.75, 0.8) for k in (0.3, 0.5, 0.6, 1.0)])


@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=lambda s: s.label())
def test_asym_matches_predicted_pair(spec):
    # the fit to all of l(u) on the default range recovers the leading power of
    # l(u) - lim l(u) far inside criterion 6's 1 % and 0.02; at a Brownian point
    # l is constant and only the constant is reported
    rep = asym_coeff_estimate(spec, U_DEFAULT)
    if spec in _BROWNIAN:
        assert rep.remainder_below_noise and rep.coefficient is None
        return
    assert abs(rep.coefficient - rep.predicted_coefficient) <= 1e-3 * abs(rep.predicted_coefficient)
    assert abs(rep.exponent - rep.predicted_exponent) <= 1e-4


@pytest.mark.parametrize("H", [0.25, 0.75])
def test_bfbm_at_ktilde_one_predicts_as_fbm(H):
    # bfbm with ktilde = 1 is fBm: l(u) = 1/2 + H u^(2H-1) + ...
    assert asym_coeff_estimate(ProcessSpec.bi_fbm(H, 1.0), U_DEFAULT).predicted_coefficient == H
    rep = asym_coeff_estimate(ProcessSpec.fbm(H), U_DEFAULT)
    assert (rep.predicted_coefficient, rep.predicted_exponent) == (H, 2 * H - 1)


def test_asym_failed_fit_raises_numerical_error(monkeypatch):
    # a failed linear solve surfaces as NumericalError, never as a LinAlgError
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", fail)
    with pytest.raises(NumericalError, match="power fit failed"):
        asym_coeff_estimate(ProcessSpec.riemann_liouville(0.25), U_DEFAULT)


@pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf")])
def test_asym_rejects_bad_tolerance(tol):
    # an infinite noise floor used to drop the power fit without a word
    with pytest.raises(ParameterError, match="tolerance"):
        asym_coeff_estimate(ProcessSpec.riemann_liouville(0.25), U_DEFAULT, tol=tol)


def test_asym_rejects_unsupported():
    with pytest.raises(ParameterError):
        asym_coeff_estimate(ProcessSpec.canonical(0.5, -1.0), U_DEFAULT)


# ---------------------------------------------------------------------------
# markov_test verdicts
# ---------------------------------------------------------------------------

def test_verdict_canonical():
    rep = markov_test(make_kernel(ProcessSpec.canonical(0.7, -0.9)))
    assert rep.verdict == "MarkovCanonical"
    assert rep.doob_max_residual <= 1e-10


def test_verdict_degenerate():
    rep = markov_test(make_kernel(ProcessSpec.canonical(0.7, -0.7)))
    assert rep.verdict == "Degenerate"


def test_verdict_white_noise():
    rep = markov_test(make_kernel(ProcessSpec.white_noise(0.6)))
    assert rep.verdict == "MarkovWhiteNoise"
    assert rep.factorization_residual is None


def test_verdict_not_markov_family():
    for spec in [ProcessSpec.fbm(0.25), ProcessSpec.sub_fbm(0.75), ProcessSpec.bi_fbm(0.5, 0.5)]:
        rep = markov_test(make_kernel(spec))
        assert rep.verdict == "NotMarkov"


@pytest.mark.parametrize("spec, doob_max", [(ProcessSpec.fbm(0.50001), 9.0e-6), (ProcessSpec.sub_fbm(0.50001), 1.2e-5)],
                         ids=lambda v: v.label() if isinstance(v, ProcessSpec) else None)
def test_verdict_indeterminate_between_thresholds(spec, doob_max):
    # barely off Brownian motion: the Doob residual sits between the Markov and the not-Markov threshold
    rep = markov_test(make_kernel(spec))
    assert rep.verdict == "Indeterminate"
    assert rep.doob_max_residual == pytest.approx(doob_max, rel=0.05)


def test_report_carries_thresholds():
    rep = markov_test(make_kernel(ProcessSpec.canonical(0.5, -1.0)))
    assert rep.thresholds["doob_markov_max"] == 1e-8
    assert rep.thresholds["doob_not_markov_min"] == 1e-4
    assert "threshold" in rep.note


@pytest.mark.parametrize("spec", [ProcessSpec.canonical(0.7, -0.9), ProcessSpec.white_noise(0.6),
                                  ProcessSpec.riemann_liouville(0.25),
                                  ProcessSpec.volterra_g(0.25, 0.5, GFunction.log_pow(1))],
                         ids=lambda s: s.label())
def test_markov_test_builds_one_gram(spec, monkeypatch):
    # the Doob residual and the G*F split read the same Gram; the report is the
    # one the public checks give, each building its own
    kernel, grid = make_kernel(spec), standard_grid()
    dmax, dmean = doob_residual(kernel, grid)
    try:
        fact = gf_factorize(kernel, grid).max_residual
    except ParameterError:
        fact = None
    expected = MarkovReport(kernel.label(), markov_test(kernel, grid).verdict, dmax, dmean,
                            fit_canonical(kernel), multiplicative_check(kernel), fact)
    built = []

    def counting(*args):
        built.append(args)
        return build_gram(*args)

    monkeypatch.setattr(ssgm.markov, "build_gram", counting)
    assert markov_test(kernel, grid) == expected
    assert len(built) == 1


class _TableKernel:
    """A kernel that reads its first time alone, R(s, t) = fn(s), with fbm's spec and R(1, 1) = r11."""

    def __init__(self, fn, r11=1.0):
        self.spec, self.r11, self._fn = ProcessSpec.fbm(0.3), r11, fn

    def __call__(self, s, t):
        return self._fn(np.asarray(s, dtype=float))


_FBM = make_kernel(ProcessSpec.fbm(0.3))


@pytest.mark.parametrize("call, message", [
    (lambda: doob_residual(_FBM, TimeGrid(np.array([0.0, 1.0, 2.0]))), "doob residual requires positive grid times"),
    (lambda: gf_factorize(_FBM, TimeGrid(np.array([1.0]))), "factorization requires d >= 2"),
    (lambda: gf_factorize(_FBM, TimeGrid(np.array([0.0, 1.0]))), "factorization requires positive grid times"),
    (lambda: sqrt_diag_profile(_FBM, np.geomspace(1e4, 1e10, 49), alpha=1.0), "alpha must lie in"),
    (lambda: sqrt_diag_profile(_FBM, np.geomspace(1e4, 1e10, 7)), "profile needs at least 8 points"),
    (lambda: sqrt_diag_profile(_FBM, np.geomspace(0.5, 1e10, 49)), "profile times must be >= 1"),
    (lambda: asym_coeff_estimate(ProcessSpec.fbm(0.3), np.geomspace(1e3, 1e6, 11)), "need at least 12 u values"),
    (lambda: asym_coeff_estimate(ProcessSpec.fbm(0.3), np.geomspace(1e6, 1e3, 49)),
     "u values must be positive and increasing"),
    (lambda: fit_canonical(_TableKernel(lambda t: t - 0.5)), r"R\(\., 1\) takes negative values"),
    (lambda: fit_canonical(_TableKernel(lambda t: np.where(t < 0.5, 0.0, t))), r"R\(t, 1\) has zeros on"),
    (lambda: multiplicative_check(_TableKernel(lambda t: t, r11=0.0)), r"multiplicative check requires R\(1,1\) > 0"),
], ids=["doob_zero_time", "factorize_d1", "factorize_zero_time", "profile_alpha", "profile_points",
        "profile_below_one", "asym_points", "asym_decreasing", "fit_negative", "fit_zeros", "mult_r11"])
def test_refusals_name_the_rule(call, message):
    with pytest.raises(ParameterError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("y, exponents, message", [
    (np.r_[1.0, np.zeros(11)], [1.0], "power fit needs finite nonzero values to weight by"),
    (np.ones(12), [1e5], "power fit has no finite starting point"),  # x^1e5 overflows at x = 1e10
], ids=["zero_value", "overflowing_start"])
def test_power_fit_refusals(y, exponents, message):
    with pytest.raises(NumericalError, match=f"^{message}$"):
        ssgm.markov._power_fit(np.geomspace(1.0, 1e10, 12), y, exponents, constant=True)


def test_profile_refuses_nonpositive_values():
    with pytest.raises(NumericalError, match="^profile takes nonpositive values"):
        sqrt_diag_profile(_TableKernel(lambda s: -s), np.geomspace(1e4, 1e10, 49))
