import warnings

import numpy as np
import pytest

from ssgm.errors import NumericalError, ParameterError
from ssgm.quadrature import integrate_power_upper


def _plain(f, a, b, **kw):
    """``integrate_power_upper`` as a plain integral of ``f`` over ``[a, b]`` (power 0)."""
    return integrate_power_upper(lambda s, dist, _: f(s), a, b, 0.0, **kw)


def test_polynomial_exact():
    res = _plain(lambda x: 3.0 * x**2, 0.0, 2.0, tol=1e-12)
    assert abs(res.value - 8.0) < 1e-12


def test_smooth_transcendental():
    res = _plain(np.exp, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - (np.e - 1.0)) < 1e-11
    assert res.abs_error_estimate >= 0.0


def test_empty_interval():
    res = _plain(np.exp, 1.0, 1.0)
    assert res.value == 0.0


def test_oscillatory():
    res = _plain(lambda x: np.sin(10.0 * x), 0.0, np.pi, tol=1e-11)
    exact = (1.0 - np.cos(10.0 * np.pi)) / 10.0
    assert abs(res.value - exact) < 1e-10


def test_budget_exhaustion():
    # a genuine singularity at the lower end, where no substitution helps, cannot
    # meet 1e-14 within a tiny budget
    def f(x):
        x = np.asarray(x)
        with np.errstate(divide="ignore"):
            return np.where(x > 0, np.abs(np.where(x > 0, x, 1.0)) ** (-0.5), 0.0)

    with pytest.raises(NumericalError):
        _plain(f, 0.0, 1.0, tol=1e-14, budget=2000)


def test_bad_tolerance():
    with pytest.raises(ParameterError):
        _plain(np.exp, 0.0, 1.0, tol=0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, -0.25])
def test_power_endpoint(p):
    # integral of (1-s)^p over [0,1] is 1/(p+1)
    res = integrate_power_upper(lambda s, dist, _: dist**p, 0.0, 1.0, p, tol=1e-12)
    assert abs(res.value - 1.0 / (p + 1.0)) < 1e-11


def test_power_endpoint_with_log():
    # integral of (1-s) log(1/(1-s))^2 ds = integral u log^2 u du = 1/4
    def f2(s, dist, _):
        return dist * np.log(1.0 / dist) ** 2

    res = integrate_power_upper(f2, 0.0, 1.0, 1.0, tol=1e-12)
    assert abs(res.value - 0.25) < 1e-10


def test_nonintegrable_power_rejected():
    with pytest.raises(NumericalError):
        integrate_power_upper(lambda s, d, _: d ** (-1.5), 0.0, 1.0, -1.5)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_bad_tolerance_rejected_before_any_evaluation(tol):
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(x)

    with pytest.raises(ParameterError):
        _plain(f, 0.0, 1.0, tol=tol)
    with pytest.raises(ParameterError):
        _plain(f, 1.0, 1.0, tol=tol)
    with pytest.raises(ParameterError):
        integrate_power_upper(lambda s, d, i: f(d), 0.0, [1.0, 2.0], 0.0, tol=tol)
    assert calls == []


@pytest.mark.parametrize("budget", [0, -5, 2.5, 20.0, float("nan"), float("inf"), True, "20"])
def test_bad_budget_rejected_before_any_evaluation(budget):
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(x)

    with pytest.raises(ParameterError, match="quadrature budget"):
        _plain(f, 0.0, 1.0, budget=budget)
    with pytest.raises(ParameterError, match="quadrature budget"):
        _plain(f, 1.0, 1.0, budget=budget)
    with pytest.raises(ParameterError, match="quadrature budget"):
        integrate_power_upper(lambda s, d, i: f(d), 0.0, [1.0, 2.0], 0.0, budget=budget)
    assert calls == []


def test_evals_count_integrand_points():
    seen = [0]

    def f(x):
        seen[0] += np.size(x)
        return np.sin(5.0 * x)

    res = _plain(f, 0.0, 2.0, tol=1e-11)
    # every evaluation is a point f was called at, one per node
    assert res.evals == seen[0] > 6
    assert _plain(np.exp, 1.0, 1.0).evals == 0


def _batch_and_alone(f2_of, params, power, **kw):
    """One array call over ``params`` and a scalar call of the same function per integral."""
    params = np.asarray(params, dtype=float)
    batch = integrate_power_upper(lambda s, d, i: f2_of(params[i])(s, d), 0.0, np.ones_like(params),
                                  power, **kw)
    alone = [integrate_power_upper(lambda s, d, _: f2_of(p)(s, d), 0.0, 1.0, power, **kw) for p in params]
    return batch, alone


def test_scalar_limits_give_python_scalars_and_arrays_give_arrays():
    res = integrate_power_upper(lambda s, d, _: d, 0.0, 2.0, 1.0)
    assert [type(x) for x in (res.value, res.abs_error_estimate, res.evals)] == [float, float, int]
    assert res.value == pytest.approx(2.0, rel=1e-12)
    empty = integrate_power_upper(lambda s, d, _: d, 1.0, 1.0, 1.0)
    assert [type(x) for x in (empty.value, empty.abs_error_estimate, empty.evals)] == [float, float, int]
    for b in ([2.0], np.array([[1.0, 2.0], [3.0, 4.0]])):
        res = integrate_power_upper(lambda s, d, _: d, 0.0, b, 1.0)
        for x in (res.value, res.abs_error_estimate, res.evals):
            assert isinstance(x, np.ndarray) and x.shape == np.shape(b)
        np.testing.assert_allclose(res.value, np.square(b) / 2.0, rtol=1e-12)


def test_batch_matches_each_integral_alone():
    # integrals of different difficulty share a pass but keep their own meshes
    def f2_of(p):
        return lambda s, d: d * np.log(1.0 / d) ** 2 * np.cos(p * s)

    batch, alone = _batch_and_alone(f2_of, [0.0, 3.0, 20.0, 60.0], 1.0, tol=1e-12)
    assert list(batch.evals) == [r.evals for r in alone]
    assert len(set(batch.evals)) > 1
    np.testing.assert_allclose(batch.value, [r.value for r in alone], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(batch.abs_error_estimate, [r.abs_error_estimate for r in alone],
                               rtol=1e-12, atol=0.0)
    assert batch.value[0] == pytest.approx(0.25, abs=1e-11)


def test_batch_larger_than_one_slice():
    # 3000 integrals take several integrand calls per level; each keeps the bytes it has alone
    def f2_of(p):
        return lambda s, d: d * np.log(1.0 / d) ** 2 * np.cos(p * s)

    batch, alone = _batch_and_alone(f2_of, np.linspace(0.0, 60.0, 3000), 1.0, tol=1e-12)
    for field in ("value", "abs_error_estimate", "evals"):
        each = np.array([getattr(r, field) for r in alone], dtype=getattr(batch, field).dtype)
        assert getattr(batch, field).tobytes() == each.tobytes(), field


def test_batch_zero_span_integrals():
    batch = integrate_power_upper(lambda s, d, i: d, [0.0, 1.0, 0.0], [1.0, 1.0, 2.0], 1.0, tol=1e-12)
    assert batch.value[1] == 0.0 and batch.evals[1] == 0
    np.testing.assert_allclose(batch.value[[0, 2]], [0.5, 2.0], rtol=1e-12)


def test_batch_budget_is_per_integral():
    # the oscillatory integral needs far more than 200 evaluations, the smooth ones far fewer
    def f2_of(p):
        return lambda s, d: np.cos(p * s)

    kw = {"tol": 1e-6, "budget": 200}
    with pytest.raises(NumericalError, match="budget of 200"):
        _batch_and_alone(f2_of, [1.0, 400.0, 2.0], 0.0, **kw)
    batch, alone = _batch_and_alone(f2_of, [1.0, 2.0], 0.0, **kw)
    assert max(batch.evals) <= 200
    assert list(batch.evals) == [r.evals for r in alone]
    with pytest.raises(NumericalError):
        integrate_power_upper(lambda s, d, _: f2_of(400.0)(s, d), 0.0, 1.0, 0.0, **kw)


def test_batch_non_finite_integrand():
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite"):
        integrate_power_upper(lambda s, d, i: np.where(i == 1, np.inf, d), 0.0, [1.0, 1.0], 1.0)


def test_non_finite_integrand_is_one_line_error_without_warning():
    # an overflowing integrand is reported once, as a NumericalError naming the point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite") as info:
            integrate_power_upper(lambda s, d, _: np.exp(800.0 * s) * d, 0.0, 1.0, 1.0)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("p", [-0.99, -0.9999, 50.0])
def test_power_endpoint_with_underflowing_distance(p):
    # with q = 3/(1 + p) far from 1, (b - s) = w^q underflows on many nodes (p near -1)
    # or on none (large p); the w^2 model below the underflow keeps the pure power exact
    res = integrate_power_upper(lambda s, dist, _: dist**p, 0.0, 2.0, p, tol=1e-12)
    assert res.value == pytest.approx(2.0 ** (p + 1.0) / (p + 1.0), rel=1e-13)
