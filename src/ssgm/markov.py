"""Markovianity diagnostics for explicit covariance kernels.

A centered Gaussian process is Markov exactly when its covariance satisfies
the triple-product identity R(s,u) R(t,t) = R(s,t) R(t,u) for s <= t <= u.
For H-self-similar kernels this pins R down to R(1,1) (s v t)^(2H+c)
(s ^ t)^(-c) with c <= -H, or the white-noise limit.  The module quantifies
how far a kernel is from that family:

* ``doob_residual``   - relative triple-product residuals on a grid;
* ``fit_canonical``   - recover (R(1,1), c) from R(., 1) on (0, 1];
* ``multiplicative_check`` - residual of g(x+y) = g(x) g(y) for
  g(x) = R(e^-x, 1)/R(1,1);
* ``gf_factorize``    - split R(s,t) = G(s ^ t) F(s v t) anchored at the
  smallest grid time;
* ``sqrt_diag_profile``   - power structure of R(t^alpha, t) at infinity;
* ``asym_coeff_estimate`` - constant and leading power of l(u) at infinity.

Both profile fits use one power-law fitter, ``_power_fit`` (variable
projection); the ``fit_residual`` of ``asym_coeff_estimate`` is the max
weighted relative residual |model - l| / |l| of the whole fitted model.

Verdict thresholds are engineering choices (exact identities sit at float
noise, genuine violations far above it) and are recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError, ParameterError
from .gram import TimeGrid, build_gram, one_blas_thread, standard_grid
from .kernels import L_FORM_FAMILIES, CovKernel, Family, ProcessSpec, eval_l, make_kernel

__all__ = [
    "MarkovReport",
    "FactorizationResult",
    "AsymReport",
    "CanonicalFit",
    "doob_residual",
    "fit_canonical",
    "multiplicative_check",
    "gf_factorize",
    "sqrt_diag_profile",
    "asym_coeff_estimate",
    "markov_test",
    "DOOB_MARKOV_MAX",
    "DOOB_NOT_MARKOV_MIN",
]

DOOB_MARKOV_MAX = 1e-8
DOOB_NOT_MARKOV_MIN = 1e-4
_DOOB_FLOOR = 1e-300
_C_DEGENERATE_SLACK = 1e-6


@dataclass(frozen=True)
class CanonicalFit:
    r11_hat: float
    c_hat: float  # may be -inf (white-noise branch)
    regression_residual: float


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """R(s,t) ~ G(s ^ t) F(s v t) on a grid, anchored by F(t_j) = R(t_1, t_j)."""

    grid: TimeGrid
    G_values: np.ndarray
    F_values: np.ndarray
    max_residual: float
    g_over_f_nondecreasing: bool


@dataclass(frozen=True)
class AsymReport:
    """Power structure of an asymptotic profile.

    ``fit_residual``: max |log(model / profile)| of the one-power fit for
    ``sqrt_diag_profile``, max |model - l| / |l| of the whole model for ``asym_coeff_estimate``.
    """

    family: str
    alpha: float
    constant_term: float
    coefficient: Optional[float]
    exponent: Optional[float]
    two_power_flag: bool
    fit_residual: float
    predicted_coefficient: Optional[float] = None
    predicted_exponent: Optional[float] = None
    all_zero: bool = False
    remainder_below_noise: bool = False


@dataclass(frozen=True)
class MarkovReport:
    kernel: str
    verdict: str  # MarkovCanonical | MarkovWhiteNoise | NotMarkov | Degenerate | Indeterminate
    doob_max_residual: float
    doob_mean_residual: float
    fit: CanonicalFit
    mult_residual: float
    factorization_residual: Optional[float]
    thresholds: dict = field(default_factory=lambda: {
        "doob_markov_max": DOOB_MARKOV_MAX,
        "doob_not_markov_min": DOOB_NOT_MARKOV_MIN,
    })
    note: str = (
        "verdict thresholds separate exact identities (float noise) from "
        "genuine violations; residuals in between are reported as Indeterminate"
    )


def doob_residual(kernel: CovKernel, grid: TimeGrid) -> tuple[float, float]:
    """Max and mean relative triple-product residual over s <= t <= u.

    Residuals are |R(s,u)R(t,t) - R(s,t)R(t,u)| normalized by the larger
    product magnitude (with a tiny floor so all-zero products count as 0).
    """
    _check_doob_grid(grid)
    return _doob_from_gram(build_gram(kernel, grid).entries)


def _check_doob_grid(grid: TimeGrid) -> None:
    if len(grid) < 3:
        raise ParameterError("doob residual requires a grid with d >= 3")
    if np.any(grid.times <= 0):
        raise ParameterError("doob residual requires positive grid times")


def _doob_from_gram(G: np.ndarray) -> tuple[float, float]:
    """``doob_residual`` of the Gram matrix G itself."""
    d = G.shape[0]
    rel_max, rel_sum, count = 0.0, 0.0, 0
    for j in range(d):
        # triples (i, j, k) with i <= j <= k: rows i of column j, columns k of row j
        a = G[: j + 1, j:] * G[j, j]
        b = np.outer(G[: j + 1, j], G[j, j:])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), _DOOB_FLOOR)
        rel = np.abs(a - b) / denom
        rel_max = max(rel_max, float(np.max(rel)))
        rel_sum += float(np.sum(rel))
        count += rel.size
    return rel_max, rel_sum / count


def fit_canonical(kernel: CovKernel) -> CanonicalFit:
    """Least-squares fit of log R(t,1) against log t on t = geomspace(0.05, 1, 24).

    The slope recovers -c and the intercept log R(1,1).  If R(t,1) vanishes
    for every t < 1 the kernel sits on the white-noise branch and c_hat is
    -inf.  Negative values of R(., 1) are rejected: they cannot occur for a
    self-similar Markov covariance.
    """
    t = TimeGrid.geometric(0.05, 1.0, 24).times
    r = np.asarray(kernel(t, np.ones_like(t)), dtype=float)
    r11 = kernel.r11
    if np.any(r < -1e-12 * max(abs(r11), 1.0)):
        raise ParameterError("R(., 1) takes negative values; not a self-similar Markov covariance")
    interior = t < 1.0
    if np.all(np.abs(r[interior]) <= 1e-12 * max(abs(r11), 1e-300)):
        return CanonicalFit(r11_hat=r11, c_hat=float("-inf"), regression_residual=0.0)
    if np.any(r[interior] <= 0.0):
        raise ParameterError("R(t, 1) has zeros on (0, 1); no canonical power-law fit exists")
    slope, intercept, resid = _line_fit(np.log(t), np.log(r))
    return CanonicalFit(r11_hat=float(np.exp(intercept)), c_hat=-slope, regression_residual=resid)


def multiplicative_check(kernel: CovKernel) -> float:
    """Max residual of g(x+y) - g(x) g(y), g(x) = R(e^-x, 1)/R(1,1), over x, y in linspace(0, 3, 13).

    x and y are the multiples k/4 of 1/4, exact in binary, so x + y takes
    only the 25 values k/4, k = 0..24: g is evaluated once at each and indexed.
    """
    r11 = kernel.r11
    if not r11 > 0:
        raise ParameterError(f"multiplicative check requires R(1,1) > 0, got {r11!r}")
    z = np.linspace(0.0, 6.0, 25)
    g = np.asarray(kernel(np.exp(-z), np.ones_like(z)), dtype=float) / r11
    k = np.arange(13)
    return float(np.max(np.abs(g[np.add.outer(k, k)] - np.outer(g[:13], g[:13]))))


def gf_factorize(kernel: CovKernel, grid: TimeGrid) -> FactorizationResult:
    """Split R(s,t) into G(s ^ t) F(s v t) on a grid.

    The scale ambiguity (G, F) -> (G/k, kF) is fixed by anchoring
    F(t_j) = R(t_1, t_j); G then carries the constant.  Also reports whether
    G/F is non-decreasing along the grid, a structural property of positive
    Gaussian Markov covariances.
    """
    if len(grid) < 2:
        raise ParameterError("factorization requires d >= 2")
    if np.any(grid.times <= 0):
        raise ParameterError("factorization requires positive grid times")
    return _gf_from_gram(grid, build_gram(kernel, grid).entries)


def _gf_from_gram(grid: TimeGrid, G_mat: np.ndarray) -> FactorizationResult:
    """``gf_factorize`` of the Gram matrix G_mat over ``grid``."""
    if np.any(G_mat <= 0):
        raise ParameterError("factorization requires R > 0 on the grid")
    F = G_mat[0, :].copy()
    G = np.diag(G_mat) / F
    idx = np.arange(len(grid))
    model = G[np.minimum.outer(idx, idx)] * F[np.maximum.outer(idx, idx)]
    resid = float(np.max(np.abs(G_mat - model) / np.abs(G_mat)))
    ratio = G / F
    nondec = bool(np.all(np.diff(ratio) >= -1e-12 * np.abs(ratio[:-1])))
    return FactorizationResult(grid, G, F, resid, nondec)


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------

def _line_fit(logx: np.ndarray, logy: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = float(np.max(np.abs(logy - (slope * logx + intercept))))
    return float(slope), float(intercept), resid


def _power_fit(x: np.ndarray, y: np.ndarray, exponents, constant: bool
               ) -> tuple[np.ndarray, np.ndarray, float]:
    """Fit y ~ [C +] sum_i A_i x^e_i, weighted by 1/|y|, by variable projection.

    For fixed exponents the amplitudes (C first, when fitted) come from one
    weighted linear least-squares solve.  The exponents, started at
    ``exponents``, take Gauss-Newton steps on the projected residual with
    Kaufman's Jacobian (Golub & Pereyra 1973, SIAM J. Numer. Anal. 10).  A
    step is halved until the residual falls; the loop stops when a step is
    tiny or the residual stalls, and after at most 100 steps.  Returns the
    amplitudes, the exponents and the max weighted relative residual
    |model - y| / |y|.  Raises NumericalError when no finite fit exists.
    """
    if not np.all(np.isfinite(y) & (y != 0.0)):
        raise NumericalError("power fit needs finite nonzero values to weight by")
    logx, w = np.log(x), 1.0 / np.abs(y)
    target = y * w
    lead = [np.ones_like(x)] if constant else []
    k = len(lead)

    def project(e):
        """(sum of squared residuals, fit) at exponents e; the sum is inf where no finite fit exists."""
        with np.errstate(all="ignore"):
            cols = np.column_stack(lead + [x[:, None] ** e]) * w[:, None]
            scale = np.max(np.abs(cols), axis=0)
            basis = cols / scale  # unit columns: the same projection, a better-posed solve
        if not np.all(np.isfinite(basis)):
            return math.inf, None
        pinv = np.linalg.pinv(basis)
        coef = pinv @ target
        r = basis @ coef - target
        return float(r @ r), (basis, pinv, coef, r, scale)

    e = np.asarray(exponents, dtype=float)
    with one_blas_thread():
        try:
            ss, fit = project(e)
            if fit is None:
                raise NumericalError("power fit has no finite starting point")
            for _ in range(100):
                basis, pinv, coef, r, _ = fit
                deriv = basis[:, k:] * logx[:, None] * coef[k:]
                step = np.linalg.lstsq(deriv - basis @ (pinv @ deriv), -r, rcond=None)[0]
                trial_ss, trial = project(e + step)
                while not trial_ss < ss and np.max(np.abs(step)) > 1e-10:
                    step = step / 2.0
                    trial_ss, trial = project(e + step)
                if not trial_ss < ss:
                    break
                done = np.max(np.abs(step)) <= 1e-10 or trial_ss >= ss * (1.0 - 1e-8)
                e, ss, fit = e + step, trial_ss, trial
                if done:
                    break
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"power fit failed: {exc}") from exc
    _, _, coef, r, scale = fit
    return coef / scale, e, float(np.max(np.abs(r)))


def sqrt_diag_profile(kernel: CovKernel, t_values, alpha: float = 0.5) -> AsymReport:
    """Fit R(t^alpha, t), t >= 1, with one- and two-power models.

    A kernel of the canonical family gives a single exact power with
    coefficient R(1,1); any second resolvable power (two-power fit at least
    100x better than the one-power fit, with the latter above float noise)
    is a structural obstruction to Markovianity.  An identically zero
    profile is the white-noise signature.
    """
    if not (0 < alpha < 1):
        raise ParameterError(f"alpha must lie in (0,1), got {alpha!r}")
    t = np.asarray(t_values, dtype=float)
    if t.size < 8:
        raise ParameterError("profile needs at least 8 points")
    if np.any(t < 1.0):
        raise ParameterError("profile times must be >= 1")
    if np.log10(t[-1] / t[0]) < 4.0 - 1e-9:
        raise ParameterError("profile must span at least 4 decades")
    fam = kernel.spec.family.value
    prof = np.asarray(kernel(t**alpha, t), dtype=float)
    if np.all(prof == 0.0):
        return AsymReport(fam, alpha, 0.0, None, None, False, 0.0, all_zero=True)
    if np.any(prof <= 0.0):
        raise NumericalError("profile takes nonpositive values; power fits unavailable")

    slope, intercept, resid1 = _line_fit(np.log(t), np.log(prof))
    flag = resid1 > 1e-12 and _power_fit(t, prof, [slope, slope - 1.0], constant=False)[2] < resid1 / 100.0
    return AsymReport(
        family=fam,
        alpha=alpha,
        constant_term=0.0,
        coefficient=float(np.exp(intercept)),
        exponent=float(slope),
        two_power_flag=bool(flag),
        fit_residual=float(resid1),
    )


def _predicted_pair(spec: ProcessSpec) -> tuple[float, float]:
    """Leading (coefficient, exponent) of l(u) - lim l(u) at infinity, for an l-form family."""
    H = spec.H
    if spec.family == Family.FBM:
        return H, 2.0 * H - 1.0
    if spec.family == Family.RIEMANN_LIOUVILLE:
        return 4.0 * H / (2.0 * H + 1.0), H - 0.5
    if spec.family == Family.SUBFBM:
        return H * (1.0 - 2.0 * H) / make_kernel(spec).r11, 2.0 * H - 2.0
    ht, kt = spec.htilde, spec.ktilde  # bfbm
    if ht < 0.5 and kt < 1.0:
        return 2.0 ** (-kt) * kt, 2.0 * ht * (kt - 1.0)
    if ht == 0.5:
        return 2.0 ** (-kt) * 2.0 * kt, kt - 1.0
    return 2.0 ** (-kt) * 2.0 * ht * kt, 2.0 * ht * kt - 1.0


def asym_coeff_estimate(spec: ProcessSpec, u_values, tol: float = 1e-10) -> AsymReport:
    """Constant term and leading power of l(u) as u -> infinity.

    A profile within the noise floor of its last value (at least ``10 * tol``)
    is constant: only that value is reported.  Otherwise C + A u^e is fitted
    to the whole range by ``_power_fit``, started at the log-log slope of
    |dl/dlog u|.  When its residual is above float noise, C + A1 u^e1 +
    A2 u^e2 is fitted too, started at (e, e - 1), and kept if its residual
    is smaller.  The largest power of the kept fit is reported.  Settling
    and diverging profiles take the same path.  ``fit_residual`` is the max
    weighted relative residual |model - l| / |l| of the kept fit.
    """
    if spec.family not in L_FORM_FAMILIES:
        raise ParameterError(f"asymptotics supported for l-form families, not {spec.family.value!r}")
    if not (tol >= 0 and math.isfinite(tol)):
        raise ParameterError(f"noise-floor tolerance must be nonnegative and finite, got {tol!r}")
    u = np.asarray(u_values, dtype=float)
    if u.size < 12:
        raise ParameterError("need at least 12 u values")
    if np.any(u <= 0) or np.any(np.diff(u) <= 0):
        raise ParameterError("u values must be positive and increasing")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite l(u) is refused below
        lvals = np.asarray(eval_l(spec, u), dtype=float)
    if not np.all(np.isfinite(lvals)):  # R(1, 1 + u) / R(1, 1) is 0/0 where Gamma(H + 1/2)^2 is inf (rl at H = 100)
        bad = float(u[~np.isfinite(lvals)][0])
        raise NumericalError(f"l(u) of {spec.label()} is not finite in float64 at u = {bad!r}")
    fam = spec.family.value
    pred_coeff, pred_exp = _predicted_pair(spec)

    noise = max(1e3 * np.finfo(float).eps * float(np.max(np.abs(lvals))), 10.0 * tol)
    if np.max(np.abs(lvals - lvals[-1])) <= noise:
        return AsymReport(fam, 0.5, float(lvals[-1]), None, None, False, 0.0,
                          predicted_coefficient=pred_coeff, predicted_exponent=pred_exp,
                          remainder_below_noise=True)
    logu = np.log(u)
    slope = np.abs(np.diff(lvals) / np.diff(logu))  # |A e| u^e for l = C + A u^e
    moving = slope > 0
    e0, _, _ = _line_fit(((logu[1:] + logu[:-1]) / 2)[moving], np.log(slope[moving]))
    amps, expo, resid = _power_fit(u, lvals, [e0], constant=True)
    if resid > 1e-12:  # as in sqrt_diag_profile, a second power is resolvable only above float noise
        two = _power_fit(u, lvals, [expo[0], expo[0] - 1.0], constant=True)
        if two[2] < resid:
            amps, expo, resid = two
    lead = int(np.argmax(expo))
    return AsymReport(fam, 0.5, float(amps[0]), float(amps[1 + lead]), float(expo[lead]), False, resid,
                      predicted_coefficient=pred_coeff, predicted_exponent=pred_exp)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def markov_test(kernel: CovKernel, grid: Optional[TimeGrid] = None) -> MarkovReport:
    """Run the full Markovianity battery on a kernel and classify it."""
    if grid is None:
        grid = standard_grid()
    _check_doob_grid(grid)  # also every grid gf_factorize needs
    gram = build_gram(kernel, grid).entries  # one Gram for the Doob residual and the G*F split
    if not kernel.r11 > 0:  # every family's R(1, 1) is positive: 0 is float64 underflow (rl at H = 200)
        raise NumericalError(f"R(1, 1) of {kernel.label()} is {kernel.r11!r} in float64, not positive")
    dmax, dmean = _doob_from_gram(gram)
    fit = fit_canonical(kernel)
    mult = multiplicative_check(kernel)
    try:
        fact_resid = _gf_from_gram(grid, gram).max_residual
    except ParameterError:
        fact_resid = None  # kernels with zeros (white noise) have no G*F split

    if math.isinf(fit.c_hat):
        verdict = "MarkovWhiteNoise" if dmax <= DOOB_MARKOV_MAX else "Indeterminate"
    elif dmax <= DOOB_MARKOV_MAX:
        if abs(fit.c_hat + kernel.H) <= _C_DEGENERATE_SLACK:
            verdict = "Degenerate"
        elif fit.c_hat <= -kernel.H + _C_DEGENERATE_SLACK:
            verdict = "MarkovCanonical"
        else:
            verdict = "Indeterminate"
    elif dmax > DOOB_NOT_MARKOV_MIN:
        verdict = "NotMarkov"
    else:
        verdict = "Indeterminate"

    return MarkovReport(
        kernel=kernel.label(),
        verdict=verdict,
        doob_max_residual=dmax,
        doob_mean_residual=dmean,
        fit=fit,
        mult_residual=mult,
        factorization_residual=fact_resid,
    )
