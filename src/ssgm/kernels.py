"""Covariance kernels of self-similar Gaussian processes.

The central object is the two-parameter family

    R(s, t) = (s v t)^(2H + c) * (s ^ t)^(-c),   c <= -H,   R(s, t) = 0 on the axes,

whose members are exactly the covariances of self-similar Gaussian Markov
processes (up to a constant factor), with the white-noise covariance
``t^(2H) * 1{s = t}`` as the ``c -> -inf`` limit.  Alongside it the module
evaluates the classical non-Markov variants (fractional, sub-fractional and
bi-fractional Brownian motion, Riemann-Liouville), their normalized
increment-ratio profile ``l(u)`` with ``l(0) = 1``, and the Volterra kernel
``K(s, t) = sqrt(-2(c+H)) t^(H-1/2) (s/t)^(-c-H-1/2)`` that represents the
canonical family as a stochastic integral.

Every kernel is closed form except off-diagonal log-pow volterra-g pairs, which
(like the isometry check) go through ``integrate_power_upper``: the pairs of
one evaluator call are one batch that shares each tanh-sinh level's nodes, and
each stops on its own test and ``budget``.  RL, its ``l(u)`` and constant-g volterra-g
(a rescaled RL) go through ``_rl``: a continued fraction and a binomial series in numpy.

Every covariance is evaluated through ``make_kernel(spec)(s, t)``: the one
front end, ``_on_quadrant``, refuses negative or non-finite times, hands the
family's formula the pairs (s ^ t, s v t) off the axes with their gap, and
sets R = 0 on them.  Each family's covariance is stated once, in ``_formula``.
A ``CovKernel`` holds only the spec and that formula: R(1, 1) is the kernel at
(1, 1), and ``eval_l`` reads the formula at (1, 1 + u) with the gap u passed exactly.
Parameter domains are checked, and each spec canonicalised (the ``c = -inf``
limit is the white-noise spec), in one place, ``ProcessSpec``.  All
evaluators accept scalars or numpy arrays and are pure and stateless, so they
are safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, ParameterError, check_integer
from .quadrature import DEFAULT_BUDGET, DEFAULT_TOL, check_quadrature_args, integrate_power_upper

__all__ = [
    "Family",
    "GFunction",
    "ProcessSpec",
    "CovKernel",
    "make_kernel",
    "L_FORM_FAMILIES",
    "eval_l",
    "volterra_kernel",
    "isometry_residual",
    "volterra_g_variance",
    "parse_spec_string",
    "format_spec_string",
    "spec_from_params",
    "spec_to_params",
]


class Family(str, Enum):
    CANONICAL = "canonical"
    WHITE_NOISE = "white-noise"
    FBM = "fbm"
    SUBFBM = "sfbm"
    BIFBM = "bfbm"
    RIEMANN_LIOUVILLE = "rl"
    VOLTERRA_G = "volterra-g"


@dataclass(frozen=True)
class GFunction:
    """Weight function g on [0, 1) of sub-power growth.

    The catalog is deliberately small: constants a (``const``, which takes no
    ``k``), and integer powers log(1/(1-x))^k (``log-pow``, which takes no
    ``a``).  Both satisfy the growth condition that ``(1-x)^eps * |g|`` and
    ``(1-x)^(1+eps) * |g'|`` stay bounded as x -> 1.  g is evaluated only
    through ``ProcessSpec.weight_at_gap``.
    """

    kind: str  # "const" | "log-pow"
    a: float = 1.0
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("const", "log-pow"):
            raise ParameterError(f"unknown g function kind {self.kind!r}")
        if self.kind == "const" and not math.isfinite(self.a):
            raise ParameterError(f"const g requires a finite value, got {self.a!r}")
        if self.kind == "log-pow":
            object.__setattr__(self, "k", check_integer(self.k, "log-pow exponent k", 1))
        stray = "k" if self.kind == "const" else "a"  # the field this kind does not take stays at 1
        if getattr(self, stray) != 1:
            raise ParameterError(f"{self.kind} g takes no {stray}, got {stray}={getattr(self, stray)!r}")
        # a numpy scalar becomes a Python float, so the label parses back
        object.__setattr__(self, "a", float(self.a))

    @classmethod
    def const(cls, a: float = 1.0) -> "GFunction":
        return cls(kind="const", a=float(a))

    @classmethod
    def log_pow(cls, k: int = 1) -> "GFunction":
        return cls(kind="log-pow", k=k)

    def _at_one_minus(self, y: np.ndarray):
        """g(1 - y) from y itself, finite where 1 - y would round to 1 (g(1) = inf)."""
        if self.kind == "const":
            return np.full_like(y, self.a)
        return (-np.log(y)) ** self.k

    def label(self) -> str:
        if self.kind == "const":
            return f"const:{self.a!r}"
        return f"log-pow:{self.k}"

    @classmethod
    def from_label(cls, text: str) -> "GFunction":
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        if kind == "const":
            return cls.const(float(arg) if arg else 1.0)
        if kind == "log-pow":
            return cls.log_pow(int(arg) if arg else 1)
        raise ParameterError(f"cannot parse g function {text!r}")


# the fields each family takes besides H, in label order; a spec holds no other
_FAMILY_KEYS = {
    Family.CANONICAL: ("c",),
    Family.WHITE_NOISE: (),
    Family.FBM: (),
    Family.SUBFBM: (),
    Family.BIFBM: ("htilde", "ktilde"),
    Family.RIEMANN_LIOUVILLE: (),
    Family.VOLTERRA_G: ("beta", "g"),
}


@dataclass(frozen=True)
class ProcessSpec:
    """Tagged description of a process family and its parameters.

    This is the one check of each family's parameter domain (the public
    evaluators build a spec to check theirs), and the one place that
    canonicalises a spec, so that it is what its label parses to: a field
    the family does not take is refused by name, numpy scalars become
    Python floats, a canonical spec given the limit c = -inf is the
    white-noise spec of its H, and a bfbm H within 1e-12 of
    htilde * ktilde becomes that product.  So every parameter a spec holds
    is finite, and no module downstream branches on c = -inf.
    """

    family: Family
    H: float
    c: Optional[float] = None
    htilde: Optional[float] = None
    ktilde: Optional[float] = None
    beta: Optional[float] = None
    g: Optional[GFunction] = None

    def __post_init__(self):
        fam, keys = self.family, _FAMILY_KEYS.get(self.family)
        if keys is None:
            raise ParameterError(f"unknown process family {fam!r}")
        given = [f.name for f in fields(self)[2:] if getattr(self, f.name) is not None]
        stray = [key for key in given if key not in keys]
        if stray:
            raise ParameterError(f"{fam.value} takes no {' or '.join(stray)}")
        if len(given) < len(keys):
            raise ParameterError(f"{fam.value} requires {' and '.join(keys)}")
        H = self.H
        if not (0 < H < math.inf):
            raise ParameterError(f"H must be positive and finite, got {H!r}")
        if fam == Family.CANONICAL:
            c = self.c
            if not c <= -H:  # also refuses nan and +inf
                raise ParameterError(f"canonical family requires c <= -H, got c={c!r}, H={H!r}")
        elif fam in (Family.FBM, Family.SUBFBM):
            if not H < 1:
                raise ParameterError(f"{fam.value} requires H in (0,1), got {H!r}")
        elif fam == Family.BIFBM:
            ht, kt = self.htilde, self.ktilde
            if not (0 < ht < 1) or not (0 < kt <= 1):
                raise ParameterError(f"bfbm requires htilde in (0,1), ktilde in (0,1], got {ht!r}, {kt!r}")
            if abs(H - ht * kt) > 1e-12 * max(1.0, H):
                raise ParameterError("bfbm requires H = htilde * ktilde")
        elif fam == Family.VOLTERRA_G:
            if not -0.5 < self.beta < math.inf:
                raise ParameterError(f"volterra-g requires a finite beta > -1/2, got {self.beta!r}")
        for name in ("H", *keys):  # numpy scalars too, so the label parses back
            if name != "g":
                object.__setattr__(self, name, float(getattr(self, name)))
        if fam == Family.CANONICAL and math.isinf(self.c):
            fam = Family.WHITE_NOISE
            object.__setattr__(self, "c", None)
        elif fam == Family.BIFBM:
            object.__setattr__(self, "H", self.htilde * self.ktilde)
        object.__setattr__(self, "family", Family(fam))  # a family given as its value, e.g. "fbm", too

    # -- factories ---------------------------------------------------------
    @classmethod
    def canonical(cls, H: float, c: float) -> "ProcessSpec":
        return cls(Family.CANONICAL, float(H), c=float(c))

    @classmethod
    def white_noise(cls, H: float) -> "ProcessSpec":
        return cls(Family.WHITE_NOISE, float(H))

    @classmethod
    def fbm(cls, H: float) -> "ProcessSpec":
        return cls(Family.FBM, float(H))

    @classmethod
    def sub_fbm(cls, H: float) -> "ProcessSpec":
        return cls(Family.SUBFBM, float(H))

    @classmethod
    def bi_fbm(cls, htilde: float, ktilde: float) -> "ProcessSpec":
        return cls(Family.BIFBM, float(htilde) * float(ktilde), htilde=float(htilde), ktilde=float(ktilde))

    @classmethod
    def riemann_liouville(cls, H: float) -> "ProcessSpec":
        return cls(Family.RIEMANN_LIOUVILLE, float(H))

    @classmethod
    def volterra_g(cls, H: float, beta: float, g: GFunction) -> "ProcessSpec":
        return cls(Family.VOLTERRA_G, float(H), beta=float(beta), g=g)

    # -- properties --------------------------------------------------------
    @property
    def proven_regime(self) -> bool:
        """True when (beta, H) lie in the regime with proved asymptotics."""
        if self.family != Family.VOLTERRA_G:
            return True
        return self.beta > 0 and 0 < self.H < 0.5

    def weight_at_gap(self, gap):
        """Volterra-g weight F(1 - gap) = gap^beta g(1 - gap), F(x) = (1-x)^beta g(x).

        Taking the gap 1 - x itself keeps F finite where 1 - gap would round
        to 1 (g(1) = inf for log-pow g).
        """
        if self.family != Family.VOLTERRA_G:
            raise ParameterError("the Volterra weight F applies to the volterra-g family")
        return gap**self.beta * self.g._at_one_minus(gap)

    def label(self) -> str:
        return format_spec_string(self)


# ---------------------------------------------------------------------------
# spec (de)serialization: "family:name=value,name=value"
# ---------------------------------------------------------------------------

def spec_to_params(spec: ProcessSpec) -> dict:
    """Named parameters of a spec: H and the keys ``_FAMILY_KEYS`` lists, each number the ``repr`` of its float."""
    params: dict = {"family": spec.family.value, "H": repr(spec.H)}
    for key in _FAMILY_KEYS[spec.family]:
        value = getattr(spec, key)
        params[key] = value.label() if key == "g" else repr(value)
    return params


def spec_from_params(params: dict) -> ProcessSpec:
    """The spec the parameters name: H and the keys ``_FAMILY_KEYS`` lists for the family, bfbm's H optional."""
    p = {k.strip(): str(v).strip() for k, v in params.items()}
    try:
        family = Family(p.pop("family"))
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"missing or unknown process family in {params!r}") from exc
    keys = _FAMILY_KEYS[family]
    unknown = sorted(p.keys() - {"H", *keys})
    if unknown:
        raise ParameterError(f"unknown parameter {', '.join(map(repr, unknown))} for family {family.value}")
    try:
        values = {key: GFunction.from_label(p[key]) if key == "g" else float(p[key]) for key in keys}
        if "H" in p or family != Family.BIFBM:
            H = float(p["H"])
        else:  # bfbm's H is htilde * ktilde, so it may be left out
            H = values["htilde"] * values["ktilde"]
    except KeyError as exc:
        raise ParameterError(f"missing parameter {exc} for family {family.value}") from exc
    except ParameterError:
        raise
    except ValueError as exc:  # a malformed number
        raise ParameterError(f"cannot parse {family.value} parameters: {exc}") from exc
    return ProcessSpec(family, H, **values)


def parse_spec_string(text: str) -> ProcessSpec:
    """Parse a compact spec string, e.g. ``canonical:H=0.7,c=-0.9``."""
    head, _, rest = text.partition(":")
    params = {"family": head.strip()}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ParameterError(f"cannot parse spec fragment {item!r}")
            key = key.strip()
            if key in params:
                raise ParameterError(f"spec key {key!r} given twice in {text!r}")
            # g labels contain a colon which partition already preserved
            params[key] = value.strip()
    return spec_from_params(params)


def format_spec_string(spec: ProcessSpec) -> str:
    params = spec_to_params(spec)
    family = params.pop("family")
    body = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{family}:{body}" if body else family


# ---------------------------------------------------------------------------
# covariances: one front end, one formula per family
# ---------------------------------------------------------------------------

def _on_quadrant(formula: Callable, s, t):
    """R(s, t) = formula(s ^ t, s v t, s v t - s ^ t) off the axes, and exactly 0 on them.

    The one front end of every covariance evaluator.  Times must be
    nonnegative and finite.  An axis pair hands the formula 1.0 for both
    times, so no formula divides by zero or integrates there; the axes are
    then set to 0 (differences of powers would cancel only to the last bit).
    Scalar times go to the formula as 1-element arrays and give a float:
    numpy's scalar ``**`` rounds unlike its array loops, so only this way
    is R(s, t) the bytes of the (s, t) entry of a Gram matrix.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    scalar = s.ndim == t.ndim == 0
    if scalar:
        s, t = s.reshape(1), t.reshape(1)
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    if not (lo.min(initial=math.inf) >= 0 and hi.max(initial=0.0) < math.inf):  # nan fails both
        raise ParameterError("times must be nonnegative and finite")
    axis = lo == 0
    lo, hi = np.where(axis, 1.0, lo), np.where(axis, 1.0, hi)
    out = np.where(axis, 0.0, formula(lo, hi, hi - lo))
    return float(out[0]) if scalar else out


@lru_cache(maxsize=128)
def _gauss_cf(a: float, c: float) -> tuple:
    """(k_2j+1, k_2j+2), j = 16..0, of Gauss's fraction 1/(1 + k_1 z/(1 + k_2 z/...)) (Cuyt et al. 2008, ch. 15)."""
    j = np.arange(16.0, -1.0, -1.0)
    return tuple(zip((-(a + j) * (c + j) / ((c + 2 * j) * (c + 2 * j + 1))).tolist(),
                     (-(j + 1) * (c - a + j + 1) / ((c + 2 * j + 1) * (c + 2 * j + 2))).tolist()))


def _hyp2f1_b1(a: float, c: float, z):
    """2F1(a, 1; c+1; z) for 0 < z <= 3/4, where 34 levels converge like 3^-k; each level one / and one +."""
    w, u = 1.0 / z, 1.0
    for k_odd, k_even in _gauss_cf(a, c):
        u = 1.0 + k_odd / (w + k_even / u)
    return 1.0 / u


@lru_cache(maxsize=128)
def _rl_terms(H: float) -> tuple:
    """Per-H constants of ``_rl``: Gamma(H+1/2)^2 (inf past float64), J(3, 1), then per near-series term
    k < 36 (columns) -|p|, -min(k, 2H) and C(H-1/2, k) 3^-k / -|p| (0 at p = 0), and C(H-1/2, 2H) at p = 0."""
    try:  # Gamma(H+1/2) = (H-1/2) Gamma(H-1/2) from the exact H - 1/2, where H + 1/2 may round at large H
        gamma2 = ((H - 0.5) * math.gamma(H - 0.5) if H > 1 else math.gamma(H + 0.5)) ** 2
    except OverflowError:
        gamma2 = math.inf
    k = np.arange(36.0)
    binom = np.cumprod(np.r_[1.0, (H - 0.5 - k[:-1]) / k[1:]])
    q = -np.abs(2.0 * H - k)
    j31 = np.float64(12.0) ** (H - 0.5) * 3.0 * _hyp2f1_b1(0.5 - H, H + 0.5, 0.75) / (H + 0.5)
    weight = binom * 3.0 ** -k / np.where(q == 0, -math.inf, q)
    return gamma2, j31, q[:, None], -np.minimum(k, 2.0 * H)[:, None], weight[:, None], binom[q == 0].sum()


def _rl_near(H: float, m, g):
    """J(m, g) for m > 3g > 0, split at 3g: g^(2H) J(3, 1) + sum_k C(H-1/2, k) g^k (m^p - (3g)^p)/p, p = 2H - k,
    L = log(m/3g): m^(2H) C 3^-k e^(-min(k,2H)L) expm1(-|p|L)/-|p|, or g^(2H) C L at p = 0, summed pairwise."""
    _, j31, q, a, weight, binom0 = _rl_terms(H)
    L = np.log(m / (3.0 * g))
    e = np.expm1(q * L) * np.exp(a * L) * weight
    while len(e) > 1:  # rows i and i + ceil(n/2) are added, the middle one kept when n is odd
        e[:len(e) // 2] += e[(len(e) + 1) // 2:]
        e = e[:(len(e) + 1) // 2]
    return m ** (2.0 * H) * e[0] + g ** (2.0 * H) * (j31 + binom0 * L)


def _rl(H: float, lo, hi, gap):
    """J(m, g) = integral_0^m x^(H-1/2) (x + g)^(H-1/2) dx, Gamma(H+1/2)^2 times the Riemann-Liouville R(lo, hi),
    with m = lo, g = gap, for every H > 0: m^(2H)/(2H) on the diagonal, m^(H+1/2) M^(H-1/2) 2F1(1/2-H, 1; H+3/2; z)
    / (H+1/2) for z = m/M <= 3/4 (H - 1/2 is exact where H + 1/2 may round), else ``_rl_near``, each on its pairs.
    Against 40-digit mpmath, relative gaps from one ulp to 1e6: within 2e-15 for H <= 3.5, 2.1e-15 up to H = 10."""
    J = lo ** (2.0 * H) / (2.0 * H)
    z = lo / hi
    far, near = z <= 0.75, np.flatnonzero((z > 0.75) & (gap > 0))
    if far.any():
        m, big = lo[far], hi[far]
        J[far] = m ** (H - 0.5) * big ** (H - 0.5) * m * _hyp2f1_b1(0.5 - H, H + 0.5, z[far]) / (H + 0.5)
    for block in (near[i:i + 4096] for i in range(0, near.size, 4096)):  # the series' 36 rows: 2^12 pairs at most
        J[block] = _rl_near(H, lo[block], gap[block])
    return J


def _formula(spec: ProcessSpec, tol: float, budget: int) -> Callable:
    """The covariance of ``spec`` as a function of (lo, hi, gap) with 0 < lo <= hi, gap = hi - lo."""
    H, fam = spec.H, spec.family
    if fam == Family.WHITE_NOISE:
        return lambda lo, hi, gap: np.where(lo == hi, hi ** (2.0 * H), 0.0)
    if fam == Family.CANONICAL:
        c = spec.c
        return lambda lo, hi, gap: hi ** (2.0 * H + c) * lo ** (-c)
    if fam == Family.FBM:
        return lambda lo, hi, gap: 0.5 * (lo ** (2 * H) + hi ** (2 * H) - gap ** (2 * H))
    if fam == Family.SUBFBM:
        return lambda lo, hi, gap: (lo ** (2 * H) + hi ** (2 * H)
                                    - 0.5 * ((lo + hi) ** (2 * H) + gap ** (2 * H)))
    if fam == Family.BIFBM:
        ht, kt = spec.htilde, spec.ktilde
        return lambda lo, hi, gap: 2.0 ** (-kt) * ((lo ** (2 * ht) + hi ** (2 * ht)) ** kt
                                                   - gap ** (2 * ht * kt))
    if fam == Family.RIEMANN_LIOUVILLE:
        return lambda lo, hi, gap: _rl(H, lo, hi, gap) / _rl_terms(H)[0]
    beta, g = spec.beta, spec.g  # volterra-g
    if g.kind == "const":
        # a^2 (st)^(H-1/2-beta) integral_0^m ((s-u)(t-u))^beta du, the integral J of _rl at beta + 1/2

        def const(lo, hi, gap):
            J = _rl(beta + 0.5, lo, hi, gap)
            # the base stays an array (numpy's scalar ** rounds differently) and is 1 where J underflows
            return g.a * g.a * np.where(J > 0, lo * hi, 1.0) ** (H - 0.5 - beta) * J

        return const
    r11 = volterra_g_variance(spec)

    def log_pow(lo, hi, gap):
        out = np.where(lo == hi, r11 * hi ** (2.0 * H), 0.0)  # R(s, s) = s^(2H) int F^2
        off = lo != hi
        if np.any(off):
            out[off] = _volterra_g_pairs(spec, lo[off], hi[off], np.asarray(gap)[off], tol, budget)
        return out

    return log_pow


# ---------------------------------------------------------------------------
# the l profile: R(s, s(1+u)) = R(1,1) s^(2H) l(u), l(0) = 1
# ---------------------------------------------------------------------------

L_FORM_FAMILIES = frozenset({Family.FBM, Family.SUBFBM, Family.BIFBM, Family.RIEMANN_LIOUVILLE})
"""The families whose off-diagonal profile :func:`eval_l` evaluates."""


def eval_l(spec: ProcessSpec, u):
    """Normalized off-diagonal profile l(u) = R(1, 1+u) / R(1, 1), with l(0) = 1 exactly.

    Supported families: ``L_FORM_FAMILIES``.  The profile is the family's
    covariance formula itself, read by ``make_kernel``'s kernel.
    Consistency contract: R(s, s(1+u)) = R(1,1) * s^(2H) * l(u).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr >= 0) & (u_arr < math.inf)):  # nan fails both
        raise ParameterError("u must be nonnegative and finite")
    if spec.family not in L_FORM_FAMILIES:
        raise ParameterError(f"eval_l does not support family {spec.family.value!r}")
    out = make_kernel(spec).l_profile(np.atleast_1d(u_arr))  # a scalar u as a 1-element array, as the kernel
    return float(out[0]) if u_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Volterra representation of the canonical family (c < -H strictly)
# ---------------------------------------------------------------------------

def volterra_kernel(H: float, c: float, s, t):
    """K(s, t) = sqrt(-2(c+H)) t^(H-1/2) (s/t)^(-c-H-1/2) for 0 <= s <= t."""
    if not H > 0:
        raise ParameterError(f"H must be positive, got {H!r}")
    if math.isinf(c) or not c < -H:
        raise ParameterError(f"Volterra kernel requires finite c < -H, got c={c!r}, H={H!r}")
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not np.all((t > 0) & (t < math.inf)):  # nan fails both
        raise ParameterError("t must be positive and finite")
    if not np.all((s >= 0) & (s <= t)):
        raise ParameterError("requires 0 <= s <= t")
    coef = math.sqrt(-2.0 * (c + H))
    expo = -c - H - 0.5
    ratio = s / t
    with np.errstate(divide="ignore"):
        out = coef * t ** (H - 0.5) * ratio**expo
    return float(out) if np.ndim(out) == 0 else out


def isometry_residual(H: float, c: float, s: float, t: float) -> float:
    """| integral_0^(s^t) K(u,s) K(u,t) du  -  R_can(s,t) |.

    The integrand is a pure power u^(q-1) with q = -2(c+H) > 0, so it goes
    through :func:`integrate_power_upper` over x = (s^t) - u, which puts that
    power at the upper limit, where ``dist`` is u itself, with the default
    tolerance ``DEFAULT_TOL`` and budget ``DEFAULT_BUDGET``.  K is evaluated
    through :func:`volterra_kernel` so the check exercises the same code path
    users call.
    """
    if not (s > 0 and t > 0):
        raise ParameterError("s and t must be positive")
    if math.isinf(c) or not c < -H:
        raise ParameterError(f"isometry check requires finite c < -H, got c={c!r}, H={H!r}")
    q = -2.0 * (c + H)
    quad = integrate_power_upper(lambda x, u, _: volterra_kernel(H, c, u, s) * volterra_kernel(H, c, u, t),
                                 0.0, min(s, t), q - 1.0, DEFAULT_TOL, DEFAULT_BUDGET)
    return abs(quad.value - make_kernel(ProcessSpec.canonical(H, c))(s, t))


# ---------------------------------------------------------------------------
# CovKernel: a spec and its covariance formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovKernel:
    """A process spec and its covariance ``formula(lo, hi, gap)``, 0 < lo <= hi, gap = hi - lo; R(s, t),
    H, the label, R(1, 1) and the profile ``l_profile(u)`` = R(1, 1+u) / R(1, 1) are read from these two."""

    spec: ProcessSpec
    formula: Callable = field(repr=False)

    def __call__(self, s, t):
        return _on_quadrant(self.formula, s, t)

    @property
    def H(self) -> float:
        return self.spec.H

    @property
    def r11(self) -> float:
        """R(1, 1): the kernel at (1, 1), the constant factor of the canonical family."""
        return self(1.0, 1.0)

    def l_profile(self, u):
        """l(u) = formula(1, 1+u, u) / formula(1, 1, 0), the gap u passed exactly, not as fl(1+u) - 1;
        the denominator is the numerator's own computation at u = 0, so l(0) = 1."""
        one, zero = np.ones_like(u), np.zeros_like(u)
        return self.formula(one, one + u, u) / self.formula(one, one + zero, zero)

    def label(self) -> str:
        return self.spec.label()


def _volterra_g_pairs(spec: ProcessSpec, m: np.ndarray, big: np.ndarray, gap: np.ndarray, tol: float, budget: int):
    """(m M)^(H-1/2) integral_0^m F(u/m) F(u/M) du for 0 < m < M, gap = M - m,
    F(x) = (1-x)^beta g(x), all pairs integrated as one batch; each factor is
    evaluated from its own gap 1 - u/m = dist/m or 1 - u/M = (gap + dist)/M."""
    F = spec.weight_at_gap

    def f2(u, dist, i):
        return F(dist / m[i]) * F((gap[i] + dist) / big[i])

    quad = integrate_power_upper(f2, 0.0, m, spec.beta, tol, budget)
    return (m * big) ** (spec.H - 0.5) * quad.value


def volterra_g_variance(spec: ProcessSpec) -> float:
    """int_0^1 F^2 for F(x) = (1-x)^beta g(x): a^2/(2beta+1) for g = a, (2k)!/(2beta+1)^(2k+1) for log^k.

    Where float64 cannot hold a term or the value, :class:`NumericalError` names the spec.
    """
    if spec.family != Family.VOLTERRA_G:
        raise ParameterError("variance integral applies to the volterra-g family")
    beta, g = spec.beta, spec.g
    try:
        if g.kind == "const":
            value = g.a**2 / (2.0 * beta + 1.0)
        else:
            value = math.factorial(2 * g.k) / (2.0 * beta + 1.0) ** (2 * g.k + 1)
    except (OverflowError, ZeroDivisionError):  # a^2 or (2k)! too large, or the power underflowing to 0
        value = math.inf
    if not value < math.inf:
        raise NumericalError(f"int_0^1 F^2 of {spec.label()} is not representable in float64")
    return value


def make_kernel(spec: ProcessSpec, tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET) -> CovKernel:
    """Build the evaluatable covariance kernel for a process spec.

    ``tol`` and ``budget`` reach only the adaptive quadrature of off-diagonal
    log-pow volterra-g pairs, but both are checked for every family: ``tol``
    must be positive and finite, ``budget`` an integer >= 1.
    """
    check_quadrature_args(tol, budget)
    return CovKernel(spec, _formula(spec, tol, budget))
