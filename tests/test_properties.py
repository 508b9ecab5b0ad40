"""Kernel properties on random (s, t, a), one strategy per family, and
round-trips of the text formats.

Every covariance here is symmetric, H-self-similar (R(as, at) = a^(2H) R(s, t))
and zero on the axes.  Riemann-Liouville switches formulas at z = m/M = 1/2
for H < 1/2, and the two must meet there.  Spec strings and config files
parse back to what was formatted.  The p-variation trichotomy reads every
dyadic level off one ensemble on the finest grid, so two level lists with the
same finest n agree exactly on the levels they share.  A command line with
one corrupted token exits 2 or 3 with one stderr line.  Examples are
derandomized, so a run is reproducible.
"""

import contextlib
import io
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ssgm import (Family, GFunction, ProcessSpec,  # noqa: E402
                  format_spec_string, make_kernel, parse_spec_string,
                  pvariation_trichotomy)
from ssgm.cli import main  # noqa: E402
from ssgm.config import (GridConfig, MCConfig, RunConfig,  # noqa: E402
                         ToleranceConfig, parse_config, serialize_config)

_TOL = 1e-10  # make_kernel's absolute quadrature tolerance (log-pow volterra-g only)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_SPECS = {
    Family.CANONICAL: st.builds(lambda H, gap: ProcessSpec.canonical(H, -H - gap),
                                _floats(0.05, 2.0), _floats(0.0, 5.0)),
    Family.WHITE_NOISE: st.builds(ProcessSpec.white_noise, _floats(0.05, 2.0)),
    Family.FBM: st.builds(ProcessSpec.fbm, _floats(0.02, 0.98)),
    Family.SUBFBM: st.builds(ProcessSpec.sub_fbm, _floats(0.02, 0.98)),
    Family.BIFBM: st.builds(lambda ht, kt: ProcessSpec.bi_fbm(ht, kt),
                            _floats(0.02, 0.98), _floats(0.02, 1.0)),
    Family.RIEMANN_LIOUVILLE: st.builds(ProcessSpec.riemann_liouville, _floats(0.02, 3.0)),
    Family.VOLTERRA_G: st.one_of(
        st.builds(lambda H, beta, a: ProcessSpec.volterra_g(H, beta, GFunction.const(a)),
                  _floats(0.05, 1.5), _floats(-0.45, 3.0), _floats(0.1, 3.0)),
        st.builds(lambda H, beta, k: ProcessSpec.volterra_g(H, beta, GFunction.log_pow(k)),
                  _floats(0.1, 1.0), _floats(0.0, 2.0), st.integers(1, 2)),
    ),
}
_FAMILIES = sorted(_SPECS, key=lambda f: f.value)
_TIMES = _floats(0.01, 100.0)
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _quad_slack(spec, s, t):
    """Absolute error a log-pow pair may carry: (st)^(H-1/2) times the integral's
    tolerance, with a factor 10 because the tolerance bounds an error estimate."""
    if spec.family == Family.VOLTERRA_G and spec.g.kind == "log-pow" and s != t:
        return 10.0 * _TOL * (s * t) ** (spec.H - 0.5)
    return 0.0


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
def test_symmetry(family):
    @_SETTINGS
    @given(_SPECS[family], _TIMES, _TIMES)
    def check(spec, s, t):
        k = make_kernel(spec)
        a, b = float(k(s, t)), float(k(t, s))
        assert abs(a - b) <= 1e-14 * abs(a)

    check()


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
def test_self_similarity(family):
    @_SETTINGS
    @given(_SPECS[family], _TIMES, _TIMES, _floats(0.01, 100.0))
    def check(spec, s, t, a):
        k = make_kernel(spec)
        lhs = float(k(a * s, a * t))
        rhs = a ** (2.0 * spec.H) * float(k(s, t))
        # rounding is relative to the largest term, which the diagonal bounds
        scale = a ** (2.0 * spec.H) * max(abs(float(k(s, s))), abs(float(k(t, t))))
        slack = _quad_slack(spec, a * s, a * t) + a ** (2.0 * spec.H) * _quad_slack(spec, s, t)
        assert abs(lhs - rhs) <= 1e-12 * scale + slack

    check()


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
def test_zero_on_axes(family):
    @_SETTINGS
    @given(_SPECS[family], _TIMES)
    def check(spec, t):
        k = make_kernel(spec)
        assert float(k(0.0, t)) == 0.0
        assert float(k(t, 0.0)) == 0.0
        assert float(k(0.0, 0.0)) == 0.0

    check()


@_SETTINGS
@given(_floats(0.01, 0.49), _floats(0.01, 100.0))
def test_rl_continuous_across_branch_switch(H, big):
    # z = m/M = 1/2 exactly takes the direct 2F1; one ulp above it takes z -> 1 - z
    m = 0.5 * big
    k = make_kernel(ProcessSpec.riemann_liouville(H))
    at = float(k(m, big))
    above = float(k(math.nextafter(m, math.inf), big))
    below = float(k(math.nextafter(m, 0.0), big))
    assert abs(above - at) <= 1e-13 * at
    assert abs(below - at) <= 1e-13 * at


def test_every_family_has_a_strategy():
    assert set(_SPECS) == set(Family)


# spec strings also spell the white-noise limit c = -inf
_ROUND_TRIP_SPECS = dict(_SPECS)
_ROUND_TRIP_SPECS[Family.CANONICAL] = st.one_of(
    _SPECS[Family.CANONICAL],
    st.builds(lambda H: ProcessSpec.canonical(H, -math.inf), _floats(0.05, 2.0)))


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
def test_spec_string_round_trip(family):
    @_SETTINGS
    @given(_ROUND_TRIP_SPECS[family])
    def check(spec):
        text = format_spec_string(spec)
        assert parse_spec_string(text) == spec
        assert format_spec_string(parse_spec_string(text)) == text

    check()


# specs as a caller may build them: numpy-scalar fields, a family named by its value, the canonical
# limit c = -inf, and a bfbm H anywhere within the 1e-12 check of htilde * ktilde
_f64 = np.float64
_RAW_SPECS = {
    Family.CANONICAL: st.builds(lambda H, gap: ProcessSpec(Family.CANONICAL, _f64(H), c=_f64(-H - gap)),
                                _floats(0.05, 2.0), _floats(0.0, 5.0) | st.just(math.inf)),
    Family.BIFBM: st.builds(lambda ht, kt, rel: ProcessSpec(Family.BIFBM, _f64(ht * float(kt) * (1.0 + rel)),
                                                            htilde=_f64(ht), ktilde=kt),
                            _floats(0.02, 0.98), _floats(0.02, 1.0).map(np.float32), _floats(-9e-13, 9e-13)),
    Family.VOLTERRA_G: st.one_of(
        st.builds(lambda H, beta, a: ProcessSpec(Family.VOLTERRA_G, _f64(H), beta=_f64(beta),
                                                 g=GFunction("const", a=_f64(a))),
                  _floats(0.05, 1.5), _floats(-0.45, 3.0), _floats(0.1, 3.0)),
        st.builds(lambda H, beta, k: ProcessSpec(Family.VOLTERRA_G, _f64(H), beta=np.int64(beta),
                                                 g=GFunction("log-pow", k=np.int64(k))),
                  _floats(0.1, 1.0), st.integers(0, 2), st.integers(1, 3)),
    ),
}
for _family in (Family.WHITE_NOISE, Family.FBM, Family.SUBFBM, Family.RIEMANN_LIOUVILLE):
    _RAW_SPECS[_family] = st.builds(lambda family, H: ProcessSpec(family, _f64(H)),
                                    st.sampled_from([_family, _family.value]), _floats(0.02, 0.98))


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
def test_every_spec_is_its_label(family):
    # whatever a spec was built from, it is the spec its label parses to, and a config file keeps it
    @_SETTINGS
    @given(_RAW_SPECS[family])
    def check(spec):
        assert parse_spec_string(spec.label()) == spec
        cfg = RunConfig(spec, GridConfig(times=(1.0,)))
        assert parse_config(serialize_config(cfg)) == cfg

    check()


_TRICHOTOMY_SPECS = st.sampled_from([
    ProcessSpec.canonical(0.5, -1.0),  # timechange
    ProcessSpec.fbm(0.3),  # circulant
    ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)),  # poly
    ProcessSpec.volterra_g(0.25, 0.5, GFunction.log_pow(1)),  # midpoint volterra
])


@_SETTINGS
@given(spec=_TRICHOTOMY_SPECS, top=st.integers(2, 9), data=st.data(),
       n_paths=st.integers(2, 6), seed=st.integers(0, 2**32), p=_floats(1.0, 4.0))
def test_trichotomy_shared_levels_agree(spec, top, data, n_paths, seed, p):
    lower = st.sets(st.integers(1, top - 1), min_size=1)
    levels_a = sorted(data.draw(lower)) + [top]
    levels_b = sorted(data.draw(lower)) + [top]
    rep_a = pvariation_trichotomy(spec, p, [2**k for k in levels_a], n_paths, seed)
    rep_b = pvariation_trichotomy(spec, p, [2**k for k in levels_b], n_paths, seed)
    for k in set(levels_a) & set(levels_b):
        i, j = levels_a.index(k), levels_b.index(k)
        assert rep_a.mean_sums[i] == rep_b.mean_sums[j]
        assert rep_a.se_sums[i] == rep_b.se_sums[j]


_POSITIVE = _floats(1e-6, 1e6)
_GRIDS = st.one_of(
    st.builds(lambda ts: GridConfig(times=tuple(sorted(ts))),
              st.sets(_floats(0.0, 1e3), min_size=1, max_size=6)),
    st.builds(lambda start, ratio, points: GridConfig(geometric=(start, start * ratio, points)),
              _floats(1e-3, 10.0), _floats(1.5, 100.0), st.integers(1, 50)),
)
_CONFIGS = st.builds(
    RunConfig,
    process=st.one_of(*_ROUND_TRIP_SPECS.values()),
    grid=_GRIDS,
    mc=st.builds(MCConfig, n_paths=st.integers(1, 10**6),
                 seed=st.none() | st.integers(0, 2**64 - 1),
                 inner_steps=st.none() | st.integers(64, 4096)),
    tolerances=st.builds(ToleranceConfig, quad_tol=_POSITIVE, psd_tol=_POSITIVE),
)


@_SETTINGS
@given(_CONFIGS)
def test_config_round_trip(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


# one small valid command per subcommand, each exiting 0
_BASE_ARGV = [
    ["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "1", "--t", "2"],
    ["posdef", "--kernel", "fbm:H=0.3", "--grid", "1,2", "--psd-tol", "1e-10"],
    ["markov-test", "--kernel", "canonical:H=0.5,c=-1", "--grid", "1,2,3"],
    ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "2", "--seed", "1", "--scheme", "cholesky"],
    ["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "2^3..2^4", "--paths", "2", "--seed", "1"],
    ["asym", "--spec", "rl:H=0.25", "--points", "12"],
]
_BAD_NUMBERS = ["x", "nan", "1e", "1..2", "0x10", "1,,2"]


@st.composite
def _malformed_argv(draw):
    """A base command with one token corrupted: a malformed number, a bad choice,
    a missing value, an unknown flag or a spec key the family does not take."""
    argv = list(draw(st.sampled_from(_BASE_ARGV)))
    values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
    kind = draw(st.sampled_from(["number", "choice", "missing", "flag", "spec_key"]))
    if kind == "number":
        argv[draw(st.sampled_from(values))] = draw(st.sampled_from(_BAD_NUMBERS))
    elif kind == "choice":  # the subcommand, or sample's --scheme
        at = draw(st.sampled_from([0] + [i + 1 for i, a in enumerate(argv) if a == "--scheme"]))
        argv[at] = draw(st.sampled_from(["foo", "Cholesky", "circ", "kernel_eval"]))
    elif kind == "missing":
        del argv[draw(st.sampled_from(values))]
    elif kind == "flag":  # none of these abbreviates a real flag
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "--zzz=1", "--threadz"])))
    else:  # every base spec follows the subcommand's spec flag; none takes any of these keys
        argv[2] += f",{draw(st.sampled_from(['zz', 'beta', 'htilde', 'ktilde', 'g', 'h']))}=1"
    return argv


@_SETTINGS
@given(_malformed_argv())
def test_malformed_argv_exits_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # a SystemExit or any other exception fails the property
    assert rc in (2, 3)
    assert out.getvalue() == ""
    assert err.getvalue().startswith("ssgm: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
