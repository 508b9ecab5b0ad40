"""One rule for every integer input: ``errors.check_integer``.

Each count, seed, size and exponent is a Python or numpy integer in its range;
a bool or a float (2.0 too) is refused with a ParameterError that names the
input, and a valid numpy integer is recorded as a Python int.
"""

import re

import numpy as np
import pytest

from ssgm import (GFunction, PathEnsemble, ProcessSpec, TimeGrid, ergodic_average, load_ensemble,
                  pvariation_trichotomy, sample_spec, save_ensemble)
from ssgm.cli import main
from ssgm.errors import ParameterError, check_integer
from ssgm.quadrature import integrate_power_upper

GRID = TimeGrid.geometric(0.1, 2.0, 6)
SPEC = ProcessSpec.canonical(0.7, -1.5)
MIDPOINT = ProcessSpec.volterra_g(0.3, 0.5, GFunction.const(1.0))
POLY = ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0))


def _ensemble(seed=1, inner_steps=None, jitter=0.0, scheme="timechange"):
    return PathEnsemble(SPEC, GRID, np.zeros((2, len(GRID))), seed, scheme, inner_steps, jitter)


# input name, a value below its range, a valid numpy integer, the call given a value, and what the
# call records of it (None where nothing is recorded)
_INPUTS = {
    "budget": ("quadrature budget", 0, np.int64(1000),
               lambda v: integrate_power_upper(lambda s, dist, i: np.ones_like(s), 0.0, 1.0, 0.0, 1e-6, v),
               lambda result: None),
    "n_paths": ("n_paths", 0, np.int64(3), lambda v: sample_spec(SPEC, GRID, v, 1), lambda ens: ens.n_paths),
    "seed": ("seed", -1, np.int64(5), lambda v: sample_spec(SPEC, GRID, 2, v), lambda ens: ens.seed),
    "inner_steps": ("inner_steps", 63, np.int64(64),
                    lambda v: sample_spec(MIDPOINT, GRID, 2, 1, scheme="volterra", inner_steps=v),
                    lambda ens: ens.inner_steps),
    "ensemble_seed": ("seed", -1, np.uint64(2**64 - 1), lambda v: _ensemble(seed=v), lambda ens: ens.seed),
    "ensemble_inner_steps": ("inner_steps", 0, np.int32(1), lambda v: _ensemble(inner_steps=v),
                             lambda ens: ens.inner_steps),
    "n_list": ("n_list entry", 1, np.int64(4),
               lambda v: pvariation_trichotomy(ProcessSpec.fbm(0.3), 2.0, [v, 8], 2, 1), lambda rep: rep.n_values[0]),
    "ergodic_n": ("n", 1, np.int64(4), lambda v: ergodic_average(POLY, "square", v, 2, 1), lambda avg: avg.n),
    "log_pow_k": ("log-pow exponent k", 0, np.int64(2), GFunction.log_pow, lambda g: g.k),
    "geometric_points": ("points", 0, np.int64(5), lambda v: TimeGrid.geometric(0.1, 2.0, v), len),
}


@pytest.mark.parametrize("bad", ["2.5", "2.0", "True", "below"])
@pytest.mark.parametrize("key", list(_INPUTS))
def test_integer_input_refuses_a_non_integer_or_out_of_range_value(key, bad):
    name, below, _, call, _ = _INPUTS[key]
    value = {"2.5": 2.5, "2.0": 2.0, "True": True, "below": below}[bad]
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be an integer (>= \d+|in \[\d+, \d+\)), "
                                             rf"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("key", list(_INPUTS))
def test_integer_input_records_a_numpy_integer_as_a_python_int(key):
    _, _, valid, call, read = _INPUTS[key]
    recorded = read(call(valid))
    assert recorded is None or (type(recorded), recorded) == (int, int(valid))


def test_check_integer_bounds():
    assert check_integer(np.uint64(2**64 - 1), "seed", 0, 2**64) == 2**64 - 1
    with pytest.raises(ParameterError, match=r"^seed must be an integer in \[0, 4\), got 4$"):
        check_integer(4, "seed", 0, 4)
    with pytest.raises(ParameterError, match=r"^n must be an integer >= 2, got '3'$"):
        check_integer("3", "n", 2)


def test_motivation_repros_are_refused():
    # each of these ran at a truncated value, or gave a one-point grid, or a raw TypeError
    with pytest.raises(ParameterError, match=r"^n_list entry must be an integer >= 2, got 4\.7$"):
        pvariation_trichotomy(ProcessSpec.fbm(0.3), 2.0, [4.7, 8], 2, 1)
    with pytest.raises(ParameterError, match=r"^log-pow exponent k must be an integer >= 1, got 2\.5$"):
        GFunction.log_pow(2.5)
    for points in (True, 2.5):
        with pytest.raises(ParameterError, match=rf"^points must be an integer >= 1, got {points}$"):
            TimeGrid.geometric(0.1, 1.0, points)


def test_every_built_ensemble_saves_and_loads(tmp_path):
    ens = _ensemble(seed=np.uint64(2**64 - 1), inner_steps=np.int32(1), jitter=np.float64(1e-9), scheme="cholesky")
    save_ensemble(ens, tmp_path / "e.bin")
    loaded = load_ensemble(tmp_path / "e.bin")
    assert (loaded.seed, loaded.inner_steps, loaded.jitter, loaded.scheme) == (2**64 - 1, 1, 1e-9, "cholesky")


@pytest.mark.parametrize("text, message", [
    ("1..2^4", "--n range end must be an integer >= 2, got 1"),
    ("2^-1..2^4", "--n range end must be an integer >= 2, got 0.5"),
])
def test_cli_n_range_ends_refused(text, message, capsys):
    assert main(["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", text, "--paths", "2", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", f"ssgm: invalid parameters: {message}\n")
