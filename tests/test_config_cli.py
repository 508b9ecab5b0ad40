import json
import math
import pathlib

import pytest

from ssgm import GFunction, ProcessSpec
from ssgm.cli import main, report_schema_version
from ssgm.config import (GridConfig, MCConfig, RunConfig, ToleranceConfig,
                         parse_config, serialize_config)
from ssgm.errors import ParameterError


# ---------------------------------------------------------------------------
# RunConfig round trips
# ---------------------------------------------------------------------------

def _configs():
    yield RunConfig(
        ProcessSpec.canonical(0.7, -1.5),
        GridConfig(geometric=(0.1, 2.0, 16)),
        MCConfig(n_paths=50000, seed=42, inner_steps=256),
        ToleranceConfig(),
    )
    yield RunConfig(
        ProcessSpec.canonical(0.5, float("-inf")),
        GridConfig(times=(0.5, 1.0, 2.0)),
    )
    yield RunConfig(
        ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)),
        GridConfig(times=(1.0,)),
        MCConfig(n_paths=20, seed=7, inner_steps=64),
    )
    yield RunConfig(
        ProcessSpec.bi_fbm(0.25, 0.5),
        GridConfig(geometric=(0.05, 5.0, 20)),
        tolerances=ToleranceConfig(quad_tol=1e-8, psd_tol=1e-12),
    )


@pytest.mark.parametrize("cfg", list(_configs()), ids=lambda c: c.process.label())
def test_round_trip_identity(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_minus_inf_spelled_in_config():
    cfg = RunConfig(ProcessSpec.canonical(0.5, float("-inf")), GridConfig(times=(1.0, 2.0)))
    text = serialize_config(cfg)
    assert "c = -inf" in text
    back = parse_config(text)
    assert math.isinf(back.process.c)


def test_full_precision_round_trip():
    H = 0.1 + 0.2  # 0.30000000000000004
    cfg = RunConfig(ProcessSpec.fbm(H), GridConfig(times=(1.0 / 3.0, 2.0 / 3.0)))
    back = parse_config(serialize_config(cfg))
    assert back.process.H == H
    assert back.grid.times == (1.0 / 3.0, 2.0 / 3.0)


def test_unknown_blocks_ignored():
    # output paths are command-line flags; an [output] block parses as before and is ignored
    text = "[process]\nfamily = fbm\nH = 0.3\n[grid]\ntimes = 1 2\n[output]\ncsv = a.csv\njson = a.json\n"
    assert parse_config(text) == RunConfig(ProcessSpec.fbm(0.3), GridConfig(times=(1.0, 2.0)))


def test_grid_config_validation():
    with pytest.raises(ParameterError):
        GridConfig()
    with pytest.raises(ParameterError):
        GridConfig(times=(1.0,), geometric=(0.1, 1.0, 5))
    with pytest.raises(ParameterError):
        parse_config("[process]\nfamily = fbm\nH = 0.5\n")  # missing grid


def test_schema_version_frozen():
    assert report_schema_version() == "1"


def test_report_schema_matches_golden(tmp_path):
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "markov_report_schema.json").read_text()
    )
    out = tmp_path / "rep.json"
    rc = main(["markov-test", "--kernel", "canonical:H=0.7,c=-0.9", "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == golden["version"]
    assert sorted(payload.keys()) == golden["keys"]
    assert sorted(payload["doob"].keys()) == golden["doob_keys"]
    assert sorted(payload["fit"].keys()) == golden["fit_keys"]


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def test_cli_kernel_eval_point(capsys):
    rc = main(["kernel-eval", "--kernel", "canonical:H=0.5,c=-1", "--s", "2", "--t", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2.0000000000000000e+00" in out


def test_cli_invalid_parameters_exit_2(capsys):
    rc = main(["kernel-eval", "--kernel", "canonical:H=0.5,c=-0.2", "--s", "1", "--t", "2"])
    assert rc == 2
    assert "invalid parameters" in capsys.readouterr().err


_GOOD_HEAD = "[process]\nfamily = fbm\nH = 0.3\n[grid]\n"


@pytest.mark.parametrize("text", [
    _GOOD_HEAD + "geometric = 0.1 2 8\n[mc]\nn_paths = abc\n",
    _GOOD_HEAD + "geometric = 0.1 2 x\n",
    _GOOD_HEAD + "geometric = 0.1 2 8\n[tolerances]\nquad_tol = tiny\n",
    "family = fbm\nH = 0.3\n",  # no section header
    None,  # the file does not exist
])
def test_cli_malformed_config_exit_2(tmp_path, capsys, text):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    rc = main(["kernel-eval", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ssgm: invalid parameters:")
    assert err.count("\n") == 1


def test_cli_numerical_failure_exit_3(capsys):
    # a tiny evaluation budget cannot meet the default tolerance
    rc = main(["kernel-eval", "--kernel", "volterra-g:H=0.25,beta=1.0,g=log-pow:1",
               "--s", "1", "--t", "2", "--budget", "5"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


_LOG_POW = "volterra-g:H=0.25,beta=1.0,g=log-pow:1"


@pytest.mark.parametrize("argv", [
    ["posdef", "--kernel", "fbm:H=0.25", "--grid", "1,2,3", "--psd-tol", "nan"],
    ["posdef", "--kernel", "fbm:H=0.25", "--grid", "1,2,3", "--psd-tol", "-1"],
    ["kernel-eval", "--kernel", _LOG_POW, "--tol", "0"],
    ["kernel-eval", "--kernel", _LOG_POW, "--tol", "nan"],
    ["kernel-eval", "--kernel", _LOG_POW, "--tol=-1e-10"],
    ["kernel-eval", "--kernel", _LOG_POW, "--s", "1", "--t", "2", "--tol", "inf"],
    ["markov-test", "--kernel", _LOG_POW, "--tol", "nan"],
    ["asym", "--spec", "rl:H=0.25", "--tol", "inf"],
    # closed-form pairs and families: make_kernel checks the tolerance for all of them
    ["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "1", "--t", "2", "--tol", "nan"],
    ["kernel-eval", "--kernel", _LOG_POW, "--s", "1", "--t", "1", "--tol", "0"],
    ["markov-test", "--kernel", "rl:H=0.25", "--tol", "0"],
    ["posdef", "--kernel", "fbm:H=0.25", "--grid", "1,2,3", "--tol", "inf"],
    # commands that integrate nothing still check --tol
    ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "2", "--seed", "1", "--tol", "nan"],
    ["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "2^3..2^4", "--paths", "2", "--seed", "1",
     "--tol", "nan"],
    ["posdef", "--alpha", "0.3", "--beta", "0.1", "--grid", "1,2", "--tol", "0"],
])
def test_cli_bad_tolerance_exit_2(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ssgm: invalid parameters:") and "tolerance" in err
    assert err.count("\n") == 1


def test_cli_asym_zero_noise_floor_tolerance(capsys):
    # asym's --tol is a noise floor, not a quadrature tolerance: 0 is allowed
    assert main(["asym", "--spec", "rl:H=0.25", "--tol", "0"]) == 0


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_cli_variation_nonfinite_p_exit_2(capsys, p):
    rc = main(["variation", "--spec", "fbm:H=0.75", "--p", p, "--n", "2^7..2^8",
               "--paths", "4", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("ssgm: invalid parameters: p must be finite")
    assert captured.err.count("\n") == 1


def test_cli_config_nan_quad_tol_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nfamily = volterra-g\nH = 0.25\nbeta = 1.0\ng = log-pow:1\n"
                   "[grid]\ntimes = 1 2 3\n[tolerances]\nquad_tol = nan\n")
    assert main(["kernel-eval", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("ssgm: invalid parameters: quadrature tolerance")


def test_cli_sample_config_zero_quad_tol_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nfamily = fbm\nH = 0.3\n[grid]\ntimes = 1 2\n"
                   "[mc]\nn_paths = 2\nseed = 1\n[tolerances]\nquad_tol = 0\n")
    assert main(["sample", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ssgm: invalid parameters: quadrature tolerance")
    assert captured.err.count("\n") == 1


def test_cli_grid_budget_exit_3_names_pair(capsys):
    rc = main(["kernel-eval", "--kernel", _LOG_POW, "--budget", "20"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("ssgm: numerical failure: kernel evaluation failed at grid indices (0,1), "
                          "times (0.05, ")
    assert err.count("\n") == 1


def test_cli_config_tolerances(tmp_path, capsys):
    # quad_tol = 0.01 from [tolerances] fits a budget of 20 evaluations; 1e-10 does not
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nfamily = volterra-g\nH = 0.25\nbeta = 1.0\ng = log-pow:1\n"
                   "[grid]\ntimes = 1 2\n[tolerances]\nquad_tol = 0.01\npsd_tol = 1e-6\n")
    argv = ["kernel-eval", "--config", str(cfg), "--s", "1", "--t", "2", "--budget", "20"]
    assert main(argv) == 0
    assert main(argv + ["--tol", "1e-10"]) == 3  # the flag wins over the file
    assert "numerical failure" in capsys.readouterr().err
    out = tmp_path / "psd.json"
    for extra, psd_tol in (([], 1e-6), (["--psd-tol", "1e-9"], 1e-9)):
        assert main(["posdef", "--config", str(cfg), "--json", str(out)] + extra) == 0
        assert json.loads(out.read_text())["tol"] == psd_tol


def test_cli_markov_canonical(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["markov-test", "--kernel", "canonical:H=0.7,c=-0.9", "--json", str(out)])
    assert rc == 0
    assert "MarkovCanonical" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "MarkovCanonical"
    assert payload["version"] == "1"
    assert payload["seed"] == "n/a"
    assert payload["doob"]["max"] <= 1e-10


def test_cli_markov_sfbm_not_markov(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["markov-test", "--kernel", "sfbm:H=0.25", "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "NotMarkov"
    assert payload["asym"]["predicted_exponent"] == -1.5


def test_cli_posdef_witness(tmp_path, capsys):
    out = tmp_path / "psd.json"
    rc = main(["posdef", "--alpha", "0.3", "--beta", "0.1", "--grid", "1,2", "--json", str(out)])
    assert rc == 0
    assert "NotPSD" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "NotPSD"
    assert payload["witness"] is not None
    assert payload["quadratic_form"] < 0


def test_cli_posdef_kernel_psd(tmp_path, capsys):
    rc = main(["posdef", "--kernel", "canonical:H=0.5,c=-1", "--grid", "geometric:0.5,4,6"])
    assert rc == 0
    assert "PSD" in capsys.readouterr().out


def test_cli_sample_and_config(tmp_path):
    cfg_text = """
[process]
family = canonical
H = 0.7
c = -1.5

[grid]
geometric = 0.1 2.0 8

[mc]
n_paths = 50
seed = 42
"""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    csv_path = tmp_path / "paths.csv"
    rc = main(["sample", "--config", str(cfg_file), "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 51  # header + 50 paths


def test_cli_sample_requires_seed(tmp_path, capsys):
    rc = main(["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "5"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_cli_variation(tmp_path, capsys):
    csv_path = tmp_path / "var.csv"
    rc = main(["variation", "--spec", "canonical:H=0.5,c=-1", "--p", "2",
               "--n", "2^8..2^10", "--paths", "16", "--seed", "3",
               "--csv", str(csv_path), "--json", str(tmp_path / "var.json")])
    assert rc == 0
    assert "FiniteLimit" in capsys.readouterr().out
    assert csv_path.read_text().startswith("n,mean_S_n,se_S_n\n")
    payload = json.loads((tmp_path / "var.json").read_text())
    assert payload["n_values"] == [256, 512, 1024]
    assert payload["version"] == "1"


def test_cli_asym(capsys):
    rc = main(["asym", "--spec", "rl:H=0.25", "--points", "25"])
    assert rc == 0
    assert "asym" in capsys.readouterr().out


def test_cli_reproducible_csv_across_threads(tmp_path):
    cfg_text = """
[process]
family = canonical
H = 0.7
c = -1.5

[grid]
geometric = 0.1 2.0 6

[mc]
n_paths = 64
seed = 9
"""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    blobs = []
    for workers in ("1", "4", "8"):
        csv_path = tmp_path / f"paths_{workers}.csv"
        rc = main(["sample", "--config", str(cfg_file), "--csv", str(csv_path),
                   "--threads", workers])
        assert rc == 0
        blobs.append(csv_path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("argv", [
    ["kernel-eval", "--kernel", "canonical:H=abc,c=-1", "--s", "1", "--t", "2"],
    ["posdef", "--kernel", "fbm:H=0.3", "--grid", "1,x"],
    ["variation", "--spec", "fbm:H=0.3", "--p", "2", "--n", "2^3..x", "--paths", "4", "--seed", "1"],
], ids=["spec", "grid", "pow"])
def test_cli_malformed_number_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ssgm: invalid parameters:")
    assert err.count("\n") == 1


def test_cli_sample_negative_seed_exit_2(capsys):
    rc = main(["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "5", "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "3", "--seed", "1",
     "--out", "{missing}/x.bin"],
    ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "3", "--seed", "1",
     "--json", "{missing}/x.json"],
    ["markov-test", "--kernel", "fbm:H=0.3", "--json", "{missing}/x.json"],
    ["variation", "--spec", "fbm:H=0.3", "--p", "2", "--n", "2^3..2^4", "--paths", "4",
     "--seed", "1", "--csv", "{missing}/v.csv"],
], ids=["sample_out", "sample_json", "markov_json", "variation_csv"])
def test_cli_unwritable_output_exit_2(tmp_path, argv, capsys):
    missing = tmp_path / "no_such_dir"
    argv = [a.format(missing=missing) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("ssgm: invalid parameters: cannot write")
    assert str(missing) in err
    assert err.count("\n") == 1
    assert captured.out == ""  # refused before any work, so no summary line


@pytest.mark.parametrize("argv", [
    ["sample", "--spec", "fbm:H=0.3", "--grid", "geometric:0.1,2,5", "--paths", "3",
     "--seed", "1", "--scheme", "circulant"],
    ["sample", "--spec", "sfbm:H=0.3", "--grid", "1,2,3", "--paths", "3", "--seed", "1",
     "--scheme", "circulant"],
], ids=["nonuniform_grid", "not_fbm"])
def test_cli_circulant_misuse_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ssgm: invalid parameters:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", ["volterra-g:H=0.25,beta=1.0,g=log-pow:1",
                                  "volterra-g:H=0.25,beta=0.5,g=const:1.0"],
                         ids=["log_pow", "non_integer_beta"])
def test_cli_poly_misuse_exit_2(spec, capsys):
    argv = ["sample", "--spec", spec, "--grid", "1,2,3", "--paths", "3", "--seed", "1",
            "--scheme", "poly"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ssgm: invalid parameters:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_sample_volterra_g_schemes(tmp_path):
    out = tmp_path / "vg.json"
    argv = ["sample", "--spec", "volterra-g:H=0.25,beta=2.0,g=const:0.5", "--grid", "0,0.5,1,3",
            "--paths", "3", "--seed", "1", "--json", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["scheme"] == "poly"
    assert json.loads(out.read_text())["inner_steps"] is None
    assert main(argv + ["--scheme", "volterra", "--inner-steps", "64"]) == 0
    assert json.loads(out.read_text())["scheme"] == "volterra"
    assert json.loads(out.read_text())["inner_steps"] == 64


def test_cli_sample_canonical_volterra_scheme_exit_2(capsys):
    rc = main(["sample", "--spec", "canonical:H=0.7,c=-1.5", "--grid", "0.5,1,2", "--paths", "3",
               "--seed", "1", "--scheme", "volterra"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("ssgm: invalid parameters: volterra scheme applies to volterra-g")
    assert captured.err.count("\n") == 1


def test_cli_sample_fbm_uniform_grid_uses_circulant(tmp_path, capsys):
    out = tmp_path / "fbm.json"
    argv = ["sample", "--spec", "fbm:H=0.3", "--grid", "0,0.25,0.5,0.75,1", "--paths", "3",
            "--seed", "1", "--json", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["scheme"] == "circulant"
    assert main(argv + ["--scheme", "cholesky"]) == 0
    assert json.loads(out.read_text())["scheme"] == "cholesky"


# every subcommand that reads --grid, on degenerate and non-finite grids
_PATHS = ["--paths", "2", "--seed", "1"]
_GRID_ROWS = {
    "sample_canonical": ["sample", "--spec", "canonical:H=0.7,c=-1.5"] + _PATHS,
    "sample_whitenoise": ["sample", "--spec", "white-noise:H=0.3"] + _PATHS,
    "sample_fbm": ["sample", "--spec", "fbm:H=0.3"] + _PATHS,
    "sample_sfbm": ["sample", "--spec", "sfbm:H=0.3"] + _PATHS,
    "sample_bfbm": ["sample", "--spec", "bfbm:htilde=0.5,ktilde=0.5"] + _PATHS,
    "sample_rl": ["sample", "--spec", "rl:H=0.3"] + _PATHS,
    "sample_poly": ["sample", "--spec", "volterra-g:H=0.25,beta=1.0,g=const:1.0"] + _PATHS,
    "sample_midpoint": ["sample", "--spec", "volterra-g:H=0.25,beta=0.5,g=const:1.0"] + _PATHS,
    "sample_volterra": ["sample", "--spec", "volterra-g:H=0.25,beta=1.0,g=const:1.0"] + _PATHS
    + ["--scheme", "volterra"],
    "kernel_eval": ["kernel-eval", "--kernel", "fbm:H=0.25"],
    "posdef": ["posdef", "--kernel", "fbm:H=0.25"],
    "markov_test": ["markov-test", "--kernel", "canonical:H=0.5,c=-1"],
}
_NON_FINITE_GRIDS = ["nan", "inf", "1,inf", "1e400"]


@pytest.mark.parametrize("grid", ["0", *_NON_FINITE_GRIDS, "1,1", "geometric:1,2,0"])
@pytest.mark.parametrize("row", list(_GRID_ROWS))
def test_cli_grid_table_exit_0_or_2(row, grid, capsys):
    rc = main(_GRID_ROWS[row] + [f"--grid={grid}"])  # an uncaught exception fails the test
    err = capsys.readouterr().err
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("ssgm: invalid parameters:") and err.count("\n") == 1
    if grid in _NON_FINITE_GRIDS:
        assert rc == 2
    if grid == "0" and row.startswith("sample"):  # every scheme samples the grid {0} as a zero column
        assert rc == 0
