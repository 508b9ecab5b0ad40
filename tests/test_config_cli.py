import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ssgm
import ssgm.cli
from ssgm import GFunction, GramMatrix, ProcessSpec, TimeGrid, empirical_cov, load_ensemble, standard_grid
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
    # c = -inf in a canonical [process] block still parses: the spec is white noise, written as such
    cfg = parse_config("[process]\nfamily = canonical\nH = 0.5\nc = -inf\n[grid]\ntimes = 1 2\n")
    assert cfg.process == ProcessSpec.white_noise(0.5)
    text = serialize_config(cfg)
    assert "family = white-noise" in text and "c =" not in text
    assert parse_config(text) == cfg


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
    "[process]\nfamily = fbm\nH = 0.3\nc = -1\n[grid]\ntimes = 1 2\n",  # a key fbm does not take
    _GOOD_HEAD + "times = 1 2\ngeometric = 0.1 2 8\n",  # both grid recipes
    _GOOD_HEAD + "points = 8\n",  # neither grid recipe
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


@pytest.mark.parametrize("argv", [
    ["kernel-eval", "--kernel", _LOG_POW, "--s", "1", "--t", "2", "--budget", "0"],
    ["kernel-eval", "--kernel", _LOG_POW, "--s", "1", "--t", "2", "--budget", "-5"],
    ["kernel-eval", "--kernel", _LOG_POW, "--budget", "0"],
    # closed-form families check --budget as they check --tol
    ["kernel-eval", "--kernel", "fbm:H=0.3", "--budget", "-5"],
    ["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "1", "--t", "2", "--budget", "0"],
])
def test_cli_bad_budget_exit_2(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ssgm: invalid parameters: quadrature budget")
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
    # quad_tol = 0.01 from [tolerances] fits a budget of 100 evaluations; 1e-10 does not
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nfamily = volterra-g\nH = 0.25\nbeta = 1.0\ng = log-pow:1\n"
                   "[grid]\ntimes = 1 2\n[tolerances]\nquad_tol = 0.01\npsd_tol = 1e-6\n")
    argv = ["kernel-eval", "--config", str(cfg), "--s", "1", "--t", "2", "--budget", "100"]
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


def test_cli_sample_computes_covariance_only_for_json(tmp_path, monkeypatch):
    calls = []

    def counting(ens):
        calls.append(ens.n_paths)
        return empirical_cov(ens)

    monkeypatch.setattr(ssgm.cli, "empirical_cov", counting)
    argv = ["sample", "--spec", "fbm:H=0.3", "--grid", "0.5,1,2", "--paths", "5", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "e.bin"), "--csv", str(tmp_path / "e.csv")]) == 0
    assert calls == []
    assert main(argv + ["--json", str(tmp_path / "e.json")]) == 0
    assert calls == [5]
    assert "empirical_cov" in json.loads((tmp_path / "e.json").read_text())


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


@pytest.mark.parametrize("argv", [["asym", "--spec", "rl:H=0.25"], ["markov-test", "--kernel", "fbm:H=0.3"]],
                         ids=["asym", "markov-test"])
def test_cli_failed_power_fit_exits_3(monkeypatch, capsys, argv):
    # the fitter's linear solves fail as NumericalError: exit 3 and one line, no traceback
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", fail)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "ssgm: numerical failure: power fit failed: SVD did not converge\n"


_HUGE_FBM = ["fbm:H=0.9", "--grid", "geometric:1e170,1e180,5"]  # t^(2H) overflows at t ~ 1e172
_NON_FINITE_GRAMS = {
    "posdef_power": ["posdef", "--alpha", "400", "--beta", "-400", "--grid", "geometric:0.05,5,20"],
    "posdef_kernel": ["posdef", "--kernel", *_HUGE_FBM],
    "sample": ["sample", "--spec", *_HUGE_FBM, "--paths", "2", "--seed", "1"],
    "markov_test": ["markov-test", "--kernel", *_HUGE_FBM],
}


@pytest.mark.parametrize("argv", list(_NON_FINITE_GRAMS.values()), ids=list(_NON_FINITE_GRAMS))
def test_cli_non_finite_gram_exits_3(argv, tmp_path):
    # a Gram entry that overflows is a numerical failure naming it: not a LinAlgError
    # traceback, NaN paths, or a Markov verdict read off NaN residuals
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "ssgm.cli", *argv], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (3, "")
    assert re.fullmatch(r"ssgm: numerical failure: Gram entry \(\d+,\d+\) at times \(.*\) is (inf|nan), "
                        r"not finite\n", out.stderr)


_LOG_POW_86 = "volterra-g:H=0.25,beta=1,g=log-pow:86"  # (2k)! = 172! exceeds float64
_INT_F2 = r"int_0\^1 F\^2 of volterra-g:H=0\.25,beta=1\.0,g={} is not representable in float64"
_UNREPRESENTABLE = {
    "kernel_eval_log_pow": (["kernel-eval", "--kernel", _LOG_POW_86, "--s", "0.5", "--t", "2"],
                            _INT_F2.format("log-pow:86")),
    "markov_test_log_pow": (["markov-test", "--kernel", _LOG_POW_86], _INT_F2.format("log-pow:86")),
    "posdef_log_pow": (["posdef", "--kernel", _LOG_POW_86], _INT_F2.format("log-pow:86")),
    "variation_log_pow": (["variation", "--spec", _LOG_POW_86, "--p", "2", "--n", "2^2..2^3", "--paths", "2",
                           "--seed", "1"], _INT_F2.format("log-pow:86")),
    "variation_const": (["variation", "--spec", "volterra-g:H=0.25,beta=1,g=const:1e200", "--p", "2",
                         "--n", "2^2..2^3", "--paths", "2", "--seed", "1"], _INT_F2.format(r"const:1e\+200")),
    "variation_slope": (["variation", "--spec", "fbm:H=0.3", "--p", "2000", "--n", "2^2..2^4", "--paths", "2",
                         "--seed", "1", "--json", "v.json"],
                        r"the mean p-variation sum at n = 8 is inf, not positive and finite, "
                        r"so the log-log slope is undefined"),
    "kernel_eval_point_nan": (["kernel-eval", "--kernel", "rl:H=1e6", "--s", "0.5", "--t", "2", "--json", "k.json"],
                              r"R\(0\.5, 2\.0\) of rl:H=1000000\.0 is nan, not finite"),
    "kernel_eval_point_inf": (["kernel-eval", "--kernel", "volterra-g:H=0.25,beta=1,g=const:1e200", "--s", "1",
                               "--t", "1"], r"R\(1\.0, 1\.0\) of volterra-g:.*g=const:1e\+200 is inf, not finite"),
    "sample_time_change": (["sample", "--spec", "canonical:H=0.5,c=-1e308", "--grid", "0.5,2", "--paths", "3",
                            "--seed", "1", "--json", "J.json"],
                           r"time change at t = 0\.5 is not finite and nondecreasing: dtau = 0\.0, "
                           r"t\^\(2H\+c\) = inf"),
}


@pytest.mark.parametrize("argv, message", list(_UNREPRESENTABLE.values()), ids=list(_UNREPRESENTABLE))
def test_cli_unrepresentable_result_exits_3(argv, message, tmp_path, monkeypatch, capsys):
    # each exited 1 with an OverflowError traceback, or 0 printing or writing inf or nan
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"ssgm: numerical failure: {message}\n", err)
    assert list(tmp_path.iterdir()) == []


def test_cli_escaping_overflow_error_exits_3(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(ssgm.cli, "markov_test", overflow)
    assert main(["markov-test", "--kernel", "fbm:H=0.3"]) == 3
    assert capsys.readouterr() == ("", "ssgm: numerical failure: (34, 'Numerical result out of range')\n")


def test_cli_reproducible_csv_across_threads(tmp_path, monkeypatch):
    # 2500 paths are three blocks, so the block pool runs; --threads and SSGM_THREADS change nothing
    cfg_text = """
[process]
family = canonical
H = 0.7
c = -1.5

[grid]
geometric = 0.1 2.0 6

[mc]
n_paths = 2500
seed = 9
"""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    blobs = set()
    for run, threads in enumerate(["1", "4", "8", "0", "-3", None]):
        if threads is None:
            monkeypatch.setenv("SSGM_THREADS", "abc")
        csv_path, out_path = tmp_path / f"paths_{run}.csv", tmp_path / f"paths_{run}.bin"
        argv = ["sample", "--config", str(cfg_file), "--csv", str(csv_path), "--out", str(out_path)]
        assert main(argv + (["--threads", threads] if threads else [])) == 0
        sidecar = pathlib.Path(f"{out_path}.json").read_bytes()
        blobs.add((csv_path.read_bytes(), out_path.read_bytes(), sidecar))
    assert len(blobs) == 1


def test_cli_bytes_same_on_one_cpu_as_on_all(tmp_path):
    # a trichotomy's blocks and a multi-block long-row fBm ensemble (4096 normals a row, so four
    # blocks of 32 paths) are drawn on one thread per CPU: pinned to one CPU, the report, the
    # ensemble file and its sidecar keep their bytes
    if shutil.which("taskset") is None:
        pytest.skip("taskset is not installed")
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("fewer than two CPUs to run on: one CPU is all of them")
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    grid = ",".join(repr(k / 2**11) for k in range(2**11 + 1))
    commands = [
        ["variation", "--spec", "canonical:H=0.5,c=-1", "--p", "2", "--n", "2^12..2^14", "--paths", "64",
         "--seed", "7", "--json", "v.json"],
        ["sample", "--spec", "fbm:H=0.3", "--grid", grid, "--paths", "100", "--seed", "7", "--out", "e.bin"],
    ]
    outputs = []
    for pin in (["taskset", "-c", str(cpus[0])], []):
        run_dir = tmp_path / ("one_cpu" if pin else "all_cpus")
        run_dir.mkdir()
        for argv in commands:
            out = subprocess.run(pin + [sys.executable, "-m", "ssgm.cli", *argv], env=env, cwd=run_dir,
                                 capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
        outputs.append([(run_dir / name).read_bytes() for name in ("v.json", "e.bin", "e.bin.json")])
    assert outputs[0] == outputs[1]


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


def test_cli_sample_unwritable_sidecar_exit_2(tmp_path, capsys):
    # --out also writes <out>.json: a sidecar path that cannot be written is refused before sampling
    out = tmp_path / "e.bin"
    (tmp_path / "e.bin.json").mkdir()
    argv = ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ssgm: invalid parameters: cannot write {out}.json: Is a directory\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--out", "e.bin", "--json", "e.bin.json"], "the --out sidecar and --json both write e.bin.json"),
    (["--csv", "f.bin", "--out", "f.bin"], "--out and --csv both write f.bin"),
    (["--out", "e.bin", "--csv", "./e.bin.json"], "the --out sidecar and --csv both write ./e.bin.json"),
    (["--csv", "r.txt", "--json", "sub/../r.txt"], "--csv and --json both write sub/../r.txt"),
    (["--csv", "link.txt", "--json", "r.txt"], "--csv and --json both write r.txt"),
], ids=["sidecar_json", "csv_out", "sidecar_csv", "dotdot", "symlink"])
def test_cli_sample_coinciding_outputs_exit_2(tmp_path, monkeypatch, capsys, flags, message):
    # two outputs that resolve to one file are refused before sampling: the second
    # write would silently replace the first (a sidecar replaced by the JSON report)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(tmp_path / "r.txt")
    argv = ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "3", "--seed", "1"] + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ssgm: invalid parameters: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "sub"]


def test_cli_kernel_eval_coinciding_outputs_exit_2(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["kernel-eval", "--kernel", "fbm:H=0.3", "--csv", str(out), "--json", str(out)]) == 2
    assert capsys.readouterr().err == f"ssgm: invalid parameters: --csv and --json both write {out}\n"
    assert not out.exists()


def test_cli_sample_distinct_outputs_all_written(tmp_path):
    out = tmp_path / "e.bin"
    argv = ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "3", "--seed", "1",
            "--out", str(out), "--csv", str(tmp_path / "e.csv"), "--json", str(tmp_path / "r.json")]
    assert main(argv) == 0
    ens = load_ensemble(str(out))
    assert ens.n_paths == 3
    assert json.loads((tmp_path / "r.json").read_text())["n_paths"] == 3


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


def test_cli_sample_minus_inf_spelling_labels_white_noise(tmp_path, capsys):
    # one run records one spelling of the spec it sampled: the sidecar, the --json report and
    # the loaded ensemble all name white noise; forcing timechange on it exits 2, pointing to whitenoise
    out, rep = tmp_path / "f", tmp_path / "j"
    argv = ["sample", "--spec", "canonical:H=0.4,c=-inf", "--grid", "0,0.5,1,2", "--paths", "3", "--seed", "1"]
    assert main(argv + ["--out", str(out), "--json", str(rep)]) == 0
    assert json.loads(pathlib.Path(f"{out}.json").read_text())["spec"] == "white-noise:H=0.4"
    assert json.loads(rep.read_text())["spec"] == "white-noise:H=0.4"
    assert load_ensemble(out).spec == ProcessSpec.white_noise(0.4)
    capsys.readouterr()
    assert main(argv + ["--scheme", "timechange"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ssgm: invalid parameters: timechange scheme") and "whitenoise scheme" in err
    assert err.count("\n") == 1


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


# malformed arguments outside the grid: each exits 2 with one line and prints nothing
_MALFORMED_ROWS = {
    "negative_time_fbm": ["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "-1", "--t", "2"],
    "negative_time_bfbm": ["kernel-eval", "--kernel", "bfbm:htilde=0.5,ktilde=0.5", "--s", "-1", "--t", "2"],
    "nan_time": ["kernel-eval", "--kernel", "canonical:H=0.7,c=-1.5", "--s", "nan", "--t", "2"],
    "inf_time_log_pow": ["kernel-eval", "--kernel", _LOG_POW, "--s", "inf", "--t", "2"],
    "canonical_c_nan": ["kernel-eval", "--kernel", "canonical:H=0.5,c=nan", "--s", "1", "--t", "2"],
    "rl_H_inf": ["kernel-eval", "--kernel", "rl:H=inf", "--s", "1", "--t", "2"],
    "volterra_g_beta_inf": ["kernel-eval", "--kernel", "volterra-g:H=0.25,beta=inf,g=const:1.0",
                            "--s", "1", "--t", "2"],
    "const_g_inf": ["kernel-eval", "--kernel", "volterra-g:H=0.25,beta=1.0,g=const:inf",
                    "--s", "1", "--t", "2"],
    "sample_canonical_c_nan": ["sample", "--spec", "canonical:H=0.5,c=nan", "--grid", "1,2"] + _PATHS,
    "n_range_not_power": ["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "3..2^4"] + _PATHS,
    "n_range_zero": ["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "0..4"] + _PATHS,
    "u_min_nan": ["asym", "--spec", "rl:H=0.25", "--u-min", "nan"],
    "u_min_zero": ["asym", "--spec", "rl:H=0.25", "--u-min", "0"],
    "u_max_inf": ["asym", "--spec", "rl:H=0.25", "--u-max", "inf"],
    "negative_points": ["asym", "--spec", "rl:H=0.25", "--points", "-1"],
    "points_oversize": ["asym", "--spec", "rl:H=0.25", "--points", "10" + "0" * 20],
    "grid_oversize": ["sample", "--spec", "fbm:H=0.3", "--grid", "geometric:1,2,1" + "0" * 20] + _PATHS,
    "inner_steps_oversize": ["sample", "--spec", "volterra-g:H=0.3,beta=0.5,g=const:1", "--grid", "1,2",
                             "--inner-steps", "1" + "0" * 18] + _PATHS,
    "alpha_nan": ["posdef", "--alpha", "nan", "--beta", "0.1", "--grid", "1,2"],
    "beta_inf": ["posdef", "--alpha", "0.3", "--beta", "inf", "--grid", "1,2"],
    "s_without_t": ["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "1"],
    "t_without_s": ["kernel-eval", "--kernel", "fbm:H=0.3", "--t", "2", "--grid", "1,2"],
    "spec_key_fbm_c": ["kernel-eval", "--kernel", "fbm:H=0.3,c=5", "--s", "1", "--t", "2"],
    "bfbm_H_not_product": ["kernel-eval", "--kernel", "bfbm:H=0.9,htilde=0.5,ktilde=0.5", "--s", "1", "--t", "2"],
    # argparse failures: one line, not a usage block
    "paths_not_int": ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "x", "--seed", "1"],
    "scheme_bad_choice": ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--scheme", "foo"] + _PATHS,
    "p_missing": ["variation", "--spec", "fbm:H=0.75", "--n", "2^3..2^4"] + _PATHS,
    "p_without_value": ["variation", "--spec", "fbm:H=0.75", "--n", "2^3..2^4", "--p"],
    "unknown_flag": ["asym", "--spec", "rl:H=0.25", "--bogus"],
    "no_subcommand": [],
    # checked for every scheme, also one that does not read it
    "inner_steps_negative_fbm": ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--inner-steps", "-5"] + _PATHS,
}


# inputs whose arrays numpy cannot represent: refused before any work, naming the size
_OVERSIZE = {
    "sample_paths": ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "1000000000000000000",
                     "--seed", "1"],
    "variation_paths": ["variation", "--spec", "fbm:H=0.3", "--p", "2", "--n", "2^2,2^3",
                        "--paths", "1000000000000000000", "--seed", "1"],
    "variation_n_2^71": ["variation", "--spec", "fbm:H=0.3", "--p", "2", "--n", "2^70,2^71"] + _PATHS,
    "variation_n_2^63": ["variation", "--spec", "fbm:H=0.3", "--p", "2", "--n", "2^62,2^63"] + _PATHS,
}


@pytest.mark.parametrize("argv", list(_OVERSIZE.values()), ids=list(_OVERSIZE))
def test_cli_oversize_input_exit_2(argv, tmp_path):
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "ssgm.cli", *argv], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert re.fullmatch(r"ssgm: invalid parameters: .* needs \d+ float64 values; "
                        r"an array holds at most \d+\n", out.stderr)


@pytest.mark.parametrize("error", [np._core._exceptions._ArrayMemoryError((10**12,), np.dtype(float)),
                                   MemoryError()], ids=["numpy", "bare"])
def test_cli_memory_error_exit_2(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(ssgm.cli, "sample_spec", fail)
    assert main(["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ssgm: invalid parameters: {str(error) or 'out of memory'}\n"


@pytest.mark.parametrize("row", list(_MALFORMED_ROWS))
def test_cli_malformed_argument_table_exit_2(row, capsys):
    rc = main(_MALFORMED_ROWS[row])  # an uncaught exception fails the test
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("ssgm: invalid parameters:") and captured.err.count("\n") == 1


def test_cli_repeated_spec_key_exit_2(capsys):
    assert main(["kernel-eval", "--kernel", "fbm:H=0.3,H=0.9", "--s", "1", "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ssgm: invalid parameters: spec key 'H' given twice")


def test_cli_accepts_every_sampler_scheme():
    parser = ssgm.cli.build_parser()
    for scheme in ssgm.SCHEMES:
        assert parser.parse_args(["sample", "--scheme", scheme]).scheme == scheme


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ssgm sample")


def test_cli_config_unknown_process_key_named(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nfamily = fbm\nH = 0.3\nc = -1\n[grid]\ntimes = 1 2\n")
    assert main(["kernel-eval", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "ssgm: invalid parameters: unknown parameter 'c' for family fbm\n"


# Every settled input, read back from the library call the subcommand makes:
# the flag wins over the --config block, which wins over the default.
_FULL_CFG = ("[process]\nfamily = fbm\nH = 0.3\n[grid]\ntimes = 1 2 3\n"
             "[mc]\nn_paths = 5\nseed = 3\ninner_steps = 128\n[tolerances]\nquad_tol = 1e-8\npsd_tol = 1e-6\n")
_BARE_CFG = "[process]\nfamily = fbm\nH = 0.3\n[grid]\ntimes = 1 2 3\n"  # no [mc], no [tolerances]
_EXIT_2 = "exit 2"
_STD = tuple(standard_grid().times)
_CFG_GRID = (1.0, 2.0, 3.0)
_POWER = ["posdef", "--alpha", "0.3", "--beta", "0.1"]
_MIDPOINT = "volterra-g:H=0.25,beta=0.5,g=const:1.0"  # the scheme that reads inner_steps

# row: base argv, flag, recorded argument, then the value under the flag and the full
# config, the full config, a config without [mc] and [tolerances], and no config
_PRECEDENCE = {
    "spec-kernel-eval": (["kernel-eval", "--s", "1", "--t", "2"], ["--kernel", "rl:H=0.25"],
                         "make_kernel.spec", "rl:H=0.25", "fbm:H=0.3", "fbm:H=0.3", _EXIT_2),
    "spec-sample": (["sample", "--grid", "1,2"] + _PATHS, ["--spec", "sfbm:H=0.4"],
                    "sample_spec.spec", "sfbm:H=0.4", "fbm:H=0.3", "fbm:H=0.3", _EXIT_2),
    "spec-asym": (["asym", "--points", "12"], ["--spec", "rl:H=0.25"],
                  "asym_coeff_estimate.spec", "rl:H=0.25", "fbm:H=0.3", "fbm:H=0.3", _EXIT_2),
    "grid-kernel-eval": (["kernel-eval", "--kernel", "fbm:H=0.3"], ["--grid", "0.5,1"],
                         "build_gram.grid", (0.5, 1.0), _CFG_GRID, _CFG_GRID, _STD),
    "grid-posdef": (["posdef", "--kernel", "fbm:H=0.3"], ["--grid", "0.5,1"],
                    "psd_check.gram", (0.5, 1.0), _CFG_GRID, _CFG_GRID, _STD),
    "grid-posdef-power": (_POWER, ["--grid", "0.5,1"],
                          "psd_check.gram", (0.5, 1.0), _CFG_GRID, _CFG_GRID, _STD),
    "grid-markov-test": (["markov-test", "--kernel", "fbm:H=0.3"], ["--grid", "0.5,1,2"],
                         "markov_test.grid", (0.5, 1.0, 2.0), _CFG_GRID, _CFG_GRID, None),
    "grid-sample": (["sample", "--spec", "fbm:H=0.3"] + _PATHS, ["--grid", "0.5,1"],
                    "sample_spec.grid", (0.5, 1.0), _CFG_GRID, _CFG_GRID, _EXIT_2),
    "tol-kernel-eval": (["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "1", "--t", "2"], ["--tol", "1e-9"],
                        "make_kernel.tol", 1e-9, 1e-8, 1e-10, 1e-10),
    "tol-posdef": (["posdef", "--kernel", "fbm:H=0.3", "--grid", "1,2"], ["--tol", "1e-9"],
                   "make_kernel.tol", 1e-9, 1e-8, 1e-10, 1e-10),
    "tol-markov-test": (["markov-test", "--kernel", "canonical:H=0.5,c=-1"], ["--tol", "1e-9"],
                        "make_kernel.tol", 1e-9, 1e-8, 1e-10, 1e-10),
    "tol-asym": (["asym", "--spec", "rl:H=0.25", "--points", "12"], ["--tol", "1e-9"],
                 "asym_coeff_estimate.tol", 1e-9, 1e-8, 1e-10, 1e-10),
    "psd_tol-posdef": (["posdef", "--kernel", "fbm:H=0.3", "--grid", "1,2"], ["--psd-tol", "1e-9"],
                       "psd_check.tol", 1e-9, 1e-6, 1e-10, 1e-10),
    "psd_tol-posdef-power": (_POWER + ["--grid", "1,2"], ["--psd-tol", "1e-9"],
                             "psd_check.tol", 1e-9, 1e-6, 1e-10, 1e-10),
    "paths-sample": (["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--seed", "1"], ["--paths", "7"],
                     "sample_spec.n_paths", 7, 5, 1000, _EXIT_2),
    "paths-variation": (["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "2^3..2^4", "--seed", "1"],
                        ["--paths", "7"], "pvariation_trichotomy.n_paths", 7, 5, 1000, _EXIT_2),
    "seed-sample": (["sample", "--spec", "fbm:H=0.3", "--grid", "1,2", "--paths", "2"], ["--seed", "11"],
                    "sample_spec.seed", 11, 3, _EXIT_2, _EXIT_2),
    "seed-variation": (["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "2^3..2^4", "--paths", "2"],
                       ["--seed", "11"], "pvariation_trichotomy.seed", 11, 3, _EXIT_2, _EXIT_2),
    "inner_steps-sample": (["sample", "--spec", _MIDPOINT, "--grid", "1,2"] + _PATHS, ["--inner-steps", "256"],
                           "sample_spec.inner_steps", 256, 128, None, None),
}
_SOURCES = {"flag": _FULL_CFG, "config": _FULL_CFG, "config_without_block": _BARE_CFG, "default": None}


def _plain(value):
    if isinstance(value, ProcessSpec):
        return value.label()
    if isinstance(value, GramMatrix):
        value = value.grid
    return tuple(value.times) if isinstance(value, TimeGrid) else value


@pytest.mark.parametrize("source", list(_SOURCES))
@pytest.mark.parametrize("row", list(_PRECEDENCE))
def test_cli_settles_flag_over_config_over_default(tmp_path, monkeypatch, capsys, row, source):
    base, flag, recorded, *expected = _PRECEDENCE[row]
    seen = {}
    for name, positional in (("make_kernel", ("spec",)), ("build_gram", ("kernel", "grid")),
                             ("psd_check", ("gram",)), ("markov_test", ("kernel", "grid")),
                             ("asym_coeff_estimate", ("spec", "u")),
                             ("sample_spec", ("spec", "grid", "n_paths", "seed")),
                             ("pvariation_trichotomy", ("spec", "p", "n_list", "n_paths", "seed"))):
        def recording(*args, _name=name, _positional=positional, _real=getattr(ssgm.cli, name), **kwargs):
            seen.update((f"{_name}.{key}", value) for key, value in zip(_positional, args))
            seen.update((f"{_name}.{key}", value) for key, value in kwargs.items())
            return _real(*args, **kwargs)

        monkeypatch.setattr(ssgm.cli, name, recording)
    argv = base + (flag if source == "flag" else [])
    if _SOURCES[source] is not None:
        (tmp_path / "run.cfg").write_text(_SOURCES[source])
        argv += ["--config", str(tmp_path / "run.cfg")]
    rc = main(argv)
    want = expected[list(_SOURCES).index(source)]
    if want == _EXIT_2:
        assert rc == 2 and capsys.readouterr().err.count("\n") == 1
    else:
        assert rc == 0
        assert _plain(seen[recorded]) == want


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_cli_parser_built_once():
    assert ssgm.cli.build_parser() is ssgm.cli.build_parser()


def test_cli_reused_parser_keeps_no_flag_value(tmp_path):
    out = tmp_path / "posdef.json"
    base = ["posdef", "--kernel", "fbm:H=0.3", "--grid", "1,2", "--json", str(out)]
    assert main(base + ["--psd-tol", "1e-3"]) == 0
    assert json.loads(out.read_text())["tol"] == 1e-3
    assert main(base) == 0
    assert json.loads(out.read_text())["tol"] == 1e-10


def test_cli_malformed_line_then_valid_call(capsys):
    assert main(["posdef", "--kernel", "fbm:H=0.3", "--psd-tol"]) == 2
    assert main(["kernel-eval", "--kernel", "fbm:H=0.3", "--s", "1", "--t", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.out.startswith("kernel-eval fbm:H=0.3")


_EVERY_SUBCOMMAND = {
    "kernel-eval": ["kernel-eval", "--kernel", "rl:H=0.25", "--grid", "0.5,1,3"],
    "posdef": ["posdef", "--alpha", "0.3", "--beta", "0.2", "--grid", "1,2,4"],
    "markov-test": ["markov-test", "--kernel", "rl:H=0.25"],
    "sample": ["sample", "--spec", "fbm:H=0.3", "--grid", "1,2"] + _PATHS,
    "variation": ["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "2^3..2^4"] + _PATHS,
    "asym": ["asym", "--spec", "rl:H=0.25", "--points", "12"],
}


@pytest.mark.parametrize("command", list(_EVERY_SUBCOMMAND))
def test_cli_subcommand_twice_in_process_writes_same_json(command, tmp_path):
    written = []
    for run in range(2):
        out = tmp_path / f"{run}.json"
        assert main(_EVERY_SUBCOMMAND[command] + ["--json", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
