"""SHA-256 digests of outputs whose bytes do not depend on the CPU count.

``digests()`` hashes ``sample_spec`` for every scheme, ``build_gram`` on
``standard_grid()`` for every family, the ``markov_test`` fields for three
kernels and a Brownian p-variation trichotomy.  It also runs the command line
in this process, in a temporary directory, and hashes each call's exit code,
stdout, stderr and the files it writes (``_CLI_CALLS``).  The test computes
the digests in this process and in a subprocess pinned to one CPU, which
draws every block on its calling thread, and compares the two.  No golden
digest is kept: run as

    PYTHONPATH=src python tests/test_digests.py [CPU]

the file prints the digests as JSON (pinned to CPU when one is given), so
two checkouts of the package can be compared.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import ssgm
from ssgm import (SCHEMES, GFunction, ProcessSpec, TimeGrid, build_gram, make_kernel, markov_test,
                  pvariation_trichotomy, sample_spec, standard_grid)
from ssgm.cli import main

_GRID = TimeGrid(np.arange(12) / 11.0)  # a leading 0, and uniform, so that every scheme fits
_LOG_POW = ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))
_SCHEME_SPECS = {
    "timechange": ProcessSpec.canonical(0.7, -1.5),
    "cholesky": ProcessSpec.riemann_liouville(0.3),
    "circulant": ProcessSpec.fbm(0.3),
    "whitenoise": ProcessSpec.white_noise(0.4),
    "volterra": ProcessSpec.volterra_g(0.3, 0.5, GFunction.log_pow(1)),
    "poly": ProcessSpec.volterra_g(0.25, 1.0, GFunction.const(1.0)),
}
_GRAM_SPECS = [ProcessSpec.canonical(0.7, -1.5), ProcessSpec.white_noise(0.4), ProcessSpec.fbm(0.3),
               ProcessSpec.sub_fbm(0.3), ProcessSpec.bi_fbm(0.6, 0.5), ProcessSpec.riemann_liouville(0.3),
               ProcessSpec.volterra_g(0.25, 1.5, GFunction.const(2.0)), _LOG_POW]

# name -> argv; the output files are named relative to the temporary directory the calls run in
_CLI_CALLS = {
    "kernel-eval point": ["kernel-eval", "--kernel", "rl:H=0.3", "--s", "0.5", "--t", "2", "--json", "p.json"],
    "kernel-eval grid": ["kernel-eval", "--kernel", _LOG_POW.label(), "--grid", "geometric:0.1,2,8",
                         "--json", "g.json", "--csv", "g.csv"],
    "posdef kernel": ["posdef", "--kernel", "fbm:H=0.3", "--json", "k.json", "--csv", "k.csv"],
    "posdef power": ["posdef", "--alpha", "0.3", "--beta", "0.1", "--grid", "1,2,3",
                     "--json", "w.json", "--csv", "w.csv"],
    **{f"markov-test {spec}": ["markov-test", "--kernel", spec, "--json", "m.json"]
       for spec in ("fbm:H=0.3", "rl:H=0.3", _LOG_POW.label(), "white-noise:H=0.5")},  # white noise: fit c "-inf"
    "asym": ["asym", "--spec", "sfbm:H=0.3", "--json", "a.json"],
    "variation": ["variation", "--spec", "fbm:H=0.75", "--p", "2", "--n", "2^6..2^8", "--paths", "16",
                  "--seed", "7", "--json", "v.json", "--csv", "v.csv"],
    "sample": ["sample", "--spec", "canonical:H=0.7,c=-1.5", "--grid", "geometric:0.1,2,8", "--paths", "1025",
               "--seed", "42", "--out", "e.bin", "--csv", "e.csv", "--json", "e.json"],
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def digests() -> dict:
    """Digest name -> SHA-256 hex digest of that output's bytes."""
    out = {}
    for scheme, spec in _SCHEME_SPECS.items():
        ens = sample_spec(spec, _GRID, 1025, 11, scheme=scheme)  # 1025 paths: a one-row last block
        out[f"sample {scheme}"] = _sha(ens.values, ens.seed, ens.scheme, ens.inner_steps, ens.jitter)
    for spec in _GRAM_SPECS:
        out[f"gram {spec.label()}"] = _sha(build_gram(make_kernel(spec), standard_grid()).entries)
    for spec in (ProcessSpec.fbm(0.3), ProcessSpec.riemann_liouville(0.3), _LOG_POW):
        r = markov_test(make_kernel(spec))
        out[f"markov-test {spec.label()}"] = _sha(r.verdict, r.doob_max_residual, r.doob_mean_residual,
                                                  r.fit.r11_hat, r.fit.c_hat, r.fit.regression_residual,
                                                  r.mult_residual, r.factorization_residual)
    rep = pvariation_trichotomy(ProcessSpec.canonical(0.5, -1.0), 2.0, [2**8, 2**9, 2**10], 1025, 5)
    out["trichotomy"] = _sha(rep.mean_sums, rep.se_sums, rep.slope_estimate, rep.verdict, rep.limit_value)
    for name, argv in _CLI_CALLS.items():
        out[f"cli {name}"] = _cli_sha(argv)
    return out


def _cli_sha(argv) -> str:
    """Digest of one ``ssgm`` call run in a fresh temporary directory: exit code, stdout, stderr and files."""
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = [(p.name, p.read_bytes()) for p in sorted(pathlib.Path(tmp).iterdir())]
    return _sha(code, stdout.getvalue(), stderr.getvalue(), files)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPU affinity is not available")
def test_digests_same_pinned_to_one_cpu():
    assert set(_SCHEME_SPECS) == set(SCHEMES)
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cpu = min(os.sched_getaffinity(0))
    pinned = subprocess.run([sys.executable, __file__, str(cpu)], env=env, capture_output=True, text=True)
    assert pinned.returncode == 0, pinned.stderr
    assert json.loads(pinned.stdout) == digests()


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})  # this process only; its threads start after this
    print(json.dumps(digests(), indent=1, sort_keys=True))
