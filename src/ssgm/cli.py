"""Command-line entry point.

Subcommands: kernel-eval, posdef, markov-test, sample, variation, asym.
Every input is settled once, before any subcommand runs: its flag, else the
``--config`` block, else the default.  Exit codes: 0 success, 2 invalid
parameters (a malformed command line too, in one line), 3 numerical failure.
All JSON artifacts embed the frozen report schema version.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import MCConfig, ToleranceConfig, load_config
from .errors import NumericalError, ParameterError, check_integer
from .gram import (MinorQuery, TimeGrid, build_gram, gram_to_csv, lindstrom_minor, power_gram, psd_check,
                   standard_grid)
from .kernels import L_FORM_FAMILIES, make_kernel, parse_spec_string
from .markov import asym_coeff_estimate, markov_test, sqrt_diag_profile
from .quadrature import DEFAULT_BUDGET, DEFAULT_TOL, check_quadrature_args
from .samplers import SCHEMES, empirical_cov, ensemble_csv_lines, sample_spec, save_ensemble
from .variation import pvariation_trichotomy, variation_to_csv

SCHEMA_VERSION = "1"


def report_schema_version() -> str:
    """Frozen version string embedded in every emitted JSON report."""
    return SCHEMA_VERSION


@contextlib.contextmanager
def _writing(path):
    """Report an output path that cannot be written as a parameter error naming it."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(outputs: dict) -> None:
    """Refuse an output path that cannot be written, or that two outputs share, before any work is done.

    ``outputs`` maps each output's name to its path or None.  Paths that
    resolve to the same file (symlinks followed) are refused naming both
    outputs.  Creates and truncates nothing; ``_writing`` still reports a
    write that fails later.
    """
    owners = {}
    for name, path in outputs.items():
        if not path:
            continue
        target = Path(path)
        if target.is_dir():
            code = errno.EISDIR
        elif not target.parent.is_dir():
            code = errno.ENOENT
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            code = errno.EACCES
        else:
            owner = owners.setdefault(os.path.realpath(path), name)
            if owner == name:
                continue
            raise ParameterError(f"{owner} and {name} both write {path}")
        raise ParameterError(f"cannot write {path}: {os.strerror(code)}")


def _write_lines(path, lines) -> None:
    """Write an iterable of strings one at a time, so only one is held."""
    with _writing(path), open(path, "wb") as fh:
        for line in lines:
            fh.write(line.encode())


def _write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = report_schema_version()
    _write_lines(path, [json.dumps(payload, indent=2, default=_json_default) + "\n"])


def _json_default(obj):
    """Every report value is a Python number, bool, str, None or list, or an ndarray."""
    return obj.tolist()


def _number(kind, text: str):
    """``kind(text)``, with a malformed number reported as a ParameterError."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {text.strip()!r} as {kind.__name__}") from exc


def _parse_grid_arg(text: str) -> TimeGrid:
    text = text.strip()
    if text.startswith("geometric:"):
        parts = text[len("geometric:"):].split(",")
        if len(parts) != 3:
            raise ParameterError("grid spec: geometric:start,stop,points")
        return TimeGrid.geometric(_number(float, parts[0]), _number(float, parts[1]),
                                  _number(int, parts[2]))
    return TimeGrid(np.array([_number(float, x) for x in text.split(",")], dtype=float))


def _parse_nlist(text: str):
    """Parse '2^10..2^16' or a comma list of powers of two."""
    text = text.strip()
    if ".." in text:
        ends = [check_integer(_parse_pow(x), "--n range end", 2) for x in text.split("..", 1)]
        if any(n & (n - 1) for n in ends):
            raise ParameterError(f"--n range ends must be powers of two, got {text!r}")
        return [2**k for k in range(ends[0].bit_length() - 1, ends[1].bit_length())]
    return [_parse_pow(x) for x in text.split(",")]


def _parse_pow(text: str) -> int:
    text = text.strip()
    if "^" in text:
        base, exp = text.split("^", 1)
        return _number(int, base) ** _number(int, exp)
    return _number(int, text)


def _settle(args) -> None:
    """Settle every input once: its flag, else the --config block, else the default.

    ``args.spec`` becomes a ProcessSpec (None only for power-family posdef,
    whose ``--alpha``/``--beta`` a flag spec may not join) and ``args.grid``
    a TimeGrid or None.  ``tol`` and ``psd_tol`` default to
    1e-10; ``paths``, ``seed`` and ``inner_steps`` to MCConfig's defaults with
    a config and to None without one.  The quadrature tolerance must be
    positive and finite, also where a command does not use it.  The config and
    its grid are checked first, then the flag spec, then the flag grid.
    """
    cfg = load_config(args.config) if args.config else None
    tols = cfg.tolerances if cfg else ToleranceConfig()
    mc = cfg.mc if cfg else MCConfig(n_paths=None)
    for name, default in (("tol", tols.quad_tol), ("psd_tol", tols.psd_tol), ("paths", mc.n_paths),
                          ("seed", mc.seed), ("inner_steps", mc.inner_steps)):
        if getattr(args, name, None) is None:
            setattr(args, name, default)
    # asym's --tol is a noise floor, where 0 is allowed; asym_coeff_estimate checks it
    if args.command != "asym":
        check_quadrature_args(args.tol, DEFAULT_BUDGET)
    grid = cfg.grid.build() if cfg else None
    power = getattr(args, "alpha", None) is not None or getattr(args, "beta", None) is not None
    if power and args.spec:
        raise ParameterError("posdef takes --kernel or --alpha/--beta, not both")
    args.spec = parse_spec_string(args.spec) if args.spec else (cfg.process if cfg else None)
    args.grid = _parse_grid_arg(args.grid) if getattr(args, "grid", None) else grid
    if args.spec is None and not power:
        raise ParameterError("no process spec given (flag or config [process] block)")


def _cmd_kernel_eval(args) -> int:
    if (args.s is None) != (args.t is None):
        raise ParameterError("kernel-eval takes both --s and --t for a point, or neither for a Gram matrix")
    spec = args.spec
    kernel = make_kernel(spec, tol=args.tol, budget=args.budget)
    if args.s is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below, as build_gram does
            value = float(kernel(args.s, args.t))
        if not math.isfinite(value):
            raise NumericalError(f"R({args.s!r}, {args.t!r}) of {spec.label()} is {value!r}, not finite")
        print(f"kernel-eval {spec.label()} R({args.s:g},{args.t:g}) = {value:.16e}")
        if args.json:
            _write_json(args.json, {"kernel": spec.label(), "s": args.s, "t": args.t, "value": value})
        return 0
    grid = standard_grid() if args.grid is None else args.grid
    gram = build_gram(kernel, grid)
    if args.csv:
        _write_lines(args.csv, [gram_to_csv(gram)])
    print(f"kernel-eval {spec.label()} gram {len(grid)}x{len(grid)} "
          f"max|R| = {np.max(np.abs(gram.entries)):.6e}")
    if args.json:
        _write_json(args.json, {"kernel": spec.label(), "grid": grid.times, "entries": gram.entries})
    return 0


def _cmd_posdef(args) -> int:
    grid = standard_grid() if args.grid is None else args.grid
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ParameterError("--alpha and --beta go together")
        q = MinorQuery(args.alpha, args.beta, grid)
        gram = power_gram(q)
        label = f"power-family:alpha={args.alpha!r},beta={args.beta!r}"
        minor = lindstrom_minor(q)
    else:
        gram = build_gram(make_kernel(args.spec, tol=args.tol), grid)
        label = args.spec.label()
        minor = None
    report = psd_check(gram, tol=args.psd_tol)
    print(f"posdef {label}: {report.verdict} (min eigenvalue {report.min_eigenvalue_bound:.6e})")
    if args.csv:
        _write_lines(args.csv, [gram_to_csv(gram)])
    if args.json:
        payload = {
            "kernel": label,
            "verdict": report.verdict,
            "min_eigenvalue_bound": report.min_eigenvalue_bound,
            "tol": report.tol,
            "witness": report.witness,
            "quadratic_form": report.quadratic_form,
        }
        if minor is not None:
            payload["lindstrom_minor"] = minor
        _write_json(args.json, payload)
    return 0


def _cmd_markov_test(args) -> int:
    spec = args.spec
    kernel = make_kernel(spec, tol=args.tol)
    report = markov_test(kernel, args.grid)
    c = report.fit.c_hat  # finite, or -inf (white noise), which JSON has no number for
    payload = {
        "kernel": report.kernel,
        "verdict": report.verdict,
        "doob": {"max": report.doob_max_residual, "mean": report.doob_mean_residual},
        "fit": {
            "r11": report.fit.r11_hat,
            "c": str(c) if math.isinf(c) else c,
            "residual": report.fit.regression_residual,
        },
        "mult_residual": report.mult_residual,
        "factorization": {"residual": report.factorization_residual},
        "thresholds": report.thresholds,
        "note": report.note,
        "seed": "n/a",
    }
    if spec.family in L_FORM_FAMILIES:
        asym = asym_coeff_estimate(spec, np.geomspace(1e3, 1e6, 49), tol=args.tol)
        payload["asym"] = {
            "constant_term": asym.constant_term,
            "coefficient": asym.coefficient,
            "exponent": asym.exponent,
            "predicted_coefficient": asym.predicted_coefficient,
            "predicted_exponent": asym.predicted_exponent,
            "remainder_below_noise": asym.remainder_below_noise,
        }
    profile = sqrt_diag_profile(kernel, np.geomspace(1e4, 1e10, 49))
    payload["sqrt_diag"] = {
        "coefficient": profile.coefficient,
        "exponent": profile.exponent,
        "two_power_flag": profile.two_power_flag,
        "all_zero": profile.all_zero,
    }
    print(f"markov-test {report.kernel}: {report.verdict} "
          f"(doob max {report.doob_max_residual:.3e})")
    if args.json:
        _write_json(args.json, payload)
    return 0


def _cmd_sample(args) -> int:
    spec, grid = args.spec, args.grid
    if grid is None:
        raise ParameterError("sample requires a grid")
    if args.paths is None or args.seed is None:
        raise ParameterError("sample requires --paths and --seed (or an [mc] config block with both)")
    ens = sample_spec(spec, grid, args.paths, args.seed, scheme=args.scheme, inner_steps=args.inner_steps)
    print(f"sample {spec.label()} scheme={ens.scheme} paths={ens.n_paths} "
          f"d={len(grid)} seed={ens.seed}")
    if args.out:
        with _writing(args.out):
            save_ensemble(ens, args.out)
    if args.csv:
        _write_lines(args.csv, ensemble_csv_lines(ens))
    if args.json:
        payload = {
            "spec": spec.label(),
            "scheme": ens.scheme,
            "seed": ens.seed,
            "n_paths": ens.n_paths,
            "grid": grid.times,
            "jitter": ens.jitter,
            "inner_steps": ens.inner_steps,
        }
        if ens.n_paths >= 2:
            emp = empirical_cov(ens)
            payload["empirical_cov"] = emp.cov
            payload["empirical_se"] = emp.se
        _write_json(args.json, payload)
    return 0


def _cmd_variation(args) -> int:
    spec = args.spec
    if args.paths is None or args.seed is None:
        raise ParameterError("variation requires --paths and --seed")
    n_list = _parse_nlist(args.n)
    report = pvariation_trichotomy(spec, args.p, n_list, args.paths, args.seed)
    limit = f" limit~{report.limit_value:.6g}" if report.limit_value is not None else ""
    print(f"variation {spec.label()} p={args.p:g}: {report.verdict} "
          f"(slope {report.slope_estimate:+.3f}){limit}")
    if args.csv:
        _write_lines(args.csv, [variation_to_csv(report)])
    if args.json:
        _write_json(args.json, {
            "spec": spec.label(),
            "p": args.p,
            "n_values": list(report.n_values),
            "mean_sums": report.mean_sums,
            "se_sums": report.se_sums,
            "slope_estimate": report.slope_estimate,
            "verdict": report.verdict,
            "limit_value": report.limit_value,
            "sigmaJ_sq": report.sigmaJ_sq,
            "proven_regime": report.proven_regime,
            "seed": args.seed,
        })
    return 0


def _cmd_asym(args) -> int:
    spec = args.spec
    if not 0 < args.u_min < args.u_max < math.inf:
        raise ParameterError(f"asym needs 0 < --u-min < --u-max < inf, got {args.u_min!r}, {args.u_max!r}")
    u = TimeGrid.geometric(args.u_min, args.u_max, args.points).times
    report = asym_coeff_estimate(spec, u, tol=args.tol)
    coeff = "n/a" if report.coefficient is None else f"{report.coefficient:.6g}"
    expo = "n/a" if report.exponent is None else f"{report.exponent:+.4f}"
    print(f"asym {spec.label()}: constant {report.constant_term:.6g}, "
          f"power {coeff} * u^{expo}")
    if args.json:
        _write_json(args.json, {
            "spec": spec.label(),
            "constant_term": report.constant_term,
            "coefficient": report.coefficient,
            "exponent": report.exponent,
            "predicted_coefficient": report.predicted_coefficient,
            "predicted_exponent": report.predicted_exponent,
            "fit_residual": report.fit_residual,
            "remainder_below_noise": report.remainder_below_noise,
        })
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ParameterError line, not a usage block."""

    def error(self, message):
        raise ParameterError(" ".join(message.split()))


def _add_common(p, spec_flag="--kernel"):
    p.add_argument(spec_flag, dest="spec", metavar=spec_flag[2:].upper(),
                   help="process spec, e.g. canonical:H=0.7,c=-0.9")
    p.add_argument("--config", help="RunConfig file (flags override its blocks)")
    p.add_argument("--tol", type=float, default=None,
                   help="quadrature tolerance, positive and finite (default: the config's quad_tol, "
                        f"else {DEFAULT_TOL:g}); only off-diagonal volterra-g log-pow pairs integrate; "
                        "asym's noise floor is 10*tol, where 0 is allowed")
    p.add_argument("--json", help="write a JSON report here")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored (no environment variable is read "
                        "either); an ensemble of more than one block draws its blocks, each from its own "
                        "SFC64 stream seeded by SeedSequence(seed, spawn_key=(block,)), on up to one "
                        "thread per CPU, and output is identical for any value and any CPU count")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and changes nothing in it."""
    ap = _Parser(prog="ssgm", description="self-similar Gaussian Markov process toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-eval", help="evaluate a kernel at a point or on a grid")
    _add_common(p)
    p.add_argument("--grid", help="grid spec: geometric:start,stop,points or t1,t2,...")
    p.add_argument("--s", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="quadrature evaluation budget per pair (default 2^20); only off-diagonal "
                        "volterra-g log-pow pairs integrate, everything else is closed form")
    p.add_argument("--csv", help="write the Gram matrix as CSV")
    p.set_defaults(fn=_cmd_kernel_eval)

    p = sub.add_parser("posdef", help="positive-semidefiniteness check")
    _add_common(p)
    p.add_argument("--grid", help="grid spec")
    p.add_argument("--alpha", type=float, help="power-family exponent of s v t")
    p.add_argument("--beta", type=float, help="power-family exponent of s ^ t (divides)")
    p.add_argument("--psd-tol", type=float, default=None,
                   help="PSD tolerance (default: the config's psd_tol, else 1e-10)")
    p.add_argument("--csv", help="write the Gram matrix as CSV")
    p.set_defaults(fn=_cmd_posdef)

    p = sub.add_parser("markov-test", help="Markovianity diagnostics")
    _add_common(p)
    p.add_argument("--grid", help="grid spec (default: 20-point geometric on [0.05, 5])")
    p.set_defaults(fn=_cmd_markov_test)

    p = sub.add_parser("sample", help="draw paths and export them")
    _add_common(p, spec_flag="--spec")
    p.add_argument("--grid", help="grid spec")
    p.add_argument("--paths", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme",
                   choices=SCHEMES,
                   help="sampling scheme (default: the family's own; fbm takes circulant on a "
                        "uniform grid t_k = k*h, with or without a leading 0, and cholesky otherwise; "
                        "volterra-g takes the exact poly scheme for g=const and an integer beta >= 0, "
                        "and the midpoint volterra scheme otherwise; volterra applies to volterra-g only)")
    p.add_argument("--inner-steps", type=int, help="cells per unit time for the volterra scheme")
    p.add_argument("--out", help="binary ensemble file (JSON sidecar alongside)")
    p.add_argument("--csv", help="CSV export (small ensembles)")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("variation", help="p-variation trichotomy estimate")
    _add_common(p, spec_flag="--spec")
    p.add_argument("--p", type=float, required=True, help="exponent p, finite and >= 1")
    p.add_argument("--n", required=True, help="dyadic list, e.g. 2^10..2^16")
    p.add_argument("--paths", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="CSV with columns n, mean_S_n, se_S_n")
    p.set_defaults(fn=_cmd_variation)

    p = sub.add_parser("asym", help="constant + leading power of l(u) at infinity")
    _add_common(p, spec_flag="--spec")
    p.add_argument("--u-min", type=float, default=1e3)
    p.add_argument("--u-max", type=float, default=1e6)
    p.add_argument("--points", type=int, default=49)
    p.set_defaults(fn=_cmd_asym)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = getattr(args, "out", None)
        _check_writable({"--out": out, "the --out sidecar": out and f"{out}.json",
                         "--csv": getattr(args, "csv", None), "--json": getattr(args, "json", None)})
        _settle(args)
        return args.fn(args)
    except ParameterError as exc:
        print(f"ssgm: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's says which array it could not allocate
        print(f"ssgm: invalid parameters: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:  # an OverflowError: a float64 result out of range
        print(f"ssgm: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
