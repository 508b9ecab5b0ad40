"""Run configuration: a flat INI-style file with named blocks.

Example::

    [process]
    family = canonical
    H = 0.7
    c = -1.5

    [grid]
    geometric = 0.1 2.0 16
    # or: times = 0.5 1.0 2.0

    [mc]
    n_paths = 50000
    seed = 42
    inner_steps = 256

    [tolerances]
    quad_tol = 1e-10
    psd_tol = 1e-10

Numbers parse in full double precision.  A canonical block with
``c = -inf`` still parses: it is the white-noise spec of its H, which
serializes as ``family = white-noise``.  Other blocks are ignored; output
paths are command-line flags.
``parse_config(serialize_config(cfg))`` is the identity.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ParameterError
from .gram import TimeGrid
from .kernels import ProcessSpec, spec_from_params, spec_to_params
from .quadrature import DEFAULT_TOL

__all__ = ["GridConfig", "MCConfig", "ToleranceConfig", "RunConfig",
           "parse_config", "serialize_config", "load_config"]


@dataclass(frozen=True)
class GridConfig:
    """Either an explicit time list or a geometric start/stop/points recipe."""

    times: Optional[tuple] = None
    geometric: Optional[tuple] = None  # (start, stop, points)

    def __post_init__(self):
        if (self.times is None) == (self.geometric is None):
            raise ParameterError("grid block needs exactly one of 'times' or 'geometric'")

    def build(self) -> TimeGrid:
        if self.times is not None:
            return TimeGrid(np.asarray(self.times, dtype=float))
        start, stop, points = self.geometric
        return TimeGrid.geometric(start, stop, int(points))


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 1000
    seed: Optional[int] = None
    inner_steps: Optional[int] = None


@dataclass(frozen=True)
class ToleranceConfig:
    quad_tol: float = DEFAULT_TOL
    psd_tol: float = 1e-10


@dataclass(frozen=True)
class RunConfig:
    process: ProcessSpec
    grid: GridConfig
    mc: MCConfig = field(default_factory=MCConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)


def _number(kind, block: str, key: str, text: str):
    """``kind(text)`` for the value of ``key`` in ``[block]``, or a ParameterError naming both."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParameterError(f"[{block}] {key} = {text!r} is not a valid {kind.__name__}") from exc


def _parse_block(cp, block: str, cls, kind):
    """``cls`` from the keys ``[block]`` holds; a key it lacks keeps the dataclass default."""
    keys = cp[block] if block in cp else {}
    return cls(**{f.name: _number(kind, block, f.name, keys[f.name]) for f in fields(cls) if f.name in keys})


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep H / htilde capitalization
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        # configparser messages span several lines; the CLI reports one
        raise ParameterError(f"malformed config: {' '.join(str(exc).split())}") from exc
    if "process" not in cp or "grid" not in cp:
        raise ParameterError("config must contain [process] and [grid] blocks")
    spec = spec_from_params(dict(cp["process"]))

    gblock, recipe = cp["grid"], {}
    if "times" in gblock:
        recipe["times"] = tuple(_number(float, "grid", "times", x) for x in gblock["times"].split())
    if "geometric" in gblock:
        parts = gblock["geometric"].split()
        if len(parts) != 3:
            raise ParameterError("geometric grid needs 'start stop points'")
        recipe["geometric"] = tuple(_number(kind, "grid", "geometric", x)
                                    for kind, x in zip((float, float, int), parts))

    return RunConfig(spec, GridConfig(**recipe), _parse_block(cp, "mc", MCConfig, int),
                     _parse_block(cp, "tolerances", ToleranceConfig, float))


def serialize_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["process"] = spec_to_params(cfg.process)
    if cfg.grid.times is not None:
        cp["grid"] = {"times": " ".join(repr(float(t)) for t in cfg.grid.times)}
    else:
        start, stop, points = cfg.grid.geometric
        cp["grid"] = {"geometric": f"{float(start)!r} {float(stop)!r} {int(points)}"}
    mc = {f.name: str(getattr(cfg.mc, f.name)) for f in fields(MCConfig) if getattr(cfg.mc, f.name) != f.default}
    if mc:
        cp["mc"] = mc
    cp["tolerances"] = {f.name: repr(getattr(cfg.tolerances, f.name)) for f in fields(ToleranceConfig)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {str(path)!r}: {exc}") from exc
    return parse_config(text)
