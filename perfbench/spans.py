"""In-memory span tracer wrapped around the public functions of ``ssgm``.

The tracer replaces, in every loaded ``ssgm`` module namespace, each public
function of the traced modules (their ``__all__`` names, or the public
functions they define when there is no ``__all__``) and ``CovKernel.__call__``
by a wrapper that records one span per call: name, start, end, parent span,
job id and a few counts observed at the call.  Private helpers are never
wrapped, so their time lands in the public caller's span.  Spans stay in
memory until :meth:`Tracer.write` is called at the end of the run.

``layer_metrics`` turns the spans of one job into the per-layer metrics
listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("kernels", "quadrature", "gram", "samplers", "markov", "variation", "config", "cli")

# leaf samplers: every path is drawn by exactly one of these
LEAF_SAMPLERS = ("samplers.sample_timechange", "samplers.sample_whitenoise",
                 "samplers.sample_cholesky", "samplers.sample_volterra_canonical",
                 "samplers.sample_volterra_zg")
SAMPLERS = LEAF_SAMPLERS + ("samplers.sample_spec",)
QUADRATURE = ("quadrature.adaptive_simpson", "quadrature.integrate_power_upper")
KERNEL_CALL = "kernels.CovKernel.__call__"
CONFIG = ("config.load_config", "config.parse_config", "config.serialize_config")

# span record fields
NAME, START, END, PARENT, JOB, ATTRS = range(6)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p and os.path.isfile(p))


class Tracer:
    """Record spans around ``ssgm`` public calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, pre=None, post=None):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            ctx = None
            if pre is not None:
                args, kwargs, ctx = pre(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if post is not None:
                span[ATTRS] = post(args, kwargs, result, ctx)
            return result

        return wrapper

    def _hooks(self, name, originals):
        """Counts observed at the call, keyed by span name."""
        if name in LEAF_SAMPLERS:
            workers = originals["samplers.get_max_workers"]

            def pre(args, kwargs):
                return args, kwargs, workers()

            def post(args, kwargs, ens, n_workers):
                return {"paths": int(ens.values.shape[0]), "points": int(ens.values.size),
                        "jitter": float(ens.jitter), "workers": int(n_workers)}

            return pre, post
        if name == "quadrature.adaptive_simpson":
            def pre(args, kwargs):
                count = [0]
                if args:
                    f, args = args[0], args[1:]
                else:
                    f = kwargs.pop("f")

                def counted(x):
                    count[0] += int(np.size(x))
                    return f(x)

                return (counted,) + tuple(args), kwargs, count

            return pre, lambda args, kwargs, result, count: {"evals": count[0]}
        if name == KERNEL_CALL:
            return None, lambda args, kwargs, result, ctx: {"pairs": int(np.size(result))}
        if name == "gram.build_gram":
            return None, lambda args, kwargs, result, ctx: {"entries": int(result.entries.size)}
        if name == "samplers.save_ensemble":
            def post(args, kwargs, result, ctx):
                path = str(args[1] if len(args) > 1 else kwargs["path"])
                return {"bytes": _file_bytes([path, path + ".json"])}

            return None, post
        if name == "cli.main":
            def post(args, kwargs, result, ctx):
                argv = list(args[0] if args else kwargs.get("argv") or [])
                paths = [argv[i + 1] for i, a in enumerate(argv[:-1])
                         if a in ("--out", "--json", "--csv")]
                if "--out" in argv[:-1]:
                    paths.append(argv[argv.index("--out") + 1] + ".json")
                return {"bytes": _file_bytes(paths), "exit": result}

            return None, post
        return None, None

    def install(self) -> None:
        """Wrap every traced public function wherever ``ssgm`` modules bind it."""
        if self._patched:
            return
        originals: dict[str, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"ssgm.{short}")
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[f"{short}.{n}"] = obj
        wrappers = {}
        for name, fn in originals.items():
            pre, post = self._hooks(name, originals)
            wrappers[id(fn)] = self._wrap(name, fn, pre, post)
        for modname, mod in list(sys.modules.items()):
            if modname != "ssgm" and not modname.startswith("ssgm."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cov = importlib.import_module("ssgm.kernels").CovKernel
        call = cov.__call__
        _, post = self._hooks(KERNEL_CALL, originals)
        self._patched.append((cov, "__call__", call))
        cov.__call__ = self._wrap(KERNEL_CALL, call, None, post)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "job": s[JOB], "attrs": s[ATTRS]}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one job
# ---------------------------------------------------------------------------

def _attr(span, key, default=0):
    return (span[ATTRS] or {}).get(key, default)


def layer_metrics(spans: list, job, nproc: int) -> dict:
    """Per-layer metrics of one job (see README for each definition)."""
    ids = [i for i, s in enumerate(spans) if s[JOB] == job]
    child_time = defaultdict(float)
    for i in ids:
        s = spans[i]
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return max(dur(i) - child_time[i], 0.0)

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    def named(names):
        return [i for i in ids if spans[i][NAME] in names]

    def inclusive(names):
        """Time inside any of ``names``, counting nested calls once."""
        return sum(dur(i) for i in named(names)
                   if not any(spans[a][NAME] in names for a in ancestors(i)))

    def layer_self(prefix):
        return sum(self_time(i) for i in ids if spans[i][NAME].startswith(prefix + "."))

    leaves = named(LEAF_SAMPLERS)
    sample_s = sum(self_time(i) for i in named(SAMPLERS))
    points = sum(_attr(spans[i], "points") for i in leaves)
    quad_top = [i for i in named(QUADRATURE)
                if not any(spans[a][NAME] in QUADRATURE for a in ancestors(i))]
    simpson = named(("quadrature.adaptive_simpson",))
    entries = sum(_attr(spans[i], "entries") for i in named(("gram.build_gram",)))
    # (self seconds, path points) of each leaf sampler call at 1 and at nproc workers
    one = [(self_time(i), _attr(spans[i], "points")) for i in leaves if _attr(spans[i], "workers") == 1]
    many = [(self_time(i), _attr(spans[i], "points")) for i in leaves
            if nproc > 1 and _attr(spans[i], "workers") == nproc]
    if one and many:
        # seconds per point at 1 worker over nproc x seconds per point at nproc workers
        eff = (statistics.median(t / p for t, p in one)
               / (nproc * statistics.median(t / p for t, p in many)))
    else:
        eff = 0.0
    return {
        "samplers.sample_s": sample_s,
        "samplers.paths": sum(_attr(spans[i], "paths") for i in leaves),
        "samplers.path_points": points,
        "samplers.path_points_per_s": points / sample_s if sample_s > 0 else 0.0,
        "samplers.sample_s.threads1": statistics.median(t for t, _ in one) if one else 0.0,
        "samplers.sample_s.threads_max": statistics.median(t for t, _ in many) if many else 0.0,
        "samplers.parallel_eff": eff,
        "samplers.empirical_cov_s": inclusive(("samplers.empirical_cov",)),
        "samplers.jitter_max": max([_attr(spans[i], "jitter", 0.0) for i in leaves], default=0.0),
        "samplers.save_s": inclusive(("samplers.save_ensemble",)),
        "samplers.bytes_written": sum(_attr(spans[i], "bytes") for i in named(("samplers.save_ensemble",))),
        "gram.build_s": inclusive(("gram.build_gram",)),
        "gram.entries": entries,
        "gram.bytes": 8 * entries,
        "gram.psd_check_s": inclusive(("gram.psd_check",)),
        "gram.psd_calls": len(named(("gram.psd_check",))),
        "kernels.eval_s": layer_self("kernels"),
        "kernels.pairs": sum(_attr(spans[i], "pairs") for i in named((KERNEL_CALL,))),
        "kernels.pairs_quadrature": sum(1 for i in quad_top
                                        if any(spans[a][NAME] == KERNEL_CALL for a in ancestors(i))),
        "quadrature.self_s": layer_self("quadrature"),
        "quadrature.calls": len(simpson),
        "quadrature.evals": sum(_attr(spans[i], "evals") for i in simpson),
        "markov.doob_s": inclusive(("markov.doob_residual",)),
        "markov.test_s": inclusive(("markov.markov_test",)),
        "markov.asym_s": inclusive(("markov.asym_coeff_estimate",)),
        "markov.profile_s": inclusive(("markov.sqrt_diag_profile",)),
        "variation.trichotomy_s": sum(self_time(i) for i in named(("variation.pvariation_trichotomy",))),
        "variation.pvariation_sums": len(named(("variation.pvariation_sum",))),
        "variation.ergodic_s": inclusive(("variation.ergodic_average",)),
        "variation.limits_s": inclusive(("variation.increment_variance", "variation.int_limit_residual")),
        "cli.main_s": layer_self("cli"),
        "cli.calls": len(named(("cli.main",))),
        "cli.bytes_written": sum(_attr(spans[i], "bytes") for i in named(("cli.main",))),
        "config.parse_s": inclusive(CONFIG),
    }

