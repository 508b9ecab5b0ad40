"""Module boundaries: no ssgm module reaches into another module's private names."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from ssgm import CovKernel

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ssgm"
_MODULES = sorted(_SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(tree: ast.AST) -> set:
    """Every name the module binds: defs, classes, assignment targets and attributes it sets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _foreign_private_uses(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    own = _defined_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("ssgm")):
            found += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in own:
            found.append(f"{path.name}:{node.lineno} uses {ast.unparse(node)}")
    return found


def test_modules_found():
    assert {p.name for p in _MODULES} >= {"kernels.py", "samplers.py", "variation.py", "cli.py"}


def test_checker_flags_both_forms(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .kernels import _x, y\n"
                   "class A:\n    def __init__(self):\n        self._own = 1\n"
                   "def f(g):\n    return g._hidden + A()._own + g.__class__.__name__\n")
    assert _foreign_private_uses(mod) == ["mod.py:1 imports _x", "mod.py:6 uses g._hidden"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert _foreign_private_uses(path) == []


def _calls_of(name: str) -> list:
    """``module:function`` for every call of ``name`` inside a function, one entry per call."""
    callers = []
    for path in _MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [f"{path.name}:{fn.name}" for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return callers


def test_one_chunk_generator_draws():
    # one function draws every path: _draw_blocks's worker, once per drawing thread, keys each
    # block's stream through _block_generator (sample_spec's ensemble, and through reduce_blocks
    # the reducers of selfsim_check, the trichotomy and the ergodic average); nothing else keys one, and
    # _block_generator is the one place that builds a bit generator.  _calls_of walks nested
    # defs, so the worker's call counts for _draw_blocks too
    assert _calls_of("_block_generator") == ["samplers.py:_draw_blocks", "samplers.py:worker"]
    assert _calls_of("SFC64") == _calls_of("SeedSequence") == ["samplers.py:_block_generator"]
    assert [name for name in ("Philox", "PCG64", "MT19937", "default_rng", "RandomState")
            if _calls_of(name)] == []
    assert sorted(_calls_of("_draw_blocks")) == ["samplers.py:reduce_blocks", "samplers.py:sample_spec"]


def test_threads_start_in_the_block_runner_only():
    # the one place the package starts threads: the block drawer's per-call pool, which
    # sample_spec, selfsim_check and reduce_blocks draw their blocks on
    assert _calls_of("ThreadPoolExecutor") == ["samplers.py:_draw_blocks"]
    assert _calls_of("Thread") == []


def _isinf_of_c(path: pathlib.Path) -> list:
    """``module:line`` for every ``isinf`` call that takes a ``.c`` attribute."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "isinf"
            and any(isinstance(arg, ast.Attribute) and arg.attr == "c" for arg in node.args)]


def test_isinf_checker_flags_attribute_c(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("a = math.isinf(spec.c)\nb = np.isinf(self.c) or isinf(c) or math.isinf(spec.H)\n")
    assert _isinf_of_c(mod) == ["mod.py:1", "mod.py:2"]


def test_only_kernels_branches_on_infinite_c():
    # ProcessSpec makes a canonical spec given c = -inf the white-noise spec of its H, so no other
    # module tests a spec's c for the limit, and a sampler's plan carries no spec of its own:
    # sample_spec records the spec it was given
    assert [site for path in _MODULES if path.name != "kernels.py" for site in _isinf_of_c(path)] == []
    (plan,) = [node for node in ast.parse((_SRC / "samplers.py").read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == "_Plan"]
    fields = [stmt.target.id for stmt in plan.body if isinstance(stmt, ast.AnnAssign)]
    assert "n_draws" in fields and "spec" not in fields


def _environment_reads(path: pathlib.Path) -> list:
    """``module:line`` for every ``environ`` or ``getenv`` the module names."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if getattr(node, "attr", getattr(node, "id", None)) in ("environ", "getenv")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_reads_no_environment(path):
    # every input is a flag, a config block or an argument: no environment variable changes a run
    assert _environment_reads(path) == []


def test_nothing_reads_a_worker_count():
    # sample_spec counts the CPUs itself; get_max_workers is only a name the benchmark harness looks up
    assert _calls_of("get_max_workers") == []


def _package_imports() -> dict:
    """{module file name: names} that ``ssgm/__init__.py`` imports from each sibling module."""
    tree = ast.parse((_SRC / "__init__.py").read_text())
    return {f"{node.module}.py": [a.name for a in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


def _declared_all(path: pathlib.Path):
    """The literal ``__all__`` list a module assigns, or None."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_package_imports_found():
    assert {"errors.py", "kernels.py", "quadrature.py", "samplers.py"} <= set(_package_imports())


@pytest.mark.parametrize("module", sorted(_package_imports()))
def test_package_exports_are_declared_in_all(module):
    # each module the package re-exports from says what its public names are
    declared = _declared_all(_SRC / module)
    assert declared is not None, f"{module} declares no __all__"
    assert [n for n in _package_imports()[module] if n not in declared] == []


def _references_of(name: str) -> list:
    """``module:definition`` for every read of ``name``, attributed to the top-level statement holding it."""
    refs = []
    for path in _MODULES:
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", "<module>")
            refs += [f"{path.name}:{owner}" for node in ast.walk(stmt)
                     if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)]
    return refs


def test_one_covariance_entry_point():
    # every covariance is evaluated through make_kernel(spec)(s, t): only the kernel
    # reaches the time front end, only make_kernel a family's formula, and the kernel
    # stores nothing it can derive from its spec and formula
    assert _references_of("_on_quadrant") == ["kernels.py:CovKernel"]
    assert _references_of("_formula") == ["kernels.py:make_kernel"]
    assert tuple(f.name for f in dataclasses.fields(CovKernel)) == ("spec", "formula")


def test_eval_l_restates_no_covariance():
    # eval_l reads the family formula through make_kernel: every power comes from
    # _formula, so eval_l itself holds no ** node
    tree = ast.parse((_SRC / "kernels.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "eval_l"]
    assert [ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)] == []


def test_import_loads_no_optimizer():
    # the power-law fits are numpy variable projection: importing the package
    # and its CLI leaves scipy.optimize unloaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ssgm, ssgm.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _enters_one_blas_thread(fn: ast.AST) -> bool:
    return any(isinstance(node, ast.With) and any(ast.unparse(item.context_expr) == "one_blas_thread()"
                                                  for item in node.items)
               for node in ast.walk(fn))


def _unguarded_linalg_calls(path: pathlib.Path) -> list:
    """``module:function`` for each ``np.linalg`` call whose outermost function enters no ``one_blas_thread``."""
    found = []
    for stmt in ast.parse(path.read_text()).body:
        owners = [s for s in stmt.body if isinstance(s, ast.FunctionDef)] if isinstance(stmt, ast.ClassDef) else [stmt]
        for fn in owners:
            calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and ast.unparse(node.func).startswith("np.linalg.")]
            if calls and not (isinstance(fn, ast.FunctionDef) and _enters_one_blas_thread(fn)):
                found += [f"{path.name}:{getattr(fn, 'name', '<module>')}"] * len(calls)
    return found


def test_linalg_checker_flags_unguarded_calls(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def guarded(G):\n    def inner():\n        return np.linalg.eigvalsh(G)\n"
                   "    with one_blas_thread():\n        return inner()\n"
                   "def bare(G):\n    return np.linalg.det(G)\n"
                   "class A:\n    def m(self, G):\n        return np.linalg.cholesky(G)\n"
                   "E = np.linalg.inv(np.eye(2))\n")
    assert _unguarded_linalg_calls(mod) == ["mod.py:bare", "mod.py:m", "mod.py:<module>"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_linalg_runs_on_one_blas_thread(path):
    # every LAPACK call runs single-threaded: its bytes do not depend on OPENBLAS_NUM_THREADS,
    # and no idle OpenBLAS worker spins after it
    assert _unguarded_linalg_calls(path) == []


def test_one_blas_thread_defined_in_gram_only():
    defined = [f"{p.name}:{node.name}" for p in _MODULES for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "one_blas_thread"]
    assert defined == ["gram.py:one_blas_thread"]
    assert sorted(_calls_of("one_blas_thread")) == [
        "gram.py:minor_residual", "gram.py:psd_check", "markov.py:_power_fit",
        "samplers.py:_cholesky_with_jitter", "samplers.py:_draw_blocks", "samplers.py:empirical_cov"]


def test_import_looks_up_no_blas():
    # the OpenBLAS thread controls are found on the first one_blas_thread, not by importing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import ssgm, ssgm.cli; print(ssgm.gram._openblas_thread_controls.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
