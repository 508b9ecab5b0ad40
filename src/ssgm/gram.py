"""Gram matrices, positive-semidefiniteness checks, and closed-form minors.

The determinant of the matrix ((t_i v t_j)^alpha / (t_i ^ t_j)^beta) over a
strictly increasing positive grid factorizes as

    t_d^(alpha-beta) * prod_{i<d} (t_i^(alpha+beta) - t_{i+1}^(alpha+beta)) / t_i^(2 beta),

a chain specialization of the determinant identity for matrices of the form
f_i(x_i ^ x_j).  Every factor is nonnegative exactly when alpha + beta <= 0,
which is also the positive-definiteness boundary of that kernel family.

Dense linear algebra in the package (eigenvalues here, Cholesky factors,
path matrix products and the empirical covariance in ``samplers``, the
least-squares fits in ``markov``) runs inside ``one_blas_thread``: OpenBLAS picks its summation
order from its thread count, and its idle workers busy-wait after every
threaded call, so one thread gives bytes that do not depend on
``OPENBLAS_NUM_THREADS`` and spends no CPU beside the call.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, ParameterError, check_integer
from .kernels import CovKernel

__all__ = [
    "TimeGrid",
    "GramMatrix",
    "MinorQuery",
    "PosDefReport",
    "standard_grid",
    "build_gram",
    "psd_check",
    "power_gram",
    "lindstrom_minor",
    "minor_residual",
    "gram_to_csv",
    "one_blas_thread",
]

# (get, set) thread-count symbols: numpy and scipy wheels bundle OpenBLAS with a
# prefix (64- and 32-bit integer builds); a system OpenBLAS has none
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS the process has loaded.

    Read once, on first use, from the shared objects mapped in
    ``/proc/self/maps``; empty where there is none (another BLAS, or no
    ``/proc``).  numpy's own OpenBLAS is loaded with numpy, so it is always
    among them when it exists.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


# The thread count is process-wide, so one depth count serves every caller: the
# outermost entry saves the counts and sets 1, the last exit restores them, and
# overlapping entries from several Python threads cannot leave the count at 1.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: tuple = ()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread; restore the counts on exit.

    Nested and overlapping entries are fine.  Where no OpenBLAS is found the
    body runs unchanged, at whatever thread count the BLAS has.
    """
    global _blas_depth, _blas_saved
    controls = _openblas_thread_controls()
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = tuple(get() for get, _ in controls)
            for _, set_ in controls:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), n in zip(controls, _blas_saved):
                    set_(n)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing, nonnegative, finite sample times."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 1:
            raise ParameterError("grid must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(times)):
            raise ParameterError("grid times must be finite")
        if np.any(times < 0):
            raise ParameterError("grid times must be nonnegative")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ParameterError("grid times must be strictly increasing")

    @classmethod
    def geometric(cls, start: float, stop: float, points: int) -> "TimeGrid":
        if not 0 < start < stop:
            raise ParameterError(f"geometric grid requires 0 < start < stop, got {start!r}, {stop!r}")
        points = check_integer(points, "points", 1)
        check_array_size(points, "a geometric grid")
        return cls(np.geomspace(start, stop, points))

    def __len__(self) -> int:
        return int(self.times.size)

    def scaled(self, a: float) -> "TimeGrid":
        if not a > 0:
            raise ParameterError("scale factor must be positive")
        return TimeGrid(self.times * a)


def check_array_size(n_values: int, what: str) -> None:
    """Refuse ``what``, ``n_values`` float64 values, before numpy is asked for an array it cannot represent."""
    limit = np.iinfo(np.intp).max // 8  # numpy refuses an array of more bytes (np.arange wraps)
    if n_values > limit:
        raise ParameterError(f"{what} needs {n_values} float64 values; an array holds at most {limit}")


def standard_grid() -> TimeGrid:
    """20-point geometric grid on [0.05, 5], the default for kernel diagnostics."""
    return TimeGrid.geometric(0.05, 5.0, 20)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric covariance matrix entries[i][j] = R(t_i, t_j) over a grid; a non-finite entry is refused."""

    grid: TimeGrid
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        d = len(self.grid)
        if entries.shape != (d, d):
            raise ParameterError(f"entries must be {d}x{d}, got {entries.shape}")
        finite = np.isfinite(entries)
        if not finite.all():
            i, j = (int(k) for k in np.argwhere(~finite)[0])  # row-major first, so i <= j in a symmetric matrix
            t = self.grid.times
            raise NumericalError(f"Gram entry ({i},{j}) at times ({float(t[i])!r}, {float(t[j])!r}) "
                                 f"is {float(entries[i, j])!r}, not finite")


@dataclass(frozen=True)
class MinorQuery:
    """(alpha, beta) kernel exponents together with a positive grid."""

    alpha: float
    beta: float
    grid: TimeGrid

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError(f"minor queries require finite alpha and beta, "
                                 f"got {self.alpha!r}, {self.beta!r}")
        if np.any(self.grid.times <= 0):
            raise ParameterError("minor queries require strictly positive grid times")


@dataclass(frozen=True)
class PosDefReport:
    """Verdict of a positive-semidefiniteness check."""

    verdict: str  # "PSD" | "NotPSD"
    min_eigenvalue_bound: float
    tol: float
    witness: Optional[np.ndarray] = None
    quadratic_form: Optional[float] = None

    @property
    def is_psd(self) -> bool:
        return self.verdict == "PSD"


def build_gram(kernel: CovKernel, grid: TimeGrid) -> GramMatrix:
    """Evaluate the kernel on the upper triangle i <= j and mirror it.

    An entry that overflows or is otherwise not finite raises
    :class:`NumericalError` naming it.
    """
    times = grid.times
    d = times.size
    iu, ju = np.triu_indices(d)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is refused below
            vals = np.asarray(kernel(times[iu], times[ju]), dtype=float)
    except ParameterError:
        raise
    except Exception as exc:
        # locate the first failing pair so the error carries (i, j) context
        for i, j in zip(iu, ju):
            try:
                kernel(float(times[i]), float(times[j]))
            except Exception as inner:
                raise NumericalError(
                    f"kernel evaluation failed at grid indices ({i},{j}), "
                    f"times ({float(times[i])!r}, {float(times[j])!r}): {inner}"
                ) from inner
        raise NumericalError(f"kernel evaluation failed on grid: {exc}") from exc
    entries = np.zeros((d, d), dtype=float)
    entries[iu, ju] = vals
    entries[ju, iu] = vals
    return GramMatrix(grid, entries)


def psd_check(gram: GramMatrix, tol: float = 1e-10) -> PosDefReport:
    """Decide positive semidefiniteness from the symmetric eigenvalues alone.

    The matrix passes when its smallest eigenvalue (``eigvalsh``, no
    eigenvectors, one BLAS thread) is at least ``-tol * max(diagonal)``.
    That computed eigenvalue is what ``min_eigenvalue_bound`` reports: it
    is accurate to about ``d * eps * max|lambda|``, and it is not a bound
    (near zero it may carry either sign).  Only on failure is the full
    decomposition taken, for the witness: the unit eigenvector ``a`` of
    the smallest eigenvalue, with ``sum_kl a_k a_l R(t_k, t_l) < 0``.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ParameterError(f"PSD tolerance must be nonnegative and finite, got {tol!r}")
    G = gram.entries
    max_diag = float(np.max(np.abs(np.diag(G))))
    threshold = -tol * max(max_diag, 1.0e-300)
    with one_blas_thread():
        min_eig = float(np.linalg.eigvalsh(G)[0])
        if min_eig >= threshold:
            return PosDefReport("PSD", min_eig, tol)
        witness = np.linalg.eigh(G)[1][:, 0]
        qform = float(witness @ G @ witness)
    return PosDefReport("NotPSD", min_eig, tol, witness=witness, quadratic_form=qform)


def power_gram(q: MinorQuery) -> GramMatrix:
    """The power-family Gram matrix ((t_i v t_j)^alpha / (t_i ^ t_j)^beta)."""
    t = q.grid.times
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite entry is refused
        entries = np.maximum.outer(t, t) ** q.alpha / np.minimum.outer(t, t) ** q.beta
    return GramMatrix(q.grid, entries)


def lindstrom_minor(q: MinorQuery) -> float:
    """Closed-form determinant of the (alpha, beta) Gram matrix.

    For d = 1 this is t_1^(alpha - beta).  ``MinorQuery`` makes every time positive.
    """
    t = q.grid.times
    a, b = q.alpha, q.beta
    result = t[-1] ** (a - b)
    if t.size > 1:
        s = t ** (a + b)
        result *= float(np.prod((s[:-1] - s[1:]) / t[:-1] ** (2.0 * b)))
    return float(result)


def minor_residual(q: MinorQuery) -> float:
    """Relative gap between the closed-form minor and a direct determinant.

    The direct determinant uses pivoted elimination; the comparison is scaled
    by the product of matrix row norms (Hadamard bound), since the minors
    themselves underflow quickly as d grows.
    """
    if len(q.grid) > 12:
        raise ParameterError("direct determinants are limited to d <= 12")
    G = power_gram(q).entries
    with one_blas_thread():
        direct = float(np.linalg.det(G))
        scale = float(np.prod(np.linalg.norm(G, axis=1)))
    closed = lindstrom_minor(q)
    return abs(closed - direct) / max(scale, 1e-300)


def gram_to_csv(gram: GramMatrix) -> str:
    """CSV text: header = grid times, then matrix rows; 17 significant digits, LF."""
    lines = [",".join(f"{x:.16e}" for x in gram.grid.times)]
    for row in gram.entries:
        lines.append(",".join(f"{x:.16e}" for x in row))
    return "\n".join(lines) + "\n"
