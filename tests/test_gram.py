import os
import pathlib
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import ssgm
from ssgm import gram as gram_module
from ssgm import (GFunction, GramMatrix, MinorQuery, ProcessSpec, TimeGrid, build_gram,
                  gram_to_csv, lindstrom_minor, make_kernel, minor_residual,
                  psd_check, standard_grid)
from ssgm.errors import NumericalError, ParameterError
from ssgm.gram import one_blas_thread, power_gram
from ssgm.kernels import CovKernel
from ssgm.quadrature import integrate_power_upper


def _power_gram(alpha, beta, times):
    t = np.asarray(times, dtype=float)
    return np.maximum.outer(t, t) ** alpha / np.minimum.outer(t, t) ** beta


# ---------------------------------------------------------------------------
# TimeGrid
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        TimeGrid(np.array([2.0, 1.0]))
    with pytest.raises(ParameterError):
        TimeGrid(np.array([-1.0, 1.0]))
    with pytest.raises(ParameterError):
        TimeGrid(np.array([]))
    g = TimeGrid(np.array([0.0, 1.0, 2.0]))
    assert len(g) == 3


@pytest.mark.parametrize("times", [[np.nan], [1.0, np.inf], [0.0, 1.0, np.nan]])
def test_grid_rejects_non_finite_times(times):
    with pytest.raises(ParameterError, match="finite"):
        TimeGrid(np.array(times))


def test_geometric_grid():
    g = TimeGrid.geometric(0.05, 5.0, 20)
    assert len(g) == 20
    assert g.times[0] == pytest.approx(0.05)
    assert g.times[-1] == pytest.approx(5.0)
    ratios = g.times[1:] / g.times[:-1]
    assert np.allclose(ratios, ratios[0])


# ---------------------------------------------------------------------------
# build_gram
# ---------------------------------------------------------------------------

def test_gram_brownian():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    g = build_gram(k, TimeGrid(np.array([1.0, 2.0])))
    assert np.array_equal(g.entries, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_gram_white_noise_diagonal():
    k = make_kernel(ProcessSpec.white_noise(0.5))
    g = build_gram(k, TimeGrid(np.array([1.0, 2.0, 3.0])))
    assert np.array_equal(g.entries, np.diag([1.0, 2.0, 3.0]))


def test_gram_canonical_substitution():
    k = make_kernel(ProcessSpec.canonical(0.75, -1.0))
    g = build_gram(k, TimeGrid(np.array([1.0, 4.0])))
    assert np.allclose(g.entries, [[1.0, 2.0], [2.0, 8.0]], rtol=1e-14)


def test_gram_symmetry_enforced():
    k = make_kernel(ProcessSpec.fbm(0.3))
    g = build_gram(k, standard_grid())
    assert np.array_equal(g.entries, g.entries.T)


# ---------------------------------------------------------------------------
# psd_check
# ---------------------------------------------------------------------------

def test_psd_brownian():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    rep = psd_check(build_gram(k, standard_grid()))
    assert rep.is_psd
    assert rep.witness is None


def test_psd_white_noise():
    k = make_kernel(ProcessSpec.white_noise(0.7))
    rep = psd_check(build_gram(k, standard_grid()))
    assert rep.is_psd


@pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf")])
def test_psd_rejects_bad_tolerance(tol):
    gram = build_gram(make_kernel(ProcessSpec.fbm(0.25)), TimeGrid(np.array([1.0, 2.0, 3.0])))
    with pytest.raises(ParameterError):
        psd_check(gram, tol=tol)


def test_build_gram_passes_parameter_errors_through():
    # make_kernel rejects tol = 0 itself; an evaluator whose quadrature still
    # meets it must surface the ParameterError from build_gram unwrapped
    spec = ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1))
    with pytest.raises(ParameterError, match="tolerance"):
        make_kernel(spec, tol=0.0)
    quad = integrate_power_upper
    kernel = CovKernel(spec, lambda lo, hi, gap: quad(lambda x, d, _: np.cos(x), 0.0, 1.0, 0.0, 0.0).value)
    with pytest.raises(ParameterError, match="tolerance"):
        build_gram(kernel, standard_grid())


def test_build_gram_locates_failing_pair():
    kernel = make_kernel(ProcessSpec.volterra_g(0.25, 1.0, GFunction.log_pow(1)), budget=20)
    with pytest.raises(NumericalError) as info:
        build_gram(kernel, standard_grid())
    msg = str(info.value)
    assert "grid indices (0,1), times (0.05, 0.0637" in msg
    assert "np." not in msg and "budget of 20" in msg


def test_build_gram_refuses_non_finite_entry():
    # fBm H = 0.9 at t ~ 1e172: s^(2H) + t^(2H) overflows and the covariance is inf - inf
    grid = TimeGrid.geometric(1e170, 1e180, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is the error below, not a RuntimeWarning
        with pytest.raises(NumericalError) as info:
            build_gram(make_kernel(ProcessSpec.fbm(0.9)), grid)
    assert str(info.value) == ("Gram entry (0,1) at times (1e+170, 3.162277660168379e+172) "
                               "is nan, not finite")


def test_power_gram_refuses_non_finite_entry():
    q = MinorQuery(400.0, -400.0, TimeGrid.geometric(0.05, 5.0, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^Gram entry \(14,19\) at times \(1\.48817.*, 5\.0\) is inf"):
            power_gram(q)


def test_gram_matrix_refuses_non_finite_entry():
    # the type states the rule: a hand-built matrix is refused as build_gram's are
    entries = np.array([[1.0, np.nan], [np.nan, 4.0]])
    with pytest.raises(NumericalError) as info:
        GramMatrix(TimeGrid(np.array([1.0, 2.0])), entries)
    assert str(info.value) == "Gram entry (0,1) at times (1.0, 2.0) is nan, not finite"


def test_not_psd_above_boundary_with_witness():
    # alpha + beta = 0.5 > 0 on grid (1, 2): [[1, 2^a], [2^a, 2^(a-b)]]
    alpha, beta = 0.3, 0.2
    times = np.array([1.0, 2.0])
    from ssgm.gram import GramMatrix

    gram = GramMatrix(TimeGrid(times), _power_gram(alpha, beta, times))
    rep = psd_check(gram)
    assert not rep.is_psd
    assert rep.witness is not None
    quad = float(rep.witness @ gram.entries @ rep.witness)
    assert quad < 0.0
    assert rep.quadratic_form == pytest.approx(quad)


def test_psd_rank_one_degenerate():
    # c = -H gives the rank-one covariance (st)^H; PSD with zero eigenvalues
    k = make_kernel(ProcessSpec.canonical(0.7, -0.7))
    rep = psd_check(build_gram(k, TimeGrid(np.array([0.5, 1.0, 2.0]))))
    assert rep.is_psd


def _counting_eigh(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.mark.parametrize("spec", [ProcessSpec.fbm(0.25), ProcessSpec.canonical(0.5, -1.0),
                                  ProcessSpec.riemann_liouville(0.75)], ids=lambda s: s.label())
def test_psd_verdict_reads_eigenvalues_only(spec, monkeypatch):
    calls = _counting_eigh(monkeypatch)
    gram = build_gram(make_kernel(spec), TimeGrid(np.geomspace(0.05, 5.0, 60)))
    rep = psd_check(gram)
    assert rep.is_psd and calls == []
    assert rep.min_eigenvalue_bound == float(np.linalg.eigvalsh(gram.entries)[0])


@pytest.mark.parametrize("least, verdict", [(-1e-10, "PSD"), (np.nextafter(-1e-10, -1.0), "NotPSD")])
def test_psd_verdict_decided_from_reported_eigenvalue(least, verdict, monkeypatch):
    # the threshold is -tol * max(diagonal) = -1e-10 exactly; eigvalsh's smallest
    # eigenvalue is both the bound reported and the number the verdict reads
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([least, 1.0]))
    gram = GramMatrix(TimeGrid(np.array([1.0, 2.0])), np.eye(2))
    rep = psd_check(gram, tol=1e-10)
    assert rep.verdict == verdict
    assert rep.min_eigenvalue_bound == least


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.2), (0.5, 0.5), (1.0, -0.5), (2.0, 0.1)])
def test_not_psd_witness_from_one_decomposition(alpha, beta, monkeypatch):
    calls = _counting_eigh(monkeypatch)
    times = np.geomspace(0.5, 4.0, 7)
    gram = GramMatrix(TimeGrid(times), _power_gram(alpha, beta, times))
    rep = psd_check(gram)
    assert not rep.is_psd and len(calls) == 1
    assert rep.min_eigenvalue_bound == float(np.linalg.eigvalsh(gram.entries)[0])
    assert np.linalg.norm(rep.witness) == pytest.approx(1.0, abs=1e-12)
    assert rep.quadratic_form == float(rep.witness @ gram.entries @ rep.witness) < 0.0


@pytest.mark.parametrize("alpha,beta", [(0.0, -1.0), (-1.0, 0.3), (-0.5, 0.5), (-2.0, 1.0)])
def test_psd_iff_boundary(alpha, beta):
    # alpha + beta <= 0 is PSD on any positive grid
    times = np.geomspace(0.5, 4.0, 7)
    from ssgm.gram import GramMatrix

    gram = GramMatrix(TimeGrid(times), _power_gram(alpha, beta, times))
    assert psd_check(gram).is_psd == (alpha + beta <= 0)


# ---------------------------------------------------------------------------
# lindstrom_minor / chain_det / minor_residual
# ---------------------------------------------------------------------------

def test_lindstrom_brownian_2x2():
    q = MinorQuery(0.0, -1.0, TimeGrid(np.array([1.0, 2.0])))
    # direct 2x2 determinant of [[1,1],[1,2]] is 1
    assert lindstrom_minor(q) == pytest.approx(1.0, rel=1e-15)


def test_lindstrom_zero_on_boundary():
    q = MinorQuery(0.4, -0.4, TimeGrid(np.array([1.0, 2.0, 3.0])))
    assert lindstrom_minor(q) == 0.0


def test_lindstrom_three_point_oracle():
    q = MinorQuery(-1.0, 0.5, TimeGrid(np.array([1.0, 2.0, 3.0])))
    expected = 3.0 ** (-1.5) * (1 - 2 ** (-0.5)) * (2 ** (-0.5) - 3 ** (-0.5)) / 2.0
    assert lindstrom_minor(q) == pytest.approx(expected, rel=1e-14)
    direct = np.linalg.det(_power_gram(-1.0, 0.5, [1.0, 2.0, 3.0]))
    assert lindstrom_minor(q) == pytest.approx(direct, rel=1e-12)


def test_lindstrom_d1():
    q = MinorQuery(0.7, -0.2, TimeGrid(np.array([3.0])))
    assert lindstrom_minor(q) == pytest.approx(3.0**0.9, rel=1e-15)


def test_lindstrom_negative_for_positive_sum_d2():
    q = MinorQuery(0.3, 0.2, TimeGrid(np.array([1.0, 2.0])))
    assert lindstrom_minor(q) < 0.0


def test_lindstrom_requires_positive_grid():
    with pytest.raises(ParameterError):
        MinorQuery(0.0, -1.0, TimeGrid(np.array([0.0, 1.0])))


@pytest.mark.parametrize("alpha, beta", [(float("nan"), 0.1), (0.3, float("inf")), (float("-inf"), 0.0)])
def test_minor_query_rejects_nonfinite_exponents(alpha, beta):
    with pytest.raises(ParameterError, match="finite alpha and beta"):
        MinorQuery(alpha, beta, TimeGrid(np.array([1.0, 2.0])))


def chain_det(table: np.ndarray) -> float:
    """Determinant of (f_i(x_i ^ x_j)) from the triangular table f_i(x_j), j <= i: the oracle of
    ``lindstrom_minor``.

    Equals prod_i (f_i(x_i) - f_i(x_{i-1})), with the i = 1 factor f_1(x_1):
    the chain's Moebius function is 1 on the diagonal, -1 on the subdiagonal
    and 0 elsewhere.
    """
    result = table[0, 0]
    for i in range(1, len(table)):
        result *= table[i, i] - table[i, i - 1]
    return float(result)


def test_chain_det_trivial():
    assert chain_det(np.array([[7.0]])) == 7.0


def test_chain_det_min_matrix():
    # f_i(x) = x reproduces the min-matrix determinant
    times = np.array([1.0, 2.0, 3.0])
    table = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0, 3.0]])
    got = chain_det(table)
    direct = np.linalg.det(np.minimum.outer(times, times))
    assert got == pytest.approx(1.0, rel=1e-14)
    assert got == pytest.approx(direct, rel=1e-12)


def test_chain_det_reproduces_lindstrom():
    # f_i(t_j) = (t_i/t_j)^(alpha+beta), times (t_1...t_d)^(alpha-beta)
    rng = np.random.default_rng(8)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        times = np.cumprod(rng.uniform(1.1, 2.0, size=d)) * rng.uniform(0.5, 1.5)
        alpha = rng.uniform(-2.0, 1.0)
        beta = rng.uniform(-1.5, -alpha)  # keep alpha + beta <= 0 mostly
        table = np.zeros((d, d))
        for i in range(d):
            table[i, : i + 1] = (times[i] / times[: i + 1]) ** (alpha + beta)
        prefactor = np.prod(times) ** (alpha - beta)
        got = prefactor * chain_det(table)
        want = lindstrom_minor(MinorQuery(alpha, beta, TimeGrid(times)))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-300)


def test_minor_residual_brownian():
    q = MinorQuery(0.0, -1.0, TimeGrid(np.array([1.0, 2.0, 3.0, 4.0])))
    assert minor_residual(q) <= 1e-12


def test_minor_residual_geometric_8pt():
    q = MinorQuery(-2.0, 1.0, TimeGrid.geometric(0.5, 4.0, 8))
    assert minor_residual(q) <= 1e-8


def test_minor_residual_d1():
    q = MinorQuery(-1.0, 0.3, TimeGrid(np.array([2.0])))
    assert minor_residual(q) == 0.0


def test_minor_residual_random_sweep():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        ratios = rng.uniform(1.05, 2.0, size=d)
        times = 0.5 * np.cumprod(ratios)
        s = rng.uniform(-3.0, 0.0)  # alpha + beta in [-3, 0]
        alpha = rng.uniform(-2.0, 2.0)
        beta = s - alpha
        assert minor_residual(MinorQuery(alpha, beta, TimeGrid(times))) <= 1e-8


def test_leading_minors_of_canonical_nonneg():
    # principal minors of canonical Gram matrices (alpha = 2H+c, beta = c)
    rng = np.random.default_rng(10)
    for _ in range(20):
        H = rng.uniform(0.2, 1.2)
        c = -H - rng.uniform(0.0, 2.0)
        times = 0.3 * np.cumprod(rng.uniform(1.1, 1.9, size=8))
        k = make_kernel(ProcessSpec.canonical(H, float(c)))
        G = build_gram(k, TimeGrid(times)).entries
        for d in range(1, 9):
            minor = np.linalg.det(G[:d, :d])
            closed = lindstrom_minor(MinorQuery(2 * H + c, c, TimeGrid(times[:d])))
            assert minor >= -1e-10 * abs(closed) - 1e-15
            assert closed >= 0.0


def test_gram_csv_format():
    k = make_kernel(ProcessSpec.canonical(0.5, -1.0))
    g = build_gram(k, TimeGrid(np.array([1.0, 2.0])))
    text = gram_to_csv(g)
    lines = text.split("\n")
    assert lines[0] == "1.0000000000000000e+00,2.0000000000000000e+00"
    assert len(lines) == 4 and lines[-1] == ""
    assert "\r" not in text


# ---------------------------------------------------------------------------
# one_blas_thread
# ---------------------------------------------------------------------------

class _FakeBlas:
    """A thread count behind (get, set), as the OpenBLAS lookup returns them."""

    def __init__(self, threads):
        self.threads = threads

    def controls(self):
        return self.get, self.set

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


def test_one_blas_thread_restores_counts_and_nests(monkeypatch):
    libs = [_FakeBlas(2), _FakeBlas(4)]
    monkeypatch.setattr(gram_module, "_openblas_thread_controls", lambda: tuple(b.controls() for b in libs))
    with one_blas_thread():
        assert [b.threads for b in libs] == [1, 1]
        with one_blas_thread():
            assert [b.threads for b in libs] == [1, 1]
        assert [b.threads for b in libs] == [1, 1]  # the inner exit leaves the outer body at one thread
    assert [b.threads for b in libs] == [2, 4]
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("body failed")
    assert [b.threads for b in libs] == [2, 4]


def test_one_blas_thread_overlapping_threads_restore_counts(monkeypatch):
    # A enters, B enters, A exits while B is inside, B exits: as block draws on two threads do
    libs = [_FakeBlas(2), _FakeBlas(4)]
    monkeypatch.setattr(gram_module, "_openblas_thread_controls", lambda: tuple(b.controls() for b in libs))
    barrier = threading.Barrier(2, timeout=10)
    seen = []

    def first():
        with one_blas_thread():
            barrier.wait()  # 1: A inside
            barrier.wait()  # 2: B inside
        barrier.wait()  # 3: A out
        barrier.wait()  # 4: B has looked

    def second():
        barrier.wait()
        with one_blas_thread():
            barrier.wait()
            barrier.wait()
            seen.append([b.threads for b in libs])
        barrier.wait()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[1, 1]]  # A's exit left B's body at one thread
    assert [b.threads for b in libs] == [2, 4]


def test_one_blas_thread_overlapping_threads_restore_once(monkeypatch):
    # thread A enters, B enters, A leaves while B is inside, B leaves: B's body keeps one
    # thread and the count ends where it began (a save/restore per entry would leave 1)
    lib = _FakeBlas(2)
    monkeypatch.setattr(gram_module, "_openblas_thread_controls", lambda: (lib.controls(),))
    a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with one_blas_thread():
            a_inside.set()
            b_inside.wait(5)
        a_left.set()

    def b():
        a_inside.wait(5)
        with one_blas_thread():
            b_inside.set()
            a_left.wait(5)
            seen.append(lib.threads)

    workers = [threading.Thread(target=a), threading.Thread(target=b)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(10)
    assert not any(w.is_alive() for w in workers)
    assert a_left.is_set() and seen == [1]
    assert lib.threads == 2


def test_one_blas_thread_without_openblas_is_a_no_op(monkeypatch):
    real = gram_module._openblas_thread_controls()
    before = [get() for get, _ in real]
    monkeypatch.setattr(gram_module, "_openblas_thread_controls", lambda: ())
    with one_blas_thread():
        assert [get() for get, _ in real] == before
    assert [get() for get, _ in real] == before


def test_one_blas_thread_sets_loaded_openblas():
    controls = gram_module._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS with a known thread-count symbol is loaded in this process")
    before = [get() for get, _ in controls]
    with one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


# psd_check on the 400-point Gram, then the CPU time over a 0.3 s sleep; threaded,
# OpenBLAS's idle workers busy-wait through about 130 ms of it
_IDLE_CPU = """
import time
from ssgm import ProcessSpec, TimeGrid, build_gram, make_kernel, psd_check
from ssgm.gram import _openblas_thread_controls
psd_check(build_gram(make_kernel(ProcessSpec.fbm(0.25)), TimeGrid.geometric(0.05, 5, 400)))
t0 = time.process_time()
time.sleep(0.3)
print(len(_openblas_thread_controls()), time.process_time() - t0)
"""


def test_psd_check_leaves_no_blas_thread_spinning():
    src = str(pathlib.Path(ssgm.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}  # OpenBLAS's default count
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _IDLE_CPU], env=env, capture_output=True, text=True, check=True)
    libraries, idle_cpu = out.stdout.split()
    if libraries == "0":
        pytest.skip("no OpenBLAS with a known thread-count symbol is loaded, so none is set to one thread")
    assert float(idle_cpu) < 0.030
