"""Tests for the dense linear-algebra substrate."""

import dataclasses
import json
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

import kaczmarz_lab as kl
from kaczmarz_lab import experiments, linalg
from kaczmarz_lab.errors import NumericalError


class TestSvd:
    def test_identity(self):
        sv = kl.svd(np.eye(3), rank_tol=0.0)
        assert sv.rank == 3
        np.testing.assert_allclose(sv.S, np.ones(3))
        np.testing.assert_allclose(sv.V.T @ sv.V, np.eye(3), atol=1e-14)

    def test_fields_are_S_V_rank_tol(self):
        # U (m-by-r) is not kept: the library reads only the row space
        assert [f.name for f in dataclasses.fields(kl.SvdResult)] == ["S", "V", "rank_tol"]

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        sv = kl.svd(np.outer(u, v))
        assert sv.rank == 1
        np.testing.assert_allclose(sv.S, [1.0], rtol=1e-12)

    def test_zero_matrix_rank_zero(self):
        with pytest.raises(NumericalError, match="rank zero"):
            kl.svd(np.zeros((3, 3)))

    @pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -1e-3])
    def test_bad_rank_tol_rejected(self, rank_tol):
        with pytest.raises(ValueError, match="rank_tol"):
            kl.svd(np.eye(3), rank_tol=rank_tol)

    def test_gravity_condition_number(self):
        # sigma_max / sigma_min of gravity(128, 0.02) is about 415.7
        sv = kl.svd(kl.gravity(128, 0.02).A, rank_tol=0.0)
        cond = sv.S[0] / sv.S[-1]
        assert abs(cond - 415.7) / 415.7 < 0.05

    @pytest.mark.parametrize("shape", [(8, 5), (5, 8), (7, 7)])
    def test_reconstruction(self, shape):
        # A V V^T = A when V spans the row space, and A v_i = s_i u_i
        # with a unit u_i
        A = np.random.default_rng(7).standard_normal(shape)
        sv = kl.svd(A)
        err = np.linalg.norm(A - A @ sv.V @ sv.V.T, "fro")
        assert err <= 1e-10 * np.linalg.norm(A, "fro") * max(shape)
        np.testing.assert_allclose(np.linalg.norm(A @ sv.V, axis=0), sv.S, rtol=1e-12)

    def test_orthonormal_factors(self):
        A = np.random.default_rng(3).standard_normal((20, 12))
        sv = kl.svd(A)
        r = sv.rank
        AV = A @ sv.V  # U diag(S): orthogonal columns of norms S
        assert np.linalg.norm(AV.T @ AV - np.diag(sv.S**2)) <= 1e-10 * r * sv.S[0] ** 2
        assert np.linalg.norm(sv.V.T @ sv.V - np.eye(r)) <= 1e-10 * r
        assert np.all(np.diff(sv.S) <= 0) and np.all(sv.S > 0)


def complex_eigenvectors(lam, R0, conj) -> np.ndarray:
    """The complex eigenvector matrix C of a real basis R0 with conjugate index conj.

    Column i is R0[:, i] + i R0[:, conj[i]] where Im lambda_i > 0, the
    conjugate of that at conj[i], and R0[:, i] for a real mode.
    """
    C = R0.astype(complex)
    up = np.flatnonzero(lam.imag > 0)
    C.imag[:, up] = R0[:, conj[up]]
    C[:, conj[up]] = C[:, up].conj()
    return C


def lapack_eigenvectors(M) -> np.ndarray:
    """scipy's complex eigenvectors of M, sorted as eig_general sorts its eigenvalues."""
    w, X = sla.eig(M)
    return X[:, linalg._eig_order(w)]


class TestEigGeneral:
    def test_diagonal(self):
        res = kl.eig_general(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(res.eigenvalues, [3, 2, 1])
        # eigenvectors are (signed) unit vectors
        np.testing.assert_allclose(np.abs(res.R0), np.eye(3), atol=1e-14)

    def test_rotation_pure_imaginary(self):
        # ties sort by ascending imaginary part, so -i comes first
        res = kl.eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(res.eigenvalues, [-1j, 1j], atol=1e-14)

    def test_against_characteristic_polynomial_roots(self):
        # oracle: symbolic characteristic polynomial at n=5, roots via the
        # companion matrix (np.roots)
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(11)
        M = rng.standard_normal((5, 5))
        lam = sympy.symbols("lam")
        coeffs = sympy.Matrix(M).charpoly(lam).all_coeffs()
        roots = np.roots([float(c) for c in coeffs])
        got = np.sort_complex(kl.eig_general(M).eigenvalues)
        np.testing.assert_allclose(np.sort_complex(roots), got, atol=1e-8)

    def test_residuals_and_conjugate_pairs(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((10, 10))
        res = kl.eig_general(M)
        C = complex_eigenvectors(res.eigenvalues, res.R0, res.conj)
        for lam, w in zip(res.eigenvalues, C.T):
            assert np.linalg.norm(M @ w - lam * w) <= 1e-8 * np.linalg.norm(M, 2)
        complex_ev = res.eigenvalues[np.abs(res.eigenvalues.imag) > 0]
        assert np.allclose(np.sort_complex(complex_ev),
                           np.sort_complex(complex_ev.conj()))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            kl.eig_general(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_sort_order_deterministic(self):
        res = kl.eig_general(np.diag([1.0, -1.0, 2.0]))
        np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0, -1.0])


def _rotation_blocks():
    """Two identical interleaved rotation blocks: each of e^{+-0.7i} exactly twice."""
    c, s = np.cos(0.7), np.sin(0.7)
    return np.kron(np.array([[c, -s], [s, c]]), np.eye(2))


def _restricted(p):
    return kl.restrict_to_V(p.A, kl.build_L(p.A, 1.0), kl.svd(p.A)).Gv


@pytest.fixture(scope="module")
def tomo24_restricted():
    return _restricted(kl.paralleltomo(24, 32, 32))


@pytest.fixture(scope="module", params=["symmetric", "rotation_blocks", "gravity128", "tomo24"])
def pair_case(request):
    """A real matrix and its eigendecomposition, with real, repeated and many complex pairs."""
    if request.param == "symmetric":
        B = np.random.default_rng(2).standard_normal((9, 9))
        M = B + B.T
    elif request.param == "rotation_blocks":
        M = _rotation_blocks()
    elif request.param == "gravity128":
        M = _restricted(kl.gravity(128, 0.02))  # kappa about 1.7e6
    else:
        M = request.getfixturevalue("tomo24_restricted")
    return request.param, M, kl.eig_general(M)


class TestConjugatePairs:
    """The real basis R0, kappa from it, and the ``conj`` index of each eigenvalue.

    The complex references are scipy's own eigenvectors, sorted as
    eig_general sorts, and the matrix C that R0 and conj stand for.
    """

    def test_kappa_is_cond_of_complex_eigenvectors(self, pair_case):
        _, _, eig = pair_case
        want = np.linalg.cond(complex_eigenvectors(eig.eigenvalues, eig.R0, eig.conj), 2)
        assert eig.kappa == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_conj_is_exact(self, pair_case):
        _, M, eig = pair_case
        lam, conj = eig.eigenvalues, eig.conj
        X = lapack_eigenvectors(M)
        assert np.array_equal(lam[conj], lam.conj())
        assert np.array_equal(X[:, conj], X.conj())
        assert np.array_equal(conj[conj], np.arange(lam.size))
        assert np.array_equal(conj == np.arange(lam.size), lam.imag == 0)

    def test_real_vectors_span_the_eigenvectors(self, pair_case):
        # x = a + i b and conj(x) = a - i b for a pair whose columns in R0
        # are a, b: exactly LAPACK's vectors, so C is R0 and conj in full
        _, M, eig = pair_case
        X = lapack_eigenvectors(M)
        C = complex_eigenvectors(eig.eigenvalues, eig.R0, eig.conj)
        assert not np.iscomplexobj(eig.R0)
        assert C.tobytes() == X.astype(complex).tobytes()

    def test_R0_is_dgeev_vr_sorted(self, pair_case):
        # R0 is LAPACK's real right-vector array itself, bit for bit, with
        # its columns in the order of the sorted eigenvalues
        _, M, eig = pair_case
        work, _ = lapack.dgeev_lwork(M.shape[0], compute_vl=0)
        wr, wi, _, vr, info = lapack.dgeev(M, compute_vl=0, lwork=int(work))
        assert info == 0
        w = wr + 1j * wi
        order = linalg._eig_order(w)
        assert np.array_equal(eig.eigenvalues, w[order])
        want = np.ascontiguousarray(vr[:, order])
        assert np.ascontiguousarray(eig.R0).tobytes() == want.tobytes()

    def test_only_the_eigenvalues_are_complex(self, pair_case):
        _, _, eig = pair_case
        for f in dataclasses.fields(eig):
            value = getattr(eig, f.name)
            if isinstance(value, np.ndarray) and f.name != "eigenvalues":
                assert not np.iscomplexobj(value), f.name

    def test_case_spectra(self, pair_case):
        name, M, eig = pair_case
        lam = eig.eigenvalues
        if name == "symmetric":
            # a real spectrum is returned as a real array
            assert not np.iscomplexobj(lam)
            assert np.array_equal(eig.conj, np.arange(9))
        elif name == "rotation_blocks":
            np.testing.assert_allclose(lam, np.exp(0.7j * np.array([-1, -1, 1, 1])), atol=1e-12)
            # adjacent sorted entries are equal, not conjugate: pairs come from LAPACK's order
            assert set(eig.conj[:2]) == {2, 3}
        elif name == "gravity128":
            assert 1e6 < eig.kappa < 3e6
        else:
            assert np.count_nonzero(lam.imag) == 490


def test_eig_general_memory(tomo24_restricted):
    # R0 is dgeev's own real array, and no complex vectors are formed: at
    # r = 576 the traced peak is 5.6 MiB; it was 15.2 MiB when a sorted
    # complex copy was kept
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eig = kl.eig_general(tomo24_restricted)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert eig.R0.shape == (576, 576)
    assert peak <= 8 * 2**20


def test_dgeev_failure_raises(monkeypatch):
    def failing(a, compute_vl=1, compute_vr=1, lwork=None, overwrite_a=0):
        n = a.shape[0]
        return np.zeros(n), np.zeros(n), np.zeros((1, 1)), np.zeros((n, n)), n
    monkeypatch.setattr(linalg.lapack, "dgeev", failing)
    with pytest.raises(NumericalError, match="dgeev info = 3"):
        kl.eig_general(np.eye(3))


class TestRealInputOnly:
    # complex or non-numeric data is rejected, never cast to its real part
    # with a ComplexWarning
    @pytest.mark.parametrize("fn", [kl.svd, kl.eig_general, kl.eigvals, kl.least_norm_solution],
                             ids=["svd", "eig_general", "eigvals", "least_norm_solution"])
    @pytest.mark.parametrize("bad", ["complex", "object", "string"])
    def test_rejected(self, fn, bad):
        A = kl.gravity(16, 0.1).A
        A = {"complex": A + 1e-3j, "object": A.astype(object), "string": A.astype(str)}[bad]
        args = (A, np.ones(16)) if fn is kl.least_norm_solution else (A,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix must be real"):
                fn(*args)


class TestEigvals:
    def test_matches_eig_general(self):
        M = np.random.default_rng(14).standard_normal((7, 7))
        got = np.sort_complex(kl.eigvals(M))
        want = np.sort_complex(kl.eig_general(M).eigenvalues)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_same_order_as_eig_general(self):
        # eigvals sorts as EigResult documents: descending modulus, then
        # descending real part, then ascending imaginary part
        p = kl.gravity(32, 0.06)
        sv = kl.svd(p.A)
        for M in (np.random.default_rng(14).standard_normal((7, 7)),
                  *(kl.restrict_to_V(p.A, kl.build_L(p.A, w), sv).Gv for w in (0.5, 1.0, 1.4))):
            np.testing.assert_allclose(kl.eigvals(M), kl.eig_general(M).eigenvalues,
                                       rtol=0, atol=1e-12)

    def test_complex_output_for_real_spectrum(self):
        got = kl.eigvals(np.diag([3.0, -1.0]))
        assert np.iscomplexobj(got)
        np.testing.assert_array_equal(np.sort(got.real), [-1.0, 3.0])

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.ones(3),
                                   np.array([[1.0, np.inf], [0.0, 1.0]])])
    def test_bad_input_rejected(self, M):
        with pytest.raises(ValueError):
            kl.eigvals(M)


def _gauss_jordan_inverse(M):
    """Explicit inverse by Gauss-Jordan elimination (test oracle)."""
    n = M.shape[0]
    aug = np.hstack([M.astype(float), np.eye(n)])
    for col in range(n):
        piv = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for r in range(n):
            if r != col:
                aug[r] -= aug[r, col] * aug[col]
    return aug[:, n:]


class TestTriangularSolves:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(kl.solve_lower(np.eye(3), b), b)

    def test_hand_solved_2x2(self):
        L = np.array([[2.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(kl.solve_lower(L, [2.0, 2.0]), [1.0, 1.0])

    def test_matches_gauss_jordan_inverse(self):
        rng = np.random.default_rng(9)
        L = np.tril(rng.standard_normal((6, 6)), -1) + np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_allclose(
            kl.solve_lower(L, b), _gauss_jordan_inverse(L) @ b, atol=1e-12
        )

    def test_solve_upper_is_companion(self):
        rng = np.random.default_rng(10)
        L = np.tril(rng.standard_normal((5, 5)), -1) + 2 * np.eye(5)
        b = rng.standard_normal(5)
        x = kl.solve_upper(L.T, b)
        assert np.linalg.norm(L.T @ x - b) <= 1e-12 * np.linalg.norm(b) * np.linalg.norm(L)

    def test_zero_diagonal_rejected(self):
        L = np.array([[1.0, 0.0], [3.0, 0.0]])
        with pytest.raises(NumericalError, match="singular triangular"):
            kl.solve_lower(L, [1.0, 1.0])


class TestLeastNorm:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        res = kl.least_norm_solution(np.eye(3), b)
        np.testing.assert_allclose(res.x, b)
        assert not res.inconsistent

    def test_wide_min_norm_point(self):
        res = kl.least_norm_solution(np.array([[1.0, 1.0]]), [2.0])
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-14)

    def test_gravity_recovers_ground_truth(self):
        # x_bar is known by construction and lies in the row space
        p = kl.gravity(32, 0.06)
        res = kl.least_norm_solution(p.A, p.b_bar)
        assert np.linalg.norm(res.x - p.x_bar) <= 1e-6 * np.linalg.norm(p.x_bar)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_b_rejected(self, bad):
        p = kl.gravity(8, 0.1)
        b = p.b_bar.copy()
        b[2] = bad
        with pytest.raises(ValueError, match="b has non-finite"):
            kl.least_norm_solution(p.A, b)

    def test_inconsistent_flagged(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])  # rank 1 after truncation
        res = kl.least_norm_solution(A + 0.0, [1.0, 1.0])
        assert res.inconsistent and res.residual > 0.5

    def test_zero_matrix_rank_zero(self):
        with pytest.raises(NumericalError, match="rank zero"):
            kl.least_norm_solution(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.parametrize("which", ["gravity", "duplicate-column"])
    def test_matches_truncated_pseudo_inverse(self, which):
        # gelsd against V diag(S)^-1 U^T b from scipy's full SVD, cut by
        # svd's rule S > default_rank_tol * S[0]
        A = kl.gravity(32, 0.06).A if which == "gravity" else _duplicate_column(
            np.random.default_rng(2))
        b = np.random.default_rng(4).standard_normal(A.shape[0])
        U, S, Vt = sla.svd(A, full_matrices=False)
        r = int(np.count_nonzero(S > linalg.default_rank_tol(A) * S[0]))
        want = Vt[:r].T @ ((U[:, :r].T @ b) / S[:r])
        res = kl.least_norm_solution(A, b)
        assert np.linalg.norm(res.x - want) <= 1e-10 * np.linalg.norm(want)
        outside = np.linalg.norm(b - U[:, :r] @ (U[:, :r].T @ b))
        assert abs(res.residual - outside) <= 1e-10 * np.linalg.norm(b)

    def test_output_orthogonal_to_nullspace(self):
        # duplicate column creates a known nullspace
        rng = np.random.default_rng(2)
        A = _duplicate_column(rng)
        sv_full = np.linalg.svd(A)
        null_basis = sv_full[2][np.linalg.matrix_rank(A):].T
        res = kl.least_norm_solution(A, A @ rng.standard_normal(4))
        for v in null_basis.T:
            assert abs(v @ res.x) <= 1e-10 * np.linalg.norm(res.x)


def _duplicate_column(rng):
    """A 6-by-4 matrix of rank 3, drawn from rng: its last column repeats its first."""
    B = rng.standard_normal((6, 3))
    return np.hstack([B, B[:, :1]])


def _thread_counts():
    return [get() for get, _ in linalg._openblas_thread_controls()]


class _FakeBuild:
    """A stand-in OpenBLAS whose thread count is a plain attribute."""

    def __init__(self, threads):
        self.threads = threads

    def control(self):
        return lambda: self.threads, lambda k: setattr(self, "threads", k)


class TestBlasThreads:
    def test_lowers_only_and_restores(self, monkeypatch):
        builds = [_FakeBuild(4), _FakeBuild(1)]
        monkeypatch.setattr(linalg, "_openblas_thread_controls",
                            lambda: [b.control() for b in builds])
        with linalg.blas_threads(2):
            assert [b.threads for b in builds] == [2, 1]
        assert [b.threads for b in builds] == [4, 1]

    def test_restores_on_exception(self, monkeypatch):
        builds = [_FakeBuild(2), _FakeBuild(3)]
        monkeypatch.setattr(linalg, "_openblas_thread_controls",
                            lambda: [b.control() for b in builds])
        with pytest.raises(RuntimeError, match="inside"):
            with linalg.blas_threads(1):
                assert [b.threads for b in builds] == [1, 1]
                raise RuntimeError("inside")
        assert [b.threads for b in builds] == [2, 3]

    def test_real_builds_restored(self):
        before = _thread_counts()
        with pytest.raises(RuntimeError):
            with linalg.blas_threads(1):
                assert _thread_counts() == [min(c, 1) for c in before]
                raise RuntimeError
        assert _thread_counts() == before

    def test_no_build_found_is_a_noop(self, monkeypatch):
        real = linalg._openblas_thread_controls()
        before = [get() for get, _ in real]
        monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: [])
        with linalg.blas_threads(1):
            assert [get() for get, _ in real] == before
            np.testing.assert_allclose(kl.svd(np.eye(3)).S, np.ones(3))

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            with linalg.blas_threads(0):
                pass  # pragma: no cover

    def test_real_wheel_builds_told_apart(self):
        # numpy's and scipy's wheels each bundle an OpenBLAS: both are found,
        # so the one-thread rule lowers both
        site = Path(np.__file__).parent.parent
        if not all(any((site / d).glob("*openblas*")) for d in ("numpy.libs", "scipy.libs")):
            pytest.skip("numpy and scipy do not each bundle an OpenBLAS here")
        assert len(linalg._openblas_thread_controls()) == 2

    @pytest.mark.parametrize("cfg", [
        experiments.ExperimentConfig(problem="gravity", n=32, d=0.06),
        experiments.ExperimentConfig(problem="paralleltomo", N=24, n_angles=32, rays=32),
    ], ids=["gravity32", "paralleltomo24"])
    def test_run_command_size_rule(self, cfg, tmp_path, monkeypatch):
        # one thread inside every desk-small command and the counts untouched
        # inside every larger one; the caller's counts back afterwards
        before = _thread_counts()
        seen = {}

        def spy(name):
            def command(cfg, p, outdir):
                seen[name] = (max(p.A.shape), _thread_counts())
                return {}
            return command

        for name in experiments.COMMANDS:
            monkeypatch.setitem(experiments.COMMANDS, name, spy(name))
            experiments.run_command(name, cfg, tmp_path)
            assert _thread_counts() == before
        assert set(seen) == set(experiments.COMMANDS)
        for name, (size, inside) in seen.items():
            small = size <= experiments.ONE_THREAD_MAX_DIM
            assert inside == ([min(n, 1) for n in before] if small else before), name

    def test_never_raises_a_count(self, tmp_path, subprocess_env):
        # with OPENBLAS_NUM_THREADS=1 every count stays at 1: under a larger
        # request, and through two large commands and a small one
        script = """
import json, sys
from kaczmarz_lab import experiments, linalg
counts = lambda: [get() for get, _ in linalg._openblas_thread_controls()]
seen = [counts()]
with linalg.blas_threads(2):
    seen.append(counts())
tomo = experiments.ExperimentConfig(problem="paralleltomo", N=24, n_angles=32, rays=32)
for name, cfg in (("eigplot", tomo), ("structure", tomo),
                  ("structure", experiments.ExperimentConfig(problem="gravity", n=32, d=0.06))):
    experiments.run_command(name, cfg, sys.argv[1])
    seen.append(counts())
print(json.dumps(seen))
"""
        env = {**subprocess_env, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env, check=True)
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert len(seen) == 5
        assert all(counts == [1] * len(seen[0]) for counts in seen)
