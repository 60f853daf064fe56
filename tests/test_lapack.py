"""Tests for the binding of scipy's compiled BLAS and LAPACK (``kaczmarz_lab._lapack``).

Each wrapper stands in for a ``scipy.linalg`` function, so the package
itself is the independent route here: the outputs must agree to the bit.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import kaczmarz_lab as kl
from kaczmarz_lab import _lapack
from kaczmarz_lab.errors import NumericalError


def assert_same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape and x.dtype == y.dtype
    assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


def _cases(small_problems):
    """Per problem: A, its factor at omega = 1, its SVD and the restricted G|_V."""
    for p in small_problems:
        lf, sv = kl.build_L(p.A, 1.0), kl.svd(p.A)
        yield p, lf, sv, kl.restrict_to_V(p.A, lf, sv).Gv


class TestBitwiseScipy:
    def test_svd(self, small_problems):
        for p, *_ in _cases(small_problems):
            for M in (p.A, p.A.T, np.asfortranarray(p.A)):
                for ours, theirs in zip(_lapack.svd(M), sla.svd(M, full_matrices=False)):
                    assert_same_bits(ours, theirs)

    def test_svdvals(self, small_problems):
        for p, lf, _, Gv in _cases(small_problems):
            for M in (p.A, p.A.T, Gv, lf.L):
                assert_same_bits(_lapack.svdvals(M), sla.svdvals(M))
                want = sla.svdvals(M.copy(), overwrite_a=True)
                assert_same_bits(_lapack.svdvals(np.array(M, order="F"), overwrite_a=True), want)

    def test_eigvals(self, small_problems):
        for p, lf, sv, Gv in _cases(small_problems):
            Gs = kl.restrict_symmetric_to_V(p.A, lf, sv).Gv
            for M in (Gv, Gs, lf.L):
                assert_same_bits(_lapack.eigvals(M), sla.eigvals(M))

    def test_eigvalsh(self, small_problems):
        for p, lf, *_ in _cases(small_problems):
            L_inv = lf.solve(np.eye(lf.m, order="F"))
            for S in (0.5 * (L_inv + L_inv.T), lf.gram()):
                want = sla.eigvalsh(S, driver="evd")
                assert_same_bits(_lapack.eigvalsh(S), want)
                assert_same_bits(_lapack.eigvalsh(S.copy(), overwrite_a=True), want)

    def test_lstsq(self, small_problems):
        rng = np.random.default_rng(5)
        for p, *_ in _cases(small_problems):
            for M in (p.A, p.A.T):  # random12x9's transpose is wide: b is padded
                cond = kl.linalg.default_rank_tol(M)
                b = rng.standard_normal(M.shape[0])
                x, rank = _lapack.lstsq(M, b, cond)
                want, _, want_rank, _ = sla.lstsq(M, b, cond=cond, lapack_driver="gelsd")
                assert_same_bits(x, want)
                assert rank == want_rank

    def test_solve(self, small_problems):
        # where scipy warns that rcond < eps (baart's I - G|_V), the
        # wrapper raises; everywhere else it returns scipy's bits
        rng = np.random.default_rng(6)
        raised = 0
        for _, _, sv, Gv in _cases(small_problems):
            M = np.eye(sv.rank) - Gv
            for b in (rng.standard_normal(sv.rank), rng.standard_normal((sv.rank, 3))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", sla.LinAlgWarning)
                    try:
                        want = sla.solve(M, b)
                    except sla.LinAlgWarning:
                        want = None
                if want is None:
                    with pytest.raises(NumericalError, match="rcond = "):
                        _lapack.solve(M, b)
                    raised += 1
                else:
                    assert_same_bits(_lapack.solve(M, b), want)
        assert raised == 2

    def test_qr_q(self, small_problems):
        for p, lf, sv, _ in _cases(small_problems):
            AV = p.A @ sv.V
            for M in (AV, lf.L @ AV, p.A[:, :-1]):
                assert_same_bits(_lapack.qr_q(M), sla.qr(M, mode="economic")[0])

    def test_solve_triangular(self, small_problems):
        for p, lf, *_ in _cases(small_problems):
            for T, lower in ((lf.L, True), (lf.L.T, False)):
                for M in (T, np.asfortranarray(T)):  # both of scipy's layouts
                    for b in (p.A[:, 0], p.A):
                        assert_same_bits(_lapack.solve_triangular(M, b, lower=lower),
                                         sla.solve_triangular(M, b, lower=lower))


class TestErrors:
    def test_singular_solve_is_numerical_error(self):
        with pytest.raises(NumericalError, match="dgetrf failed: info = 2"):
            _lapack.solve(np.diag([1.0, 0.0, 1.0]), np.ones(3))

    def test_singular_triangle_is_numerical_error(self):
        with pytest.raises(NumericalError, match="dtrtrs"):
            _lapack.solve_triangular(np.tril(np.ones((3, 3))) - np.eye(3), np.ones(3), lower=True)

    def test_illegal_argument_is_value_error(self):
        with pytest.raises(ValueError, match="argument 4 of dgeev"):
            _lapack._check(-4, "dgeev")

    def test_missing_module_names_the_file(self):
        with pytest.raises(ImportError, match=r"missing: .*_no_such_module\."):
            _lapack._load("_no_such_module")
        assert "scipy.linalg._no_such_module" not in sys.modules


def _run(code, subprocess_env):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("first", ["kaczmarz_lab", "scipy.linalg"])
def test_one_module_object_in_either_import_order(first, subprocess_env):
    # the package and scipy.linalg share one _fblas and one _flapack, so
    # one OpenBLAS, whichever is imported first
    second = "scipy.linalg" if first == "kaczmarz_lab" else "kaczmarz_lab"
    out = _run(f"import sys\n"
               f"import {first}\n"
               f"assert ('scipy.linalg' in sys.modules) == ({first!r} == 'scipy.linalg')\n"
               f"import {second}\n"
               "import scipy.linalg.blas, scipy.linalg.lapack\n"
               "import kaczmarz_lab.operator as op, kaczmarz_lab._lapack as bound\n"
               "print(scipy.linalg.blas.dtrsm is op.dtrsm,\n"
               "      scipy.linalg.lapack.dgesv is op.dgesv,\n"
               "      sys.modules['scipy.linalg._fblas'] is bound.blas,\n"
               "      sys.modules['scipy.linalg._flapack'] is bound.lapack)\n",
               subprocess_env)
    assert out.split() == ["True"] * 4
