"""scipy's compiled BLAS and LAPACK, bound without importing ``scipy.linalg``.

Every dense kernel of the library is a routine of scipy's two f2py
extension modules, ``scipy/linalg/_fblas`` and ``_flapack``.  Importing
the ``scipy.linalg`` package to reach them costs about 0.31 s, most of it
in numpy modules (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) that
its array-API layer imports and this library never calls; loading the two
extension modules by file takes about 0.01 s.  So they are loaded here, by
file and under the names scipy gives them, and registered in
``sys.modules``: a later ``import scipy.linalg`` finds them there and uses
the same module objects, and where ``scipy.linalg`` came first its modules
are reused.  Either way the process has one scipy OpenBLAS, and
``scipy.linalg.blas.dgemm`` is ``blas.dgemm``.

``blas`` and ``lapack`` are the two module objects; callers bind the
routines they call from them.  The functions below stand in for the
``scipy.linalg`` function of the same name on finite float64 input, call
for call: the same routine, the workspace from the same query (``int`` of
the ``*_lwork`` routine's float), the same arguments, so their outputs
are scipy's to the bit.  LAPACK's ``info > 0`` (no convergence, a
singular matrix) raises NumericalError and ``info < 0`` ValueError.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .errors import NumericalError


def _load(name: str):
    """scipy's extension module ``scipy.linalg.<name>``, loaded by file once per process.

    Raises ImportError, naming the file, when scipy or the file is missing.
    """
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name=qualname)
    path = os.path.join(scipy_spec.submodule_search_locations[0], "linalg",
                        name + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's compiled {name} module is missing: {path}",
                          name=qualname, path=path)
    spec = importlib.util.spec_from_file_location(qualname, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualname] = module
    spec.loader.exec_module(module)
    return module


blas = _load("_fblas")
lapack = _load("_flapack")


def _check(info: int, routine: str) -> None:
    if info > 0:
        raise NumericalError(f"{routine} failed: info = {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, S, Vt) of the thin SVD: ``scipy.linalg.svd(a, full_matrices=False)``, one dgesdd."""
    work, info = lapack.dgesdd_lwork(*a.shape, compute_uv=1, full_matrices=0)
    _check(info, "dgesdd_lwork")
    u, s, vt, info = lapack.dgesdd(a, compute_uv=1, lwork=int(work), full_matrices=0)
    _check(info, "dgesdd")
    return u, s, vt


def svdvals(a, overwrite_a: bool = False) -> np.ndarray:
    """Singular values, nonincreasing: ``scipy.linalg.svdvals``, one values-only dgesdd."""
    work, info = lapack.dgesdd_lwork(*a.shape, compute_uv=0, full_matrices=1)
    _check(info, "dgesdd_lwork")
    _, s, _, info = lapack.dgesdd(a, compute_uv=0, lwork=int(work), full_matrices=1,
                                  overwrite_a=overwrite_a)
    _check(info, "dgesdd")
    return s


def eigvals(a) -> np.ndarray:
    """Complex eigenvalues in LAPACK's order: ``scipy.linalg.eigvals``, dgeev with no vectors."""
    work, info = lapack.dgeev_lwork(a.shape[0], compute_vl=0, compute_vr=0)
    _check(info, "dgeev_lwork")
    wr, wi, _, _, info = lapack.dgeev(a, compute_vl=0, compute_vr=0, lwork=int(work))
    _check(info, "dgeev")
    return wr + 1j * wi


def eigvalsh(a, overwrite_a: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix from its lower triangle, one dsyevd.

    ``scipy.linalg.eigvalsh(a, driver="evd")``.
    """
    work, iwork, info = lapack.dsyevd_lwork(n=a.shape[0], lower=1, compute_v=0)
    _check(info, "dsyevd_lwork")
    w, _, info = lapack.dsyevd(a=a, overwrite_a=overwrite_a, lower=1, compute_v=0,
                               lwork=int(work), liwork=int(iwork))
    _check(info, "dsyevd")
    return w


def lstsq(a, b, cond: float) -> tuple[np.ndarray, int]:
    """(x, rank) of the least-norm least-squares solve of a x = b for a vector b.

    ``scipy.linalg.lstsq``, one dgelsd; singular values <= ``cond * S[0]``
    count as zero.
    """
    m, n = a.shape
    if m < n:  # dgelsd writes the n-vector solution over b
        b = np.concatenate([b, np.zeros(n - m)])
    work, iwork, info = lapack.dgelsd_lwork(m, n, 1, cond)
    _check(info, "dgelsd_lwork")
    x, _, rank, info = lapack.dgelsd(a, b, int(work), int(iwork), cond, False, False)
    _check(info, "dgelsd")
    return x[:n], int(rank)


def solve(a, b) -> np.ndarray:
    """a^-1 b by LU with partial pivoting, one dgesv: ``scipy.linalg.solve``'s numbers."""
    _, _, x, info = lapack.dgesv(a, b)
    _check(info, "dgesv")
    return x


def qr_q(a) -> np.ndarray:
    """Q of the economic QR of an a with no more columns than rows.

    ``scipy.linalg.qr(a, mode="economic")[0]``: dgeqrf, then dorgqr on its
    reflectors, each on the workspace its own ``lwork=-1`` query returns,
    as scipy queries them.
    """
    _, _, work, info = lapack.dgeqrf(a, lwork=-1)
    _check(info, "dgeqrf")
    qr, tau, _, info = lapack.dgeqrf(a, lwork=work[0].real.astype(np.int_))
    _check(info, "dgeqrf")
    _, work, info = lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)
    _check(info, "dorgqr")
    q, _, info = lapack.dorgqr(qr, tau, lwork=work[0].real.astype(np.int_), overwrite_a=1)
    _check(info, "dorgqr")
    return q


def solve_triangular(a, b, lower: bool) -> np.ndarray:
    """a^-1 b for a triangular a, one dtrtrs: ``scipy.linalg.solve_triangular``.

    A C-ordered a is passed as its Fortran-ordered transpose, the opposite
    triangle solved transposed, as scipy passes it.
    """
    if a.flags.f_contiguous:
        x, info = lapack.dtrtrs(a, b, lower=lower, trans=0)
    else:
        x, info = lapack.dtrtrs(a.T, b, lower=not lower, trans=1)
    _check(info, "dtrtrs")
    return x
