"""Dense linear-algebra substrate.

SVD with an explicit rank decision, general real eigendecomposition with
complex eigenvalues and a real eigenbasis, forward/backward triangular
solves, and the least-norm solve used as the reference solution of
consistent systems.  The SVD keeps the singular values and the row-space
factor V only: every object of the library lives in range(A^T), and the
column-space factor U is not kept.

All inputs are 64-bit real (complex or non-numeric data raises
ValueError); only eigenvalues are complex.  The decompositions are
scipy's LAPACK, bound by ``_lapack`` without importing ``scipy.linalg``,
so they share one OpenBLAS with the sweep engine.  Every
numerical routine is a pure function of its arguments and is safe to call
from parallel workers.  The exception is :func:`blas_threads`: the thread
count it lowers is global to the process, so it also governs any other
thread's BLAS calls inside its block.
"""

from __future__ import annotations

import ctypes
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._lapack import lapack
from .errors import NumericalError

__all__ = [
    "SvdResult",
    "EigResult",
    "LeastNormResult",
    "default_rank_tol",
    "svd",
    "eig_general",
    "eigvals",
    "solve_lower",
    "solve_upper",
    "least_norm_solution",
    "blas_threads",
]

#: (getter, setter) symbol pairs of the OpenBLAS thread count: the
#: ``scipy_openblas`` builds that numpy (64-bit integers, ``64_`` suffix)
#: and scipy ship, then a plain OpenBLAS.
_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


# The library's input rules.  Every public entry point that takes caller
# data checks it here, once per call; ExperimentConfig.validate re-raises
# their ValueError as ConfigError.

def _check_int(name: str, value, lo: int) -> None:
    """ValueError unless value is an integer >= lo; 2.5, 6.0 and a bool are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        rule = "a nonnegative integer" if lo == 0 else f"an integer >= {lo}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_real(name: str, value, positive: bool = False, below: float | None = None) -> float:
    """value as a float; ValueError unless it is a finite real number, not a bool.

    It must be >= 0, or > 0 with ``positive``; with ``below`` it must lie
    in the open interval (0, below).
    """
    if below is not None:
        positive, rule = True, f"lie in (0, {below:g})"
    else:
        rule = "be finite and " + ("positive" if positive else "nonnegative")
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not np.isfinite(value) or not (value > 0 if positive else value >= 0)
            or below is not None and value >= below):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return float(value)


def _as_array(x, what: str, rows: int | None = None, block: bool = False,
              want: str | None = None) -> np.ndarray:
    """x as a float array; ValueError unless it is real (never a cast), shaped and finite.

    The shape rule: without ``rows``, a nonempty 2-d matrix; with it, a
    ``rows``-vector, or with ``block`` also a ``rows``-by-R block, R >= 1.
    ``want`` words the rule in the message in place of the default.  Data
    that is already float64 is not copied.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real, got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if rows is None:
        ok, rule = x.ndim == 2 and x.size > 0, "be 2-d and nonempty"
    else:
        ok = x.ndim in ((1, 2) if block else (1,)) and x.shape[0] == rows and x.size > 0
        rule = f"be an {rows}-vector"
        if block:
            rule += f" or an {rows}-by-R block, R >= 1 ({rows} rows)"
    if not ok:
        raise ValueError(f"{what} must {want or rule}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} has non-finite entries")
    return x


def _check_factor(lf, A: np.ndarray) -> None:
    """ValueError unless the sweep factor ``lf`` has A's row count, as A's own factor has."""
    if lf.m != A.shape[0]:
        raise ValueError(f"lf must have the matrix's {A.shape[0]} rows, got {lf.m}")


def _check_ks(ks) -> np.ndarray:
    """The iteration counts as integers; ValueError if empty or for a negative or fractional k."""
    raw = np.asarray(list(ks))
    if raw.size == 0:
        raise ValueError("iteration counts k must be a nonempty list")
    with np.errstate(invalid="ignore"):
        ks = raw.astype(int)
    if np.any(ks != raw) or np.any(ks < 0):
        raise ValueError("iteration counts k must be nonnegative integers")
    return ks


@dataclass(frozen=True)
class SvdResult:
    """Rank-truncated SVD A ~ U @ diag(S) @ V.T with r retained values, without U.

    V is n-by-r with orthonormal columns, a basis of the row space, and
    Fortran-ordered, so scipy's BLAS wrappers read it without a copy; S
    holds the r retained singular values, strictly positive and
    nonincreasing.  U is not kept: no caller reads it, and A V = U diag(S)
    recovers it where needed.  ``rank_tol`` is the relative threshold used
    for the cut: singular values <= rank_tol * S[0] were discarded.
    """

    S: np.ndarray
    V: np.ndarray
    rank_tol: float

    @property
    def rank(self) -> int:
        return int(self.S.size)


@dataclass(frozen=True)
class EigResult:
    """General eigendecomposition of a real matrix, with a real eigenbasis.

    ``eigenvalues`` are sorted by descending modulus, ties broken by
    descending real part then ascending imaginary part, so reports are
    deterministic.  They are real when every eigenvalue is real.
    ``conj[i]`` is the index of the conjugate of eigenvalue i (i itself
    for a real one); ``eigenvalues[conj]`` equals their conjugates
    exactly, and ``conj`` is an involution.

    ``R0`` is the real basis of the eigenvectors, LAPACK's ``dgeev`` right
    vectors in the sorted order: column i is x_i for a real mode and Re x_i
    for the member of a pair with Im lambda_i > 0, and column conj[i] is
    Im x_i.  So x_i = R0[:, i] + i R0[:, conj[i]] and x_conj[i] is its
    conjugate; the complex eigenvector matrix C is never formed.

    ``kappa`` is the 2-norm condition number of C.  It is taken on the
    real matrix R whose columns are x for a real mode and sqrt(2) Re x,
    sqrt(2) Im x for a conjugate pair (x, conj(x)): each pair's columns are
    [x, conj(x)] = [sqrt(2) Re x, sqrt(2) Im x] Q with the unitary
    Q = [[1, 1], [i, -i]] / sqrt(2), so C = R Q with a block-unitary Q and
    cond(C) = cond(R) exactly (Golub and Van Loan, *Matrix Computations*,
    7.4).
    """

    eigenvalues: np.ndarray
    R0: np.ndarray
    kappa: float
    conj: np.ndarray


@dataclass(frozen=True)
class LeastNormResult:
    """Least-norm solve output with a consistency flag.

    ``residual`` is the norm of the component of b outside range(A);
    ``inconsistent`` is set when that residual exceeds 1e-8 * ||b||
    (expected for noisy right-hand sides).
    """

    x: np.ndarray
    residual: float
    inconsistent: bool


def default_rank_tol(A) -> float:
    """Conventional numerical-rank threshold max(m, n) * eps (relative)."""
    return max(np.shape(A)) * float(np.finfo(float).eps)


def svd(A, rank_tol: float | None = None) -> SvdResult:
    """Rank-truncated SVD of a dense real matrix.

    Singular values below ``rank_tol * sigma_max`` are truncated; with
    ``rank_tol=0`` only exact zeros are dropped.  The default threshold
    is ``max(m, n) * eps``.  Raises NumericalError for the zero matrix
    and when ``dgesdd`` does not converge, and ValueError unless A is a
    finite real matrix and ``rank_tol`` a finite real number >= 0.
    """
    A = _as_array(A, "matrix")
    rank_tol = default_rank_tol(A) if rank_tol is None else _check_real("rank_tol", rank_tol)
    _, S, Vt = _lapack.svd(A)
    if S[0] <= 0.0:
        raise NumericalError("rank zero matrix")
    r = int(np.count_nonzero(S > rank_tol * S[0]))
    if r == 0:
        raise NumericalError("rank zero matrix (all singular values truncated)")
    return SvdResult(S=S[:r].copy(), V=Vt[:r].T.copy(order="F"), rank_tol=rank_tol)


def _eig_order(w: np.ndarray) -> np.ndarray:
    """The permutation that sorts eigenvalues as :class:`EigResult` documents."""
    return np.lexsort((w.imag, -w.real, -np.abs(w)))


def eig_general(M) -> EigResult:
    """Eigendecomposition of a square real matrix, complex eigenvalues allowed.

    One ``dgeev`` call, on the queried optimal workspace (the wrapper's
    default of 4n is far slower).  It returns each conjugate pair at
    (j, j+1) with Im w[j] > 0, and Re x_j, Im x_j in columns j, j+1 of its
    real right vectors, which are R0 before the sort.  The pairs are read
    there, since repeated complex eigenvalues make adjacency after the sort
    ambiguous.  kappa, from one real values-only SVD (see
    :class:`EigResult`), lets callers detect near-defective spectra.
    Raises NumericalError when ``dgeev`` fails.
    """
    M = _as_array(M, "matrix")
    n = M.shape[0]
    if n != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    work, _ = lapack.dgeev_lwork(n, compute_vl=0)
    wr, wi, _, vr, info = lapack.dgeev(M, compute_vl=0, lwork=int(work))
    if info != 0:
        raise NumericalError(f"eigendecomposition failed: dgeev info = {info}")
    w = wr
    if wi.any():  # real eigenvalues stay a real array
        w = wr.astype(complex)
        w.imag = wi
    partner = np.arange(n)
    up = np.flatnonzero(wi > 0)
    if np.any(w[up + 1] != w[up].conj()):  # pragma: no cover - not LAPACK's layout
        raise NumericalError("eigenvalues are not in conjugate pairs")
    partner[up], partner[up + 1] = up + 1, up
    order = _eig_order(w)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    w = np.ascontiguousarray(w[order])
    R0 = vr[:, order]  # Fortran-ordered, like vr: dgemm and dgesv read it uncopied
    del vr
    conj = rank[partner[order]]
    s = _lapack.svdvals(R0 * np.where(w.imag != 0, np.sqrt(2.0), 1.0), overwrite_a=True)
    return EigResult(eigenvalues=w, R0=R0, kappa=float(s[0] / s[-1]), conj=conj)


def eigvals(M) -> np.ndarray:
    """Eigenvalues only (complex) of a square real matrix, in eig_general's order.

    LAPACK's values-only path (Golub and Van Loan, *Matrix Computations*,
    7.5).
    """
    M = _as_array(M, "matrix")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    w = _lapack.eigvals(M)
    return w[_eig_order(w)]


def _check_triangular_diag(T: np.ndarray) -> None:
    if T.shape[0] != T.shape[1]:
        raise ValueError("triangular factor must be square")
    if np.any(np.diag(T) == 0.0):
        raise NumericalError("singular triangular factor")


def solve_lower(L, b) -> np.ndarray:
    """Solve L x = b by forward substitution; b may hold multiple columns.

    ValueError unless L and b are finite and real and b has L's m rows.
    """
    L = _as_array(L, "L")
    _check_triangular_diag(L)
    return _lapack.solve_triangular(L, _as_array(b, "b", rows=L.shape[0], block=True), lower=True)


def solve_upper(U, b) -> np.ndarray:
    """Solve U x = b by back substitution; companion of solve_lower."""
    U = _as_array(U, "U")
    _check_triangular_diag(U)
    return _lapack.solve_triangular(U, _as_array(b, "b", rows=U.shape[0], block=True),
                                    lower=False)


def least_norm_solution(A, b) -> LeastNormResult:
    """Least-norm solution V @ diag(S)^-1 @ U.T @ b of A x = b.

    One ``dgelsd`` call (``_lapack.lstsq``) with ``rcond`` at ``svd``'s
    default rank cut: it drops singular values <= rcond * S[0], the rule
    ``svd`` applies.  For a consistent system this is the unique solution
    orthogonal to null(A).  ``residual`` is ||b - A x||, the component of
    b outside range(A); when it exceeds 1e-8 * ||b||, the result is
    flagged inconsistent rather than rejected (noisy data ends up here on
    purpose).  Raises ValueError unless A is a finite real matrix and b a
    finite real m-vector, and NumericalError when A has rank zero.
    """
    A = _as_array(A, "matrix")
    b = _as_array(b, "b", rows=A.shape[0])
    x, rank = _lapack.lstsq(A, b, cond=default_rank_tol(A))
    if rank == 0:
        raise NumericalError("rank zero matrix")
    residual = float(np.linalg.norm(b - A @ x))
    bnorm = float(np.linalg.norm(b))
    inconsistent = residual > 1e-8 * bnorm if bnorm > 0 else False
    return LeastNormResult(x=x, residual=residual, inconsistent=inconsistent)


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS mapped into the process.

    Read from ``/proc/self/maps``; an empty list where that file or the
    symbols are missing (another platform or BLAS).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def blas_threads(k: int):
    """Run the block with every mapped OpenBLAS on at most ``k`` threads.

    A build already at ``k`` threads or fewer (say, through
    ``OPENBLAS_NUM_THREADS``) is left alone, so no count is ever raised;
    each lowered count is restored on exit, also when the block raises.
    The builds are looked up on entry, and without any the block runs
    unchanged.  The count is global to the process (see the module
    docstring).
    """
    if k < 1:
        raise ValueError("thread count must be at least 1")
    lowered = []
    try:
        for get, set_ in _openblas_thread_controls():
            n = get()
            if n > k:
                set_(k)
                lowered.append((set_, n))
        yield
    finally:
        for set_, n in reversed(lowered):
            set_(n)
