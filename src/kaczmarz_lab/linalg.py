"""Dense linear-algebra substrate.

SVD with an explicit rank decision, general real eigendecomposition with
complex eigenvalues and a real eigenbasis, forward/backward triangular
solves, and the least-norm solve used as the reference solution of
consistent systems.

All inputs are 64-bit real; only eigenvalues are complex.  Every
numerical routine is a pure function of its arguments and is safe to call
from parallel workers.  The exception is
:func:`blas_threads`: the OpenBLAS thread count it lowers is global to the
process, so it also governs any other thread's BLAS calls inside its block.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy
import scipy.linalg as sla

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


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


@dataclass(frozen=True)
class SvdResult:
    """Rank-truncated SVD: A ~ U @ diag(S) @ V.T with r retained values.

    U is m-by-r and V is n-by-r with orthonormal columns; S holds the r
    retained singular values, strictly positive and nonincreasing.
    ``rank_tol`` is the relative threshold used for the cut: singular
    values <= rank_tol * S[0] were discarded.
    """

    U: np.ndarray
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

    ``R0`` is the real basis of the eigenvectors, the real vector pairs of
    LAPACK's ``dgeev`` in the sorted order: column i is x_i for a real
    mode and Re x_i for the member of a pair with Im lambda_i > 0, and
    column conj[i] is Im x_i.  So x_i = R0[:, i] + i R0[:, conj[i]] and
    x_conj[i] is its conjugate; the complex eigenvector matrix C is never
    formed.

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
    ``inconsistent`` is set when that residual exceeds the consistency
    tolerance (expected for noisy right-hand sides).
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
    is ``max(m, n) * eps``.  Raises NumericalError for the zero matrix.
    """
    A = _as_matrix(A)
    if rank_tol is None:
        rank_tol = default_rank_tol(A)
    if not (np.isfinite(rank_tol) and rank_tol >= 0):
        raise ValueError(f"rank_tol must be finite and nonnegative, got {rank_tol}")
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    if S[0] <= 0.0:
        raise NumericalError("rank zero matrix")
    r = int(np.count_nonzero(S > rank_tol * S[0]))
    if r == 0:
        raise NumericalError("rank zero matrix (all singular values truncated)")
    return SvdResult(
        U=U[:, :r].copy(), S=S[:r].copy(), V=Vt[:r].T.copy(), rank_tol=float(rank_tol)
    )


def _eig_order(w: np.ndarray) -> np.ndarray:
    """The permutation that sorts eigenvalues as :class:`EigResult` documents."""
    return np.lexsort((w.imag, -w.real, -np.abs(w)))


def eig_general(M) -> EigResult:
    """Eigendecomposition of a square real matrix, complex eigenvalues allowed.

    Complex eigenvalues of real input occur in conjugate pairs, and LAPACK
    returns each pair at (j, j+1) with Im w[j] > 0 and exactly conjugate
    vectors.  The pairs are read from that order, before the sort, since
    repeated complex eigenvalues make adjacency after the sort ambiguous,
    and the real basis R0 is built there too: X.real, with Im x_j in the
    partner's column j+1.  Only R0 is sorted; the complex vectors are
    dropped.  The eigenvector-matrix condition number kappa, taken from one
    real values-only SVD (see :class:`EigResult`), is reported so callers
    can detect near-defective spectra.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    try:
        w, X = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    partner = np.arange(w.size)
    up = np.flatnonzero(w.imag > 0)
    if np.any(w[up + 1] != w[up].conj()):  # pragma: no cover - not LAPACK's layout
        raise NumericalError("eigenvalues are not in conjugate pairs")
    partner[up], partner[up + 1] = up + 1, up
    R0 = X.real.copy()
    R0[:, up + 1] = X[:, up].imag
    del X
    order = _eig_order(w)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    w = np.ascontiguousarray(w[order])
    R0 = np.take(R0, order, axis=1)  # C-ordered: the layout decides how V @ R0 rounds
    conj = rank[partner[order]]
    kappa = float(np.linalg.cond(R0 * np.where(w.imag != 0, np.sqrt(2.0), 1.0), 2))
    return EigResult(eigenvalues=w, R0=R0, kappa=kappa, conj=conj)


def eigvals(M) -> np.ndarray:
    """Eigenvalues only (complex) of a square real matrix, in eig_general's order.

    LAPACK's values-only path (Golub and Van Loan, *Matrix Computations*,
    7.5), through scipy, so callers whose products run in scipy's BLAS
    stay inside one OpenBLAS.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    w = sla.eigvals(M, check_finite=False)
    return w[_eig_order(w)]


def _check_triangular_diag(T: np.ndarray) -> None:
    if T.shape[0] != T.shape[1]:
        raise ValueError("triangular factor must be square")
    if np.any(np.diag(T) == 0.0):
        raise NumericalError("singular triangular factor")


def solve_lower(L, b) -> np.ndarray:
    """Solve L x = b by forward substitution; b may hold multiple columns."""
    L = np.asarray(L, dtype=float)
    _check_triangular_diag(L)
    return sla.solve_triangular(L, np.asarray(b, dtype=float), lower=True)


def solve_upper(U, b) -> np.ndarray:
    """Solve U x = b by back substitution; companion of solve_lower."""
    U = np.asarray(U, dtype=float)
    _check_triangular_diag(U)
    return sla.solve_triangular(U, np.asarray(b, dtype=float), lower=False)


def least_norm_solution(
    A, b, rank_tol: float | None = None, consistency_tol: float = 1e-8
) -> LeastNormResult:
    """Least-norm solution V @ diag(S)^-1 @ U.T @ b of A x = b.

    For a consistent system this is the unique solution orthogonal to
    null(A).  The component of b outside range(A) is reported as
    ``residual`` and, when it exceeds ``consistency_tol * ||b||``, the
    result is flagged inconsistent rather than rejected (noisy data ends
    up here on purpose).  A b with non-finite entries raises ValueError.
    """
    sv = A if isinstance(A, SvdResult) else svd(A, rank_tol)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("b has non-finite entries")
    coeff = sv.U.T @ b
    x = sv.V @ (coeff / sv.S)
    residual = float(np.linalg.norm(b - sv.U @ coeff))
    bnorm = float(np.linalg.norm(b))
    inconsistent = residual > consistency_tol * bnorm if bnorm > 0 else False
    return LeastNormResult(x=x, residual=residual, inconsistent=inconsistent)


class _ThreadControl(NamedTuple):
    """Thread-count functions of one mapped OpenBLAS and whose build it is."""

    get: Callable[[], int]
    set: Callable[[int], None]
    owner: str | None  # "numpy", "scipy", or None for a library outside both packages


def _owner(path: str) -> str | None:
    """The package ("numpy" or "scipy") whose wheel ships the library at ``path``."""
    for pkg in (np, scipy):
        here = Path(pkg.__file__).parent
        for d in (here, here.parent / f"{pkg.__name__}.libs"):
            if Path(path).is_relative_to(d):
                return pkg.__name__
    return None


def _openblas_thread_controls() -> list[_ThreadControl]:
    """The thread-count controls of every OpenBLAS mapped into the process.

    Read from ``/proc/self/maps``; an empty list where that file or the
    symbols are missing (another platform or BLAS).  Each control names the
    package that ships its library, so numpy's build (``numpy.libs``) and
    scipy's (``scipy.libs``) can be told apart.
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
                controls.append(_ThreadControl(get, set_, _owner(path)))
                break
    return controls


@contextmanager
def blas_threads(k: int, scipy_only: bool = False):
    """Run the block with the mapped OpenBLAS builds on at most ``k`` threads.

    Every build is lowered, or with ``scipy_only`` only scipy's, and that
    only when numpy's build is a separate library: where one OpenBLAS
    serves both packages, or the builds cannot be told apart, nothing is
    lowered.  A build already at ``k`` threads or fewer (say, through
    ``OPENBLAS_NUM_THREADS``) is left alone, so no count is ever raised;
    each lowered count is restored on exit, also when the block raises.
    The builds are looked up on entry, and without any the block runs
    unchanged.  The count is global to the process (see the module
    docstring).
    """
    if k < 1:
        raise ValueError("thread count must be at least 1")
    controls = _openblas_thread_controls()
    if scipy_only:
        told_apart = {"numpy", "scipy"} <= {c.owner for c in controls}
        controls = [c for c in controls if told_apart and c.owner == "scipy"]
    lowered = []
    try:
        for c in controls:
            n = c.get()
            if n > k:
                c.set(k)
                lowered.append((c.set, n))
        yield
    finally:
        for set_, n in reversed(lowered):
            set_(n)
