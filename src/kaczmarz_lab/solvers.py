"""Row-action sweep kernels and a CGLS reference solver.

A sweep projects the iterate onto each row hyperplane a_i^T x = b_i in
turn, scaled by the relaxation parameter omega:

    x <- x + omega * (b_i - a_i^T x) / ||a_i||^2 * a_i.

Variants: ``standard`` visits rows in storage order; ``symmetric`` visits
1..m then m..1 (so the first and last rows are each hit twice per cycle,
which is redundant at omega = 1); ``randomized`` draws m row indices
uniformly with replacement from a seeded generator.

``sweep_standard``, ``sweep_symmetric`` and ``sweep_randomized`` are the
literal row loops, the reference for the matrix form.  :func:`run` takes
one right-hand side or an m-by-R block of them and advances all R iterates
together through the matrix form x + A^T L^-1 (b - A x) of
:class:`~kaczmarz_lab.operator.SweepOperator`; a randomized sweep, whose
draws every column shares, is its down sweep on the stacked system
A[o] x = b[o] of each block o of draws (Strohmer and Vershynin 2009).
Iterations are never auto-stopped; ``max_sweeps`` governs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import _as_matrix, _as_real, _check_int
from .operator import SweepOperator, build_L
from .tables import write_table

__all__ = [
    "SweepConfig",
    "IterationHistory",
    "row_norms_squared",
    "sweep_standard",
    "sweep_symmetric",
    "sweep_randomized",
    "run",
    "cgls",
]

_VARIANTS = ("standard", "symmetric", "randomized")

#: Draws per stacked sweep: the factors of a randomized sweep hold m * 64 entries,
#: not m^2 (one column on paralleltomo(32, 32, 32), 2 vCPUs: 4.7 ms, m^2: ~30 ms).
_DRAWS = 64


@dataclass(frozen=True)
class SweepConfig:
    """Knobs for a row-action solve."""

    omega: float = 1.0
    variant: str = "standard"
    max_sweeps: int = 100
    seed: int = 0
    store_iterates: bool = False

    def __post_init__(self):
        if not 0.0 < self.omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        k = self.max_sweeps
        if isinstance(k, bool) or not (isinstance(k, numbers.Integral) and k >= 0):
            raise ValueError(f"max_sweeps must be a nonnegative integer, got {k!r}")


@dataclass(frozen=True)
class IterationHistory:
    """Per-sweep record including the initial point x0.

    All arrays have length sweep_count + 1.  ``iterates`` and
    ``error_norms`` are optional (the latter requires a reference
    vector).  ``flags`` carries events such as a CGLS breakdown.
    """

    residual_norms: np.ndarray
    sweep_count: int
    iterates: np.ndarray | None = None
    error_norms: np.ndarray | None = None
    flags: tuple = ()

    def write_csv(self, fh) -> None:
        """CSV columns: sweep, residual_norm[, error_norm]."""
        columns = {"sweep": range(self.sweep_count + 1), "residual_norm": self.residual_norms}
        if self.error_norms is not None:
            columns["error_norm"] = self.error_norms
        write_table(fh, columns)


def row_norms_squared(A) -> np.ndarray:
    """Squared row norms ||a_i||^2, computed once per solve."""
    A = np.asarray(A, dtype=float)
    rn = np.einsum("ij,ij->i", A, A)
    if np.any(rn == 0.0):
        raise ValueError("matrix has a zero row")
    return rn


def _project_rows(A, b, x, omega, rn, order):
    # x and b are a vector and an m-vector, or n-by-R and m-by-R blocks
    for i in order:
        ai = A[i]
        x += np.multiply.outer(ai, omega * (b[i] - ai @ x) / rn[i])
    return x


def sweep_standard(A, b, x, omega: float, rn=None) -> np.ndarray:
    """One full pass over the rows in storage order.

    Equals x + A^T L^-1 (b - A x) in exact arithmetic.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if rn is None:
        rn = row_norms_squared(A)
    x = np.array(x, dtype=float, copy=True)
    return _project_rows(A, b, x, omega, rn, range(A.shape[0]))


def sweep_symmetric(A, b, x, omega: float, rn=None) -> np.ndarray:
    """A down sweep followed by an up sweep (2m row updates)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if rn is None:
        rn = row_norms_squared(A)
    m = A.shape[0]
    x = np.array(x, dtype=float, copy=True)
    x = _project_rows(A, b, x, omega, rn, range(m))
    return _project_rows(A, b, x, omega, rn, range(m - 1, -1, -1))


def sweep_randomized(A, b, x, omega: float, rng: np.random.Generator, rn=None) -> np.ndarray:
    """m row updates with indices drawn uniformly with replacement.

    Advances ``rng``; pass the same seeded generator across sweeps for a
    reproducible iterate sequence.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if rn is None:
        rn = row_norms_squared(A)
    m = A.shape[0]
    order = rng.integers(0, m, size=m)
    x = np.array(x, dtype=float, copy=True)
    return _project_rows(A, b, x, omega, rn, order)


def _rhs_block(b, m: int) -> np.ndarray:
    """b as a Fortran-ordered m-by-R block; loud on a bad dtype, shape or value."""
    B = _as_real(b, "b")
    if B.ndim not in (1, 2) or B.shape[0] != m or B.size == 0:
        raise ValueError(
            f"b must be an {m}-vector or an {m}-by-R block, R >= 1, got shape {B.shape}"
        )
    if not np.all(np.isfinite(B)):
        raise ValueError("b has non-finite entries")
    return np.asfortranarray(B.reshape(m, -1))


def run(p, b, cfg: SweepConfig, reference=None):
    """Drive cfg.max_sweeps sweeps on problem p with data b, from x0 = 0.

    ``b`` is an m-vector, giving one :class:`IterationHistory`, or an
    m-by-R block, giving a tuple of R histories in column order.  All
    columns are swept together.  Each history records the residual norm
    ||b - A x_k|| per sweep, the error norm ||x_k - reference|| when a
    reference n-vector is given, and the iterates themselves when
    cfg.store_iterates is set.  Raises ValueError for an A or b that is
    complex or non-numeric, for a non-finite A, and for a b or a reference
    of the wrong length or with non-finite entries.
    """
    A = _as_matrix(p.A)
    m, n = A.shape
    B = _rhs_block(b, m)
    R, K = B.shape[1], cfg.max_sweeps

    lf = build_L(A, cfg.omega)
    op = SweepOperator(A, lf)
    if cfg.variant == "randomized":
        rng = np.random.default_rng(cfg.seed)
        G = lf.gram()

        def sweep(X):
            for o in np.split(rng.integers(0, m, size=m), range(_DRAWS, m, _DRAWS)):
                X = SweepOperator(A[o], lf.rows(o, G)).down(X, B[o])
            return X
    else:
        sweep = partial(op.down if cfg.variant == "standard" else op.symmetric, B=B)

    residuals = np.empty((R, K + 1))
    errors = None if reference is None else np.empty((R, K + 1))
    iterates = np.empty((R, K + 1, n)) if cfg.store_iterates else None
    if reference is not None:
        reference = _as_real(reference, "reference")
        if reference.shape != (n,):
            raise ValueError(f"reference must be an {n}-vector, got shape {reference.shape}")
        if not np.all(np.isfinite(reference)):
            raise ValueError("reference has non-finite entries")
        reference = reference[:, None]
    X = np.zeros((n, R), order="F")
    for k in range(K + 1):
        if k:
            X = sweep(X)
        residuals[:, k] = np.linalg.norm(op.residual(X, B), axis=0)
        if errors is not None:
            errors[:, k] = np.linalg.norm(X - reference, axis=0)
        if iterates is not None:
            iterates[:, k] = X.T

    hists = tuple(
        IterationHistory(
            residual_norms=residuals[j],
            sweep_count=K,
            iterates=None if iterates is None else iterates[j],
            error_norms=None if errors is None else errors[j],
        )
        for j in range(R)
    )
    return hists if np.ndim(b) == 2 else hists[0]


def cgls(A, b, k_max: int) -> IterationHistory:
    """Conjugate gradients on the normal equations A^T A x = A^T b, x0 = 0.

    Iterates are always stored.  On breakdown (vanishing direction norm)
    the history is truncated and flagged "breakdown".  Raises ValueError
    for a k_max that is not an integer >= 1, a complex or non-numeric A
    and a b that is not one m-vector of finite real entries.
    """
    _check_int("k_max", k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    A = _as_matrix(A)
    B = _rhs_block(b, A.shape[0])
    if B.shape[1] != 1:
        raise ValueError(f"cgls takes one right-hand side, got {B.shape[1]}")
    b = B[:, 0]
    n = A.shape[1]

    x = np.zeros(n)
    r = b.copy()
    s = A.T @ r
    p = s.copy()
    gamma = float(s @ s)

    iterates = [x.copy()]
    residuals = [float(np.linalg.norm(r))]
    flags = ()
    for _ in range(k_max):
        q = A @ p
        delta = float(q @ q)
        if delta == 0.0 or gamma == 0.0:
            flags = ("breakdown",)
            break
        alpha = gamma / delta
        x = x + alpha * p
        r = r - alpha * q
        s = A.T @ r
        gamma_new = float(s @ s)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
        iterates.append(x.copy())
        residuals.append(float(np.linalg.norm(r)))

    return IterationHistory(
        residual_norms=np.array(residuals),
        sweep_count=len(residuals) - 1,
        iterates=np.array(iterates),
        flags=flags,
    )
