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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import _as_array, _check_int, _check_real
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
    """Knobs for a row-action solve.

    ValueError when built unless omega is a real number in (0, 2), the
    variant is known, and max_sweeps and seed are integers >= 0.
    """

    omega: float = 1.0
    variant: str = "standard"
    max_sweeps: int = 100
    seed: int = 0
    store_iterates: bool = False

    def __post_init__(self):
        _check_real("omega", self.omega, below=2.0)
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        _check_int("max_sweeps", self.max_sweeps, 0)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class IterationHistory:
    """Per-sweep record including the initial point x0.

    All arrays have length sweep_count + 1, and ``sweep_count`` is read
    from ``residual_norms``.  ``iterates`` and ``error_norms`` are
    optional (the latter requires a reference vector).  ``flags`` carries
    events such as a CGLS breakdown.
    """

    residual_norms: np.ndarray
    iterates: np.ndarray | None = None
    error_norms: np.ndarray | None = None
    flags: tuple = ()

    @property
    def sweep_count(self) -> int:
        return self.residual_norms.size - 1

    def write_csv(self, fh) -> None:
        """CSV columns: sweep, residual_norm[, error_norm]."""
        columns = {"sweep": range(self.sweep_count + 1), "residual_norm": self.residual_norms}
        if self.error_norms is not None:
            columns["error_norm"] = self.error_norms
        write_table(fh, columns)


def row_norms_squared(A) -> np.ndarray:
    """Squared row norms ||a_i||^2, computed once per solve."""
    A = _as_array(A, "matrix")
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


def _loop_args(A, b, x):
    """(A, b, a copy of x, the squared row norms) for a row loop, checked as in ``run``."""
    A = _as_array(A, "matrix")
    b = _as_array(b, "b", rows=A.shape[0], block=True)
    x = _as_array(x, "x", rows=A.shape[1], block=True).copy()
    return A, b, x, row_norms_squared(A)


def sweep_standard(A, b, x, omega: float) -> np.ndarray:
    """One full pass over the rows in storage order.

    Equals x + A^T L^-1 (b - A x) in exact arithmetic.
    """
    A, b, x, rn = _loop_args(A, b, x)
    return _project_rows(A, b, x, omega, rn, range(A.shape[0]))


def sweep_symmetric(A, b, x, omega: float) -> np.ndarray:
    """A down sweep followed by an up sweep (2m row updates)."""
    A, b, x, rn = _loop_args(A, b, x)
    m = A.shape[0]
    x = _project_rows(A, b, x, omega, rn, range(m))
    return _project_rows(A, b, x, omega, rn, range(m - 1, -1, -1))


def sweep_randomized(A, b, x, omega: float, rng: np.random.Generator) -> np.ndarray:
    """m row updates with indices drawn uniformly with replacement.

    Advances ``rng``; pass the same seeded generator across sweeps for a
    reproducible iterate sequence.
    """
    A, b, x, rn = _loop_args(A, b, x)
    m = A.shape[0]
    order = rng.integers(0, m, size=m)
    return _project_rows(A, b, x, omega, rn, order)


def run(p, b, cfg: SweepConfig, reference=None):
    """Drive cfg.max_sweeps sweeps on problem p with data b, from x0 = 0.

    ``b`` is an m-vector, giving one :class:`IterationHistory`, or an
    m-by-R block, giving a tuple of R histories in column order.  All
    columns are swept together.  Each history records the residual norm
    ||b - A x_k|| per sweep, the error norm ||x_k - reference|| when a
    reference n-vector is given, and the iterates themselves when
    cfg.store_iterates is set.  Raises ValueError unless A is a finite
    real matrix, b a finite real m-vector or m-by-R block and the
    reference a finite real n-vector.
    """
    A = _as_array(p.A, "matrix")
    m, n = A.shape
    B = np.asfortranarray(_as_array(b, "b", rows=m, block=True).reshape(m, -1))
    if reference is not None:
        reference = _as_array(reference, "reference", rows=n)[:, None]
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
    unless k_max is an integer >= 1, A a finite real matrix and b a finite
    real m-vector.
    """
    _check_int("k_max", k_max, 1)
    A = _as_array(A, "matrix")
    b = _as_array(b, "b", rows=A.shape[0])
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
        iterates=np.array(iterates),
        flags=flags,
    )
