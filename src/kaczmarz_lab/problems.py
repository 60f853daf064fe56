"""Test-problem generators, row orderings, and the Gaussian noise model.

Three classic discrete inverse problems are provided:

* ``gravity`` -- 1-D gravity surveying, midpoint quadrature of the kernel
  K(s,t) = d * (d^2 + (s-t)^2)^(-3/2) on [0,1]^2.  The depth d controls
  the conditioning (d=0.01 mild, d=0.4 numerically singular at n=128).
* ``baart`` -- Galerkin discretization (orthonormal box functions, exact
  s-integration, Simpson in t) of the Fredholm equation with kernel
  exp(s cos t) on [0, pi/2] x [0, pi]; severely ill-conditioned.
* ``paralleltomo`` -- 2-D parallel-beam tomography matrix built by exact
  ray/pixel-grid intersection.  Rows are ordered angle-major (all rays of
  the first angle, then the second, ...), which makes leading rows
  structurally orthogonal.

All generators regenerate the right-hand side as b_bar = A @ x_bar so
generated systems are consistent to machine precision; the product is
scipy's ``dgemv`` (:func:`_matvec`), not numpy's ``@``.  Randomness flows
exclusively through numpy's seeded PCG64 generator
(``numpy.random.default_rng``) so realizations are reproducible.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from ._lapack import blas
from .linalg import _as_array, _check_int, _check_real

__all__ = [
    "TestProblem",
    "NoiseModel",
    "RowOrdering",
    "gravity",
    "baart",
    "paralleltomo",
    "shepp_logan_like",
    "random_ordering",
    "apply_ordering",
    "add_noise",
    "save_problem",
    "load_problem",
]


@dataclass(frozen=True)
class TestProblem:
    """A consistent linear system with known ground truth.

    Invariants: ||A @ x_bar - b_bar|| <= 1e-12 ||b_bar|| and A has no zero
    rows.  Instances are treated as immutable; derived problems (e.g. row
    permutations) are new objects.
    """

    A: np.ndarray
    x_bar: np.ndarray
    b_bar: np.ndarray
    name: str
    params: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def validate(self) -> None:
        """Raise ValueError unless dtypes, shapes, finiteness and the invariants hold."""
        _as_array(self.A, f"problem {self.name!r}: A")
        for label, size in (("x_bar", self.n), ("b_bar", self.m)):
            _as_array(getattr(self, label), f"problem {self.name!r}: {label}", rows=size,
                      want=f"have shape ({size},)")
        rn = np.einsum("ij,ij->i", self.A, self.A)
        if np.any(rn == 0.0):
            raise ValueError(f"problem {self.name!r} has a zero row")
        resid = np.linalg.norm(self.A @ self.x_bar - self.b_bar)
        if resid > 1e-12 * max(np.linalg.norm(self.b_bar), 1e-300):
            raise ValueError(f"problem {self.name!r} is not consistent")


@dataclass(frozen=True)
class NoiseModel:
    """White Gaussian noise: e ~ N(0, sigma^2 I), drawn from PCG64(seed).

    ValueError unless sigma is a finite real number >= 0 and seed an
    integer >= 0.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self):
        _check_real("sigma", self.sigma)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class RowOrdering:
    """A permutation of the m row indices with a human-readable label."""

    perm: np.ndarray
    label: str = ""

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        m = perm.size
        if not np.array_equal(np.sort(perm), np.arange(m)):
            raise ValueError("perm is not a permutation of 0..m-1")
        object.__setattr__(self, "perm", perm)

    @property
    def m(self) -> int:
        return int(self.perm.size)

    def inverse(self) -> "RowOrdering":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return RowOrdering(inv, label=f"inverse({self.label})")


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a C-ordered A, as one scipy ``dgemv`` on the view A.T, which it reads uncopied.

    numpy's ``@`` would run in numpy's own OpenBLAS and wake its thread
    pool, whose spinning threads then slow the scipy kernels that follow
    (README, "BLAS threads").  The bytes are those of ``A @ x``.
    """
    return blas.dgemv(1.0, A.T, x, trans=1)


def gravity(n: int, d: float) -> TestProblem:
    """1-D gravity surveying problem of size n with source depth d.

    A[i, j] = (1/n) * d * (d^2 + ((i-j)/n)^2)^(-3/2) from midpoint
    quadrature on collocation/quadrature points t = (k - 0.5)/n, and
    x_bar(t) = sin(pi t) + 0.5 sin(2 pi t).  A is symmetric since the
    kernel depends only on |i - j|.  Raises ValueError unless n is an
    integer >= 2 and d a finite real number > 0.
    """
    _check_int("n", n, 2)
    _check_real("depth d", d, positive=True)
    t = (np.arange(1, n + 1) - 0.5) / n
    S, T = np.meshgrid(t, t, indexing="ij")
    A = (1.0 / n) * d * (d**2 + (S - T) ** 2) ** (-1.5)
    x_bar = np.sin(np.pi * t) + 0.5 * np.sin(2 * np.pi * t)
    return TestProblem(
        A=A, x_bar=x_bar, b_bar=_matvec(A, x_bar), name="gravity", params={"n": n, "d": d}
    )


def baart(n: int) -> TestProblem:
    """Baart's first-kind Fredholm test problem of even order n.

    Galerkin discretization with orthonormal box functions on
    [0, pi/2] x [0, pi]: the s-integral of exp(s cos t) is evaluated in
    closed form, the t-integral by Simpson's rule on each cell.  The
    coefficient vector of the solution sin(t) is returned as x_bar.
    Severely ill-conditioned already for moderate n.  Raises ValueError
    unless n is an even integer >= 4.
    """
    _check_int("n", n, 4)
    if n % 2 != 0:
        raise ValueError("n must be even and at least 4")
    hs = np.pi / (2 * n)
    ht = np.pi / n
    c = 1.0 / (3.0 * np.sqrt(2.0))
    ihs = np.arange(n + 1) * hs
    A = np.zeros((n, n))
    f3 = np.exp(ihs[1:]) - np.exp(ihs[:-1])
    for j in range(1, n + 1):
        f1 = f3
        co2 = np.cos((j - 0.5) * ht)
        co3 = np.cos(j * ht)
        f2 = (np.exp(ihs[1:] * co2) - np.exp(ihs[:-1] * co2)) / co2
        if j == n // 2:
            # cos(j*ht) = 0 here: the s-integrand is constant 1
            f3 = hs * np.ones(n)
        else:
            f3 = (np.exp(ihs[1:] * co3) - np.exp(ihs[:-1] * co3)) / co3
        A[:, j - 1] = c * (f1 + 4.0 * f2 + f3)
    j = np.arange(1, n + 1)
    x_bar = (np.cos((j - 1) * ht) - np.cos(j * ht)) / np.sqrt(ht)
    return TestProblem(
        A=A, x_bar=x_bar, b_bar=_matvec(A, x_bar), name="baart", params={"n": n}
    )


# Additive ellipses (value, cx, cy, half-axis-a, half-axis-b, angle_deg) in
# [-1, 1]^2 coordinates; a crude piecewise-constant head phantom.
_PHANTOM_ELLIPSES = (
    (1.0, 0.0, 0.0, 0.69, 0.92, 0.0),
    (-0.8, 0.0, -0.02, 0.66, 0.87, 0.0),
    (-0.2, 0.22, 0.0, 0.11, 0.31, -18.0),
    (-0.2, -0.22, 0.0, 0.16, 0.41, 18.0),
    (0.1, 0.0, 0.35, 0.21, 0.25, 0.0),
    (0.15, 0.0, -0.6, 0.046, 0.046, 0.0),
    (0.15, -0.08, -0.605, 0.046, 0.023, 0.0),
    (0.15, 0.06, -0.605, 0.023, 0.046, 90.0),
)


def shepp_logan_like(N: int) -> np.ndarray:
    """Piecewise-constant additive ellipse phantom on an N x N grid.

    Returned flattened in the pixel order used by ``paralleltomo``:
    column-major, top-to-bottom within a column, columns left-to-right.
    Raises ValueError unless N is an integer >= 1.
    """
    _check_int("N", N, 1)
    # pixel centers in [-1, 1]^2; x right, y up
    c = (np.arange(N) + 0.5) * (2.0 / N) - 1.0
    X = np.repeat(c, N)            # column-major: x constant per block
    Y = np.tile(-c, N)             # top-to-bottom inside a column
    img = np.zeros(N * N)
    for val, cx, cy, a, b, ang in _PHANTOM_ELLIPSES:
        th = np.deg2rad(ang)
        xr = (X - cx) * np.cos(th) + (Y - cy) * np.sin(th)
        yr = -(X - cx) * np.sin(th) + (Y - cy) * np.cos(th)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    return img


def _trace_rays(x_lines, N, x0, y0, a, b):
    """Intersection lengths of the parallel rays of one angle with the grid.

    Ray q is (x0[q] + t a, y0[q] + t b); grid lines sit at ``x_lines``
    (-N/2, -N/2 + 1, ..., N/2, the pixel edges).  Returns (ray, pixel, length) triples in
    ray order, and in crossing order along each ray, with pixels numbered
    column-major from the upper-left corner.  Each ray's crossing points
    are sorted by t (stable, x-line crossings first on ties), cut to the
    grid, and merged where they coincide (a ray through a grid corner);
    each gap between consecutive points gives one segment, in the pixel
    that holds its midpoint.  The points of all rays are held in one
    (rays, K) array and compacted by stable sorts on masks.
    """
    x0, y0 = x0[:, None], y0[:, None]
    ts, xs, ys = [], [], []
    if abs(a) > 1e-14:
        tx = (x_lines - x0) / a
        ts.append(tx)
        xs.append(np.broadcast_to(x_lines, tx.shape))
        ys.append(b * tx + y0)
    if abs(b) > 1e-14:
        ty = (x_lines - y0) / b
        ts.append(ty)
        xs.append(a * ty + x0)
        ys.append(np.broadcast_to(x_lines, ty.shape))
    order = np.argsort(np.concatenate(ts, axis=1), axis=1, kind="stable")
    xs = np.take_along_axis(np.concatenate(xs, axis=1), order, axis=1)
    ys = np.take_along_axis(np.concatenate(ys, axis=1), order, axis=1)
    half = N / 2.0
    inside = (
        (xs >= -half - 1e-10)
        & (xs <= half + 1e-10)
        & (ys >= -half - 1e-10)
        & (ys <= half + 1e-10)
    )
    xs, ys, count = _compact(xs, ys, inside)
    # merge duplicate crossing points (ray through a grid corner)
    pos = np.arange(xs.shape[1])
    keep = pos < count[:, None]
    keep[:, 1:] &= (np.abs(np.diff(xs, axis=1)) > 1e-10) | (np.abs(np.diff(ys, axis=1)) > 1e-10)
    xs, ys, count = _compact(xs, ys, keep)
    seg = np.sqrt(np.diff(xs, axis=1) ** 2 + np.diff(ys, axis=1) ** 2)
    good = (pos[:-1] < count[:, None] - 1) & (seg > 1e-12)
    ray = np.nonzero(good)[0]
    xm = 0.5 * (xs[:, :-1] + xs[:, 1:])[good]
    ym = 0.5 * (ys[:, :-1] + ys[:, 1:])[good]
    col = np.floor(xm + N / 2).astype(int)
    row = np.floor(N / 2 - ym).astype(int)
    ok = (col >= 0) & (col < N) & (row >= 0) & (row < N)
    return ray[ok], col[ok] * N + row[ok], seg[good][ok]


def _compact(xs, ys, mask):
    """Move each row's masked points to its front, in order; with their counts."""
    idx = np.argsort(~mask, axis=1, kind="stable")
    return (np.take_along_axis(xs, idx, axis=1), np.take_along_axis(ys, idx, axis=1),
            np.count_nonzero(mask, axis=1))


def paralleltomo(
    N: int,
    n_angles: int,
    rays_per_angle: int,
    width: float | None = None,
) -> TestProblem:
    """Parallel-beam tomography matrix for an N x N pixel image.

    Projection angles are equispaced in [0, 180) degrees.  The
    ``rays_per_angle`` parallel rays of each projection are equispaced
    over a centered detector of the given ``width`` (distance from the
    first ray to the last).  The default width ``rays_per_angle - 1``
    gives unit ray spacing, so every ray crosses the grid and rays of one
    angle never share a pixel; wider detectors (e.g. N * sqrt(2), the
    full image diagonal) make edge rays miss the grid at near-axis
    angles, and those all-zero rows are dropped.  ``params['kept_rays']``
    records the surviving (angle-major) ray indices.

    A[i, j] is the exact intersection length of ray i with pixel j;
    pixels are numbered column-major from the upper-left corner.  The
    ground truth is a piecewise-constant ellipse phantom.  Raises
    ValueError unless N >= 2, n_angles >= 1 and rays_per_angle >= 1 are
    integers and the width is a finite real number >= 0.
    """
    for name, value, lo in (("N", N, 2), ("n_angles", n_angles, 1),
                            ("rays_per_angle", rays_per_angle, 1)):
        _check_int(name, value, lo)
    if width is None:
        width = float(rays_per_angle - 1) if rays_per_angle > 1 else 0.0
    _check_real("detector width", width)

    x_lines = np.arange(N + 1) - N / 2
    angles = np.arange(n_angles) * (180.0 / n_angles)
    if rays_per_angle > 1:
        tau = np.linspace(-width / 2.0, width / 2.0, rays_per_angle)
    else:
        tau = np.zeros(1)

    blocks, kept = [], []
    for ia, theta in enumerate(angles):
        rad = np.deg2rad(theta)
        ct, st = np.cos(rad), np.sin(rad)
        ray, pixel, length = _trace_rays(x_lines, N, ct * tau, st * tau, -st, ct)
        block = np.zeros((rays_per_angle, N * N))
        np.add.at(block, (ray, pixel), length)
        hit = np.flatnonzero(block.any(axis=1))
        blocks.append(block[hit])
        kept.extend((ia * rays_per_angle + hit).tolist())
    if not kept:
        raise ValueError("all rays miss the pixel grid")
    A = np.concatenate(blocks)
    x_bar = shepp_logan_like(N)
    return TestProblem(
        A=A,
        x_bar=x_bar,
        b_bar=_matvec(A, x_bar),
        name="paralleltomo",
        params={
            "N": N,
            "n_angles": n_angles,
            "rays_per_angle": rays_per_angle,
            "width": width,
            "kept_rays": kept,
        },
    )


def random_ordering(m: int, seed: int) -> RowOrdering:
    """Uniformly random permutation of 0..m-1 from PCG64(seed).

    Deterministic: the same seed yields the same permutation everywhere.
    Raises ValueError unless m is an integer >= 1 and seed one >= 0.
    """
    _check_int("m", m, 1)
    _check_int("seed", seed, 0)
    perm = np.random.default_rng(seed).permutation(m)
    return RowOrdering(perm=perm, label=f"random(seed={seed})")


def apply_ordering(p: TestProblem, o: RowOrdering) -> TestProblem:
    """Permute the rows of A and the entries of b_bar identically."""
    if o.m != p.m:
        raise ValueError(f"ordering has {o.m} entries, problem has {p.m} rows")
    params = dict(p.params)
    params["ordering"] = o.label or "custom"
    return TestProblem(
        A=p.A[o.perm].copy(),
        x_bar=p.x_bar,
        b_bar=p.b_bar[o.perm].copy(),
        name=p.name,
        params=params,
    )


def add_noise(b_bar, nm: NoiseModel) -> np.ndarray:
    """Return b_bar + e with e ~ N(0, sigma^2 I) from the seeded generator.

    Raises ValueError unless b_bar is a nonempty finite real vector.
    """
    b_bar = _as_array(b_bar, "b_bar", rows=np.size(b_bar))
    if nm.sigma == 0.0:
        return b_bar.copy()
    e = np.random.default_rng(nm.seed).standard_normal(b_bar.shape)
    return b_bar + nm.sigma * e


# --- container format: zip with a JSON header and .npy payloads ----------
#
# header.json: {"name", "params", "m", "n"}; A.npy is the m-by-n matrix in
# row-major float64, x_bar.npy / b_bar.npy the vectors.

def save_problem(p: TestProblem, path) -> None:
    """Write a problem as a zip container (JSON header + .npy payloads)."""
    header = {"name": p.name, "params": p.params, "m": p.m, "n": p.n}
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        def put(name, data):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, data)

        put("header.json", json.dumps(header, sort_keys=True, indent=1))
        for name, arr in (("A", p.A), ("x_bar", p.x_bar), ("b_bar", p.b_bar)):
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arr, dtype=float))
            put(name + ".npy", buf.getvalue())


def load_problem(path) -> TestProblem:
    """Read a problem written by :func:`save_problem`.

    Raises ValueError when the container is inconsistent: a missing
    member, a header that is not a table with the keys ``save_problem``
    writes or that disagrees with the matrix, or a problem that fails
    :meth:`TestProblem.validate`.
    """
    with zipfile.ZipFile(path, "r") as zf:
        try:
            header = json.loads(zf.read("header.json"))
            arrays = {
                name: np.load(io.BytesIO(zf.read(name + ".npy")))
                for name in ("A", "x_bar", "b_bar")
            }
        except KeyError as exc:  # zipfile's error for a missing member
            raise ValueError(f"incomplete container: {exc.args[0]}") from exc
    if not (isinstance(header, dict) and {"name", "params", "m", "n"} <= header.keys()):
        raise ValueError("container header must be a table of name, params, m and n")
    p = TestProblem(
        A=arrays["A"],
        x_bar=arrays["x_bar"],
        b_bar=arrays["b_bar"],
        name=header["name"],
        params=header["params"],
    )
    p.validate()
    if p.m != header["m"] or p.n != header["n"]:
        raise ValueError("container header disagrees with matrix shape")
    return p
